"""Smoke test of the end-to-end benchmark: ``run.py --smoke`` on real processes.

Outside tier-1's ``testpaths`` on purpose (it boots a router and two nodes
and takes ~15 s per test); run it with ``python -m pytest benchmarks/e2e/test_e2e_smoke.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parent
SPEC = json.loads((E2E_DIR.parents[1] / "BENCHMARK.json").read_text())


def _smoke(*extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(E2E_DIR / "run.py"), "--smoke", *extra],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_prints_every_end_to_end_metric():
    result = _smoke()
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0


def test_smoke_traced_run_gives_the_layer_budget():
    result = _smoke("--trace", "1")
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert result["metrics"]["trace.unattributed_share"]["value"] <= 0.10
    assert result["metrics"]["transport.self_us_per_txn"]["value"] > 0
