#!/usr/bin/env python3
"""Check that the simulated benchmarks are byte-identical at two git refs.

A refactor that claims no gain must leave the simulated figures exactly
where they were.  This script checks out ``--base`` and ``--head`` as
temporary git worktrees, runs the six simulated benches in each (``fig3``,
``fig6``, ``fig7``, ``table2``, ``ablation_parallel_io`` and
``ablation_batching``; fast mode unless ``--full``), and compares the
``benchmarks/results/*.txt`` / ``*.json`` files the runs wrote byte for
byte.  It exits 1 on any difference.

Txids and node ids come from ``uuid.uuid4``, which moves a few cells run to
run, so every run seeds it through a ``sitecustomize`` module on
``PYTHONPATH`` and sets ``PYTHONHASHSEED=0``.

Usage::

    python scripts/check_sim_identity.py                      # origin/main vs HEAD
    python scripts/check_sim_identity.py --base HEAD~1 --full
"""

from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCHES = (
    "bench_fig3_end_to_end.py",
    "bench_fig6_txn_length.py",
    "bench_fig7_single_node_scalability.py",
    "bench_table2_anomalies.py",
    "bench_ablation_parallel_io.py",
    "bench_ablation_batching.py",
)

SITECUSTOMIZE = """\
import random
import uuid

_r = random.Random(1234)
uuid.uuid4 = lambda: uuid.UUID(int=_r.getrandbits(128), version=4)
"""


def git(*args: str, cwd: Path) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def run_benches(tree: Path, site_dir: Path, full: bool) -> dict[str, Path]:
    """Run every bench in ``tree``; return the result files they wrote, by name."""
    results = tree / "benchmarks" / "results"
    # Drop the committed copies, so only what these runs write is compared.
    for path in [*results.glob("*.txt"), *results.glob("*.json")]:
        path.unlink()
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join([str(site_dir), str(tree / "src")])
    env.pop("BENCH_FAST", None)
    if not full:
        env["BENCH_FAST"] = "1"
    pytest = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    for bench in BENCHES:
        print(f"  {tree.name}: {bench}", flush=True)
        subprocess.run(
            [*pytest, f"benchmarks/{bench}"], cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL
        )
    return {path.name: path for path in [*results.glob("*.txt"), *results.glob("*.json")]}


def same_file(a: Path | None, b: Path | None) -> bool:
    return a is not None and b is not None and filecmp.cmp(a, b, shallow=False)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="origin/main", help="reference ref (default: origin/main)")
    parser.add_argument("--head", default="HEAD", help="ref under test (default: HEAD)")
    parser.add_argument("--full", action="store_true", help="run the benches in full, not fast mode")
    args = parser.parse_args(argv)

    repo = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    with tempfile.TemporaryDirectory(prefix="sim-identity-") as scratch:
        scratch_dir = Path(scratch)
        site_dir = scratch_dir / "site"
        site_dir.mkdir()
        (site_dir / "sitecustomize.py").write_text(SITECUSTOMIZE)
        outputs: list[dict[str, Path]] = []
        trees: list[Path] = []
        try:
            for label, ref in (("base", args.base), ("head", args.head)):
                tree = scratch_dir / label
                git("worktree", "add", "--detach", str(tree), ref, cwd=repo)
                trees.append(tree)
                print(f"{label}: {ref} ({git('rev-parse', '--short', 'HEAD', cwd=tree)})", flush=True)
                outputs.append(run_benches(tree, site_dir, args.full))
            base, head = outputs
            names = sorted(base.keys() | head.keys())
            differ = [name for name in names if not same_file(base.get(name), head.get(name))]
        finally:
            for tree in trees:
                git("worktree", "remove", "--force", str(tree), cwd=repo)

    print(f"{len(names)} result files compared ({'full' if args.full else 'fast'} mode)")
    for name in differ:
        print(f"DIFFERS: {name}")
    if differ:
        return 1
    print("byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
