"""Result files, and the statistics every performance claim in this repo uses.

A result file is ``{"envelope": {...}, "runs": [run, ...]}``; a run holds,
per workload, the metrics of one benchmark run.  ``e2e.json`` is a file with
one run, ``--repeat N`` writes one with N, and ``--compare`` reads either.
The metric names, units, directions and bounds are read from the repo's
``BENCHMARK.json`` — they are defined once, there.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from pathlib import Path

from harness import REPO_ROOT

SCHEMA_VERSION = 1
#: Fewer runs than this on either side and --compare cannot know the spread.
MIN_RUNS_TO_COMPARE = 3


def load_spec() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def envelope(seed: int, seconds: float) -> dict:
    """Where and how a result was measured (taken when the run starts)."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    nproc = os.cpu_count() or 1
    load_1m = os.getloadavg()[0]
    return {
        "schema_version": SCHEMA_VERSION,
        "git_sha": sha or "unknown",
        "seed": seed,
        "seconds": seconds,
        "nproc": nproc,
        "python": platform.python_version(),
        "load_1m_at_start": load_1m,
        # Someone else is using the box: treat the numbers with suspicion.
        "host_busy": load_1m > nproc / 2,
    }


def write_result(path: Path, result: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1) + "\n")


def values_of(result: dict, workload: str, metric: str) -> list[float]:
    return [
        run["workloads"][workload]["metrics"][metric]
        for run in result["runs"]
        if metric in run["workloads"].get(workload, {}).get("metrics", {})
    ]


# --------------------------------------------------------------------- #
def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median — what the bounds are held against."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def print_metrics(title: str, metrics: dict[str, float], units: dict[str, str]) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.4f} {units.get(name, '')}")


def print_repeat_summary(result: dict, spec: dict) -> None:
    """Per workload x end-to-end metric: median, quartiles, range / median."""
    header = f"{'workload':<11} {'metric':<20} {'unit':<6} {'n':>3} {'median':>11} {'q1':>11} {'q3':>11} {'iqr/med':>8} {'range/med':>9} {'bound':>6}"
    print(header)
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            values = values_of(result, workload, metric["name"])
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            print(
                f"{workload:<11} {metric['name']:<20} {metric['unit']:<6} {len(values):>3} "
                f"{median:>11.4f} {q1:>11.4f} {q3:>11.4f} {spread(values):>8.3f} "
                f"{(max(values) - min(values)) / median:>9.3f} {metric['bound']:>6.2f}"
            )


def compare(before: dict, after: dict, spec: dict) -> int:
    """Apply the bounds; returns the number of regressions.

    ``pass``: the after-median is not worse than the before-median by more
    than the bound.  ``regress``: it is.  ``unresolved``: either side's own
    run-to-run spread exceeds the bound, or a side has fewer than
    ``MIN_RUNS_TO_COMPARE`` runs and so no known spread (single runs on this
    box move 10-25 %) — the runs cannot tell.
    """
    regressions = 0
    print(f"{'workload':<11} {'metric':<20} {'before':>11} {'after':>11} {'worse by':>9} {'spread':>7} {'bound':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a = values_of(before, workload, metric["name"])
            b = values_of(after, workload, metric["name"])
            if not a or not b:
                continue
            median_a, median_b = statistics.median(a), statistics.median(b)
            change = (median_b - median_a) / median_a
            worse_by = change if metric["better"] == "lower" else -change
            noise = max(spread(a), spread(b))
            if min(len(a), len(b)) < MIN_RUNS_TO_COMPARE:
                verdict = f"unresolved (n={min(len(a), len(b))}, use --repeat)"
            elif noise > metric["bound"]:
                verdict = "unresolved"
            elif worse_by > metric["bound"]:
                verdict = "regress"
                regressions += 1
            else:
                verdict = "pass"
            print(
                f"{workload:<11} {metric['name']:<20} {median_a:>11.4f} {median_b:>11.4f} "
                f"{worse_by:>+9.3f} {noise:>7.3f} {metric['bound']:>6.2f}  {verdict}"
            )
    return regressions
