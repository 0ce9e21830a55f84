"""The repo's end-to-end benchmark: the real router + node processes, one command.

    python3 benchmarks/e2e/run.py                       every workload once -> results/e2e.json
    python3 benchmarks/e2e/run.py --workload read-scan  one workload
    python3 benchmarks/e2e/run.py --trace 1             per-layer metrics (second, span-recording cluster)
    python3 benchmarks/e2e/run.py --repeat 5 --out results/a.json
    python3 benchmarks/e2e/run.py --compare results/a.json results/b.json
    python3 benchmarks/e2e/run.py --ladder              open-loop rates, informational
    python3 benchmarks/e2e/run.py --smoke               a few seconds, one workload

Every run boots fresh processes, checks every answer it got, and ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}``.  A run that
saw a wrong answer or a failed transaction prints no metrics and exits 1.
``README.md`` next to this file explains every metric and workload.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from harness import E2E_DIR, SRC_DIR

# The cluster processes get src/ through PYTHONPATH; this process imports
# the client and the checker from the same checkout.
sys.path.insert(0, str(SRC_DIR))

import ladder  # noqa: E402
import measure  # noqa: E402
import report  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RESULTS_DIR = E2E_DIR / "results"
SMOKE_SECONDS = 6.0


def _units(spec: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_workload(name: str, args, spec: dict) -> dict:
    """One benchmark run of one workload; raises SystemExit(1) on a wrong answer."""
    trace = bool(args.trace)
    result = measure.run(WORKLOADS[name], args.seed, args.seconds, trace, RESULTS_DIR)
    verdict = result.verdict
    if not verdict["correct"]:
        print(f"{name}: INCORRECT, no metrics reported", file=sys.stderr)
        for violation in verdict["violations"]:
            print(f"  {violation}", file=sys.stderr)
        raise SystemExit(1)
    # Report exactly the metrics BENCHMARK.json declares, in its order; a
    # name this code does not produce is a KeyError, not a silent gap.
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: result.metrics[m["name"]] for m in declared}
    report.print_metrics(
        f"{name} (seed {args.seed}, {args.seconds:g} s, {'traced' if trace else 'untraced'}): "
        f"{verdict['attempted']} transactions, 0 failed, 0 anomalies",
        metrics,
        _units(spec),
    )
    return {
        "metrics": metrics,
        "samples": result.samples,
        "phases": result.phases,
        "verdict": verdict,
        "command_lines": result.command_lines,
    }


def run_suite(names: list[str], args, spec: dict) -> dict:
    return {"seed": args.seed, "workloads": {name: run_workload(name, args, spec) for name in names}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, metavar="N", help="run the suite N times, summarise")
    parser.add_argument("--out", type=Path, help="result file (default: results/e2e.json)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"))
    parser.add_argument("--ladder", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    spec = report.load_spec()

    if args.compare:
        before, after = (json.loads(path.read_text()) for path in args.compare)
        return 1 if report.compare(before, after, spec) else 0

    if args.smoke:
        args.workload = args.workload or "paper-mix"
        args.seconds = args.seconds or SMOKE_SECONDS
    args.seconds = args.seconds or float(spec["run_seconds"])
    envelope = report.envelope(args.seed, args.seconds)
    if envelope["host_busy"]:
        print(f"warning: 1-min load {envelope['load_1m_at_start']:.2f} on {envelope['nproc']} cores "
              "before the run; numbers may not repeat", file=sys.stderr)

    if args.ladder:
        rungs = ladder.run_ladder(args.seed, RESULTS_DIR)
        report.write_result(
            args.out or RESULTS_DIR / "ladder.json", {"envelope": envelope, "runs": [rungs]}
        )
        return 0 if all(row["correct"] for row in rungs["rates"]) else 1

    names = [args.workload] if args.workload else list(WORKLOADS)
    runs = [run_suite(names, args, spec) for _ in range(args.repeat or 1)]
    result = {"envelope": envelope, "runs": runs}
    report.write_result(args.out or RESULTS_DIR / "e2e.json", result)
    if args.repeat:
        report.print_repeat_summary(result, spec)

    if args.workload:
        # The last line: the contract of BENCHMARK.json's command.
        last = runs[-1]["workloads"][args.workload]
        print(
            json.dumps(
                {
                    "correct": last["verdict"]["correct"],
                    "attempted": last["verdict"]["attempted"],
                    "failed": last["verdict"]["failed"],
                    "metrics": {
                        name: {"value": value, "unit": _units(spec)[name]}
                        for name, value in last["metrics"].items()
                    },
                }
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
