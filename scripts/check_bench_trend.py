#!/usr/bin/env python3
"""CI perf-trend gate: compare fresh ``BENCH_*.json`` against committed baselines.

The ``bench-smoke`` job snapshots the committed ``benchmarks/results/BENCH_*.json``
baselines before running the benchmarks (which overwrite them in place), then
invokes this script to compare the fresh results against the snapshot with
per-metric tolerances.  A metric that regresses beyond its tolerance — or
breaches a hard bound — fails the build; the comparison table is appended to
``$GITHUB_STEP_SUMMARY`` so the trend is visible on the run page.

Metrics fall into two classes:

* **ratio/fraction metrics** (speedups, improvement fractions, recovered
  fraction) are stable across the ``BENCH_FAST`` scale-down, so their
  tolerances are relatively tight;
* **wall-clock and absolute-scale metrics** are machine- and scale-
  sensitive, so they are either not gated or gated with generous tolerances
  and a hard floor/ceiling that encodes the acceptance criterion itself.

Usage::

    python scripts/check_bench_trend.py \
        --baseline-dir /tmp/bench-baselines \
        --results-dir benchmarks/results \
        [--summary "$GITHUB_STEP_SUMMARY"]

Exit status 0 when every gated metric is within tolerance, 1 otherwise.
A gated file missing from the results dir is skipped (its benchmark did not
run in this job); a file missing from the baseline dir is reported as a new
baseline and only its hard bounds are enforced.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

HIGHER = "higher"
LOWER = "lower"


@dataclass(frozen=True)
class Metric:
    """One gated metric inside a BENCH json file.

    ``path`` is a dotted path into the json document.  ``direction`` names
    which way is better.  ``tolerance`` is the allowed relative regression
    against the baseline (0.35 = fresh may be up to 35% worse).  ``floor`` /
    ``ceiling`` are hard bounds enforced even without a baseline — they
    encode the benchmark's own acceptance criteria.

    ``relative_to`` turns an absolute metric into a ratio against another
    path in the same document (e.g. autoscaled p99 over the over-provisioned
    gold standard's p99) — ratios are scale-robust, so they stay comparable
    between ``BENCH_FAST`` CI runs and full-mode baselines.

    ``scale_sensitive`` marks absolute metrics whose value depends on the
    benchmark's workload scale (history size, run duration, client count).
    CI runs the benchmarks in ``BENCH_FAST=1`` mode while the committed
    baselines are full-mode, so comparing such a metric across scales is
    meaningless (and the first deterministic mismatch would permanently
    redden the build); when the file's scale marker differs between
    baseline and fresh, these metrics enforce only their hard bounds.
    """

    path: str
    direction: str
    tolerance: float
    floor: float | None = None
    ceiling: float | None = None
    scale_sensitive: bool = False
    relative_to: str | None = None

    @property
    def label(self) -> str:
        if self.relative_to is None:
            return self.path
        return f"{self.path} / {self.relative_to}"


@dataclass(frozen=True)
class FileSpec:
    """Gated metrics of one BENCH file plus its workload-scale marker."""

    metrics: tuple[Metric, ...]
    #: Dotted path whose value identifies the workload scale (e.g. the
    #: ``fast_mode`` flag or the run duration); ``None`` = always comparable.
    scale_marker: str | None = None


#: The gate: file name -> gated metrics.
GATED: dict[str, FileSpec] = {
    "BENCH_read_path.json": FileSpec(
        metrics=(
            Metric("by_reads_per_txn.16.speedup", HIGHER, 0.35, floor=1.5),
            Metric("by_reads_per_txn.64.speedup", HIGHER, 0.35, floor=1.5),
        ),
        scale_marker="workload.fast_mode",
    ),
    "BENCH_parallel_io.json": FileSpec(
        metrics=(
            Metric("pipeline_median_improvement.dynamodb", HIGHER, 0.40, floor=0.05),
            Metric("pipeline_median_improvement.s3", HIGHER, 0.40, floor=0.05),
        ),
    ),
    "BENCH_elasticity.json": FileSpec(
        metrics=(
            # Autoscaled tail latency must stay near the over-provisioned
            # gold standard (within 1.5x), while spending meaningfully fewer
            # node-seconds (< 75%).  Both are gated as ratios against the
            # static_overprovisioned run from the same file, which makes
            # them scale-robust: fast-vs-full drift is under 10%.
            Metric(
                "runs.autoscaled_ch.p99_ms",
                LOWER,
                0.25,
                ceiling=1.5,
                relative_to="runs.static_overprovisioned.p99_ms",
            ),
            Metric(
                "runs.autoscaled_ch.node_seconds",
                LOWER,
                0.30,
                ceiling=0.75,
                relative_to="runs.static_overprovisioned.node_seconds",
            ),
        ),
        scale_marker="duration",
    ),
    "BENCH_fault_manager.json": FileSpec(
        metrics=(
            # The speedups are mildly scale-dependent (per-shard base latency
            # looms larger over a smaller history), so the tolerance leaves
            # headroom for the fast-vs-full drift; the floor is the gate.
            Metric("by_shards.4.speedup_vs_singleton", HIGHER, 0.35, floor=2.0),
            Metric("by_shards.8.speedup_vs_singleton", HIGHER, 0.35, floor=2.0),
            # The watermark window is ~constant while the history scales, so
            # the fraction only compares within one scale; the ceiling IS the
            # acceptance criterion and holds at every scale.
            Metric(
                "by_shards.4.memory_fraction_of_history",
                LOWER,
                0.50,
                ceiling=0.5,
                scale_sensitive=True,
            ),
            Metric("by_shards.4.recovery_charged_s", LOWER, 0.40, scale_sensitive=True),
        ),
        scale_marker="workload.fast_mode",
    ),
    "BENCH_fault_tolerance.json": FileSpec(
        metrics=(
            Metric("recovered_fraction", HIGHER, 0.10, floor=0.85),
            Metric("recovery_breakdown.replay_s", LOWER, 0.60, scale_sensitive=True),
        ),
        scale_marker="workload.fast_mode",
    ),
    "BENCH_async_io.json": FileSpec(
        metrics=(
            # Wall-clock speedup of 16 concurrent async clients over the
            # serial sync facade.  A ratio of two same-machine wall-clock
            # rates, so it is scale-robust but noisy on shared CI runners —
            # generous tolerance; the floor IS the acceptance criterion
            # (>= 2x overlap from the async runtime).
            Metric("speedup_at_16", HIGHER, 0.60, floor=2.0),
        ),
        scale_marker="fast_mode",
    ),
    "BENCH_multicast.json": FileSpec(
        metrics=(
            # The sender-cost improvement is a pure count ratio (deliveries +
            # records on the wire), so it is scale-robust; the floor is the
            # acceptance criterion: sharded must cut the 64-node sender cost
            # by >= 3x over direct fan-out.
            Metric("by_nodes.64.pruned.sender_cost_improvement", HIGHER, 0.20, floor=3.0),
            Metric("by_nodes.64.unpruned.sender_cost_improvement", HIGHER, 0.20, floor=3.0),
            # Partitioned sweeps must never fall back to full-keyspace scans.
            Metric("partitioned_sweep.partitioned.full_listings", LOWER, 0.0, ceiling=0.0),
        ),
        scale_marker="workload.fast_mode",
    ),
    "BENCH_nemesis.json": FileSpec(
        metrics=(
            # Adversarial certification is pass/fail, not a trend: every
            # seeded fault schedule must survive both consistency checkers
            # (floor 1.0 on the survived fraction) with zero confirmed
            # anomalies (hard ceiling 0), on both runtimes.  The fractions
            # and counts are scale-robust — fast mode just runs fewer
            # schedules.
            Metric("inproc.survived_fraction", HIGHER, 0.0, floor=1.0),
            Metric("inproc.anomalies", LOWER, 0.0, ceiling=0.0),
            Metric("sockets.survived_fraction", HIGHER, 0.0, floor=1.0),
            Metric("sockets.anomalies", LOWER, 0.0, ceiling=0.0),
        ),
        scale_marker="workload.fast_mode",
    ),
    "BENCH_rpc.json": FileSpec(
        metrics=(
            # Storage ops per storage_batch frame.  A pure count ratio, so it
            # is scale-robust; the floor IS the acceptance criterion
            # (batching must at least halve the round trips one frame per
            # op would need).
            Metric("ops_per_storage_frame", HIGHER, 0.30, floor=2.0),
            # The storage work per committed txn (2.76-2.78 in both modes),
            # so that more ops cannot pass for better batching.
            Metric("storage_ops_per_txn", LOWER, 0.30),
        ),
        scale_marker="fast_mode",
    ),
    "BENCH_real_cluster.json": FileSpec(
        metrics=(
            # The real multi-process cluster must sustain the offered
            # open-loop Poisson load.  Gated as the achieved/offered ratio,
            # which is scale-robust (fast mode offers less); the floor is
            # the bench's own acceptance criterion (>= 50% of offered).
            Metric("achieved_tps", HIGHER, 0.30, floor=0.5, relative_to="offered_tps"),
            # Read atomicity on the real transport: the Table-2 checker must
            # report zero anomalies across the whole swarm.  The ceiling IS
            # the paper's acceptance criterion at every scale.
            Metric("anomalies.fractured_read_anomalies", LOWER, 0.0, ceiling=0.0),
            Metric("anomalies.ryw_anomalies", LOWER, 0.0, ceiling=0.0),
            # Every arrival must commit: failed sessions mean the router or
            # a node dropped transactions under load.
            Metric("failed", LOWER, 0.0, ceiling=0.0),
        ),
        scale_marker="fast_mode",
    ),
    "BENCH_observability.json": FileSpec(
        metrics=(
            # Tracing disabled must be free on the rpc hot path: the guard
            # is a couple of ns per call site.  The ceiling IS the PR's
            # acceptance criterion (<= 3% overhead).
            Metric("overhead.tracing_off_slowdown_x", LOWER, 0.02, ceiling=1.03),
            # Tracing enabled pays ~13 spans/txn of real work; a CPU-ratio
            # on a shared runner, so generous tolerance, but the ceiling IS
            # the acceptance criterion (<= 15% overhead).
            Metric("overhead.tracing_on_slowdown_x", LOWER, 0.10, ceiling=1.15),
            # Every instrumented layer must keep reporting: spans per txn
            # dropping below 8 means a subsystem went dark.
            Metric("completeness.spans_per_txn", HIGHER, 0.30, floor=8.0),
            # Every span in a txn trace must reach its client root — the
            # wire context either propagated everywhere or the trace is
            # broken.
            Metric("completeness.connected_fraction", HIGHER, 0.0, floor=1.0),
        ),
        scale_marker="fast_mode",
    ),
}


def resolve(document: dict, path: str):
    """Walk a dotted path; returns None when any segment is missing."""
    node = document
    for segment in path.split("."):
        if not isinstance(node, dict) or segment not in node:
            return None
        node = node[segment]
    return node


def resolve_metric(document: dict, metric: Metric) -> float | None:
    """A metric's value in ``document``: the path itself, or the ratio
    against ``relative_to``.  None when missing or non-numeric."""
    value = resolve(document, metric.path)
    if not isinstance(value, (int, float)):
        return None
    if metric.relative_to is None:
        return float(value)
    denominator = resolve(document, metric.relative_to)
    if not isinstance(denominator, (int, float)) or denominator == 0:
        return None
    return float(value) / float(denominator)


@dataclass
class Row:
    file: str
    metric: str
    baseline: float | None
    fresh: float | None
    status: str
    detail: str

    @property
    def failed(self) -> bool:
        return self.status == "FAIL"


def check_metric(
    file_name: str,
    metric: Metric,
    fresh_doc: dict,
    baseline_doc: dict | None,
    same_scale: bool,
) -> Row:
    label = metric.label
    fresh = resolve_metric(fresh_doc, metric)
    if fresh is None:
        return Row(file_name, label, None, None, "FAIL", "metric missing from fresh results")
    baseline = resolve_metric(baseline_doc, metric) if baseline_doc is not None else None

    if metric.floor is not None and fresh < metric.floor:
        return Row(file_name, label, baseline, fresh, "FAIL", f"below hard floor {metric.floor}")
    if metric.ceiling is not None and fresh > metric.ceiling:
        return Row(file_name, label, baseline, fresh, "FAIL", f"above hard ceiling {metric.ceiling}")

    if baseline is None:
        return Row(file_name, label, None, fresh, "NEW", "no baseline; hard bounds only")
    if metric.scale_sensitive and not same_scale:
        return Row(
            file_name,
            label,
            baseline,
            fresh,
            "SCALE",
            "baseline produced at a different workload scale; hard bounds only",
        )

    if metric.direction == HIGHER:
        limit = baseline * (1.0 - metric.tolerance)
        ok = fresh >= limit
        drift = (fresh - baseline) / baseline if baseline else 0.0
    else:
        limit = baseline * (1.0 + metric.tolerance)
        ok = fresh <= limit
        drift = (fresh - baseline) / baseline if baseline else 0.0
    detail = f"{drift:+.1%} vs baseline (tolerance ±{metric.tolerance:.0%}, better={metric.direction})"
    return Row(file_name, label, baseline, fresh, "OK" if ok else "FAIL", detail)


def format_value(value: float | None) -> str:
    if value is None:
        return "—"
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.4g}"


def render_markdown(rows: list[Row]) -> str:
    icon = {"OK": "✅", "FAIL": "❌", "NEW": "🆕", "SKIP": "⏭️", "SCALE": "⚖️"}
    lines = [
        "## Benchmark perf-trend gate",
        "",
        "| file | metric | baseline | fresh | status | detail |",
        "|------|--------|----------|-------|--------|--------|",
    ]
    for row in rows:
        lines.append(
            f"| {row.file} | `{row.metric}` | {format_value(row.baseline)} | "
            f"{format_value(row.fresh)} | {icon.get(row.status, row.status)} {row.status} | {row.detail} |"
        )
    failed = sum(row.failed for row in rows)
    lines.append("")
    lines.append(
        f"**{failed} regression(s)** across {len(rows)} gated metric(s)."
        if failed
        else f"All {len(rows)} gated metric(s) within tolerance."
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--results-dir",
        type=Path,
        default=Path("benchmarks/results"),
        help="directory holding the freshly produced BENCH_*.json files",
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=Path("benchmarks/results"),
        help="directory holding the committed baseline BENCH_*.json files",
    )
    parser.add_argument(
        "--summary",
        type=Path,
        default=None,
        help="file to append the markdown comparison table to ($GITHUB_STEP_SUMMARY)",
    )
    args = parser.parse_args(argv)

    rows: list[Row] = []
    for file_name, spec in sorted(GATED.items()):
        fresh_path = args.results_dir / file_name
        if not fresh_path.exists():
            rows.append(Row(file_name, "*", None, None, "SKIP", "benchmark did not run in this job"))
            continue
        fresh_doc = json.loads(fresh_path.read_text(encoding="utf-8"))
        baseline_path = args.baseline_dir / file_name
        baseline_doc = (
            json.loads(baseline_path.read_text(encoding="utf-8")) if baseline_path.exists() else None
        )
        same_scale = True
        if spec.scale_marker is not None and baseline_doc is not None:
            same_scale = resolve(fresh_doc, spec.scale_marker) == resolve(
                baseline_doc, spec.scale_marker
            )
        for metric in spec.metrics:
            rows.append(check_metric(file_name, metric, fresh_doc, baseline_doc, same_scale))

    table = render_markdown(rows)
    print(table)
    if args.summary is not None:
        with args.summary.open("a", encoding="utf-8") as handle:
            handle.write(table + "\n")

    return 1 if any(row.failed for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
