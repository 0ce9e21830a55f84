"""One benchmark run of one workload: set-up, phases, metrics, verdict.

Run shape, identical for every workload and closed loop throughout::

    set-up (spawn, connect, wait_ready, preload, warm-up)   x SETUPS
    lat    2 sessions, one per connection      LAT_SHARE of --seconds
    sat    16 sessions on the same connections the rest
    verify, scrape, teardown

End-to-end metrics come from this untraced run only.  A ``--trace 1`` run
spends its seconds differently (see :func:`run_traced`): it still observes
the untraced cluster from outside for the ``/proc`` and ``info`` per-layer
numbers, then boots a second, span-recording cluster for the layer budget.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
from harness import Cluster
from loadgen import LoadGenerator, Phase
from workloads import Workload

#: Full set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
LAT_SESSIONS = 2
SAT_SESSIONS = 16
LAT_SHARE = 0.55
#: Warm-up transactions per session (2 sessions), discarded.
WARMUP_TXNS = 100
#: Transactions of the single-session phases a traced run compares.
SOLO_TXNS = 400
#: Share of --seconds a traced run gives to each of lat and sat.
TRACED_PHASE_SHARE = 0.3
#: Above this the layer budget leaves too much of a transaction unexplained.
MAX_UNATTRIBUTED_SHARE = 0.10


@dataclass
class RunResult:
    verdict: dict
    metrics: dict[str, float]
    samples: dict[str, int]
    phases: dict[str, dict]
    command_lines: dict[str, list[str]]


# --------------------------------------------------------------------- #
def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 1])."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _us(seconds: float) -> float:
    return seconds * 1e6


@contextlib.asynccontextmanager
async def ready_cluster(workload: Workload, seed: int, results_dir: Path, trace_tag: str | None = None):
    """A set-up cluster: yields ``(cluster, generator, set-up seconds)``.

    Set-up is first spawn -> connect -> ``wait_ready`` -> preload -> warm-up.
    On exit the connections close first, then every process is stopped.
    """
    began = time.perf_counter()
    with Cluster(results_dir, trace_tag) as cluster:
        generator = LoadGenerator(workload, seed, cluster)
        await generator.connect()
        try:
            await generator.preload()
            await generator.run_phase("warmup", LAT_SESSIONS, txns_per_session=WARMUP_TXNS)
            yield cluster, generator, time.perf_counter() - began
        finally:
            await generator.close()


def _phase_summary(phase: Phase) -> dict:
    return {
        "sessions": phase.sessions,
        "wall_s": phase.wall_s,
        "committed": phase.committed,
        "failed": phase.failed,
    }


# --------------------------------------------------------------------- #
# Untraced run: the end-to-end metrics
# --------------------------------------------------------------------- #
async def run_untraced(workload: Workload, seed: int, seconds: float, results_dir: Path) -> RunResult:
    setup_times: list[float] = []
    for _ in range(SETUPS - 1):
        async with ready_cluster(workload, seed, results_dir) as (_, _, took):
            setup_times.append(took)
    async with ready_cluster(workload, seed, results_dir) as (cluster, generator, took):
        setup_times.append(took)
        gc.collect()
        lat = await generator.run_phase("lat", LAT_SESSIONS, seconds=seconds * LAT_SHARE)
        gc.collect()
        sat = await generator.run_phase("sat", SAT_SESSIONS, seconds=seconds * (1 - LAT_SHARE))
        rss = cluster.rss_mb()
        verdict = await generator.verify()

    metrics = {
        "setup_s": statistics.median(setup_times),
        "txn_p50_ms": _ms(statistics.median(lat.latency["txn"])),
        "read_p50_ms": _ms(statistics.median(lat.latency["get"])),
        "commit_p50_ms": _ms(statistics.median(lat.latency["commit"])),
        "cpu_ms_per_txn": _ms(sum(lat.cluster_cpu_s.values())) / lat.committed,
        "sat_tps": sat.committed / sat.wall_s,
        "sat_cpu_ms_per_txn": _ms(sum(sat.cluster_cpu_s.values())) / sat.committed,
        "rss_mb": sum(rss.values()),
    }
    samples = {
        "setup_s": len(setup_times),
        "txn_p50_ms": len(lat.latency["txn"]),
        "read_p50_ms": len(lat.latency["get"]),
        "commit_p50_ms": len(lat.latency["commit"]),
        "cpu_ms_per_txn": lat.committed,
        "sat_tps": sat.committed,
        "sat_cpu_ms_per_txn": sat.committed,
        "rss_mb": 1,
    }
    return RunResult(
        verdict=verdict,
        metrics=metrics,
        samples=samples,
        phases={"lat": _phase_summary(lat), "sat": _phase_summary(sat), "setup_s": setup_times},
        command_lines=cluster.command_lines,
    )


# --------------------------------------------------------------------- #
# Traced run: the per-layer metrics
# --------------------------------------------------------------------- #
def _observed_layers(lat: Phase, sat: Phase, rss: dict[str, float]) -> dict[str, float]:
    """Per-layer numbers seen from outside the untraced processes."""

    def cpu_split(phase: Phase, prefix: str) -> dict[str, float]:
        nodes = sum(cpu for name, cpu in phase.cluster_cpu_s.items() if name != "router")
        return {
            f"router.{prefix}cpu_ms_per_txn": _ms(phase.cluster_cpu_s["router"]) / phase.committed,
            f"node.{prefix}cpu_ms_per_txn": _ms(nodes) / phase.committed,
            f"client.{prefix}cpu_ms_per_txn": _ms(phase.client_cpu_s) / phase.committed,
        }

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def call_p50(name: str) -> float:
        calls = lat.latency[name]
        return _us(statistics.median(calls)) if calls else 0.0

    third = sat.wall_s / 3.0
    first = sum(1 for at in sat.commit_at if at < third)
    last = sum(1 for at in sat.commit_at if at >= 2 * third)
    return {
        **cpu_split(lat, ""),
        **cpu_split(sat, "sat_"),
        "router.rss_mb": rss["router"],
        "node.rss_mb": sum(mb for name, mb in rss.items() if name != "router"),
        "client.start_p50_us": call_p50("start"),
        "client.get_p50_us": call_p50("get"),
        "client.put_p50_us": call_p50("put"),
        "client.commit_p50_us": call_p50("commit"),
        # Tail latency is per-layer, not gated: across ten seeds the spread of
        # p99 was 0.10-0.12 of its median, wider than a bound can usefully
        # be.  p95, because this shorter lat phase commits ~500 transactions
        # on read-chain and a percentile needs ten samples beyond it.
        "txn_p95_ms": _ms(percentile(lat.latency["txn"], 0.95)),
        "router.node_frames_per_txn": lat.wire["frames"] / lat.committed,
        "router.node_bytes_per_txn": lat.wire["bytes"] / lat.committed,
        "router.frames_per_drain": ratio(lat.wire["frames_out"], lat.wire["drains"]),
        "router.sat_frames_per_drain": ratio(sat.wire["frames_out"], sat.wire["drains"]),
        "storage.ops_per_txn": lat.wire["storage_ops"] / lat.committed,
        "storage.frames_per_txn": lat.wire["storage_frames"] / lat.committed,
        "storage.ops_per_frame": ratio(lat.wire["storage_ops"], lat.wire["storage_frames"]),
        "storage.sat_ops_per_frame": ratio(sat.wire["storage_ops"], sat.wire["storage_frames"]),
        "fanout.records_per_txn": lat.wire["fanout_records"] / lat.committed,
        "sat.drift_ratio": ratio(last, first),
    }


async def run_traced(workload: Workload, seed: int, seconds: float, results_dir: Path) -> RunResult:
    phase_seconds = seconds * TRACED_PHASE_SHARE
    async with ready_cluster(workload, seed, results_dir) as (cluster, generator, _):
        solo = await generator.run_phase("solo", 1, txns_per_session=SOLO_TXNS)
        lat = await generator.run_phase("lat", LAT_SESSIONS, seconds=phase_seconds)
        sat = await generator.run_phase("sat", SAT_SESSIONS, seconds=phase_seconds)
        rss = cluster.rss_mb()
        verdict = await generator.verify()
    metrics = _observed_layers(lat, sat, rss)

    # The span-recording cluster: same topology and flags, started through
    # the benchmark's launcher; this process records its own client spans.
    tag = workload.name
    recorder = tracing.Recorder()
    async with ready_cluster(workload, seed, results_dir, trace_tag=tag) as (traced_cluster, generator, _):
        with tracing.instrumented(recorder, tracing.CLIENT_TARGETS):
            traced = await generator.run_phase("solo", 1, txns_per_session=SOLO_TXNS)
        traced_verdict = await generator.verify()
    # Leaving the block sent SIGTERM, which makes each launcher dump its spans.
    recorder.dump(results_dir / f"trace-{tag}-client.jsonl")

    dumps = sorted(results_dir.glob(f"trace-{tag}-*.jsonl"))
    budget = tracing.layer_budget(dumps, traced.committed)
    metrics.update(budget)
    metrics["trace.overhead_ratio"] = statistics.median(traced.latency["txn"]) / statistics.median(
        solo.latency["txn"]
    )

    if metrics["trace.unattributed_share"] > MAX_UNATTRIBUTED_SHARE:
        # The answers are still right; it is the budget that cannot be trusted.
        print(
            f"warning: {workload.name}: {metrics['trace.unattributed_share']:.1%} of transaction "
            f"time is attributed to no layer (limit {MAX_UNATTRIBUTED_SHARE:.0%})",
            file=sys.stderr,
        )
    # Both clusters must have answered correctly; counts add up.
    verdict = {
        name: (value and traced_verdict[name]) if name == "correct" else value + traced_verdict[name]
        for name, value in verdict.items()
    }
    return RunResult(
        verdict=verdict,
        metrics=metrics,
        samples={},
        phases={
            "solo": _phase_summary(solo),
            "lat": _phase_summary(lat),
            "sat": _phase_summary(sat),
            "traced": _phase_summary(traced),
        },
        command_lines=traced_cluster.command_lines,
    )


def run(workload: Workload, seed: int, seconds: float, trace: bool, results_dir: Path) -> RunResult:
    if trace:
        return asyncio.run(run_traced(workload, seed, seconds, results_dir))
    return asyncio.run(run_untraced(workload, seed, seconds, results_dir))
