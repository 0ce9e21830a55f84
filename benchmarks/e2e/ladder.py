"""``--ladder``: open-loop Poisson arrivals at fixed rates.  Informational.

Not part of the gated set: on this 2-core box three identical open-loop runs
at 200 tps gave a p50 of 10.97 / 11.24 / 15.39 ms — a 40 % spread from
idle-wake noise, four times the bound a gated metric has to hold.  The
ladder still answers the question a closed loop cannot: what rate the
cluster sustains when arrivals do not wait for replies.

A transaction's latency is timed from when it was *due*, so a stall charges
every arrival queued behind it, and the generator's own lateness (dispatch
minus due time) is reported next to it.
"""

from __future__ import annotations

import asyncio
import random
import statistics
import time
from pathlib import Path

from loadgen import N_CONNECTIONS, Phase
from measure import percentile, ready_cluster
from workloads import WORKLOADS

RATES_TPS = (100, 200, 300, 400)
WINDOW_S = 10.0
SLO_P99_MS = 50.0
#: At the SLO, Little's law keeps rate x 50 ms in flight: 0.5 % of a 10 s
#: window's arrivals.  Several times that, still unanswered when the window
#: closes, is a backlog that was growing.
BACKLOG_SHARE = 0.03


async def _one_rate(rate: int, seed: int, results_dir: Path) -> dict:
    workload = WORKLOADS["paper-mix"]
    async with ready_cluster(workload, seed, results_dir) as (_, generator, _):
        schedule = random.Random(f"{seed}/ladder/{rate}")
        due: list[float] = []
        at = schedule.expovariate(rate)
        while at < WINDOW_S:
            due.append(at)
            at += schedule.expovariate(rate)

        phase = Phase(name=f"ladder-{rate}", sessions=0)
        latency: list[float] = []
        lateness: list[float] = []
        started = time.perf_counter()

        async def arrival(index: int) -> None:
            client = generator.clients[index % N_CONNECTIONS]
            committed_before = phase.committed
            await generator.transaction(client, random.Random(seed * 1_000_003 + index), phase, started)
            if phase.committed > committed_before:
                latency.append(time.perf_counter() - started - due[index])

        tasks = []
        for index, due_at in enumerate(due):
            delay = due_at - (time.perf_counter() - started)
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(time.perf_counter() - started - due_at)
            tasks.append(asyncio.create_task(arrival(index)))
        in_flight_at_close = sum(1 for task in tasks if not task.done())
        await asyncio.gather(*tasks)
        elapsed = time.perf_counter() - started
        verdict = await generator.verify()

    p99_ms = percentile(latency, 0.99) * 1e3 if latency else float("inf")
    return {
        "offered_tps": rate,
        "arrivals": len(due),
        "achieved_tps": phase.committed / elapsed,
        "failed": phase.failed,
        "p50_ms": statistics.median(latency) * 1e3 if latency else float("inf"),
        "p99_ms": p99_ms,
        "lateness_p50_ms": statistics.median(lateness) * 1e3,
        "lateness_p99_ms": percentile(lateness, 0.99) * 1e3,
        "in_flight_at_close": in_flight_at_close,
        "backlog_growing": in_flight_at_close > BACKLOG_SHARE * len(due),
        "correct": verdict["correct"],
        "violations": verdict["violations"],
    }


def run_ladder(seed: int, results_dir: Path) -> dict:
    rows = [asyncio.run(_one_rate(rate, seed, results_dir)) for rate in RATES_TPS]
    meeting = [
        row["offered_tps"]
        for row in rows
        if row["p99_ms"] <= SLO_P99_MS and not row["backlog_growing"] and not row["failed"]
    ]
    print(f"open-loop ladder on paper-mix, {WINDOW_S:g} s per rate, latency from the due time")
    print(f"{'offered':>8} {'achieved':>9} {'p50 ms':>9} {'p99 ms':>9} {'late p99 ms':>12} {'in flight':>10}  backlog")
    for row in rows:
        print(
            f"{row['offered_tps']:>8} {row['achieved_tps']:>9.1f} {row['p50_ms']:>9.2f} "
            f"{row['p99_ms']:>9.2f} {row['lateness_p99_ms']:>12.3f} {row['in_flight_at_close']:>10}  "
            f"{'growing' if row['backlog_growing'] else 'steady'}"
        )
    highest = max(meeting) if meeting else 0
    print(f"highest rate with p99 <= {SLO_P99_MS:g} ms and no growing backlog: {highest} tps")
    return {"rates": rows, "slo_p99_ms": SLO_P99_MS, "highest_rate_meeting_slo_tps": highest}
