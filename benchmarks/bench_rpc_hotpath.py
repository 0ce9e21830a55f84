"""Benchmark — the wire hot path: storage ops per frame and per transaction.

An in-process cluster (real localhost sockets: one router + three node
servers, the same objects the ``repro-router``/``repro-node`` processes run)
is driven by a closed-loop swarm of concurrent client sessions.  Every
storage op a node issues rides a ``storage_batch`` frame; the router counts
those frames and the ops inside them, so two numbers are exact:

* **ops per storage frame** — how many storage ops share one wire round
  trip (a plan stage's request group plus ops of concurrent transactions
  that meet in the coalescer).  The acceptance criterion is **>= 2**:
  batching at least halves the round trips one frame per op would need.
* **storage ops per transaction** — the storage work itself, so a rise in
  ops cannot pass for better batching.

Results land in ``benchmarks/results/BENCH_rpc.json`` and are gated by
``scripts/check_bench_trend.py``; CI runs this under ``BENCH_FAST=1``.
"""

from __future__ import annotations

import asyncio
import os
import random
import time

from bench_utils import emit, emit_json, run_once

from repro.harness.report import format_rows
from repro.rpc.client import AsyncRouterClient
from repro.rpc.node_server import NodeServer
from repro.rpc.router import RouterServer

FAST_MODE = os.environ.get("BENCH_FAST", "") not in ("", "0")

N_NODES = 3
N_CONNECTIONS = 4
N_WORKERS = 48
TXNS_PER_WORKER = 6 if FAST_MODE else 25
N_KEYS = 32
PAYLOAD = b"\x42" * 256
SEED = 23
#: Opportunistic coalescing window (the ``--coalesce-window`` node knob): up
#: to 1 ms of stage latency buys cross-session op merging even when the swarm
#: de-synchronises.
COALESCE_WINDOW = 0.001


# --------------------------------------------------------------------- #
# The in-process cluster, instrumented
# --------------------------------------------------------------------- #
class _CountingRouter(RouterServer):
    """RouterServer that counts ``storage_batch`` frames and the ops in them."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.storage_frames = 0
        self.storage_ops = 0

    async def _handle_storage_batch(self, conn, msg):
        self.storage_frames += 1
        self.storage_ops += len(msg.ops)
        return await super()._handle_storage_batch(conn, msg)


async def _drive(router: _CountingRouter) -> dict:
    """Closed-loop swarm: N_WORKERS concurrent read-2/write-2 sessions."""
    keys = [f"acct:{i}" for i in range(N_KEYS)]
    clients = [
        await AsyncRouterClient.connect("127.0.0.1", router.port)
        for _ in range(N_CONNECTIONS)
    ]
    await clients[0].wait_ready(N_NODES)

    # Preload so steady-state reads resolve real versions from storage.
    tx = await clients[0].start_transaction()
    await clients[0].put_many(tx, {key: PAYLOAD for key in keys})
    await clients[0].commit_transaction(tx)

    rng = random.Random(SEED)
    plans = [
        [(rng.sample(keys, 2), rng.sample(keys, 2)) for _ in range(TXNS_PER_WORKER)]
        for _ in range(N_WORKERS)
    ]

    async def worker(worker_id: int) -> None:
        client = clients[worker_id % len(clients)]
        for reads, writes in plans[worker_id]:
            tx = await client.start_transaction()
            await client.get_many(tx, reads)
            await client.put_many(tx, {key: PAYLOAD for key in writes})
            await client.commit_transaction(tx)

    # Snapshot the storage counters after the preload so node bootstrap and
    # preload traffic stay out of the per-transaction metric.
    frames_before, ops_before = router.storage_frames, router.storage_ops
    started = time.perf_counter()
    await asyncio.gather(*(worker(w) for w in range(N_WORKERS)))
    elapsed = time.perf_counter() - started
    storage_frames = router.storage_frames - frames_before
    storage_ops = router.storage_ops - ops_before

    for client in clients:
        await client.close()

    txns = N_WORKERS * TXNS_PER_WORKER
    return {
        "txns": txns,
        "elapsed_s": round(elapsed, 3),
        "txn_per_s": round(txns / elapsed, 1) if elapsed else 0.0,
        "storage_frames": storage_frames,
        "storage_ops": storage_ops,
        "round_trips_per_txn": round(storage_frames / txns, 3),
        "storage_ops_per_txn": round(storage_ops / txns, 3),
        "ops_per_storage_frame": round(storage_ops / storage_frames, 3)
        if storage_frames
        else 0.0,
    }


def _run_cluster() -> dict:
    """Boot router + nodes on one loop and drive the swarm through them."""

    async def scenario() -> dict:
        router = _CountingRouter(port=0, lease_duration=5.0, heartbeat_interval=1.0)
        await router.start()
        nodes = []
        try:
            for i in range(N_NODES):
                node = NodeServer(f"n{i}", router_port=router.port, coalesce_window=COALESCE_WINDOW)
                await node.start()
                nodes.append(node)
            return await _drive(router)
        finally:
            for node in nodes:
                await node.stop()
            await router.stop()

    return asyncio.run(scenario())


def run_rpc_hotpath_bench() -> dict:
    return {
        "fast_mode": FAST_MODE,
        "workload": {
            "nodes": N_NODES,
            "workers": N_WORKERS,
            "txns_per_worker": TXNS_PER_WORKER,
            "keys": N_KEYS,
            "payload_bytes": len(PAYLOAD),
        },
        **_run_cluster(),
    }


# --------------------------------------------------------------------- #
def test_rpc_hotpath(benchmark):
    summary = run_once(benchmark, run_rpc_hotpath_bench)

    rows = [
        {"metric": name, "value": summary[name]}
        for name in (
            "txns",
            "txn_per_s",
            "storage_frames",
            "storage_ops",
            "round_trips_per_txn",
            "storage_ops_per_txn",
            "ops_per_storage_frame",
        )
    ]
    table = format_rows(
        rows,
        ["metric", "value"],
        title=(
            f"RPC hot path ({'fast' if FAST_MODE else 'full'} mode): "
            f"{summary['ops_per_storage_frame']} storage ops per round trip"
        ),
    )
    emit("rpc_hotpath", table)
    emit_json("BENCH_rpc", summary)

    # The acceptance criterion: batching + coalescing must at least halve
    # the wire round trips one frame per op would need.
    assert summary["ops_per_storage_frame"] >= 2.0, summary


if __name__ == "__main__":
    print(run_rpc_hotpath_bench())
