"""Ablation — commit-protocol write batching (paper §6.1.1).

Isolates AFT's use of the backend's batched-write API during commit: with
batching disabled, every buffered update becomes its own storage request and
commit latency grows with the write set, which is exactly the penalty the
Atomic Write Buffer is designed to hide.
"""

from __future__ import annotations

from bench_utils import emit, run_once

from repro.config import AftConfig
from repro.harness.report import format_table
from repro.simulation.cluster_sim import DeploymentSpec, run_deployment
from repro.workloads.spec import TransactionSpec, WorkloadSpec


def run_batching_ablation(requests_per_client: int = 60):
    # A write-heavy transaction (10 writes, 2 functions) makes the commit's
    # storage traffic the dominant cost.
    workload = WorkloadSpec(
        transaction=TransactionSpec(num_functions=2, total_ios=10, read_fraction=0.2),
        num_keys=1000,
        zipf_theta=1.0,
        distinct_keys_per_transaction=False,
    )
    results = {}
    for label, batching in (("batching_on", True), ("batching_off", False)):
        spec = DeploymentSpec(
            mode="aft",
            backend="dynamodb",
            workload=workload,
            num_clients=8,
            requests_per_client=requests_per_client,
            node_config=AftConfig(batch_commit_writes=batching, enable_data_cache=False),
            seed=11,
        )
        results[label] = run_deployment(spec)
    return results


def test_ablation_commit_batching(benchmark):
    results = run_once(benchmark, run_batching_ablation)
    on, off = results["batching_on"], results["batching_off"]

    rows = [
        ["median latency, batching on (ms)", on.latency.median_ms],
        ["median latency, batching off (ms)", off.latency.median_ms],
        ["p99 latency, batching on (ms)", on.latency.p99_ms],
        ["p99 latency, batching off (ms)", off.latency.p99_ms],
        ["latency saved by batching (ms)", off.latency.median_ms - on.latency.median_ms],
    ]
    emit("ablation_batching", format_table(["metric", "value"], rows, title="Ablation: commit write batching"))

    # Unbatched commits must be visibly slower for a write-heavy workload.
    assert off.latency.median_ms > on.latency.median_ms * 1.15
