"""Ablation — supersedence pruning of the commit multicast (paper §4.1).

Isolates the design choice of omitting locally superseded transactions from
the periodic commit broadcast: under a contended workload most commits are
quickly superseded, so pruning removes a large share of the metadata exchanged
between replicas without affecting what clients can read.
"""

from __future__ import annotations

from bench_utils import emit, run_once

from repro.config import AftConfig
from repro.harness.report import format_table
from repro.simulation.cluster_sim import DeploymentSpec, run_deployment
from repro.workloads.spec import TransactionSpec, WorkloadSpec


def run_pruning_ablation(requests_per_client: int = 60):
    workload = WorkloadSpec(
        transaction=TransactionSpec.paper_default(),
        num_keys=20,
        zipf_theta=2.0,
        distinct_keys_per_transaction=False,
    )
    results = {}
    for label, prune in (("pruning_on", True), ("pruning_off", False)):
        spec = DeploymentSpec(
            mode="aft",
            backend="dynamodb",
            workload=workload,
            num_nodes=3,
            num_clients=12,
            requests_per_client=requests_per_client,
            node_config=AftConfig(prune_superseded_broadcasts=prune),
            seed=7,
        )
        results[label] = run_deployment(spec)
    return results


def test_ablation_multicast_pruning(benchmark):
    results = run_once(benchmark, run_pruning_ablation)
    on, off = results["pruning_on"], results["pruning_off"]

    rows = [
        ["records broadcast (pruning on)", on.multicast_records_broadcast],
        ["records pruned (pruning on)", on.multicast_records_pruned],
        ["records broadcast (pruning off)", off.multicast_records_broadcast],
        ["records pruned (pruning off)", off.multicast_records_pruned],
        ["broadcast reduction", 1.0 - on.multicast_records_broadcast / max(1, off.multicast_records_broadcast)],
        ["median latency, pruning on (ms)", on.latency.median_ms],
        ["median latency, pruning off (ms)", off.latency.median_ms],
        ["anomalies with pruning on", on.anomaly_counts.ryw_anomalies + on.anomaly_counts.fractured_read_anomalies],
    ]
    emit("ablation_pruning", format_table(["metric", "value"], rows, title="Ablation: multicast pruning"))

    assert on.multicast_records_pruned > 0
    assert on.multicast_records_broadcast < off.multicast_records_broadcast
    # Pruning is purely a metadata optimisation: correctness is unaffected.
    assert on.anomaly_counts.ryw_anomalies == 0
    assert on.anomaly_counts.fractured_read_anomalies == 0
