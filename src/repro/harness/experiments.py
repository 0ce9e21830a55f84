"""One function per figure/table of the paper's evaluation.

Every function builds the relevant deployment specifications, runs them
through the simulator (or, for the Figure 2 microbenchmark, directly against a
storage engine), and returns structured rows that include the paper's reported
numbers alongside ours.  The benchmarks under ``benchmarks/`` are thin
wrappers that call these functions and print the rows.

Scale parameters (clients, requests per client, key-population size) default
to values that keep a full run to seconds on a laptop; EXPERIMENTS.md records
results from larger runs.  The *shape* of each result — who wins, by what
factor, where the knees are — is unaffected by the scale-down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.clock import LogicalClock
from repro.config import AftConfig, AutoscalerPolicy
from repro.core.node import AftNode
from repro.harness import paper_data
from repro.simulation.cluster_sim import DeploymentSpec, FailureScript, run_deployment
from repro.simulation.cost_model import vm_client_cost_model
from repro.simulation.metrics import LatencyCollector
from repro.storage.base import CostLedger
from repro.storage.dynamodb import SimulatedDynamoDB
from repro.storage.latency import dynamodb_vm_latency_profile
from repro.workloads.spec import TransactionSpec, WorkloadSpec


def _anomaly_workload(num_keys: int = 1000, zipf: float = 1.0) -> WorkloadSpec:
    """The paper's canonical 2-function, 6-IO workload with replacement draws."""
    return WorkloadSpec(
        transaction=TransactionSpec.paper_default(),
        num_keys=num_keys,
        zipf_theta=zipf,
        distinct_keys_per_transaction=False,
    )


# --------------------------------------------------------------------------- #
# Figure 2 — IO latency from a VM client
# --------------------------------------------------------------------------- #
def run_io_latency_experiment(
    num_requests: int = 500,
    write_counts: Sequence[int] = (1, 5, 10),
    value_size: int = 4096,
    seed: int = 0,
) -> list[dict]:
    """Reproduce Figure 2: 1/5/10 writes, DynamoDB vs AFT, sequential vs batch."""
    cost_model = vm_client_cost_model()
    rows: list[dict] = []

    for n_writes in write_counts:
        collectors = {
            "dynamodb_sequential": LatencyCollector(),
            "dynamodb_batch": LatencyCollector(),
            "aft_sequential": LatencyCollector(),
            "aft_batch": LatencyCollector(),
        }

        clock = LogicalClock(auto_step=1e-6)
        dynamo = SimulatedDynamoDB(latency_model=dynamodb_vm_latency_profile(seed), clock=clock)
        aft_storage = SimulatedDynamoDB(latency_model=dynamodb_vm_latency_profile(seed + 1), clock=clock)
        node = AftNode(aft_storage, config=AftConfig(enable_data_cache=False), clock=clock)
        node.start()

        payload = b"x" * value_size
        for request in range(num_requests):
            keys = [f"fig2-{request}-{i}" for i in range(n_writes)]

            # Direct DynamoDB, sequential writes.
            ledger = CostLedger()
            with dynamo.metered(ledger):
                for key in keys:
                    dynamo.put(key, payload)
            collectors["dynamodb_sequential"].record(ledger.sequential_latency)

            # Direct DynamoDB, one batched write.
            ledger = CostLedger()
            with dynamo.metered(ledger):
                dynamo.multi_put({key: payload for key in keys})
            collectors["dynamodb_batch"].record(ledger.sequential_latency)

            # AFT, client sends writes one at a time (one shim RTT each).
            ledger = CostLedger()
            txid = node.start_transaction()
            for key in keys:
                node.put(txid, key, payload)
            with aft_storage.metered(ledger):
                node.commit_transaction(txid)
            latency = (
                n_writes * cost_model.shim_rtt
                + (n_writes + 1) * cost_model.shim_cpu_per_op
                + cost_model.shim_rtt
                + ledger.sequential_latency
            )
            collectors["aft_sequential"].record(latency)

            # AFT, client ships all writes in one request.
            ledger = CostLedger()
            txid = node.start_transaction()
            for key in keys:
                node.put(txid, key, payload)
            with aft_storage.metered(ledger):
                node.commit_transaction(txid)
            latency = (
                cost_model.shim_rtt
                + (n_writes + 1) * cost_model.shim_cpu_per_op
                + cost_model.shim_rtt
                + ledger.sequential_latency
            )
            collectors["aft_batch"].record(latency)
            node.forget_finished_transactions()

        for config, collector in collectors.items():
            summary = collector.summary()
            paper_median, paper_p99 = paper_data.FIGURE2_IO_LATENCY[(config, n_writes)]
            rows.append(
                {
                    "configuration": config,
                    "writes": n_writes,
                    "median_ms": summary.median_ms,
                    "p99_ms": summary.p99_ms,
                    "paper_median_ms": paper_median,
                    "paper_p99_ms": paper_p99,
                }
            )
    return rows


# --------------------------------------------------------------------------- #
# Figure 3 + Table 2 — end-to-end latency and anomalies
# --------------------------------------------------------------------------- #
@dataclass
class EndToEndResults:
    latency_rows: list[dict] = field(default_factory=list)
    anomaly_rows: list[dict] = field(default_factory=list)


def run_end_to_end_experiment(
    num_clients: int = 10,
    requests_per_client: int = 100,
    backends: Sequence[str] = ("s3", "dynamodb", "redis"),
    seed: int = 0,
    enable_io_pipeline: bool = True,
) -> EndToEndResults:
    """Reproduce Figure 3 (latency) and Table 2 (anomaly counts).

    ``enable_io_pipeline`` switches the AFT configurations between the
    batched parallel-IO pipeline (the default, matching the real system's
    concurrent commit/read fan-out) and the sequential one-operation-at-a-time
    path; the baselines are unaffected by the knob.
    """
    workload = _anomaly_workload()
    results = EndToEndResults()

    configurations: list[tuple[str, str, str]] = []
    for backend in backends:
        configurations.append((backend, "plain", f"{backend}/plain"))
        if backend in ("dynamodb", "dynamo"):
            configurations.append((backend, "dynamo_txn", "dynamodb/transactional"))
        configurations.append((backend, "aft", f"{backend}/aft"))

    table2_key = {
        ("s3", "plain"): "s3",
        ("dynamodb", "plain"): "dynamodb",
        ("dynamodb", "dynamo_txn"): "dynamodb_txn",
        ("redis", "plain"): "redis",
    }

    for backend, mode, label in configurations:
        spec = DeploymentSpec(
            mode=mode,
            backend=backend,
            workload=workload,
            num_clients=num_clients,
            requests_per_client=requests_per_client,
            # Figure 3 measures the base shim; the read cache is evaluated
            # separately in Figure 4.
            node_config=AftConfig(enable_data_cache=False, enable_io_pipeline=enable_io_pipeline),
            seed=seed,
        )
        result = run_deployment(spec)
        summary = result.latency
        paper_key = (backend, "aft" if mode == "aft" else ("transactional" if mode == "dynamo_txn" else "plain"))
        paper_median, paper_p99 = paper_data.FIGURE3_END_TO_END.get(paper_key, (None, None))
        results.latency_rows.append(
            {
                "configuration": label,
                "median_ms": summary.median_ms,
                "p99_ms": summary.p99_ms,
                "paper_median_ms": paper_median,
                "paper_p99_ms": paper_p99,
                "throughput_tps": result.throughput,
                "pipeline": enable_io_pipeline,
            }
        )

        counts = result.anomaly_counts
        if mode == "aft":
            paper_ryw, paper_fr = paper_data.TABLE2_ANOMALIES["aft"]
            system = f"aft ({backend})"
        else:
            key = table2_key.get((backend, mode))
            paper_ryw, paper_fr = paper_data.TABLE2_ANOMALIES.get(key, (None, None))
            system = label
        scale = paper_data.TABLE2_TRANSACTIONS / max(1, counts.committed_transactions)
        results.anomaly_rows.append(
            {
                "system": system,
                "transactions": counts.committed_transactions,
                "ryw_anomalies": counts.ryw_anomalies,
                "fr_anomalies": counts.fractured_read_anomalies,
                "ryw_rate_pct": 100.0 * counts.ryw_rate,
                "fr_rate_pct": 100.0 * counts.fractured_read_rate,
                "ryw_scaled_to_10k": round(counts.ryw_anomalies * scale),
                "fr_scaled_to_10k": round(counts.fractured_read_anomalies * scale),
                "paper_ryw_per_10k": paper_ryw,
                "paper_fr_per_10k": paper_fr,
            }
        )
    return results


# --------------------------------------------------------------------------- #
# Group-commit window sweep (rides along fig3 / fig7)
# --------------------------------------------------------------------------- #
def run_group_commit_window_sweep(
    windows_ms: Sequence[float] = (0.0, 2.0, 5.0, 10.0),
    backend: str = "dynamodb",
    num_clients: int = 10,
    requests_per_client: int = 100,
    seed: int = 0,
) -> list[dict]:
    """Sweep the simulated-time group-commit window on one AFT deployment.

    Window 0 commits every transaction on its own (a mean batch size of 1);
    positive windows coalesce through the
    :class:`~repro.simulation.cluster_sim.SimGroupCommitGate`, trading up to
    one window of added commit latency for shared storage flushes.  The
    figure benchmarks attach this sweep so the latency/batching trade-off is
    visible next to the headline numbers it modulates.
    """
    rows: list[dict] = []
    for window_ms in windows_ms:
        spec = DeploymentSpec(
            mode="aft",
            backend=backend,
            workload=_anomaly_workload(),
            num_clients=num_clients,
            requests_per_client=requests_per_client,
            node_config=AftConfig(enable_data_cache=False, group_commit_window=window_ms / 1000.0),
            seed=seed,
        )
        result = run_deployment(spec)
        stats_extra: dict = {}
        for node_stats in result.node_stats:
            for key in ("group_commits", "group_commit_batched_txns"):
                stats_extra[key] = stats_extra.get(key, 0) + node_stats.get(key, 0)
        flushes = stats_extra.get("group_commits", 0)
        batched = stats_extra.get("group_commit_batched_txns", 0)
        rows.append(
            {
                "window_ms": window_ms,
                "median_ms": result.latency.median_ms,
                "p99_ms": result.latency.p99_ms,
                "throughput_tps": result.throughput,
                "mean_batch_size": (batched / flushes) if flushes else 1.0,
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Figure 4 — read caching and data skew
# --------------------------------------------------------------------------- #
def run_caching_skew_experiment(
    zipf_coefficients: Sequence[float] = (1.0, 1.5, 2.0),
    num_keys: int = 20_000,
    num_clients: int = 10,
    requests_per_client: int = 100,
    seed: int = 0,
) -> list[dict]:
    """Reproduce Figure 4: latency vs skew, with and without the data cache.

    The paper uses a 100,000-key dataset; the default here is scaled to 20,000
    keys to keep preloading fast — the cache-hit-rate trend across skews is
    preserved.
    """
    rows: list[dict] = []
    configurations = [
        ("dynamodb_txn", "dynamo_txn", "dynamodb", True),
        ("aft_dynamo_nocache", "aft", "dynamodb", False),
        ("aft_dynamo_cache", "aft", "dynamodb", True),
        ("aft_redis_nocache", "aft", "redis", False),
        ("aft_redis_cache", "aft", "redis", True),
    ]
    # The paper's dataset (100k keys x 4 KB) exceeds a node's cache, so hit
    # rates depend on skew.  With the scaled-down population we scale the cache
    # capacity down as well to preserve that relationship.
    cache_capacity = max(1, num_keys // 8) * 5 * 1024
    for zipf in zipf_coefficients:
        workload = _anomaly_workload(num_keys=num_keys, zipf=zipf)
        for label, mode, backend, caching in configurations:
            spec = DeploymentSpec(
                mode=mode,
                backend=backend,
                workload=workload,
                num_clients=num_clients,
                requests_per_client=requests_per_client,
                node_config=AftConfig(enable_data_cache=caching, data_cache_capacity_bytes=cache_capacity),
                seed=seed,
            )
            result = run_deployment(spec)
            summary = result.latency
            paper_median, paper_p99 = paper_data.FIGURE4_CACHING_SKEW.get((label, zipf), (None, None))
            rows.append(
                {
                    "configuration": label,
                    "zipf": zipf,
                    "median_ms": summary.median_ms,
                    "p99_ms": summary.p99_ms,
                    "paper_median_ms": paper_median,
                    "paper_p99_ms": paper_p99,
                    "cache_hit_rate": result.data_cache_hit_rate,
                    "conflict_retries": result.conflict_retries,
                }
            )
    return rows


# --------------------------------------------------------------------------- #
# Figure 5 — read-write ratio
# --------------------------------------------------------------------------- #
def run_read_write_ratio_experiment(
    read_fractions: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    backends: Sequence[str] = ("dynamodb", "redis"),
    num_clients: int = 10,
    requests_per_client: int = 100,
    seed: int = 0,
) -> list[dict]:
    """Reproduce Figure 5: 10-IO transactions with varying read fraction."""
    rows: list[dict] = []
    for backend in backends:
        for fraction in read_fractions:
            transaction = TransactionSpec(
                num_functions=2,
                value_size_bytes=4096,
                total_ios=10,
                read_fraction=fraction,
            )
            workload = WorkloadSpec(
                transaction=transaction,
                num_keys=1000,
                zipf_theta=1.0,
                distinct_keys_per_transaction=False,
            )
            spec = DeploymentSpec(
                mode="aft",
                backend=backend,
                workload=workload,
                num_clients=num_clients,
                requests_per_client=requests_per_client,
                seed=seed,
            )
            result = run_deployment(spec)
            summary = result.latency
            paper_median, paper_p99 = paper_data.FIGURE5_READ_WRITE_RATIO.get((backend, fraction), (None, None))
            rows.append(
                {
                    "backend": backend,
                    "read_fraction": fraction,
                    "median_ms": summary.median_ms,
                    "p99_ms": summary.p99_ms,
                    "paper_median_ms": paper_median,
                    "paper_p99_ms": paper_p99,
                }
            )
    return rows


# --------------------------------------------------------------------------- #
# Figure 6 — transaction length
# --------------------------------------------------------------------------- #
def run_transaction_length_experiment(
    lengths: Sequence[int] = (1, 2, 4, 6, 8, 10),
    backends: Sequence[str] = ("dynamodb", "redis"),
    num_clients: int = 10,
    requests_per_client: int = 60,
    seed: int = 0,
) -> list[dict]:
    """Reproduce Figure 6: latency vs number of functions (3 IOs per function)."""
    rows: list[dict] = []
    for backend in backends:
        for length in lengths:
            transaction = TransactionSpec(
                num_functions=length,
                reads_per_function=2,
                writes_per_function=1,
                value_size_bytes=4096,
            )
            workload = WorkloadSpec(
                transaction=transaction,
                num_keys=1000,
                zipf_theta=1.0,
                distinct_keys_per_transaction=False,
            )
            spec = DeploymentSpec(
                mode="aft",
                backend=backend,
                workload=workload,
                num_clients=num_clients,
                requests_per_client=requests_per_client,
                seed=seed,
            )
            result = run_deployment(spec)
            summary = result.latency
            paper_median, paper_p99 = paper_data.FIGURE6_TXN_LENGTH.get((backend, length), (None, None))
            rows.append(
                {
                    "backend": backend,
                    "functions": length,
                    "median_ms": summary.median_ms,
                    "p99_ms": summary.p99_ms,
                    "paper_median_ms": paper_median,
                    "paper_p99_ms": paper_p99,
                }
            )
    return rows


# --------------------------------------------------------------------------- #
# Figure 7 — single-node scalability
# --------------------------------------------------------------------------- #
def run_single_node_scalability_experiment(
    client_counts: Sequence[int] = (1, 5, 10, 20, 30, 40, 45, 50),
    backends: Sequence[str] = ("dynamodb", "redis"),
    requests_per_client: int = 60,
    seed: int = 0,
    enable_io_pipeline: bool = True,
) -> list[dict]:
    """Reproduce Figure 7: one node, growing client count, Zipf 1.5.

    ``enable_io_pipeline`` toggles the node between the batched parallel-IO
    pipeline and the sequential storage path, so the benchmark can report the
    throughput cost of one-operation-at-a-time IO.
    """
    rows: list[dict] = []
    for backend in backends:
        for clients in client_counts:
            workload = _anomaly_workload(num_keys=1000, zipf=1.5)
            spec = DeploymentSpec(
                mode="aft",
                backend=backend,
                workload=workload,
                num_nodes=1,
                num_clients=clients,
                requests_per_client=requests_per_client,
                node_config=AftConfig(enable_io_pipeline=enable_io_pipeline),
                seed=seed,
            )
            result = run_deployment(spec)
            paper_tput = paper_data.FIGURE7_SINGLE_NODE.get(backend, {}).get(clients)
            rows.append(
                {
                    "backend": backend,
                    "clients": clients,
                    "throughput_tps": result.throughput,
                    "median_ms": result.latency.median_ms,
                    "paper_throughput_tps": paper_tput,
                    "pipeline": enable_io_pipeline,
                }
            )
    return rows


# --------------------------------------------------------------------------- #
# Figure 8 — distributed scalability
# --------------------------------------------------------------------------- #
def run_distributed_scalability_experiment(
    node_counts: Sequence[int] = (1, 2, 4, 8, 16),
    clients_per_node: int = 40,
    backends: Sequence[str] = ("dynamodb", "redis"),
    requests_per_client: int = 40,
    seed: int = 0,
) -> list[dict]:
    """Reproduce Figure 8: clusters of 1-16 nodes at 40 clients per node."""
    rows: list[dict] = []
    for backend in backends:
        single_node_tput: float | None = None
        for nodes in node_counts:
            workload = _anomaly_workload(num_keys=1000, zipf=1.5)
            spec = DeploymentSpec(
                mode="aft",
                backend=backend,
                workload=workload,
                num_nodes=nodes,
                num_clients=nodes * clients_per_node,
                requests_per_client=requests_per_client,
                # DynamoDB's provisioned capacity caps the biggest cluster
                # (the paper could not scale past ~8,000 txn/s); Redis runs
                # into the Lambda concurrent-invocation limit instead.
                storage_concurrency_limit=90 if backend == "dynamodb" else None,
                seed=seed,
            )
            result = run_deployment(spec)
            if single_node_tput is None:
                single_node_tput = result.throughput
            ideal = single_node_tput * nodes
            paper_tput = paper_data.FIGURE8_DISTRIBUTED.get(backend, {}).get(nodes * clients_per_node)
            rows.append(
                {
                    "backend": backend,
                    "nodes": nodes,
                    "clients": nodes * clients_per_node,
                    "throughput_tps": result.throughput,
                    "ideal_tps": ideal,
                    "fraction_of_ideal": result.throughput / ideal if ideal else 1.0,
                    "paper_throughput_tps": paper_tput,
                }
            )
    return rows


# --------------------------------------------------------------------------- #
# Figure 9 — garbage collection overhead
# --------------------------------------------------------------------------- #
def run_gc_overhead_experiment(
    duration: float = 80.0,
    num_clients: int = 40,
    seed: int = 0,
) -> dict:
    """Reproduce Figure 9: throughput with GC on/off plus deletion rate."""
    workload = _anomaly_workload(num_keys=1000, zipf=1.5)
    results = {}
    for label, enable_gc in (("gc_enabled", True), ("gc_disabled", False)):
        spec = DeploymentSpec(
            mode="aft",
            backend="dynamodb",
            workload=workload,
            num_nodes=1,
            num_clients=num_clients,
            requests_per_client=None,
            duration=duration,
            enable_gc=enable_gc,
            seed=seed,
        )
        results[label] = run_deployment(spec)

    with_gc = results["gc_enabled"]
    without_gc = results["gc_disabled"]
    total_deleted = sum(count for _, count in with_gc.gc_deletions)
    return {
        "throughput_with_gc": with_gc.throughput,
        "throughput_without_gc": without_gc.throughput,
        "throughput_ratio": with_gc.throughput / without_gc.throughput if without_gc.throughput else 0.0,
        "transactions_deleted": total_deleted,
        "transactions_committed_with_gc": with_gc.client_result.stats.requests_completed,
        "deletions_per_second": total_deleted / duration,
        "storage_keys_with_gc": with_gc.storage_keys_at_end,
        "storage_keys_without_gc": without_gc.storage_keys_at_end,
        "throughput_series_with_gc": with_gc.throughput_series(),
        "throughput_series_without_gc": without_gc.throughput_series(),
        "gc_deletions": with_gc.gc_deletions,
        "paper": paper_data.FIGURE9_GC,
    }


# --------------------------------------------------------------------------- #
# Figure 10 — fault tolerance
# --------------------------------------------------------------------------- #
def run_fault_tolerance_experiment(
    duration: float = 90.0,
    num_nodes: int = 4,
    num_clients: int = 200,
    fail_at: float = 10.0,
    detection_delay: float = 5.0,
    replacement_delay: float = 45.0,
    seed: int = 0,
) -> dict:
    """Reproduce Figure 10: kill one of four nodes and watch recovery."""
    workload = _anomaly_workload(num_keys=1000, zipf=1.0)
    spec = DeploymentSpec(
        mode="aft",
        backend="dynamodb",
        workload=workload,
        num_nodes=num_nodes,
        num_clients=num_clients,
        requests_per_client=None,
        duration=duration,
        failure_script=FailureScript(
            fail_node_index=0,
            fail_at=fail_at,
            detection_delay=detection_delay,
            replacement_delay=replacement_delay,
        ),
        seed=seed,
    )
    result = run_deployment(spec)
    series = result.throughput_series()
    rejoin_time = fail_at + detection_delay + replacement_delay

    pre_failure = result.client_result.throughput.throughput_between(2.0, fail_at)
    degraded = result.client_result.throughput.throughput_between(fail_at + 2.0, rejoin_time)
    recovered = result.client_result.throughput.throughput_between(rejoin_time + 5.0, duration)

    return {
        "throughput_series": series,
        "pre_failure_tps": pre_failure,
        "degraded_tps": degraded,
        "recovered_tps": recovered,
        "drop_fraction": 1.0 - (degraded / pre_failure) if pre_failure else 0.0,
        "recovered_fraction": recovered / pre_failure if pre_failure else 0.0,
        "fail_at": fail_at,
        "rejoin_at": rejoin_time,
        "recovery_breakdown": result.recovery_breakdown,
        "paper": paper_data.FIGURE10_FAULT_TOLERANCE,
    }


# --------------------------------------------------------------------------- #
# Elasticity — autoscaling under a bursty arrival curve (Figure 8 extension)
# --------------------------------------------------------------------------- #
def diurnal_spike_curve(
    base_clients: int,
    peak_clients: int,
    period: float,
    spike_clients: int,
    spike_start: float,
    spike_end: float,
):
    """Offered-load curve: a diurnal sinusoid with a superimposed step spike.

    Returns ``f(t) -> int``, the number of concurrently active closed-loop
    clients at virtual time ``t`` — the serverless platform's concurrency at
    that instant.
    """

    def curve(t: float) -> int:
        diurnal = base_clients + (peak_clients - base_clients) * (
            1.0 - math.cos(2.0 * math.pi * t / period)
        ) / 2.0
        spike = spike_clients if spike_start <= t < spike_end else 0
        return int(round(diurnal)) + spike

    return curve


def run_elasticity_experiment(
    duration: float = 60.0,
    base_clients: int = 20,
    peak_clients: int = 35,
    spike_clients: int = 30,
    backend: str = "dynamodb",
    min_nodes: int = 2,
    max_nodes: int = 8,
    node_capacity: int = 10,
    seed: int = 0,
) -> dict:
    """Elastic autoscaling versus static provisioning under bursty load.

    Replays one diurnal cycle with a mid-run spike against three deployments:

    * ``autoscaled_ch`` — the autoscaler plus consistent-hash (key-affinity)
      routing: the elasticity configuration under test;
    * ``autoscaled_rr`` — the same autoscaler behind the paper's round-robin
      balancer, isolating what key-affinity routing buys the caches;
    * ``static_overprovisioned`` — ``max_nodes`` nodes for the whole run, the
      latency gold standard the autoscaler must stay close to while paying
      for far fewer node-seconds.
    """
    curve = diurnal_spike_curve(
        base_clients=base_clients,
        peak_clients=peak_clients,
        period=duration,
        spike_clients=spike_clients,
        spike_start=duration * 0.5,
        spike_end=duration * 0.67,
    )
    num_clients = peak_clients + spike_clients
    policy = AutoscalerPolicy(
        min_nodes=min_nodes,
        max_nodes=max_nodes,
        node_capacity=node_capacity,
        scale_up_threshold=0.75,
        scale_down_threshold=0.30,
        scale_up_after=2,
        scale_down_after=4,
        cooldown=4.0,
        evaluation_interval=1.0,
    )
    workload = WorkloadSpec.figure3_default()

    def spec_for(balancer: str, autoscaler: AutoscalerPolicy | None, num_nodes: int) -> DeploymentSpec:
        return DeploymentSpec(
            mode="aft",
            backend=backend,
            workload=workload,
            num_nodes=num_nodes,
            num_clients=num_clients,
            requests_per_client=None,
            duration=duration,
            balancer=balancer,
            autoscaler=autoscaler,
            offered_clients_fn=curve,
            standby_nodes=2,
            seed=seed,
        )

    configurations = {
        "autoscaled_ch": spec_for("consistent_hash", policy, min_nodes),
        "autoscaled_rr": spec_for("round_robin", policy, min_nodes),
        "static_overprovisioned": spec_for("consistent_hash", None, max_nodes),
    }

    def node_seconds(timeline: list[tuple[float, float]], run_duration: float, fallback_nodes: int) -> float:
        """Integrate the node-count timeline (a cost proxy for the fleet)."""
        if not timeline:
            return fallback_nodes * run_duration
        total = timeline[0][1] * timeline[0][0]  # before the first sample
        for (t0, count), (t1, _) in zip(timeline, timeline[1:]):
            total += count * (t1 - t0)
        last_t, last_count = timeline[-1]
        total += last_count * max(0.0, run_duration - last_t)
        return total

    results: dict[str, dict] = {}
    for label, spec in configurations.items():
        outcome = run_deployment(spec)
        latency = outcome.latency
        results[label] = {
            "p50_ms": latency.median_ms,
            "p99_ms": latency.p99_ms,
            "mean_ms": latency.mean_ms,
            "requests_completed": outcome.client_result.stats.requests_completed,
            "requests_failed": outcome.client_result.stats.requests_failed,
            "throughput_tps": outcome.throughput,
            "data_cache_hit_rate": outcome.data_cache_hit_rate,
            "metadata_local_read_fraction": outcome.metadata_local_read_fraction,
            "node_count_timeline": outcome.node_count_timeline,
            "utilization_timeline": outcome.utilization_timeline,
            "autoscaler": outcome.autoscaler_summary,
            "node_seconds": node_seconds(
                outcome.node_count_timeline, duration, spec.num_nodes
            ),
            "anomalies": (
                outcome.anomaly_counts.ryw_anomalies
                + outcome.anomaly_counts.fractured_read_anomalies
            ),
        }

    offered_curve = [(t, curve(t)) for t in range(0, int(duration) + 1)]
    return {
        "offered_clients": offered_curve,
        "policy": policy.as_dict(),
        "duration": duration,
        "backend": backend,
        "runs": results,
    }
