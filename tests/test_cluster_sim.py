"""Tests for simulated deployments (execution programs, clients, cluster_sim)."""

from __future__ import annotations

import pytest

from repro.config import AftConfig, MetadataPlaneConfig
from repro.simulation.cluster_sim import (
    DeploymentSpec,
    FailureScript,
    SimClock,
    make_storage,
    run_deployment,
)
from repro.simulation.cost_model import DeploymentCostModel, latency_model_for_backend
from repro.simulation.kernel import Simulation
from repro.storage.dynamodb import SimulatedDynamoDB
from repro.storage.rediscluster import SimulatedRedisCluster
from repro.storage.s3 import SimulatedS3
from repro.workloads.spec import TransactionSpec, WorkloadSpec


def small_workload(zipf: float = 1.0, num_keys: int = 200) -> WorkloadSpec:
    return WorkloadSpec(
        transaction=TransactionSpec.paper_default(),
        num_keys=num_keys,
        zipf_theta=zipf,
        distinct_keys_per_transaction=False,
    )


def small_spec(**overrides) -> DeploymentSpec:
    defaults = dict(
        mode="aft",
        backend="dynamodb",
        workload=small_workload(),
        num_clients=4,
        requests_per_client=15,
        seed=1,
    )
    defaults.update(overrides)
    return DeploymentSpec(**defaults)


class TestBuildingBlocks:
    def test_sim_clock_tracks_simulation_time(self):
        sim = Simulation()
        clock = SimClock(sim)
        assert clock.now() == 0.0

        def advance():
            yield sim.timeout(12.5)

        sim.process(advance())
        sim.run()
        assert clock.now() == 12.5

    def test_make_storage_returns_the_right_engine(self):
        sim = Simulation()
        clock = SimClock(sim)
        assert isinstance(make_storage("dynamodb", clock), SimulatedDynamoDB)
        assert isinstance(make_storage("s3", clock), SimulatedS3)
        assert isinstance(make_storage("redis", clock), SimulatedRedisCluster)
        with pytest.raises(ValueError):
            make_storage("oracle", clock)

    def test_latency_model_for_unknown_backend(self):
        with pytest.raises(ValueError):
            latency_model_for_backend("unknown")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DeploymentSpec(mode="aft", requests_per_client=None, duration=None)
        with pytest.raises(ValueError):
            DeploymentSpec(mode="nonsense")
        with pytest.raises(ValueError):
            DeploymentSpec(mode="dynamo_txn", backend="redis")


class TestAftDeployments:
    def test_all_requests_complete_and_are_anomaly_free(self):
        result = run_deployment(small_spec())
        stats = result.client_result.stats
        assert stats.requests_completed == 4 * 15
        assert stats.requests_failed == 0
        assert result.anomaly_counts.ryw_anomalies == 0
        assert result.anomaly_counts.fractured_read_anomalies == 0
        assert result.latency.median_ms > 0

    def test_latencies_track_backend_speed(self):
        dynamo = run_deployment(small_spec(backend="dynamodb"))
        redis = run_deployment(small_spec(backend="redis"))
        s3 = run_deployment(small_spec(backend="s3", requests_per_client=8))
        assert redis.latency.median_ms < dynamo.latency.median_ms < s3.latency.median_ms

    def test_multi_node_deployment_distributes_commits(self):
        result = run_deployment(small_spec(num_nodes=3, num_clients=6, requests_per_client=10))
        committed_per_node = [stats["committed"] for stats in result.node_stats]
        assert sum(committed_per_node) >= 6 * 10
        assert sum(1 for count in committed_per_node if count > 0) >= 2

    def test_data_cache_improves_hit_rate_on_skewed_workloads(self):
        skewed = small_workload(zipf=2.0)
        cached = run_deployment(small_spec(workload=skewed, node_config=AftConfig(enable_data_cache=True)))
        uncached = run_deployment(small_spec(workload=skewed, node_config=AftConfig(enable_data_cache=False)))
        assert cached.data_cache_hit_rate > 0.2
        assert uncached.data_cache_hit_rate == 0.0
        assert cached.latency.median_ms <= uncached.latency.median_ms + 1.0

    def test_gc_reduces_storage_footprint(self):
        with_gc = run_deployment(
            small_spec(workload=small_workload(zipf=2.0, num_keys=50), enable_gc=True, duration=30.0,
                       requests_per_client=None, num_clients=6)
        )
        without_gc = run_deployment(
            small_spec(workload=small_workload(zipf=2.0, num_keys=50), enable_gc=False, duration=30.0,
                       requests_per_client=None, num_clients=6)
        )
        assert with_gc.storage_keys_at_end < without_gc.storage_keys_at_end
        assert sum(count for _, count in with_gc.gc_deletions) > 0
        assert sum(count for _, count in without_gc.gc_deletions) == 0

    def test_pruning_reduces_multicast_volume(self):
        hot_workload = small_workload(zipf=2.0, num_keys=5)
        pruned = run_deployment(
            small_spec(num_nodes=2, num_clients=6, requests_per_client=40, workload=hot_workload,
                       node_config=AftConfig(prune_superseded_broadcasts=True))
        )
        unpruned = run_deployment(
            small_spec(num_nodes=2, num_clients=6, requests_per_client=40, workload=hot_workload,
                       node_config=AftConfig(prune_superseded_broadcasts=False))
        )
        assert pruned.multicast_records_pruned > 0
        assert unpruned.multicast_records_pruned == 0
        assert pruned.multicast_records_broadcast < unpruned.multicast_records_broadcast

    def test_failure_script_drops_and_recovers_throughput(self):
        spec = small_spec(
            num_nodes=2,
            num_clients=24,
            requests_per_client=None,
            duration=30.0,
            cost_model=DeploymentCostModel(node_request_slots=12),
            failure_script=FailureScript(
                fail_node_index=0, fail_at=8.0, detection_delay=2.0, replacement_delay=10.0
            ),
        )
        result = run_deployment(spec)
        throughput = result.client_result.throughput
        healthy = throughput.throughput_between(2.0, 8.0)
        degraded = throughput.throughput_between(10.0, 20.0)
        recovered = throughput.throughput_between(24.0, 30.0)
        assert degraded < healthy
        assert recovered > degraded
        # Committed data survives the failure: no anomalies, no failed requests
        # beyond transient retries.
        assert result.anomaly_counts.fractured_read_anomalies == 0


class TestMetadataPlaneDeployments:
    def test_group_commit_window_coalesces_in_simulated_time(self):
        """ROADMAP item 4: with a positive window the simulator's group
        commit actually batches — concurrent committers share flushes — and
        the run stays complete and anomaly-free."""
        spec = small_spec(
            num_clients=12,
            requests_per_client=8,
            node_config=AftConfig(group_commit_window=0.005),
        )
        result = run_deployment(spec)
        stats = result.client_result.stats
        assert stats.requests_completed == 12 * 8
        assert stats.requests_failed == 0
        assert result.anomaly_counts.ryw_anomalies == 0
        assert result.anomaly_counts.fractured_read_anomalies == 0
        node = result.node_stats[0]
        assert node["group_commits"] > 0
        # The batching the single-threaded seed could never show: strictly
        # more transactions flushed than flushes (average batch > 1).
        assert node["group_commit_batched_txns"] > node["group_commits"]
        # Only the measured run's commits ride the gate: the preload commits
        # take the node's own (windowless) path and are not counted.
        assert node["group_commit_batched_txns"] == stats.requests_completed

    def test_sharded_lease_partitioned_deployment_matches_direct(self):
        """The full new plane produces the same client-visible outcome as the
        seed plane on an identical workload."""
        base = dict(num_nodes=3, num_clients=6, requests_per_client=10)
        seed_result = run_deployment(small_spec(**base))
        plane_result = run_deployment(
            small_spec(
                **base,
                metadata_plane=MetadataPlaneConfig(
                    transport="sharded",
                    relay_fanout=2,
                    membership="lease",
                    lease_duration=5.0,
                    keyspace="partitioned",
                ),
            )
        )
        for result in (seed_result, plane_result):
            assert result.client_result.stats.requests_completed == 6 * 10
            assert result.client_result.stats.requests_failed == 0
            assert result.anomaly_counts.ryw_anomalies == 0
            assert result.anomaly_counts.fractured_read_anomalies == 0
        assert sum(s["committed"] for s in plane_result.node_stats) >= 6 * 10

    def test_lease_membership_charges_detection_delay(self):
        """With lease membership the failure script's detection delay comes
        from the cost model (lease expiry), not the scripted constant."""
        spec = small_spec(
            num_nodes=2,
            num_clients=8,
            requests_per_client=None,
            duration=40.0,
            metadata_plane=MetadataPlaneConfig(
                membership="lease", lease_duration=6.0, heartbeat_interval=1.0
            ),
            failure_script=FailureScript(
                fail_node_index=0, fail_at=8.0, detection_delay=0.1, replacement_delay=10.0
            ),
        )
        result = run_deployment(spec)
        breakdown = result.recovery_breakdown
        assert breakdown["membership"] == "lease"
        # The victim's last renewal rode the 1s multicast cadence, so its
        # lease lapses 5-6s after the crash (plus the detector's pass) —
        # nothing like the scripted 0.1s constant.
        assert 5.0 <= breakdown["detection_s"] <= 6.1
        assert breakdown["rejoined_at"] > 8.0 + breakdown["detection_s"]

    def test_spec_metadata_plane_validation(self):
        """The plane config validates itself at construction, so a spec can
        never carry an invalid strategy selection."""
        with pytest.raises(ValueError):
            small_spec(metadata_plane=MetadataPlaneConfig(transport="smoke-signals"))
        with pytest.raises(ValueError):
            small_spec(
                metadata_plane=MetadataPlaneConfig(
                    membership="lease", lease_duration=0.5, heartbeat_interval=1.0
                )
            )


class TestBaselineDeployments:
    def test_plain_mode_exhibits_anomalies_under_contention(self):
        result = run_deployment(
            small_spec(mode="plain", num_clients=8, requests_per_client=40,
                       workload=small_workload(zipf=1.5, num_keys=50))
        )
        counts = result.anomaly_counts
        assert counts.committed_transactions == 8 * 40
        assert counts.ryw_anomalies + counts.fractured_read_anomalies > 0

    def test_dynamo_txn_mode_avoids_ryw_but_not_fractured_reads(self):
        result = run_deployment(
            small_spec(mode="dynamo_txn", num_clients=8, requests_per_client=40,
                       workload=small_workload(zipf=1.5, num_keys=50))
        )
        counts = result.anomaly_counts
        assert counts.ryw_anomalies == 0
        assert counts.fractured_read_anomalies >= 0
        assert result.conflict_retries >= 0

    def test_aft_beats_baselines_on_anomalies_for_the_same_workload(self):
        workload = small_workload(zipf=1.5, num_keys=50)
        aft = run_deployment(small_spec(mode="aft", workload=workload, num_clients=8, requests_per_client=40))
        plain = run_deployment(small_spec(mode="plain", workload=workload, num_clients=8, requests_per_client=40))
        aft_total = aft.anomaly_counts.ryw_anomalies + aft.anomaly_counts.fractured_read_anomalies
        plain_total = plain.anomaly_counts.ryw_anomalies + plain.anomaly_counts.fractured_read_anomalies
        assert aft_total == 0
        assert plain_total > 0

    def test_storage_concurrency_limit_caps_throughput(self):
        unlimited = run_deployment(small_spec(num_clients=12, requests_per_client=25))
        limited = run_deployment(
            small_spec(num_clients=12, requests_per_client=25, storage_concurrency_limit=2)
        )
        assert limited.throughput < unlimited.throughput
