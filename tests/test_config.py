"""Tests for configuration objects."""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.client import AftClient
from repro.config import (
    DEFAULT_CONFIG,
    AftConfig,
    AutoscalerPolicy,
    ClusterConfig,
    FaultManagerConfig,
    MetadataPlaneConfig,
    ObservabilityConfig,
)
from repro.core.cluster import AftCluster
from repro.simulation.cluster_sim import DeploymentSpec


class TestAftConfig:
    def test_defaults_are_sensible(self):
        config = AftConfig()
        assert config.enable_data_cache
        assert config.batch_commit_writes
        assert config.prune_superseded_broadcasts
        assert config.multicast_interval == 1.0

    def test_with_overrides_returns_a_new_instance(self):
        base = AftConfig()
        tuned = base.with_overrides(enable_data_cache=False, gc_interval=2.0)
        assert tuned.enable_data_cache is False
        assert tuned.gc_interval == 2.0
        assert base.enable_data_cache is True

    def test_as_dict_round_trips_every_field(self):
        config = AftConfig(strict_reads=True, metadata_bootstrap_limit=42)
        data = config.as_dict()
        assert data["strict_reads"] is True
        assert data["metadata_bootstrap_limit"] == 42
        rebuilt = AftConfig(**data)
        assert rebuilt == config

    def test_default_config_constant(self):
        assert DEFAULT_CONFIG == AftConfig()


class TestClusterConfig:
    def test_defaults(self):
        config = ClusterConfig()
        assert config.num_nodes == 1
        assert isinstance(config.node_config, AftConfig)

    def test_with_overrides(self):
        config = ClusterConfig().with_overrides(num_nodes=5, standby_nodes=2)
        assert config.num_nodes == 5
        assert config.standby_nodes == 2


def _field_names(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


@pytest.mark.parametrize(
    "config",
    [
        ObservabilityConfig(enabled=True, metrics_interval=2.0),
        AftConfig(group_commit_window=0.01, observability=ObservabilityConfig(trace_dir="t")),
        AutoscalerPolicy(max_nodes=4),
        FaultManagerConfig(max_records_per_scan=7),
        MetadataPlaneConfig(membership="lease", fencing=True),
    ],
    ids=lambda config: type(config).__name__,
)
def test_as_dict_lists_every_field_once_and_round_trips(config):
    data = config.as_dict()
    assert list(data) == _field_names(type(config))
    assert type(config)(**data) == config


class TestOneHomePerNodeSetting:
    """A node setting is set on AftConfig and reaches the node by one route."""

    def test_deployment_spec_mirrors_no_node_setting(self):
        assert not set(_field_names(DeploymentSpec)) & set(_field_names(AftConfig))

    def test_cluster_and_client_take_the_node_config_only_through_cluster_config(self):
        assert "node_config" not in inspect.signature(AftCluster.__init__).parameters
        assert "node_config" not in inspect.signature(AftClient.connect).parameters
        assert not {"observability", "extra"} & set(_field_names(ClusterConfig))
