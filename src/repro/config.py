"""Configuration objects for AFT nodes and clusters.

Keeping all tunables in a single frozen dataclass makes experiment setups
explicit and reproducible: benchmarks construct an :class:`AftConfig`, pass it
to every node in a cluster, and record it alongside results.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Mapping


@dataclass(frozen=True)
class ObservabilityConfig:
    """The observability plane's switchboard — fully off by default.

    ``enabled`` turns on span collection (``repro.observability``);
    ``trace_dir`` makes server processes append their spans to
    ``<trace_dir>/trace-<component>.jsonl``; ``metrics_interval`` > 0 makes
    them snapshot their metrics registries to
    ``<trace_dir>/metrics-<component>.jsonl`` every that-many seconds.
    Setting either implies ``enabled`` at the CLI layer; the config object
    itself keeps the three knobs independent so in-process users can trace
    without touching disk.
    """

    enabled: bool = False
    trace_dir: str | None = None
    metrics_interval: float = 0.0
    #: Bound on buffered finished spans per process (a ring: oldest dropped).
    trace_capacity: int = 65536

    def __post_init__(self) -> None:
        if self.metrics_interval < 0:
            raise ValueError("metrics_interval must be >= 0")
        if self.trace_capacity < 1:
            raise ValueError("trace_capacity must be >= 1")

    def with_overrides(self, **overrides: Any) -> "ObservabilityConfig":
        """Return a copy of this config with the given fields replaced."""
        return replace(self, **overrides)

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class AftConfig:
    """Tunables of a single AFT node — the one place a node setting is set.

    A cluster takes it as :attr:`ClusterConfig.node_config` and a simulated
    deployment as :attr:`~repro.simulation.cluster_sim.DeploymentSpec.node_config`;
    neither mirrors any of its fields.

    Attributes
    ----------
    enable_data_cache:
        Whether the node keeps an in-memory cache of key-version *values*
        (Section 3.1 / 6.2).  Metadata caching is always on because the read
        protocol depends on it.
    data_cache_capacity_bytes:
        Capacity of the data cache in bytes of cached payload.
    write_buffer_spill_bytes:
        When a transaction's buffered writes exceed this many bytes, the
        Atomic Write Buffer proactively spills them to storage (Section 3.3).
        ``None`` disables spilling.
    batch_commit_writes:
        Whether the commit protocol pushes a transaction's updates to storage
        with one batched call when the engine supports it (Section 6.1.1).
    enable_io_pipeline:
        Whether node-side storage traffic is routed through the IO-plan
        pipeline (:mod:`repro.core.io_plan`): the commit's data writes, the
        write buffer's spills, and the read protocol's payload fetches become
        explicit plan stages whose operations are issued concurrently and
        charged parallel (per-stage) latency.  Disabling this reproduces the
        original one-operation-at-a-time path with sequential latency — the
        ``bench_ablation_parallel_io`` benchmark compares the two.
    group_commit_window:
        Group commit is on exactly when this is positive: the node then
        coalesces concurrently-committing transactions into one storage batch
        through the :class:`~repro.core.group_commit.GroupCommitter` (one
        combined two-stage plan persists every transaction's data first and
        every commit record second, preserving the write-ordering invariant
        of Section 3.3 across the whole batch).  The value is how long, in
        seconds of real time, an open batch waits on the event loop for
        further committers to join before flushing (a batch that fills to
        ``group_commit_max_txns`` flushes at once).  ``0`` commits each
        transaction through its own two-stage plan;
        ``commit_transactions`` coalesces its whole argument either way.
    group_commit_max_txns:
        Upper bound on the number of transactions coalesced into one
        group-commit flush; arrivals beyond it start the next batch.
    io_concurrency:
        Bound on concurrently in-flight request groups per IO-plan stage.
        Applied to the node's storage engines at construction; only engines
        with real waiting IO (``wall_clock_io``) actually fan out — the
        simulated engines meter latency and stay sequential/deterministic.
    strict_reads:
        If True, ``get`` raises :class:`~repro.errors.AtomicReadError` when
        Algorithm 1 finds no compatible version; if False it returns ``None``
        (the paper's NULL read, Section 3.6).
    multicast_interval:
        Period, in seconds, of the background thread that broadcasts recently
        committed transactions to peer nodes (Section 4).
    prune_superseded_broadcasts:
        Whether the multicast applies the supersedence pruning optimisation of
        Section 4.1.
    gc_interval:
        Period, in seconds, of the local metadata garbage-collection sweep
        (Section 5.1).
    global_gc_interval:
        Period, in seconds, of the fault manager's global data GC (Section 5.2).
    fault_scan_interval:
        Period of the fault manager's Transaction Commit Set scan used to
        guarantee liveness of committed-but-unbroadcast transactions (Section 4.2).
    metadata_bootstrap_limit:
        How many of the most recent commit records a recovering node loads to
        warm its metadata cache (Section 3.1).
    transaction_timeout:
        Seconds after which an idle, uncommitted transaction is considered
        abandoned and aborted by the node (Section 3.3.1).
    storage_request_timeout:
        Socket round-trip budget, in seconds, for one storage request issued
        by a distributed-runtime node against the router's shared storage
        service (``None`` waits forever).  Only meaningful for deployments
        whose storage engine is :class:`~repro.rpc.storage_client.RemoteStorage`;
        in-process engines ignore it.
    drain_grace_period:
        How long a draining node waits for its in-flight transactions before
        the cluster force-aborts them and retires it anyway.  Drain normally
        completes as soon as the last pinned transaction commits; the grace
        period only bounds pathological stragglers.
    """

    enable_data_cache: bool = True
    data_cache_capacity_bytes: int = 64 * 1024 * 1024
    write_buffer_spill_bytes: int | None = None
    batch_commit_writes: bool = True
    enable_io_pipeline: bool = True
    group_commit_window: float = 0.0
    group_commit_max_txns: int = 8
    io_concurrency: int = 16
    strict_reads: bool = False
    multicast_interval: float = 1.0
    prune_superseded_broadcasts: bool = True
    gc_interval: float = 5.0
    global_gc_interval: float = 10.0
    fault_scan_interval: float = 5.0
    metadata_bootstrap_limit: int = 10_000
    transaction_timeout: float = 60.0
    drain_grace_period: float = 30.0
    storage_request_timeout: float | None = 30.0
    observability: ObservabilityConfig = field(default_factory=ObservabilityConfig)

    def __post_init__(self) -> None:
        if isinstance(self.observability, Mapping):
            # Accept the as_dict form so manifests round-trip: AftConfig(**config.as_dict()).
            object.__setattr__(self, "observability", ObservabilityConfig(**self.observability))
        if self.storage_request_timeout is not None and self.storage_request_timeout <= 0:
            raise ValueError("storage_request_timeout must be > 0 or None")
        if self.group_commit_max_txns < 1:
            raise ValueError("group_commit_max_txns must be >= 1")
        if self.io_concurrency < 1:
            raise ValueError("io_concurrency must be >= 1")
        if self.group_commit_window < 0:
            raise ValueError("group_commit_window must be >= 0")
        if self.group_commit_window > 0 and not self.enable_io_pipeline:
            raise ValueError(
                "group_commit_window > 0 requires enable_io_pipeline: the group "
                "committer persists batches through IO plans"
            )
        if self.group_commit_window > 0 and not self.batch_commit_writes:
            raise ValueError(
                "group_commit_window > 0 contradicts batch_commit_writes=False: "
                "group commit exists to batch commit writes, so the batching "
                "ablation must run with group commit off"
            )

    def with_overrides(self, **overrides: Any) -> "AftConfig":
        """Return a copy of this config with the given fields replaced."""
        return replace(self, **overrides)

    def as_dict(self) -> dict[str, Any]:
        """Return a plain dict view, convenient for experiment manifests."""
        return asdict(self)


@dataclass(frozen=True)
class AutoscalerPolicy:
    """Utilization-driven elasticity policy for an AFT cluster.

    The autoscaler samples cluster utilization — in-flight transactions
    divided by the serving capacity of the routable nodes — on every
    evaluation and reacts with hysteresis: a scale event fires only after the
    relevant threshold has been breached for ``scale_up_after`` /
    ``scale_down_after`` *consecutive* evaluations, and never within
    ``cooldown`` seconds of the previous scale event.  The asymmetry (fast
    up, slow down) follows standard practice: under-provisioning hurts tail
    latency immediately, over-provisioning only costs money.

    Attributes
    ----------
    min_nodes / max_nodes:
        Bounds on the number of routable nodes the policy maintains.
    scale_up_threshold / scale_down_threshold:
        Utilization fractions (0..1) above/below which breaches accumulate.
        The gap between them is the hysteresis dead band.
    scale_up_after / scale_down_after:
        Consecutive breached evaluations required before acting.
    cooldown:
        Minimum seconds between scale events, letting the previous event's
        effect show up in utilization before the next decision.
    evaluation_interval:
        Seconds between utilization samples.
    node_capacity:
        In-flight transactions one node serves comfortably; the denominator
        of the utilization metric (mirrors the cost model's request slots).
    """

    min_nodes: int = 1
    max_nodes: int = 8
    scale_up_threshold: float = 0.75
    scale_down_threshold: float = 0.30
    scale_up_after: int = 2
    scale_down_after: int = 5
    cooldown: float = 5.0
    evaluation_interval: float = 1.0
    node_capacity: int = 35

    def __post_init__(self) -> None:
        if self.min_nodes < 1 or self.max_nodes < self.min_nodes:
            raise ValueError("need 1 <= min_nodes <= max_nodes")
        if not 0.0 < self.scale_down_threshold < self.scale_up_threshold <= 1.0:
            raise ValueError("need 0 < scale_down_threshold < scale_up_threshold <= 1")
        if self.scale_up_after < 1 or self.scale_down_after < 1:
            raise ValueError("hysteresis counts must be >= 1")
        if self.cooldown < 0 or self.evaluation_interval <= 0:
            raise ValueError("cooldown must be >= 0 and evaluation_interval > 0")
        if self.node_capacity < 1:
            raise ValueError("node_capacity must be >= 1")

    def with_overrides(self, **overrides: Any) -> "AutoscalerPolicy":
        return replace(self, **overrides)

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class FaultManagerConfig:
    """Tunables of the sharded fault-manager service (Sections 4.2, 4.3, 5.2).

    The fault manager partitions the transaction-id space across
    ``num_shards`` logical shards on a consistent-hash ring
    (``hash_ring_replicas`` virtual nodes per shard).  Each shard tracks the
    commits it has seen with a *low watermark* plus a recent-window digest
    instead of an unbounded set, and sweeps its slice of the Transaction
    Commit Set incrementally through a resumable cursor.

    Attributes
    ----------
    num_shards:
        Number of logical shards partitioning the transaction-id space.
        ``1`` degenerates to the paper's single fault manager.
    hash_ring_replicas:
        Virtual nodes per shard on the consistent-hash ring.
    scan_read_batch:
        How many commit records one liveness sweep fetches per IO-plan batch
        (the batched replacement for the seed's one ``read_record`` per id).
    max_records_per_scan:
        Per-shard budget of ids examined by one ``scan_commit_set`` call;
        a budget-bounded sweep resumes from its cursor on the next call.
        ``None`` sweeps each shard's full slice every call (the seed
        behaviour, required by the liveness tests).
    watermark_lag:
        Seconds of transaction-id timestamp a shard's low watermark trails
        behind the newest id it has verified.  The watermark only advances
        after a *complete* sweep cycle confirmed every durable id in the
        shard's slice was seen, and never past an id whose record read is
        still unresolved; the lag additionally protects against commit
        records surfacing with bounded clock skew (a node's local clock may
        lag its peers by at most this much — the paper's loosely-synchronised
        clock assumption).
    """

    num_shards: int = 4
    hash_ring_replicas: int = 16
    scan_read_batch: int = 64
    max_records_per_scan: int | None = None
    watermark_lag: float = 30.0

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.hash_ring_replicas < 1:
            raise ValueError("hash_ring_replicas must be >= 1")
        if self.scan_read_batch < 1:
            raise ValueError("scan_read_batch must be >= 1")
        if self.max_records_per_scan is not None and self.max_records_per_scan < 1:
            raise ValueError("max_records_per_scan must be >= 1 or None")
        if self.watermark_lag < 0:
            raise ValueError("watermark_lag must be >= 0")

    def with_overrides(self, **overrides: Any) -> "FaultManagerConfig":
        return replace(self, **overrides)

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class MetadataPlaneConfig:
    """Strategy selection for the pluggable metadata plane (Section 4).

    Each knob names one of the strategies in
    :mod:`repro.core.metadata_plane`; the defaults reproduce the seed's
    hardwired singletons bit-for-bit.

    Attributes
    ----------
    transport:
        Commit-stream transport: ``"direct"`` (the publisher delivers to
        every peer itself, the seed behaviour) or ``"sharded"`` (receivers
        arranged into a hash-ring-ordered relay tree; sender-side cost is
        bounded by ``relay_fanout`` instead of growing with the fleet).
    relay_fanout:
        Degree of the sharded transport's relay tree (ignored by
        ``"direct"``).
    membership:
        Failure detector: ``"polling"`` (ground-truth ``is_running`` checks,
        the seed behaviour) or ``"lease"`` (heartbeat/lease liveness —
        detection is delayed by up to ``lease_duration``, which the
        simulator charges from the deployment cost model).
    lease_duration:
        Seconds a lease survives without a heartbeat renewal.
    heartbeat_interval:
        Seconds between lease renewals.  Heartbeats piggyback on the
        multicast cadence in this repro, so the effective interval is
        ``max(heartbeat_interval, multicast_interval)``; the knob exists so
        the cost model can charge detection delay independently.
    keyspace:
        Commit-record layout: ``"flat"`` (the single ``aft.commit`` prefix)
        or ``"partitioned"`` (one prefix per fault-manager shard, turning
        each shard's sweep into a prefix listing; legacy flat records stay
        readable through the migration shim).
    fencing:
        Whether membership changes mint epoch fencing tokens
        (:mod:`repro.core.metadata_plane.fencing`) that are validated on
        every commit-record write.  Essential when ``membership="lease"``:
        a lease detector can falsely declare a partitioned-but-alive node
        failed, and without fencing that node's late commits would land in
        the Commit Set alongside its replacement's.  Off by default — the
        seed's polling detector never declares a running node failed, and
        unfenced records stay byte-identical to the seed format.
    """

    transport: str = "direct"
    relay_fanout: int = 4
    membership: str = "polling"
    lease_duration: float = 5.0
    heartbeat_interval: float = 1.0
    keyspace: str = "flat"
    fencing: bool = False

    def __post_init__(self) -> None:
        if self.transport not in ("direct", "sharded"):
            raise ValueError(f"unknown commit-stream transport {self.transport!r}")
        if self.membership not in ("polling", "lease"):
            raise ValueError(f"unknown membership mode {self.membership!r}")
        if self.keyspace not in ("flat", "partitioned"):
            raise ValueError(f"unknown commit-keyspace mode {self.keyspace!r}")
        if self.relay_fanout < 1:
            raise ValueError("relay_fanout must be >= 1")
        if self.lease_duration <= 0:
            raise ValueError("lease_duration must be > 0")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        if self.membership == "lease" and self.lease_duration <= self.heartbeat_interval:
            raise ValueError(
                "lease_duration must exceed heartbeat_interval, or every "
                "lease expires between renewals and live nodes flap failed"
            )

    def with_overrides(self, **overrides: Any) -> "MetadataPlaneConfig":
        return replace(self, **overrides)

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class ClusterConfig:
    """Tunables of a distributed AFT deployment (Section 4).

    ``balancer`` selects the routing policy (``"round_robin"``,
    ``"consistent_hash"``, or ``"least_loaded"``); ``hash_ring_replicas``
    sets the virtual-node count per physical node for consistent hashing.
    ``autoscaler`` enables utilization-driven elasticity: standby nodes are
    promoted under load and idle nodes are drained and retired (``None``
    keeps the cluster at its fixed size).  ``node_config`` is the one
    :class:`AftConfig` every node of the cluster runs, observability
    included.
    """

    num_nodes: int = 1
    node_config: AftConfig = field(default_factory=AftConfig)
    standby_nodes: int = 1
    balancer: str = "round_robin"
    hash_ring_replicas: int = 100
    autoscaler: AutoscalerPolicy | None = None
    fault_manager: FaultManagerConfig = field(default_factory=FaultManagerConfig)
    metadata_plane: MetadataPlaneConfig = field(default_factory=MetadataPlaneConfig)

    def with_overrides(self, **overrides: Any) -> "ClusterConfig":
        """Return a copy of this config with the given fields replaced."""
        return replace(self, **overrides)


DEFAULT_CONFIG = AftConfig()
