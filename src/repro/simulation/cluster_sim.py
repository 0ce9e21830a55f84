"""End-to-end simulated deployments.

:func:`run_deployment` is the workhorse behind every latency, throughput,
anomaly, garbage-collection, and fault-tolerance experiment: it builds the
storage engine, the AFT cluster (or baseline client), the background
processes (commit multicast, local and global GC, fault-manager scans), a set
of closed-loop clients, and an optional failure script, runs the
discrete-event simulation, and returns every collected metric.

The deployment is described declaratively by :class:`DeploymentSpec`, so each
benchmark is a handful of spec constructions plus a report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.baselines.dynamo_txn import DynamoTransactionClient
from repro.clock import Clock
from repro.config import (
    AftConfig,
    AutoscalerPolicy,
    ClusterConfig,
    MetadataPlaneConfig,
)
from repro.core.autoscaler import SCALE_DOWN, SCALE_UP
from repro.consistency.checker import AnomalyCounts
from repro.consistency.metadata import TaggedValue
from repro.core.cluster import AftCluster
from repro.core.node import AftNode
from repro.ids import new_uuid
from repro.simulation.client import ClientGroupResult, ClosedLoopClient
from repro.simulation.cost_model import DeploymentCostModel, latency_model_for_backend
from repro.simulation.execution import (
    TransactionOutcome,
    aft_transaction_program,
    dynamo_txn_transaction_program,
    plain_transaction_program,
)
from repro.simulation.kernel import Simulation
from repro.simulation.metrics import LatencySummary
from repro.simulation.resources import Resource
from repro.storage.base import StorageEngine
from repro.storage.dynamodb import SimulatedDynamoDB
from repro.storage.rediscluster import SimulatedRedisCluster
from repro.storage.s3 import SimulatedS3
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.spec import WorkloadSpec


class SimClock(Clock):
    """A :class:`~repro.clock.Clock` view of the simulation's virtual time."""

    def __init__(self, sim: Simulation) -> None:
        self._sim = sim

    def now(self) -> float:
        return self._sim.now


@dataclass
class _GateBatch:
    """One open group-commit batch inside a :class:`SimGroupCommitGate`."""

    event: object  # kernel Event triggered once the batch's flush completed
    txids: list[str] = field(default_factory=list)
    results: dict[str, object] = field(default_factory=dict)
    error: BaseException | None = None
    storage_operations: int = 0


class _GateTicket:
    """One transaction's membership in a gate batch."""

    def __init__(self, batch: _GateBatch, txid: str) -> None:
        self._batch = batch
        self._txid = txid

    @property
    def event(self):
        return self._batch.event

    @property
    def storage_operations_charged(self) -> int:
        """The batch's storage ops, charged once per batch.

        Charged to the first member whose commit became durable — not
        blindly to the leader, whose ticket raises (discarding its outcome)
        when its own chunk was the one that failed.
        """
        results = self._batch.results
        charged_to = next(
            (txid for txid in self._batch.txids if txid in results),
            self._batch.txids[0] if self._batch.txids else None,
        )
        return self._batch.storage_operations if self._txid == charged_to else 0

    def result(self):
        """The member's commit id (raises what the flush raised, if anything)."""
        commit_id = self._batch.results.get(self._txid)
        if commit_id is not None:
            return commit_id
        if self._batch.error is not None:
            raise self._batch.error
        raise RuntimeError(f"group-commit flush produced no result for {self._txid!r}")


class SimGroupCommitGate:
    """Simulated-time group-commit coalescing for one node (ROADMAP item 4).

    The node-level :class:`~repro.core.group_commit.GroupCommitter` window
    waits in *wall-clock* time, which the single-threaded simulator can
    never profit from — commits arrive one kernel callback at a time, so
    it would only ever flush batches of one.  This gate implements the
    window in *virtual* time instead (``run_deployment`` takes ``window``
    from ``node_config.group_commit_window`` and runs the nodes with their
    own window at 0): the first transaction to reach commit opens a batch
    and schedules a flush ``window`` sim-seconds later; transactions
    committing within the window join the batch (bounded by ``max_txns`` —
    later arrivals open the next batch); the flush persists every member
    through :meth:`~repro.core.node.AftNode.commit_transactions` (one
    combined two-stage plan, write ordering preserved batch-wide) and wakes
    them all.

    Each member's latency includes its share of the window wait plus the
    batch's one pipelined storage charge — ``n`` commits cost two storage
    round trips instead of ``2n``, which is exactly what the fig3/fig7
    group-commit ablation is supposed to show.  When the deployment caps
    concurrent storage operations (``storage_concurrency_limit``), the
    flush's storage charge is paid *through* that shared resource: a batch
    flush occupies one in-flight-request slot for its duration, contending
    with per-transaction traffic exactly like any other storage call.
    """

    def __init__(
        self,
        sim: Simulation,
        node: AftNode,
        cost_model: DeploymentCostModel,
        window: float,
        max_txns: int,
        storage_resource: Resource | None = None,
    ) -> None:
        if window <= 0:
            raise ValueError("SimGroupCommitGate needs a positive window")
        self.sim = sim
        self.node = node
        self.cost_model = cost_model
        self.window = window
        self.max_txns = max_txns
        self.storage_resource = storage_resource
        self._open: _GateBatch | None = None

    def join(self, txid: str) -> _GateTicket:
        """Add ``txid`` to the open batch (opening a new one as needed)."""
        batch = self._open
        if batch is None or len(batch.txids) >= self.max_txns:
            batch = _GateBatch(event=self.sim.event(name="group-commit-flush"))
            self._open = batch
            self.sim.process(self._flush(batch), name=f"group-commit-{self.node.node_id}")
        batch.txids.append(txid)
        return _GateTicket(batch, txid)

    def _flush(self, batch: _GateBatch):
        yield self.sim.timeout(self.window)
        if self._open is batch:
            self._open = None
        from repro.simulation.execution import _meter

        stack, ledger = _meter(self.node.storage, self.node.commit_store.engine)
        try:
            with stack:
                batch.results = self.node.commit_transactions(list(batch.txids))
        except BaseException as exc:  # noqa: BLE001 - re-raised per member
            batch.error = exc
            # A chunked flush may have made some members durable before the
            # failing chunk; those transactions committed and their members
            # must succeed (only the failed chunk's members see the error).
            batch.results = getattr(exc, "partial_commit_results", {})
        batch.storage_operations = ledger.operation_count
        # Mirror the per-transaction path's storage_cost(): pipelined charge
        # only when the node actually runs the IO pipeline (AftConfig today
        # requires the pipeline for group commit, but charge honestly either
        # way).
        if self.node.config.enable_io_pipeline:
            storage_s = (
                ledger.pipelined_latency
                + self.cost_model.plan_stage_overhead * ledger.plan_stage_count
            )
        else:
            storage_s = ledger.sequential_latency
        if storage_s > 0:
            if self.storage_resource is not None:
                yield from self.storage_resource.use(storage_s)
            else:
                yield self.sim.timeout(storage_s)
        batch.event.succeed()


def make_storage(backend: str, clock: Clock, seed: int = 0, ec2_client: bool = False) -> StorageEngine:
    """Build the simulated storage engine for a named backend.

    ``ec2_client`` selects the latency profile of a long-lived EC2 client with
    warm connections (how an AFT node talks to DynamoDB) instead of the
    Lambda-resident profile (how plain functions talk to it); see Figure 2
    versus Figure 3 in the paper for the difference.
    """
    backend = backend.lower()
    latency = latency_model_for_backend(backend, seed=seed)
    if backend in ("dynamodb", "dynamo"):
        if ec2_client:
            from repro.storage.latency import dynamodb_vm_latency_profile

            latency = dynamodb_vm_latency_profile(seed)
        return SimulatedDynamoDB(latency_model=latency, clock=clock, seed=seed)
    if backend == "s3":
        return SimulatedS3(latency_model=latency, clock=clock, seed=seed)
    if backend == "redis":
        return SimulatedRedisCluster(latency_model=latency, clock=clock, shard_count=2)
    if backend in ("memory", "zero"):
        from repro.storage.memory import InMemoryStorage

        return InMemoryStorage(latency_model=latency, clock=clock)
    raise ValueError(f"unknown storage backend {backend!r}")


@dataclass
class FailureScript:
    """Scripted node failure and replacement for the Figure 10 experiment."""

    fail_node_index: int = 0
    fail_at: float = 10.0
    #: Delay until the fault manager notices the failure (Section 6.7: ~5 s).
    detection_delay: float = 5.0
    #: Delay from detection until the replacement node has downloaded its
    #: container, warmed its metadata cache, and joined (~45 s in the paper).
    replacement_delay: float = 45.0


@dataclass
class DeploymentSpec:
    """Declarative description of one simulated experiment configuration.

    The spec describes the deployment around the nodes (topology, routing,
    clients, storage, failures); every node setting lives on ``node_config``
    and on nothing else here.
    """

    mode: str = "aft"  # "aft" | "plain" | "dynamo_txn"
    backend: str = "dynamodb"
    workload: WorkloadSpec = field(default_factory=WorkloadSpec.figure3_default)
    num_nodes: int = 1
    #: Request routing: "static" pins each client to a node slot (the original
    #: fixed-size-cluster behaviour); "round_robin" / "consistent_hash" /
    #: "least_loaded" route every transaction through the cluster's drain-aware
    #: load balancer, which is what lets autoscaled nodes receive traffic.
    balancer: str = "static"
    #: Elasticity policy; None keeps the cluster at its fixed size.  Requires a
    #: non-static balancer so promoted nodes actually receive traffic.
    autoscaler: AutoscalerPolicy | None = None
    #: Warm standby nodes available for scale-up promotion.
    standby_nodes: int = 1
    #: Offered-load curve: how many of the ``num_clients`` closed-loop clients
    #: are issuing requests at virtual time t (client i is active while
    #: ``i < offered_clients_fn(t)``).  None keeps every client active.
    offered_clients_fn: Callable[[float], int] | None = None
    num_clients: int = 10
    requests_per_client: int | None = 100
    duration: float | None = None
    enable_gc: bool = True
    #: Metadata-plane strategies — the commit-stream transport ("direct" |
    #: "sharded"), the failure detector ("polling" | "lease"), and the
    #: commit-record keyspace ("flat" | "partitioned") — selected by one
    #: :class:`~repro.config.MetadataPlaneConfig` object (like ``autoscaler``
    #: holds an :class:`~repro.config.AutoscalerPolicy`).  The default
    #: config reproduces the seed; it validates itself at construction.
    metadata_plane: MetadataPlaneConfig = field(default_factory=MetadataPlaneConfig)
    cost_model: DeploymentCostModel = field(default_factory=DeploymentCostModel)
    #: The one config every node of the deployment runs (data cache, commit
    #: batching, IO pipeline, group commit, pruning, observability, ...).
    #: A positive ``group_commit_window`` engages the simulated-time
    #: :class:`SimGroupCommitGate` instead of the node's wall-clock window.
    node_config: AftConfig = field(default_factory=AftConfig)
    preload: bool = True
    seed: int = 0
    failure_script: FailureScript | None = None
    #: Optional cap on concurrent storage operations across the deployment,
    #: modelling a provisioned-capacity limit of the storage service
    #: (Figure 8 saturates DynamoDB's resource limits).  ``None`` = unlimited.
    storage_concurrency_limit: int | None = None

    def __post_init__(self) -> None:
        if self.requests_per_client is None and self.duration is None:
            raise ValueError("a deployment needs requests_per_client or duration")
        if self.mode not in ("aft", "plain", "dynamo_txn"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.balancer not in ("static", "round_robin", "consistent_hash", "least_loaded"):
            raise ValueError(f"unknown balancer {self.balancer!r}")
        if self.autoscaler is not None:
            if self.mode != "aft":
                raise ValueError("the autoscaler only applies to aft deployments")
            if self.balancer == "static":
                raise ValueError(
                    "autoscaling requires a routing balancer (round_robin / "
                    "consistent_hash / least_loaded): statically pinned clients "
                    "would never send traffic to promoted nodes"
                )
        if self.offered_clients_fn is not None and self.duration is None:
            raise ValueError("an offered-load curve needs a duration-bounded run")
        if self.mode == "dynamo_txn" and self.backend not in ("dynamodb", "dynamo"):
            raise ValueError("dynamo_txn mode requires the dynamodb backend")


@dataclass
class DeploymentResult:
    """Everything measured during one simulated deployment run."""

    spec: DeploymentSpec
    client_result: ClientGroupResult
    duration: float
    anomaly_counts: AnomalyCounts
    gc_deletions: list[tuple[float, int]] = field(default_factory=list)
    node_throughput_plateau: float = 0.0
    multicast_records_broadcast: int = 0
    multicast_records_pruned: int = 0
    node_stats: list[dict] = field(default_factory=list)
    data_cache_hit_rate: float = 0.0
    conflict_retries: int = 0
    storage_keys_at_end: int = 0
    #: (time, running node count — including draining nodes still finishing
    #: in-flight work) samples from the autoscaler's evaluations.
    node_count_timeline: list[tuple[float, int]] = field(default_factory=list)
    #: (time, utilization) samples from the autoscaler's evaluations.
    utilization_timeline: list[tuple[float, float]] = field(default_factory=list)
    #: Scale-event counters and retirement bookkeeping (empty without autoscaler).
    autoscaler_summary: dict = field(default_factory=dict)
    #: Fraction of versioned reads whose chosen version was committed by the
    #: serving node itself — the metadata-cache locality that key-affinity
    #: routing buys.
    metadata_local_read_fraction: float = 0.0
    #: Recovery-time breakdown of the scripted node failure (empty without a
    #: failure script): detection, parallel shard replay, standby promotion.
    recovery_breakdown: dict = field(default_factory=dict)

    # Convenience accessors used by the benchmark reports ------------------- #
    @property
    def latency(self) -> LatencySummary:
        return self.client_result.latencies.summary()

    @property
    def throughput(self) -> float:
        return self.client_result.throughput.overall_throughput(self.duration)

    def throughput_series(self) -> list[tuple[float, float]]:
        return self.client_result.throughput.series(self.duration)


class _NodeDirectory:
    """Tracks which nodes (and CPU resources) clients may bind to."""

    def __init__(self, rng: random.Random) -> None:
        self._slots: list[tuple[AftNode, Resource] | None] = []
        self._rng = rng

    def add(self, node: AftNode, cpu: Resource) -> int:
        self._slots.append((node, cpu))
        return len(self._slots) - 1

    def mark_failed(self, index: int) -> None:
        self._slots[index] = None

    def replace(self, index: int, node: AftNode, cpu: Resource) -> None:
        self._slots[index] = (node, cpu)

    def pick(self, preferred_index: int) -> tuple[AftNode, Resource]:
        slot = self._slots[preferred_index % len(self._slots)]
        if slot is not None and slot[0].is_running:
            return slot
        live = [entry for entry in self._slots if entry is not None and entry[0].is_running]
        if not live:
            raise RuntimeError("no live AFT node available in the simulated deployment")
        return live[self._rng.randrange(len(live))]

    def live_slots(self) -> list[tuple[AftNode, Resource]]:
        return [entry for entry in self._slots if entry is not None and entry[0].is_running]


def _preload_dataset(spec: DeploymentSpec, storage: StorageEngine, cluster: AftCluster | None, clock: Clock) -> None:
    """Install an initial version of every key in the population."""
    generator = WorkloadGenerator(spec.workload, seed=spec.seed + 17)
    keys = generator.sampler.all_keys()
    payload = generator.make_payload()

    if spec.mode == "aft" and cluster is not None:
        node = cluster.nodes[0]
        chunk_size = 25
        for start in range(0, len(keys), chunk_size):
            chunk = keys[start : start + chunk_size]
            txid = node.start_transaction()
            for key in chunk:
                tag = TaggedValue(
                    payload=payload, timestamp=clock.now(), uuid=f"preload-{new_uuid()}", cowritten=frozenset({key})
                )
                node.put(txid, key, tag.to_bytes())
            node.commit_transaction(txid)
        node.forget_finished_transactions()
        # Make the preloaded versions visible on every node immediately.
        cluster.run_multicast_round()
    else:
        for key in keys:
            tag = TaggedValue(
                payload=payload, timestamp=clock.now(), uuid=f"preload-{new_uuid()}", cowritten=frozenset({key})
            )
            storage.put(key, tag.to_bytes())


def run_deployment(spec: DeploymentSpec) -> DeploymentResult:
    """Build, run, and measure one simulated deployment."""
    sim = Simulation()
    clock = SimClock(sim)
    rng = random.Random(spec.seed)

    storage = make_storage(spec.backend, clock, seed=spec.seed)

    # The coalescing window runs in *simulated* time through the per-node
    # SimGroupCommitGate; the node-level committer's own (wall-clock) window
    # must stay 0 or the flush would sleep real seconds inside a kernel
    # callback.  The gate batches through commit_transactions, which always
    # goes through the committer.
    node_config = spec.node_config
    sim_group_window = node_config.group_commit_window
    if sim_group_window > 0:
        node_config = node_config.with_overrides(group_commit_window=0.0)

    cluster: AftCluster | None = None
    dynamo_client: DynamoTransactionClient | None = None
    directory = _NodeDirectory(rng)

    node_cpu: dict[str, Resource] = {}

    def cpu_for(node: AftNode) -> Resource:
        """The node's bounded request-slot pool (created on first use, so
        autoscaled nodes get one as they join)."""
        resource = node_cpu.get(node.node_id)
        if resource is None:
            resource = Resource(
                sim, capacity=spec.cost_model.node_request_slots, name=f"{node.node_id}-slots"
            )
            node_cpu[node.node_id] = resource
        return resource

    group_gates: dict[str, SimGroupCommitGate] = {}

    def gate_for(node: AftNode) -> SimGroupCommitGate | None:
        """The node's simulated-time group-commit gate (None when disabled)."""
        if sim_group_window <= 0:
            return None
        gate = group_gates.get(node.node_id)
        if gate is None:
            # `storage_resource` is assigned later in run_deployment (before
            # the simulation runs); gates are only created lazily from inside
            # client processes, so the late binding always resolves.
            gate = SimGroupCommitGate(
                sim,
                node,
                spec.cost_model,
                window=sim_group_window,
                max_txns=node_config.group_commit_max_txns,
                storage_resource=storage_resource,
            )
            group_gates[node.node_id] = gate
        return gate

    if spec.mode == "aft":
        cluster = AftCluster(
            storage=storage,
            cluster_config=ClusterConfig(
                num_nodes=spec.num_nodes,
                node_config=node_config,
                standby_nodes=spec.standby_nodes,
                balancer=spec.balancer if spec.balancer != "static" else "round_robin",
                autoscaler=spec.autoscaler,
                metadata_plane=spec.metadata_plane,
            ),
            clock=clock,
        )
        for node in cluster.nodes:
            directory.add(node, cpu_for(node))
    elif spec.mode == "dynamo_txn":
        dynamo_client = DynamoTransactionClient(storage)  # type: ignore[arg-type]

    # Disable latency charging during the preload so it is free.
    preload_model = storage.latency_model
    from repro.storage.latency import ZeroLatency

    storage.latency_model = ZeroLatency()
    if spec.preload:
        _preload_dataset(spec, storage, cluster, clock)
    storage.latency_model = preload_model

    # ------------------------------------------------------------------ #
    # Client program factories
    # ------------------------------------------------------------------ #
    result = ClientGroupResult()
    generators = [
        WorkloadGenerator(spec.workload, seed=spec.seed + 1000 + index)
        for index in range(spec.num_clients)
    ]

    def make_factory(client_index: int):
        generator = generators[client_index]

        def factory(outcome: TransactionOutcome):
            plan = generator.next_transaction()
            payload_factory = lambda size: generator.make_payload(size)  # noqa: E731
            if spec.mode == "aft":
                if spec.balancer == "static":
                    node, cpu = directory.pick(client_index)
                    txid = None
                else:
                    # Route by key affinity (the transaction's whole key set;
                    # a key-affinity balancer picks the owner of most of it)
                    # and pin atomically with drain state: the balancer starts
                    # the transaction under the node's lock and retries
                    # another node if the candidate began draining
                    # concurrently.
                    affinity = [
                        op.key for function in plan for op in function.operations
                    ] or None
                    node, txid = cluster.load_balancer.pin_transaction(affinity_key=affinity)
                    cpu = cpu_for(node)
                program = aft_transaction_program(
                    node,
                    plan,
                    payload_factory,
                    spec.cost_model,
                    outcome,
                    clock,
                    txid=txid,
                    group_gate=gate_for(node),
                )
                return program, cpu
            if spec.mode == "plain":
                program = plain_transaction_program(
                    storage, plan, payload_factory, spec.cost_model, outcome, clock
                )
                return program, None
            program = dynamo_txn_transaction_program(
                dynamo_client, plan, payload_factory, spec.cost_model, outcome, clock
            )
            return program, None

        return factory

    storage_resource = None
    if spec.storage_concurrency_limit is not None:
        storage_resource = Resource(
            sim, capacity=spec.storage_concurrency_limit, name="storage-concurrency"
        )

    def activity_gate(index: int):
        if spec.offered_clients_fn is None:
            return None
        curve = spec.offered_clients_fn
        return lambda now, i=index: i < curve(now)

    stop_time = spec.duration
    clients = [
        ClosedLoopClient(
            sim=sim,
            client_id=str(index),
            program_factory=make_factory(index),
            result=result,
            cost_model=spec.cost_model,
            num_requests=spec.requests_per_client,
            stop_time=stop_time,
            storage_resource=storage_resource,
            active_fn=activity_gate(index),
        )
        for index in range(spec.num_clients)
    ]
    client_processes = [client.start() for client in clients]

    # Background processes must not keep the event queue alive once every
    # client has finished (when running by request count rather than duration).
    background_stop = {"stop": False}

    def stopper():
        yield sim.all_of(client_processes)
        background_stop["stop"] = True

    sim.process(stopper(), name="background-stopper")

    # ------------------------------------------------------------------ #
    # Background processes (multicast, GC, fault scans) for AFT deployments
    # ------------------------------------------------------------------ #
    gc_deletions: list[tuple[float, int]] = []

    if cluster is not None:
        def periodic(interval: float, action, jitter: float = 0.0, charge=None):
            """Run ``action`` every ``interval``; ``charge`` (if given) returns
            an extra delay to sleep after each run — how background work pays
            its own modeled latency (the next run slips, the data path does
            not stall)."""

            def process():
                if jitter:
                    yield sim.timeout(jitter)
                while not background_stop["stop"]:
                    yield sim.timeout(interval)
                    if background_stop["stop"]:
                        break
                    action()
                    if charge is not None:
                        extra = charge()
                        if extra > 0:
                            yield sim.timeout(extra)

            sim.process(process(), name=f"periodic-{action.__name__}")

        stream_stats = cluster.multicast.stream.stats
        last_round_cost = {"deliveries": 0, "records": 0}

        def metered_multicast_round() -> int:
            """Snapshot the stream counters around the round itself, so the
            fault manager's rebroadcasts (charged by the fault-scan and
            recovery latencies) are not double-charged here."""
            before = (stream_stats.sender_deliveries, stream_stats.sender_records_on_wire)
            broadcast = cluster.run_multicast_round()
            last_round_cost["deliveries"] = stream_stats.sender_deliveries - before[0]
            last_round_cost["records"] = stream_stats.sender_records_on_wire - before[1]
            return broadcast

        def multicast_round_charge() -> float:
            """Sender-side cost of the round's publishes (relay hops happen on
            the receiving nodes' cores, off this loop's critical path)."""
            return spec.cost_model.multicast_send_latency(
                last_round_cost["deliveries"], last_round_cost["records"]
            )

        periodic(
            node_config.multicast_interval,
            metered_multicast_round,
            charge=multicast_round_charge,
        )
        if spec.enable_gc:
            periodic(node_config.gc_interval, cluster.run_local_gc, jitter=0.25)

            def global_gc_round():
                deleted = cluster.run_global_gc()
                gc_deletions.append((sim.now, len(deleted)))

            periodic(node_config.global_gc_interval, global_gc_round, jitter=0.5)

        def fault_scan_charge() -> float:
            """The slowest shard's sweep cost plus fan-out overhead."""
            report = cluster.fault_manager.last_scan_report
            if report is None:
                return 0.0
            return spec.cost_model.fault_scan_latency(report.shard_costs())

        periodic(
            node_config.fault_scan_interval,
            cluster.run_fault_scan,
            jitter=0.75,
            charge=fault_scan_charge,
        )

    # ------------------------------------------------------------------ #
    # Elastic autoscaling (decision loop + delayed scale events)
    # ------------------------------------------------------------------ #
    if cluster is not None and cluster.autoscaler is not None:
        autoscaler = cluster.autoscaler
        retiring: set[str] = set()

        def join_process():
            """A promoted standby pays its start cost before serving traffic."""
            yield sim.timeout(spec.cost_model.node_start_delay)
            node = cluster.promote_standby()
            cpu_for(node)

        def retire_process(node):
            """A drained node pays its own stop cost before leaving the cluster."""
            yield sim.timeout(spec.cost_model.node_stop_delay)
            cluster.retire_drained_nodes(nodes=[node])
            retiring.discard(node.node_id)

        def autoscaler_process():
            grace = node_config.drain_grace_period
            while not background_stop["stop"]:
                yield sim.timeout(autoscaler.policy.evaluation_interval)
                if background_stop["stop"]:
                    break
                cluster.stats.autoscaler_ticks += 1
                # Finished drains retire after the cost model's stop delay;
                # a drain that outlives the grace period retires anyway
                # (retire_drained_nodes force-aborts its stragglers).
                for node in cluster.nodes:
                    if not node.is_draining or node.node_id in retiring:
                        continue
                    overdue = (
                        node.drain_started_at is not None
                        and (sim.now - node.drain_started_at) > grace
                    )
                    if node.is_drained() or overdue:
                        retiring.add(node.node_id)
                        sim.process(retire_process(node), name=f"retire-{node.node_id}")
                decision = autoscaler.evaluate(sim.now)
                if decision == SCALE_UP:
                    autoscaler.record_scale(SCALE_UP, sim.now)
                    sim.process(join_process(), name="scale-up-join")
                elif decision == SCALE_DOWN:
                    victim = autoscaler.choose_drain_victim()
                    if victim is not None:
                        cluster.begin_drain(victim)
                        autoscaler.record_scale(SCALE_DOWN, sim.now)

        sim.process(autoscaler_process(), name="autoscaler")

    # ------------------------------------------------------------------ #
    # Scripted node failure / replacement (Figure 10)
    # ------------------------------------------------------------------ #
    recovery_breakdown: dict = {}
    if spec.failure_script is not None and cluster is not None:
        script = spec.failure_script
        plane = spec.metadata_plane

        def failure_process():
            yield sim.timeout(script.fail_at)
            victim = cluster.nodes[script.fail_node_index]
            cluster.fail_node(victim)
            directory.mark_failed(script.fail_node_index)
            # Under lease membership the detection delay is not scripted —
            # it is the victim's *actual* lease expiry (its last renewal
            # rode the multicast cadence) plus the detector's evaluation
            # pass, both charged from the lease semantics rather than a
            # constant.  DeploymentCostModel.failure_detection_delay gives
            # the a-priori expectation of this same quantity.
            if plane.membership == "lease":
                expiry = cluster.membership.lease_expiry(victim.node_id)
                detected_at = (
                    expiry + spec.cost_model.membership_check_overhead
                    if expiry is not None
                    else sim.now + spec.cost_model.failure_detection_delay(
                        plane.lease_duration, plane.heartbeat_interval
                    )
                )
                yield sim.timeout(max(0.0, detected_at - sim.now))
            else:
                yield sim.timeout(script.detection_delay)
            observed_detection_s = sim.now - script.fail_at
            cluster.fault_manager.detect_failures(cluster.nodes)
            cluster.fault_manager.request_replacement()
            # Parallel shard replay of the victim's unbroadcast commits and
            # write-buffer orphans, charged at the cost model's per-shard
            # parallel recovery latency.
            report = cluster.fault_manager.recover_node_failure(victim)
            replay_latency = spec.cost_model.recovery_latency(
                report.shard_costs(), orphan_spills=report.orphan_spills_reclaimed
            )
            yield sim.timeout(replay_latency)
            # The replacement node's container download + metadata warm-up
            # dominates the remaining timeline (the paper's ~45 s).
            promotion_delay = max(0.0, script.replacement_delay - replay_latency)
            yield sim.timeout(promotion_delay)
            cluster.remove_node(victim)
            replacement = cluster.add_node(node_id=f"{victim.node_id}-replacement")
            slots = Resource(
                sim, capacity=spec.cost_model.node_request_slots, name=f"{replacement.node_id}-slots"
            )
            directory.replace(script.fail_node_index, replacement, slots)
            recovery_breakdown.update(
                {
                    "failed_node": victim.node_id,
                    "failed_at": script.fail_at,
                    "membership": plane.membership,
                    "detection_s": observed_detection_s,
                    "replay_s": replay_latency,
                    "replay_records": len(report.recovered),
                    "replay_shards": len(report.per_shard_recovered),
                    "orphan_spills_reclaimed": report.orphan_spills_reclaimed,
                    "promotion_s": promotion_delay,
                    "rejoined_at": sim.now,
                    "total_s": sim.now - script.fail_at,
                }
            )

        sim.process(failure_process(), name="failure-script")

    # ------------------------------------------------------------------ #
    # Run
    # ------------------------------------------------------------------ #
    sim.run(until=spec.duration)
    if spec.duration is not None:
        duration = spec.duration
    elif result.throughput.completions:
        # Exclude the tail of background activity (GC, multicast) that runs on
        # after the last client finished; throughput is measured over the
        # period in which clients were actually issuing requests.
        duration = max(result.throughput.completions)
    else:
        duration = sim.now

    anomaly_counts = result.anomalies.counts()

    node_stats: list[dict] = []
    cache_hits = 0
    cache_lookups = 0
    local_version_reads = 0
    remote_version_reads = 0
    multicast_broadcast = 0
    multicast_pruned = 0
    node_count_timeline: list[tuple[float, int]] = []
    utilization_timeline: list[tuple[float, float]] = []
    autoscaler_summary: dict = {}
    if cluster is not None:
        # Retired nodes served real traffic before scaling down; their
        # counters belong in the totals.
        for node in cluster.nodes + cluster.retired_nodes:
            node_stats.append(
                {
                    "node_id": node.node_id,
                    "committed": node.stats.transactions_committed,
                    "reads": node.stats.reads,
                    "writes": node.stats.writes,
                    "null_reads": node.stats.null_reads,
                    "data_cache_hits": node.stats.data_cache_hits,
                    "storage_value_reads": node.stats.storage_value_reads,
                    "group_commits": node.stats.group_commits,
                    "group_commit_batched_txns": node.stats.group_commit_batched_txns,
                    "local_version_reads": node.stats.local_version_reads,
                    "remote_version_reads": node.stats.remote_version_reads,
                    "retired": node in cluster.retired_nodes,
                    "metadata_cache_size": len(node.metadata_cache),
                }
            )
            cache_hits += node.data_cache.hits
            cache_lookups += node.data_cache.hits + node.data_cache.misses
            local_version_reads += node.stats.local_version_reads
            remote_version_reads += node.stats.remote_version_reads
        multicast_broadcast = cluster.multicast.stats.records_broadcast
        multicast_pruned = cluster.multicast.stats.records_pruned
        if cluster.autoscaler is not None:
            scaler_stats = cluster.autoscaler.stats
            node_count_timeline = list(scaler_stats.node_count_timeline)
            utilization_timeline = list(scaler_stats.utilization_timeline)
            autoscaler_summary = {
                "evaluations": scaler_stats.evaluations,
                "scale_ups": scaler_stats.scale_ups,
                "scale_downs": scaler_stats.scale_downs,
                "held_by_cooldown": scaler_stats.held_by_cooldown,
                "held_at_max": scaler_stats.held_at_max,
                "held_at_min": scaler_stats.held_at_min,
                "nodes_promoted": cluster.stats.nodes_promoted,
                "nodes_retired": cluster.stats.nodes_retired,
                "policy": cluster.autoscaler.policy.as_dict(),
            }

    versioned_reads = local_version_reads + remote_version_reads
    return DeploymentResult(
        spec=spec,
        client_result=result,
        duration=duration,
        anomaly_counts=anomaly_counts,
        gc_deletions=gc_deletions,
        multicast_records_broadcast=multicast_broadcast,
        multicast_records_pruned=multicast_pruned,
        node_stats=node_stats,
        data_cache_hit_rate=(cache_hits / cache_lookups) if cache_lookups else 0.0,
        conflict_retries=dynamo_client.stats.conflicts if dynamo_client is not None else 0,
        storage_keys_at_end=storage.size(),
        node_count_timeline=node_count_timeline,
        utilization_timeline=utilization_timeline,
        autoscaler_summary=autoscaler_summary,
        metadata_local_read_fraction=(
            local_version_reads / versioned_reads if versioned_reads else 0.0
        ),
        recovery_breakdown=recovery_breakdown,
    )
