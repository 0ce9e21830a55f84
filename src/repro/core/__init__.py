"""AFT core: the paper's primary contribution.

This package implements the shim itself — the transactional key-value API of
Table 1, the write-ordering commit protocol and atomic read protocol
(Algorithms 1 and 2), per-node caching, multi-node commit multicast, the fault
manager, and garbage collection.
"""

from repro.core.autoscaler import Autoscaler, AutoscalerStats
from repro.core.cluster import AftCluster, ClusterClient
from repro.core.commit_set import CommitRecord, CommitSetStore
from repro.core.data_cache import DataCache
from repro.core.fault_manager import (
    FaultManager,
    FaultManagerShard,
    RecoveryReport,
    ScanReport,
    SeenDigest,
)
from repro.core.garbage_collector import GlobalDataGC, LocalMetadataGC
from repro.core.group_commit import GroupCommitter, GroupCommitStats, PendingCommit
from repro.core.io_plan import IOOp, IOPlan, IOStage, PlanResult
from repro.core.load_balancer import (
    ConsistentHashLoadBalancer,
    HashRing,
    LeastLoadedLoadBalancer,
    RoundRobinLoadBalancer,
    make_load_balancer,
)
from repro.core.metadata_cache import CommitSetCache, MetadataSnapshot
from repro.core.metadata_plane import (
    CommitKeyspace,
    CommitStream,
    DirectCommitStream,
    FlatCommitKeyspace,
    LeaseMembership,
    MembershipEvent,
    MembershipService,
    PartitionedCommitKeyspace,
    PollingMembership,
    ShardedCommitStream,
)
from repro.core.multicast import MulticastService
from repro.core.node import AftNode, NodeStats
from repro.core.read_protocol import (
    ReadDecision,
    ReadSetOverlay,
    TrackedReadSet,
    atomic_read,
    is_atomic_readset,
)
from repro.core.session import TransactionSession
from repro.core.supersedence import is_superseded, prune_for_broadcast
from repro.core.sweep import SortedTxidLog, SweepCursor
from repro.core.transaction import Transaction, TransactionStatus
from repro.core.version_index import KeyVersionIndex, KeyVersionSnapshot
from repro.core.write_buffer import AtomicWriteBuffer

__all__ = [
    "AftCluster",
    "ClusterClient",
    "AftNode",
    "NodeStats",
    "CommitRecord",
    "CommitSetStore",
    "CommitSetCache",
    "MetadataSnapshot",
    "KeyVersionIndex",
    "KeyVersionSnapshot",
    "DataCache",
    "AtomicWriteBuffer",
    "Transaction",
    "TransactionStatus",
    "TransactionSession",
    "ReadDecision",
    "TrackedReadSet",
    "ReadSetOverlay",
    "SortedTxidLog",
    "SweepCursor",
    "atomic_read",
    "is_atomic_readset",
    "is_superseded",
    "prune_for_broadcast",
    "IOOp",
    "IOPlan",
    "IOStage",
    "PlanResult",
    "GroupCommitter",
    "GroupCommitStats",
    "PendingCommit",
    "MulticastService",
    "CommitStream",
    "DirectCommitStream",
    "ShardedCommitStream",
    "MembershipService",
    "MembershipEvent",
    "PollingMembership",
    "LeaseMembership",
    "CommitKeyspace",
    "FlatCommitKeyspace",
    "PartitionedCommitKeyspace",
    "FaultManager",
    "FaultManagerShard",
    "SeenDigest",
    "ScanReport",
    "RecoveryReport",
    "LocalMetadataGC",
    "GlobalDataGC",
    "HashRing",
    "RoundRobinLoadBalancer",
    "LeastLoadedLoadBalancer",
    "ConsistentHashLoadBalancer",
    "make_load_balancer",
    "Autoscaler",
    "AutoscalerStats",
]
