"""IO plans — the batched, parallel storage pipeline.

The paper's shim is only competitive with plain storage because its commit
path batches writes and issues independent requests concurrently
(Section 3.3, Figure 2).  An :class:`IOPlan` makes that structure explicit:
it is an ordered list of :class:`IOStage` barriers, where every operation
inside one stage may execute concurrently but a stage only starts after the
previous stage has fully completed.  The two-stage commit plan —

* stage ``"data"``: every key version of the transaction(s), and
* stage ``"commit-records"``: the commit record(s) —

encodes the write-ordering invariant of Section 3.3 directly in the plan
shape: no commit record is written until all data it references is durable.

Plans are *executed* by
:meth:`repro.storage.base.StorageEngine.execute_plan_async` (``execute_plan``
drives it for sync callers).  It maps each stage onto the backend's
capabilities (native batching on DynamoDB and the in-memory engine, per-shard
MSET/MGET on Redis, plain request fan-out on S3) as storage ops, links each
stage's ops ``after`` the previous stage's, and runs the plan as one op
group.  The attached :class:`~repro.storage.base.CostLedger` is charged
*per-stage* parallel latency rather than per-operation sequential latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

GET = "get"
PUT = "put"
DELETE = "delete"


@dataclass(frozen=True)
class IOOp:
    """One storage operation inside a stage."""

    kind: str  # GET | PUT | DELETE
    key: str
    value: bytes | None = None

    def __post_init__(self) -> None:
        if self.kind not in (GET, PUT, DELETE):
            raise ValueError(f"unknown IO op kind {self.kind!r}")
        if self.kind == PUT and self.value is None:
            raise ValueError(f"put of {self.key!r} needs a value")


@dataclass
class IOStage:
    """A set of operations that may execute concurrently.

    Stages are barriers: every operation of stage ``i`` completes before any
    operation of stage ``i+1`` starts.  The executor decides how the stage's
    operations map onto requests (native batches, per-shard groups, or
    point-op fan-out) — the stage only fixes *what* must happen and the
    ordering constraint relative to other stages.
    """

    name: str
    ops: list[IOOp] = field(default_factory=list)

    def add_get(self, key: str) -> "IOStage":
        self.ops.append(IOOp(kind=GET, key=key))
        return self

    def add_put(self, key: str, value: bytes) -> "IOStage":
        self.ops.append(IOOp(kind=PUT, key=key, value=bytes(value)))
        return self

    def add_delete(self, key: str) -> "IOStage":
        self.ops.append(IOOp(kind=DELETE, key=key))
        return self

    @property
    def gets(self) -> list[str]:
        return [op.key for op in self.ops if op.kind == GET]

    @property
    def puts(self) -> dict[str, bytes]:
        return {op.key: op.value for op in self.ops if op.kind == PUT}

    @property
    def deletes(self) -> list[str]:
        return [op.key for op in self.ops if op.kind == DELETE]

    def __len__(self) -> int:
        return len(self.ops)


@dataclass
class IOPlan:
    """An ordered DAG-as-chain of stages to run against one storage engine."""

    stages: list[IOStage] = field(default_factory=list)

    def stage(self, name: str) -> IOStage:
        """Append and return a new (initially empty) stage."""
        stage = IOStage(name=name)
        self.stages.append(stage)
        return stage

    def compact(self) -> "IOPlan":
        """Drop empty stages (they would only add bookkeeping noise)."""
        self.stages = [stage for stage in self.stages if len(stage)]
        return self

    @property
    def operation_count(self) -> int:
        return sum(len(stage) for stage in self.stages)

    def __bool__(self) -> bool:
        return any(len(stage) for stage in self.stages)

    # ------------------------------------------------------------------ #
    # Common plan shapes
    # ------------------------------------------------------------------ #
    @classmethod
    def reads(cls, keys: Iterable[str], name: str = "reads") -> "IOPlan":
        """A single parallel stage fetching every key."""
        plan = cls()
        stage = plan.stage(name)
        for key in keys:
            stage.add_get(key)
        return plan.compact()

    @classmethod
    def writes(cls, items: Mapping[str, bytes], name: str = "writes") -> "IOPlan":
        """A single parallel stage persisting every item."""
        plan = cls()
        stage = plan.stage(name)
        for key, value in items.items():
            stage.add_put(key, value)
        return plan.compact()

    @classmethod
    def commit(
        cls,
        data: Mapping[str, bytes],
        records: Mapping[str, bytes],
    ) -> "IOPlan":
        """The write-ordering commit plan: all data, then all commit records.

        Works for a single transaction or a whole group-commit batch — the
        invariant is the same: a commit record may only become durable after
        every data key it references (Section 3.3).
        """
        plan = cls()
        data_stage = plan.stage("data")
        for key, value in data.items():
            data_stage.add_put(key, value)
        record_stage = plan.stage("commit-records")
        for key, value in records.items():
            record_stage.add_put(key, value)
        return plan.compact()


@dataclass
class PlanResult:
    """Outcome of executing one :class:`IOPlan`: the value of every GET.

    Where the time went is on the attached
    :class:`~repro.storage.base.CostLedger`, one plan stage per non-empty
    stage.
    """

    values: dict[str, bytes | None] = field(default_factory=dict)
