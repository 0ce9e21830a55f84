"""The storage op contract: every engine implements each op once, as a coroutine.

The sync names (``get``, ``put``, ``multi_put``, ...) and the IO-plan
executor both reach storage only through the ``*_async`` coroutines, so a
fault injected into the coroutine shows on every path.  A guard walks the
engines under ``src/`` so a sync twin cannot creep back in.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
from repro.core.io_plan import IOPlan
from repro.nemesis.faults import TornWriteStorage
from repro.rpc.storage_client import RemoteStorage
from repro.storage.base import CostLedger, StorageEngine
from repro.storage.dynamodb import SimulatedDynamoDB
from repro.storage.latency import ConstantLatency
from repro.storage.latency_injected import LatencyInjectedStorage
from repro.storage.memory import InMemoryStorage
from repro.storage.rediscluster import SimulatedRedisCluster
from repro.storage.s3 import SimulatedS3

SYNC_OPS = frozenset({"get", "put", "delete", "list_keys", "multi_get", "multi_put", "multi_delete"})

#: Engine class -> how to build one (the wrappers take an inner engine).
ENGINES = {
    InMemoryStorage: lambda cls: cls(),
    SimulatedS3: lambda cls: cls(),
    SimulatedDynamoDB: lambda cls: cls(),
    SimulatedRedisCluster: lambda cls: cls(),
    TornWriteStorage: lambda cls: cls(InMemoryStorage()),
    LatencyInjectedStorage: lambda cls: cls(InMemoryStorage(), injected=ConstantLatency(0.0)),
}


class InjectedWriteFault(Exception):
    pass


def failing_writes(base: type[StorageEngine]) -> type[StorageEngine]:
    class FailingWrites(base):
        async def put_async(self, key, value):
            raise InjectedWriteFault(key)

        async def multi_put_async(self, items):
            raise InjectedWriteFault(sorted(items))

    return FailingWrites


class TestOneImplementationPerOp:
    @pytest.mark.parametrize("base", list(ENGINES), ids=lambda cls: cls.__name__)
    def test_every_write_path_goes_through_the_coroutine(self, base):
        engine = ENGINES[base](failing_writes(base))
        with pytest.raises(InjectedWriteFault):
            engine.put("k", b"v")
        with pytest.raises(InjectedWriteFault):
            engine.multi_put({"a": b"1", "b": b"2"})
        with pytest.raises(InjectedWriteFault):
            engine.execute_plan(IOPlan.writes({"a": b"1", "b": b"2"}))
        assert engine.size() == 0

    def test_an_engine_of_four_coroutines_round_trips_a_plan(self):
        class DictEngine(StorageEngine):
            def __init__(self) -> None:
                super().__init__(latency_model=ConstantLatency(0.002))
                self.data: dict[str, bytes] = {}

            async def get_async(self, key):
                self._charge("read")
                return self.data.get(key)

            async def put_async(self, key, value):
                self._charge("write")
                self.data[key] = value

            async def delete_async(self, key):
                self._charge("delete")
                self.data.pop(key, None)

            async def list_keys_async(self, prefix=""):
                return sorted(key for key in self.data if key.startswith(prefix))

        engine = DictEngine()
        ledger = CostLedger()
        with engine.metered(ledger):
            engine.execute_plan(IOPlan.commit({"d/1": b"x", "d/2": b"y"}, {"c/r": b"rec"}))
            result = engine.execute_plan(IOPlan.reads(["d/1", "d/2", "missing"]))
        assert result.values == {"d/1": b"x", "d/2": b"y", "missing": None}
        # The batch defaults loop over point ops: three writes in two stages,
        # three reads in one.
        assert [entry.op for entry in ledger.entries] == ["write"] * 3 + ["read"] * 3
        assert ledger.plan_stage_count == 3
        assert engine.list_keys("d/") == ["d/1", "d/2"]
        engine.multi_delete(["d/1", "d/2"])
        assert engine.multi_get(["d/1", "c/r"]) == {"d/1": None, "c/r": b"rec"}


def engine_classes_under_src() -> list[type[StorageEngine]]:
    for module in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        importlib.import_module(module.name)
    found, pending = [], list(StorageEngine.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls.__module__.startswith("repro."):
            found.append(cls)
    return found


def test_no_engine_under_src_defines_a_sync_op():
    allowed = {(SimulatedDynamoDB, "get"), (SimulatedDynamoDB, "multi_get")}
    engines = engine_classes_under_src()
    assert set(ENGINES) | {RemoteStorage} <= set(engines)
    offenders = [
        f"{cls.__module__}.{cls.__qualname__}.{name}"
        for cls in engines
        for name in sorted(SYNC_OPS & set(vars(cls)))
        if (cls, name) not in allowed
    ]
    assert offenders == [], "sync op twins: implement the *_async coroutine instead"
