"""The closed-loop load generator and the correctness gate.

One asyncio process, two ``AsyncRouterClient`` connections (this box has two
cores); a *session* is a task that runs one transaction after another, each
waiting for its reply — the shape of a FaaS function calling the shim.  The
same object that sends the load also keeps what is needed to judge the
answers: a ``TransactionLog`` per transaction for the ``AnomalyChecker``,
the commit token of every acknowledged commit, and a checksum of every value
written, so a read can be checked against what its writer sent.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random
import time
import zlib
from dataclasses import dataclass, field

from repro.consistency.checker import AnomalyChecker, TransactionLog
from repro.consistency.metadata import TaggedValue
from repro.ids import TransactionId
from repro.rpc.client import AsyncRouterClient

from harness import Cluster
from workloads import PRELOAD_BATCH, Workload

N_CONNECTIONS = 2
#: Bytes a TaggedValue envelope adds around its base64 payload, without the
#: co-written key list (measured: json keys, timestamp, 32-char uuid).
_ENVELOPE_BYTES = 100
READBACK_KEYS = 64


@dataclass
class Phase:
    """What one phase measured, all from outside the cluster processes."""

    name: str
    sessions: int
    wall_s: float = 0.0
    committed: int = 0
    failed: int = 0
    #: Seconds; one entry per call (or per transaction for ``txn``).
    latency: dict[str, list[float]] = field(
        default_factory=lambda: {"txn": [], "start": [], "get": [], "put": [], "commit": []}
    )
    #: Completion time of every commit, relative to the phase start.
    commit_at: list[float] = field(default_factory=list)
    cluster_cpu_s: dict[str, float] = field(default_factory=dict)
    client_cpu_s: float = 0.0
    #: Deltas of the router's ``info`` counters across the phase.
    wire: dict[str, float] = field(default_factory=dict)


class LoadGenerator:
    def __init__(self, workload: Workload, seed: int, cluster: Cluster) -> None:
        self.workload = workload
        self.seed = seed
        self.cluster = cluster
        self.sampler = workload.sampler()
        self.clients: list[AsyncRouterClient] = []
        self.logs: list[TransactionLog] = []
        #: txid -> commit token, for every commit the cluster acknowledged.
        self.acknowledged: dict[str, str] = {}
        #: (key, crc32 of a value put there) -> that value's tag, payload dropped.
        self.written: dict[tuple[str, int], TaggedValue] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.violations: list[str] = []

    # ------------------------------------------------------------------ #
    async def connect(self) -> None:
        for _ in range(N_CONNECTIONS):
            self.clients.append(await AsyncRouterClient.connect("127.0.0.1", self.cluster.port))
        await self.clients[0].wait_ready(len(self.cluster.procs) - 1)

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        self.clients = []

    def _rng(self, *parts: object) -> random.Random:
        return random.Random("/".join(str(p) for p in (self.seed, self.workload.name, *parts)))

    # ------------------------------------------------------------------ #
    # Values
    # ------------------------------------------------------------------ #
    def _value(self, rng: random.Random, version: TaggedValue, key: str, value_bytes: int) -> bytes:
        """A value of about ``value_bytes`` stored bytes, remembered by checksum.

        ``version`` is the writing transaction's tag without a payload; the
        logs keep that, not megabytes of payload.
        """
        overhead = _ENVELOPE_BYTES + sum(len(k) + 4 for k in version.cowritten)
        payload_len = max(8, (value_bytes - overhead) * 3 // 4)
        payload = (rng.randbytes(8) * (payload_len // 8 + 1))[:payload_len]
        value = dataclasses.replace(version, payload=payload).to_bytes()
        self.written[(key, zlib.crc32(value))] = version
        return value

    def _observe(self, key: str, raw: bytes | None) -> TaggedValue | None:
        """Match one value read to the write that produced it, byte for byte.

        Every key is preloaded and every value written is remembered, so a
        read that is NULL, or whose bytes match no write of that key, is a
        wrong answer.  Matching by checksum also spares the generator a JSON
        and base64 decode per value, which would be timed as its own work.
        """
        tag = self.written.get((key, zlib.crc32(raw))) if raw is not None else None
        if tag is None:
            self.violations.append(f"read of {key} returned bytes that no transaction wrote there")
        return tag

    # ------------------------------------------------------------------ #
    # One transaction
    # ------------------------------------------------------------------ #
    async def transaction(
        self, client: AsyncRouterClient, rng: random.Random, phase: Phase, started: float
    ) -> None:
        steps = self.workload.draw(rng, self.sampler)
        cowritten = frozenset(step[1] for step in steps if step[0] == "put")
        lat = phase.latency
        clock = time.perf_counter
        self.attempted += 1
        try:
            begun = clock()
            txid = await client.start_transaction()
            lat["start"].append(clock() - begun)
            log = TransactionLog(txn_uuid=txid)
            version = TaggedValue(payload=b"", timestamp=time.time(), uuid=txid, cowritten=cowritten)
            for op_index, step in enumerate(steps):
                if step[0] == "get":
                    before = clock()
                    values = await client.get_many(txid, list(step[1]))
                    lat["get"].append(clock() - before)
                    for key in step[1]:
                        log.record_read(key, self._observe(key, values[key]), op_index)
                else:
                    _, key, value_bytes = step
                    value = self._value(rng, version, key, value_bytes)
                    before = clock()
                    await client.put(txid, key, value)
                    lat["put"].append(clock() - before)
                    log.record_write(key, version.version, op_index)
            before = clock()
            token = await client.commit_transaction(txid)
            done = clock()
        except Exception as exc:  # a failed transaction is a counted outcome
            phase.failed += 1
            self.failures.append(f"{phase.name}: {type(exc).__name__}: {exc}")
            return
        lat["commit"].append(done - before)
        lat["txn"].append(done - begun)
        phase.commit_at.append(done - started)
        phase.committed += 1
        self.acknowledged[txid] = token
        self.logs.append(log)

    # ------------------------------------------------------------------ #
    # Phases
    # ------------------------------------------------------------------ #
    async def preload(self) -> None:
        """Write every key once, ``PRELOAD_BATCH`` keys per transaction."""
        workload = self.workload
        batches = [
            [workload.key(i) for i in range(lo, min(lo + PRELOAD_BATCH, workload.n_keys))]
            for lo in range(0, workload.n_keys, PRELOAD_BATCH)
        ]

        async def load(worker: int) -> None:
            client = self.clients[worker]
            rng = self._rng("preload", worker)
            for keys in batches[worker::N_CONNECTIONS]:
                self.attempted += 1
                txid = await client.start_transaction()
                version = TaggedValue(
                    payload=b"", timestamp=time.time(), uuid=txid, cowritten=frozenset(keys)
                )
                await client.put_many(
                    txid,
                    {
                        key: self._value(rng, version, key, workload.preload_value_bytes)
                        for key in keys
                    },
                )
                self.acknowledged[txid] = await client.commit_transaction(txid)

        await asyncio.gather(*(load(worker) for worker in range(N_CONNECTIONS)))

    async def run_phase(
        self,
        name: str,
        sessions: int,
        seconds: float | None = None,
        txns_per_session: int | None = None,
    ) -> Phase:
        """Closed loop: ``sessions`` tasks, for ``seconds`` or a fixed count."""
        phase = Phase(name=name, sessions=sessions)
        info_before = await self.clients[0].info()
        cpu_before = self.cluster.cpu_seconds()
        own_before = time.process_time()
        started = time.perf_counter()
        deadline = started + seconds if seconds is not None else None

        async def session(index: int) -> None:
            client = self.clients[index % N_CONNECTIONS]
            rng = self._rng(name, index)
            done = 0
            while True:
                if deadline is not None and time.perf_counter() >= deadline:
                    return
                if txns_per_session is not None and done >= txns_per_session:
                    return
                await self.transaction(client, rng, phase, started)
                done += 1

        await asyncio.gather(*(session(index) for index in range(sessions)))
        phase.wall_s = time.perf_counter() - started
        phase.client_cpu_s = time.process_time() - own_before
        cpu_after = self.cluster.cpu_seconds()
        phase.cluster_cpu_s = {name: cpu_after[name] - cpu_before[name] for name in cpu_after}
        phase.wire = _wire_delta(_wire_totals(info_before), _wire_totals(await self.clients[0].info()))
        self.cluster.check_alive()
        return phase

    # ------------------------------------------------------------------ #
    # The correctness gate
    # ------------------------------------------------------------------ #
    async def verify(self) -> dict:
        """Judge every answer of the run; ``correct`` is False on any violation."""
        violations = self.violations
        # A final read-back transaction: a seeded key sample must return
        # committed, tagged values.
        rng = self._rng("readback")
        sample = sorted(
            {self.workload.key(rng.randrange(self.workload.n_keys)) for _ in range(READBACK_KEYS)}
        )
        self.attempted += 1
        txid = await self.clients[0].start_transaction()
        values = await self.clients[0].get_many(txid, sample)
        readback = TransactionLog(txn_uuid=txid)
        for key in sample:
            tag = self._observe(key, values[key])
            readback.record_read(key, tag, 0)
            decoded = TaggedValue.try_from_bytes(values[key])
            if decoded is None or decoded.uuid not in self.acknowledged:
                violations.append(f"read-back of {key} is not a committed TaggedValue")
        self.acknowledged[txid] = await self.clients[0].commit_transaction(txid)
        self.logs.append(readback)

        checker = AnomalyChecker()
        for acked_txid, token in self.acknowledged.items():
            checker.register_commit_order(acked_txid, TransactionId.from_token(token))
        for log in self.logs:
            for read in log.reads:
                if read.observed is not None and read.observed.uuid not in self.acknowledged:
                    violations.append(f"{log.txn_uuid} read {read.key} from unacknowledged writer")
        checker.extend(self.logs)
        counts = checker.counts()
        if counts.ryw_anomalies or counts.fractured_read_anomalies:
            violations.append(
                f"anomalies: ryw={counts.ryw_anomalies} fractured={counts.fractured_read_anomalies}"
            )

        # committed == acknowledged, by the router's own count.
        info = await self.clients[0].info()
        router_committed = int(info.metrics.get("counters", {}).get("txns_committed", 0))
        if router_committed != len(self.acknowledged):
            violations.append(
                f"router committed {router_committed} txns, client saw {len(self.acknowledged)} acks"
            )
        if self.failures:
            violations.append(f"{len(self.failures)} transactions failed, e.g. {self.failures[0]}")
        return {
            "correct": not violations,
            "violations": violations[:20],
            "attempted": self.attempted,
            "failed": len(self.failures),
            "acknowledged": len(self.acknowledged),
            "router_committed": router_committed,
            "checked_transactions": counts.transactions,
            "ryw_anomalies": counts.ryw_anomalies,
            "fractured_read_anomalies": counts.fractured_read_anomalies,
            "readback_keys": len(sample),
        }


# --------------------------------------------------------------------- #
def _wire_totals(info) -> dict[str, float]:
    """The router's view of its node connections and its storage service."""
    totals = {"frames": 0, "frames_out": 0, "bytes": 0, "drains": 0}
    batched_ops = 0
    for stats in info.wire.values():
        totals["frames"] += stats["frames_in"] + stats["frames_out"]
        totals["frames_out"] += stats["frames_out"]
        totals["bytes"] += stats["bytes_in"] + stats["bytes_out"]
        totals["drains"] += stats["drains"]
        batched_ops += stats["batched_ops_in"]
    counters = info.metrics.get("counters", {})
    totals["storage_ops"] = counters.get("storage_ops", 0)
    # One frame per batch, plus one per op that travelled on its own.
    totals["storage_frames"] = counters.get("storage_batches", 0) + (
        totals["storage_ops"] - batched_ops
    )
    totals["fanout_records"] = counters.get("commit_records_published", 0)
    return totals


def _wire_delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    return {name: after[name] - before[name] for name in after}
