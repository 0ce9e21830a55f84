"""The four workloads: what one transaction does, and over which keys.

Why each exists is written once, in ``BENCHMARK.json`` and the README.

A transaction is drawn as a list of steps before it is sent, from a
``random.Random`` that belongs to one session — so the op stream of a
session depends on ``--seed`` only, never on which reply came back first.
Sizes are the size of the *stored value* (a ``TaggedValue`` envelope around
a payload), because that is what the node's 64 MB data cache counts.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass

#: Keys written per preload transaction.
PRELOAD_BATCH = 64

#: A step is ("get", keys) or ("put", key, value_bytes).
Step = tuple


@dataclass(frozen=True)
class Workload:
    name: str
    n_keys: int
    #: Stored size of every preloaded value.
    preload_value_bytes: int
    #: Zipf exponent of the key popularity; 0 is uniform.
    zipf_theta: float
    #: ("get", n_keys) / ("put", value_bytes) in transaction order.
    shape: tuple[tuple[str, int], ...]

    def key(self, index: int) -> str:
        return f"k{index:05d}"

    def sampler(self) -> "KeySampler":
        return KeySampler(self.n_keys, self.zipf_theta)

    def draw(self, rng: random.Random, sampler: "KeySampler") -> list[Step]:
        """One transaction: every key distinct, as in the paper's §6.1.2."""
        n_distinct = sum(n if op == "get" else 1 for op, n in self.shape)
        indices = iter(sampler.distinct(rng, n_distinct))
        steps: list[Step] = []
        for op, n in self.shape:
            if op == "get":
                steps.append(("get", tuple(self.key(next(indices)) for _ in range(n))))
            else:
                steps.append(("put", self.key(next(indices)), n))
        return steps


class KeySampler:
    """Seeded Zipf (or uniform) draws of distinct key indices."""

    def __init__(self, n_keys: int, theta: float) -> None:
        self.n_keys = n_keys
        self._cumulative = (
            list(itertools.accumulate(1.0 / (rank**theta) for rank in range(1, n_keys + 1)))
            if theta > 0
            else None
        )

    def one(self, rng: random.Random) -> int:
        if self._cumulative is None:
            return rng.randrange(self.n_keys)
        return bisect.bisect_left(self._cumulative, rng.random() * self._cumulative[-1])

    def distinct(self, rng: random.Random, count: int) -> list[int]:
        chosen: list[int] = []
        while len(chosen) < count:
            index = self.one(rng)
            if index not in chosen:
                chosen.append(index)
        return chosen


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper-mix",
            n_keys=1000,
            preload_value_bytes=4096,
            zipf_theta=1.0,
            shape=(("get", 2), ("put", 4096), ("get", 2), ("put", 4096)),
        ),
        Workload(
            name="read-chain",
            n_keys=64,
            preload_value_bytes=256,
            zipf_theta=1.0,
            shape=(*[("get", 1)] * 12, ("put", 256)),
        ),
        Workload(
            name="read-scan",
            n_keys=16384,
            preload_value_bytes=8192,
            zipf_theta=0.0,
            shape=(("get", 8),),
        ),
        Workload(
            name="write-bulk",
            n_keys=16384,
            preload_value_bytes=8192,
            zipf_theta=0.0,
            shape=(("get", 1), *[("put", 8192)] * 4),
        ),
    )
}
