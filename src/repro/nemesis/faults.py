"""Storage-level fault injectors.

:class:`TornWriteStorage` wraps any engine and, when armed, tears the next
multi-key data write in one of two ways:

``abort``
    Write a strict prefix of the data items, then raise
    :class:`TornWriteError`.  This is the failure §3.3 of the paper is
    engineered around: the commit record is written *last*, so a crash that
    loses the tail of the data writes leaves only invisible garbage —
    readers can never observe the partial transaction.

``silent``
    Drop the tail of the data items but report success, so the node goes on
    to write the commit record.  This violates the §3.3 ordering contract
    (a commit record lands whose data never did) and is the *mutant* the
    nemesis suite must catch: readers see ``None`` for a key the commit set
    says is written, which the cycle checker's NULL-read rule flags as a
    fractured read.

Only ``aft.data``-prefixed keys are torn; commit records and unrelated
metadata pass through untouched.  Arming is one-shot: the injector disarms
after the first tear so a schedule controls exactly how many torn writes
occur.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import AftError
from repro.ids import DATA_PREFIX
from repro.storage.base import StorageEngine


class TornWriteError(AftError):
    """The injected storage failure that tears a multi-key write."""


class TornWriteStorage(StorageEngine):
    """Delegate to ``inner``, tearing the next armed multi-key data write."""

    name = "torn-write"

    def __init__(self, inner: StorageEngine, mode: str = "abort") -> None:
        super().__init__()
        self.inner = inner
        self.mode = mode
        self.torn_writes = 0
        self._armed = False
        self._singles_seen = 0
        self.supports_batch_writes = inner.supports_batch_writes
        self.max_batch_size = inner.max_batch_size
        self.supports_batch_reads = inner.supports_batch_reads
        self.max_batch_get_size = inner.max_batch_get_size

    # ------------------------------------------------------------------ #
    # Arming
    # ------------------------------------------------------------------ #
    def arm(self, mode: str | None = None) -> None:
        """Arm the injector for the next multi-key data write (one-shot)."""
        if mode is not None:
            self.mode = mode
        if self.mode not in ("abort", "silent"):
            raise ValueError(f"unknown torn-write mode {self.mode!r}")
        self._armed = True
        self._singles_seen = 0

    def disarm(self) -> None:
        self._armed = False
        self._singles_seen = 0

    @property
    def armed(self) -> bool:
        return self._armed

    def _fire(self) -> None:
        self._armed = False
        self._singles_seen = 0
        self.torn_writes += 1

    # ------------------------------------------------------------------ #
    # Write path (where tearing happens)
    # ------------------------------------------------------------------ #
    async def put_async(self, key: str, value: bytes) -> None:
        if self._armed and key.startswith(DATA_PREFIX):
            # Single-put path (engines without batch writes): let the first
            # data write of the doomed transaction land, tear the second.
            self._singles_seen += 1
            if self._singles_seen >= 2:
                mode = self.mode
                self._fire()
                if mode == "abort":
                    raise TornWriteError(f"torn write: lost {key!r}")
                return  # silent: drop the write, report success
        await self.inner.put_async(key, value)

    async def multi_put_async(self, items: Mapping[str, bytes]) -> None:
        if self._armed:
            data_keys = [k for k in items if k.startswith(DATA_PREFIX)]
            if len(data_keys) >= 2:
                victim = data_keys[-1]
                mode = self.mode
                self._fire()
                await self.inner.multi_put_async({k: v for k, v in items.items() if k != victim})
                if mode == "abort":
                    raise TornWriteError(f"torn write: lost {victim!r}")
                return
        await self.inner.multi_put_async(items)

    # ------------------------------------------------------------------ #
    # Pass-through
    # ------------------------------------------------------------------ #
    async def get_async(self, key: str) -> bytes | None:
        return await self.inner.get_async(key)

    async def multi_get_async(self, keys: Iterable[str]) -> dict[str, bytes | None]:
        return await self.inner.multi_get_async(keys)

    async def delete_async(self, key: str) -> None:
        await self.inner.delete_async(key)

    async def multi_delete_async(self, keys: Iterable[str]) -> None:
        await self.inner.multi_delete_async(keys)

    async def list_keys_async(self, prefix: str = "") -> list[str]:
        return await self.inner.list_keys_async(prefix)
