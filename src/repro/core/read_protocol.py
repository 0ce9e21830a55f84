"""Algorithm 1 — the atomic read protocol (incremental fast path).

Given a requested key ``k`` and the transaction's read set ``R`` (user key ->
id of the version already read), pick the version of ``k`` to return such that
``R ∪ {k_target}`` remains an Atomic Readset (paper Definition 1):

1. **Lower bound** (lines 3-5): if any version ``l_i`` already in ``R`` was
   cowritten with ``k``, we must return a version of ``k`` at least as new as
   ``i``.
2. **Compatibility scan** (lines 13-23): walking candidate versions of ``k``
   newest-first, reject any candidate ``k_t`` that was cowritten with a key
   ``l`` of which ``R`` holds an *older* version ``l_j`` (``j < t``) — reading
   ``k_t`` in that case would reveal that the earlier read of ``l`` was
   fractured.

If no candidate survives, the protocol returns ``None`` (the paper's NULL
read, Section 3.6) and the caller aborts or retries.

The protocol runs entirely against the node's local
:class:`~repro.core.metadata_cache.CommitSetCache`, so it performs no storage
IO; only fetching the chosen version's payload touches storage.

**Why this module is fast.**  The literal transcription of Algorithm 1 (kept
as :mod:`repro.core.read_protocol_reference`, the test oracle) recomputes the
lower bound by scanning the whole read set on *every* read — O(|R|) metadata
lookups per read, O(n²) per n-read transaction.  Here the same quantities are
maintained incrementally by :class:`TrackedReadSet`:

* ``lower_bounds`` — when a version enters the read set its cowritten set is
  folded in **once** (a max-fold per cowritten key), so the lower bound of
  any key is a single dict lookup.  Sound because read-set entries never
  leave ``R`` and cowritten sets of committed transactions are immutable.
* ``observed_min`` — per candidate already examined, the minimum read-set
  version among the candidate's cowritten keys, plus the read-log position
  it was computed at.  Re-validating a candidate folds only the reads that
  arrived since — the candidate's cowritten set is never re-walked.

``atomic_read`` additionally queries an immutable
:class:`~repro.core.metadata_cache.MetadataSnapshot` (grabbed with one plain
attribute read), so the no-contention read path acquires **zero locks**, and
candidate enumeration walks the snapshot's version tuple in place — skipped
candidates are never materialized.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.ids import TransactionId


@dataclass
class ReadDecision:
    """Outcome of one execution of Algorithm 1 (for observability and tests)."""

    key: str
    target: TransactionId | None
    lower_bound: TransactionId | None
    candidates_considered: int = 0
    candidates_rejected: int = 0
    #: Versions rejected because a cowritten key was already read at an older
    #: version — the staleness/abort trade-off discussed in Section 3.6.
    rejection_reasons: list[tuple[TransactionId, str]] = field(default_factory=list)

    @property
    def is_null(self) -> bool:
        return self.target is None


#: Read sets observing at most this many *distinct versions* answer digest
#: queries by direct scan; the digest (lower-bound fold + per-candidate
#: caching) only activates beyond it.  Short transactions — the
#: overwhelmingly common case — thus pay no folding cost at all, while long
#: transactions amortize it to O(1) per read.
SMALL_READ_SET_LIMIT = 8


class TrackedReadSet(MappingABC):
    """The atomic read set ``R`` with an incrementally maintained conflict digest.

    Behaves as a read-only ``Mapping[str, TransactionId]`` (so everything
    that consumed the old plain-dict read set keeps working) while exposing
    the two digest queries Algorithm 1 needs in O(1)/O(delta):
    :meth:`lower_bound` and :meth:`candidate_min`.

    The digest is **lazy**: while the read set holds at most
    ``SMALL_READ_SET_LIMIT`` entries, queries scan it directly — with at most
    a handful of entries (whose cowritten sets were captured at observe time,
    so no cache lookups are needed) that is cheaper than maintaining the
    folded state.  The first read that grows ``R`` past the limit folds the
    queued entries once and switches to eager maintenance.

    The digest relies on two protocol invariants: a key's entry never changes
    once recorded (Corollary 1.1, repeatable reads), and the commit record of
    every version in ``R`` stays cached while the transaction runs (the local
    GC's reader protection, Section 5.1) so cowritten sets folded at observe
    time never differ from what a rescan would see.
    """

    __slots__ = ("_versions", "_lower_bounds", "_folded", "_log", "_cand_pos", "_cand_min", "_pending")

    def __init__(self) -> None:
        self._versions: dict[str, TransactionId] = {}
        #: key -> newest read version whose cowritten set contains the key.
        self._lower_bounds: dict[str, TransactionId] = {}
        #: Versions whose cowritten sets were already captured.
        self._folded: set[TransactionId] = set()
        #: Append-only log of (key, version) entries, for candidate deltas.
        self._log: list[tuple[str, TransactionId]] = []
        #: candidate -> log position its observed_min was folded up to.
        self._cand_pos: dict[TransactionId, int] = {}
        #: candidate -> (min observed version among its cowritten keys, key).
        self._cand_min: dict[TransactionId, tuple[TransactionId, str] | None] = {}
        #: Small-mode fold queue of (version, cowritten); ``None`` once the
        #: digest switched to eager maintenance.
        self._pending: list[tuple[TransactionId, frozenset[str]]] | None = []

    # ------------------------------------------------------------------ #
    # Mapping protocol
    # ------------------------------------------------------------------ #
    def __getitem__(self, key: str) -> TransactionId:
        return self._versions[key]

    def get(self, key: str, default=None):
        return self._versions.get(key, default)

    def __iter__(self) -> Iterator[str]:
        return iter(self._versions)

    def __len__(self) -> int:
        return len(self._versions)

    def __contains__(self, key: object) -> bool:
        return key in self._versions

    # ------------------------------------------------------------------ #
    # Digest maintenance
    # ------------------------------------------------------------------ #
    def observe(self, key: str, version: TransactionId, cowritten: Iterable[str] = ()) -> None:
        """Record that ``key`` was read at ``version`` (cowritten with ``cowritten``).

        Folding is O(|cowritten|) and happens once per distinct version; all
        later digest queries touching this entry are O(1) (or an O(|R|) scan
        while the read set is still small, see ``SMALL_READ_SET_LIMIT``).
        """
        existing = self._versions.get(key)
        if existing is not None:
            if existing != version:
                raise ValueError(
                    f"read set already holds {key!r} at {existing}; "
                    f"re-recording it at {version} would fracture the digest"
                )
            return
        self._versions[key] = version
        self._log.append((key, version))
        if version not in self._folded:
            self._folded.add(version)
            if not isinstance(cowritten, (set, frozenset)):
                cowritten = frozenset(cowritten)
            pending = self._pending
            if pending is not None:
                pending.append((version, cowritten))
                # Small-mode scan cost is governed by the number of distinct
                # versions (one queued entry each), not the number of keys.
                if len(pending) > SMALL_READ_SET_LIMIT:
                    self._activate_digest()
            else:
                self._fold(version, cowritten)

    def _fold(self, version: TransactionId, cowritten: frozenset[str]) -> None:
        lower_bounds = self._lower_bounds
        for cowritten_key in cowritten:
            current = lower_bounds.get(cowritten_key)
            if current is None or current < version:
                lower_bounds[cowritten_key] = version

    def _activate_digest(self) -> None:
        """Fold the queued small-mode entries and switch to eager maintenance."""
        for version, cowritten in self._pending:
            self._fold(version, cowritten)
        self._pending = None

    def overlay(self) -> "ReadSetOverlay":
        """A batch-local tentative layer over this read set (see :class:`ReadSetOverlay`)."""
        return ReadSetOverlay(self)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, TransactionId], cache) -> "TrackedReadSet":
        """Build a digest for a plain-dict read set (compatibility path)."""
        tracked = cls()
        for key, version in mapping.items():
            tracked.observe(key, version, cache.cowritten(version))
        return tracked

    # ------------------------------------------------------------------ #
    # Digest queries
    # ------------------------------------------------------------------ #
    def lower_bound(self, key: str) -> TransactionId | None:
        """Lines 3-5 of Algorithm 1 as one dict lookup (or a tiny scan)."""
        pending = self._pending
        if pending is None:
            return self._lower_bounds.get(key)
        best: TransactionId | None = None
        for version, cowritten in pending:
            if key in cowritten and (best is None or best < version):
                best = version
        return best

    def _scan_min(self, cowritten: frozenset[str]) -> tuple[TransactionId, str] | None:
        """Direct min-scan over the smaller of ``cowritten`` and the read set."""
        best: tuple[TransactionId, str] | None = None
        versions = self._versions
        if len(cowritten) <= len(versions):
            for key in cowritten:
                version = versions.get(key)
                if version is not None and (best is None or version < best[0]):
                    best = (version, key)
        else:
            for key, version in versions.items():
                if key in cowritten and (best is None or version < best[0]):
                    best = (version, key)
        return best

    def candidate_min(
        self, candidate: TransactionId, cowritten: frozenset[str]
    ) -> tuple[TransactionId, str] | None:
        """Minimum read-set version among ``candidate``'s cowritten keys.

        Returns ``(version, key)`` or ``None`` when no cowritten key has been
        read.  While the read set is small this is a direct scan; once the
        digest is active, the first call for a candidate scans the smaller of
        its cowritten set and the read set, and subsequent calls fold only
        the reads logged since (the cowritten set is not re-walked).
        """
        if self._pending is not None:
            return self._scan_min(cowritten)
        log = self._log
        position = self._cand_pos.get(candidate)
        if position is None:
            best = self._scan_min(cowritten)
        else:
            best = self._cand_min[candidate]
            for index in range(position, len(log)):
                key, version = log[index]
                if key in cowritten and (best is None or version < best[0]):
                    best = (version, key)
        self._cand_pos[candidate] = len(log)
        self._cand_min[candidate] = best
        return best


class ReadSetOverlay(MappingABC):
    """A batch-local layer over a :class:`TrackedReadSet`.

    ``get_many`` decides a whole batch of reads against the read set *as it
    grows within the batch*, but only reads whose payload fetch succeeds are
    committed to the transaction's read set afterwards.  The overlay gives
    the decision loop that tentative view without copying the base: batch
    decisions are observed locally, base state is only read (its per-candidate
    digest cache is still warmed through it, so the work persists across
    batches), and the overlay is simply dropped when the batch completes.
    """

    __slots__ = ("_base", "_local")

    def __init__(self, base: TrackedReadSet) -> None:
        self._base = base
        self._local = TrackedReadSet()

    # ------------------------------------------------------------------ #
    # Mapping protocol
    # ------------------------------------------------------------------ #
    def __getitem__(self, key: str) -> TransactionId:
        version = self._local.get(key)
        if version is None:
            return self._base[key]
        return version

    def get(self, key: str, default=None):
        version = self._local.get(key)
        if version is None:
            version = self._base.get(key, default)
        return version

    def __iter__(self) -> Iterator[str]:
        yield from self._base
        for key in self._local:
            if key not in self._base:
                yield key

    def __len__(self) -> int:
        extra = sum(1 for key in self._local if key not in self._base)
        return len(self._base) + extra

    def __contains__(self, key: object) -> bool:
        return key in self._local or key in self._base

    # ------------------------------------------------------------------ #
    # Digest protocol (combines base and batch-local layers)
    # ------------------------------------------------------------------ #
    def observe(self, key: str, version: TransactionId, cowritten: Iterable[str] = ()) -> None:
        existing = self._base.get(key)
        if existing is not None:
            if existing != version:
                raise ValueError(
                    f"read set already holds {key!r} at {existing}; "
                    f"re-recording it at {version} would fracture the digest"
                )
            return
        self._local.observe(key, version, cowritten)

    def lower_bound(self, key: str) -> TransactionId | None:
        base = self._base.lower_bound(key)
        local = self._local.lower_bound(key)
        if base is None:
            return local
        if local is None or local < base:
            return base
        return local

    def candidate_min(
        self, candidate: TransactionId, cowritten: frozenset[str]
    ) -> tuple[TransactionId, str] | None:
        base = self._base.candidate_min(candidate, cowritten)
        if base is not None and base[0] < candidate:
            # The base layer alone already rejects this candidate; the local
            # layer cannot un-reject it (entries only add constraints).
            return base
        local = self._local.candidate_min(candidate, cowritten)
        if base is None:
            return local
        if local is None or base[0] < local[0]:
            return base
        return local


def _as_digest(read_set: Mapping[str, TransactionId], cache) -> "TrackedReadSet | ReadSetOverlay":
    if isinstance(read_set, (TrackedReadSet, ReadSetOverlay)):
        return read_set
    return TrackedReadSet.from_mapping(read_set, cache)


def compute_lower_bound(
    key: str,
    read_set: Mapping[str, TransactionId],
    cache,
) -> TransactionId | None:
    """Lines 3-5 of Algorithm 1: the oldest version of ``key`` we may return.

    Digest-carrying read sets answer in O(1); plain mappings are wrapped per
    call.
    """
    return _as_digest(read_set, cache).lower_bound(key)


def candidate_is_valid(
    candidate: TransactionId,
    read_set: Mapping[str, TransactionId],
    cache,
) -> tuple[bool, str | None]:
    """Lines 14-18 of Algorithm 1: check one candidate version against ``R``.

    A candidate ``k_t`` is invalid if some key ``l`` in its cowritten set was
    already read at an older version ``l_j`` (``j < t``): returning ``k_t``
    would make the earlier read of ``l`` fractured.
    """
    cowritten = cache.cowritten(candidate)
    observed = _as_digest(read_set, cache).candidate_min(candidate, cowritten)
    if observed is not None and observed[0] < candidate:
        return False, observed[1]
    return True, None


def atomic_read(
    key: str,
    read_set: Mapping[str, TransactionId],
    cache,
) -> ReadDecision:
    """Run Algorithm 1 and return the chosen version of ``key`` (or NULL).

    Parameters
    ----------
    key:
        The user key being read.
    read_set:
        The transaction's atomic read set ``R`` so far — ideally a
        :class:`TrackedReadSet`/:class:`ReadSetOverlay` (amortized O(1) per
        read); plain mappings are wrapped per call (compatibility path).
    cache:
        The node's committed-transaction metadata cache or a
        :class:`~repro.core.metadata_cache.MetadataSnapshot` of it.  The
        decision runs entirely against one immutable snapshot, so it is
        consistent and lock-free even under concurrent commits and GC.
    """
    snap = cache.snapshot()
    digest = _as_digest(read_set, snap)
    lower = digest.lower_bound(key)

    versions = snap.version_index.versions(key)
    if not versions:
        # No committed version of the key is known: NULL read (lines 8-9).
        return ReadDecision(key=key, target=None, lower_bound=lower)

    decision = ReadDecision(key=key, target=None, lower_bound=lower)
    stop = 0 if lower is None else bisect_left(versions, lower)
    for index in range(len(versions) - 1, stop - 1, -1):
        candidate = versions[index]
        decision.candidates_considered += 1
        observed = digest.candidate_min(candidate, snap.cowritten(candidate))
        if observed is None or not observed[0] < candidate:
            decision.target = candidate
            break
        decision.candidates_rejected += 1
        decision.rejection_reasons.append((candidate, observed[1]))
    return decision


def is_atomic_readset(
    read_set: Mapping[str, TransactionId],
    cache,
) -> bool:
    """Check Definition 1 directly (used by tests and the consistency checker).

    ``read_set`` is an Atomic Readset iff for every version ``k_i`` in it and
    every key ``l`` cowritten with ``k_i``, if ``R`` contains a version of
    ``l`` then that version is at least as new as ``i``.
    """
    for version in read_set.values():
        for cowritten_key in cache.cowritten(version):
            observed = read_set.get(cowritten_key)
            if observed is not None and observed < version:
                return False
    return True
