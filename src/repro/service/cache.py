"""Finalized-result cache with sub-aggregate refresh upgrades.

Entries hold the *finalized* relation (served verbatim on a hit — a hit
is bit-identical to the evaluation that produced it, trivially) plus,
when the query is refreshable, the standing
:class:`~repro.distributed.incremental.IncrementalView` whose
sub-aggregate state lets an append-only data change *upgrade* the entry
in place instead of invalidating it (Theorem 1 mergeability is what
makes this exact, not approximate).

The cache itself is a small LRU keyed by full
:class:`~repro.service.signature.PlanSignature`; a secondary index on
the data-independent ``plan_key`` finds upgrade candidates when the
exact lookup misses. All map operations take one lock; the (expensive)
refresh work happens outside it under a per-entry lock, so two queries
upgrading *different* entries proceed in parallel while two racing for
the *same* entry serialize — the loser re-checks and finds a plain hit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

from repro.errors import ServiceError
from repro.service.signature import PlanSignature


class CacheEntry:
    """One cached result and the state needed to keep it fresh."""

    __slots__ = ("signature", "relation", "stats", "view", "expression", "hits", "lock")

    def __init__(self, signature: PlanSignature, relation, stats, view, expression):
        self.signature = signature
        self.relation = relation
        self.stats = stats
        #: IncrementalView retaining sub-aggregate state, or None when the
        #: query is not refreshable (chain / holistic / unsupported base).
        self.view = view
        self.expression = expression
        self.hits = 0
        self.lock = threading.Lock()

    @property
    def refreshable(self) -> bool:
        return self.view is not None

    def upgrade(self, signature: PlanSignature, relation) -> None:
        """Move the entry forward to a new data version (caller holds lock)."""
        self.signature = signature
        self.relation = relation


class ResultCache:
    """LRU of finalized results keyed by canonical plan signature."""

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ServiceError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()  # signature -> CacheEntry
        self._by_plan: dict = {}  # plan_key -> signature (latest entry)

    def get(self, signature: PlanSignature) -> Optional[CacheEntry]:
        """Exact hit (and LRU touch), or None."""
        with self._lock:
            entry = self._entries.get(signature)
            if entry is None:
                return None
            self._entries.move_to_end(signature)
            entry.hits += 1
            return entry

    def upgrade_candidate(self, current: PlanSignature) -> Optional[CacheEntry]:
        """The plan's cached entry at an *older* data version, if any.

        Returns the entry whose signature shares ``current.plan_key``;
        the caller decides whether the version gaps are refreshable. Not an
        LRU touch — only a successful hit or upgrade promotes the entry.
        """
        with self._lock:
            signature = self._by_plan.get(current.plan_key)
            if signature is None:
                return None
            return self._entries.get(signature)

    def put(self, entry: CacheEntry) -> None:
        with self._lock:
            stale = self._by_plan.get(entry.signature.plan_key)
            if stale is not None and stale != entry.signature:
                # One entry per plan: the older data version can never be
                # served again (appends are monotonic), drop it.
                self._entries.pop(stale, None)
            self._entries[entry.signature] = entry
            self._entries.move_to_end(entry.signature)
            self._by_plan[entry.signature.plan_key] = entry.signature
            while len(self._entries) > self.capacity:
                evicted_sig, evicted = self._entries.popitem(last=False)
                if self._by_plan.get(evicted_sig.plan_key) == evicted_sig:
                    del self._by_plan[evicted_sig.plan_key]

    def reindex(self, old: PlanSignature, entry: CacheEntry) -> None:
        """Re-key an entry after an in-place :meth:`CacheEntry.upgrade`."""
        with self._lock:
            if self._entries.get(old) is entry:
                del self._entries[old]
            self._entries[entry.signature] = entry
            self._entries.move_to_end(entry.signature)
            self._by_plan[entry.signature.plan_key] = entry.signature

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._by_plan.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
