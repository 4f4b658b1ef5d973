"""Bounded LRU answer cache for the data-less serving path.

Repeated analytics queries are common — dashboards refresh the same
panels, many analysts probe the same hot subspace — and a predicted
answer is a pure function of the predictor's frozen state.  The cache
exploits that: it remembers *predicted-mode* answers keyed by the
query's canonical extent and hands them back without re-running the
model, as long as the predictor state that produced them is untouched.

Correctness contract (what keeps cached answers byte-identical to a
fresh prediction):

* Entries are stored only for queries served in ``predicted`` mode.
* Every learning step on a signature (``observe`` during fallback,
  drift resets, model-family swaps) invalidates that signature's whole
  extent index — any observation can move centroids, refit models, or
  shift error estimates.
* ``notify_data_update`` evicts exactly the entries whose quantum was
  invalidated, mirroring what :class:`~repro.core.maintenance.DataUpdateMonitor`
  does to the models themselves.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set

from repro.common.validation import require
from repro.core.predictor import Prediction
from repro.queries.query import AnalyticsQuery, ExtentKey

CacheKey = ExtentKey


@dataclass
class CachedAnswer:
    """One remembered predicted answer and its provenance.

    ``version`` is the producing quantum's
    :meth:`~repro.core.predictor.DatalessPredictor.version_of` at store
    time; a serve-time mismatch proves the quantum mutated after this
    entry was cached without the invalidation discipline evicting it.
    """

    answer: object
    prediction: Prediction
    quantum_id: int
    version: int = 0


def cache_key(query: AnalyticsQuery) -> CacheKey:
    """Canonical key: signature + selection shape + exact extent bytes.

    Read off the query, which builds it once
    (:meth:`AnalyticsQuery.extent_key`) however many of ``lookup``,
    ``store`` and ``reject_stale`` one request goes through.
    """
    return query.extent_key()


class AnswerCache:
    """LRU map from canonical query extents to predicted answers.

    Secondary indexes by signature and by (signature, quantum) make both
    invalidation paths O(affected entries) instead of O(capacity).
    """

    def __init__(self, capacity: int = 2048) -> None:
        require(capacity >= 1, "capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[CacheKey, CachedAnswer]" = OrderedDict()
        self._by_signature: Dict[str, Set[CacheKey]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        # Version-mismatched hits caught at serve time.  The invalidation
        # discipline (learning steps + per-epoch data-update evictions) is
        # supposed to make this impossible, so the counter's invariant is
        # "stays 0" — a nonzero value means a stale answer *would have*
        # been served and a cache-maintenance path has a hole.
        self.stale_rejected = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def lookup(self, query: AnalyticsQuery) -> Optional[CachedAnswer]:
        """Return the cached answer for an identical query, if still valid."""
        key = cache_key(query)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def peek(self, query: AnalyticsQuery) -> Optional[CachedAnswer]:
        """Non-mutating :meth:`lookup`: no counters, no LRU promotion.

        Plan-only inspection (``EXPLAIN``) uses this so asking "would
        this hit?" never perturbs the hit/miss statistics or the
        eviction order a later real lookup would see.
        """
        return self._entries.get(cache_key(query))

    def reject_stale(self, query: AnalyticsQuery, entry: CachedAnswer) -> None:
        """Drop one version-mismatched entry a lookup just surfaced.

        Called by the agent when :class:`CachedAnswer.version` no longer
        matches the producing quantum's live version: the entry is
        removed (so the query falls through to a fresh prediction) and
        the miss counted in ``stale_rejected`` — the counter tests pin
        at zero.
        """
        key = cache_key(query)
        if self._entries.get(key) is entry:
            del self._entries[key]
            self._unindex(key)
        self.stale_rejected += 1
        # The lookup already counted a hit; correct it to a miss so the
        # hit rate reflects what was actually served from cache.
        self.hits -= 1
        self.misses += 1

    def store(
        self,
        query: AnalyticsQuery,
        prediction: Prediction,
        answer,
        version: int = 0,
    ) -> None:
        """Remember a predicted-mode answer under the query's extent."""
        key = cache_key(query)
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = CachedAnswer(
            answer=answer,
            prediction=prediction,
            quantum_id=prediction.quantum_id,
            version=version,
        )
        self._by_signature.setdefault(key[0], set()).add(key)
        while len(self._entries) > self.capacity:
            old_key, _ = self._entries.popitem(last=False)
            self._unindex(old_key)
            self.evictions += 1

    def invalidate_signature(self, signature: str) -> int:
        """Drop every entry for one (table, aggregate) signature."""
        keys = self._by_signature.pop(signature, None)
        if not keys:
            return 0
        for key in keys:
            self._entries.pop(key, None)
        self.invalidations += len(keys)
        return len(keys)

    def evict_quanta(self, signature: str, quantum_ids: Iterable[int]) -> int:
        """Drop exactly the signature's entries served by the given quanta."""
        wanted = set(quantum_ids)
        if not wanted:
            return 0
        keys = self._by_signature.get(signature)
        if not keys:
            return 0
        stale = [k for k in keys if self._entries[k].quantum_id in wanted]
        for key in stale:
            del self._entries[key]
            keys.discard(key)
        if not keys:
            del self._by_signature[signature]
        self.invalidations += len(stale)
        return len(stale)

    def clear(self) -> None:
        self._entries.clear()
        self._by_signature.clear()

    def stats(self) -> Dict[str, float]:
        return {
            "answer_cache_size": float(len(self._entries)),
            "answer_cache_hits": float(self.hits),
            "answer_cache_misses": float(self.misses),
            "answer_cache_hit_rate": self.hit_rate,
            "answer_cache_evictions": float(self.evictions),
            "answer_cache_invalidations": float(self.invalidations),
            "answer_cache_stale_rejected": float(self.stale_rejected),
        }

    def _unindex(self, key: CacheKey) -> None:
        keys = self._by_signature.get(key[0])
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_signature[key[0]]
