"""Generation-keyed query-result cache (the serving subsystem's O(1) path).

Heavy traffic repeats itself: the same query graphs arrive again and again
at the same thresholds.  No amount of filter pruning makes a repeated query
cheaper than *not running it*, so the serving layer memoizes whole
:class:`~repro.search.results.SearchResult` objects in a bounded LRU cache.

Correctness rests entirely on the cache key::

    (query content signature, sigma, engine fingerprint, index generation)

* the **query signature** (:func:`repro.perf.graph_signature`) covers every
  vertex/edge label and weight, so only byte-identical queries share an
  entry;
* **sigma** is part of the answer's definition;
* the **engine fingerprint** (:func:`engine_fingerprint`) covers the
  strategy, its parameters, the verifier, and the verify flag — anything
  that could change which result a fresh search computes;
* the **index generation** is bumped by every mutation
  (:attr:`repro.index.FragmentIndex.generation`), so entries cached before
  an ``add_graphs`` / ``remove_graphs`` can never match afterwards: a hit
  is always byte-identical to a fresh search against the current database.

Hits return a *deep copy* flagged ``from_cache=True`` — callers may mutate
their result freely without corrupting later hits.  ``maxsize=0`` stores
nothing, so every lookup misses.
"""

from __future__ import annotations

import copy
import json
from typing import Any, Dict, Optional, Tuple

from ..perf import MemoCache, PerfCounters, graph_signature
from ..search.results import SearchResult

__all__ = ["QueryResultCache", "engine_fingerprint"]


def engine_fingerprint(config: Any) -> str:
    """Stable fingerprint of every config choice that shapes a result.

    Two engines with equal fingerprints (over the same index state) answer
    every query identically, so their cache entries are interchangeable;
    anything that could change answers, candidates, or the report —
    strategy, strategy parameters, verifier, the verify flag, and the
    measure — is folded in.  Executor and worker knobs are deliberately
    excluded: they change *where* work runs, never what it returns.
    """
    return json.dumps(
        {
            "strategy": config.strategy,
            "strategy_params": config.strategy_params,
            "verify": config.verify,
            "verifier": config.verifier,
            "measure": config.measure,
        },
        sort_keys=True,
        default=repr,
    )


class QueryResultCache:
    """Bounded LRU cache of whole search results, keyed by index generation.

    Parameters
    ----------
    maxsize:
        Maximum number of cached results (LRU eviction beyond it).
    counters:
        Optional :class:`~repro.perf.PerfCounters` sink; hits and misses
        are recorded as ``query_results.cache_hits`` /
        ``query_results.cache_misses`` so ``Engine.profile()`` and the
        serving stats expose the hit rate.
    """

    def __init__(
        self, maxsize: int = 1024, counters: Optional[PerfCounters] = None
    ):
        self._cache = MemoCache(
            "query_results", maxsize=int(maxsize), counters=counters
        )

    @staticmethod
    def key(
        query: Any, sigma: float, fingerprint: str, generation: int
    ) -> Tuple[Any, float, str, int]:
        """Build the cache key for one query under one engine state."""
        return (graph_signature(query), float(sigma), fingerprint, generation)

    def get(self, key: Tuple[Any, float, str, int]) -> Optional[SearchResult]:
        """Return a cached result (an independent copy) or ``None``."""
        value = self._cache.get(key)
        if value is MemoCache.MISS:
            return None
        result = copy.deepcopy(value)
        result.from_cache = True
        return result

    def put(self, key: Tuple[Any, float, str, int], result: SearchResult) -> None:
        """Cache one computed result (stored as an independent copy)."""
        if result.from_cache:
            # Never re-store a hit: the original entry is already cached,
            # and re-storing would reset its LRU age from a copy.
            return
        self._cache.put(key, copy.deepcopy(result))

    def clear(self) -> None:
        """Drop every entry (accounting is kept).

        Generation-keying already guarantees stale entries can never hit;
        clearing on mutation additionally releases their memory instead of
        waiting for LRU eviction.
        """
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def hits(self) -> int:
        """Number of cache hits since construction."""
        return self._cache.hits

    @property
    def misses(self) -> int:
        """Number of cache misses since construction."""
        return self._cache.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (``0.0`` before any)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> Dict[str, Any]:
        """JSON-friendly accounting (name, size, hits, misses, hit_rate,
        evictions)."""
        stats = self._cache.stats()
        stats["hit_rate"] = round(self.hit_rate, 6)
        return stats

    def __repr__(self) -> str:
        return (
            f"<QueryResultCache size={len(self)} hits={self.hits} "
            f"misses={self.misses}>"
        )
