"""Candidate verification subsystem: pluggable, bounded, memoized, parallel.

Verification — computing the true minimum superimposed distance of every
candidate that survived filtering — dominates query time at low selectivity
(see ``verify.seconds`` in :meth:`repro.engine.Engine.profile`).  This
module turns the former inline loop of
:meth:`repro.search.strategy.SearchStrategy.verify` into a subsystem of
pluggable :class:`Verifier` components, registered by name exactly like the
search strategies in :mod:`repro.search.registry`:

:class:`BoundedVerifier` (``"bounded"``, the default)
    Exploits the per-candidate lower bounds that the PIS filtering phase
    already computes (:attr:`repro.search.pis.FilterOutcome.lower_bounds`):

    * **ordering** — candidates are verified in ascending lower-bound order,
      so the most promising candidates (and the cheapest branch-and-bound
      runs) are decided first;
    * **short-circuit** — a candidate whose lower bound already exceeds
      ``sigma`` is rejected without calling ``best_superposition`` at all
      (its true distance can only be larger).  A safety net rather than a
      pipeline speedup: PIS filtering already drops such candidates, so
      this fires only for direct :meth:`Verifier.verify` calls or
      strategies that do not pre-prune on the bound;
    * **early exit** — the lower bound is threaded into the
      branch-and-bound search as ``known_lower_bound``: a complete
      superposition that meets the bound is provably minimal, so the search
      stops without exploring the rest of the tree;
    * **memoization** — exact distances are cached per
      ``(measure, query content, graph id, graph revision)`` in a bounded
      :class:`~repro.perf.MemoCache` shared through the fragment index, so
      repeated queries (batches, benchmark rounds, sigma sweeps) stop
      recomputing.  The *revision* component is the database's per-slot
      rebinding counter (:meth:`repro.core.GraphDatabase.revision`): when a
      graph id is removed and later reused for a different graph, its
      revision changes and the old entry can never be served again;
    * **parallelism** — ``workers=N`` fans candidate verification out over a
      :mod:`repro.exec` executor, with results merged back in deterministic
      candidate order.  The pool kind is the ``executor`` constructor
      parameter: ``"thread"`` (the default) shares the caller's caches but
      is GIL-bound for pure-Python distance computation, while
      ``"process"`` ships candidate chunks to worker processes — the parent
      resolves memo-cache hits first, only cache misses travel, and the
      computed distances are cached on return — giving true parallel
      verification at the cost of pickling the query and the candidate
      graphs.  ``"serial"`` disables the pool regardless of ``workers``.

Answers come back in the original candidate order, so every
configuration — serial or parallel, cached or cold — produces byte-identical
results.  The benchmark gate and the tests prove this against the
one-search-per-candidate loop of :class:`repro.reference.LegacyVerifier`.

Examples
--------
>>> from repro.search.verify import available_verifiers, resolve_verifier_name
>>> available_verifiers()
['bounded']
>>> resolve_verifier_name("auto")
'bounded'
"""

from __future__ import annotations

import hashlib
import inspect
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.database import GraphDatabase
from ..core.distance import DistanceMeasure
from ..core.errors import EngineConfigError, UnknownComponentError
from ..core.graph import LabeledGraph
from ..core.superimposed import INFINITE_DISTANCE, best_superposition
from ..exec import make_executor
from ..perf import GLOBAL_COUNTERS, MemoCache, PerfCounters, graph_signature

__all__ = [
    "Verifier",
    "BoundedVerifier",
    "register_verifier",
    "make_verifier",
    "available_verifiers",
    "resolve_verifier_name",
    "query_cache_key",
    "DEFAULT_VERIFIER",
    "AUTO_VERIFIER",
]

#: registry name that resolves to the default optimized verifier
AUTO_VERIFIER = "auto"

#: the verifier ``"auto"`` resolves to
DEFAULT_VERIFIER = "bounded"

#: cache-size default for verifiers that own a private distance cache
PRIVATE_DISTANCE_CACHE_SIZE = 16384


def query_cache_key(query: LabeledGraph, measure: DistanceMeasure) -> str:
    """Stable content key of ``(measure, query)`` for distance memoization.

    The key digests the measure's :meth:`~repro.core.DistanceMeasure.cache_token`
    together with the full content signature of the query graph (vertex ids,
    labels, weights, edges), so two structurally identical query objects
    share cached distances while any semantic difference — a relabeled edge,
    a different measure — separates them.

    This key identifies only the *query* side of a cached distance.  The
    graph side is identified by ``(graph id, graph revision)`` — the id
    alone is not enough, because a dynamic database can retire an id and
    rebind it to a different graph (delete + insert), and a distance cached
    for the previous occupant must never be served for the new one.
    :meth:`BoundedVerifier._verify_one` therefore includes
    ``database.revision(graph_id)`` in every cache key.

    Parameters
    ----------
    query:
        The query graph.
    measure:
        The distance measure the cached distances are exact under.

    Returns
    -------
    str
        A hex digest usable as the query part of a cache key.
    """
    payload = repr((measure.cache_token(), graph_signature(query)))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _verify_chunk_task(payload: Tuple) -> List[Tuple[int, float, int, int, int]]:
    """Process-pool task: verify one chunk of candidates exactly.

    The payload carries everything a worker needs — the query, the measure,
    the threshold, and ``(graph_id, graph, lower_bound)`` triples — so the task is self-contained and picklable.
    Returns, per candidate, ``(graph_id, exact_distance,
    superpositions_explored, early_exits, nodes_expanded)``; the parent
    turns the raw distances into answers, caches them, and accounts the
    work, so process-verified results are byte-identical to (and accounted
    exactly like) serial verification.
    """
    query, measure, sigma, candidates = payload
    outcomes: List[Tuple[int, float, int, int, int]] = []
    for graph_id, graph, bound in candidates:
        result = best_superposition(
            query,
            graph,
            measure,
            threshold=sigma,
            known_lower_bound=bound,
        )
        outcomes.append(
            (
                graph_id,
                result.distance,
                result.explored,
                1 if result.early_exit else 0,
                result.nodes_expanded,
            )
        )
    return outcomes


class Verifier:
    """Base class of the pluggable candidate verifiers.

    A verifier computes, for each candidate graph id, whether the true
    minimum superimposed distance between the query and that graph is within
    ``sigma``, returning the surviving ids and their exact distances.
    Subclasses implement :meth:`verify`; construction is uniform so
    :func:`make_verifier` can build any of them from a registry name.

    Parameters
    ----------
    database:
        The graph database candidates refer into.
    measure:
        Decomposable superimposed distance measure (verification semantics).
    counters:
        Optional :class:`~repro.perf.PerfCounters` sink; a private sink
        mirroring the process-wide counters is created when omitted.
    distance_cache:
        Optional :class:`~repro.perf.MemoCache` for exact distances, shared
        through the fragment index so batches and sigma sweeps reuse work.
        Verifiers that do not memoize ignore it.
    workers:
        Default worker-pool size for parallel verification (``0`` = serial);
        a per-call ``workers=`` argument overrides it.
    executor:
        :mod:`repro.exec` executor kind driving the worker pool:
        ``"thread"`` (default), ``"process"`` for GIL-free verification, or
        ``"serial"`` to pin verification to the calling thread.  Verifiers
        that do not parallelize ignore it.
    """

    #: verifier identifier used in reports and registry lookups
    name = "abstract"

    def __init__(
        self,
        database: GraphDatabase,
        measure: DistanceMeasure,
        counters: Optional[PerfCounters] = None,
        distance_cache: Optional[MemoCache] = None,
        workers: int = 0,
        executor: str = "thread",
    ):
        self.database = database
        self.measure = measure
        self.counters = (
            counters
            if isinstance(counters, PerfCounters)
            else PerfCounters(mirror=GLOBAL_COUNTERS)
        )
        self.distance_cache = distance_cache
        self.workers = int(workers or 0)
        self.executor = executor

    def _graph_revision(self, graph_id: int) -> int:
        """Rebinding revision of ``graph_id`` in the database (0 if static).

        Part of every distance-cache key: a dynamic database bumps the
        revision whenever a slot is removed, replaced, or reclaimed, which
        retires every cached distance of the previous occupant.  Databases
        without revision tracking are immutable-by-convention and report 0.
        """
        revision = getattr(self.database, "revision", None)
        if callable(revision):
            return revision(graph_id)
        return 0

    def verify(
        self,
        query: LabeledGraph,
        sigma: float,
        candidate_ids: Sequence[int],
        lower_bounds: Optional[Mapping[int, float]] = None,
        workers: Optional[int] = None,
    ) -> Tuple[List[int], Dict[int, float]]:
        """Verify candidates: keep graphs whose true distance is within sigma.

        Parameters
        ----------
        query:
            The query graph.
        sigma:
            Distance threshold.
        candidate_ids:
            Graph ids surviving the filtering phase.
        lower_bounds:
            Optional proven lower bounds per candidate id (the filtering
            phase's Eq. 2 bounds); verifiers that cannot use them ignore the
            mapping.  Bounds must be *true* lower bounds of the superimposed
            distance — a wrong bound can drop a true answer.
        workers:
            Worker-pool size for this call (``None`` = the constructor
            default, ``0``/``1`` = serial).

        Returns
        -------
        tuple
            ``(answer_ids, answer_distances)``: the surviving ids in
            candidate order and their exact distances.
        """
        raise NotImplementedError


class BoundedVerifier(Verifier):
    """Lower-bound-driven verifier: order, short-circuit, memoize, early-exit.

    See the module docstring for the four optimizations.  Every one of them
    preserves exactness:

    * a candidate is skipped only when its proven lower bound exceeds
      ``sigma`` (so its true distance must too);
    * the branch-and-bound search stops early only when a complete
      superposition meets the proven lower bound (so it is the minimum);
    * cached distances are exact by construction — an ``inf`` computed under
      threshold ``t`` is recorded as "greater than ``t``" and recomputed
      when a later query needs a larger threshold.

    The verification order (ascending lower bound, ties in candidate order)
    is exposed as :attr:`last_order` for diagnostics and tests; answers are
    always reported in the original candidate order regardless.
    """

    name = "bounded"

    def __init__(
        self,
        database: GraphDatabase,
        measure: DistanceMeasure,
        counters: Optional[PerfCounters] = None,
        distance_cache: Optional[MemoCache] = None,
        workers: int = 0,
        executor: str = "thread",
    ):
        super().__init__(
            database,
            measure,
            counters=counters,
            distance_cache=distance_cache,
            workers=workers,
            executor=executor,
        )
        if self.distance_cache is None:
            # No index-shared cache (e.g. an index-free baseline strategy):
            # own a private one so repeated queries still benefit.
            self.distance_cache = MemoCache(
                "verify_distance",
                maxsize=PRIVATE_DISTANCE_CACHE_SIZE,
                counters=self.counters,
            )
        #: candidate ids in the order the last :meth:`verify` decided them
        self.last_order: List[int] = []

    # ------------------------------------------------------------------
    # the verification plan
    # ------------------------------------------------------------------
    def plan(
        self,
        sigma: float,
        candidate_ids: Sequence[int],
        lower_bounds: Optional[Mapping[int, float]] = None,
    ) -> Tuple[List[int], List[int]]:
        """Split candidates into ``(ordered, skipped)`` without verifying.

        ``ordered`` holds the candidates that need a distance computation,
        sorted by ascending filtering lower bound (ties keep candidate
        order); ``skipped`` holds the candidates whose lower bound already
        exceeds ``sigma`` and which are therefore rejected outright.

        Exposed separately so tests and diagnostics can inspect the
        ordering and short-circuit decisions without paying for
        verification.
        """
        bounds = lower_bounds or {}
        ordered: List[Tuple[float, int, int]] = []
        skipped: List[int] = []
        for position, graph_id in enumerate(candidate_ids):
            bound = bounds.get(graph_id, 0.0)
            if bound > sigma:
                skipped.append(graph_id)
            else:
                ordered.append((bound, position, graph_id))
        ordered.sort()
        return [graph_id for _, _, graph_id in ordered], skipped

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def verify(
        self,
        query: LabeledGraph,
        sigma: float,
        candidate_ids: Sequence[int],
        lower_bounds: Optional[Mapping[int, float]] = None,
        workers: Optional[int] = None,
    ) -> Tuple[List[int], Dict[int, float]]:
        """Verify candidates using the filtering lower bounds (see class docs)."""
        candidate_ids = list(candidate_ids)
        bounds = lower_bounds or {}
        pool_size = self.workers if workers is None else int(workers or 0)
        with self.counters.timer("verify"):
            ordered, skipped = self.plan(sigma, candidate_ids, bounds)
            self.last_order = list(ordered)
            query_key = query_cache_key(query, self.measure)
            parallel = (
                pool_size > 1 and len(ordered) > 1 and self.executor != "serial"
            )
            if parallel and self.executor == "process":
                outcomes = self._verify_process(
                    query, query_key, ordered, sigma, bounds, pool_size
                )
                self.counters.increment("verify.parallel_batches")
            elif parallel:
                pool = make_executor(
                    self.executor, workers=pool_size, counters=self.counters
                )
                outcomes = pool.map(
                    lambda graph_id: self._verify_one(
                        query, query_key, graph_id, sigma, bounds.get(graph_id)
                    ),
                    ordered,
                )
                self.counters.increment("verify.parallel_batches")
            else:
                outcomes = [
                    self._verify_one(
                        query, query_key, graph_id, sigma, bounds.get(graph_id)
                    )
                    for graph_id in ordered
                ]
        found = {
            graph_id: distance
            for graph_id, distance in zip(ordered, (o[0] for o in outcomes))
            if distance is not None
        }
        # Deterministic output: answers in original candidate order, exactly
        # as the one-search-per-candidate reference loop reports them.
        answers = [graph_id for graph_id in candidate_ids if graph_id in found]
        distances = {graph_id: found[graph_id] for graph_id in answers}
        self.counters.increment("verify.candidates", len(candidate_ids))
        self.counters.increment("verify.lower_bound_skips", len(skipped))
        self.counters.increment(
            "verify.superpositions_explored", sum(o[1] for o in outcomes)
        )
        self.counters.increment("verify.early_exits", sum(o[2] for o in outcomes))
        self.counters.increment("verify.nodes_expanded", sum(o[3] for o in outcomes))
        return answers, distances

    def _cache_key(self, query_key: str, graph_id: int) -> Tuple[str, Any, int]:
        """Distance-cache key of one candidate."""
        return (query_key, graph_id, self._graph_revision(graph_id))

    def _cached_outcome(
        self, cache_key: Tuple[str, Any, int], sigma: float
    ) -> Optional[Tuple[Optional[float], int, int, int]]:
        """Resolve one candidate from the distance cache, if possible.

        Returns the outcome tuple when the cache decides the candidate, or
        ``None`` when a distance computation is needed (miss, or an entry
        cached only as "> threshold" at a smaller threshold — the refresh
        case, which is also accounted here).
        """
        entry = self.distance_cache.get(cache_key)
        if entry is MemoCache.MISS:
            return None
        distance, threshold = entry
        if distance != INFINITE_DISTANCE:
            # Finite cached distances are exact minima.
            return (distance if distance <= sigma else None, 0, 0, 0)
        if sigma <= threshold:
            # The true distance exceeds the cached threshold, which
            # already covers this sigma.
            return (None, 0, 0, 0)
        # Cached only as "> threshold" — recompute with the larger
        # threshold and refresh the entry.
        self.counters.increment("verify.cache_refreshes")
        return None

    def _verify_one(
        self,
        query: LabeledGraph,
        query_key: str,
        graph_id: int,
        sigma: float,
        bound: Optional[float],
    ) -> Tuple[Optional[float], int, int, int]:
        """Decide one candidate:
        ``(distance-or-None, explored, early_exits, nodes_expanded)``.

        ``distance`` is the exact minimum superimposed distance when it is
        within ``sigma`` and ``None`` otherwise.  Thread-safe: the memo
        cache takes its own lock and everything else is local.
        """
        cache_key = self._cache_key(query_key, graph_id)
        cached = self._cached_outcome(cache_key, sigma)
        if cached is not None:
            return cached
        result = best_superposition(
            query,
            self.database[graph_id],
            self.measure,
            threshold=sigma,
            known_lower_bound=bound,
        )
        self.distance_cache.put(cache_key, (result.distance, sigma))
        return (
            result.distance if result.distance <= sigma else None,
            result.explored,
            1 if result.early_exit else 0,
            result.nodes_expanded,
        )

    def _verify_process(
        self,
        query: LabeledGraph,
        query_key: str,
        ordered: Sequence[int],
        sigma: float,
        bounds: Mapping[int, float],
        pool_size: int,
    ) -> List[Tuple[Optional[float], int, int, int]]:
        """Verify the ordered candidates in worker processes.

        The memo cache stays parent-side: cache hits are resolved before
        dispatch, only misses ship to the workers (chunked so each worker
        gets one contiguous slice), and the computed exact distances are
        cached on return — so a process-verified query warms the same cache
        a serial one would, byte for byte.
        """
        outcomes: Dict[int, Tuple[Optional[float], int, int, int]] = {}
        pending: List[int] = []
        for graph_id in ordered:
            cached = self._cached_outcome(self._cache_key(query_key, graph_id), sigma)
            if cached is not None:
                outcomes[graph_id] = cached
            else:
                pending.append(graph_id)
        if pending:
            chunk_size = max(1, (len(pending) + pool_size - 1) // pool_size)
            payloads = []
            for position in range(0, len(pending), chunk_size):
                chunk = pending[position : position + chunk_size]
                payloads.append(
                    (
                        query,
                        self.measure,
                        sigma,
                        [
                            (graph_id, self.database[graph_id], bounds.get(graph_id))
                            for graph_id in chunk
                        ],
                    )
                )
            pool = make_executor(
                "process", workers=pool_size, counters=self.counters
            )
            for chunk_outcomes in pool.map(_verify_chunk_task, payloads):
                for graph_id, distance, explored, early, expanded in chunk_outcomes:
                    self.distance_cache.put(
                        self._cache_key(query_key, graph_id), (distance, sigma)
                    )
                    outcomes[graph_id] = (
                        distance if distance <= sigma else None,
                        explored,
                        early,
                        expanded,
                    )
        return [outcomes[graph_id] for graph_id in ordered]


# ----------------------------------------------------------------------
# registry (mirrors repro.search.registry / repro.index.backends)
# ----------------------------------------------------------------------
_VERIFIERS: Dict[str, type] = {}


def register_verifier(cls: type) -> type:
    """Register a verifier class under its ``name`` attribute.

    Usable as a decorator, exactly like
    :func:`repro.search.register_strategy`; third-party verifiers become
    reachable from :class:`repro.engine.EngineConfig` by name.
    """
    _VERIFIERS[cls.name] = cls
    return cls


def available_verifiers() -> List[str]:
    """Return the names of all registered verifiers (sorted)."""
    return sorted(_VERIFIERS)


def resolve_verifier_name(name: str) -> str:
    """Resolve ``"auto"`` to the default verifier; pass other names through."""
    return DEFAULT_VERIFIER if name == AUTO_VERIFIER else name


def make_verifier(
    name: str,
    database: GraphDatabase,
    measure: DistanceMeasure,
    counters: Optional[PerfCounters] = None,
    distance_cache: Optional[MemoCache] = None,
    workers: int = 0,
    executor: str = "thread",
) -> Verifier:
    """Instantiate a registered verifier by name.

    ``"auto"`` resolves to :data:`DEFAULT_VERIFIER`.  Unknown names raise
    :class:`~repro.core.errors.UnknownComponentError` listing the registered
    alternatives; invalid constructor parameters surface as
    :class:`~repro.core.errors.EngineConfigError`.
    """
    resolved = resolve_verifier_name(name)
    if resolved not in _VERIFIERS:
        raise UnknownComponentError("verifier", resolved, _VERIFIERS)
    cls = _VERIFIERS[resolved]
    kwargs: Dict[str, Any] = {
        "counters": counters,
        "distance_cache": distance_cache,
        "workers": workers,
    }
    # Third-party verifiers written before the executor layer keep working:
    # the executor kind is passed only to constructors that accept it.
    signature = inspect.signature(cls.__init__)
    accepts_any = any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in signature.parameters.values()
    )
    if "executor" in signature.parameters or accepts_any:
        kwargs["executor"] = executor
    try:
        return cls(database, measure, **kwargs)
    except TypeError as exc:
        raise EngineConfigError(
            f"invalid parameters for verifier {resolved!r}: {exc}"
        ) from exc


register_verifier(BoundedVerifier)
