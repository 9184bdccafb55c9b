"""Global query planner: plan the filtering phase once, execute anywhere.

Algorithm 2 interleaves two very different kinds of work: *planning*
(enumerate the query's indexed fragments, estimate their selectivities,
solve the MWIS partition) and *execution* (range queries, candidate-set
intersection, the Eq. 2 lower-bound sweep).  Planning depends only on the
query, the threshold, and global database statistics — never on which
shard the work runs on — yet the scatter-gather engine historically
re-planned on every shard, multiplying the planning cost by the shard
count and, worse, letting shards pick *different* partitions because each
estimated selectivity with its shard-local ``n``.

This module hoists planning into a single global step:

* :class:`QueryPlan` — an immutable, picklable description of the
  filtering phase for one ``(query, sigma)``: the ordered fragments, their
  global selectivities, the positions surviving the epsilon floor, the
  MWIS partition, a candidate-count estimate — and the *globally computed
  filtering outcome itself* (the intersected structure-candidate set and
  the Eq. 2 lower bound of every structure candidate).  The engine
  computes it once and ships it to every shard task, whose execution
  shrinks to restricting the global outcome to the shard's live ids.
* :class:`GlobalPlanner` — builds plans from *merged* range results
  (``range_query`` of an unsharded :class:`~repro.index.FragmentIndex`
  or, merged across shards, of a ``ShardedFragmentIndex``): the correct
  global ``n`` and exactly-rounded global distance sums (:func:`math.fsum`
  is order-independent), so the plan — and therefore every downstream
  candidate set and report — is bit-identical whether the database lives
  in one index or sixty-four shards.  Plans are memoized in a bounded
  :class:`~repro.perf.MemoCache` keyed
  ``(graph_signature(query), sigma, cutoff_lambda, index.generation)``:
  mutations bump the generation, so stale plans can never hit.

The cost model behind ``estimated_candidates`` treats fragments as
independent filters: each fragment ``i`` keeps a ``|T_i| / n`` fraction of
the database, so the intersection is estimated at ``n * prod(|T_i| / n)``.
Crude, but cheap, monotone in the statistics the planner already has, and
honest enough for ``pis explain`` to compare against the actual count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..core.graph import LabeledGraph
from ..perf import MemoCache, PerfCounters, graph_signature
from .partition import PartitionResult, select_partition
from .selectivity import SelectivityEstimator

__all__ = ["GlobalPlanner", "QueryPlan"]


@dataclass(frozen=True)
class QueryPlan:
    """Everything the filtering phase needs, decided once per query.

    Attributes
    ----------
    query_signature:
        Content signature of the planned query
        (:func:`repro.perf.graph_signature`) — lets executors assert they
        were handed the right plan.
    sigma / cutoff_lambda / epsilon:
        The thresholds the plan was computed under.
    generation:
        Index generation at planning time; a mutation invalidates the plan.
    num_database_graphs:
        The global live-graph count ``n`` used as the selectivity
        denominator — *not* any shard-local size.
    fragments:
        The query's indexed fragments, in enumeration order.  Range-query
        positions in ``eligible`` / ``partition_positions`` index into this
        tuple.
    selectivities:
        Global selectivity ``w(g)`` per fragment (same order).
    eligible:
        Positions surviving the epsilon floor (Algorithm 2, line 5).
    partition:
        The MWIS partition selected over the eligible fragments, or
        ``None`` when no fragment survived the floor.
    partition_positions:
        Fragment positions of the partition members, in the order the
        Eq. 2 sweep visits them (sorted MWIS node order).
    estimated_candidates:
        The cost model's candidate-count estimate (see module docstring).
    structure_candidates:
        The *global* structure-candidate set (Algorithm 2's intersection of
        the per-fragment range results), ascending.  ``None`` means the
        query contained no indexed fragment, so the index cannot prune —
        executors fall back to every locally live graph id.
    lower_bounds:
        Eq. 2 lower bound per global structure candidate.  Populated
        exactly when ``partition_applied``; the final candidates are the
        entries with ``bound <= sigma``.  Treat as read-only.
    partition_applied:
        Whether the Eq. 2 sweep ran globally (an eligible partition *and* a
        non-empty structure-candidate set).  Executors state the partition
        report fields exactly when this is set, mirroring the legacy
        single-pass guard.
    fragment_distances:
        The global per-fragment range-query results backing the plan, in
        fragment order.  Local executors surface them through
        :class:`~repro.search.pis.FilterOutcome`; they are **stripped when
        the plan is pickled** (process-executor shards need only the
        computed outcome, not the raw maps), so a shipped plan stays small.
    """

    query_signature: Any
    sigma: float
    cutoff_lambda: float
    epsilon: float
    generation: int
    num_database_graphs: int
    fragments: Tuple[Any, ...]
    selectivities: Tuple[float, ...]
    eligible: Tuple[int, ...]
    partition: Optional[PartitionResult]
    partition_positions: Tuple[int, ...]
    estimated_candidates: int
    structure_candidates: Optional[Tuple[int, ...]]
    lower_bounds: Dict[int, float]
    partition_applied: bool
    fragment_distances: Tuple[Dict[int, float], ...]

    def __getstate__(self) -> Dict[str, Any]:
        # The raw range-query maps can dwarf the outcome they produced;
        # shard tasks only need the outcome, so pickles drop the maps.
        state = dict(self.__dict__)
        state["fragment_distances"] = ()
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)

    def __copy__(self) -> "QueryPlan":
        # Plans are immutable once built (the plan cache hands the same
        # instance to every caller), so copies — notably the result
        # cache's defensive deepcopy of a SearchResult carrying its plan —
        # share them instead of cloning fragments and bound maps.
        return self

    def __deepcopy__(self, memo: Dict[int, Any]) -> "QueryPlan":
        return self

    @property
    def num_fragments(self) -> int:
        """Number of indexed fragments enumerated in the query."""
        return len(self.fragments)

    @property
    def num_structure_candidates(self) -> Optional[int]:
        """Global structure-candidate count (``None`` = unprunable query)."""
        if self.structure_candidates is None:
            return None
        return len(self.structure_candidates)

    @property
    def num_candidates(self) -> Optional[int]:
        """Global candidate count after the Eq. 2 sweep (``None`` =
        unprunable query)."""
        if self.structure_candidates is None:
            return None
        if not self.partition_applied:
            return len(self.structure_candidates)
        return sum(
            1 for bound in self.lower_bounds.values() if bound <= self.sigma
        )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly view of the plan (used by ``pis explain``)."""
        partition: Optional[Dict[str, Any]] = None
        if self.partition is not None:
            partition = {
                "method": self.partition.method,
                "size": self.partition.size,
                "weight": round(self.partition.weight, 6),
                "fragments": [
                    {
                        "position": position,
                        "code": str(self.fragments[position].code),
                        "num_edges": self.fragments[position].num_edges,
                        "selectivity": round(self.selectivities[position], 6),
                    }
                    for position in self.partition_positions
                ],
            }
        return {
            "sigma": self.sigma,
            "cutoff_lambda": self.cutoff_lambda,
            "epsilon": self.epsilon,
            "generation": self.generation,
            "num_database_graphs": self.num_database_graphs,
            "num_fragments": self.num_fragments,
            "selectivities": [round(weight, 6) for weight in self.selectivities],
            "eligible_positions": list(self.eligible),
            "partition": partition,
            "partition_applied": self.partition_applied,
            "estimated_candidates": self.estimated_candidates,
            "num_structure_candidates": self.num_structure_candidates,
            "num_candidates": self.num_candidates,
        }


class GlobalPlanner:
    """Plans the filtering phase from global fragment statistics.

    Parameters
    ----------
    index:
        The index to plan over — an unsharded
        :class:`~repro.index.FragmentIndex` or a
        :class:`~repro.index.ShardedFragmentIndex`; both expose
        ``enumerate_query_fragments``, ``range_query``,
        ``num_live_graphs``, and ``generation``, which is the planner's
        entire index contract.
    epsilon / cutoff_lambda / partition_method / partition_k:
        The pruning parameters, identical in meaning to
        :class:`~repro.search.pis.PISearch`.
    cache_size:
        Bound of the plan cache (LRU eviction beyond it; ``0`` disables
        storing).
    counters:
        Performance-counter sink.  Defaults to the index's counters, so
        ``plan.cache_hits`` / ``plan.cache_misses`` / ``plan.seconds`` /
        ``plan.global_stats_ms`` surface through the usual profiles.
    """

    def __init__(
        self,
        index: Any,
        epsilon: float = 0.0,
        cutoff_lambda: float = 1.0,
        partition_method: str = "greedy",
        partition_k: int = 2,
        cache_size: int = 256,
        counters: Optional[PerfCounters] = None,
    ):
        self.index = index
        self.epsilon = float(epsilon)
        self.cutoff_lambda = float(cutoff_lambda)
        self.partition_method = partition_method
        self.partition_k = int(partition_k)
        self.counters = (
            counters
            if counters is not None
            else getattr(index, "counters", None) or PerfCounters()
        )
        self._cache = MemoCache(
            "plan", maxsize=int(cache_size), counters=self.counters
        )

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def cache_key(
        self, query: LabeledGraph, sigma: float
    ) -> Tuple[Any, float, float, int]:
        """The plan-cache key: query content, thresholds, index generation."""
        return (
            graph_signature(query),
            float(sigma),
            float(self.cutoff_lambda),
            self.index.generation,
        )

    def plan(
        self,
        query: LabeledGraph,
        sigma: float,
        num_graphs: Optional[int] = None,
    ) -> QueryPlan:
        """Return the (possibly cached) plan for one ``(query, sigma)``.

        ``num_graphs`` overrides the selectivity denominator ``n``; by
        default the index's global live-graph count is used.  Plans are
        immutable, so cache hits return the stored object itself.
        """
        key = self.cache_key(query, sigma)
        cached = self._cache.get(key)
        if cached is not MemoCache.MISS:
            return cached
        with self.counters.timer("plan"):
            plan = self._compute_plan(key, query, sigma, num_graphs)
        self._cache.put(key, plan)
        return plan

    def _compute_plan(
        self,
        key: Tuple[Any, float, float, int],
        query: LabeledGraph,
        sigma: float,
        num_graphs: Optional[int],
    ) -> QueryPlan:
        n = (
            int(num_graphs)
            if num_graphs is not None
            else int(self.index.num_live_graphs)
        )
        fragments = tuple(self.index.enumerate_query_fragments(query))

        # One (merged) range query per fragment.  For a sharded index this
        # is the single point where shard-local information crosses into
        # the (topology-independent) plan: the merged maps carry the global
        # T sets, and math.fsum over them is exactly rounded — therefore
        # order-independent — so the selectivities below are bit-identical
        # to what an unsharded index computes over the same database.
        start = time.perf_counter()
        distance_maps: Tuple[Dict[int, float], ...] = tuple(
            self.index.range_query(fragment, sigma) for fragment in fragments
        )
        estimator = SelectivityEstimator(
            num_graphs=n, sigma=sigma, cutoff_lambda=self.cutoff_lambda
        )
        selectivities = tuple(
            estimator.from_range_result(distances).weight
            for distances in distance_maps
        )
        self.counters.increment("plan.range_queries", len(fragments))
        self.counters.increment(
            "plan.global_stats_ms", (time.perf_counter() - start) * 1000.0
        )

        eligible = tuple(
            position
            for position in range(len(fragments))
            if selectivities[position] > self.epsilon
        )

        partition: Optional[PartitionResult] = None
        partition_positions: Tuple[int, ...] = ()
        if eligible:
            partition = select_partition(
                [fragments[position] for position in eligible],
                [selectivities[position] for position in eligible],
                method=self.partition_method,
                k=self.partition_k,
            )
            partition_positions = tuple(
                eligible[node] for node in sorted(partition.mwis.nodes)
            )

        # Independence-model candidate estimate: each fragment keeps a
        # |T_i|/n fraction of the database; the intersection keeps the
        # product.  With no indexed fragments nothing is pruned.
        estimate = float(n)
        for distances in distance_maps:
            estimate *= len(distances) / n if n else 0.0
        estimated_candidates = int(round(estimate)) if n else 0

        # Algorithm 2's execution, run once globally: intersect the T sets
        # (lines 6-17) and sweep the Eq. 2 lower bound under the chosen
        # partition (lines 21-23).  Executors restrict this outcome to
        # their live ids instead of repeating any of it.
        structure_candidates: Optional[Tuple[int, ...]] = None
        if fragments:
            candidate_set = set(distance_maps[0])
            for distances in distance_maps[1:]:
                candidate_set &= distances.keys()
            structure_candidates = tuple(sorted(candidate_set))

        partition_applied = bool(partition is not None and structure_candidates)
        lower_bounds: Dict[int, float] = {}
        if partition_applied:
            partition_maps = [
                distance_maps[position] for position in partition_positions
            ]
            for graph_id in structure_candidates:
                bound = 0.0
                for distances in partition_maps:
                    distance = distances.get(graph_id)
                    if distance is None:
                        # No occurrence of this fragment within sigma: the
                        # superimposed distance already exceeds the
                        # threshold.
                        bound = sigma + 1.0
                        break
                    bound += distance
                    if bound > sigma:
                        break
                lower_bounds[graph_id] = bound

        return QueryPlan(
            query_signature=key[0],
            sigma=float(sigma),
            cutoff_lambda=self.cutoff_lambda,
            epsilon=self.epsilon,
            generation=key[3],
            num_database_graphs=n,
            fragments=fragments,
            selectivities=selectivities,
            eligible=eligible,
            partition=partition,
            partition_positions=partition_positions,
            estimated_candidates=estimated_candidates,
            structure_candidates=structure_candidates,
            lower_bounds=lower_bounds,
            partition_applied=partition_applied,
            fragment_distances=distance_maps,
        )

    # ------------------------------------------------------------------
    # cache accounting
    # ------------------------------------------------------------------
    @property
    def cache(self) -> MemoCache:
        """The underlying plan cache (exposed for tests and stats)."""
        return self._cache

    def clear_cache(self) -> None:
        """Drop every cached plan (accounting is kept)."""
        self._cache.clear()

    def cache_stats(self) -> Dict[str, Any]:
        """JSON-friendly plan-cache accounting, including the hit rate."""
        stats = self._cache.stats()
        lookups = self._cache.hits + self._cache.misses
        stats["hit_rate"] = round(
            self._cache.hits / lookups if lookups else 0.0, 6
        )
        return stats

    def __repr__(self) -> str:
        return (
            f"<GlobalPlanner epsilon={self.epsilon} "
            f"cutoff_lambda={self.cutoff_lambda} "
            f"method={self.partition_method!r} cache={len(self._cache)}>"
        )
