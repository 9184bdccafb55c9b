"""Single-pass PIS search (Algorithm 2 + exact verification), uncached.

:class:`ReferenceSearch` runs the whole filtering phase of one query in one
pass — enumerate the query's indexed fragments, one range query per
fragment, intersect the matching graph sets as Python sets, estimate the
selectivities, pick the partition, sweep the Eq. 2 bound — and verifies the
survivors with :class:`~repro.reference.verify.LegacyVerifier`.  The
production engine splits the same phase into
:class:`~repro.search.planner.GlobalPlanner` and
:meth:`~repro.search.pis.PISearch.execute_plan`, with memo caches, bitsets,
vectorized scans and the array kernel; both must agree byte for byte.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..core.database import GraphDatabase
from ..core.graph import LabeledGraph
from ..index.fragment_index import QueryFragment
from ..search.partition import PartitionResult, select_partition
from ..search.pis import FilterOutcome
from ..search.results import PruningReport, SearchResult
from ..search.selectivity import SelectivityEstimator
from ..search.strategy import SearchStrategy
from .verify import LegacyVerifier

__all__ = ["ReferenceSearch", "search"]


class _UncachedIndex:
    """Read-only view of a fragment index that bypasses every memo cache.

    Fragments are enumerated afresh and range queries scan each class's
    backend, never the vector store.  A sharded index is read as the union
    of its shards (graph ids are disjoint across shards), so one view
    covers both topologies.
    """

    def __init__(self, index):
        self._index = index
        self._shards = list(getattr(index, "shards", [index]))
        self.measure = index.measure

    @property
    def num_live_graphs(self) -> int:
        return self._index.num_live_graphs

    def live_graph_ids(self) -> List[int]:
        return self._index.live_graph_ids()

    def enumerate_query_fragments(self, query: LabeledGraph) -> List[QueryFragment]:
        # Every shard indexes the same feature classes, so shard 0 answers.
        return self._shards[0].compute_query_fragments(query)

    def range_query(self, fragment: QueryFragment, sigma: float) -> Dict[int, float]:
        merged: Dict[int, float] = {}
        for shard in self._shards:
            merged.update(
                shard.get_class(fragment.code).backend.range_query(
                    tuple(fragment.sequence), sigma
                )
            )
        return merged


class ReferenceSearch(SearchStrategy):
    """Algorithm 2 in one pass plus the legacy verifier (see module docs).

    Parameters
    ----------
    database:
        The graph database candidates are verified against.
    index:
        A built :class:`~repro.index.FragmentIndex` or
        :class:`~repro.index.ShardedFragmentIndex`.  Only read, never
        through its caches.
    epsilon / cutoff_lambda / partition_method / partition_k:
        The filtering parameters of :class:`~repro.search.pis.PISearch`.
    """

    name = "reference"
    requires_index = True

    def __init__(
        self,
        database: GraphDatabase,
        index,
        epsilon: float = 0.0,
        cutoff_lambda: float = 1.0,
        partition_method: str = "greedy",
        partition_k: int = 2,
    ):
        super().__init__(
            database=database, measure=index.measure, index=_UncachedIndex(index)
        )
        self.epsilon = epsilon
        self.cutoff_lambda = cutoff_lambda
        self.partition_method = partition_method
        self.partition_k = partition_k
        self.verifier = LegacyVerifier(database, self.measure, counters=self.counters)

    def filter_candidates(self, query: LabeledGraph, sigma: float) -> FilterOutcome:
        """Run the single-pass filtering phase and return its outcome."""
        with self.counters.timer("filter"):
            return self._filter_candidates(query, sigma)

    def candidates(self, query: LabeledGraph, sigma: float) -> List[int]:
        """Return the candidate graph ids (filtering phase only)."""
        return self.filter_candidates(query, sigma).candidate_ids

    def _filter(
        self, query: LabeledGraph, sigma: float
    ) -> Tuple[List[int], PruningReport, Optional[Dict[int, float]]]:
        outcome = self.filter_candidates(query, sigma)
        return outcome.candidate_ids, outcome.report, outcome.lower_bounds

    def verify(
        self,
        query: LabeledGraph,
        sigma: float,
        candidate_ids,
        lower_bounds: Optional[Mapping[int, float]] = None,
        workers: Optional[int] = None,
    ) -> Tuple[List[int], Dict[int, float]]:
        """Verify every candidate with one full recursive search."""
        return self.verifier.verify(query, sigma, candidate_ids)

    def _filter_candidates(self, query: LabeledGraph, sigma: float) -> FilterOutcome:
        num_graphs = self._database_size()
        report = PruningReport(num_database_graphs=num_graphs)

        # Lines 3-4: enumerate the indexed fragments of the query graph.
        fragments = self.index.enumerate_query_fragments(query)
        report.num_query_fragments = len(fragments)

        candidate_set: Optional[Set[int]] = None
        fragment_distances: Dict[int, Dict[int, float]] = {}
        estimator = SelectivityEstimator(
            num_graphs=num_graphs, sigma=sigma, cutoff_lambda=self.cutoff_lambda
        )
        selectivities: List[float] = []

        # Lines 6-18: one range query per fragment; intersect the matching
        # graph sets; compute the fragment selectivities.
        self.counters.increment("filter.range_queries", len(fragments))
        for position, fragment in enumerate(fragments):
            distances = self.index.range_query(fragment, sigma)
            fragment_distances[position] = distances
            selectivities.append(estimator.from_range_result(distances).weight)
            matched = set(distances)
            candidate_set = (
                matched if candidate_set is None else candidate_set & matched
            )

        if candidate_set is None:
            # No indexed fragment occurs in the query: the index cannot
            # prune anything and every live graph stays a candidate.
            candidate_ids: List[int] = self._all_graph_ids()
        else:
            candidate_ids = sorted(candidate_set)

        report.num_structure_candidates = len(candidate_ids)

        # Line 5: drop fragments whose selectivity is below the floor.
        eligible = [
            position
            for position in range(len(fragments))
            if selectivities[position] > self.epsilon
        ]
        report.num_fragments_after_epsilon = len(eligible)

        partition: Optional[PartitionResult] = None
        lower_bounds: Dict[int, float] = {}
        if eligible and candidate_ids:
            # Lines 19-20: overlapping-relation graph + greedy MWIS.
            partition = select_partition(
                [fragments[position] for position in eligible],
                [selectivities[position] for position in eligible],
                method=self.partition_method,
                k=self.partition_k,
            )
            report.partition_size = partition.size
            report.partition_weight = partition.weight

            # Lines 21-23: apply the lower bound of Eq. (2).  Candidates are
            # visited in ascending id order, so the surviving list is sorted
            # by construction.
            partition_positions = [
                eligible[node] for node in sorted(partition.mwis.nodes)
            ]
            partition_maps = [
                fragment_distances[position] for position in partition_positions
            ]
            surviving: List[int] = []
            for graph_id in candidate_ids:
                bound = 0.0
                for distances in partition_maps:
                    distance = distances.get(graph_id)
                    if distance is None:
                        # The graph has no occurrence of this fragment within
                        # sigma, so its superimposed distance already exceeds
                        # the threshold.
                        bound = sigma + 1.0
                        break
                    bound += distance
                    if bound > sigma:
                        break
                lower_bounds[graph_id] = bound
                if bound <= sigma:
                    surviving.append(graph_id)
            candidate_ids = surviving

        report.num_candidates = len(candidate_ids)
        self.counters.increment("filter.candidates", len(candidate_ids))
        return FilterOutcome(
            candidate_ids=candidate_ids,
            fragment_distances=fragment_distances,
            fragments=fragments,
            selectivities=selectivities,
            partition=partition,
            report=report,
            lower_bounds=lower_bounds,
        )


def search(
    database: GraphDatabase, index, query: LabeledGraph, sigma: float, **params
) -> SearchResult:
    """Answer one query on the reference path.

    ``params`` are :class:`ReferenceSearch`'s filtering parameters.  The
    answer ids and exact distances equal
    :meth:`repro.engine.Engine.search`'s for the same database and index.
    """
    return ReferenceSearch(database, index, **params).search(query, sigma)
