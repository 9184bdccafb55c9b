"""Sharded fragment index: one global id space, N independent sub-indexes.

The PIS filter-and-verify pipeline is embarrassingly parallel across
database partitions: a query's candidate set is the disjoint union of the
candidate sets computed over each partition, and verification is exact, so
per-partition answers merge into exactly the answers an unsharded engine
returns.  :class:`ShardedFragmentIndex` exploits this by partitioning the
graph-id space across ``N`` per-shard :class:`~repro.index.FragmentIndex`
instances:

* **assignment** is deterministic round-robin — graph id ``g`` lives in
  shard ``g % N`` (:func:`shard_of`) — so routing never consults a lookup
  table and persistence needs no id map;
* **id-space alignment** — every shard covers the *global* id bound, with
  ids owned by other shards retired locally
  (:meth:`repro.index.FragmentIndex.align_id_bound` /
  :meth:`~repro.index.FragmentIndex.mark_retired`), so per-shard candidate
  fallbacks can never report a foreign id and per-shard answer sets are
  disjoint by construction;
* **the existing index interface** — the sharded index presents the full
  :class:`FragmentIndex` read interface (query-fragment enumeration, merged
  range queries, merged per-class views, statistics) so PISearch, the
  baselines, and the verifiers also work over it unchanged, while mutation
  calls (:meth:`add_graph` / :meth:`remove_graph`) route to the owning
  shard and keep every other shard's id space aligned.

The scatter-gather execution itself — running one search per shard through
a :mod:`repro.exec` executor and merging the per-shard results — lives in
:class:`repro.engine.Engine`; :func:`merge_search_results` here defines the
merge so engine code and tests share one implementation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.database import GraphDatabase
from ..core.errors import DatasetError, EngineConfigError, IndexError_
from ..core.graph import LabeledGraph
from ..exec import make_executor
from ..perf import GLOBAL_COUNTERS, MemoCache, PerfCounters
from ..search.results import PruningReport, SearchResult
from ..store.epoch import EpochManager
from .fragment_index import FragmentIndex, IndexStats, QueryFragment

__all__ = [
    "ShardedFragmentIndex",
    "ShardedIndexStats",
    "ShardDatabaseView",
    "shard_of",
    "merge_search_results",
]


def shard_of(graph_id: int, num_shards: int) -> int:
    """Owning shard of a graph id (deterministic round-robin assignment)."""
    return graph_id % num_shards


def _build_shard_task(payload: Tuple) -> FragmentIndex:
    """Worker task of the parallel sharded build: build one whole shard.

    Unlike the enumeration-only parallel build of
    :meth:`FragmentIndex.build`, the *entire* shard — fragment enumeration
    **and** backend insertion — happens in the worker, so sharded builds
    finally parallelize insertion too.  :meth:`FragmentIndex.add_graph` (not
    ``index_graph``) retires the id gaps between a shard's own graphs, which
    is what keeps foreign ids out of the shard's candidate fallbacks.
    """
    features, measure, backend, backend_options, items = payload
    shard = FragmentIndex(
        features, measure, backend=backend, backend_options=backend_options
    )
    for graph_id, graph in items:
        shard.add_graph(graph_id, graph)
    # An empty shard of an empty (or tiny) database is still "built": it
    # answers every query with zero candidates rather than refusing.
    shard._built = True
    return shard


class ShardDatabaseView:
    """Read-only view of a database restricted to one shard's graph ids.

    Per-shard search strategies take this as their ``database`` so every
    database-derived quantity — the live count behind selectivity
    estimation, the ``graph_ids()`` candidate fallback, verification
    lookups — is shard-local.  Graph ids keep their *global* values; the
    view merely hides ids owned by other shards.  Mutations go through the
    underlying database (via the engine), never through the view.
    """

    __slots__ = ("_database", "num_shards", "shard_position", "_live_count")

    def __init__(self, database: GraphDatabase, num_shards: int, shard_position: int):
        self._database = database
        self.num_shards = int(num_shards)
        self.shard_position = int(shard_position)
        # (database generation, live count) — len() runs once per query per
        # shard via SearchStrategy._database_size, so the O(id_bound) scan
        # is cached until the database mutates.
        self._live_count: Optional[Tuple[int, int]] = None

    def _owns(self, graph_id: int) -> bool:
        return shard_of(graph_id, self.num_shards) == self.shard_position

    def __getitem__(self, graph_id: int) -> LabeledGraph:
        if not self._owns(graph_id):
            raise DatasetError(
                f"graph id {graph_id} belongs to shard "
                f"{shard_of(graph_id, self.num_shards)}, not shard "
                f"{self.shard_position}"
            )
        return self._database[graph_id]

    def __len__(self) -> int:
        generation = self._database.generation
        if self._live_count is None or self._live_count[0] != generation:
            self._live_count = (generation, sum(1 for _ in self.graph_ids()))
        return self._live_count[1]

    def __iter__(self) -> Iterator[LabeledGraph]:
        return (self._database[graph_id] for graph_id in self.graph_ids())

    def __contains__(self, graph_id: object) -> bool:
        return (
            isinstance(graph_id, int)
            and self._owns(graph_id)
            and graph_id in self._database
        )

    def items(self) -> Iterator[Tuple[int, LabeledGraph]]:
        """Iterate over the shard's live ``(graph_id, graph)`` pairs."""
        return (
            (graph_id, graph)
            for graph_id, graph in self._database.items()
            if self._owns(graph_id)
        )

    def graph_ids(self) -> List[int]:
        """The shard's live graph identifiers, ascending."""
        return [
            graph_id
            for graph_id in self._database.graph_ids()
            if self._owns(graph_id)
        ]

    def removed_ids(self) -> List[int]:
        """The shard's tombstoned identifiers, ascending."""
        return [
            graph_id
            for graph_id in self._database.removed_ids()
            if self._owns(graph_id)
        ]

    @property
    def id_bound(self) -> int:
        """The *global* id bound (shared by every shard view)."""
        return self._database.id_bound

    def revision(self, graph_id: int) -> int:
        """Rebinding revision of the slot (delegates to the database)."""
        return self._database.revision(graph_id)

    # ------------------------------------------------------------------
    # pickling (views travel into process-executor workers)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        # Ship only the shard's own graphs into worker processes: foreign
        # slots travel as tombstones, so ids, revisions, and the global
        # bound stay aligned while the payload shrinks by a factor of
        # num_shards.
        database = self._database
        pruned = GraphDatabase(name=database.name)
        pruned._graphs = [
            graph if self._owns(graph_id) else None
            for graph_id, graph in enumerate(database._graphs)
        ]
        pruned._revisions = list(database._revisions)
        pruned._num_live = sum(1 for graph in pruned._graphs if graph is not None)
        pruned._generation = database.generation
        return {
            "database": pruned,
            "num_shards": self.num_shards,
            "shard_position": self.shard_position,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self._database = state["database"]
        self.num_shards = state["num_shards"]
        self.shard_position = state["shard_position"]
        self._live_count = None


class _MergedClassView:
    """Read-only merged view of one equivalence class across all shards.

    Strategies that consult per-class postings directly (topoPrune's
    containment intersection) see the union of the shards' posting lists;
    statistics sum.  Structural attributes (code, skeleton, sequencer) are
    identical in every shard, so they delegate to the first.
    """

    __slots__ = ("_classes",)

    def __init__(self, class_indexes: Sequence):
        self._classes = list(class_indexes)

    @property
    def code(self):
        """Canonical code of the class (identical in every shard)."""
        return self._classes[0].code

    @property
    def measure(self):
        """The distance measure (identical in every shard)."""
        return self._classes[0].measure

    @property
    def skeleton(self) -> LabeledGraph:
        """Canonical skeleton of the class."""
        return self._classes[0].skeleton

    @property
    def sequencer(self):
        """The class's fragment sequencer."""
        return self._classes[0].sequencer

    def containing_graphs(self) -> Set[int]:
        """Union of the shards' containing-graph sets."""
        merged: Set[int] = set()
        for class_index in self._classes:
            merged |= class_index.containing_graphs()
        return merged

    @property
    def supports_bitsets(self) -> bool:
        """Whether every shard's posting list has a valid bitset."""
        return all(c.supports_bitsets for c in self._classes)

    @property
    def containing_bits(self) -> int:
        """Bitwise OR of the shards' posting-list bitsets."""
        bits = 0
        for class_index in self._classes:
            bits |= class_index.containing_bits
        return bits

    @property
    def num_containing_graphs(self) -> int:
        """Total number of graphs containing the structure."""
        return sum(c.num_containing_graphs for c in self._classes)

    @property
    def num_occurrences(self) -> int:
        """Total occurrences across all shards."""
        return sum(c.num_occurrences for c in self._classes)

    @property
    def num_entries(self) -> int:
        """Total distinct backend entries across all shards."""
        return sum(c.num_entries for c in self._classes)

    @property
    def occurrences_by_graph(self) -> Dict[int, int]:
        """Merged per-graph occurrence counts (shards are disjoint)."""
        merged: Dict[int, int] = {}
        for class_index in self._classes:
            merged.update(class_index.occurrences_by_graph)
        return merged

    def occurrences_of(self, graph_id: int) -> int:
        """Occurrences of the structure in one graph (0 if absent)."""
        return sum(c.occurrences_of(graph_id) for c in self._classes)

    def entries(self) -> Iterator[Tuple[Any, int]]:
        """Iterate over ``(sequence, graph_id)`` entries of every shard."""
        for class_index in self._classes:
            yield from class_index.entries()

    def range_query(self, sequence, sigma: float) -> Dict[int, float]:
        """Merged range query: ``{graph_id: min distance}`` over all shards."""
        merged: Dict[int, float] = {}
        for class_index in self._classes:
            merged.update(class_index.range_query(sequence, sigma))
        return merged

    def __repr__(self) -> str:
        return f"<MergedClassView shards={len(self._classes)} code={self.code!r}>"


@dataclass(frozen=True)
class ShardedIndexStats:
    """Statistics of a sharded index: global totals plus per-shard breakdown."""

    num_shards: int
    total: IndexStats
    shards: Tuple[IndexStats, ...]

    def as_dict(self) -> Dict[str, Any]:
        """Global totals (IndexStats keys) plus ``num_shards`` and ``shards``."""
        data: Dict[str, Any] = {"num_shards": self.num_shards}
        data.update(self.total.as_dict())
        data["shards"] = [shard.as_dict() for shard in self.shards]
        return data


class ShardedFragmentIndex:
    """N per-shard fragment indexes presenting one fragment-index interface.

    Build one with :meth:`build` (partitioning a database) or construct it
    around already-built shards (persistence does).  Every shard must share
    the same feature classes, measure, and backend; shards partition the
    global graph-id space by :func:`shard_of`.

    Read methods merge across shards (so any strategy built over this index
    behaves exactly as over an unsharded index of the whole database);
    mutations route to the owning shard and keep the other shards'
    id spaces aligned.  The scatter-gather fast path — searching each shard
    independently and merging — is driven by the engine.
    """

    def __init__(self, shards: Sequence[FragmentIndex]):
        shards = list(shards)
        if not shards:
            raise EngineConfigError("a sharded index needs at least one shard")
        first = shards[0]
        for position, shard in enumerate(shards):
            if shard.num_classes != first.num_classes or list(shard.codes()) != list(
                first.codes()
            ):
                raise EngineConfigError(
                    f"shard {position} indexes different feature classes than "
                    "shard 0; all shards must share one feature set"
                )
            if shard.backend_name != first.backend_name:
                raise EngineConfigError(
                    f"shard {position} uses backend {shard.backend_name!r} but "
                    f"shard 0 uses {first.backend_name!r}"
                )
        self.shards: List[FragmentIndex] = shards
        # Topology-level reader/writer isolation: scatter-gather searches
        # pin this manager (one pin covers every shard they touch) and
        # mutations take its write side, so a reader can never interleave
        # with the multi-shard retirement protocol below.
        self.epochs = EpochManager()
        self.counters = PerfCounters(mirror=GLOBAL_COUNTERS)
        # Distance cache for strategies built over the *merged* view (the
        # scatter-gather path uses each shard's own cache instead).
        self._distance_cache = MemoCache(
            "verify_distance", maxsize=65536, counters=self.counters
        )
        # Per-generation merged range results.  The planner's range queries
        # repeat fragments across queries; without this memo every repeat
        # would re-merge all the shard maps, multiplying a cache hit's cost
        # by the shard count.
        self._range_cache = MemoCache(
            "merged_range", maxsize=4096, counters=self.counters
        )
        self.align_id_space(max(shard.num_graphs for shard in shards))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        database: GraphDatabase,
        features: Iterable[LabeledGraph],
        measure,
        num_shards: int,
        backend: str = "auto",
        backend_options: Optional[Dict[str, Any]] = None,
        workers: Optional[int] = None,
    ) -> "ShardedFragmentIndex":
        """Partition ``database`` across ``num_shards`` and build every shard.

        ``workers > 1`` builds whole shards in parallel worker processes
        (enumeration *and* backend insertion), producing shards byte-identical
        to a serial build; process availability gates the pool exactly like
        the unsharded parallel build.
        """
        num_shards = int(num_shards)
        if num_shards < 1:
            raise EngineConfigError(f"num_shards must be >= 1, got {num_shards}")
        if not isinstance(database, GraphDatabase):
            database = GraphDatabase(database)
        features = list(features)
        chunks: List[List[Tuple[int, LabeledGraph]]] = [[] for _ in range(num_shards)]
        for graph_id, graph in database.items():
            chunks[shard_of(graph_id, num_shards)].append((graph_id, graph))
        payloads = [
            (features, measure, backend, dict(backend_options or {}), chunk)
            for chunk in chunks
        ]
        pool_size = int(workers or 0)
        start = time.perf_counter()
        if pool_size > 1 and num_shards > 1:
            executor = make_executor("process", workers=min(pool_size, num_shards))
            shards = executor.map(_build_shard_task, payloads)
        else:
            shards = [_build_shard_task(payload) for payload in payloads]
        sharded = cls(shards)
        sharded.align_id_space(database.id_bound)
        sharded.counters.add_time("sharded_build", time.perf_counter() - start)
        sharded.counters.increment("sharded_build.shards", num_shards)
        return sharded

    def align_id_space(self, id_bound: int) -> None:
        """Align every shard to the same (global) graph-id bound."""
        with self.epochs.write():
            for shard in self.shards:
                shard.align_id_bound(id_bound)

    # ------------------------------------------------------------------
    # sharding topology
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Number of shards the id space is partitioned across."""
        return len(self.shards)

    def shard_for(self, graph_id: int) -> FragmentIndex:
        """The shard owning ``graph_id``."""
        return self.shards[shard_of(graph_id, self.num_shards)]

    # ------------------------------------------------------------------
    # FragmentIndex read interface (merged across shards)
    # ------------------------------------------------------------------
    @property
    def measure(self):
        """The distance measure (identical in every shard)."""
        return self.shards[0].measure

    @property
    def backend_name(self) -> str:
        """Backend name shared by every shard."""
        return self.shards[0].backend_name

    @property
    def backend_options(self) -> Dict[str, Any]:
        """Backend options shared by every shard."""
        return self.shards[0].backend_options

    @property
    def num_graphs(self) -> int:
        """Global graph-id bound (identical in every aligned shard)."""
        return max(shard.num_graphs for shard in self.shards)

    @property
    def num_live_graphs(self) -> int:
        """Total live graphs across all shards."""
        return sum(shard.num_live_graphs for shard in self.shards)

    @property
    def generation(self) -> int:
        """Sum of the shards' mutation generations (bumps on any mutation)."""
        return sum(shard.generation for shard in self.shards)

    @property
    def removed_graph_ids(self) -> FrozenSet[int]:
        """Globally retired ids: ids retired in the shard that *owns* them.

        Every shard also retires the ids owned by other shards (that is what
        keeps per-shard candidate sets disjoint), so the global view keeps
        only each id's owner verdict.
        """
        retired: Set[int] = set()
        for position, shard in enumerate(self.shards):
            retired.update(
                graph_id
                for graph_id in shard.removed_graph_ids
                if shard_of(graph_id, self.num_shards) == position
            )
        return frozenset(retired)

    def live_graph_ids(self) -> List[int]:
        """Every live graph id across all shards, ascending."""
        merged: List[int] = []
        for shard in self.shards:
            merged.extend(shard.live_graph_ids())
        return sorted(merged)

    @property
    def num_classes(self) -> int:
        """Number of structural equivalence classes (same in every shard)."""
        return self.shards[0].num_classes

    @property
    def supports_bitsets(self) -> bool:
        """Whether every shard supports bitset posting lists."""
        return all(shard.supports_bitsets for shard in self.shards)

    def codes(self) -> Iterator:
        """Iterate over the canonical codes of the indexed classes."""
        return self.shards[0].codes()

    def classes(self) -> Iterator[_MergedClassView]:
        """Iterate merged per-class views (one per equivalence class)."""
        for code in self.codes():
            yield self.get_class(code)

    def is_indexed(self, code) -> bool:
        """Return ``True`` if the structure code has an index entry."""
        return self.shards[0].is_indexed(code)

    def get_class(self, code) -> _MergedClassView:
        """Merged view of one equivalence class across all shards."""
        return _MergedClassView([shard.get_class(code) for shard in self.shards])

    def fragment_size_range(self) -> Tuple[int, int]:
        """``(min, max)`` edge counts over the indexed structures."""
        return self.shards[0].fragment_size_range()

    def stats(self) -> ShardedIndexStats:
        """Global totals plus a per-shard breakdown."""
        per_shard = tuple(shard.stats() for shard in self.shards)
        low, high = self.fragment_size_range()
        total = IndexStats(
            num_classes=self.num_classes,
            num_graphs=self.num_graphs,
            num_occurrences=sum(stats.num_occurrences for stats in per_shard),
            num_entries=sum(stats.num_entries for stats in per_shard),
            min_fragment_edges=low,
            max_fragment_edges=high,
            num_removed_graphs=len(self.removed_graph_ids),
        )
        return ShardedIndexStats(
            num_shards=self.num_shards, total=total, shards=per_shard
        )

    def enumerate_query_fragments(self, query: LabeledGraph) -> List[QueryFragment]:
        """Indexed fragments inside the query (class sets are identical in
        every shard, so shard 0 answers for all)."""
        return self.shards[0].enumerate_query_fragments(query)

    def prewarm_query_fragments(self, queries: Iterable[LabeledGraph]) -> None:
        """Enumerate each query's fragments once and seed every shard's cache.

        Fragment enumeration — a subgraph-embedding search per feature class
        — depends only on the feature set, which is identical in every
        shard; without sharing, a scatter-gather search would repeat it per
        shard.  Shard 0 computes (and caches) the result, the other shards'
        memo caches are seeded with it, and a pickled shard carries its warm
        cache into process-executor workers.
        """
        for query in queries:
            fragments = self.shards[0].enumerate_query_fragments(query)
            for shard in self.shards[1:]:
                shard.prewarm_query_fragments(query, fragments)

    def range_query(self, fragment: QueryFragment, sigma: float) -> Dict[int, float]:
        """Merged range query over all shards.

        Shard ids are disjoint, so the merged map is a plain union: its
        length is the global ``|T|``, and the planner's exactly rounded
        :func:`math.fsum` over its values makes selectivities bit-identical
        to an unsharded index's.  Memoized per ``(fragment, sigma,
        generation)``, so mutations invalidate without an explicit clear.
        The returned mapping must not be mutated.
        """
        key = (fragment.code, fragment.sequence, float(sigma), self.generation)
        merged = self._range_cache.get(key)
        if merged is MemoCache.MISS:
            merged = {}
            for shard in self.shards:
                merged.update(shard.range_query(fragment, sigma))
            self._range_cache.put(key, merged)
        return merged

    # ------------------------------------------------------------------
    # caches / counters
    # ------------------------------------------------------------------
    @property
    def distance_cache(self) -> MemoCache:
        """Distance cache for strategies built over the merged view."""
        return self._distance_cache

    def clear_caches(self) -> None:
        """Drop the merged-view caches and every shard's memo caches."""
        self._distance_cache.clear()
        self._range_cache.clear()
        for shard in self.shards:
            shard.clear_caches()

    def cache_stats(self) -> List[Dict[str, Any]]:
        """Accounting of the merged-view caches plus every shard's caches."""
        stats = [
            self._distance_cache.stats(),
            self._range_cache.stats(),
        ]
        for shard in self.shards:
            stats.extend(shard.cache_stats())
        return stats

    # ------------------------------------------------------------------
    # incremental updates (routed to the owning shard)
    # ------------------------------------------------------------------
    def _route_insertion(
        self, graph_id: int, graph: LabeledGraph, permissive: bool
    ) -> int:
        """Index one graph in its owning shard; retire the id everywhere else.

        The single implementation behind :meth:`add_graph` (strict id
        bookkeeping) and :meth:`index_graph` (permissive), so the two
        mutation paths can never desynchronize the retirement protocol.
        """
        owner_position = shard_of(graph_id, self.num_shards)
        owner = self.shards[owner_position]
        with self.epochs.write():
            total = (
                owner.index_graph(graph_id, graph)
                if permissive
                else owner.add_graph(graph_id, graph)
            )
            for position, shard in enumerate(self.shards):
                if position != owner_position:
                    shard.mark_retired(graph_id)
            self._distance_cache.clear()
        return total

    def add_graph(self, graph_id: int, graph: LabeledGraph) -> int:
        """Incrementally index one graph in its owning shard.

        Every other shard retires the id so all shards stay aligned on one
        global id space.  Returns the number of occurrences indexed.
        """
        return self._route_insertion(graph_id, graph, permissive=False)

    def add_graphs(self, graphs: Iterable[Tuple[int, LabeledGraph]]) -> int:
        """Incrementally index ``(graph_id, graph)`` pairs; returns occurrences."""
        return sum(self.add_graph(graph_id, graph) for graph_id, graph in graphs)

    def index_graph(self, graph_id: int, graph: LabeledGraph) -> int:
        """Permissive single-graph indexing, routed like :meth:`add_graph`."""
        return self._route_insertion(graph_id, graph, permissive=True)

    def remove_graph(self, graph_id: int) -> int:
        """Remove one graph from its owning shard; returns entries removed."""
        owner = shard_of(graph_id, self.num_shards)
        if graph_id >= self.num_graphs:
            raise IndexError_(f"graph id {graph_id!r} is not a live indexed graph")
        with self.epochs.write():
            removed = self.shards[owner].remove_graph(graph_id)
            self._distance_cache.clear()
        return removed

    def remove_graphs(self, graph_ids: Iterable[int]) -> int:
        """Remove several graphs; returns total backend entries removed."""
        return sum(self.remove_graph(graph_id) for graph_id in list(graph_ids))

    def __repr__(self) -> str:
        return (
            f"<ShardedFragmentIndex shards={self.num_shards} "
            f"classes={self.num_classes} graphs={self.num_graphs} "
            f"measure={self.measure.name}>"
        )


def merge_search_results(
    shard_results: Sequence[SearchResult],
    num_database_graphs: int,
    num_shards: int,
) -> SearchResult:
    """Merge one query's per-shard results into one global result.

    Shards partition the graph-id space, so candidate and answer sets are
    disjoint: the merged lists are the sorted concatenations (ascending id
    order, exactly how an unsharded search reports them), distances union,
    and counters / phase timings sum — every unit of per-shard work appears
    exactly once in the merged counters.  Report fields that partition
    (structure candidates, candidates) sum; query-side fields that are
    computed per shard from the same query (fragment counts, partition size)
    take the maximum rather than a meaningless sum.
    """
    if not shard_results:
        raise EngineConfigError("cannot merge zero shard results")
    first = shard_results[0]
    candidate_ids = sorted(
        graph_id for result in shard_results for graph_id in result.candidate_ids
    )
    answer_ids = sorted(
        graph_id for result in shard_results for graph_id in result.answer_ids
    )
    answer_distances: Dict[int, float] = {}
    counters: Dict[str, float] = {}
    for result in shard_results:
        answer_distances.update(result.answer_distances)
        for name, value in result.counters.items():
            counters[name] = counters.get(name, 0.0) + value
    report = PruningReport(
        num_database_graphs=num_database_graphs,
        num_query_fragments=max(
            result.report.num_query_fragments for result in shard_results
        ),
        num_fragments_after_epsilon=max(
            result.report.num_fragments_after_epsilon for result in shard_results
        ),
        partition_size=max(
            result.report.partition_size for result in shard_results
        ),
        partition_weight=max(
            result.report.partition_weight for result in shard_results
        ),
        num_structure_candidates=sum(
            result.report.num_structure_candidates for result in shard_results
        ),
        num_candidates=len(candidate_ids),
        # A shipped plan reaches every shard or none, so these are identical
        # across the shard reports; max/any keeps the merge shape uniform.
        planned=any(result.report.planned for result in shard_results),
        estimated_candidates=max(
            result.report.estimated_candidates for result in shard_results
        ),
    )
    return SearchResult(
        sigma=first.sigma,
        candidate_ids=candidate_ids,
        answer_ids=answer_ids,
        answer_distances=answer_distances,
        prune_seconds=sum(result.prune_seconds for result in shard_results),
        verify_seconds=sum(result.verify_seconds for result in shard_results),
        report=report,
        method=f"{first.method}[shards={num_shards}]",
        counters=counters,
        plan=first.plan,
    )
