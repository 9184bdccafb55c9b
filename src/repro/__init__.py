"""PIS — Partition-based Graph Index and Search.

A complete, pure-Python implementation of the system described in
"Searching Substructures with Superimposed Distance" (Yan, Zhu, Han, Yu —
ICDE 2006): substructure search in graph databases under superimposed
(mutation / linear mutation) distance constraints, using a fragment-based
index and a partition-based search with a greedy MWIS partition.

Quickstart
----------
The :class:`Engine` facade is the primary API: configure it declaratively,
build it over a database, and search.

>>> from repro import Engine, EngineConfig, QueryWorkload, generate_chemical_database
>>> db = generate_chemical_database(50, seed=1)
>>> config = EngineConfig(
...     selector="exhaustive", selector_params={"max_edges": 3, "min_support": 0.2}
... )
>>> engine = Engine.build(db, config)
>>> query = QueryWorkload(db, seed=3).sample_queries(num_edges=8, count=1)[0]
>>> result = engine.search(query, sigma=1)
>>> result.num_answers <= result.num_candidates <= len(db)
True

Batches run in a worker pool, and a saved engine reloads with identical
behaviour:

>>> queries = QueryWorkload(db, seed=4).sample_queries(num_edges=8, count=4)
>>> batch = engine.search_many(queries, sigma=1, workers=4)
>>> batch.num_queries
4
>>> import tempfile, os
>>> with tempfile.TemporaryDirectory() as tmp:
...     path = os.path.join(tmp, "engine.json")
...     engine.save(path)
...     reloaded = Engine.load(path, db)
...     reloaded.search(query, sigma=1).answer_ids == result.answer_ids
True

The individual components (selectors, :class:`FragmentIndex`, strategies)
remain public for manual wiring; ``PISearch(index, db).search(query, 1)``
still works exactly as before.
"""

from .core import (
    DEFAULT_LABEL,
    INFINITE_DISTANCE,
    DatabaseStats,
    DistanceMeasure,
    Embedding,
    GraphDatabase,
    GraphStats,
    LabeledGraph,
    LinearMutationDistance,
    MutationDistance,
    MutationScoreMatrix,
    PISError,
    SuperpositionResult,
    automorphisms,
    best_superposition,
    default_edge_mutation_distance,
    find_embeddings,
    graph_pair_distance,
    has_embedding,
    is_isomorphic,
    is_subgraph,
    iter_embeddings,
    labeled_code,
    min_dfs_code,
    minimum_superimposed_distance,
    structure_code,
    within_distance,
)
from .datasets import (
    ChemicalGeneratorConfig,
    ChemicalGraphGenerator,
    QueryWorkload,
    WeightedGraphGenerator,
    example_database,
    figure2_query,
    generate_chemical_database,
    generate_weighted_database,
)
from .engine import (
    BatchSearchResult,
    Engine,
    EngineConfig,
)
from .perf import (
    GLOBAL_COUNTERS,
    MemoCache,
    PerfCounters,
)
from .exec import (
    available_executors,
    make_executor,
    register_executor,
)
from .index import (
    EquivalenceClassIndex,
    FragmentIndex,
    FragmentSequencer,
    IndexStats,
    QueryFragment,
    ShardedFragmentIndex,
    load_index,
    save_index,
)
from .mining import (
    ExhaustiveFeatureSelector,
    FeatureSelector,
    FrequentStructureMiner,
    GIndexFeatureSelector,
    GSpanFeatureSelector,
    PathFeatureSelector,
    available_selectors,
    make_selector,
    register_selector,
)
from .search import (
    BoundedVerifier,
    ExactTopoPruneSearch,
    NaiveSearch,
    PISearch,
    SearchResult,
    TopoPruneSearch,
    Verifier,
    available_strategies,
    available_verifiers,
    enhanced_greedy_mwis,
    exact_mwis,
    greedy_mwis,
    make_strategy,
    make_verifier,
    register_strategy,
    register_verifier,
    select_partition,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # engine (primary API)
    "Engine",
    "EngineConfig",
    "BatchSearchResult",
    # performance
    "PerfCounters",
    "MemoCache",
    "GLOBAL_COUNTERS",
    # registries
    "register_selector",
    "make_selector",
    "available_selectors",
    "register_strategy",
    "make_strategy",
    "available_strategies",
    "register_verifier",
    "make_verifier",
    "available_verifiers",
    "register_executor",
    "make_executor",
    "available_executors",
    # core
    "LabeledGraph",
    "GraphDatabase",
    "GraphStats",
    "DatabaseStats",
    "Embedding",
    "DistanceMeasure",
    "MutationDistance",
    "MutationScoreMatrix",
    "LinearMutationDistance",
    "default_edge_mutation_distance",
    "SuperpositionResult",
    "minimum_superimposed_distance",
    "best_superposition",
    "within_distance",
    "graph_pair_distance",
    "INFINITE_DISTANCE",
    "DEFAULT_LABEL",
    "PISError",
    "iter_embeddings",
    "find_embeddings",
    "has_embedding",
    "is_subgraph",
    "is_isomorphic",
    "automorphisms",
    "structure_code",
    "labeled_code",
    "min_dfs_code",
    # index
    "FragmentIndex",
    "ShardedFragmentIndex",
    "FragmentSequencer",
    "EquivalenceClassIndex",
    "QueryFragment",
    "IndexStats",
    "save_index",
    "load_index",
    # mining
    "FeatureSelector",
    "PathFeatureSelector",
    "ExhaustiveFeatureSelector",
    "FrequentStructureMiner",
    "GSpanFeatureSelector",
    "GIndexFeatureSelector",
    # search
    "PISearch",
    "NaiveSearch",
    "TopoPruneSearch",
    "ExactTopoPruneSearch",
    "SearchResult",
    "Verifier",
    "BoundedVerifier",
    "greedy_mwis",
    "enhanced_greedy_mwis",
    "exact_mwis",
    "select_partition",
    # datasets
    "ChemicalGraphGenerator",
    "ChemicalGeneratorConfig",
    "WeightedGraphGenerator",
    "generate_chemical_database",
    "generate_weighted_database",
    "QueryWorkload",
    "example_database",
    "figure2_query",
]
