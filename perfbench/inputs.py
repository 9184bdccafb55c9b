"""Seeded inputs shared by every workload.

Everything a workload feeds the program — the database, the engine
configuration, the query pairs, the fresh graphs of the update ops — is a
pure function of the workload seed, so the same seed always yields the
same bytes (:func:`digest` checks this).
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Iterable, List, Sequence, Tuple

from repro import EngineConfig, QueryWorkload, generate_chemical_database
from repro.core.graph import LabeledGraph
from repro.perf import graph_signature

#: Database size.  Two set-ups per run, the measured loop and a naive
#: reference check have to fit a run of under a minute, on a 2-core box
#: whose speed halves at times; a 1000-graph build alone takes 10-15 s.
NUM_GRAPHS = 250

#: Feature-selection settings of the perf gate's full mode; every other
#: engine setting keeps its production default (1 shard, no pools).
SELECTOR_PARAMS = dict(max_edges=5, max_features=200, sample_size=30, min_support=0.08)

#: Offset giving the update ops' fresh graphs a generator seed of their own.
FRESH_SEED_OFFSET = 1_000_003
#: Offset between the corpora of one run's engines.
CORPUS_SEED_STEP = 1_000_033

#: Update ops timed per run, one after another (each removes 2 graphs,
#: adds 2).
#: One op's cost follows the size of the graphs it adds, so a median over
#: 40 ops still moved by a third between runs; 100 ops steady it.
UPDATE_OPS = 100
GRAPHS_PER_UPDATE = 2

Pair = Tuple[LabeledGraph, float]


def make_database(seed: int):
    """The workload database: ``NUM_GRAPHS`` chemical-like graphs."""
    return generate_chemical_database(NUM_GRAPHS, seed)


def corpus_seeds(seed: int, count: int) -> List[int]:
    """Seeds of ``count`` databases for one run; the first is ``seed``.

    The engine's features are mined from a 30-graph sample of its
    database, so one database draw moves every search's cost: the median
    Q24 search differed by up to 25% between seeds.  A run that measures
    several engines, each over its own seeded database, averages that.
    """
    return [seed + index * CORPUS_SEED_STEP for index in range(count)]


def engine_config(seed: int) -> EngineConfig:
    """The measured engine's configuration."""
    return EngineConfig(selector_params=dict(SELECTOR_PARAMS, seed=seed))


def reference_config(seed: int) -> EngineConfig:
    """The reference engine: ``naive`` strategy, which scans every graph.

    Naive search ignores the fragment index, so it is built with the
    cheapest feature set; it shares no index, plan, result or distance
    cache with the measured engine.
    """
    return EngineConfig(
        strategy="naive",
        selector_params=dict(max_edges=1, max_features=1, sample_size=5, seed=seed),
    )


def distinct_pairs(
    database, seed: int, num_edges: int, sigmas: Sequence[float], count: int
) -> List[Pair]:
    """``count`` pairs of distinct ``num_edges``-edge queries, sigma cycling.

    Duplicate samples are dropped, so no pair can hit a plan, result or
    query-fragment cache entry left by an earlier pair.
    """
    queries = QueryWorkload(database, seed).sample_queries(num_edges, count * 2)
    pairs: List[Pair] = []
    seen = set()
    for query in queries:
        signature = graph_signature(query)
        if signature in seen:
            continue
        seen.add(signature)
        pairs.append((query, float(sigmas[len(pairs) % len(sigmas)])))
        if len(pairs) == count:
            return pairs
    raise RuntimeError(
        f"only {len(pairs)} distinct Q{num_edges} queries; need {count}"
    )


def hot_pairs(database, seed: int, size: int) -> List[Pair]:
    """The serving hot set: Q12 and Q16 queries, each with sigma 1 and 2.

    Ordered by a seeded shuffle, which is the popularity rank the Zipf
    sampler draws from.
    """
    per_size = size // 4
    pairs: List[Pair] = []
    for num_edges in (12, 16):
        for query, _ in distinct_pairs(database, seed, num_edges, (1.0,), per_size):
            pairs.extend([(query, 1.0), (query, 2.0)])
    random.Random(seed).shuffle(pairs)
    return pairs


def cold_pairs(database, seed: int, count: int, hot: List[Pair]) -> List[Pair]:
    """One-off serving reads: Q12 and Q16 queries outside the hot set.

    Each is asked once, so each is a cold search: the long tail of a
    popularity distribution.
    """
    hot_signatures = {graph_signature(query) for query, _ in hot}
    candidates = [
        pair
        for pairs in zip(
            distinct_pairs(database, seed + 1, 12, (1.0, 2.0), count),
            distinct_pairs(database, seed + 1, 16, (2.0, 1.0), count),
        )
        for pair in pairs
        if graph_signature(pair[0]) not in hot_signatures
    ]
    return candidates[:count]


def fresh_graphs(seed: int, count: int) -> List[LabeledGraph]:
    """Graphs for the update ops, from a generator seed of their own."""
    return list(generate_chemical_database(count, seed + FRESH_SEED_OFFSET))


def digest(database, pairs: Iterable[Pair], extra=None) -> str:
    """SHA-256 over the canonical JSON of every generated input."""
    payload = {
        "database": [graph.to_dict() for graph in database],
        "pairs": [[query.to_dict(), sigma] for query, sigma in pairs],
        "extra": extra,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
