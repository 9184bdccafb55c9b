"""Per-layer metrics: span summaries and program counters -> named values.

Every workload reports every per-layer metric; a layer a workload does not
exercise reads 0.  Time metrics (``*.ms``, ``*_ms``) are mean self time
per request of the named span, so along one request they add up to its
wall time.  Count metrics are per search request over the first
``WORK_COUNT_SEARCHES`` searches of a run, which every run completes, so
they repeat exactly for a seed.
"""

from __future__ import annotations

from typing import Dict, Mapping

from tracing import LayerSummary, requests_by_root

#: Searches whose work is counted (a fixed prefix of every run).
WORK_COUNT_SEARCHES = 24


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def search_metrics(
    timed: LayerSummary,
    counted: LayerSummary,
    counters: Mapping[str, float],
    searches: int,
    live_graphs: int,
) -> Dict[str, float]:
    """Metrics of the search path.

    ``timed`` summarizes every traced search, ``counted`` the traced
    searches among the counted prefix; ``counters`` sums the program's own
    per-query counter deltas over the ``searches`` searches of that prefix.
    """
    candidates = counted.count("search.pis.execute")
    return {
        "index.enumerate.ms": timed.self_ms("index.enumerate"),
        "index.enumerate.fragments": counted.count("index.enumerate"),
        "index.range_query.ms": timed.self_ms("index.range_query"),
        "index.range_query.calls": counted.calls("index.range_query"),
        "index.range_query.memo_hit_ratio": _ratio(
            counters.get("range_query.cache_hits", 0.0),
            counters.get("range_query.cache_hits", 0.0)
            + counters.get("range_query.cache_misses", 0.0),
        ),
        "search.partition.ms": timed.self_ms("search.partition"),
        "search.partition.nodes": counted.count("search.partition"),
        "search.planner.self_ms": timed.self_ms("search.planner"),
        "search.planner.cache_hit_ratio": _ratio(
            counters.get("plan.cache_hits", 0.0),
            counters.get("plan.cache_hits", 0.0) + counters.get("plan.cache_misses", 0.0),
        ),
        "search.pis.execute.ms": timed.self_ms("search.pis.execute"),
        "search.pis.candidates": candidates,
        "search.pis.candidate_ratio": _ratio(candidates, live_graphs),
        "search.verify.ms": timed.self_ms("search.verify"),
        "search.verify.answer_ratio": _ratio(
            counted.total_count("search.verify"), counted.total_count("search.pis.execute")
        ),
        "search.verify.nodes_expanded": _ratio(
            counters.get("verify.nodes_expanded", 0.0), searches
        ),
        "search.verify.distance_memo_hit_ratio": _ratio(
            counters.get("verify_distance.cache_hits", 0.0),
            counters.get("verify_distance.cache_hits", 0.0)
            + counters.get("verify_distance.cache_misses", 0.0),
        ),
        "core.kernel.calls": counted.calls("core.kernel"),
        "core.kernel.ms": timed.self_ms("core.kernel"),
        "engine.search.self_ms": timed.self_ms("engine.search"),
        "store.epoch.read_wait_ms": timed.self_ms("store.epoch.read_wait"),
    }


def update_metrics(updates: LayerSummary, wal_bytes: int) -> Dict[str, float]:
    """Metrics of the write path, per update op (a remove + an add batch)."""
    return {
        "engine.add_graphs.ms": updates.self_ms("engine.add_graphs"),
        "engine.remove_graphs.ms": updates.self_ms("engine.remove_graphs"),
        "store.wal.append.ms": updates.self_ms("store.wal.append"),
        "store.wal.bytes": _ratio(wal_bytes, updates.requests),
        "store.epoch.write_wait_ms": updates.self_ms("store.epoch.write_wait"),
    }


def setup_metrics(spans, index_entries: int) -> Dict[str, float]:
    """Set-up layers: feature mining and the index build, each its own root."""
    roots = requests_by_root(spans)
    return {
        "mining.select.s": LayerSummary(roots["mining.select"]).median_wall_ms() / 1000.0,
        "index.build.s": LayerSummary(roots["index.build"]).median_wall_ms() / 1000.0,
        "index.entries": float(index_entries),
    }


def work_counts(counters: Mapping[str, float], searches: int, answers: int) -> Dict:
    """The exactly-repeating work totals recorded beside every timing."""
    keys = {
        "range_query_calls": "range_query.calls",
        "range_query_memo_hits": "range_query.cache_hits",
        "fragments": "query_fragments.enumerated",
        "candidates": "filter.candidates",
        "nodes_expanded": "verify.nodes_expanded",
    }
    counts = {name: int(counters.get(key, 0)) for name, key in keys.items()}
    counts["answers"] = int(answers)
    counts["searches"] = int(searches)
    return counts
