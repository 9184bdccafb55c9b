"""Tests for the global query planner (PR 9).

Covers :class:`repro.search.planner.GlobalPlanner` /
:class:`~repro.search.planner.QueryPlan` (plan-once caching, generation
keying, pickling), the plan/execute split in
:class:`~repro.search.pis.PISearch` (byte-identical outcomes to the
legacy filter), the randomized property test — after interleaved
add/remove mutations, planned search is byte-identical (ids + distances +
reports) to a rebuild over the same features, and answer-identical to the
single-pass reference search of :mod:`repro.reference` — the
``num_database_graphs`` report field, plans shipped through every
executor, cache warming
(:meth:`Engine.warm`), ``Engine.explain``, the ``plan_cache`` serving
stats, and the ``pis explain`` / ``pis serve --warm`` CLI surface.
"""

from __future__ import annotations

import copy
import json
import pickle
import random

import pytest

from repro.cli import _load_warm_queries, main as cli_main
from repro.core.errors import EngineConfigError
from repro.datasets.generator import generate_chemical_database
from repro.datasets.queries import QueryWorkload
from repro.engine import Engine, EngineConfig
from repro.index import FragmentIndex
from repro.reference import ReferenceSearch
from repro.search import GlobalPlanner, PISearch, QueryPlan

SELECTOR_PARAMS = {
    "max_edges": 3,
    "min_support": 0.1,
    "max_features": 40,
    "sample_size": 15,
}

CONFIG = dict(selector="exhaustive", selector_params=dict(SELECTOR_PARAMS))


def answers_payload(result):
    """JSON-comparable (ids, distances) payload of one search result."""
    return (
        list(result.answer_ids),
        {graph_id: result.answer_distances[graph_id] for graph_id in result.answer_ids},
    )


def full_payload(result):
    """Byte-identity payload: answers, distances, candidates, AND report."""
    return answers_payload(result) + (
        list(result.candidate_ids),
        result.report.as_dict(),
    )


@pytest.fixture(scope="module")
def database():
    return generate_chemical_database(20, seed=7)


@pytest.fixture(scope="module")
def plain(database):
    """An engine over a copy of the module database."""
    return Engine.build(copy.deepcopy(database), EngineConfig(**CONFIG))


@pytest.fixture(scope="module")
def queries(database):
    return QueryWorkload(database, seed=3).sample_queries(num_edges=6, count=3)


# ----------------------------------------------------------------------
# GlobalPlanner: caching, generation keying, pickling, plan execution
# ----------------------------------------------------------------------
class TestGlobalPlanner:
    def test_repeated_planning_hits_the_cache(self, plain, queries):
        planner = plain.planner
        assert isinstance(planner, GlobalPlanner)
        hits_before = planner.cache_stats()["hits"]
        first = planner.plan(queries[0], 2.0)
        second = planner.plan(queries[0], 2.0)
        assert second is first  # cache-served, not recomputed
        assert planner.cache_stats()["hits"] == hits_before + 1

    def test_search_populates_and_reuses_the_plan_cache(self, database, queries):
        engine = Engine.build(copy.deepcopy(database), EngineConfig(**CONFIG))
        planner = engine.planner
        engine.search(queries[0], 2.0)
        misses = planner.cache_stats()["misses"]
        hits = planner.cache_stats()["hits"]
        engine.search(queries[0], 2.0)
        assert planner.cache_stats()["misses"] == misses
        assert planner.cache_stats()["hits"] == hits + 1
        assert engine.index.counters.get("plan.cache_hits", 0.0) >= 1.0

    def test_mutation_invalidates_via_generation_key(self, database, queries):
        engine = Engine.build(copy.deepcopy(database), EngineConfig(**CONFIG))
        first = engine.planner.plan(queries[0], 2.0)
        extra = list(generate_chemical_database(1, seed=55))
        engine.add_graphs(extra)
        second = engine.planner.plan(queries[0], 2.0)
        assert second is not first
        assert second.generation > first.generation

    def test_plan_disabled_without_cache_optimizations(self, plain, queries):
        """The single-pass reference filter runs without a plan."""
        result = ReferenceSearch(plain.database, plain.index).search(queries[0], 2.0)
        assert result.report.planned is False
        assert result.plan is None
        planned = plain.search(queries[0], 2.0)
        assert planned.report.planned is True
        assert planned.answer_ids == result.answer_ids

    def test_plan_pickles_and_executes_identically(self, plain, queries):
        strategy = plain.strategy
        assert isinstance(strategy, PISearch)
        plan = strategy.plan(queries[0], 2.0)
        restored = pickle.loads(pickle.dumps(plan))
        assert isinstance(restored, QueryPlan)
        original = strategy.execute_plan(plan)
        replayed = strategy.execute_plan(restored)
        assert replayed.candidate_ids == original.candidate_ids
        assert replayed.report.as_dict() == original.report.as_dict()

    def test_planned_outcome_matches_legacy_filter(self, plain, queries):
        """The plan/execute split is a pure refactor of the filter phase."""
        strategy = plain.strategy
        for query in queries:
            for sigma in (1.0, 2.0):
                plan = strategy.plan(query, sigma)
                planned = strategy.execute_plan(plan)
                legacy = ReferenceSearch(
                    plain.database, plain.index
                ).filter_candidates(query, sigma)
                assert planned.candidate_ids == legacy.candidate_ids
                assert planned.lower_bounds == legacy.lower_bounds
                legacy_report = legacy.report.as_dict()
                planned_report = planned.report.as_dict()
                # Only the planner-provenance fields may differ.
                for field in ("planned", "estimated_candidates"):
                    planned_report.pop(field)
                    legacy_report.pop(field)
                assert planned_report == legacy_report

    def test_plan_as_dict_is_json_friendly(self, plain, queries):
        plan = plain.planner.plan(queries[0], 2.0)
        document = json.loads(json.dumps(plan.as_dict()))
        assert document["num_database_graphs"] == len(plain.database)
        assert document["num_fragments"] == plan.num_fragments
        assert document["estimated_candidates"] >= 0


# ----------------------------------------------------------------------
# report fields: the planned search states the live database size
# ----------------------------------------------------------------------
class TestGlobalReportFields:
    def test_report_counts_global_graphs(self, plain, queries):
        expected = len(plain.database)
        result = plain.search(queries[0], 2.0)
        assert result.report.num_database_graphs == expected
        assert result.report.planned is True
        assert result.plan is not None
        legacy = ReferenceSearch(plain.database, plain.index).search(queries[0], 2.0)
        assert legacy.report.num_database_graphs == expected
        assert legacy.report.planned is False

    def test_report_round_trips_planner_fields(self, plain, queries):
        result = plain.search(queries[0], 2.0)
        document = result.report.as_dict()
        assert document["planned"] is True
        assert document["estimated_candidates"] == result.plan.estimated_candidates


# ----------------------------------------------------------------------
# the property test: planned search after mutations == rebuild, byte for byte
# ----------------------------------------------------------------------
def planner_scenario(seed):
    """One random add/remove interleaving, then planned vs rebuilt search."""
    base = generate_chemical_database(14, seed=seed)
    plain = Engine.build(copy.deepcopy(base), EngineConfig(**CONFIG))
    pool = iter(generate_chemical_database(6, seed=seed + 100))
    rng = random.Random(seed)
    for _ in range(8):
        live = plain.database.graph_ids()
        if rng.random() < 0.5 and len(live) > 6:
            plain.remove_graphs([rng.choice(live)])
        else:
            try:
                graph = next(pool)
            except StopIteration:
                plain.remove_graphs([rng.choice(live)])
                continue
            plain.add_graphs([graph], reuse_ids=rng.random() < 0.5)

    # A from-scratch index over the mutated database, with the same
    # features: incremental updates must leave nothing to tell them apart.
    features = [class_index.skeleton for class_index in plain.index.classes()]
    rebuilt = Engine.from_index(
        plain.database,
        FragmentIndex(features, plain.measure, backend=plain.index.backend_name)
        .build(plain.database),
        config=plain.config,
    )
    queries = QueryWorkload(plain.database, seed=seed + 1).sample_queries(4, 2)
    for query in queries:
        for sigma in (1.0, 2.0):
            result = plain.search(query, sigma)
            assert result.report.planned, (seed, sigma)
            reference = full_payload(result)
            assert full_payload(rebuilt.search(query, sigma)) == reference, (
                seed,
                sigma,
            )
            # The single-pass reference search over the mutated index
            # agrees on ids, distances and candidates.
            legacy = full_payload(
                ReferenceSearch(plain.database, plain.index).search(query, sigma)
            )
            assert legacy[:3] == reference[:3], (seed, sigma)


class TestPlannedEquivalence:
    @pytest.mark.parametrize("seed", [17, 29])
    def test_planned_byte_identical_after_mutations(self, seed):
        planner_scenario(seed)

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_executors_ship_the_same_plan(self, plain, queries, executor):
        batch = plain.search_many(queries, 2.0, workers=2, executor=executor)
        for query, result in zip(queries, batch):
            assert result.report.planned
            assert full_payload(result) == full_payload(plain.search(query, 2.0))

    def test_search_many_ships_plans(self, plain, queries):
        batch = plain.search_many(queries, 2.0)
        for query, result in zip(queries, batch):
            assert result.report.planned
            assert full_payload(result) == full_payload(plain.search(query, 2.0))


# ----------------------------------------------------------------------
# warming, explain, and the serving stats surface
# ----------------------------------------------------------------------
class TestWarmAndExplain:
    def test_warm_precomputes_plans(self, database, queries):
        engine = Engine.build(copy.deepcopy(database), EngineConfig(**CONFIG))
        summary = engine.warm(queries, sigmas=[1.0, 2.0])
        assert summary == {"queries": len(queries), "plans": 2 * len(queries)}
        planner = engine.planner
        misses = planner.cache_stats()["misses"]
        engine.search(queries[0], 2.0)  # plan already warm
        assert planner.cache_stats()["misses"] == misses

    def test_warm_without_sigmas_only_touches_fragments(self, database, queries):
        engine = Engine.build(copy.deepcopy(database), EngineConfig(**CONFIG))
        assert engine.warm(queries) == {"queries": len(queries), "plans": 0}

    def test_explain_reports_plan_and_actuals(self, plain, queries):
        document = plain.explain(queries[0], 2.0)
        assert document["planned"] is True
        assert document["plan"]["num_database_graphs"] == len(plain.database)
        assert document["estimated_candidates"] >= 0
        assert document["actual_candidates"] == len(
            plain.search(queries[0], 2.0).candidate_ids
        )
        assert document["plan_cache"]["name"] == "plan"
        json.dumps(document)  # JSON-friendly end to end

    def test_serving_stats_expose_plan_cache(self, plain):
        stats = plain.serving_stats()
        assert stats["plan_cache"]["name"] == "plan"
        assert stats["plan_cache"]["maxsize"] == plain.config.plan_cache_size

    def test_zero_plan_cache_answers_like_default(self, database, queries):
        # plan_cache_size=0 used to crash the first search ("maxsize must be
        # positive"); it now plans afresh every time and stores nothing.
        default = Engine.build(copy.deepcopy(database), EngineConfig(**CONFIG))
        uncached = Engine.build(
            copy.deepcopy(database), EngineConfig(plan_cache_size=0, **CONFIG)
        )
        for query in queries:
            for sigma in (1.0, 2.0):
                for _ in range(2):
                    assert full_payload(uncached.search(query, sigma)) == (
                        full_payload(default.search(query, sigma))
                    )
        stats = uncached.planner.cache_stats()
        assert stats["size"] == 0
        assert stats["hits"] == 0

    def test_plan_cache_size_config_round_trips(self):
        config = EngineConfig(plan_cache_size=16)
        assert EngineConfig.from_dict(config.to_dict()).plan_cache_size == 16
        with pytest.raises(EngineConfigError):
            EngineConfig(plan_cache_size=-1)


# ----------------------------------------------------------------------
# CLI: pis explain and the serve --warm file format
# ----------------------------------------------------------------------
class TestPlannerCLI:
    def test_explain_command(self, tmp_path, capsys):
        db_path = tmp_path / "db.json"
        engine_path = tmp_path / "engine.json"
        assert cli_main(
            ["generate", "--count", "16", "--seed", "3", "--output", str(db_path)]
        ) == 0
        assert cli_main(
            [
                "index",
                "--database", str(db_path),
                "--max-edges", "3",
                "--engine-output", str(engine_path),
            ]
        ) == 0
        capsys.readouterr()
        assert cli_main(
            [
                "explain",
                "--database", str(db_path),
                "--engine", str(engine_path),
                "--edges", "5",
                "--count", "2",
                "--sigma", "1.5",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("query ") == 2
        assert '"estimated_candidates"' in out
        assert '"actual_candidates"' in out
        assert '"partition"' in out
        assert '"plan_cache"' in out

    def test_explain_requires_one_source(self, tmp_path, capsys):
        db_path = tmp_path / "db.json"
        cli_main(["generate", "--count", "8", "--output", str(db_path)])
        capsys.readouterr()
        assert cli_main(["explain", "--database", str(db_path)]) == 2

    def test_warm_file_formats(self, tmp_path, database, queries):
        full = tmp_path / "full.json"
        full.write_text(
            json.dumps(
                {
                    "sigmas": [1.0, 2.0],
                    "queries": [query.to_dict() for query in queries],
                }
            )
        )
        warm_queries, sigmas = _load_warm_queries(full)
        assert len(warm_queries) == len(queries)
        assert sigmas == [1.0, 2.0]
        assert warm_queries[0].num_edges == queries[0].num_edges

        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps([query.to_dict() for query in queries]))
        warm_queries, sigmas = _load_warm_queries(bare)
        assert len(warm_queries) == len(queries)
        assert sigmas == []

        broken = tmp_path / "broken.json"
        broken.write_text('"not a workload"')
        with pytest.raises(EngineConfigError):
            _load_warm_queries(broken)
