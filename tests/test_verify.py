"""Tests for the candidate-verification subsystem (repro.search.verify)."""

from __future__ import annotations

import random

import pytest

from repro.core import GraphDatabase, default_edge_mutation_distance
from repro.core.superimposed import best_superposition
from repro.engine import Engine, EngineConfig
from repro.perf import MemoCache
from repro.reference import LegacyVerifier, ReferenceSearch
from repro.search import (
    BoundedVerifier,
    NaiveSearch,
    PISearch,
    available_verifiers,
    make_verifier,
    register_verifier,
)
from repro.search.verify import (
    AUTO_VERIFIER,
    DEFAULT_VERIFIER,
    query_cache_key,
    resolve_verifier_name,
)
from repro.core.errors import EngineConfigError, UnknownComponentError

from helpers import random_molecule, random_connected_subgraph


# ----------------------------------------------------------------------
# shared setup
# ----------------------------------------------------------------------
@pytest.fixture
def query(small_database):
    """A deterministic query subgraph of the small database."""
    rng = random.Random(7)
    graph = small_database[3]
    sub = random_connected_subgraph(graph, num_edges=5, rng=rng)
    assert sub is not None
    return sub


def legacy_truth(database, measure, query, sigma):
    """Ground-truth answers/distances via the legacy sequential loop."""
    verifier = LegacyVerifier(database, measure)
    return verifier.verify(query, sigma, list(database.graph_ids()))


class EchoVerifier(LegacyVerifier):
    """A third-party verifier: the reference loop under a registry name."""

    name = "echo-test"


@pytest.fixture
def echo_verifier():
    """Register :class:`EchoVerifier` for one test."""
    from repro.search import verify as verify_module

    register_verifier(EchoVerifier)
    yield EchoVerifier.name
    del verify_module._VERIFIERS[EchoVerifier.name]


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_available_verifiers(self):
        assert available_verifiers() == ["bounded"]

    def test_auto_resolves_to_default(self):
        assert resolve_verifier_name(AUTO_VERIFIER) == DEFAULT_VERIFIER
        assert resolve_verifier_name("bounded") == "bounded"

    def test_legacy_is_not_a_production_verifier(self, small_database, edge_measure):
        with pytest.raises(UnknownComponentError):
            make_verifier("legacy", small_database, edge_measure)

    def test_make_verifier_auto(self, small_database, edge_measure):
        verifier = make_verifier("auto", small_database, edge_measure)
        assert isinstance(verifier, BoundedVerifier)

    def test_unknown_verifier(self, small_database, edge_measure):
        with pytest.raises(UnknownComponentError):
            make_verifier("nope", small_database, edge_measure)

    def test_register_verifier_roundtrip(
        self, small_database, edge_measure, echo_verifier
    ):
        assert echo_verifier in available_verifiers()
        built = make_verifier(echo_verifier, small_database, edge_measure)
        assert isinstance(built, EchoVerifier)

    def test_strategy_rejects_bad_verifier_lazily(self, small_database, edge_measure):
        strategy = NaiveSearch(small_database, edge_measure, verifier="nope")
        with pytest.raises(UnknownComponentError):
            strategy.get_verifier()


# ----------------------------------------------------------------------
# ordering + short-circuit
# ----------------------------------------------------------------------
class TestBoundedPlan:
    def test_ordering_respects_lower_bounds(self, small_database, edge_measure):
        verifier = BoundedVerifier(small_database, edge_measure)
        candidates = [0, 1, 2, 3, 4]
        bounds = {0: 2.0, 1: 0.0, 2: 1.0, 3: 0.5, 4: 9.0}
        ordered, skipped = verifier.plan(3.0, candidates, bounds)
        assert ordered == [1, 3, 2, 0]  # ascending bound
        assert skipped == [4]  # bound 9.0 > sigma 3.0

    def test_missing_bounds_keep_candidate_order(self, small_database, edge_measure):
        verifier = BoundedVerifier(small_database, edge_measure)
        ordered, skipped = verifier.plan(1.0, [5, 2, 9], None)
        assert ordered == [5, 2, 9]
        assert skipped == []

    def test_verify_runs_in_bound_order(self, small_database, edge_measure, query):
        verifier = BoundedVerifier(small_database, edge_measure)
        candidates = list(small_database.graph_ids())
        bounds = {graph_id: float(graph_id % 3) for graph_id in candidates}
        verifier.verify(query, 5.0, candidates, lower_bounds=bounds)
        observed = [bounds[graph_id] for graph_id in verifier.last_order]
        assert observed == sorted(observed)

    def test_short_circuit_never_drops_a_true_answer(
        self, small_database, edge_measure, query
    ):
        """With *valid* lower bounds the skipped candidates cannot be answers."""
        sigma = 2.0
        truth_answers, truth_distances = legacy_truth(
            small_database, edge_measure, query, sigma
        )
        # Valid bounds: half the true distance (never exceeds the truth).
        bounds = {}
        for graph_id in small_database.graph_ids():
            exact = best_superposition(
                query, small_database[graph_id], edge_measure
            ).distance
            if exact != float("inf"):
                bounds[graph_id] = exact / 2.0
            else:
                bounds[graph_id] = sigma + 100.0  # no superposition at all
        verifier = BoundedVerifier(small_database, edge_measure)
        answers, distances = verifier.verify(
            query, sigma, list(small_database.graph_ids()), lower_bounds=bounds
        )
        assert answers == truth_answers
        assert distances == truth_distances

    def test_skips_counted(self, small_database, edge_measure, query):
        verifier = BoundedVerifier(small_database, edge_measure)
        candidates = list(small_database.graph_ids())
        bounds = {graph_id: 100.0 for graph_id in candidates}
        answers, distances = verifier.verify(
            query, 1.0, candidates, lower_bounds=bounds
        )
        assert answers == [] and distances == {}
        assert verifier.counters.get("verify.lower_bound_skips") == len(candidates)
        # No distance computations happened at all.
        assert verifier.counters.get("verify.superpositions_explored") == 0


# ----------------------------------------------------------------------
# equivalence with the legacy loop
# ----------------------------------------------------------------------
class TestEquivalence:
    @pytest.mark.parametrize("sigma", [0.0, 1.0, 2.0, 4.0])
    def test_bounded_matches_legacy(self, small_database, edge_measure, query, sigma):
        truth = legacy_truth(small_database, edge_measure, query, sigma)
        verifier = BoundedVerifier(small_database, edge_measure)
        assert (
            verifier.verify(query, sigma, list(small_database.graph_ids())) == truth
        )

    def test_parallel_identical_to_serial(self, small_database, edge_measure, query):
        serial = BoundedVerifier(small_database, edge_measure)
        parallel = BoundedVerifier(small_database, edge_measure, workers=4)
        candidates = list(small_database.graph_ids())
        for sigma in (0.0, 1.0, 3.0):
            assert parallel.verify(query, sigma, candidates) == serial.verify(
                query, sigma, candidates
            )
        assert parallel.counters.get("verify.parallel_batches") > 0

    def test_workers_argument_overrides_default(
        self, small_database, edge_measure, query
    ):
        verifier = BoundedVerifier(small_database, edge_measure, workers=0)
        candidates = list(small_database.graph_ids())
        truth = legacy_truth(small_database, edge_measure, query, 2.0)
        assert (
            verifier.verify(query, 2.0, candidates, workers=3) == truth
        )
        assert verifier.counters.get("verify.parallel_batches") == 1

    def test_pis_search_matches_naive_all_paths(self, small_database, small_index):
        """End-to-end: PIS with the bounded verifier equals the naive truth."""
        rng = random.Random(17)
        queries = [
            random_connected_subgraph(small_database[i], num_edges=4, rng=rng)
            for i in (0, 5, 11)
        ]
        naive = NaiveSearch(small_database, small_index.measure)
        pis = PISearch(small_database, index=small_index)
        pis_parallel = PISearch(
            small_database, index=small_index, verify_workers=4
        )
        for query in queries:
            if query is None:
                continue
            for sigma in (1.0, 2.0):
                truth = naive.search(query, sigma)
                optimized = pis.search(query, sigma)
                parallel = pis_parallel.search(query, sigma)
                assert set(optimized.answer_ids) == set(truth.answer_ids)
                assert optimized.answer_distances == truth.answer_distances
                assert parallel.answer_ids == optimized.answer_ids
                assert parallel.answer_distances == optimized.answer_distances


# ----------------------------------------------------------------------
# memoization
# ----------------------------------------------------------------------
class TestMemoization:
    def test_repeated_query_hits_cache(self, small_database, edge_measure, query):
        verifier = BoundedVerifier(small_database, edge_measure)
        candidates = list(small_database.graph_ids())
        first = verifier.verify(query, 2.0, candidates)
        misses_after_first = verifier.distance_cache.misses
        second = verifier.verify(query, 2.0, candidates)
        assert second == first
        assert verifier.distance_cache.hits >= len(candidates)
        # The repeat did not add a single new computation.
        assert verifier.distance_cache.misses == misses_after_first

    def test_cache_shared_through_index(self, small_database, small_index, query):
        """Two strategies over one index reuse each other's distances."""
        pis = PISearch(small_database, index=small_index)
        naive = NaiveSearch(
            small_database, small_index.measure, index=small_index
        )
        small_index.clear_caches()
        naive.search(query, 2.0)  # verifies every graph, warming the cache
        hits_before = small_index.distance_cache.hits
        pis.search(query, 2.0)
        assert small_index.distance_cache.hits > hits_before

    def test_growing_sigma_refreshes_inf_entries(
        self, small_database, edge_measure, query
    ):
        verifier = BoundedVerifier(small_database, edge_measure)
        candidates = list(small_database.graph_ids())
        low = verifier.verify(query, 0.0, candidates)
        high = verifier.verify(query, 10.0, candidates)
        truth_low = legacy_truth(small_database, edge_measure, query, 0.0)
        truth_high = legacy_truth(small_database, edge_measure, query, 10.0)
        assert low == truth_low
        assert high == truth_high

    def test_shrinking_sigma_reuses_exact_entries(
        self, small_database, edge_measure, query
    ):
        verifier = BoundedVerifier(small_database, edge_measure)
        candidates = list(small_database.graph_ids())
        verifier.verify(query, 10.0, candidates)
        misses = verifier.distance_cache.misses
        low = verifier.verify(query, 1.0, candidates)
        assert verifier.distance_cache.misses == misses  # all from cache
        assert low == legacy_truth(small_database, edge_measure, query, 1.0)

    def test_query_cache_key_separates_measures(self, query, edge_measure, full_measure):
        assert query_cache_key(query, edge_measure) != query_cache_key(
            query, full_measure
        )
        assert query_cache_key(query, edge_measure) == query_cache_key(
            query, default_edge_mutation_distance()
        )


# ----------------------------------------------------------------------
# the unoptimized reference path (repro.reference)
# ----------------------------------------------------------------------
class TestOptimizationFlags:
    def test_disabled_restores_legacy_loop(self, small_database, edge_measure, query):
        """The reference verifier ignores bounds: one full search each."""
        verifier = LegacyVerifier(small_database, edge_measure)
        bounds = {graph_id: 100.0 for graph_id in small_database.graph_ids()}
        answers, distances = verifier.verify(
            query, 2.0, list(small_database.graph_ids()), lower_bounds=bounds
        )
        # Nothing was skipped and every candidate was decided by a full
        # distance computation.
        assert verifier.counters.get("verify.lower_bound_skips", None) is None
        assert verifier.counters.get("verify.candidates") == len(small_database)
        assert answers
        bounded = BoundedVerifier(small_database, edge_measure)
        assert bounded.verify(query, 2.0, list(small_database.graph_ids())) == (
            answers,
            distances,
        )

    def test_disabled_bypasses_distance_cache(
        self, small_database, small_index, query
    ):
        small_index.clear_caches()
        reference = ReferenceSearch(small_database, small_index)
        reference.search(query, 2.0)
        reference.search(query, 2.0)
        for stats in small_index.cache_stats():
            assert stats["size"] == 0, stats["name"]
            assert stats["hits"] == 0, stats["name"]

    def test_verify_flag_alone_switches_verifier(
        self, small_database, small_index, query
    ):
        """Swapping only the verifier keeps the production answers."""
        pis = PISearch(small_database, index=small_index)
        outcome = pis.filter_candidates(query, 2.0)
        legacy = LegacyVerifier(small_database, small_index.measure)
        assert legacy.verify(query, 2.0, outcome.candidate_ids) == pis.verify(
            query, 2.0, outcome.candidate_ids, lower_bounds=outcome.lower_bounds
        )

    def test_search_results_identical_disabled_vs_enabled(
        self, small_database, small_index, query
    ):
        pis = PISearch(small_database, index=small_index)
        optimized = pis.search(query, 2.0)
        legacy = ReferenceSearch(small_database, small_index).search(query, 2.0)
        assert optimized.answer_ids == legacy.answer_ids
        assert optimized.answer_distances == legacy.answer_distances
        assert optimized.candidate_ids == legacy.candidate_ids


# ----------------------------------------------------------------------
# report unification (regression: PISearch vs base template)
# ----------------------------------------------------------------------
class TestReportUnification:
    def test_all_strategies_populate_report_identically(
        self, small_database, small_index, query
    ):
        strategies = [
            PISearch(small_database, index=small_index),
            NaiveSearch(small_database, small_index.measure),
        ]
        from repro.search import TopoPruneSearch

        strategies.append(TopoPruneSearch(small_database, index=small_index))
        for strategy in strategies:
            result = strategy.search(query, 1.0)
            assert result.report.num_database_graphs == len(small_database)
            assert result.report.num_candidates == len(result.candidate_ids)

    def test_pis_report_keeps_filter_diagnostics(
        self, small_database, small_index, query
    ):
        result = PISearch(small_database, index=small_index).search(query, 1.0)
        assert result.report.num_query_fragments > 0


# ----------------------------------------------------------------------
# engine / config wiring
# ----------------------------------------------------------------------
class TestEngineWiring:
    @pytest.fixture
    def engine(self, small_database):
        config = EngineConfig(
            selector="exhaustive",
            selector_params={"max_edges": 3, "min_support": 0.2, "sample_size": 10},
        )
        return Engine.build(small_database, config)

    def test_config_round_trips_verifier_fields(self):
        config = EngineConfig(verifier="bounded", verify_workers=3)
        rebuilt = EngineConfig.from_dict(config.to_dict())
        assert rebuilt.verifier == "bounded"
        assert rebuilt.verify_workers == 3

    def test_config_rejects_bad_verifier_fields(self):
        with pytest.raises(EngineConfigError):
            EngineConfig(verifier="")
        with pytest.raises(EngineConfigError):
            EngineConfig(verify_workers=-1)
        with pytest.raises(EngineConfigError):
            EngineConfig(verify_workers="many")

    def test_engine_passes_verifier_to_strategy(self, small_database, echo_verifier):
        config = EngineConfig(
            selector="exhaustive",
            selector_params={"max_edges": 3, "min_support": 0.2, "sample_size": 10},
            verifier=echo_verifier,
            verify_workers=2,
        )
        engine = Engine.build(small_database, config)
        assert engine.strategy.verifier_name == echo_verifier
        assert engine.strategy.verify_workers == 2
        assert isinstance(engine.strategy.get_verifier(), EchoVerifier)

    def test_engine_verify_workers_per_call(self, engine, small_database, query):
        base = engine.search(query, 1.0)
        parallel = engine.search(query, 1.0, verify_workers=4)
        assert parallel.answer_ids == base.answer_ids
        assert parallel.answer_distances == base.answer_distances

    def test_search_many_verify_workers(self, engine, small_database, query):
        batch = engine.search_many([query, query], 1.0, verify_workers=3)
        serial = engine.search_many([query, query], 1.0)
        assert [r.answer_ids for r in batch] == [r.answer_ids for r in serial]

    def test_config_reassignment_rebuilds_strategy(
        self, engine, small_database, query, echo_verifier
    ):
        """Assigning engine.config must drop the cached strategy, so a
        verifier override takes effect even after the engine was queried."""
        engine.search(query, 1.0)  # builds and caches the strategy
        assert isinstance(engine.strategy.get_verifier(), BoundedVerifier)
        engine.config = engine.config.replace(verifier=echo_verifier)
        assert engine.strategy.verifier_name == echo_verifier
        assert isinstance(engine.strategy.get_verifier(), EchoVerifier)
        with pytest.raises(EngineConfigError):
            engine.config = "not a config"

    def test_saved_engine_preserves_verifier_choice(
        self, engine, small_database, tmp_path, echo_verifier
    ):
        engine.config = engine.config.replace(verifier=echo_verifier, verify_workers=2)
        path = tmp_path / "engine.json"
        engine.save(path)
        reloaded = Engine.load(path, small_database)
        assert reloaded.config.verifier == echo_verifier
        assert reloaded.config.verify_workers == 2

    def test_index_cache_stats_include_distance_cache(self, engine):
        names = {entry["name"] for entry in engine.index.cache_stats()}
        assert "verify_distance" in names

    def test_plain_contract_third_party_strategy_still_constructible(
        self, engine, query
    ):
        """Engine must not force verifier kwargs onto strategies that keep
        the documented plain (database, measure, index=None) contract."""
        from repro.search import SearchStrategy, register_strategy
        from repro.search import registry as registry_module

        class PlainStrategy(SearchStrategy):
            name = "plain-contract-test"

            def __init__(self, database, measure=None, index=None):
                super().__init__(database, measure=measure, index=index)

            def candidates(self, query, sigma):
                return list(self.database.graph_ids())

        register_strategy(PlainStrategy)
        try:
            strategy = engine.make_strategy("plain-contract-test")
            result = strategy.search(query, 1.0)
            truth = engine.make_strategy("naive").search(query, 1.0)
            assert result.answer_ids == truth.answer_ids
        finally:
            del registry_module._STRATEGIES["plain-contract-test"]


# ----------------------------------------------------------------------
# early exit in the branch-and-bound search
# ----------------------------------------------------------------------
class TestEarlyExit:
    def test_known_lower_bound_preserves_exactness(self, small_database, edge_measure):
        rng = random.Random(3)
        for _ in range(20):
            graph = small_database[rng.randrange(len(small_database))]
            query = random_connected_subgraph(graph, num_edges=4, rng=rng)
            if query is None:
                continue
            target = small_database[rng.randrange(len(small_database))]
            exact = best_superposition(query, target, edge_measure)
            bounded = best_superposition(
                query,
                target,
                edge_measure,
                known_lower_bound=exact.distance
                if exact.distance != float("inf")
                else None,
            )
            assert bounded.distance == exact.distance

    def test_early_exit_flag_reported(self, small_database, edge_measure):
        rng = random.Random(5)
        graph = small_database[0]
        query = random_connected_subgraph(graph, num_edges=4, rng=rng)
        result = best_superposition(query, graph, edge_measure)
        assert result.distance == 0.0
        # The true distance is 0, so a zero lower bound must stop the search
        # at the first perfect superposition.
        bounded = best_superposition(
            query, graph, edge_measure, known_lower_bound=0.0
        )
        assert bounded.distance == 0.0
        assert bounded.early_exit
        assert bounded.explored <= result.explored


# ----------------------------------------------------------------------
# private cache fallback for index-free strategies
# ----------------------------------------------------------------------
class TestPrivateCache:
    def test_index_free_strategy_owns_private_cache(
        self, small_database, edge_measure
    ):
        strategy = NaiveSearch(small_database, edge_measure)
        verifier = strategy.get_verifier()
        assert isinstance(verifier.distance_cache, MemoCache)

    def test_index_backed_strategy_shares_index_cache(
        self, small_database, small_index
    ):
        strategy = PISearch(small_database, index=small_index)
        assert strategy.get_verifier().distance_cache is small_index.distance_cache
