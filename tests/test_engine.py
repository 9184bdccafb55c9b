"""Tests of the :mod:`repro.engine` facade, config, and registries."""

import json

import pytest

from repro import (
    Engine,
    EngineConfig,
    ExhaustiveFeatureSelector,
    FragmentIndex,
    NaiveSearch,
    PISearch,
    QueryWorkload,
    TopoPruneSearch,
    available_selectors,
    available_strategies,
    default_edge_mutation_distance,
    generate_chemical_database,
    make_selector,
    make_strategy,
)
from repro.core import (
    EngineConfigError,
    EngineError,
    IndexNotBuiltError,
    PISError,
    SerializationError,
    UnknownComponentError,
)

SELECTOR_PARAMS = {"max_edges": 3, "min_support": 0.2}
CONFIG = EngineConfig(
    selector="exhaustive", selector_params=dict(SELECTOR_PARAMS), backend="trie"
)


@pytest.fixture(scope="module")
def database():
    """The seeded 100-graph workload database."""
    return generate_chemical_database(100, seed=11)


@pytest.fixture(scope="module")
def engine(database):
    return Engine.build(database, CONFIG)


@pytest.fixture(scope="module")
def queries(database):
    return QueryWorkload(database, seed=5).sample_queries(num_edges=8, count=4)


class TestEngineConfig:
    def test_round_trip_through_dict(self):
        config = EngineConfig(
            selector="paths",
            selector_params={"max_path_edges": 3},
            backend="rtree",
            backend_options={"max_entries": 8},
            measure={"name": "linear", "include_vertices": False, "include_edges": True},
            strategy="pis",
            strategy_params={"partition_method": "exact"},
            verify=False,
        )
        assert EngineConfig.from_dict(config.to_dict()) == config

    def test_round_trip_through_json(self):
        config = EngineConfig(selector_params={"max_edges": 4})
        reloaded = EngineConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert reloaded == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(EngineConfigError):
            EngineConfig.from_dict({"selector": "paths", "selector_prams": {}})

    def test_retired_kernel_key_is_dropped(self):
        # Engine documents written before the kernel knob was removed carry
        # "kernel"; they still load, and no other unknown key is forgiven.
        written_before = dict(CONFIG.to_dict(), kernel="auto")
        assert EngineConfig.from_dict(written_before) == CONFIG
        assert "kernel" not in EngineConfig.from_dict(written_before).to_dict()
        with pytest.raises(EngineConfigError):
            EngineConfig.from_dict(dict(written_before, kernels="auto"))
        with pytest.raises(TypeError):
            EngineConfig(kernel="array")

    def test_bad_field_types_rejected(self):
        with pytest.raises(EngineConfigError):
            EngineConfig(selector="")
        with pytest.raises(EngineConfigError):
            EngineConfig(selector_params=["max_edges"])
        with pytest.raises(EngineConfigError):
            EngineConfig(measure="mutation")

    def test_live_measure_normalised_to_spec(self):
        config = EngineConfig(measure=default_edge_mutation_distance())
        assert isinstance(config.measure, dict)
        assert config.measure["name"] == "mutation"

    def test_replace_returns_modified_copy(self):
        replaced = CONFIG.replace(strategy="topoPrune")
        assert replaced.strategy == "topoPrune"
        assert CONFIG.strategy == "pis"

    def test_copies_do_not_share_nested_dicts(self):
        config = EngineConfig(selector_params={"max_edges": 3})
        replaced = config.replace(backend="linear")
        replaced.selector_params["max_edges"] = 9
        assert config.selector_params["max_edges"] == 3
        as_dict = config.to_dict()
        as_dict["selector_params"]["max_edges"] = 7
        assert config.selector_params["max_edges"] == 3


class TestRegistries:
    def test_available_names(self):
        assert {"paths", "exhaustive", "gspan", "gindex"} <= set(available_selectors())
        assert {"pis", "naive", "topoPrune", "exact-topoPrune"} <= set(
            available_strategies()
        )

    def test_unknown_selector_raises_pis_error(self):
        with pytest.raises(UnknownComponentError) as excinfo:
            make_selector("no-such-selector")
        assert isinstance(excinfo.value, PISError)
        assert "no-such-selector" in str(excinfo.value)

    def test_unknown_strategy_raises_pis_error(self, database):
        with pytest.raises(UnknownComponentError) as excinfo:
            make_strategy("no-such-strategy", database, default_edge_mutation_distance())
        assert isinstance(excinfo.value, PISError)

    def test_bad_selector_params_raise_config_error(self):
        with pytest.raises(EngineConfigError):
            make_selector("exhaustive", no_such_param=1)

    def test_index_requiring_strategy_without_index(self, database):
        with pytest.raises(EngineConfigError):
            make_strategy("pis", database, default_edge_mutation_distance())

    def test_strategy_without_measure_raises_pis_error(self, database):
        with pytest.raises(EngineConfigError):
            make_strategy("naive", database)

    def test_make_selector_builds_configured_instance(self):
        selector = make_selector("exhaustive", **SELECTOR_PARAMS)
        assert isinstance(selector, ExhaustiveFeatureSelector)
        assert selector.max_edges == 3

    def test_unknown_component_error_round_trips_through_pickle(self):
        # Process-pool workers ship exceptions back pickled; a custom
        # __init__ signature must not break that.
        import pickle

        error = UnknownComponentError("search strategy", "nope", {"pis": None})
        reloaded = pickle.loads(pickle.dumps(error))
        assert str(reloaded) == str(error)
        assert reloaded.available == ["pis"]


class TestStrategySignatures:
    """Every strategy is instantiable with (database, measure, index=None)."""

    def test_legacy_and_unified_pis_agree(self, database, queries):
        measure = default_edge_mutation_distance()
        features = ExhaustiveFeatureSelector(**SELECTOR_PARAMS).select(database)
        index = FragmentIndex(features, measure, backend="trie").build(database)
        legacy = PISearch(index, database)
        unified = PISearch(database, index=index)
        for query in queries:
            assert (
                legacy.search(query, 1).answer_ids
                == unified.search(query, 1).answer_ids
            )

    def test_topo_prune_legacy_shim(self, small_index, small_database):
        legacy = TopoPruneSearch(small_index, small_database)
        unified = TopoPruneSearch(small_database, index=small_index)
        assert legacy.index is unified.index is small_index

    def test_legacy_extra_positionals_rejected(self, small_index, small_database):
        # In the old signature PISearch(index, db, 0.5) meant epsilon=0.5;
        # silently dropping it would change pruning behaviour.
        with pytest.raises(TypeError):
            PISearch(small_index, small_database, 0.5)
        assert PISearch(small_index, small_database, epsilon=0.5).epsilon == 0.5

    def test_missing_index_raises(self, small_database, edge_measure):
        with pytest.raises(IndexNotBuiltError):
            PISearch(small_database, edge_measure)
        with pytest.raises(IndexNotBuiltError):
            TopoPruneSearch(small_database, edge_measure)

    def test_naive_accepts_index_kwarg(self, small_database, edge_measure, small_index):
        strategy = NaiveSearch(small_database, edge_measure, index=small_index)
        assert strategy.index is small_index


class TestEngineBuildAndSearch:
    def test_matches_manual_wiring_byte_for_byte(self, database, engine, queries):
        """Engine.build + search == manual FragmentIndex/PISearch wiring."""
        measure = default_edge_mutation_distance()
        features = ExhaustiveFeatureSelector(**SELECTOR_PARAMS).select(database)
        index = FragmentIndex(features, measure, backend="trie").build(database)
        manual = PISearch(index, database)
        for query in queries:
            from_engine = engine.search(query, 1)
            from_manual = manual.search(query, 1)
            assert from_engine.answer_ids == from_manual.answer_ids
            assert from_engine.candidate_ids == from_manual.candidate_ids
            assert from_engine.answer_distances == from_manual.answer_distances

    def test_build_with_overrides(self, database, queries):
        topo_engine = Engine.build(database, CONFIG, strategy="topoPrune")
        result = topo_engine.search(queries[0], 1)
        assert result.method == "topoPrune"

    def test_strategy_is_cached(self, engine):
        assert engine.strategy is engine.strategy

    def test_make_strategy_for_cross_checks(self, engine, queries):
        naive = engine.make_strategy("naive")
        for query in queries:
            assert set(naive.search(query, 1).answer_ids) == set(
                engine.search(query, 1).answer_ids
            )

    def test_filter_only_mode(self, database, queries):
        filter_engine = Engine.build(database, CONFIG.replace(verify=False))
        full_engine = Engine.build(database, CONFIG)
        full_result = full_engine.search(queries[0], 1)
        result = filter_engine.search(queries[0], 1)
        assert result.answer_ids == []
        assert result.candidate_ids == full_result.candidate_ids
        assert result.method.endswith("(filter-only)")
        # The full pruning report survives — it is the point of the mode.
        assert result.report.as_dict() == full_result.report.as_dict()
        assert result.report.num_query_fragments > 0

    def test_from_index_wraps_prebuilt_index(self, database, queries):
        measure = default_edge_mutation_distance()
        features = ExhaustiveFeatureSelector(**SELECTOR_PARAMS).select(database)
        index = FragmentIndex(features, measure, backend="trie").build(database)
        engine = Engine.from_index(database, index)
        assert engine.config.measure["name"] == "mutation"
        # Feature provenance is unknown, so the config must not pretend the
        # default selector built this index.
        assert engine.config.selector == "prebuilt"
        assert engine.search(queries[0], 1).answer_ids == PISearch(
            index, database
        ).search(queries[0], 1).answer_ids

    def test_stats_summarises_components(self, engine, database):
        stats = engine.stats()
        assert stats["num_graphs"] == len(database)
        assert stats["strategy"] == "pis"
        assert stats["index"]["num_classes"] == engine.index.num_classes


class TestBatchSearch:
    def test_search_many_matches_sequential(self, engine, queries):
        sequential = [engine.search(query, 1) for query in queries]
        batch = engine.search_many(queries, 1, workers=4)
        assert batch.num_queries == len(queries)
        assert batch.workers == 4 and batch.executor == "thread"
        for one, many in zip(sequential, batch):
            assert one.answer_ids == many.answer_ids
            assert one.candidate_ids == many.candidate_ids
            assert one.answer_distances == many.answer_distances

    def test_sequential_fallback(self, engine, queries):
        batch = engine.search_many(queries, 1)
        assert batch.executor == "sequential" and batch.workers == 1
        assert [result.answer_ids for result in batch] == [
            engine.search(query, 1).answer_ids for query in queries
        ]

    def test_timing_aggregation(self, engine, queries):
        batch = engine.search_many(queries, 1, workers=2)
        assert batch.wall_seconds > 0
        assert batch.total_prune_seconds >= 0
        assert batch.total_seconds == pytest.approx(
            sum(result.total_seconds for result in batch.results)
        )
        summary = batch.as_dict()
        assert summary["num_queries"] == len(queries)
        assert len(summary["results"]) == len(queries)

    def test_invalid_executor_rejected(self, engine, queries):
        with pytest.raises(EngineConfigError):
            engine.search_many(queries, 1, workers=2, executor="fibers")


class TestEnginePersistence:
    def test_save_load_answers_identically(self, tmp_path, database, engine, queries):
        path = tmp_path / "engine.json"
        engine.save(path)
        reloaded = Engine.load(path, database)
        assert reloaded.config == engine.config
        for query in queries:
            original = engine.search(query, 1)
            from_disk = reloaded.search(query, 1)
            assert original.answer_ids == from_disk.answer_ids
            assert original.candidate_ids == from_disk.candidate_ids
            assert original.answer_distances == from_disk.answer_distances

    def test_load_engine_saved_with_kernel_field(self, tmp_path, database, engine, queries):
        path = tmp_path / "engine.json"
        engine.save(path)
        document = json.loads(path.read_text(encoding="utf-8"))
        document["config"]["kernel"] = "legacy"
        path.write_text(json.dumps(document), encoding="utf-8")
        reloaded = Engine.load(path, database)
        assert reloaded.config == engine.config
        assert (
            reloaded.search(queries[0], 1).answer_ids
            == engine.search(queries[0], 1).answer_ids
        )

    def test_load_rejects_wrong_database(self, tmp_path, database, engine):
        path = tmp_path / "engine.json"
        engine.save(path)
        other = generate_chemical_database(7, seed=2)
        with pytest.raises(EngineError):
            Engine.load(path, other)

    def test_load_rejects_same_size_different_database(self, tmp_path, database, engine):
        # Same graph count, different graphs: the ids in the index would
        # silently point at unrelated graphs.
        path = tmp_path / "engine.json"
        engine.save(path)
        same_size = generate_chemical_database(len(database), seed=2)
        with pytest.raises(EngineError):
            Engine.load(path, same_size)

    def test_load_rejects_non_engine_file(self, tmp_path, database):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(SerializationError):
            Engine.load(path, database)

    def test_load_rejects_unreadable_file(self, tmp_path, database):
        with pytest.raises(SerializationError):
            Engine.load(tmp_path / "missing.json", database)

    def test_save_to_unwritable_path_raises_pis_error(self, tmp_path, engine):
        with pytest.raises(SerializationError):
            engine.save(tmp_path / "no-such-dir" / "engine.json")

    def test_backend_options_survive_save_load(self, tmp_path, database, queries):
        config = EngineConfig(
            selector="paths",
            selector_params={"max_path_edges": 2, "include_cycles": False},
            backend="vptree",
            backend_options={"seed": 23},
        )
        engine = Engine.build(database, config)
        path = tmp_path / "engine.json"
        engine.save(path)
        reloaded = Engine.load(path, database)
        assert reloaded.index.backend_options == {"seed": 23}
        assert (
            reloaded.search(queries[0], 1).answer_ids
            == engine.search(queries[0], 1).answer_ids
        )
