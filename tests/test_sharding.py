"""Tests for the sharded engine stack (PR 5).

Covers the :mod:`repro.exec` executor layer (serial / thread / process,
registry, counter merging), :class:`repro.index.ShardedFragmentIndex`
(partitioning, id-space alignment, the merged read interface, parallel
builds), scatter-gather equivalence — answers byte-identical to the
unsharded engine across every executor — counter-merge exactness,
process-executor verification, schema-v4 persistence (inline and
manifest + per-shard files, with v1–v3 still loading as a single shard),
randomized add/remove/search interleavings against an unsharded engine and
a from-scratch rebuild, and the sharded CLI flow.
"""

from __future__ import annotations

import copy
import json
import random

import pytest

from repro.cli import main as cli_main
from repro.core import GraphDatabase, default_edge_mutation_distance
from repro.core.errors import (
    DatasetError,
    EngineConfigError,
    IndexError_,
    SerializationError,
    UnknownComponentError,
)
from repro.datasets.generator import generate_chemical_database
from repro.datasets.queries import QueryWorkload
from repro.engine import Engine, EngineConfig
from repro.exec import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    available_executors,
    make_executor,
)
from repro.index.fragment_index import FragmentIndex
from repro.index.persistence import (
    SHARDED_INDEX_SCHEMA_VERSION,
    index_from_dict,
    index_to_dict,
    load_index,
    save_index,
)
from repro.index.sharded import (
    ShardDatabaseView,
    ShardedFragmentIndex,
    merge_search_results,
    shard_of,
)
from repro.mining.exhaustive import ExhaustiveFeatureSelector
from repro.perf import GLOBAL_COUNTERS, PerfCounters
from repro import reference
from repro.search import BoundedVerifier, PISearch

SELECTOR_PARAMS = {
    "max_edges": 3,
    "min_support": 0.1,
    "max_features": 40,
    "sample_size": 15,
}

CONFIG = dict(selector="exhaustive", selector_params=dict(SELECTOR_PARAMS))

EXECUTORS = ("serial", "thread", "process")


def chem_features(database):
    """Deterministic feature set shared by sharded and unsharded indexes."""
    return ExhaustiveFeatureSelector(**SELECTOR_PARAMS).select(database)


def answers_payload(result):
    """JSON-comparable (ids, distances) payload of one search result."""
    return (
        list(result.answer_ids),
        {graph_id: result.answer_distances[graph_id] for graph_id in result.answer_ids},
    )


@pytest.fixture(scope="module")
def database():
    return generate_chemical_database(20, seed=7)


@pytest.fixture(scope="module")
def engines(database):
    """(unsharded, 4-shard) engines over copies of the same database."""
    plain = Engine.build(copy.deepcopy(database), EngineConfig(**CONFIG))
    sharded = Engine.build(copy.deepcopy(database), EngineConfig(**CONFIG), shards=4)
    return plain, sharded


@pytest.fixture(scope="module")
def queries(database):
    return QueryWorkload(database, seed=3).sample_queries(num_edges=6, count=3)


# ----------------------------------------------------------------------
# repro.exec: the executor layer
# ----------------------------------------------------------------------
def _square(value):
    return value * value


def _boom(value):
    raise ValueError(f"boom {value}")


def _square_counted(value):
    GLOBAL_COUNTERS.increment("test_exec.calls")
    return value * value


class TestExecutors:
    def test_registry_names(self):
        assert available_executors() == ["process", "serial", "thread"]

    def test_unknown_executor_raises(self):
        with pytest.raises(UnknownComponentError):
            make_executor("fiber")

    @pytest.mark.parametrize("name", EXECUTORS)
    def test_map_preserves_order(self, name):
        pool = make_executor(name, workers=3)
        assert pool.map(_square, range(7)) == [v * v for v in range(7)]

    def test_executor_classes_match_names(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("thread"), ThreadExecutor)
        assert isinstance(make_executor("process"), ProcessExecutor)

    def test_process_falls_back_on_unpicklable_tasks(self):
        pool = make_executor("process", workers=2)
        closure = 10
        values = pool.map(lambda v: v + closure, [1, 2, 3])  # lambdas can't pickle
        assert values == [11, 12, 13]
        assert pool.counters.get("exec.process_fallbacks") == 1

    def test_map_counted_merges_worker_counters(self):
        sink = PerfCounters()
        pool = make_executor("process", workers=2)
        values = pool.map_counted(_square_counted, [2, 3, 4, 5], sink=sink)
        assert values == [4, 9, 16, 25]
        # Every task increments the counter exactly once, wherever it ran.
        assert sink.get("test_exec.calls") == 4.0

    def test_task_exceptions_reraise_instead_of_fallback(self):
        """A task bug must not be misread as 'process pool unavailable'.

        The worker ships task exceptions back as values and the caller
        re-raises them with their original type; the serial fallback (and
        its counter) is reserved for genuine pool failures.
        """
        pool = make_executor("process", workers=2)
        with pytest.raises(ValueError, match="boom"):
            pool.map(_boom, [1, 2])
        with pytest.raises(ValueError, match="boom"):
            pool.map_counted(_boom, [1, 2], sink=PerfCounters())
        assert pool.counters.get("exec.process_fallbacks") == 0

    def test_map_counted_serial_does_not_double_count(self):
        sink = PerfCounters()
        pool = make_executor("serial", workers=2)
        before = GLOBAL_COUNTERS.get("test_exec.calls")
        pool.map_counted(_square_counted, [1, 2], sink=sink)
        assert GLOBAL_COUNTERS.get("test_exec.calls") == before + 2


# ----------------------------------------------------------------------
# ShardedFragmentIndex: partitioning and the merged read interface
# ----------------------------------------------------------------------
class TestShardedIndex:
    @pytest.fixture(scope="class")
    def built(self, database):
        features = chem_features(database)
        measure = default_edge_mutation_distance()
        unsharded = FragmentIndex(features, measure, backend="trie").build(database)
        sharded = ShardedFragmentIndex.build(
            database, features, measure, num_shards=4, backend="trie"
        )
        return unsharded, sharded

    def test_modulo_partitioning(self, built, database):
        _, sharded = built
        for position, shard in enumerate(sharded.shards):
            assert all(
                shard_of(graph_id, 4) == position
                for graph_id in shard.live_graph_ids()
            )
        assert sharded.live_graph_ids() == database.graph_ids()
        assert sharded.num_graphs == database.id_bound
        assert sharded.num_live_graphs == len(database)
        assert sharded.removed_graph_ids == frozenset()

    def test_foreign_ids_retired_per_shard(self, built):
        _, sharded = built
        shard0 = sharded.shards[0]
        # Every id not owned by shard 0 is retired there.
        assert all(
            graph_id in shard0.removed_graph_ids
            for graph_id in range(sharded.num_graphs)
            if shard_of(graph_id, 4) != 0
        )

    def test_merged_range_queries_match_unsharded(self, built, database):
        unsharded, sharded = built
        query = QueryWorkload(database, seed=5).sample_queries(5, 1)[0]
        fragments = unsharded.enumerate_query_fragments(query)
        assert sharded.enumerate_query_fragments(query) == fragments
        for fragment in fragments:
            assert sharded.range_query(fragment, 2.0) == unsharded.range_query(
                fragment, 2.0
            )

    def test_merged_class_views_match_unsharded(self, built):
        unsharded, sharded = built
        for code in unsharded.codes():
            merged = sharded.get_class(code)
            single = unsharded.get_class(code)
            assert merged.containing_graphs() == single.containing_graphs()
            assert merged.containing_bits == single.containing_bits
            assert merged.num_occurrences == single.num_occurrences
            assert merged.occurrences_by_graph == single.occurrences_by_graph

    def test_stats_report_per_shard_breakdown(self, built):
        unsharded, sharded = built
        stats = sharded.stats().as_dict()
        assert stats["num_shards"] == 4
        assert len(stats["shards"]) == 4
        assert stats["num_occurrences"] == unsharded.stats().num_occurrences
        assert (
            sum(shard["num_occurrences"] for shard in stats["shards"])
            == stats["num_occurrences"]
        )

    def test_parallel_build_byte_identical_to_serial(self, database):
        features = chem_features(database)
        measure = default_edge_mutation_distance()
        serial = ShardedFragmentIndex.build(
            database, features, measure, num_shards=3, backend="trie"
        )
        parallel = ShardedFragmentIndex.build(
            database, features, measure, num_shards=3, backend="trie", workers=3
        )
        assert json.dumps(index_to_dict(serial)) == json.dumps(
            index_to_dict(parallel)
        )

    def test_single_shard_requires_at_least_one(self):
        with pytest.raises(EngineConfigError):
            ShardedFragmentIndex([])

    def test_mark_retired_rejects_live_ids(self, database):
        features = chem_features(database)
        measure = default_edge_mutation_distance()
        index = FragmentIndex(features, measure, backend="trie").build(database)
        with pytest.raises(IndexError_):
            index.mark_retired(0)
        index.mark_retired(database.id_bound + 2)  # extends the bound
        assert index.num_graphs == database.id_bound + 3
        assert database.id_bound in index.removed_graph_ids

    def test_align_id_bound_never_shrinks(self, database):
        features = chem_features(database)
        measure = default_edge_mutation_distance()
        index = FragmentIndex(features, measure, backend="trie").build(database)
        bound = index.num_graphs
        index.align_id_bound(bound - 5)
        assert index.num_graphs == bound


class TestShardDatabaseView:
    def test_view_is_shard_local(self, database):
        view = ShardDatabaseView(database, 4, 1)
        assert all(shard_of(graph_id, 4) == 1 for graph_id in view.graph_ids())
        assert len(view) == len(view.graph_ids())
        assert view.id_bound == database.id_bound
        assert 1 in view and 2 not in view
        with pytest.raises(DatasetError):
            view[2]  # owned by shard 2

    def test_view_pickles_only_its_shard(self, database):
        import pickle

        view = ShardDatabaseView(database, 4, 1)
        restored = pickle.loads(pickle.dumps(view))
        assert restored.graph_ids() == view.graph_ids()
        assert restored.id_bound == view.id_bound
        # Foreign slots travel as tombstones.
        with pytest.raises(DatasetError):
            restored[2]


# ----------------------------------------------------------------------
# scatter-gather equivalence: byte-identical answers on every executor
# ----------------------------------------------------------------------
class TestScatterGatherEquivalence:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_search_matches_unsharded(self, engines, queries, executor):
        plain, sharded = engines
        sharded.config = sharded.config.replace(executor=executor)
        for query in queries:
            for sigma in (1.0, 2.0):
                expected = answers_payload(plain.search(query, sigma))
                merged = sharded.search(query, sigma)
                assert answers_payload(merged) == expected
                assert merged.candidate_ids == sorted(merged.candidate_ids)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_search_many_matches_unsharded(self, engines, queries, executor):
        plain, sharded = engines
        batch = sharded.search_many(queries, 1.0, executor=executor)
        expected = [answers_payload(plain.search(query, 1.0)) for query in queries]
        assert [answers_payload(result) for result in batch] == expected
        assert batch.workers == 4
        assert batch.executor == executor

    def test_disabled_optimizations_still_identical(self, engines, queries):
        """The unoptimized reference path agrees on either topology."""
        plain, sharded = engines
        sharded.config = sharded.config.replace(executor="serial")
        for query in queries:
            expected = answers_payload(sharded.search(query, 1.0))
            for engine in (plain, sharded):
                assert answers_payload(
                    reference.search(engine.database, engine.index, query, 1.0)
                ) == expected

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_filter_only_mode(self, engines, queries, executor):
        plain, sharded = engines
        sharded.config = sharded.config.replace(verify=False, executor=executor)
        plain.config = plain.config.replace(verify=False)
        try:
            for query in queries:
                merged = sharded.search(query, 1.0)
                single = plain.search(query, 1.0)
                assert merged.answer_ids == [] == single.answer_ids
                assert merged.candidate_ids == single.candidate_ids
                assert merged.report.num_candidates == len(merged.candidate_ids)
        finally:
            sharded.config = sharded.config.replace(verify=True)
            plain.config = plain.config.replace(verify=True)

    def test_merged_view_strategies_match(self, engines, queries):
        plain, sharded = engines
        topo_plain = plain.make_strategy("topoPrune")
        topo_sharded = sharded.make_strategy("topoPrune")
        for query in queries:
            assert topo_plain.candidates(query, 1.0) == topo_sharded.candidates(
                query, 1.0
            )
        naive = sharded.make_strategy("naive")
        result = naive.search(queries[0], 1.0)
        assert answers_payload(result) == answers_payload(plain.search(queries[0], 1.0))

    def test_strategy_property_over_merged_view(self, engines, queries):
        plain, sharded = engines
        direct = sharded.strategy  # PISearch over the merged read interface
        assert isinstance(direct, PISearch)
        assert answers_payload(direct.search(queries[0], 1.0)) == answers_payload(
            plain.search(queries[0], 1.0)
        )

    def test_unknown_executor_rejected(self, engines, queries):
        _, sharded = engines
        with pytest.raises(EngineConfigError):
            sharded.search_many(queries, 1.0, executor="fiber")


# ----------------------------------------------------------------------
# counter merging: no double counting, no drops
# ----------------------------------------------------------------------
class TestCounterMerging:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_verify_counters_partition_exactly(self, engines, queries, executor):
        """Summed per-shard counters equal the merged result's own totals.

        Shards partition the candidate set, so ``verify.candidates`` (each
        shard counts the ids it verified) must sum to exactly the merged
        candidate count — a dropped shard or a double-counted one breaks
        the equality.
        """
        _, sharded = engines
        batch = sharded.search_many(queries, 2.0, executor=executor)
        for result in batch:
            assert result.counters.get("verify.candidates", 0.0) == float(
                result.num_candidates
            )
            assert result.counters.get("filter.candidates", 0.0) == float(
                result.num_candidates
            )

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_total_counters_sum_per_query_counters(self, engines, queries, executor):
        _, sharded = engines
        batch = sharded.search_many(queries, 2.0, executor=executor)
        manual = {}
        for result in batch:
            for name, value in result.counters.items():
                manual[name] = manual.get(name, 0.0) + value
        totals = batch.total_counters
        for name, value in manual.items():
            # total_counters reports floats rounded to 6 decimals.
            assert totals[name] == pytest.approx(value, abs=1e-6)
        assert set(totals) == set(manual)

    def test_process_counters_reach_engine_profile(self, engines, queries):
        _, sharded = engines
        before = sharded.profile()["counters"].get("verify.candidates", 0.0)
        batch = sharded.search_many(queries, 2.0, executor="process")
        verified = sum(
            result.counters.get("verify.candidates", 0.0) for result in batch
        )
        after = sharded.profile()["counters"].get("verify.candidates", 0.0)
        assert after == pytest.approx(before + verified)

    def test_merge_search_results_rejects_empty(self):
        with pytest.raises(EngineConfigError):
            merge_search_results([], num_database_graphs=0, num_shards=4)


# ----------------------------------------------------------------------
# process-executor verification (verify_workers through repro.exec)
# ----------------------------------------------------------------------
class TestProcessVerification:
    def test_bounded_verifier_process_matches_serial(self, database, queries):
        measure = default_edge_mutation_distance()
        serial = BoundedVerifier(database, measure)
        process = BoundedVerifier(database, measure, workers=2, executor="process")
        candidate_ids = database.graph_ids()
        for query in queries:
            expected = serial.verify(query, 2.0, candidate_ids)
            assert process.verify(query, 2.0, candidate_ids) == expected

    def test_process_verification_warms_the_parent_cache(self, database, queries):
        measure = default_edge_mutation_distance()
        verifier = BoundedVerifier(database, measure, workers=2, executor="process")
        candidate_ids = database.graph_ids()
        verifier.verify(queries[0], 2.0, candidate_ids)
        assert len(verifier.distance_cache) > 0
        explored_before = verifier.counters.get("verify.superpositions_explored")
        verifier.verify(queries[0], 2.0, candidate_ids)  # pure cache replay
        assert (
            verifier.counters.get("verify.superpositions_explored")
            == explored_before
        )

    def test_engine_process_verify_workers(self, database, queries):
        plain = Engine.build(copy.deepcopy(database), EngineConfig(**CONFIG))
        process = Engine.build(
            copy.deepcopy(database),
            EngineConfig(**CONFIG, executor="process", verify_workers=2),
        )
        for query in queries:
            assert answers_payload(process.search(query, 2.0)) == answers_payload(
                plain.search(query, 2.0)
            )


# ----------------------------------------------------------------------
# persistence: schema v4 (inline + manifest), v1-v3 compatibility
# ----------------------------------------------------------------------
class TestShardedPersistence:
    def test_engine_round_trip(self, engines, queries, tmp_path):
        plain, sharded = engines
        path = tmp_path / "engine.json"
        sharded.save(path)
        reloaded = Engine.load(path, sharded.database)
        assert reloaded.is_sharded
        assert reloaded.config.shards == 4
        for query in queries:
            assert answers_payload(reloaded.search(query, 1.0)) == answers_payload(
                plain.search(query, 1.0)
            )

    def test_inline_dict_round_trip(self, engines):
        _, sharded = engines
        payload = index_to_dict(sharded.index)
        assert payload["version"] == SHARDED_INDEX_SCHEMA_VERSION
        assert payload["sharding"] == {"num_shards": 4, "assignment": "modulo"}
        restored = index_from_dict(payload)
        assert isinstance(restored, ShardedFragmentIndex)
        assert index_to_dict(restored) == payload

    def test_manifest_and_shard_files(self, engines, tmp_path):
        _, sharded = engines
        path = tmp_path / "index.json"
        save_index(sharded.index, path)
        manifest = json.loads(path.read_text())
        assert manifest["version"] == SHARDED_INDEX_SCHEMA_VERSION
        assert manifest["shard_files"] == [
            f"index.shard{position}.json" for position in range(4)
        ]
        for shard_name in manifest["shard_files"]:
            assert (tmp_path / shard_name).exists()
        restored = load_index(path)
        assert isinstance(restored, ShardedFragmentIndex)
        assert index_to_dict(restored) == index_to_dict(sharded.index)

    def test_manifest_without_payloads_fails_loudly(self, engines):
        _, sharded = engines
        payload = index_to_dict(sharded.index)
        del payload["shards"]
        with pytest.raises(SerializationError):
            index_from_dict(payload)

    def test_missing_shard_file_fails_loudly(self, engines, tmp_path):
        _, sharded = engines
        path = tmp_path / "index.json"
        save_index(sharded.index, path)
        (tmp_path / "index.shard2.json").unlink()
        with pytest.raises(SerializationError):
            load_index(path)

    def test_v3_single_index_still_loads(self, database, tmp_path):
        features = chem_features(database)
        measure = default_edge_mutation_distance()
        index = FragmentIndex(features, measure, backend="trie").build(database)
        path = tmp_path / "v3.json"
        save_index(index, path)
        restored = load_index(path)
        assert isinstance(restored, FragmentIndex)
        assert index_to_dict(restored) == index_to_dict(index)

    def test_old_engine_config_without_sharding_keys_loads(self):
        data = {
            "selector": "exhaustive",
            "selector_params": dict(SELECTOR_PARAMS),
            "strategy": "pis",
        }
        config = EngineConfig.from_dict(data)
        assert config.shards == 1
        assert config.executor == "thread"


class TestEngineConfigSharding:
    def test_shards_round_trip(self):
        config = EngineConfig(shards=4, executor="process")
        assert EngineConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "4", True])
    def test_invalid_shards_rejected(self, bad):
        with pytest.raises(EngineConfigError):
            EngineConfig(shards=bad)

    def test_invalid_executor_rejected(self):
        with pytest.raises(EngineConfigError):
            EngineConfig(executor="")


# ----------------------------------------------------------------------
# randomized interleavings: sharded == unsharded == rebuild
# ----------------------------------------------------------------------
def interleaving_scenario(seed):
    """Apply one random add/remove interleaving to three engines at once."""
    base = generate_chemical_database(14, seed=seed)
    config = EngineConfig(**CONFIG)
    plain = Engine.build(copy.deepcopy(base), config)
    sharded = Engine.build(copy.deepcopy(base), config, shards=4)
    pool = iter(generate_chemical_database(6, seed=seed + 100))
    rng = random.Random(seed)
    for _ in range(8):
        live = plain.database.graph_ids()
        if rng.random() < 0.5 and len(live) > 6:
            victim = rng.choice(live)
            plain.remove_graphs([victim])
            sharded.remove_graphs([victim])
        else:
            try:
                graph = next(pool)
            except StopIteration:
                victim = rng.choice(live)
                plain.remove_graphs([victim])
                sharded.remove_graphs([victim])
                continue
            reuse = rng.random() < 0.5
            assigned = plain.add_graphs([graph], reuse_ids=reuse)
            assert sharded.add_graphs([graph], reuse_ids=reuse) == assigned
    assert plain.database.graph_ids() == sharded.database.graph_ids()

    rebuilt = Engine.build(copy.deepcopy(plain.database), config, shards=4)
    queries = QueryWorkload(plain.database, seed=seed + 1).sample_queries(4, 2)
    for optimized in (True, False):
        for query in queries:
            for sigma in (1.0, 2.0):
                if optimized:
                    results = [
                        engine.search(query, sigma)
                        for engine in (plain, sharded, rebuilt)
                    ]
                else:
                    results = [
                        reference.search(engine.database, engine.index, query, sigma)
                        for engine in (plain, sharded, rebuilt)
                    ]
                payloads = [answers_payload(result) for result in results]
                assert payloads[0] == payloads[1] == payloads[2], (
                    seed,
                    optimized,
                    sigma,
                )


class TestRandomizedInterleavings:
    @pytest.mark.parametrize("seed", [17, 29])
    def test_sharded_matches_unsharded_and_rebuild(self, seed):
        interleaving_scenario(seed)

    def test_update_routing_keeps_shards_aligned(self, database):
        sharded = Engine.build(copy.deepcopy(database), EngineConfig(**CONFIG), shards=3)
        extra = list(generate_chemical_database(4, seed=99))
        assigned = sharded.add_graphs(extra)
        bound = sharded.index.num_graphs
        assert bound == database.id_bound + len(extra)
        for shard in sharded.index.shards:
            assert shard.num_graphs == bound
        sharded.remove_graphs(assigned[:2])
        assert set(assigned[:2]) <= sharded.index.removed_graph_ids


# ----------------------------------------------------------------------
# CLI: the sharded flow
# ----------------------------------------------------------------------
class TestShardedCLI:
    def test_index_query_update_stats(self, tmp_path, capsys):
        db_path = tmp_path / "db.json"
        assert cli_main(
            ["generate", "--count", "16", "--seed", "3", "--output", str(db_path)]
        ) == 0
        engine_path = tmp_path / "engine.json"
        index_path = tmp_path / "index.json"
        assert cli_main(
            [
                "index",
                "--database", str(db_path),
                "--max-edges", "3",
                "--shards", "2",
                "--output", str(index_path),
                "--engine-output", str(engine_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "across 2 shards" in out
        assert (tmp_path / "index.shard0.json").exists()
        assert (tmp_path / "index.shard1.json").exists()

        assert cli_main(
            [
                "query",
                "--database", str(db_path),
                "--engine", str(engine_path),
                "--edges", "5",
                "--count", "2",
                "--sigma", "1",
                "--compare-naive",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("naive-agrees=True") == 2

        delta_path = tmp_path / "delta.json"
        assert cli_main(
            ["generate", "--count", "3", "--seed", "11", "--output", str(delta_path)]
        ) == 0
        capsys.readouterr()
        assert cli_main(
            [
                "update",
                "--database", str(db_path),
                "--engine", str(engine_path),
                "--add", str(delta_path),
                "--remove", "1",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "removed 1 graphs" in out and "added 3 graphs" in out

        assert cli_main(
            ["stats", "--database", str(db_path), "--engine", str(engine_path)]
        ) == 0
        out = capsys.readouterr().out
        assert '"num_shards": 2' in out
        assert '"shards"' in out

    def test_query_serial_executor_flag(self, tmp_path, capsys):
        db_path = tmp_path / "db.json"
        cli_main(["generate", "--count", "12", "--seed", "5", "--output", str(db_path)])
        engine_path = tmp_path / "engine.json"
        cli_main(
            [
                "index",
                "--database", str(db_path),
                "--max-edges", "3",
                "--shards", "2",
                "--engine-output", str(engine_path),
            ]
        )
        capsys.readouterr()
        assert cli_main(
            [
                "query",
                "--database", str(db_path),
                "--engine", str(engine_path),
                "--edges", "4",
                "--count", "1",
                "--sigma", "1",
                "--executor", "serial",
            ]
        ) == 0
        assert "(serial, workers=2)" in capsys.readouterr().out


# ----------------------------------------------------------------------
# epoch isolation + crash recovery on the sharded topology (PR 7)
# ----------------------------------------------------------------------
class TestShardedEpochIsolation:
    """Concurrent readers vs. a batch writer on a 4-shard engine.

    The sharded index has one topology-level :class:`EpochManager`; a
    scatter-gather pins it once, so a mutation batch that touches several
    shards (routing an insert, retiring an id everywhere) is still atomic
    from any reader's point of view.
    """

    @pytest.fixture()
    def sharded_mutable(self):
        database = generate_chemical_database(16, seed=11)
        return Engine.build(
            database,
            EngineConfig(selector_params=dict(SELECTOR_PARAMS), shards=4),
        )

    def scripted_batches(self):
        delta_a = generate_chemical_database(2, seed=31)
        delta_b = generate_chemical_database(3, seed=32)
        return [
            lambda e: e.remove_graphs([2, 5]),
            lambda e: e.add_graphs(list(delta_a), reuse_ids=True),
            lambda e: e.remove_graphs([7]),
            lambda e: e.add_graphs(list(delta_b)),
        ]

    def run_schedule(self, engine, queries, sigma=2.0, readers=2):
        import pickle
        import threading
        import time

        batches = self.scripted_batches()
        clone = pickle.loads(pickle.dumps(engine))
        allowed = [
            [answers_payload(clone.search(query, sigma))] for query in queries
        ]
        for apply_batch in batches:
            apply_batch(clone)
            for position, query in enumerate(queries):
                payload = answers_payload(clone.search(query, sigma))
                if payload not in allowed[position]:
                    allowed[position].append(payload)

        violations = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                for position, query in enumerate(queries):
                    payload = answers_payload(engine.search(query, sigma))
                    if payload not in allowed[position]:
                        violations.append((position, payload))

        threads = [threading.Thread(target=reader) for _ in range(readers)]
        for thread in threads:
            thread.start()
        try:
            for apply_batch in batches:
                time.sleep(0.02)
                apply_batch(engine)
            time.sleep(0.02)
        finally:
            stop.set()
            for thread in threads:
                thread.join(10)
        return violations

    def test_scatter_gather_never_sees_partial_batches(self, sharded_mutable):
        queries = QueryWorkload(
            sharded_mutable.database, seed=5
        ).sample_queries(4, 2)
        epoch_before = sharded_mutable.index.epochs.current
        violations = self.run_schedule(sharded_mutable, queries)
        assert violations == []
        assert (
            sharded_mutable.index.epochs.current
            == epoch_before + len(self.scripted_batches())
        )

    def test_scatter_gather_isolated_without_optimizations(self):
        """Isolation holds when every search plans afresh (no plan cache)."""
        uncached = Engine.build(
            generate_chemical_database(16, seed=11),
            EngineConfig(
                selector_params=dict(SELECTOR_PARAMS), shards=4, plan_cache_size=0
            ),
        )
        queries = QueryWorkload(uncached.database, seed=5).sample_queries(4, 2)
        violations = self.run_schedule(uncached, queries)
        assert violations == []


class TestShardedCrashRecovery:
    """Kill-at-every-record-boundary on the 4-shard manifest layout."""

    def test_recovery_matches_staged_references(self, tmp_path):
        import pickle
        import shutil

        database = generate_chemical_database(14, seed=11)
        config = EngineConfig(
            selector_params=dict(SELECTOR_PARAMS), shards=4, durability="wal"
        )
        engine = Engine.build(database, config)
        base = tmp_path / "base"
        base.mkdir()
        engine.attach_wal(Engine.wal_path_for(base / "engine.json"))
        engine.checkpoint(base / "engine.json", database_path=base / "db.json")
        query = QueryWorkload(database, seed=5).sample_queries(4, 1)[0]
        delta = generate_chemical_database(3, seed=31)
        batches = [
            lambda e: e.remove_graphs([2, 9]),
            lambda e: e.add_graphs(list(delta), reuse_ids=True),
        ]

        # staged references: answers after each committed batch
        clone = pickle.loads(pickle.dumps(engine))
        staged = [answers_payload(clone.search(query, 2.0))]
        for apply_batch in batches:
            apply_batch(clone)
            staged.append(answers_payload(clone.search(query, 2.0)))

        for kill_point in range(len(batches) + 1):
            crash_dir = tmp_path / f"crash-{kill_point}"
            crash_dir.mkdir()
            shutil.copy(base / "db.json", crash_dir / "db.json")
            shutil.copy(base / "engine.json", crash_dir / "engine.json")
            shutil.copytree(
                Engine.wal_path_for(base / "engine.json"),
                Engine.wal_path_for(crash_dir / "engine.json"),
            )
            crashed_db = GraphDatabase.load(crash_dir / "db.json")
            crashed = Engine.load(crash_dir / "engine.json", crashed_db)
            for apply_batch in batches[:kill_point]:
                apply_batch(crashed)
            del crashed  # crash: the log is ahead of every file

            recovered_db = GraphDatabase.load(crash_dir / "db.json")
            recovered = Engine.load(crash_dir / "engine.json", recovered_db)
            assert recovered.wal_applied_lsn == kill_point
            assert recovered.is_sharded
            assert recovered.index.num_shards == 4
            assert (
                answers_payload(recovered.search(query, 2.0))
                == staged[kill_point]
            )
