"""Tests for the :mod:`repro.exec` executor layer and its engine uses.

Covers the executors themselves (serial / thread / process, the registry,
order preservation, the serial fallback of the process pool, counter
merging through ``map_counted``), process-executor candidate
verification, and the engine's batched search on every executor: the same
answers and the same work counters in ``Engine.profile()`` whichever
executor ran the batch.
"""

from __future__ import annotations

import copy

import pytest

from repro.cli import main as cli_main
from repro.core import default_edge_mutation_distance
from repro.core.errors import UnknownComponentError
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
from repro.perf import GLOBAL_COUNTERS, PerfCounters
from repro.search import BoundedVerifier

SELECTOR_PARAMS = {
    "max_edges": 3,
    "min_support": 0.1,
    "max_features": 40,
    "sample_size": 15,
}

CONFIG = dict(selector="exhaustive", selector_params=dict(SELECTOR_PARAMS))

EXECUTORS = ("serial", "thread", "process")


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
# batched search: the engine profile sees the work on every executor
# ----------------------------------------------------------------------
PROFILE_COUNTERS = ("filter.calls", "plan.calls", "verify.candidates")


class TestBatchProfile:
    @pytest.fixture(scope="class")
    def batch_database(self):
        return generate_chemical_database(40, seed=7)

    @pytest.fixture(scope="class")
    def batch_queries(self, batch_database):
        return QueryWorkload(batch_database, seed=3).sample_queries(
            num_edges=8, count=4
        )

    def profile_after_batch(self, batch_database, batch_queries, executor):
        engine = Engine.build(copy.deepcopy(batch_database), EngineConfig(**CONFIG))
        before = engine.profile()["counters"]
        batch = engine.search_many(batch_queries, 1.0, workers=2, executor=executor)
        after = engine.profile()["counters"]
        worked = {
            name: after.get(name, 0.0) - before.get(name, 0.0)
            for name in PROFILE_COUNTERS
        }
        return batch, worked

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_profile_counters_equal_across_executors(
        self, batch_database, batch_queries, executor
    ):
        """A process batch's work reaches ``profile()`` like any other.

        Worker processes count into their own copies of the counters;
        ``search_many`` merges their deltas into the engine's sink, so the
        profile shows the same filter, plan and verify work as a serial
        batch of the same queries.
        """
        serial_batch, serial = self.profile_after_batch(
            batch_database, batch_queries, "serial"
        )
        batch, worked = self.profile_after_batch(
            batch_database, batch_queries, executor
        )
        assert serial["filter.calls"] == len(batch_queries)
        assert serial["verify.candidates"] > 0
        assert worked == serial
        assert [answers_payload(result) for result in batch] == [
            answers_payload(result) for result in serial_batch
        ]


class TestExecutorCLI:
    def test_query_serial_executor_flag(self, tmp_path, capsys):
        db_path = tmp_path / "db.json"
        cli_main(["generate", "--count", "12", "--seed", "5", "--output", str(db_path)])
        engine_path = tmp_path / "engine.json"
        cli_main(
            [
                "index",
                "--database", str(db_path),
                "--max-edges", "3",
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
                "--count", "2",
                "--sigma", "1",
                "--workers", "2",
                "--executor", "serial",
            ]
        ) == 0
        # The serial executor runs the batch in the calling thread,
        # whatever pool size was asked for.
        assert "(sequential, workers=1)" in capsys.readouterr().out
