"""Checks of the benchmark itself: seeded inputs and exactly repeating work.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
import inproc  # noqa: E402
import layers  # noqa: E402
import serving  # noqa: E402
from repro import Engine  # noqa: E402
from tracing import LayerSummary, Tracer, requests_by_root  # noqa: E402


@pytest.fixture
def small_database(monkeypatch):
    monkeypatch.setattr(inputs, "NUM_GRAPHS", 60)


def _work_counts(seed: int, tracer=None):
    database = inputs.make_database(seed)
    engine = Engine.build(database, inputs.engine_config(seed))
    pairs = inputs.distinct_pairs(database, seed, 8, (1.0, 2.0), 8)
    counters = {}
    answers = 0
    if tracer is not None:
        tracer.install()
    try:
        for query, sigma in pairs:
            result = engine.search(query, sigma)
            answers += result.num_answers
            for name, value in result.counters.items():
                counters[name] = counters.get(name, 0.0) + value
    finally:
        if tracer is not None:
            tracer.uninstall()
    return layers.work_counts(counters, len(pairs), answers)


def test_same_seed_same_input_digest(small_database):
    def digest(seed):
        database = inputs.make_database(seed)
        pairs = inputs.distinct_pairs(database, seed, 8, (1.0, 2.0), 10)
        hot = inputs.hot_pairs(database, seed, serving.HOT_SET)
        schedule = serving.rung_schedule(random.Random(seed), 8, 4.0, iter(range(100)))
        fresh = [graph.to_dict() for graph in inputs.fresh_graphs(seed, 4)]
        return inputs.digest(database, pairs + hot, extra=[schedule, fresh])

    assert digest(5) == digest(5)
    assert digest(5) != digest(6)


def test_work_counts_repeat_exactly(small_database):
    first = _work_counts(3)
    assert first == _work_counts(3)
    assert first["range_query_calls"] > 0 and first["nodes_expanded"] > 0


def test_traced_work_counts_match_untraced(small_database):
    tracer = Tracer()
    assert _work_counts(4, tracer) == _work_counts(4)
    searches = requests_by_root(tracer.spans)["engine.search"]
    assert len(searches) == 8
    summary = LayerSummary(searches)
    names = {span[1] for request in searches for span in request}
    # Exclusive times of a request add up to its root span exactly.
    total_self = sum(summary.self_ms(name) for name in names) * summary.requests
    assert total_self == pytest.approx(sum(summary.wall_ms), rel=1e-9)
    assert {"search.planner", "index.range_query", "search.verify"} <= names


def test_uninstall_restores_the_program():
    from repro.engine.facade import Engine as FacadeEngine
    from repro.search import planner

    original_search = FacadeEngine.search
    original_partition = planner.select_partition
    tracer = Tracer()
    tracer.install()
    assert FacadeEngine.search is not original_search
    tracer.uninstall()
    assert FacadeEngine.search is original_search
    assert planner.select_partition is original_partition


def test_reference_accepts_only_a_live_state(small_database):
    seed = 2
    database = inputs.make_database(seed)
    hot = inputs.hot_pairs(database, seed, 4)
    fresh = inputs.fresh_graphs(seed, 4)
    reference = serving.ReferenceAnswers(seed, hot, fresh)
    expected = reference.expected(0, serving._state_ids(len(database), 1))
    response = {
        "answers": sorted(expected),
        "distances": {str(g): d for g, d in expected.items()},
    }
    op = {"pick": 0, "state_lo": 1, "state_hi": 1, "response": response}
    assert reference.accepts(op)
    # The state between an update's removal and addition batches counts.
    base_only = reference.expected(0, set())
    between = {"answers": sorted(base_only), "distances": {str(g): d for g, d in base_only.items()}}
    assert reference.accepts(dict(op, state_hi=2, response=between))
    if expected:
        wrong = dict(response["distances"])
        first = next(iter(wrong))
        wrong[first] = wrong[first] + 0.5
        assert not reference.accepts(dict(op, response=dict(response, distances=wrong)))


def test_answers_equal_compares_exact_distances(small_database):
    class Result:
        def __init__(self, distances):
            self.answer_ids = list(distances)
            self.answer_distances = distances

    assert inproc.answers_equal(Result({1: 0.0, 4: 1.0}), Result({4: 1.0, 1: 0.0}))
    assert not inproc.answers_equal(Result({1: 0.0}), Result({1: 1e-12}))
    assert not inproc.answers_equal(Result({1: 0.0}), Result({1: 0.0, 2: 1.0}))


def test_split_nominal_rung_keeps_every_op_in_order():
    schedule = serving.rung_schedule(random.Random(3), 8, 20.0, iter(range(1000)))
    pieces = serving._split(schedule, 20.0, 8)
    assert len(pieces) == 8
    assert [op[1:] for piece in pieces for op in piece] == [op[1:] for op in schedule]
    for piece in pieces:
        assert all(0.0 <= due < 20.0 / 8 + 1e-9 for due, _, _ in piece)
        assert [due for due, _, _ in piece] == sorted(due for due, _, _ in piece)


def test_corpus_seeds_start_at_the_run_seed():
    seeds = inputs.corpus_seeds(7, 3)
    assert seeds[0] == 7 and len(set(seeds)) == 3
    assert seeds == inputs.corpus_seeds(7, 3)


def test_calibrator_scales_by_the_named_sections():
    import gc

    from calibrate import NOMINAL_MS, Calibrator

    calibrator = Calibrator()
    calibrator.sample("a", 2)
    calibrator.sample("b", 1)
    assert gc.isenabled()
    everything = calibrator.samples_ms["a"] + calibrator.samples_ms["b"]
    assert calibrator.scale() == calibrator.scale("a", "b")
    assert calibrator.scale() == NOMINAL_MS / sorted(everything)[1]
