"""Property tests for the array superposition kernel (:mod:`repro.core.kernel`).

The kernel's contract is byte-identity: for every (query, target, measure,
threshold) combination it must return exactly the distance the recursive
search (:func:`repro.core.superimposed.recursive_superposition`) returns —
including ``inf`` — and a whole engine running on the kernel must produce
byte-identical answer sets to the reference path of :mod:`repro.reference`
(recursive search, legacy verifier), sharded or not.  The suite sweeps random graph pairs
across both paper measures, the include-vertices/include-edges subsets,
and every search mode (plain, threshold, ``stop_at_threshold``,
``known_lower_bound``).
"""

import copy
import json
import pickle
import random

import pytest

from repro.core import (
    INFINITE_DISTANCE,
    LinearMutationDistance,
    MutationDistance,
    best_superposition,
    graph_pair_distance,
    within_distance,
)
from repro.core.database import GraphDatabase
from repro.core.superimposed import recursive_superposition
from repro.core import kernel as kernel_module
from repro.core.kernel import (
    MAX_KERNEL_VERTICES,
    graph_arrays,
    kernel_available,
    kernel_best_superposition,
    query_plan,
)
from repro.datasets import sample_connected_subgraph
from repro.engine import Engine, EngineConfig
from repro import reference

from helpers import build_graph, cycle_graph, path_graph, random_molecule

pytestmark = pytest.mark.skipif(
    not kernel_available(), reason="numpy unavailable: kernel cannot run"
)

MEASURES = {
    "mutation-full": MutationDistance(),
    "mutation-edges": MutationDistance(include_vertices=False, include_edges=True),
    "mutation-vertices": MutationDistance(include_vertices=True, include_edges=False),
    "linear-full": LinearMutationDistance(),
    "linear-edges": LinearMutationDistance(include_vertices=False, include_edges=True),
}


def _random_pair(rng, mutate=True):
    """A random (query, target) pair, query usually near-contained."""
    target = random_molecule(rng, num_vertices=rng.randint(6, 12), extra_edges=3)
    query = sample_connected_subgraph(target, rng.randint(2, 6), rng)
    if query is None:
        query = random_molecule(rng, num_vertices=rng.randint(2, 5), extra_edges=1)
    if mutate:
        for (u, v) in list(query.edges())[: rng.randint(0, 2)]:
            query.set_edge_label(u, v, rng.choice(["mutated", "single"]))
        vertices = list(query.vertices())
        for v in vertices[: rng.randint(0, 2)]:
            query.set_vertex_label(v, rng.choice("CNOS"))
        if rng.random() < 0.3:
            for v in vertices[:2]:
                query.set_vertex_weight(v, rng.uniform(0.0, 2.0))
            for (u, v) in list(query.edges())[:2]:
                query.set_edge_weight(u, v, rng.uniform(0.0, 2.0))
    return query, target


class TestDistanceEquality:
    """Kernel distances must equal legacy distances bit for bit."""

    @pytest.mark.parametrize("measure_name", sorted(MEASURES))
    @pytest.mark.parametrize("trial", range(8))
    def test_random_pairs_all_modes(self, trial, measure_name):
        measure = MEASURES[measure_name]
        rng = random.Random(
            trial * 31 + sorted(MEASURES).index(measure_name) * 1009
        )
        query, target = _random_pair(rng)
        for threshold in (None, 0.0, 1.0, 3.5):
            legacy = recursive_superposition(
                query, target, measure, threshold=threshold
            )
            fast = kernel_best_superposition(
                query, target, measure, threshold=threshold
            )
            assert fast.distance == legacy.distance, (
                f"threshold={threshold}: kernel {fast.distance!r} "
                f"!= legacy {legacy.distance!r}"
            )
            # The witness (when any) must actually achieve the distance.
            # approx, not ==: embedding_cost sums the same float terms in a
            # different association order than the search accumulates them,
            # which can differ by an ulp for weight-based measures.
            if fast.embedding is not None and fast.distance != INFINITE_DISTANCE:
                assert measure.embedding_cost(
                    query, target, fast.embedding
                ) == pytest.approx(fast.distance, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("trial", range(6))
    def test_stop_at_threshold_boolean_equivalence(self, trial, full_measure):
        # stop_at_threshold returns an order-dependent upper bound, so only
        # the accept/reject decision is comparable across kernels.
        rng = random.Random(1000 + trial)
        query, target = _random_pair(rng)
        for sigma in (0.0, 1.0, 2.5, 5.0):
            recursive = recursive_superposition(
                query, target, full_measure, threshold=sigma, stop_at_threshold=True
            )
            assert within_distance(query, target, full_measure, sigma) == (
                recursive.distance <= sigma
            )

    @pytest.mark.parametrize("trial", range(6))
    def test_known_lower_bound_stays_exact(self, trial, edge_measure):
        rng = random.Random(2000 + trial)
        query, target = _random_pair(rng)
        exact = recursive_superposition(query, target, edge_measure).distance
        if exact == INFINITE_DISTANCE:
            pytest.skip("no superposition: lower bound irrelevant")
        for bound in (0.0, exact / 2, exact):
            fast = kernel_best_superposition(
                query, target, edge_measure, known_lower_bound=bound
            )
            assert fast.distance == exact

    def test_infinite_when_structure_absent(self, full_measure):
        assert (
            kernel_best_superposition(
                cycle_graph(4), path_graph(5), full_measure
            ).distance
            == INFINITE_DISTANCE
        )

    def test_single_vertex_query(self, full_measure):
        query = build_graph(1, [], vertex_labels=["N"])
        target = random_molecule(random.Random(3), num_vertices=7)
        for search in (kernel_best_superposition, recursive_superposition):
            result = search(query, target, full_measure)
            assert result.distance == min(
                full_measure.vertex_cost(query, 0, target, tv)
                for tv in target.vertices()
            )

    def test_graph_pair_distance_matches(self, edge_measure):
        a = cycle_graph(4, edge_labels=["s", "s", "d", "d"])
        b = cycle_graph(4, edge_labels=["d", "s", "d", "s"])
        assert graph_pair_distance(a, b, edge_measure) == (
            recursive_superposition(a, b, edge_measure).distance
        )

    @pytest.mark.parametrize("trial", range(4))
    def test_global_flag_routes_to_kernel(self, trial, full_measure, monkeypatch):
        # best_superposition runs the kernel whenever it can (there is no
        # switch), and the recursive search agrees on the distance.
        rng = random.Random(4000 + trial)
        query, target = _random_pair(rng)
        calls = []
        original = kernel_module.kernel_best_superposition

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(kernel_module, "kernel_best_superposition", counting)
        routed = best_superposition(query, target, full_measure)
        if query.num_edges <= target.num_edges and (
            query.num_vertices <= target.num_vertices
        ):
            assert calls
        legacy = recursive_superposition(query, target, full_measure)
        assert routed.distance == legacy.distance


class TestKernelEncoding:
    """Array cache lifecycle: reuse, invalidation, and pickling."""

    def test_arrays_cached_until_mutation(self):
        graph = random_molecule(random.Random(5), num_vertices=8)
        first = graph_arrays(graph)
        assert first is not None
        assert graph_arrays(graph) is first  # cached, same object
        graph.set_edge_label(*next(iter(graph.edges())), "mutated")
        second = graph_arrays(graph)
        assert second is not first  # revision bump invalidated the cache
        assert graph_arrays(graph) is second

    def test_query_plan_cached_until_mutation(self):
        graph = random_molecule(random.Random(6), num_vertices=6)
        plan = query_plan(graph)
        assert query_plan(graph) is plan
        graph.add_vertex("extra", label="C")
        assert query_plan(graph) is not plan

    def test_mutated_target_rescored_correctly(self, edge_measure):
        # The dangerous failure mode: a stale cost/array cache would keep
        # answering with pre-mutation labels.
        query = path_graph(1, edge_labels=["double"])
        target = cycle_graph(3, edge_labels=["double", "single", "single"])
        assert best_superposition(query, target, edge_measure).distance == 0.0
        for (u, v) in list(target.edges()):
            target.set_edge_label(u, v, "single")
        after = best_superposition(query, target, edge_measure)
        legacy = recursive_superposition(query, target, edge_measure)
        assert after.distance == legacy.distance > 0.0

    def test_cache_excluded_from_pickle_and_deepcopy(self):
        graph = random_molecule(random.Random(7), num_vertices=8)
        graph_arrays(graph)  # populate the cache
        for clone in (pickle.loads(pickle.dumps(graph)), copy.deepcopy(graph)):
            assert clone._kernel_arrays is None
            assert clone.revision == 0
            # and the clone builds a working cache of its own
            assert graph_arrays(clone) is not None

    def test_oversized_target_falls_back(self, edge_measure, monkeypatch):
        monkeypatch.setattr(kernel_module, "MAX_KERNEL_VERTICES", 4)
        target = random_molecule(random.Random(8), num_vertices=6)
        query = path_graph(1)
        assert graph_arrays(target) is None
        assert (
            kernel_best_superposition(query, target, edge_measure) is None
        )  # refuses: best_superposition then runs the recursive path
        result = best_superposition(query, target, edge_measure)
        legacy = recursive_superposition(query, target, edge_measure)
        assert result.distance == legacy.distance

    def test_max_kernel_vertices_is_sane(self):
        assert MAX_KERNEL_VERTICES >= 64


class TestNodesExpanded:
    """Both paths report their branch-and-bound effort."""

    @pytest.mark.parametrize("trial", range(5))
    def test_both_paths_report_expansions(self, trial, full_measure):
        # Exact expansion counts legitimately differ between the paths
        # (the kernel visits siblings cheapest-first, the recursive search
        # in pool order — either order can luck into the incumbent first),
        # but both must report positive effort whenever a superposition
        # exists, and the distances must still agree.
        rng = random.Random(6000 + trial)
        query, target = _random_pair(rng)
        legacy = recursive_superposition(query, target, full_measure)
        fast = kernel_best_superposition(query, target, full_measure)
        assert fast.distance == legacy.distance
        if legacy.distance != INFINITE_DISTANCE:
            assert legacy.nodes_expanded > 0
            assert fast.nodes_expanded > 0


def _build_database(seed=101, count=24):
    rng = random.Random(seed)
    database = GraphDatabase()
    database.extend(
        random_molecule(rng, num_vertices=rng.randint(8, 14)) for _ in range(count)
    )
    return database


def _answers_payload(search, queries, sigmas):
    payload = []
    for query in queries:
        for sigma in sigmas:
            result = search(query, sigma)
            payload.append(
                {
                    "sigma": sigma,
                    "answers": result.answer_ids,
                    "distances": {
                        str(k): v for k, v in sorted(result.answer_distances.items())
                    },
                }
            )
    return json.dumps(payload, sort_keys=True)


class TestEngineByteIdentity:
    """End-to-end: the kernel engine and the reference path agree."""

    @pytest.mark.parametrize("shards", [1, 4])
    def test_answers_identical_across_kernels(self, shards):
        database = _build_database()
        rng = random.Random(77)
        queries = []
        while len(queries) < 4:
            base = database[rng.choice(database.graph_ids())]
            query = sample_connected_subgraph(base, rng.randint(3, 6), rng)
            if query is not None:
                queries.append(query)
        sigmas = [0.0, 1.5, 4.0]

        engine = Engine.build(database, EngineConfig(shards=shards))
        array = _answers_payload(engine.search, queries, sigmas)

        # the reference path (recursive search, legacy verifier, no caches)
        # over the same index agrees — the pre-kernel behaviour is intact
        legacy = _answers_payload(
            lambda query, sigma: reference.search(
                engine.database, engine.index, query, sigma
            ),
            queries,
            sigmas,
        )
        assert array == legacy

    def test_stats_surface_nodes_expanded(self):
        database = _build_database(count=12)
        engine = Engine.build(database, EngineConfig())
        rng = random.Random(13)
        query = sample_connected_subgraph(
            database[database.graph_ids()[0]], 4, rng
        ) or random_molecule(rng, num_vertices=4)
        engine.search(query, 2.0)
        stats = engine.stats()["verify"]
        assert "kernel" not in stats
        assert stats["kernel_available"] is True
        assert stats["nodes_expanded"] >= 0
        serving = engine.serving_stats()["verify"]
        assert serving["kernel_available"] is True
