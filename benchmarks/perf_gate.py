#!/usr/bin/env python
"""Benchmark gate: optimized vs pre-optimization hot paths, with CI gating.

Runs the filtering workloads behind ``test_bench_pruning_cost`` (Q16
filtering under several thresholds) and ``test_bench_figure10`` (Q24
filtering), plus a **verification workload** (full figure10 searches —
filter *and* verify), twice each:

* once on the reference path of ``repro.reference`` (``ReferenceSearch`` —
  no memo caches, hash-set candidate intersection, per-entry range scans,
  and the legacy sequential verifier over the recursive search), and
* once with the optimized paths on (structure-code / query-fragment /
  range-query / exact-distance caches, big-int bitset intersection,
  vectorized scans, and the bounded verifier of ``repro.search.verify``).

It additionally runs an **incremental-update workload**: a churn batch of
adds + removes applied through ``FragmentIndex.add_graph`` /
``remove_graph`` versus a from-scratch rebuild over the same final
database, with byte-identical search answers required from both indexes.

A **serving workload** (PR 6) protects the always-on serving subsystem:
``serving_throughput`` starts the engine in resident mode behind an
in-process :class:`repro.serve.QueryServer` and drives it with 4 concurrent
clients, twice — a **cold** pass (every query computed) and a **warm** pass
replaying the same queries against the generation-keyed result cache.  Both
passes must answer byte-identically to direct uncached ``Engine.search``
calls, and the warm pass must be at least ``--min-serving-speedup``
(default 5×) faster than the cold one.  A cache hit needs no parallel
hardware, so this floor is enforced on every machine.

A **mixed serving workload** (PR 8) protects admission control:
``serving_mixed`` storms a tiny-queue (``serve_max_queue``-bounded) server
with concurrent search bursts plus a mutating ``update`` client, and gates
on hardware-independent invariants instead of a speedup — every submitted
request is answered or reported shed (none lost), the queue high-water
mark stays within the bound, and the final database/index state and a
post-storm query pass are byte-identical to a *serial* replay of the same
mutation batches on a control engine.

A **kernel workload** (PR 10) protects the array superposition kernel:
``verify_kernel`` answers the figure10 query set cold — no memo cache
serves either side, so each search pays its full verification cost —
once on the recursive reference search (``ReferenceSearch``) and once on
the production path with the array kernel and the bounded verifier, every
cache cleared before each search.  Answer ids and exact distances must be
byte-identical, and the verify-phase speedup must meet
``--min-kernel-speedup`` (default 3×).  The per-path
``verify.nodes_expanded`` counters are recorded so pruning power stays
observable in the history file.

It asserts the two paths return **identical candidate sets** (filter
workloads) and **identical answer ids and distances** (verify, update,
and serving workloads), records the speedups plus counter deltas
into the ``gate`` section of ``benchmarks/history/BENCH_pr10.json``, and
exits non-zero when

* candidate sets or answer sets differ between the paths,
* the pruning-cost speedup is below ``--min-speedup`` (default 1.5×),
* the verify-phase speedup is below ``--min-verify-speedup`` (default
  2.5×),
* the cold kernel verify-phase speedup is below ``--min-kernel-speedup``
  (default 3×),
* the incremental-update speedup over a rebuild is below
  ``--min-update-speedup`` (default 2×),
* the warm-over-cold serving speedup is below ``--min-serving-speedup``,
* a serving_mixed invariant breaks, or
* any workload regresses more than ``--tolerance`` (default 20%) against
  the checked-in baseline (``--check-baseline benchmarks/BENCH_baseline.json``).

Usage::

    python benchmarks/perf_gate.py --quick --check-baseline benchmarks/BENCH_baseline.json
    python benchmarks/perf_gate.py --quick --write-baseline benchmarks/BENCH_baseline.json
"""

import argparse
import asyncio
import copy
import hashlib
import json
import os
import sys
import time
from pathlib import Path

# Make the script runnable without an installed package (repo checkout).
_REPO_ROOT = Path(__file__).resolve().parent.parent
if str(_REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "src"))
if str(_REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "benchmarks"))

from repro.core.canonical import structure_code_cache  # noqa: E402
from repro.datasets.generator import generate_chemical_database  # noqa: E402
from repro.engine import Engine  # noqa: E402
from repro.experiments import build_environment  # noqa: E402
from repro.index.fragment_index import FragmentIndex  # noqa: E402
from repro.index.persistence import index_to_dict  # noqa: E402
from repro.perf import GLOBAL_COUNTERS  # noqa: E402
from repro.reference import ReferenceSearch  # noqa: E402
from repro.search.pis import PISearch  # noqa: E402
from repro.serve import QueryServer, ServeOverloadedError  # noqa: E402

import bench_common  # noqa: E402
from bench_common import full_bench_config, quick_bench_config  # noqa: E402


#: the measured filtering workloads: (name, query edges, thresholds, rounds)
WORKLOADS = (
    ("pruning_cost", 16, (1.0, 2.0, 3.0), 2),
    ("figure10", 24, (1.0, 3.0, 5.0), 2),
)

#: the verification workload: full searches on the figure10 query set
VERIFY_WORKLOAD = ("figure10_verify", 24, (1.0, 3.0, 5.0), 2)

#: the kernel workload: (name, query edges, sigmas, rounds)
KERNEL_WORKLOAD = ("verify_kernel", 24, (1.0, 3.0, 5.0), 2)

#: the incremental-update workload: (name, churn fraction, query edges, sigmas)
UPDATE_WORKLOAD = ("incremental_update", 0.1, 16, (1.0, 2.0))

#: the serving workload: (name, query edges, sigma, concurrent clients)
SERVING_WORKLOAD = ("serving_throughput", 16, 2.0, 4)

#: the mixed read/write serving workload:
#: (name, query edges, sigma, search clients, update batches, max queue)
SERVING_MIXED_WORKLOAD = ("serving_mixed", 12, 2.0, 4, 3, 3)

def _clear_caches(environment) -> None:
    environment.index.clear_caches()
    structure_code_cache().clear()


def _reference(environment):
    """The single-pass, cache-free reference strategy over the environment."""
    return ReferenceSearch(environment.database, environment.index)


def _run_filters(strategy, queries, sigmas, rounds):
    """Run a strategy's filtering phase over the workload; return (seconds, candidates)."""
    candidates = []
    start = time.perf_counter()
    for _ in range(rounds):
        for query in queries:
            for sigma in sigmas:
                candidates.append(strategy.candidates(query, sigma))
    return time.perf_counter() - start, candidates


def _run_searches(strategy, queries, sigmas, rounds, before_each=None):
    """Run a strategy's full searches (filter + verify) over the workload.

    ``before_each`` (if given) runs before every search, e.g. to clear the
    caches.  Returns ``(verify_seconds, total_seconds, answers)`` where
    ``answers`` is a JSON-comparable payload of every search's answer ids
    and exact distances, in execution order.
    """
    answers = []
    verify_seconds = 0.0
    start = time.perf_counter()
    for _ in range(rounds):
        for query in queries:
            for sigma in sigmas:
                if before_each is not None:
                    before_each()
                result = strategy.search(query, sigma)
                verify_seconds += result.verify_seconds
                answers.append(
                    [
                        result.answer_ids,
                        {
                            str(graph_id): result.answer_distances[graph_id]
                            for graph_id in result.answer_ids
                        },
                    ]
                )
    return verify_seconds, time.perf_counter() - start, answers


def run_verify_workload(environment, name, query_edges, sigmas, rounds):
    """Measure the verification phase in legacy and optimized mode.

    The speedup compares summed verify-phase seconds (``legacy`` = the
    sequential pre-subsystem loop, ``optimized`` = the bounded verifier with
    ordering, short-circuit, memoized distances, and early exit); the
    answer ids and distances of every search must be byte-identical.
    """
    queries = environment.workload.sample_queries(
        num_edges=query_edges, count=environment.config.queries_per_set
    )

    _clear_caches(environment)
    legacy_verify, legacy_total, legacy_answers = _run_searches(
        _reference(environment), queries, sigmas, rounds
    )

    _clear_caches(environment)
    before = GLOBAL_COUNTERS.snapshot()
    optimized_verify, optimized_total, optimized_answers = _run_searches(
        PISearch(environment.index, environment.database), queries, sigmas, rounds
    )
    counters = GLOBAL_COUNTERS.delta(before)

    identical = legacy_answers == optimized_answers
    blob = json.dumps(optimized_answers).encode("utf-8")
    record = {
        "query_edges": query_edges,
        "num_queries": len(queries),
        "sigmas": list(sigmas),
        "rounds": rounds,
        "legacy_verify_seconds": round(legacy_verify, 6),
        "optimized_verify_seconds": round(optimized_verify, 6),
        "legacy_total_seconds": round(legacy_total, 6),
        "optimized_total_seconds": round(optimized_total, 6),
        "speedup": round(legacy_verify / max(optimized_verify, 1e-9), 3),
        "answers_identical": identical,
        "answers_sha256": hashlib.sha256(blob).hexdigest(),
        "counters": {key: round(value, 6) for key, value in sorted(counters.items())},
    }
    print(
        f"{name}: legacy verify {legacy_verify:.3f}s, optimized verify "
        f"{optimized_verify:.3f}s -> {record['speedup']:.2f}x speedup, "
        f"identical={identical}"
    )
    return record


def run_kernel_workload(environment, name, query_edges, sigmas, rounds):
    """Measure the array superposition kernel against the recursive search.

    Unlike :func:`run_verify_workload`, **both** sides run cold: no memo
    cache serves either side, so each side pays its full branch-and-bound
    cost on every search and the speedup isolates the kernel (plus the
    bounded verifier it feeds) instead of cache reuse.

    * **legacy** — ``ReferenceSearch``: the recursive reference search
      under the sequential pre-subsystem verifier.
    * **kernel** — the production ``PISearch``: the array kernel under the
      bounded verifier, with the distance/range/fragment/plan caches
      cleared before every search.

    Answer ids and exact distances must be byte-identical.
    The ``verify.nodes_expanded`` counter deltas of both paths are
    recorded so the pruning behaviour of the suffix bounds stays visible.
    """
    queries = environment.workload.sample_queries(
        num_edges=query_edges, count=environment.config.queries_per_set
    )

    _clear_caches(environment)
    before = GLOBAL_COUNTERS.snapshot()
    legacy_verify, legacy_total, legacy_answers = _run_searches(
        _reference(environment), queries, sigmas, rounds
    )
    legacy_counters = GLOBAL_COUNTERS.delta(before)

    pis = PISearch(environment.index, environment.database)

    def _cold():
        _clear_caches(environment)
        pis.planner.clear_cache()

    before = GLOBAL_COUNTERS.snapshot()
    kernel_verify, kernel_total, kernel_answers = _run_searches(
        pis, queries, sigmas, rounds, before_each=_cold
    )
    kernel_counters = GLOBAL_COUNTERS.delta(before)

    identical = legacy_answers == kernel_answers

    blob = json.dumps(kernel_answers).encode("utf-8")
    record = {
        "query_edges": query_edges,
        "num_queries": len(queries),
        "sigmas": list(sigmas),
        "rounds": rounds,
        "legacy_verify_seconds": round(legacy_verify, 6),
        "kernel_verify_seconds": round(kernel_verify, 6),
        "legacy_total_seconds": round(legacy_total, 6),
        "kernel_total_seconds": round(kernel_total, 6),
        "speedup": round(legacy_verify / max(kernel_verify, 1e-9), 3),
        "legacy_nodes_expanded": legacy_counters.get("verify.nodes_expanded", 0.0),
        "kernel_nodes_expanded": kernel_counters.get("verify.nodes_expanded", 0.0),
        "answers_identical": identical,
        "answers_sha256": hashlib.sha256(blob).hexdigest(),
    }
    print(
        f"{name}: legacy verify {legacy_verify:.3f}s, kernel verify "
        f"{kernel_verify:.3f}s -> {record['speedup']:.2f}x speedup, "
        f"identical={identical}, "
        f"nodes {legacy_counters.get('verify.nodes_expanded', 0.0):.0f} -> "
        f"{kernel_counters.get('verify.nodes_expanded', 0.0):.0f}"
    )
    return record


def run_update_workload(environment, name, churn, query_edges, sigmas):
    """Measure a batch of adds+removes applied incrementally vs a rebuild.

    A churn batch (``churn`` of the database removed, the same number of
    fresh graphs added) is applied two ways to copies of the environment's
    database and index:

    * **incremental** — ``remove_graph`` / ``add_graph`` on the live index
      (the update subsystem this gate protects), and
    * **rebuild** — a from-scratch ``FragmentIndex.build`` over the final
      database, which is what serving the same churn used to cost.

    The speedup is ``rebuild_seconds / incremental_seconds``; the two
    indexes must answer a probe query set with byte-identical answer ids
    and exact distances.
    """
    database = copy.deepcopy(environment.database)
    index = copy.deepcopy(environment.index)
    batch = max(2, int(len(database) * churn))
    victims = list(database.graph_ids())[::2][:batch]
    newcomers = list(generate_chemical_database(batch, seed=4242))

    start = time.perf_counter()
    for graph_id in victims:
        database.remove(graph_id)
        index.remove_graph(graph_id)
    for graph in newcomers:
        index.add_graph(database.add(graph), graph)
    incremental_seconds = time.perf_counter() - start

    start = time.perf_counter()
    rebuilt = FragmentIndex(
        environment.features,
        environment.measure,
        backend=environment.index.backend_name,
        backend_options=environment.index.backend_options,
    ).build(database)
    rebuild_seconds = time.perf_counter() - start

    queries = environment.workload.sample_queries(
        num_edges=query_edges, count=min(2, environment.config.queries_per_set)
    )
    payloads = []
    for active in (index, rebuilt):
        active.clear_caches()
        pis = PISearch(database, index=active)
        payload = []
        for query in queries:
            for sigma in sigmas:
                result = pis.search(query, sigma)
                payload.append(
                    [
                        result.answer_ids,
                        {
                            str(graph_id): result.answer_distances[graph_id]
                            for graph_id in result.answer_ids
                        },
                    ]
                )
        payloads.append(payload)
    identical = payloads[0] == payloads[1]
    blob = json.dumps(payloads[0]).encode("utf-8")
    record = {
        "database_size": len(database),
        "batch_adds": len(newcomers),
        "batch_removes": len(victims),
        "incremental_seconds": round(incremental_seconds, 6),
        "rebuild_seconds": round(rebuild_seconds, 6),
        "speedup": round(rebuild_seconds / max(incremental_seconds, 1e-9), 3),
        "answers_identical": identical,
        "answers_sha256": hashlib.sha256(blob).hexdigest(),
    }
    print(
        f"{name}: rebuild {rebuild_seconds:.3f}s, incremental "
        f"{incremental_seconds:.3f}s -> {record['speedup']:.2f}x speedup, "
        f"identical={identical}"
    )
    return record


def _answers_payload(batch):
    """JSON-comparable answer ids + exact distances of one search batch."""
    return [
        [
            result.answer_ids,
            {
                str(graph_id): result.answer_distances[graph_id]
                for graph_id in result.answer_ids
            },
        ]
        for result in batch
    ]


def run_serving_workload(environment, name, query_edges, sigma, clients):
    """Measure the serving front door: cold compute vs warm result cache.

    An engine over the environment's index is started in resident mode
    behind an in-process :class:`repro.serve.QueryServer`; ``clients``
    concurrent client tasks each submit a disjoint slice of the query set
    (so the cold pass computes every query exactly once), then replay the
    identical slice in a warm pass that is answered entirely from the
    generation-keyed result cache.  Both passes must be byte-identical —
    answer ids and exact distances — to direct uncached ``Engine.search``
    calls, and the warm pass must beat the cold one by the gate's
    ``--min-serving-speedup``.  The floor is hardware-independent: a cache
    hit is an O(1) lookup, not a parallel computation.
    """
    queries = environment.workload.sample_queries(
        num_edges=query_edges, count=environment.config.queries_per_set
    )
    engine = Engine.from_index(environment.database, environment.index)

    _clear_caches(environment)
    reference = _answers_payload([engine.search(query, sigma) for query in queries])

    # Disjoint per-client slices: every cold submit is a cache miss, every
    # warm submit a hit, so the speedup measures exactly the cached path.
    slices = [queries[position::clients] for position in range(clients)]

    async def drive(server):
        async def one_client(slice_):
            return [await server.submit(query, sigma) for query in slice_]

        start = time.perf_counter()
        gathered = await asyncio.gather(
            *(one_client(slice_) for slice_ in slices)
        )
        elapsed = time.perf_counter() - start
        # Re-interleave the slices back into query order.
        results = [None] * len(queries)
        for offset, chunk in enumerate(gathered):
            for position, result in enumerate(chunk):
                results[offset + position * clients] = result
        return elapsed, results

    async def run():
        server = QueryServer(engine, batch_window_ms=1.0)
        async with server:
            _clear_caches(environment)
            cold_seconds, cold_results = await drive(server)
            warm_seconds, warm_results = await drive(server)
            counters = server.counters.as_dict()
        return cold_seconds, cold_results, warm_seconds, warm_results, counters

    cold_seconds, cold_results, warm_seconds, warm_results, counters = (
        asyncio.run(run())
    )
    cold_answers = _answers_payload(cold_results)
    warm_answers = _answers_payload(warm_results)
    identical = cold_answers == reference and warm_answers == reference
    all_cached = all(result.from_cache for result in warm_results)
    blob = json.dumps(warm_answers).encode("utf-8")
    record = {
        "query_edges": query_edges,
        "num_queries": len(queries),
        "sigma": sigma,
        "clients": clients,
        "cpu_count": os.cpu_count() or 1,
        "cold_seconds": round(cold_seconds, 6),
        "warm_seconds": round(warm_seconds, 6),
        "cold_qps": round(len(queries) / max(cold_seconds, 1e-9), 3),
        "warm_qps": round(len(queries) / max(warm_seconds, 1e-9), 3),
        "speedup": round(cold_seconds / max(warm_seconds, 1e-9), 3),
        "warm_all_cached": all_cached,
        "answers_identical": identical,
        "answers_sha256": hashlib.sha256(blob).hexdigest(),
        "counters": {key: round(value, 6) for key, value in sorted(counters.items())},
    }
    print(
        f"{name}: cold {cold_seconds:.3f}s, warm {warm_seconds:.3f}s over "
        f"{clients} clients -> {record['speedup']:.2f}x speedup, "
        f"identical={identical}, all-cached={all_cached}"
    )
    return record


def run_serving_mixed_workload(
    environment, name, query_edges, sigma, clients, update_batches, max_queue
):
    """Sustained mixed read/write traffic against a *tiny-queue* server.

    ``clients`` concurrent search clients fire their query slices in
    bursts (every query of a slice submitted at once) against an
    in-process :class:`repro.serve.QueryServer` whose submission queue is
    bounded at ``max_queue`` — small enough that admission control sheds
    part of the burst — while one update client applies a deterministic
    sequence of mutation batches through :meth:`QueryServer.update`.

    The gate enforces two hardware-independent invariants instead of a
    speedup floor:

    * **shed correctness** — every submitted query is either answered or
      reported shed (``submitted == answered + shed``, ``lost == 0``),
      the server's own accepted/shed counters agree with the clients'
      tallies, and the queue high-water mark never exceeds ``max_queue``;
    * **byte identity** — after the storm, the server's database and
      index serialize byte-identically to a control engine that replayed
      the same mutation batches *serially*, and a final query pass
      answers byte-identically to fresh searches on that control engine.
    """
    queries = environment.workload.sample_queries(
        num_edges=query_edges, count=environment.config.queries_per_set
    )
    database = copy.deepcopy(environment.database)
    index = copy.deepcopy(environment.index)
    engine = Engine.from_index(database, index)
    control_database = copy.deepcopy(environment.database)
    control_index = copy.deepcopy(environment.index)
    control_engine = Engine.from_index(control_database, control_index)

    # Deterministic mutation batches: remove pairs of original ids (both
    # sides start with them), add pairs of generated graphs.  The update
    # client applies them in order, so the live engine and the serial
    # control replay see the identical mutation sequence.
    victims = sorted(environment.database.graph_ids())
    newcomers = list(
        generate_chemical_database(2 * update_batches, seed=777)
    )
    batches = [
        (
            newcomers[2 * position : 2 * position + 2],
            victims[2 * position : 2 * position + 2],
        )
        for position in range(update_batches)
    ]
    slices = [queries[position::clients] for position in range(clients)]
    rounds = 2

    async def run():
        server = QueryServer(engine, batch_window_ms=1.0, max_queue=max_queue)
        async with server:

            async def search_client(slice_):
                tally = {"submitted": 0, "answered": 0, "shed": 0}

                async def one(query):
                    try:
                        await server.submit(query, sigma)
                        tally["answered"] += 1
                    except ServeOverloadedError:
                        tally["shed"] += 1

                for _ in range(rounds):
                    tally["submitted"] += len(slice_)
                    # The whole slice at once: the burst overruns the
                    # tiny queue, so admission control must shed.
                    await asyncio.gather(*(one(query) for query in slice_))
                return tally

            async def update_client():
                for additions, removals in batches:
                    await server.update(add=additions, remove=removals)

            start = time.perf_counter()
            gathered = await asyncio.gather(
                update_client(), *(search_client(slice_) for slice_ in slices)
            )
            elapsed = time.perf_counter() - start
            # Post-storm verification pass: serial submits cannot be
            # shed, so every query has a served answer to compare.
            final_results = [
                await server.submit(query, sigma) for query in queries
            ]
            server_stats = server.stats()["server"]
        return gathered[1:], final_results, server_stats, elapsed

    tallies, final_results, server_stats, elapsed = asyncio.run(run())
    submitted = sum(tally["submitted"] for tally in tallies)
    answered = sum(tally["answered"] for tally in tallies)
    shed = sum(tally["shed"] for tally in tallies)
    lost = submitted - answered - shed

    # Serial control replay: the same mutation batches, in the same
    # order, with no concurrency anywhere.
    for additions, removals in batches:
        control_engine.remove_graphs(removals)
        control_engine.add_graphs(additions)
    control_results = [
        control_engine.search(query, sigma) for query in queries
    ]
    final_answers = _answers_payload(final_results)
    answers_identical = final_answers == _answers_payload(control_results)
    live_state = json.dumps(
        [database.to_dict(), index_to_dict(index)]
    ).encode("utf-8")
    control_state = json.dumps(
        [control_database.to_dict(), index_to_dict(control_index)]
    ).encode("utf-8")
    state_identical = live_state == control_state
    counters_agree = (
        server_stats["shed"] == shed
        and server_stats["accepted"] == answered + len(queries)
    )

    record = {
        "query_edges": query_edges,
        "num_queries": len(queries),
        "sigma": sigma,
        "clients": clients,
        "rounds": rounds,
        "update_batches": update_batches,
        "max_queue": max_queue,
        "elapsed_seconds": round(elapsed, 6),
        "throughput_qps": round(answered / max(elapsed, 1e-9), 3),
        "submitted": submitted,
        "answered": answered,
        "shed": shed,
        "lost": lost,
        "queue_high_water": server_stats["queue_high_water"],
        "server_counters_agree": counters_agree,
        "final_state_identical": state_identical,
        "answers_identical": answers_identical,
        "answers_sha256": hashlib.sha256(
            json.dumps(final_answers).encode("utf-8")
        ).hexdigest(),
        "state_sha256": hashlib.sha256(live_state).hexdigest(),
    }
    print(
        f"{name}: {submitted} submitted = {answered} answered + {shed} shed "
        f"({lost} lost), high-water {record['queue_high_water']}/{max_queue}, "
        f"state-identical={state_identical}, "
        f"answers-identical={answers_identical}"
    )
    return record


def run_workload(environment, name, query_edges, sigmas, rounds):
    """Measure one workload in legacy and optimized mode; return its record."""
    queries = environment.workload.sample_queries(
        num_edges=query_edges, count=environment.config.queries_per_set
    )

    _clear_caches(environment)
    legacy_seconds, legacy_candidates = _run_filters(
        _reference(environment), queries, sigmas, rounds
    )

    _clear_caches(environment)
    before = GLOBAL_COUNTERS.snapshot()
    optimized_seconds, optimized_candidates = _run_filters(
        PISearch(environment.index, environment.database), queries, sigmas, rounds
    )
    counters = GLOBAL_COUNTERS.delta(before)

    identical = legacy_candidates == optimized_candidates
    blob = json.dumps(optimized_candidates).encode("utf-8")
    record = {
        "query_edges": query_edges,
        "num_queries": len(queries),
        "sigmas": list(sigmas),
        "rounds": rounds,
        "legacy_seconds": round(legacy_seconds, 6),
        "optimized_seconds": round(optimized_seconds, 6),
        "speedup": round(legacy_seconds / max(optimized_seconds, 1e-9), 3),
        "candidates_identical": identical,
        "candidates_sha256": hashlib.sha256(blob).hexdigest(),
        "counters": {key: round(value, 6) for key, value in sorted(counters.items())},
    }
    print(
        f"{name}: legacy {legacy_seconds:.3f}s, optimized {optimized_seconds:.3f}s "
        f"-> {record['speedup']:.2f}x speedup, identical={identical}"
    )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized configuration")
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="benchmark JSON path (default: $PIS_BENCH_OUTPUT or "
        "benchmarks/history/BENCH_pr10.json)",
    )
    parser.add_argument(
        "--section",
        default="gate",
        help="section name in the benchmark JSON document; lets a quick-mode "
        "and a full-mode gate run coexist in one file (e.g. 'gate_full')",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.5,
        help="required optimized/legacy speedup on the pruning-cost workload",
    )
    parser.add_argument(
        "--min-verify-speedup",
        type=float,
        default=2.5,
        help="required optimized/legacy verify-phase speedup on the "
        "verification workload",
    )
    parser.add_argument(
        "--min-kernel-speedup",
        type=float,
        default=3.0,
        help="required cold kernel-vs-recursive verify-phase speedup on "
        "the verify_kernel workload",
    )
    parser.add_argument(
        "--min-update-speedup",
        type=float,
        default=2.0,
        help="required incremental-vs-rebuild speedup on the "
        "incremental_update workload",
    )
    parser.add_argument(
        "--min-serving-speedup",
        type=float,
        default=5.0,
        help="required warm-cache over cold speedup on the "
        "serving_throughput workload (enforced on every machine: a "
        "result-cache hit needs no parallel hardware)",
    )
    parser.add_argument(
        "--check-baseline",
        type=Path,
        default=None,
        help="baseline JSON to gate speedup regressions against",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed relative speedup regression vs the baseline (0.2 = 20%%)",
    )
    parser.add_argument(
        "--write-baseline",
        type=Path,
        default=None,
        help="write the measured speedups as a new baseline JSON",
    )
    arguments = parser.parse_args(argv)

    config = quick_bench_config() if arguments.quick else full_bench_config()
    environment = build_environment(config)

    gate = {
        "mode": "quick" if arguments.quick else "full",
        "database_size": config.database_size,
        "workloads": {},
    }
    failures = []
    for name, query_edges, sigmas, rounds in WORKLOADS:
        record = run_workload(environment, name, query_edges, sigmas, rounds)
        gate["workloads"][name] = record
        if not record["candidates_identical"]:
            failures.append(
                f"{name}: optimized candidate sets differ from the "
                "pre-optimization filter"
            )

    verify_name, verify_edges, verify_sigmas, verify_rounds = VERIFY_WORKLOAD
    verify_record = run_verify_workload(
        environment, verify_name, verify_edges, verify_sigmas, verify_rounds
    )
    gate["workloads"][verify_name] = verify_record
    if not verify_record["answers_identical"]:
        failures.append(
            f"{verify_name}: optimized answer ids/distances differ from the "
            "legacy verifier"
        )
    if verify_record["speedup"] < arguments.min_verify_speedup:
        failures.append(
            f"{verify_name}: verify-phase speedup {verify_record['speedup']:.2f}x "
            f"is below the required {arguments.min_verify_speedup:.2f}x"
        )

    kernel_name, kernel_edges, kernel_sigmas, kernel_rounds = KERNEL_WORKLOAD
    kernel_record = run_kernel_workload(
        environment, kernel_name, kernel_edges, kernel_sigmas, kernel_rounds
    )
    gate["workloads"][kernel_name] = kernel_record
    if not kernel_record["answers_identical"]:
        failures.append(
            f"{kernel_name}: array-kernel answer ids/distances differ from "
            "the recursive reference search"
        )
    if kernel_record["speedup"] < arguments.min_kernel_speedup:
        failures.append(
            f"{kernel_name}: cold kernel verify-phase speedup "
            f"{kernel_record['speedup']:.2f}x is below the required "
            f"{arguments.min_kernel_speedup:.2f}x"
        )

    update_name, update_churn, update_edges, update_sigmas = UPDATE_WORKLOAD
    update_record = run_update_workload(
        environment, update_name, update_churn, update_edges, update_sigmas
    )
    gate["workloads"][update_name] = update_record
    if not update_record["answers_identical"]:
        failures.append(
            f"{update_name}: incrementally updated index answers differ from "
            "a from-scratch rebuild"
        )
    if update_record["speedup"] < arguments.min_update_speedup:
        failures.append(
            f"{update_name}: incremental-update speedup "
            f"{update_record['speedup']:.2f}x is below the required "
            f"{arguments.min_update_speedup:.2f}x"
        )

    gate["cpu_count"] = os.cpu_count() or 1

    serving_name, serving_edges, serving_sigma, serving_clients = SERVING_WORKLOAD
    serving_record = run_serving_workload(
        environment, serving_name, serving_edges, serving_sigma, serving_clients
    )
    gate["workloads"][serving_name] = serving_record
    if not serving_record["answers_identical"]:
        failures.append(
            f"{serving_name}: served answers differ from direct uncached "
            "Engine.search"
        )
    if not serving_record["warm_all_cached"]:
        failures.append(
            f"{serving_name}: warm pass was not served entirely from the "
            "result cache"
        )
    if serving_record["speedup"] < arguments.min_serving_speedup:
        failures.append(
            f"{serving_name}: warm-over-cold speedup "
            f"{serving_record['speedup']:.2f}x is below the required "
            f"{arguments.min_serving_speedup:.2f}x"
        )

    (
        mixed_name,
        mixed_edges,
        mixed_sigma,
        mixed_clients,
        mixed_batches,
        mixed_max_queue,
    ) = SERVING_MIXED_WORKLOAD
    mixed_record = run_serving_mixed_workload(
        environment,
        mixed_name,
        mixed_edges,
        mixed_sigma,
        mixed_clients,
        mixed_batches,
        mixed_max_queue,
    )
    gate["workloads"][mixed_name] = mixed_record
    if mixed_record["lost"] != 0:
        failures.append(
            f"{mixed_name}: {mixed_record['lost']} submitted requests were "
            "neither answered nor reported shed"
        )
    if not mixed_record["server_counters_agree"]:
        failures.append(
            f"{mixed_name}: server accepted/shed counters disagree with the "
            "clients' tallies"
        )
    if mixed_record["queue_high_water"] > mixed_max_queue:
        failures.append(
            f"{mixed_name}: queue high-water "
            f"{mixed_record['queue_high_water']} exceeded "
            f"serve_max_queue={mixed_max_queue}"
        )
    if not mixed_record["final_state_identical"]:
        failures.append(
            f"{mixed_name}: final database/index state differs from a serial "
            "replay of the same mutation batches"
        )
    if not mixed_record["answers_identical"]:
        failures.append(
            f"{mixed_name}: post-storm answers differ from fresh searches on "
            "the serially replayed control engine"
        )

    pruning = gate["workloads"]["pruning_cost"]
    if pruning["speedup"] < arguments.min_speedup:
        failures.append(
            f"pruning_cost speedup {pruning['speedup']:.2f}x is below the "
            f"required {arguments.min_speedup:.2f}x"
        )

    if arguments.check_baseline is not None:
        try:
            baseline = json.loads(arguments.check_baseline.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            failures.append(f"cannot read baseline {arguments.check_baseline}: {exc}")
            baseline = {}
        for name, entry in baseline.get("workloads", {}).items():
            expected = float(entry.get("speedup", 0.0))
            measured = gate["workloads"].get(name, {}).get("speedup")
            if measured is None:
                failures.append(f"baseline workload {name!r} was not measured")
                continue
            floor = expected * (1.0 - arguments.tolerance)
            if measured < floor:
                failures.append(
                    f"{name}: speedup {measured:.2f}x regressed more than "
                    f"{arguments.tolerance:.0%} vs baseline {expected:.2f}x "
                    f"(floor {floor:.2f}x)"
                )

    path = bench_common.write_bench_results(
        section=arguments.section, payload=gate, path=arguments.output
    )
    print(f"gate results written to {path}")

    if arguments.write_baseline is not None:
        baseline = {
            "format": "pis-bench-baseline",
            "version": 1,
            "mode": gate["mode"],
            "workloads": {
                name: {"speedup": record["speedup"]}
                for name, record in gate["workloads"].items()
                if "speedup" in record  # serving_mixed gates invariants,
                # not a speedup, so it carries no baseline entry
            },
        }
        arguments.write_baseline.write_text(
            json.dumps(baseline, indent=2) + "\n", encoding="utf-8"
        )
        print(f"baseline written to {arguments.write_baseline}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("benchmark gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
