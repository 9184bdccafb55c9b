"""Closed-loop in-process workload: ``plan_heavy``.

One client calls ``Engine.search`` on the production default engine
(``Engine.build`` with the perf-gate feature settings, 1 shard, no pools)
and sends its next query when the previous one returns.  Every query is
distinct, so every (query, sigma) pair misses the plan, result and
query-fragment caches; the range-query and distance memos still see the
reuse that distinct queries share.
"""

from __future__ import annotations

import gc
import operator
import statistics
import time
import traceback
from typing import Dict, List, Optional, Tuple

import inputs
import layers
from calibrate import Calibrator
from inputs import GRAPHS_PER_UPDATE, UPDATE_OPS
from repro import Engine
from stats import (
    LATENCY_LIMIT_MS,
    MIN_TAIL_SAMPLES,
    latency_summary,
    peak_rss_mb,
)
from tracing import LayerSummary, Tracer

WORKLOADS = {
    # Q24: planning (enumeration, range queries, overlap graph + MWIS,
    # Eq. 2 bounds) is about 85% of a search at 250 graphs.
    "plan_heavy": {"num_edges": 24, "sigmas": (1.0, 2.0, 3.0)},
}

#: Worker processes of the reference check (outside the timed region).
REFERENCE_WORKERS = 2
#: Query pool per measured second; generous so a faster program still
#: has distinct queries left when the time is up.
QUERIES_PER_SECOND = 30
#: Untimed searches per engine before its timed phase.
WARMUP_SEARCHES = 6
#: Searches between two timings of the calibration task.
CALIBRATE_EVERY = 4
#: Engines one untraced run builds (each a set-up) and measures.
ENGINES = 3


def build_engine(seed: int):
    """One set-up: a fresh database object, then ``Engine.build``."""
    database = inputs.make_database(seed)
    start = time.perf_counter()
    engine = Engine.build(database, inputs.engine_config(seed))
    return engine, time.perf_counter() - start


def answers_equal(result, reference) -> bool:
    """Same answer ids and bit-identical distances."""
    if sorted(result.answer_ids) != sorted(reference.answer_ids):
        return False
    return all(
        result.answer_distances.get(graph_id) == reference.answer_distances.get(graph_id)
        for graph_id in reference.answer_ids
    )


def _search_loop(
    engine,
    pairs,
    seconds,
    minimum,
    tracer,
    cycle,
    probe=None,
    calibrator=None,
    section="search",
):
    """Closed loop over ``pairs`` until ``seconds`` pass and ``minimum`` ran.

    With a tracer, alternate blocks of one sigma cycle run traced and
    untraced, so both halves sample the same sigmas, queries and process
    state; their medians give the tracing overhead.

    With an update ``probe`` (on another engine), its ops are spread
    evenly over the loop's time, so the update timings sample the same
    stretch of machine speed as the searches; any left run at the end.  A
    ``calibrator`` times its task after every ``CALIBRATE_EVERY`` searches,
    into ``section``.  Returns the records and the seconds spent searching.
    """
    records: List[Dict] = []
    start = time.perf_counter()
    deadline = start + seconds
    aside_seconds = 0.0
    for position, (query, sigma) in enumerate(pairs):
        now = time.perf_counter()
        if len(records) >= minimum and now >= deadline:
            break
        share = min(1.0, (now - start) / seconds)
        if probe is not None and probe.done < probe.count * share:
            probe.step()
            aside_seconds += time.perf_counter() - now
        traced = tracer is not None and (position // cycle) % 2 == 1
        if traced:
            tracer.install()
            first_span = len(tracer.spans)
        began = time.perf_counter()
        try:
            result, error = engine.search(query, sigma), None
        except Exception:  # one failed op is counted, the run goes on
            result, error = None, traceback.format_exc()
        latency_ms = (time.perf_counter() - began) * 1000.0
        record = {"latency_ms": latency_ms, "result": result, "error": error}
        if traced:
            tracer.uninstall()
            record["spans"] = tracer.spans[first_span:]
        records.append(record)
        if calibrator is not None and len(records) % CALIBRATE_EVERY == 0:
            began = time.perf_counter()
            calibrator.sample(section, 1)
            aside_seconds += time.perf_counter() - began
    searched = time.perf_counter() - start - aside_seconds
    while probe is not None and probe.done < probe.count:
        probe.step()
    return records, searched


class UpdateProbe:
    """Timed update ops on one engine (no WAL: the default).

    Each op removes the 2 graphs the previous op added and adds 2 fresh
    ones, so the engine's size stays put.
    """

    def __init__(self, engine, seed: int, count: int, tracer: Optional[Tracer] = None):
        self.engine = engine
        self.count = count
        self.tracer = tracer
        self.fresh = inputs.fresh_graphs(seed, GRAPHS_PER_UPDATE * (count + 1))
        self.previous = engine.add_graphs(self.fresh[:GRAPHS_PER_UPDATE])
        self.done = 0
        self.failed = 0
        self.latencies: List[float] = []
        self.traced_ops: List = []

    def step(self) -> None:
        self.done += 1
        graphs = self.fresh[self.done * GRAPHS_PER_UPDATE : (self.done + 1) * GRAPHS_PER_UPDATE]
        if self.tracer is not None:
            self.tracer.install()
            first_span = len(self.tracer.spans)
        began = time.perf_counter()
        try:
            self.engine.remove_graphs(self.previous)
            self.previous = self.engine.add_graphs(graphs)
        except Exception:  # one failed op is counted, the run goes on
            traceback.print_exc()
            self.failed += 1
        self.latencies.append((time.perf_counter() - began) * 1000.0)
        if self.tracer is not None:
            self.tracer.uninstall()
            self.traced_ops.append(self.tracer.spans[first_span:])


def reference_results(seed: int, pairs) -> List:
    """Answers of a separate naive engine on its own copy of the database.

    Runs after the timed loop, in worker processes: it shares no cache
    with the measured engine.
    """
    engine = Engine.build(inputs.make_database(seed), inputs.reference_config(seed))
    results: List = [None] * len(pairs)
    by_sigma: Dict[float, List[int]] = {}
    for position, (_, sigma) in enumerate(pairs):
        by_sigma.setdefault(sigma, []).append(position)
    for sigma, positions in by_sigma.items():
        batch = engine.search_many(
            [pairs[position][0] for position in positions],
            sigma,
            workers=REFERENCE_WORKERS,
            executor="process",
        )
        for position, result in zip(positions, batch):
            results[position] = result
    return results


def _warm_up(engine, pairs) -> List[Dict]:
    """Untimed searches that fill the range-query and distance memos.

    Distinct queries share fragments, so a fresh engine's first searches
    miss memo entries the later ones find.  Without a warm-up that cold
    start weighs more on a run that fits fewer searches, as on a slow
    machine.  The results are still checked.
    """
    return [
        {"latency_ms": None, "result": engine.search(query, sigma), "error": None}
        for query, sigma in pairs
    ]


def _check(corpus_seed: int, records, pairs) -> Tuple[int, int]:
    """Compare ``records`` with the reference answers of ``pairs``."""
    references = reference_results(corpus_seed, pairs[: len(records)])
    wrong = errors = 0
    for record, reference, (query, sigma) in zip(records, references, pairs):
        if record["error"] is not None:
            errors += 1
            print(record["error"])
        elif not answers_equal(record["result"], reference):
            wrong += 1
            print(f"wrong answer: query {query.name} sigma {sigma}")
    return wrong, errors


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    spec = WORKLOADS[workload]
    # The untraced run measures one engine per set-up, each over its own
    # seeded corpus; the traced run measures the first alone.
    corpus_seeds = inputs.corpus_seeds(seed, 1 if trace else ENGINES)
    pool = WARMUP_SEARCHES + max(
        MIN_TAIL_SAMPLES, int(seconds * QUERIES_PER_SECOND)
    ) // len(corpus_seeds)
    pairs_by_corpus = []
    digest_graphs: List = []
    for corpus_seed in corpus_seeds:
        query_database = inputs.make_database(corpus_seed)
        pairs_by_corpus.append(
            inputs.distinct_pairs(
                query_database, corpus_seed, spec["num_edges"], spec["sigmas"], pool
            )
        )
        digest_graphs += list(query_database)
    input_digest = inputs.digest(
        digest_graphs, [pair for pairs in pairs_by_corpus for pair in pairs]
    )
    del query_database, digest_graphs

    tracer = Tracer() if trace else None
    calibrator = Calibrator()
    calibrator.sample("setup")
    engines = []
    setup_seconds: List[float] = []
    for corpus_seed in corpus_seeds:
        gc.collect()
        if tracer is not None:
            tracer.install()
        engine, seconds_taken = build_engine(corpus_seed)
        if tracer is not None:
            tracer.uninstall()
        if not engines:
            rss_mb = peak_rss_mb()
            setup_spans = list(tracer.spans) if tracer is not None else []
            live_graphs = engine.index.num_live_graphs
            index_entries = engine.index.stats().as_dict()["num_entries"]
        engines.append(engine)
        setup_seconds.append(seconds_taken)
        calibrator.sample("setup")

    # One phase per engine, each an equal share of the time.  In each
    # later phase the engine of the phase before, whose searches are done,
    # takes a share of the update ops, spread over the phase.
    phases = len(engines)
    records_by_corpus: List[List[Dict]] = []
    warm_by_corpus: List[List[Dict]] = []
    phase_seconds: List[float] = []
    probes: List[UpdateProbe] = []
    for phase, (engine, pairs) in enumerate(zip(engines, pairs_by_corpus)):
        warm_by_corpus.append(_warm_up(engine, pairs[:WARMUP_SEARCHES]))
        probe = None
        if phase:
            share = UPDATE_OPS // (phases - 1) + (phase <= UPDATE_OPS % (phases - 1))
            probe = UpdateProbe(engines[phase - 1], corpus_seeds[phase - 1], share)
            probes.append(probe)
        gc.collect()
        part, part_seconds = _search_loop(
            engine,
            pairs[WARMUP_SEARCHES:],
            seconds / phases,
            -(-MIN_TAIL_SAMPLES // phases),
            tracer,
            len(spec["sigmas"]),
            probe,
            calibrator,
            f"phase{phase}",
        )
        records_by_corpus.append(part)
        phase_seconds.append(part_seconds)
    records = [record for part in records_by_corpus for record in part]
    loop_seconds = sum(phase_seconds)
    # Update latencies by the phase they ran in; none in the first.
    updates_by_phase = [[]] + [probe.latencies for probe in probes]
    update_latencies = [latency for part in updates_by_phase for latency in part]
    update_failures = sum(probe.failed for probe in probes)
    del engines, probes, probe

    check_start = time.perf_counter()
    wrong = errors = 0
    for corpus_seed, warm, part, pairs in zip(
        corpus_seeds, warm_by_corpus, records_by_corpus, pairs_by_corpus
    ):
        bad = _check(corpus_seed, warm + part, pairs)
        wrong += bad[0]
        errors += bad[1]
    check_seconds = time.perf_counter() - check_start
    traced_updates: List = []
    if trace:
        probe = UpdateProbe(engine, corpus_seeds[0], UPDATE_OPS, tracer)
        while probe.done < probe.count:
            probe.step()
        update_latencies, traced_updates, update_failures = (
            probe.latencies, probe.traced_ops, probe.failed
        )

    counted = records[: layers.WORK_COUNT_SEARCHES]
    counters: Dict[str, float] = {}
    for record in counted:
        if record["result"] is not None:
            for name, value in record["result"].counters.items():
                counters[name] = counters.get(name, 0.0) + value
    work = layers.work_counts(
        counters,
        len(counted),
        sum(r["result"].num_answers for r in counted if r["result"] is not None),
    )

    searches = len(records)
    failed = wrong + errors + update_failures
    attempted = searches + len(update_latencies)
    latencies = [record["latency_ms"] for record in records]
    capture = {
        "input_digest": input_digest,
        "searches": searches,
        "loop_seconds": loop_seconds,
        "wrong_answers": wrong,
        "errors": errors + update_failures,
        "error_rate": failed / attempted,
        "setup_seconds": setup_seconds,
        "update_samples": len(update_latencies),
        "check_seconds": check_seconds,
        "work_counts": work,
        "corpus_seeds": corpus_seeds,
        "phase_p50_ms": [
            statistics.median(r["latency_ms"] for r in part) for part in records_by_corpus
        ],
    }
    if not trace:
        summary = latency_summary(latencies)
        meets_limit = summary["tail_ms"] <= LATENCY_LIMIT_MS and failed == 0
        qps = searches / loop_seconds
        capture.update(summary)
        # Every time and closed-loop rate here follows the machine's speed,
        # which also moves between phases: each phase's searches and update
        # ops are scaled by that phase's own task timings.
        scales = [calibrator.scale(f"phase{phase}") for phase in range(phases)]
        scaled_qps = searches / sum(map(operator.mul, phase_seconds, scales))
        metrics = {
            "setup_s": statistics.median(setup_seconds) * calibrator.scale(),
            "rss_mb": rss_mb,
            "qps": scaled_qps,
            "p50_ms": statistics.median(
                r["latency_ms"] * scale
                for part, scale in zip(records_by_corpus, scales)
                for r in part
            ),
            "ok_ratio": 1.0 - failed / attempted,
            "update_p50_ms": statistics.median(
                latency * scale
                for part, scale in zip(updates_by_phase, scales)
                for latency in part
            ),
            # One closed-loop client: the highest rate it sustains is its
            # own throughput, as long as its tail meets the limit.
            "max_qps": scaled_qps if meets_limit else 0.0,
        }
        capture["calibration"] = calibrator.record(
            {
                "setup_s": statistics.median(setup_seconds),
                "qps": qps,
                "p50_ms": summary["p50_ms"],
                "update_p50_ms": statistics.median(update_latencies),
            }
        )
    else:
        traced = [r for r in records if "spans" in r]
        untraced = [r for r in records if "spans" not in r]
        timed = LayerSummary([r["spans"] for r in traced])
        counted_traced = LayerSummary([r["spans"] for r in counted if "spans" in r])
        covered_ms = sum(timed.wall_ms)
        measured_ms = sum(r["latency_ms"] for r in traced)
        traced_p50 = statistics.median(r["latency_ms"] for r in traced)
        untraced_p50 = statistics.median(r["latency_ms"] for r in untraced)
        metrics = {}
        metrics.update(layers.setup_metrics(setup_spans, index_entries))
        metrics.update(
            layers.search_metrics(timed, counted_traced, counters, len(counted), live_graphs)
        )
        metrics.update(layers.update_metrics(LayerSummary(traced_updates), 0))
        metrics["trace.overhead_pct"] = (traced_p50 / untraced_p50 - 1.0) * 100.0
        metrics["trace.coverage_pct"] = covered_ms / measured_ms * 100.0
        capture["traced_searches"] = len(traced)
        capture["trace_spans"] = len(tracer.spans)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "capture": capture,
        "tracer": tracer,
    }
