"""Open-loop serving workload: ``serve_mixed``.

The server is ``pis serve --port 0 --port-file`` (through ``launcher.py``)
over a saved engine with ``durability="wal"``.  One client process drives
it over two connections with seeded Poisson arrivals.  98% of the ops are
reads: most drawn Zipf(1.1) from a small hot set of (query, sigma) pairs,
``COLD_SHARE`` of them one-off cold pairs.  2% are update ops that each add
2 fresh graphs and remove the 2 the previous update added.  Every update
clears the result cache and moves the plan cache to a new generation, so
the read path mixes cache hits with cold searches.

The load climbs a rate ladder; the nominal rung reports the latency
metrics.  Latency is timed from each op's due time, so a stalled server
also charges the wait it imposes on later arrivals.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import inputs
import layers
from inproc import REFERENCE_WORKERS
from calibrate import Calibrator
from inputs import GRAPHS_PER_UPDATE, UPDATE_OPS
from repro import Engine
from stats import (
    LATENCY_LIMIT_MS,
    MIN_TAIL_SAMPLES,
    TAIL_PERCENTILE,
    latency_summary,
    peak_rss_mb,
    percentile,
)
from tracing import LayerSummary, Tracer, requests_by_root

LAUNCHER = Path(__file__).resolve().parent / "launcher.py"

#: Hot-set size.  With Zipf(1.1) and an update (full result-cache clear)
#: every 50 ops, 8 pairs give about 84% cache hits, so the median op is a
#: hit even when cold searches keep the server busy, and cold searches set
#: the tail.  128 pairs would put the hit share at 49% and 16 at 74%; there
#: the median flipped between a hit (~5 ms) and a cold search from seed to
#: seed.
HOT_SET = 8
ZIPF_S = 1.1
#: Share of reads that are one-off cold reads (never repeated, so always a
#: cold search): the long tail of the popularity distribution.  Kept small:
#: every cold search also delays the cache hits queued behind it, and the
#: median op must stay a hit.
COLD_SHARE = 0.04
UPDATE_SHARE = 0.02
CONNECTIONS = 2

#: Rate ladder (ops/s) and each rung's length as a share of ``--seconds``.
#: The bottom rung passes and the top rung overloads the server.  Rungs at
#: 32-128 ops/s sit near the server's capacity, which moves with the
#: machine's speed, so they passed on some runs and failed on others.
RUNGS = ((4, 0.1), (8, 1.0), (16, 0.2), (512, 0.03))
#: Servers per untraced run, each its own set-up; ``setup_s`` is their
#: median.  A set-up takes 5-10 s on a 2-core box, and a third server did
#: not fit the time budget of the whole benchmark.
SERVERS = 2
#: The nominal rung reports the latency metrics.
NOMINAL_RATE = 8
#: Stretches of the nominal rung each server runs, other rungs between.
NOMINAL_PARTS_PER_SERVER = 4
#: Longest wait for the last responses of a rung after its last arrival.
DRAIN_TIMEOUT_S = 30.0
DRAIN_ERROR = "no response before the drain timeout"
#: Generator lateness beyond which a rung's timings are marked invalid.
MAX_LAG_MS = 50.0


# ---------------------------------------------------------------------------
# server lifecycle
# ---------------------------------------------------------------------------
class Server:
    """One ``pis serve`` subprocess over a saved engine directory."""

    def __init__(self, directory: Path, trace_out: Optional[Path] = None):
        self.port_file = directory / "server.addr"
        self.trace_out = trace_out
        command = [sys.executable, str(LAUNCHER)]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += [
            "serve",
            "--database", str(directory / "db.json"),
            "--engine", str(directory / "engine.json"),
            "--port", "0",
            "--port-file", str(self.port_file),
        ]
        self.log = open(directory / "server.log", "wb")
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.process = subprocess.Popen(
            command, stdout=self.log, stderr=subprocess.STDOUT, env=env
        )
        self.host = ""
        self.port = 0

    def wait_ready(self, timeout: float = 120.0) -> None:
        """Block until the port file names the bound address."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited early; see {self.log.name}")
            try:
                host, port = self.port_file.read_text(encoding="utf-8").split()
                self.host, self.port = host, int(port)
                return
            except (OSError, ValueError):
                time.sleep(0.005)
        raise RuntimeError("server did not publish its port in time")

    def arm_tracing(self, timeout: float = 10.0) -> None:
        """Ask the launcher to install the layer wrappers; wait for it."""
        marker = Path(str(self.trace_out) + ".armed")
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + timeout
        while not marker.exists():
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not arm its tracer")
            time.sleep(0.005)

    def stop(self, timeout: float = 60.0) -> None:
        """SIGTERM (the server drains and exits), SIGKILL if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


def setup_server(seed: int, directory: Path, trace_out=None, tracer=None):
    """One set-up: build, save, start ``pis serve``, wait for its port."""
    directory.mkdir(parents=True, exist_ok=True)
    for stale in directory.rglob("*"):
        if stale.is_file():
            stale.unlink()
    database = inputs.make_database(seed)
    config = inputs.engine_config(seed).replace(durability="wal")
    start = time.perf_counter()
    if tracer is not None:
        tracer.install()
    engine = Engine.build(database, config)
    if tracer is not None:
        tracer.uninstall()
    database.save(directory / "db.json")
    engine.save(directory / "engine.json")
    server = Server(directory, trace_out)
    try:
        server.wait_ready()
    except BaseException:
        server.stop()
        raise
    seconds = time.perf_counter() - start
    return server, seconds, engine.index.stats().as_dict()["num_entries"]


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------
def zipf_weights(size: int, exponent: float) -> List[float]:
    return [1.0 / (rank ** exponent) for rank in range(1, size + 1)]


def rung_schedule(
    rng: random.Random, rate: float, seconds: float, cold_ids, minimum: int = 1
):
    """Poisson arrivals conditioned on their count: sorted uniform times.

    Fixing the count keeps the offered load exact while the spacing stays
    Poisson.  Every ``1 / UPDATE_SHARE``-th op, from a seeded offset, is an
    update: each update clears the result cache and the cold searches after
    it set the tail, so evenly spaced updates make every rung see the same
    number of such bursts.  ``COLD_SHARE`` of the other ops, at seeded
    positions, read the next one-off pair from ``cold_ids``.  Returns
    ``[(due offset s, kind, pair index or None)]``.
    """
    count = max(minimum, int(round(rate * seconds)))
    duration = count / rate
    dues = sorted(rng.uniform(0.0, duration) for _ in range(count))
    spacing = round(1.0 / UPDATE_SHARE)
    updates = set(range(rng.randrange(spacing), count, spacing))
    reads = [position for position in range(count) if position not in updates]
    cold = set(rng.sample(reads, int(round(len(reads) * COLD_SHARE))))
    picks = rng.choices(range(HOT_SET), weights=zipf_weights(HOT_SET, ZIPF_S), k=count)
    schedule = []
    for position, due in enumerate(dues):
        if position in updates:
            schedule.append((due, "update", None))
        else:
            pick = next(cold_ids) if position in cold else picks[position]
            schedule.append((due, "read", pick))
    return schedule


# ---------------------------------------------------------------------------
# load generator
# ---------------------------------------------------------------------------
class LoadClient:
    """Pipelined JSON-lines client over a few connections."""

    def __init__(self, pairs, fresh, num_graphs: int):
        #: the hot set first, then the one-off cold pairs
        self.pairs = [(query.to_dict(), sigma) for query, sigma in pairs]
        self.fresh = fresh
        self.num_graphs = num_graphs
        self.connections = []
        self.next_id = 0
        #: updates applied so far, the set-up pre-add included
        self.updates_sent = 0
        self.updates_acked = 0
        self.previous_added: List[int] = []
        self._last_update: Optional[asyncio.Task] = None

    async def connect(self, host: str, port: int) -> None:
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection(host, port, limit=1 << 24)
            connection = {"reader": reader, "writer": writer, "pending": {}}
            connection["task"] = asyncio.create_task(self._read_loop(connection))
            self.connections.append(connection)

    async def close(self) -> None:
        for connection in self.connections:
            connection["writer"].close()
        for connection in self.connections:
            await asyncio.gather(connection["task"], return_exceptions=True)
            try:
                await connection["writer"].wait_closed()
            except (ConnectionError, OSError):
                pass
        self.connections = []

    async def _read_loop(self, connection) -> None:
        reader, pending = connection["reader"], connection["pending"]
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                message = json.loads(line)
                waiter = pending.pop(message.get("id"), None)
                if waiter is not None and not waiter.done():
                    waiter.set_result((time.perf_counter(), message, self.updates_sent))
        finally:
            for waiter in pending.values():
                if not waiter.done():
                    waiter.set_exception(ConnectionError("connection closed"))

    def _send(self, payload: Dict, connection_index: int) -> asyncio.Future:
        self.next_id += 1
        payload["id"] = self.next_id
        connection = self.connections[connection_index % len(self.connections)]
        waiter = asyncio.get_running_loop().create_future()
        connection["pending"][self.next_id] = waiter
        connection["writer"].write((json.dumps(payload) + "\n").encode("utf-8"))
        return waiter

    async def request(self, payload: Dict, connection_index: int = 0) -> Dict:
        _, message, _ = await self._send(payload, connection_index)
        return message

    def _update_payload(self) -> Dict:
        number = self.updates_sent  # 0 is the set-up pre-add
        graphs = self.fresh[number * GRAPHS_PER_UPDATE : (number + 1) * GRAPHS_PER_UPDATE]
        return {
            "op": "update",
            "add": [graph.to_dict() for graph in graphs],
            "remove": list(self.previous_added),
        }

    def _expected_ids(self, number: int) -> List[int]:
        first = self.num_graphs + number * GRAPHS_PER_UPDATE
        return list(range(first, first + GRAPHS_PER_UPDATE))

    async def pre_add(self) -> None:
        """Add the first fresh graphs so every timed update removes two."""
        message = await self.request(self._update_payload())
        if not message.get("ok") or message.get("added") != self._expected_ids(0):
            raise RuntimeError(f"pre-add update failed: {message}")
        self.previous_added = message["added"]
        self.updates_sent = self.updates_acked = 1

    async def warm_up(self) -> None:
        """Ask for every hot pair once, so a run starts from warm caches."""
        for graph, sigma in self.pairs[:HOT_SET]:
            message = await self.request({"op": "search", "graph": graph, "sigma": sigma})
            if not message.get("ok"):
                raise RuntimeError(f"warm-up search failed: {message}")

    async def _update(self, op: Dict, previous: Optional[asyncio.Task]) -> None:
        # Each update removes what the previous one added, so updates are
        # sent one after another; the wait counts in the op's latency.
        if previous is not None:
            await previous
        number = self.updates_sent
        payload = self._update_payload()
        op["sent"] = time.perf_counter()
        self.updates_sent += 1
        try:
            op["received"], message, _ = await self._send(payload, number)
        except ConnectionError as exc:
            op["error"] = str(exc)
            return
        op["response"] = message
        if message.get("ok") and message.get("added") == self._expected_ids(number):
            self.previous_added = message["added"]
            self.updates_acked += 1
        else:
            op["error"] = f"update failed: {message}"

    async def _read(self, op: Dict, waiter: asyncio.Future) -> None:
        try:
            op["received"], op["response"], op["state_hi"] = await waiter
        except ConnectionError as exc:
            op["error"] = str(exc)
            return
        if not op["response"].get("ok"):
            op["error"] = op["response"].get("error", "not ok")

    async def run_rung(self, schedule) -> List[Dict]:
        """Send ``schedule`` open loop; return one record per op."""
        ops: List[Dict] = []
        tasks = []
        base = time.perf_counter() + 0.05
        for position, (due, kind, pick) in enumerate(schedule):
            op = {"kind": kind, "due": base + due, "pick": pick, "base": base}
            ops.append(op)
            delay = op["due"] - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            if kind == "update":
                task = asyncio.create_task(self._update(op, self._last_update))
                self._last_update = task
            else:
                graph, sigma = self.pairs[pick]
                op["state_lo"] = self.updates_acked
                op["sent"] = time.perf_counter()
                waiter = self._send({"op": "search", "graph": graph, "sigma": sigma}, position)
                task = asyncio.create_task(self._read(op, waiter))
            tasks.append(task)
        done, pending = await asyncio.wait(tasks, timeout=DRAIN_TIMEOUT_S)
        for task in pending:
            task.cancel()
        for op in ops:
            if "received" not in op and "error" not in op:
                op["error"] = DRAIN_ERROR
        return ops


def _state_ids(num_graphs: int, state: int) -> set:
    """Fresh-graph ids live after ``state`` updates (pre-add included)."""
    first = num_graphs + (state - 1) * GRAPHS_PER_UPDATE
    return set(range(first, first + GRAPHS_PER_UPDATE))


class ReferenceAnswers:
    """Naive-strategy answers for each database state a read could see.

    One naive engine holds the base graphs and every fresh graph at the
    ids the server assigns, so one scan per read pair yields every graph's
    answer; a state's answer keeps the base graphs plus the fresh graphs
    live in it.  Distances do not depend on the other graphs.
    """

    def __init__(self, seed: int, pairs, fresh):
        database = inputs.make_database(seed)
        self.num_graphs = len(database)
        for graph in fresh:
            database.add(graph)
        self.engine = Engine.build(database, inputs.reference_config(seed))
        self.pairs = pairs
        self._full: Dict[int, Dict[int, float]] = {}

    def prepare(self, picks) -> None:
        """Scan for every pair in ``picks``, in worker processes."""
        by_sigma: Dict[float, List[int]] = {}
        for pick in sorted(set(picks) - set(self._full)):
            by_sigma.setdefault(self.pairs[pick][1], []).append(pick)
        for sigma, group in by_sigma.items():
            batch = self.engine.search_many(
                [self.pairs[pick][0] for pick in group],
                sigma,
                workers=REFERENCE_WORKERS,
                executor="process",
            )
            for pick, result in zip(group, batch):
                self._full[pick] = {g: result.answer_distances[g] for g in result.answer_ids}

    def expected(self, pick: int, live_fresh: set) -> Dict[int, float]:
        self.prepare([pick])
        return {
            graph_id: distance
            for graph_id, distance in self._full[pick].items()
            if graph_id < self.num_graphs or graph_id in live_fresh
        }

    def accepts(self, op: Dict) -> bool:
        response = op["response"]
        answers = {
            int(graph_id): distance for graph_id, distance in response["distances"].items()
        }
        if sorted(answers) != sorted(response["answers"]):
            return False
        states = [
            _state_ids(self.num_graphs, state)
            for state in range(op["state_lo"], op["state_hi"] + 1)
        ]
        if op["state_hi"] > op["state_lo"]:
            # The server applies an update's removals and its additions as
            # two write batches; between them no fresh graph is live.
            states.append(set())
        return any(self.expected(op["pick"], live) == answers for live in states)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------
def rung_outcome(rate: float, parts: List[List[Dict]]) -> Dict:
    """Latency, failures, backlog and pass/fail of one rung.

    A rung may run in parts on several servers; each part is timed from
    its own schedule base to its last response.
    """
    ops = [op for part in parts for op in part]
    latencies = [
        (op["received"] - op["due"]) * 1000.0 for op in ops if "received" in op
    ]
    failed = sum(1 for op in ops if "error" in op)
    reads = [op for op in ops if op["kind"] == "read" and "sent" in op]
    lag_ms = max(((op["sent"] - op["due"]) * 1000.0 for op in reads), default=0.0)
    elapsed = 0.0
    drain_ms = 0.0
    for part in parts:
        last_due = max(op["due"] for op in part)
        last_received = max(
            (op["received"] for op in part if "received" in op), default=last_due
        )
        elapsed += last_received - part[0]["base"]
        drain_ms = max(drain_ms, (last_received - last_due) * 1000.0)
    tail = percentile(latencies, TAIL_PERCENTILE) if latencies else float("inf")
    return {
        "rate": rate,
        "ops": len(ops),
        "failed": failed,
        "latencies": latencies,
        "tail_ms": tail,
        "drain_ms": drain_ms,
        "lag_ms": lag_ms,
        "throughput": (len(ops) - failed) / elapsed,
        "passed": failed == 0 and tail <= LATENCY_LIMIT_MS and drain_ms <= LATENCY_LIMIT_MS,
        "valid": lag_ms <= MAX_LAG_MS,
    }


def _histogram_delta(after: Dict, before: Dict) -> float:
    count = after["count"] - before["count"]
    return (after["sum"] - before["sum"]) / count if count else 0.0


def _cache_delta(after: Optional[Dict], before: Optional[Dict]) -> float:
    if not after:
        return 0.0
    hits = after["hits"] - (before or {}).get("hits", 0)
    misses = after["misses"] - (before or {}).get("misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0


def serve_layer_metrics(before: Dict, after: Dict, ops: List[Dict]) -> Dict[str, float]:
    """Serving-layer metrics from two public ``stats`` snapshots."""
    server_before, server_after = before["server"], after["server"]
    engine_before, engine_after = before["engine"], after["engine"]
    self_ms = [
        (op["received"] - op["sent"]) * 1000.0
        - (
            0.0
            if op["response"].get("cached")
            else (op["response"]["prune_seconds"] + op["response"]["verify_seconds"]) * 1000.0
        )
        for op in ops
        if op["kind"] == "read" and "received" in op and op["response"].get("ok")
    ]
    return {
        "serve.batch_wait_ms": _histogram_delta(
            server_after["batch_wait_ms"], server_before["batch_wait_ms"]
        ),
        "serve.batch_size": _histogram_delta(
            server_after["batch_size"], server_before["batch_size"]
        ),
        "serve.queue_high_water": server_after["queue_high_water"],
        "serve.shed": server_after["shed"] - server_before["shed"],
        "serve.self_ms": statistics.mean(self_ms) if self_ms else 0.0,
        "engine.result_cache.hit_ratio": _cache_delta(
            engine_after.get("result_cache"), engine_before.get("result_cache")
        ),
        "search.planner.cache_hit_ratio": _cache_delta(
            engine_after.get("plan_cache"), engine_before.get("plan_cache")
        ),
    }


def _wal_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.glob("engine.json.wal/*") if path.is_file())


# ---------------------------------------------------------------------------
# the workload
# ---------------------------------------------------------------------------
async def _drive(
    server: Server, pairs, fresh, num_graphs: int, phases, probe, calibrator, on_phase=None
):
    """Run ``phases`` (lists of (rate, schedule)) against one server.

    ``probe`` update ops are sent one after another, shared out after the
    rungs, while the server is quiet: at 2% of the ladder's ops too few
    updates land in a run for a steady median, so ``update_p50_ms`` comes
    from this probe.  The hot set is asked again, untimed, after each
    share of the probe.  The ``calibrator`` times its task before and
    after every share of the probe, while the server is idle.
    """
    client = LoadClient(pairs, fresh, num_graphs)
    await client.connect(server.host, server.port)
    rungs_total = sum(len(phase) for phase in phases)
    probe_after = [probe // rungs_total + (i < probe % rungs_total) for i in range(rungs_total)]
    try:
        await client.pre_add()
        await client.warm_up()
        results = []
        probe_ops = []
        for index, phase in enumerate(phases):
            if on_phase is not None:
                on_phase(index)
            before = (await client.request({"op": "stats"}))["stats"]
            rungs = []
            for rate, schedule in phase:
                ops = await client.run_rung(schedule)
                rungs.append((rate, ops))
                chunk = probe_after.pop(0)
                if chunk:
                    calibrator.sample("update")
                for _ in range(chunk):
                    op = {"kind": "update", "due": time.perf_counter()}
                    await client._update(op, None)
                    probe_ops.append(op)
                if chunk:
                    calibrator.sample("update")
                if chunk and probe_after:
                    # Each update cleared the result cache: warm it again,
                    # so the next rung starts, like the first, from the
                    # steady state and not from a burst of misses.
                    await client.warm_up()
            after = (await client.request({"op": "stats"}))["stats"]
            results.append({"rungs": rungs, "stats_before": before, "stats_after": after})
        return results, probe_ops
    finally:
        await client.close()


def _split(schedule, duration: float, parts: int):
    """Cut ``schedule`` into ``parts`` equal stretches of time, each rebased to 0."""
    width = duration / parts
    pieces = [[] for _ in range(parts)]
    for due, kind, pick in schedule:
        index = min(parts - 1, int(due // width))
        pieces[index].append((due - index * width, kind, pick))
    return [piece for piece in pieces if piece]


def _plans(rng: random.Random, seconds: float, trace: bool, cold_ids) -> List[Dict]:
    """One load plan per server: phases of (rate, schedule) rungs + probe.

    The untraced run starts one server per set-up and spreads the work
    over them and over time: the nominal rung is drawn as one schedule
    (so its updates stay evenly spaced) and cut into
    ``NOMINAL_PARTS_PER_SERVER`` stretches per server, with that server's
    share of the other rungs between them; the update probe is shared out
    after every rung.  On a shared 2-core box machine speed drifts over
    seconds to minutes, so spreading the nominal rung and the probe over
    the whole run averages part of it.  The traced run has one server and
    two nominal phases, untraced then traced.
    """
    if trace:
        phases = [
            [(NOMINAL_RATE, rung_schedule(rng, NOMINAL_RATE, seconds, cold_ids, MIN_TAIL_SAMPLES))]
            for _ in range(2)
        ]
        return [{"phases": phases, "probe": 0}]
    nominal = max(MIN_TAIL_SAMPLES, int(round(NOMINAL_RATE * seconds)))
    duration = nominal / NOMINAL_RATE
    pieces = _split(
        rung_schedule(rng, NOMINAL_RATE, duration, cold_ids),
        duration,
        NOMINAL_PARTS_PER_SERVER * SERVERS,
    )
    others = [(rate, share) for rate, share in RUNGS if rate != NOMINAL_RATE]
    plans = []
    for server in range(SERVERS):
        between = [
            (rate, rung_schedule(rng, rate, seconds * share, cold_ids))
            for rate, share in others[server::SERVERS]
        ]
        own = pieces[server::SERVERS]
        rungs = []
        for index, piece in enumerate(own):
            rungs.append((NOMINAL_RATE, piece))
            if index < len(between):
                rungs.append(between[index])
        rungs += between[len(own) :]
        probe = UPDATE_OPS // SERVERS + (server < UPDATE_OPS % SERVERS)
        plans.append({"phases": [rungs], "probe": probe})
    return plans


def run(seed: int, seconds: float, trace: bool, out_dir: Path) -> Dict:
    rng = random.Random(seed)
    query_database = inputs.make_database(seed)
    hot = inputs.hot_pairs(query_database, seed, HOT_SET)
    cold_ids = itertools.count(HOT_SET)
    num_graphs = len(query_database)
    plans = _plans(rng, seconds, trace, cold_ids)
    pairs = hot + inputs.cold_pairs(query_database, seed, next(cold_ids) - HOT_SET, hot)
    chain = max(
        plan["probe"]
        + sum(kind == "update" for phase in plan["phases"] for _, s in phase for _, kind, _ in s)
        for plan in plans
    )
    fresh = inputs.fresh_graphs(seed, GRAPHS_PER_UPDATE * (chain + 1))
    input_digest = inputs.digest(
        query_database, pairs, extra=[plans, [graph.to_dict() for graph in fresh]]
    )
    del query_database

    tracer = Tracer() if trace else None
    calibrator = Calibrator()
    trace_out = out_dir / f"trace-serve_mixed-{seed}.json"
    setup_seconds: List[float] = []
    results: List[Dict] = []
    probe_ops: List[Dict] = []
    wal_marks: List[int] = []
    rss_mb = 0.0
    for repeat, plan in enumerate(plans):
        gc.collect()
        calibrator.sample("setup")
        directory = out_dir / f"serve-{repeat}"
        server, seconds_taken, index_entries = setup_server(
            seed, directory, trace_out if trace else None, tracer
        )
        try:
            setup_seconds.append(seconds_taken)
            calibrator.sample("setup")
            if repeat == 0:
                rss_mb = peak_rss_mb(server.process.pid)

            def on_phase(index: int) -> None:
                wal_marks.append(_wal_bytes(directory))
                if trace and index == 1:
                    server.arm_tracing()

            part, probe = asyncio.run(
                _drive(
                    server,
                    pairs,
                    fresh,
                    num_graphs,
                    plan["phases"],
                    plan["probe"],
                    calibrator,
                    on_phase,
                )
            )
            wal_marks.append(_wal_bytes(directory))
            results += part
            probe_ops += probe
        finally:
            server.stop()
            shutil.rmtree(directory, ignore_errors=True)

    check_start = time.perf_counter()
    reference = ReferenceAnswers(seed, pairs, fresh)
    reference.prepare(
        op["pick"] for result in results for _, ops in result["rungs"] for op in ops
        if op["kind"] == "read"
    )
    wrong = 0
    for result in results:
        for _, ops in result["rungs"]:
            for op in ops:
                if op["kind"] == "read" and "error" not in op and not reference.accepts(op):
                    op["error"] = "wrong answer"
                    wrong += 1
                    print(
                        f"wrong answer: pair {op['pick']}, states "
                        f"{op['state_lo']}..{op['state_hi']}, got {op['response']['answers']}"
                    )
    check_seconds = time.perf_counter() - check_start
    all_ops = [op for result in results for _, ops in result["rungs"] for op in ops]
    all_ops += probe_ops
    failed = sum(1 for op in all_ops if "error" in op)
    for op in all_ops:
        if "error" in op and op["error"] != "wrong answer":
            print(f"failed op: {op['kind']}: {op['error']}")
    capture = {
        "input_digest": input_digest,
        "setup_seconds": setup_seconds,
        "ops": len(all_ops),
        "updates": sum(1 for op in all_ops if op["kind"] == "update"),
        "wrong_answers": wrong,
        "error_rate": failed / len(all_ops),
        "reads_checked": sum(1 for op in all_ops if op["kind"] == "read"),
        "hot_set": HOT_SET,
        "check_seconds": check_seconds,
    }
    if not trace:
        parts_by_rate: Dict[float, List[List[Dict]]] = {}
        for result in results:
            for rate, ops in result["rungs"]:
                parts_by_rate.setdefault(rate, []).append(ops)
        outcomes = [rung_outcome(rate, parts) for rate, parts in sorted(parts_by_rate.items())]
        nominal = next(o for o in outcomes if o["rate"] == NOMINAL_RATE)
        update_latencies = [
            (op["received"] - op["due"]) * 1000.0 for op in probe_ops if "received" in op
        ]
        passing = [o for o in outcomes if o["passed"]]
        summary = latency_summary(nominal["latencies"])
        capture.update(summary)
        capture["nominal_percentiles_ms"] = {
            str(p): percentile(nominal["latencies"], p) for p in (75, 90, 95, 99)
        }
        capture["rungs"] = [
            {key: value for key, value in o.items() if key != "latencies"} for o in outcomes
        ]
        capture["update_samples"] = len(update_latencies)
        capture["probe_update_ms"] = [round(latency, 3) for latency in update_latencies]
        capture["ladder_update_ms"] = [
            round((op["received"] - op["due"]) * 1000.0, 3)
            for outcome_parts in parts_by_rate.values()
            for part in outcome_parts
            for op in part
            if op["kind"] == "update" and "received" in op
        ]
        capture["valid"] = all(o["valid"] for o in outcomes)
        update_p50 = statistics.median(update_latencies) if update_latencies else 0.0
        # Set-up and update times follow the machine's speed.  The rates do
        # not: the load is open loop, so a rung's throughput is its offered
        # rate while the server keeps up.  Nor does the median read, a
        # cache hit, much: most of it is the server's 2 ms batching window
        # and loopback I/O (with the task 1.8x faster it fell only 1.34x).
        metrics = {
            "setup_s": statistics.median(setup_seconds) * calibrator.scale(),
            "rss_mb": rss_mb,
            "qps": nominal["throughput"],
            "p50_ms": summary["p50_ms"],
            "ok_ratio": 1.0 - nominal["failed"] / nominal["ops"],
            "update_p50_ms": update_p50 * calibrator.scale("update"),
            "max_qps": max((o["rate"], o["throughput"]) for o in passing)[1] if passing else 0.0,
        }
        capture["calibration"] = calibrator.record(
            {"setup_s": statistics.median(setup_seconds), "update_p50_ms": update_p50}
        )
    else:
        untraced, traced = results
        untraced_outcome = rung_outcome(NOMINAL_RATE, [untraced["rungs"][0][1]])
        traced_ops = traced["rungs"][0][1]
        traced_outcome = rung_outcome(NOMINAL_RATE, [traced_ops])
        dump = json.loads(trace_out.read_text(encoding="utf-8"))
        spans = dump["spans"]
        roots = requests_by_root(spans)
        searches = roots["engine.search"]
        timed = LayerSummary(searches)
        update_requests = roots["engine.add_graphs"] + roots["engine.remove_graphs"]
        traced_updates = sum(1 for op in traced_ops if op["kind"] == "update")
        updates = LayerSummary(update_requests, per=traced_updates)
        metrics = {}
        metrics.update(layers.setup_metrics(tracer.spans, index_entries))
        metrics.update(
            layers.search_metrics(timed, timed, dump["counters"], len(searches), num_graphs)
        )
        metrics.update(layers.update_metrics(updates, wal_marks[2] - wal_marks[1]))
        metrics.update(serve_layer_metrics(traced["stats_before"], traced["stats_after"], traced_ops))
        metrics["loadgen.lag_ms"] = traced_outcome["lag_ms"]
        metrics["trace.overhead_pct"] = (
            statistics.median(traced_outcome["latencies"])
            / statistics.median(untraced_outcome["latencies"])
            - 1.0
        ) * 100.0
        capture["traced_searches"] = len(searches)
        capture["trace_spans"] = len(spans)
        capture["valid"] = traced_outcome["valid"] and untraced_outcome["valid"]
    if not capture["valid"]:
        print(f"warning: load generator fell more than {MAX_LAG_MS} ms behind")
    # Overload (a shed request, or one still unanswered at the drain
    # timeout) is a measured outcome of the top rungs; anything else that
    # fails is a defect, like a wrong answer.
    defects = sum(
        1
        for op in all_ops
        if "error" in op and op["error"] not in ("overloaded", DRAIN_ERROR)
    )
    return {
        "correct": defects == 0,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": metrics,
        "capture": capture,
    }
