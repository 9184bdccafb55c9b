"""Span tracing installed from the benchmark, around each layer's public calls.

:meth:`Tracer.install` wraps the public functions named in
:func:`layer_points` in place; :meth:`Tracer.uninstall` puts the originals
back.  The program itself is not changed.  Each call records one span:
name, start, end, parent span and request id.  A span opened with no
parent on its thread starts a new request.  Spans stay in memory until
:meth:`Tracer.write` dumps them when the run ends.

A span's self time is its duration minus the time its child spans cover;
children on one thread never overlap, so that is the sum of their
durations.  Per request the self times therefore add up to the root span.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# Span fields, kept as a list so the hot path allocates one object per call.
ID, NAME, START, END, PARENT, REQUEST, CHILD, COUNT = range(8)


def _count_len_result(args, result) -> int:
    return len(result)


def _count_len_first_arg(args, result) -> int:
    return len(args[0])


def _count_candidates(args, result) -> int:
    return len(result.candidate_ids)


def _count_answers(args, result) -> int:
    return len(result[0])


def layer_points() -> List[Tuple[Any, str, str, Optional[Callable]]]:
    """``(owner, attribute, span name, count(args, result))`` per wrapped call.

    ``select_partition`` is imported by name into the planner and PIS
    modules, so it is wrapped where it is looked up.
    """
    from repro.core import kernel
    from repro.engine.facade import Engine
    from repro.index.fragment_index import FragmentIndex
    from repro.mining.exhaustive import ExhaustiveFeatureSelector
    from repro.search import pis, planner
    from repro.search.strategy import SearchStrategy
    from repro.store.wal import WriteAheadLog

    return [
        (ExhaustiveFeatureSelector, "select", "mining.select", None),
        (FragmentIndex, "build", "index.build", None),
        (FragmentIndex, "enumerate_query_fragments", "index.enumerate", _count_len_result),
        (FragmentIndex, "range_query", "index.range_query", None),
        (planner, "select_partition", "search.partition", _count_len_first_arg),
        (pis, "select_partition", "search.partition", _count_len_first_arg),
        (planner.GlobalPlanner, "plan", "search.planner", None),
        (pis.PISearch, "execute_plan", "search.pis.execute", _count_candidates),
        (SearchStrategy, "verify", "search.verify", _count_answers),
        (kernel, "kernel_best_superposition", "core.kernel", None),
        (Engine, "search", "engine.search", None),
        (Engine, "add_graphs", "engine.add_graphs", None),
        (Engine, "remove_graphs", "engine.remove_graphs", None),
        (WriteAheadLog, "append", "store.wal.append", None),
    ]


def wait_points() -> List[Tuple[Any, str, str]]:
    """Context managers whose *acquisition* is timed (lock waits)."""
    from repro.store.epoch import EpochManager

    return [
        (EpochManager, "read", "store.epoch.read_wait"),
        (EpochManager, "write", "store.epoch.write_wait"),
    ]


class Tracer:
    """In-memory span recorder with install/uninstall of the layer wrappers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    def _enter(self, name: str) -> list:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        span = [
            next(self._ids),
            name,
            0.0,
            0.0,
            parent[ID] if parent else 0,
            parent[REQUEST] if parent else next(self._requests),
            0.0,
            None,
        ]
        stack.append(span)
        span[START] = time.perf_counter()
        return span

    def _exit(self, span: list) -> None:
        end = time.perf_counter()
        span[END] = end
        stack = self._local.stack
        stack.pop()
        if stack:
            stack[-1][CHILD] += end - span[START]
        self.spans.append(span)

    # -- wrappers ------------------------------------------------------
    def _wrap_call(self, original, name: str, count: Optional[Callable]):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(span)
            if count is not None:
                span[COUNT] = count(args, result)
            return result

        return traced

    def _wrap_wait(self, original, name: str):
        tracer = self

        @contextlib.contextmanager
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with contextlib.ExitStack() as held:
                span = tracer._enter(name)
                try:
                    value = held.enter_context(original(*args, **kwargs))
                finally:
                    tracer._exit(span)
                yield value

        return traced

    def install(self) -> None:
        """Wrap every layer point (idempotent)."""
        if self._patches:
            return
        for owner, attribute, name, count in layer_points():
            original = getattr(owner, attribute)
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap_call(original, name, count))
        for owner, attribute, name in wait_points():
            original = getattr(owner, attribute)
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap_wait(original, name))

    def uninstall(self) -> None:
        """Restore the original functions."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Dump every span as JSON (the trace file of one run)."""
        fields = ["id", "name", "start", "end", "parent", "request", "child_s", "count"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": fields, "spans": self.spans}, handle)


# -- aggregation ---------------------------------------------------------
def requests_by_root(spans: Sequence[list]) -> Dict[str, List[List[list]]]:
    """Group spans into requests, keyed by the root span's name."""
    grouped: Dict[int, List[list]] = defaultdict(list)
    for span in spans:
        grouped[span[REQUEST]].append(span)
    by_root: Dict[str, List[List[list]]] = defaultdict(list)
    for request in grouped.values():
        roots = [span for span in request if span[PARENT] == 0]
        if len(roots) == 1:
            by_root[roots[0][NAME]].append(request)
    return by_root


def self_seconds(span: list) -> float:
    return span[END] - span[START] - span[CHILD]


class LayerSummary:
    """Per-request means over the requests of one root kind."""

    def __init__(self, requests: Sequence[List[list]], per: Optional[int] = None) -> None:
        #: the divisor of the means: the request count unless ``per`` says
        #: how many ops the requests make up (an update op is two roots)
        self.requests = len(requests) if per is None else per
        self._self_ms: Dict[str, float] = defaultdict(float)
        self._calls: Dict[str, int] = defaultdict(int)
        self._counts: Dict[str, int] = defaultdict(int)
        self.wall_ms: List[float] = []
        for request in requests:
            for span in request:
                self._self_ms[span[NAME]] += self_seconds(span) * 1000.0
                self._calls[span[NAME]] += 1
                if span[COUNT] is not None:
                    self._counts[span[NAME]] += span[COUNT]
                if span[PARENT] == 0:
                    self.wall_ms.append((span[END] - span[START]) * 1000.0)

    def self_ms(self, name: str) -> float:
        """Mean self time of ``name`` spans per request (ms)."""
        return self._self_ms.get(name, 0.0) / self.requests if self.requests else 0.0

    def calls(self, name: str) -> float:
        """Mean number of ``name`` spans per request."""
        return self._calls.get(name, 0) / self.requests if self.requests else 0.0

    def count(self, name: str) -> float:
        """Mean recorded count of ``name`` spans per request."""
        return self._counts.get(name, 0) / self.requests if self.requests else 0.0

    def total_count(self, name: str) -> int:
        return self._counts.get(name, 0)

    def median_wall_ms(self) -> float:
        return statistics.median(self.wall_ms) if self.wall_ms else 0.0
