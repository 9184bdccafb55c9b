"""Machine-speed calibration: a fixed pure-Python task timed during a run.

On a shared box the machine's own speed moves over minutes: across ten
consecutive runs of identical code, set-up time went from 8.1 s to 4.2 s
and the median search from 98 ms to 50 ms.  No run length averages that
away.  So every run also times this task, which runs no program code, at
quiet points spread over the run, and reports its speed-dependent metrics
scaled to a reference machine on which the task takes ``NOMINAL_MS``:

    reported time = measured time * NOMINAL_MS / median task time

where the median is over the task timings taken next to that measurement.

A program change that slows the program still moves the reported time by
the same share; a machine that runs at half speed for a while does not.
The raw values and the task's median are kept in the capture.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import Dict, List

#: Task time on the reference machine (a 2-core Xeon at its usual speed).
NOMINAL_MS = 10.0

#: Graph of the task: vertices and random edges, fixed by a seed.
_VERTICES = 600
_EDGES = 1800
_ROOTS = 20


def _task() -> int:
    """Interpreter work like the program's: dicts, sets, lists, sorting."""
    rng = random.Random(20060403)
    adjacency = {vertex: [] for vertex in range(_VERTICES)}
    for _ in range(_EDGES):
        a, b = rng.randrange(_VERTICES), rng.randrange(_VERTICES)
        adjacency[a].append(b)
        adjacency[b].append(a)
    reached = 0
    for root in range(0, _VERTICES, _VERTICES // _ROOTS):
        seen = {root}
        frontier = [root]
        while frontier:
            following = []
            for vertex in frontier:
                for neighbour in adjacency[vertex]:
                    if neighbour not in seen:
                        seen.add(neighbour)
                        following.append(neighbour)
            frontier = following
        reached += len(seen)
    degrees = sorted((len(neighbours), vertex) for vertex, neighbours in adjacency.items())
    return reached + degrees[-1][0]


class Calibrator:
    """Task timings by section of a run.

    Machine speed also moves within a run, so a metric is scaled by the
    timings taken next to what it measures: a section per kind of
    measurement (searches, updates).
    """

    def __init__(self) -> None:
        self.samples_ms: Dict[str, List[float]] = {}

    def sample(self, section: str, count: int = 3) -> None:
        samples = self.samples_ms.setdefault(section, [])
        # The task makes no cycles; with the collector off, a full
        # collection of the program's heap cannot land in a timing.
        gc.disable()
        try:
            for _ in range(count):
                began = time.perf_counter()
                _task()
                samples.append((time.perf_counter() - began) * 1000.0)
        finally:
            gc.enable()

    def scale(self, *sections: str) -> float:
        """Reference-machine seconds per measured second in ``sections``.

        With no section named, over every timing of the run.
        """
        samples = [
            ms
            for section in sections or self.samples_ms
            for ms in self.samples_ms[section]
        ]
        return NOMINAL_MS / statistics.median(samples)

    def record(self, raw_metrics: Dict[str, float]) -> Dict:
        """What the capture keeps: the task's timings and the raw values."""
        return {
            "nominal_ms": NOMINAL_MS,
            "sections": {
                section: {"median_ms": statistics.median(samples), "samples": len(samples)}
                for section, samples in self.samples_ms.items()
            },
            "raw_metrics": dict(raw_metrics),
        }
