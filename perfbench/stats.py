"""Small statistics helpers shared by the workloads."""

from __future__ import annotations

import math
import os
import resource
import statistics
from typing import Dict, Sequence

#: Tail percentile reported as ``tail_ms``.  It is fixed, not picked from
#: the sample size, so two commits always compare the same percentile;
#: every workload runs at least ``MIN_TAIL_SAMPLES`` ops, which leaves
#: ``SAMPLES_BEYOND_TAIL`` beyond it.
TAIL_PERCENTILE = 90.0
SAMPLES_BEYOND_TAIL = 10

#: Latency limit on ``tail_ms`` for the serving rate ladder.
LATENCY_LIMIT_MS = 500.0


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (``p`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


MIN_TAIL_SAMPLES = round(SAMPLES_BEYOND_TAIL / (1.0 - TAIL_PERCENTILE / 100.0))


def beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie above the ``p`` percentile."""
    return count - math.ceil(count * p / 100.0)


def latency_summary(latencies_ms: Sequence[float], p: float = TAIL_PERCENTILE) -> Dict:
    """Median, tail at ``p`` and the sample counts behind them."""
    return {
        "p50_ms": statistics.median(latencies_ms),
        "tail_ms": percentile(latencies_ms, p),
        "tail_percentile": p,
        "samples": len(latencies_ms),
        "samples_beyond_tail": beyond(len(latencies_ms), p),
    }


def peak_rss_mb(pid: int = 0) -> float:
    """Peak resident memory (VmHWM) of ``pid``, or of this process."""
    if pid:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM for process {pid}")
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> Dict:
    """What a capture must record so numbers are only compared like for like."""
    import platform

    from repro.core.kernel import kernel_available

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_available": kernel_available(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }
