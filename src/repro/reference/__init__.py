"""Reference implementations: the comparison targets of tests and gates.

Production runs one path per layer.  The code here runs only so that the
tests and ``benchmarks/perf_gate.py`` have something slower and simpler to
compare that path against, byte for byte:

:class:`LegacyVerifier`
    One full recursive branch-and-bound search per candidate, in candidate
    order — no bound ordering, memoization, parallelism or array kernel.
:class:`ReferenceSearch` / :func:`search`
    Algorithm 2 in one pass (set intersection, backend range scans, the
    Eq. 2 sweep) followed by :class:`LegacyVerifier`.

Nothing here reads or fills a production memo cache, so a reference run
measures the full cost of every query and leaves the engine's caches as it
found them.  The recursive search itself stays in
:func:`repro.core.superimposed.recursive_superposition`, because production
falls back to it when the array kernel cannot run.
"""

from .pis import ReferenceSearch, search
from .verify import LegacyVerifier

__all__ = ["LegacyVerifier", "ReferenceSearch", "search"]
