"""The pre-subsystem verification loop, kept only as a comparison target."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.graph import LabeledGraph
from ..core.superimposed import recursive_superposition
from ..search.verify import Verifier

__all__ = ["LegacyVerifier"]


class LegacyVerifier(Verifier):
    """The pre-subsystem verification loop, kept as the reference path.

    One full branch-and-bound :func:`~repro.core.superimposed.recursive_superposition`
    call per candidate, in candidate order, with the threshold as the only
    pruning device — no ordering, no lower-bound short-circuit, no
    memoization, no parallelism, no array kernel.  The benchmark gate and
    the tests use it as the baseline that the production verifier must
    match byte for byte.  It is not in the verifier registry.
    """

    name = "legacy"

    def verify(
        self,
        query: LabeledGraph,
        sigma: float,
        candidate_ids: Sequence[int],
        lower_bounds: Optional[Mapping[int, float]] = None,
        workers: Optional[int] = None,
    ) -> Tuple[List[int], Dict[int, float]]:
        """Verify candidates with one full search each (see class docs)."""
        answers: List[int] = []
        distances: Dict[int, float] = {}
        explored = 0
        expanded = 0
        with self.counters.timer("verify"):
            for graph_id in candidate_ids:
                result = recursive_superposition(
                    query,
                    self.database[graph_id],
                    self.measure,
                    threshold=sigma,
                )
                explored += result.explored
                expanded += result.nodes_expanded
                if result.distance <= sigma:
                    answers.append(graph_id)
                    distances[graph_id] = result.distance
        self.counters.increment("verify.candidates", len(candidate_ids))
        self.counters.increment("verify.superpositions_explored", explored)
        self.counters.increment("verify.nodes_expanded", expanded)
        return answers, distances
