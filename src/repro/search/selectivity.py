"""Fragment selectivity (Definition 5 and Algorithm 2, line 18).

The selectivity of a fragment ``g`` with respect to a database ``D`` is its
average minimum superimposed distance to the database graphs,

```
w(g) = sum_i d(g, G_i) / n
```

with the singular values (``g`` not contained in ``G_i``, or distance above
the threshold) replaced by a cutoff.  The paper sets the cutoff to the query
threshold ``sigma`` and studies the sensitivity of the choice with a factor
``lambda`` (Figure 11): a cutoff of ``lambda * sigma`` with ``lambda < 1``
under-weights the graphs that do not contain the fragment at all, which is
exactly what hurts pruning; ``lambda >= 1`` behaves identically to
``lambda = 1`` as far as the greedy partition is concerned only when the
relative order of fragments is unchanged, so the experiment varies it.

Selectivity is computed directly from the per-fragment range-query results
(the ``T`` sets of Algorithm 2), so no additional index access is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

__all__ = ["SelectivityEstimator", "FragmentSelectivity"]


@dataclass(frozen=True)
class FragmentSelectivity:
    """Selectivity of one query fragment.

    Attributes
    ----------
    weight:
        The selectivity ``w(g)`` used as the MWIS vertex weight.
    num_matching_graphs:
        ``|T|`` — database graphs with a fragment occurrence within the
        distance threshold.
    mean_matched_distance:
        Average distance contribution of the matching graphs alone.
    """

    weight: float
    num_matching_graphs: int
    mean_matched_distance: float


class SelectivityEstimator:
    """Computes fragment selectivities from range-query results.

    Parameters
    ----------
    num_graphs:
        Database size ``n``.
    sigma:
        Query distance threshold.
    cutoff_lambda:
        Cutoff factor: graphs outside ``T`` contribute ``lambda * sigma``
        each.  ``1.0`` reproduces the paper's default setting.
    """

    def __init__(self, num_graphs: int, sigma: float, cutoff_lambda: float = 1.0):
        if num_graphs < 0:
            raise ValueError("num_graphs must be non-negative")
        if cutoff_lambda < 0:
            raise ValueError("cutoff_lambda must be non-negative")
        self.num_graphs = num_graphs
        self.sigma = sigma
        self.cutoff_lambda = cutoff_lambda

    @property
    def cutoff(self) -> float:
        """The distance attributed to graphs that miss the fragment."""
        return self.cutoff_lambda * self.sigma

    def from_range_result(self, distances: Mapping[int, float]) -> FragmentSelectivity:
        """Selectivity from a ``{graph_id: distance}`` range-query result.

        The matched-distance sum uses :func:`math.fsum`, which is exactly
        rounded and therefore independent of summation order: the planner
        and the reference filter produce bit-identical weights whatever
        order they walk the same distances in.
        """
        return self.from_statistics(
            len(distances), math.fsum(distances.values())
        )

    def from_statistics(
        self, num_matching_graphs: int, matched_distance_sum: float
    ) -> FragmentSelectivity:
        """Selectivity from pre-aggregated range-result statistics.

        Takes the ``(|T|, sum of matched distances)`` pair of one fragment,
        with the live database size as ``n``.
        """
        matched = int(num_matching_graphs)
        if self.num_graphs == 0:
            return FragmentSelectivity(0.0, 0, 0.0)
        matched_sum = float(matched_distance_sum)
        missing = self.num_graphs - matched
        weight = (matched_sum + missing * self.cutoff) / self.num_graphs
        mean_matched = matched_sum / matched if matched else 0.0
        return FragmentSelectivity(
            weight=weight,
            num_matching_graphs=matched,
            mean_matched_distance=mean_matched,
        )
