"""Common interface for SSSD search strategies (PIS and the baselines)."""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.database import GraphDatabase
from ..core.distance import DistanceMeasure
from ..core.errors import EngineConfigError
from ..core.graph import LabeledGraph
from ..perf import GLOBAL_COUNTERS, MemoCache, PerfCounters
from .results import PruningReport, SearchResult
from .verify import AUTO_VERIFIER, Verifier, make_verifier, resolve_verifier_name

__all__ = ["SearchStrategy"]


class SearchStrategy:
    """Base class: filter candidates, then verify them against the database.

    :meth:`search` is a template method shared by every strategy — PIS and
    the baselines alike — so all of them time and report the two phases
    identically.  Subclasses implement :meth:`candidates` (the filtering
    phase); strategies with a richer filtering phase (PIS) override
    :meth:`_filter` to also supply a pruning report and per-candidate lower
    bounds.  Verification itself is delegated to a pluggable
    :class:`~repro.search.verify.Verifier` so every strategy returns
    byte-for-byte comparable answer sets.

    Every strategy is instantiable with the same ``(database, measure,
    index=None)`` shape, so the registry in :mod:`repro.search.registry` can
    construct any of them uniformly.  Strategies that need a fragment index
    set :attr:`requires_index` and take their measure from the index.

    Parameters
    ----------
    database:
        The graph database to answer queries over.
    measure:
        Distance measure; may be omitted when ``index`` carries one.
    index:
        Optional built :class:`~repro.index.FragmentIndex`; required by
        strategies whose :attr:`requires_index` is true.
    verifier:
        Registry name of the candidate verifier (``"auto"``, ``"bounded"``,
        or any :func:`repro.search.register_verifier` name).  ``"auto"``
        resolves to the optimized default.
    verify_workers:
        Default worker-pool size for parallel candidate verification
        (``0`` = serial); :meth:`search` accepts a per-call override.
    verify_executor:
        :mod:`repro.exec` executor kind for the verification pool:
        ``"thread"`` (default), ``"process"`` for GIL-free parallel
        verification, or ``"serial"``.
    """

    #: strategy identifier used in reports and registry lookups
    name = "abstract"

    #: whether the strategy needs a built fragment index to operate
    requires_index = False

    def __init__(
        self,
        database: GraphDatabase,
        measure: Optional[DistanceMeasure] = None,
        index=None,
        verifier: str = AUTO_VERIFIER,
        verify_workers: int = 0,
        verify_executor: str = "thread",
    ):
        if measure is None and index is not None:
            measure = index.measure
        if measure is None:
            raise EngineConfigError(
                "a distance measure is required (directly or via an index)"
            )
        self.database = database
        self.measure = measure
        self.index = index
        self.verifier_name = verifier
        self.verify_workers = int(verify_workers or 0)
        self.verify_executor = verify_executor
        # Index-backed strategies share the index's counter sink so that
        # filtering and verification report into one place; index-free
        # baselines own a private sink.
        index_counters = getattr(index, "counters", None)
        self.counters: PerfCounters = (
            index_counters
            if isinstance(index_counters, PerfCounters)
            else PerfCounters(mirror=GLOBAL_COUNTERS)
        )
        self._verifiers: Dict[str, Verifier] = {}

    # ------------------------------------------------------------------
    # filtering
    # ------------------------------------------------------------------
    def candidates(self, query: LabeledGraph, sigma: float) -> List[int]:
        """Return the candidate graph ids for one query (filtering phase)."""
        raise NotImplementedError

    def _filter(
        self, query: LabeledGraph, sigma: float
    ) -> Tuple[List[int], PruningReport, Optional[Dict[int, float]]]:
        """Filtering hook of the :meth:`search` template.

        Returns ``(candidate_ids, report, lower_bounds)``.  The base
        implementation wraps :meth:`candidates` and reports no lower bounds;
        PIS overrides it to expose its pruning report and the Eq. 2 bounds
        its filtering phase computes anyway.
        """
        candidate_ids = self.candidates(query, sigma)
        return candidate_ids, PruningReport(), None

    def plan_query(self, query: LabeledGraph, sigma: float):
        """Build (or fetch from cache) a query plan, if the strategy plans.

        The base implementation returns ``None`` — baselines have no
        plan/execute split and :meth:`search` falls back to :meth:`_filter`.
        PIS overrides this to consult its :class:`~repro.search.planner
        .GlobalPlanner`.
        """
        return None

    def _execute(
        self, plan
    ) -> Tuple[List[int], PruningReport, Optional[Dict[int, float]]]:
        """Execute a precomputed plan (planning strategies only)."""
        raise NotImplementedError(f"{self.name} does not execute query plans")

    def _database_size(self) -> int:
        """Live database size reported per query (index-aware, like PIS)."""
        if self.index is not None:
            return max(self.index.num_live_graphs, len(self.database))
        return len(self.database)

    def _all_graph_ids(self) -> List[int]:
        """Every live graph id — the fallback when filtering cannot prune.

        Unions the database's live ids with the index's (the index may
        cover graphs the strategy's database copy does not, and vice
        versa) and never reports a retired id: a tombstoned graph must
        not resurface as a candidate, because verification would fail to
        fetch it.
        """
        ids = set(self.database.graph_ids())
        if self.index is not None:
            ids.update(self.index.live_graph_ids())
        return sorted(ids)

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def _distance_cache(self) -> Optional[MemoCache]:
        """The exact-distance memo cache shared through the index, if any.

        Index-free strategies return ``None`` and the bounded verifier owns
        a private cache instead.
        """
        cache = getattr(self.index, "distance_cache", None)
        return cache if isinstance(cache, MemoCache) else None

    def get_verifier(self, name: Optional[str] = None) -> Verifier:
        """Return (building on first use) the verifier registered as ``name``.

        ``None`` uses the strategy's configured :attr:`verifier_name`.
        Verifiers share the strategy's counter sink and the index's distance
        cache, so their work shows up in the same profile as filtering.
        """
        resolved = resolve_verifier_name(name or self.verifier_name)
        if resolved not in self._verifiers:
            self._verifiers[resolved] = make_verifier(
                resolved,
                self.database,
                self.measure,
                counters=self.counters,
                distance_cache=self._distance_cache(),
                workers=self.verify_workers,
                executor=self.verify_executor,
            )
        return self._verifiers[resolved]

    def verify(
        self,
        query: LabeledGraph,
        sigma: float,
        candidate_ids: Sequence[int],
        lower_bounds: Optional[Mapping[int, float]] = None,
        workers: Optional[int] = None,
    ) -> Tuple[List[int], Dict[int, float]]:
        """Verify candidates: keep graphs whose true distance is within sigma.

        Delegates to the configured :class:`~repro.search.verify.Verifier`.

        Parameters
        ----------
        query, sigma, candidate_ids:
            The query, threshold, and filtered candidate ids.
        lower_bounds:
            Optional proven per-candidate lower bounds from filtering.
        workers:
            Per-call worker-pool override (``None`` = strategy default).

        Returns
        -------
        tuple
            ``(answer_ids, answer_distances)`` in candidate order.
        """
        return self.get_verifier().verify(
            query, sigma, candidate_ids, lower_bounds=lower_bounds, workers=workers
        )

    # ------------------------------------------------------------------
    # the search template
    # ------------------------------------------------------------------
    def search(
        self,
        query: LabeledGraph,
        sigma: float,
        verify_workers: Optional[int] = None,
        plan=None,
    ) -> SearchResult:
        """Run filtering + verification and time the two phases.

        Parameters
        ----------
        query:
            The query graph.
        sigma:
            Distance threshold of the SSSD query.
        verify_workers:
            Worker-pool size for parallel verification of this one query
            (``None`` = the strategy's configured default).
        plan:
            An externally computed :class:`~repro.search.planner.QueryPlan`
            to execute (the scatter path plans once on the driver and ships
            the plan to every shard).  ``None`` asks the strategy to plan
            for itself via :meth:`plan_query`; strategies that do not plan
            run their :meth:`_filter` path.

        Returns
        -------
        SearchResult
            Candidates, answers with exact distances, per-phase timings,
            the pruning report, and per-query counter deltas.
        """
        before = self.counters.snapshot()
        start = time.perf_counter()
        if plan is None:
            plan = self.plan_query(query, sigma)
        if plan is not None:
            candidate_ids, report, lower_bounds = self._execute(plan)
        else:
            candidate_ids, report, lower_bounds = self._filter(query, sigma)
        prune_seconds = time.perf_counter() - start

        start = time.perf_counter()
        answers, distances = self.verify(
            query,
            sigma,
            candidate_ids,
            lower_bounds=lower_bounds,
            workers=verify_workers,
        )
        verify_seconds = time.perf_counter() - start

        # Both report fields are (re)stated here so every strategy — base
        # template or PIS override — populates them identically.  A planned
        # execution already carries the *global* database size from the
        # plan; overwriting it with the strategy-local view would reintroduce
        # the shard-local-denominator bug the planner exists to fix.
        if not report.num_database_graphs:
            report.num_database_graphs = self._database_size()
        report.num_candidates = len(candidate_ids)
        return SearchResult(
            sigma=sigma,
            candidate_ids=list(candidate_ids),
            answer_ids=answers,
            answer_distances=distances,
            prune_seconds=prune_seconds,
            verify_seconds=verify_seconds,
            report=report,
            method=self.name,
            counters=self.counters.delta(before),
            plan=plan,
        )
