"""The :class:`Engine` facade: one object that is the whole PIS system.

The paper presents PIS as a single coherent system — feature selection,
fragment index, partition-based search — and this module exposes it that
way:

- :meth:`Engine.build` turns a database plus a declarative
  :class:`~repro.engine.config.EngineConfig` into a ready-to-query engine
  (one fragment index, or ``config.shards`` of them built in parallel
  processes).
- :meth:`Engine.search` / :meth:`Engine.search_many` answer SSSD queries.
  On a sharded engine the coordinator plans each query once and every executor
  runs the same per-shard task (:func:`_shard_batch_task`) through one
  :meth:`~repro.exec.Executor.map_counted` call; the per-shard results
  merge byte-identically to the unsharded answers.
- :meth:`Engine.add_graphs` / :meth:`Engine.remove_graphs` mutate the
  database and index in place.  Live writes and write-ahead-log replay
  share one apply path and one record format,
  :mod:`repro.engine.durability`.
- :meth:`Engine.save` / :meth:`Engine.load` round-trip the configuration
  and the built index together, so a reloaded engine answers every query
  identically; in WAL mode, loading replays the committed batches the
  snapshot missed.

For serving, the engine has an explicit lifecycle: :meth:`Engine.start`
(also entered via ``with engine:``) switches it into *resident* mode —
executors become long-lived pools reused across every search and scatter
(workers keep their warm per-shard caches), and a generation-keyed
query-result cache (:mod:`repro.serve`) answers repeated queries in O(1),
byte-identically to a fresh search.  :meth:`Engine.close` shuts the pools
down and drops the cache; an engine that is never started uses per-call
executors and no result cache.
"""

from __future__ import annotations

import inspect
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.database import GraphDatabase
from ..core.distance import DistanceMeasure
from ..core.errors import (
    EngineConfigError,
    EngineError,
    SerializationError,
    WalError,
)
from ..core.graph import LabeledGraph
from ..exec import Executor, available_executors, make_executor
from ..index.fragment_index import FragmentIndex
from ..index.persistence import (
    index_from_dict,
    index_to_dict,
    index_wal_position,
    measure_to_dict,
)
from ..index.sharded import (
    ShardDatabaseView,
    ShardedFragmentIndex,
    merge_search_results,
)
from ..mining.registry import make_selector
from ..perf import PerfCounters
from ..core.canonical import structure_code_cache
from ..search.planner import GlobalPlanner, QueryPlan
from ..search.registry import make_strategy, strategy_class
from ..search.results import PruningReport, SearchResult
from ..search.strategy import SearchStrategy
from ..serve.cache import QueryResultCache, engine_fingerprint
from ..store.atomic import atomic_write_text
from ..store.wal import WriteAheadLog
from .config import EngineConfig
from .durability import (
    apply_additions,
    apply_record,
    apply_removals,
    check_fingerprint,
    check_id_bound,
    database_fingerprint,
    log_additions,
    log_removals,
    plan_additions,
)

__all__ = ["Engine", "BatchSearchResult"]

ENGINE_FORMAT = "pis-engine"


@dataclass
class BatchSearchResult:
    """Results of one batched :meth:`Engine.search_many` call.

    Holds the per-query :class:`~repro.search.results.SearchResult` objects
    in query order plus the aggregate timing of the batch: ``wall_seconds``
    is the elapsed wall clock of the whole batch (which, with workers,
    is less than the summed per-query time), while the ``total_*``
    properties aggregate the per-query phase timings.
    """

    sigma: float
    results: List[SearchResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    workers: int = 1
    executor: str = "sequential"

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[SearchResult]:
        return iter(self.results)

    def __getitem__(self, position: int) -> SearchResult:
        return self.results[position]

    @property
    def num_queries(self) -> int:
        """Number of queries in the batch."""
        return len(self.results)

    @property
    def total_prune_seconds(self) -> float:
        """Summed filtering time across all queries."""
        return sum(result.prune_seconds for result in self.results)

    @property
    def total_verify_seconds(self) -> float:
        """Summed verification time across all queries."""
        return sum(result.verify_seconds for result in self.results)

    @property
    def total_seconds(self) -> float:
        """Summed per-query processing time (>= wall_seconds with workers)."""
        return sum(result.total_seconds for result in self.results)

    @property
    def total_answers(self) -> int:
        """Total number of answers across all queries."""
        return sum(result.num_answers for result in self.results)

    @property
    def total_counters(self) -> Dict[str, float]:
        """Per-query performance counters summed over the batch."""
        totals = PerfCounters()
        for result in self.results:
            totals.merge(result.counters)
        return totals.as_dict()

    @property
    def total_candidates(self) -> int:
        """Total number of verified candidates across all queries."""
        return sum(result.num_candidates for result in self.results)

    def as_dict(self) -> Dict[str, Any]:
        """Return a JSON-friendly summary of the batch."""
        return {
            "sigma": self.sigma,
            "num_queries": self.num_queries,
            "workers": self.workers,
            "executor": self.executor,
            "wall_seconds": round(self.wall_seconds, 6),
            "total_prune_seconds": round(self.total_prune_seconds, 6),
            "total_verify_seconds": round(self.total_verify_seconds, 6),
            "total_candidates": self.total_candidates,
            "total_answers": self.total_answers,
            "total_counters": self.total_counters,
            "results": [result.as_dict() for result in self.results],
        }


def _check_executor(name: str) -> None:
    """Reject an executor name no :mod:`repro.exec` registration provides."""
    if name not in available_executors():
        raise EngineConfigError(
            f"unknown executor {name!r}; available: {available_executors()}"
        )


def _search_chunk(payload: Tuple) -> List[SearchResult]:
    """Process-executor task: answer a slice of the batch on a pickled engine."""
    engine, queries, sigma, verify_workers = payload
    return [
        engine.search(query, sigma, verify_workers=verify_workers)
        for query in queries
    ]


def _filter_only_search(
    strategy: SearchStrategy,
    query: LabeledGraph,
    sigma: float,
    plan: Optional[QueryPlan] = None,
) -> SearchResult:
    """Run one query's filtering phase only (``EngineConfig.verify=False``).

    The answer set is left empty on purpose; strategies exposing a full
    pruning report (PIS) keep it, so filter-only mode remains usable for
    pruning-power studies over any strategy.  A caller-supplied ``plan``
    (the scatter path) is executed instead of planning locally.
    """
    before = strategy.counters.snapshot()
    start = time.perf_counter()
    if hasattr(strategy, "filter_candidates"):
        # Keep the strategy's full pruning report — filter-only mode
        # exists precisely to study it.
        outcome = (
            strategy.filter_candidates(query, sigma, plan=plan)
            if plan is not None
            else strategy.filter_candidates(query, sigma)
        )
        candidate_ids = outcome.candidate_ids
        report = outcome.report
    else:
        candidate_ids = strategy.candidates(query, sigma)
        report = PruningReport(
            num_database_graphs=len(strategy.database),
            num_candidates=len(candidate_ids),
        )
    prune_seconds = time.perf_counter() - start
    return SearchResult(
        sigma=sigma,
        candidate_ids=list(candidate_ids),
        answer_ids=[],
        prune_seconds=prune_seconds,
        report=report,
        method=f"{strategy.name}(filter-only)",
        counters=strategy.counters.delta(before),
        plan=plan,
    )


def _shard_batch_task(payload: Dict[str, Any]) -> List[SearchResult]:
    """Executor task of the sharded scatter-gather: one shard, all queries.

    The payload is a plain dict (picklable for the process executor) naming
    the shard's database view, its fragment index, the strategy
    configuration, and the coordinator's per-query plans.  The strategy is built
    inside the task, so every executor runs the same code and worker
    processes construct their own.  With a plan in hand a shard executes it
    instead of re-planning over shard-local statistics; parallelism comes
    from running shards concurrently, not from within this loop.
    """
    strategy = make_strategy(
        payload["strategy"],
        payload["database"],
        measure=payload["index"].measure,
        index=payload["index"],
        **payload["strategy_params"],
    )
    sigma = payload["sigma"]
    results: List[SearchResult] = []
    for query, plan in zip(payload["queries"], payload["plans"]):
        if payload["verify"]:
            results.append(
                strategy.search(
                    query, sigma, verify_workers=payload["verify_workers"], plan=plan
                )
            )
        else:
            results.append(_filter_only_search(strategy, query, sigma, plan=plan))
    return results


class Engine:
    """Facade over feature selection, fragment index, and search.

    Build one with :meth:`Engine.build` (from a database and a config),
    :meth:`Engine.from_index` (around an already-built index), or
    :meth:`Engine.load` (from a file written by :meth:`save`).
    """

    def __init__(
        self,
        database: GraphDatabase,
        config: EngineConfig,
        index: Union[FragmentIndex, ShardedFragmentIndex],
    ):
        self.database = database
        self.index = index
        self._strategy: Optional[SearchStrategy] = None
        self._planner: Optional[GlobalPlanner] = None
        self._started = False
        self._resident_executors: Dict[Tuple[str, int, bool], Executor] = {}
        self._result_cache: Optional[QueryResultCache] = None
        self._wal: Optional[WriteAheadLog] = None
        self._wal_applied_lsn = 0
        self.config = config  # property setter validates

    @property
    def config(self) -> EngineConfig:
        """The engine's declarative configuration.

        Assigning a new config (e.g. ``engine.config =
        engine.config.replace(verify_workers=4)``) drops the cached
        strategy, so the next query is answered under the new settings
        regardless of whether the engine has been queried before.
        """
        return self._config

    @config.setter
    def config(self, value: EngineConfig) -> None:
        if not isinstance(value, EngineConfig):
            raise EngineConfigError(
                f"config must be an EngineConfig, got {type(value).__name__}"
            )
        self._config = value
        self._strategy = None
        self._fingerprint: Optional[str] = None
        # The planner's parameters (epsilon, cutoff, MWIS method, cache
        # bound) all come from the config, so a new config needs a new
        # planner.  Mutations, by contrast, keep the planner: its cache is
        # generation-keyed, so stale plans simply stop hitting.
        self._planner = None

    # ------------------------------------------------------------------
    # serving lifecycle (resident pools + result cache)
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """Whether the engine is in resident (serving) mode."""
        return self._started

    @property
    def result_cache(self) -> Optional[QueryResultCache]:
        """The query-result cache (``None`` unless the engine is started)."""
        return self._result_cache

    def start(self, result_cache_size: Optional[int] = None) -> "Engine":
        """Switch into resident mode: long-lived pools + result cache.

        After ``start()``, every executor the engine needs (shard
        scatter-gather, batched search) is created once, started, and
        reused across calls — worker processes survive between queries and
        keep their warm caches — and repeated queries are answered from a
        bounded :class:`~repro.serve.QueryResultCache` keyed by query
        content, sigma, the engine fingerprint, and the index generation
        (so mutations can never serve stale answers).

        ``result_cache_size`` overrides the config's ``result_cache_size``;
        ``0`` starts resident pools without a result cache.  Idempotent;
        also available as a context manager (``with engine: ...``), which
        guarantees :meth:`close`.
        """
        if self._started:
            return self
        self._started = True
        size = (
            self.config.result_cache_size
            if result_cache_size is None
            else int(result_cache_size)
        )
        if size > 0:
            self._result_cache = QueryResultCache(
                size, counters=self.index.counters
            )
        return self

    def close(self) -> None:
        """Leave resident mode: shut down pools, drop the result cache.

        Idempotent.  A closed engine keeps answering queries — it just
        reverts to per-call executors and uncached searches.
        """
        for executor in self._resident_executors.values():
            executor.close()
        self._resident_executors.clear()
        self._result_cache = None
        self._started = False

    def __enter__(self) -> "Engine":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _executor(
        self,
        name: str,
        workers: int,
        counters: Optional[PerfCounters] = None,
    ) -> Executor:
        """One executor for one parallel call site.

        On a started engine this returns a *resident* executor — created
        and started on first use, then reused by every later call with the
        same shape, so worker processes persist across searches.  On an
        unstarted engine it returns a fresh per-call executor, preserving
        the classic batch behaviour.
        """
        if not self._started:
            return make_executor(name, workers=workers, counters=counters)
        key = (name, int(workers), counters is not None)
        pool = self._resident_executors.get(key)
        if pool is None:
            pool = make_executor(name, workers=workers, counters=counters)
            pool.start()
            self._resident_executors[key] = pool
        return pool

    def serving_stats(self) -> Dict[str, Any]:
        """JSON-friendly serving-side view of the engine state."""
        return {
            "started": self._started,
            "num_graphs": len(self.database),
            "index_generation": self.index.generation,
            "shards": self.index.num_shards if self.is_sharded else 1,
            "result_cache": (
                self._result_cache.stats()
                if self._result_cache is not None
                else None
            ),
            "plan_cache": (
                self._ensure_planner().cache_stats()
                if self._supports_planning()
                else None
            ),
            "resident_executors": [
                {"executor": name, "workers": workers}
                for name, workers, _ in sorted(self._resident_executors)
            ],
            "verify": self._verify_stats(),
        }

    def __getstate__(self) -> Dict[str, Any]:
        # Engines are pickled into process-executor workers; resident
        # pools and the result cache are per-process resources and must
        # not ride along (the Executor base also refuses to pickle live
        # pools — this keeps the whole engine copy cold).
        state = dict(self.__dict__)
        state["_started"] = False
        state["_resident_executors"] = {}
        state["_result_cache"] = None
        # Worker copies must never log to the parent's write-ahead log:
        # the parent already committed the batch before the copy was made.
        state["_wal"] = None
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        database: GraphDatabase,
        config: Optional[EngineConfig] = None,
        workers: Optional[int] = None,
        shards: Optional[int] = None,
        **overrides,
    ) -> "Engine":
        """Build an engine from scratch: select features, index, wire search.

        ``overrides`` replace individual config fields, so quick variants
        read naturally: ``Engine.build(db, strategy="topoPrune")``; the
        ``shards`` parameter overrides ``config.shards`` the same way.

        With one shard (the default), ``workers > 1`` parallelizes fragment
        enumeration — the dominant build cost — across a process pool
        (:meth:`repro.index.FragmentIndex.build`).  With ``shards > 1``,
        whole shards build in parallel worker processes instead —
        enumeration *and* backend insertion
        (:meth:`repro.index.ShardedFragmentIndex.build`).  Either way the
        result is identical to a serial build.
        """
        if config is None:
            config = EngineConfig()
        if overrides:
            config = config.replace(**overrides)
        if shards is not None:
            config = config.replace(shards=int(shards))
        measure = config.make_measure()
        selector = make_selector(config.selector, **config.selector_params)
        features = selector.select(database)
        if config.shards > 1:
            index: Union[FragmentIndex, ShardedFragmentIndex] = (
                ShardedFragmentIndex.build(
                    database,
                    features,
                    measure,
                    num_shards=config.shards,
                    backend=config.backend,
                    backend_options=config.resolved_backend_options(),
                    workers=workers,
                )
            )
        else:
            index = FragmentIndex(
                features,
                measure,
                backend=config.backend,
                backend_options=config.resolved_backend_options(),
            ).build(database, workers=workers)
        return cls(database, config, index)

    @classmethod
    def from_index(
        cls,
        database: GraphDatabase,
        index: Union[FragmentIndex, ShardedFragmentIndex],
        config: Optional[EngineConfig] = None,
        **overrides,
    ) -> "Engine":
        """Wrap an already-built fragment index in an engine.

        The config's measure is taken from the index so that a subsequent
        :meth:`save` captures the semantics the index was built with.  When
        no config is supplied the feature provenance is unknown, so the
        selector is recorded as ``"prebuilt"`` — an unregistered name that
        makes :meth:`build` fail loudly rather than silently rebuilding a
        different index from a made-up selector claim.
        """
        if config is None:
            config = EngineConfig(selector="prebuilt")
        if overrides:
            config = config.replace(**overrides)
        config = config.replace(
            measure=measure_to_dict(index.measure), backend=index.backend_name
        )
        if isinstance(index, ShardedFragmentIndex):
            # The index is the ground truth for the sharding topology.
            config = config.replace(shards=index.num_shards)
        return cls(database, config, index)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def measure(self) -> DistanceMeasure:
        """The distance measure the engine's index was built with."""
        return self.index.measure

    @property
    def is_sharded(self) -> bool:
        """Whether the engine's index is partitioned across shards."""
        return isinstance(self.index, ShardedFragmentIndex)

    @property
    def strategy(self) -> SearchStrategy:
        """The configured search strategy (built lazily, then cached)."""
        if self._strategy is None:
            self._strategy = self.make_strategy(
                self.config.strategy, **self.config.strategy_params
            )
            if hasattr(self._strategy, "planner"):
                # Share the engine-owned planner: the unsharded search
                # path, the scatter driver, and cache warming then hit one
                # plan cache instead of three.
                self._strategy.planner = self._ensure_planner()
        return self._strategy

    # ------------------------------------------------------------------
    # global query planning
    # ------------------------------------------------------------------
    def _ensure_planner(self) -> GlobalPlanner:
        """The engine-owned :class:`~repro.search.planner.GlobalPlanner`.

        Built once per config from the strategy's pruning parameters and
        the config's ``plan_cache_size``; it survives index mutations
        because its cache keys include the index generation.
        """
        if self._planner is None:
            params = self.config.strategy_params
            self._planner = GlobalPlanner(
                self.index,
                epsilon=params.get("epsilon", 0.0),
                cutoff_lambda=params.get("cutoff_lambda", 1.0),
                partition_method=params.get("partition_method", "greedy"),
                partition_k=params.get("partition_k", 2),
                cache_size=self.config.plan_cache_size,
                counters=self.index.counters,
            )
        return self._planner

    @property
    def planner(self) -> Optional[GlobalPlanner]:
        """The engine's query planner, or ``None`` for non-planning
        strategies (the baselines have no plan/execute split)."""
        if self._supports_planning():
            return self._ensure_planner()
        return None

    def _supports_planning(self) -> bool:
        """Whether the configured strategy has a plan/execute split."""
        try:
            return hasattr(strategy_class(self.config.strategy), "execute_plan")
        except Exception:
            return False

    def _global_database_size(self) -> int:
        """The global live-graph count ``n`` used as the selectivity
        denominator — never any shard-local size."""
        return max(self.index.num_live_graphs, len(self.database))

    def plan_queries(
        self, queries: Sequence[LabeledGraph], sigma: float
    ) -> Optional[List[QueryPlan]]:
        """Plan each query once (cache-served), or ``None`` when the
        strategy does not plan.  The scatter path ships these to every
        shard task."""
        if not self._supports_planning():
            return None
        planner = self._ensure_planner()
        num_graphs = self._global_database_size()
        return [
            planner.plan(query, sigma, num_graphs=num_graphs)
            for query in queries
        ]

    def warm(
        self,
        queries: Sequence[LabeledGraph],
        sigmas: Sequence[float] = (),
    ) -> Dict[str, int]:
        """Pre-populate the query-side caches for an expected workload.

        Enumerates each query's fragments into the fragment memo (on a
        sharded index this seeds every shard) and — when the strategy plans —
        plans each ``(query, sigma)`` pair, which also warms the range and
        global-statistics caches the plans touch.  ``pis serve --warm``
        calls this on startup so the first real queries hit warm caches.

        Returns ``{"queries": ..., "plans": ...}`` counts for reporting.
        """
        queries = list(queries)
        if self.is_sharded:
            self.index.prewarm_query_fragments(queries)
        else:
            for query in queries:
                self.index.enumerate_query_fragments(query)
        planned = 0
        if self._supports_planning() and sigmas:
            planner = self._ensure_planner()
            num_graphs = self._global_database_size()
            for sigma in sigmas:
                for query in queries:
                    planner.plan(query, float(sigma), num_graphs=num_graphs)
                    planned += 1
        return {"queries": len(queries), "plans": planned}

    def explain(self, query: LabeledGraph, sigma: float) -> Dict[str, Any]:
        """Plan one query and compare the plan against the actual search.

        Returns a JSON-friendly document with the plan (chosen partition,
        per-fragment selectivities, estimated candidates), the actual
        candidate/answer counts, and the plan-cache accounting.  Powers the
        ``pis explain`` CLI command.
        """
        plan = None
        if self._supports_planning():
            plan = self._ensure_planner().plan(
                query, sigma, num_graphs=self._global_database_size()
            )
        result = self.search(query, sigma)
        return {
            "sigma": sigma,
            "plan": plan.as_dict() if plan is not None else None,
            "planned": result.report.planned,
            "estimated_candidates": (
                plan.estimated_candidates if plan is not None else None
            ),
            "actual_candidates": result.report.num_candidates,
            "num_structure_candidates": result.report.num_structure_candidates,
            "num_answers": result.num_answers,
            "method": result.method,
            "from_cache": result.from_cache,
            "plan_cache": (
                self._planner.cache_stats()
                if self._planner is not None
                else None
            ),
        }

    def _injected_strategy_params(
        self, name: str, params: Dict[str, Any], verify_executor: Optional[str] = None
    ) -> Dict[str, Any]:
        """Fold the config's verification defaults into strategy params.

        Third-party strategies whose constructors keep the plain
        ``(database, measure, index=None)`` registry contract are left
        alone — the defaults are only injected into strategies that accept
        them (explicit ``params`` still fail loudly if unsupported).
        """
        params = dict(params)
        signature = inspect.signature(strategy_class(name).__init__)
        parameters = signature.parameters.values()
        takes_kwargs = any(
            parameter.kind is inspect.Parameter.VAR_KEYWORD
            for parameter in parameters
        )
        for key, value in (
            ("verifier", self.config.verifier),
            ("verify_workers", self.config.verify_workers),
            ("verify_executor", verify_executor or self.config.executor),
        ):
            if takes_kwargs or key in signature.parameters:
                params.setdefault(key, value)
        return params

    def make_strategy(self, name: str, **params) -> SearchStrategy:
        """Build any registered strategy over this engine's database/index.

        Convenient for cross-checks: ``engine.make_strategy("naive")``
        returns the ground-truth scan over the same database and measure.
        The config's ``verifier`` / ``verify_workers`` / ``executor`` are
        applied unless overridden in ``params``, so cross-check strategies
        verify with the same subsystem (and share the index's distance
        cache) as the configured one.  On a sharded engine the strategy is
        built over the *merged* index view — it answers over the whole
        database, exactly like a strategy over an unsharded index.
        """
        params = self._injected_strategy_params(name, params)
        return make_strategy(
            name, self.database, measure=self.measure, index=self.index, **params
        )

    # ------------------------------------------------------------------
    # sharded scatter-gather
    # ------------------------------------------------------------------
    def _shard_payloads(
        self,
        queries: Sequence[LabeledGraph],
        sigma: float,
        verify_workers: Optional[int],
        plans: Sequence[Optional[QueryPlan]],
    ) -> List[Dict[str, Any]]:
        """Per-shard :func:`_shard_batch_task` payloads, one per shard.

        Each pairs one shard's fragment index with a
        :class:`~repro.index.ShardDatabaseView` restricted to the shard's
        graph ids, so filtering, fallbacks, and verification are all
        shard-local.  Verification inside a shard stays on the thread
        executor — shard-level parallelism already saturates the pool, and
        a process scatter must not spawn nested process pools.  ``plans``
        (parallel to ``queries``) rides along: a
        :class:`~repro.search.planner.QueryPlan` is a plain frozen
        dataclass whose pickle drops the raw range maps, so shipping one
        costs little more than its candidate ids and bounds.
        """
        index: ShardedFragmentIndex = self.index
        queries, plans = list(queries), list(plans)
        strategy_params = self._injected_strategy_params(
            self.config.strategy,
            self.config.strategy_params,
            verify_executor="thread",
        )
        return [
            {
                "strategy": self.config.strategy,
                "strategy_params": strategy_params,
                "database": ShardDatabaseView(
                    self.database, index.num_shards, position
                ),
                "index": shard,
                "queries": queries,
                "sigma": sigma,
                "verify": self.config.verify,
                "verify_workers": verify_workers,
                "plans": plans,
            }
            for position, shard in enumerate(index.shards)
        ]

    def _scatter(
        self,
        queries: Sequence[LabeledGraph],
        sigma: float,
        verify_workers: Optional[int],
        executor_name: str,
    ) -> List[SearchResult]:
        """Scatter the queries across every shard; gather merged results.

        Every shard answers every query over its own partition; the
        per-shard results merge into per-query global results
        (:func:`repro.index.merge_search_results`) that are byte-identical
        in answer ids and distances to an unsharded engine's.  Every
        executor runs the same :func:`_shard_batch_task` payloads through
        :meth:`~repro.exec.Executor.map_counted`: in-process executors
        report into the shards' live counter sinks, and the process
        executor merges the workers' counter deltas into the sharded
        index's sink, so :meth:`profile` sees the work wherever it ran.
        """
        index: ShardedFragmentIndex = self.index
        num_shards = index.num_shards
        _check_executor(executor_name)
        # Enumerate each query's fragments once, not once per shard: the
        # result is shard-independent, and warming the shard caches here
        # also ships into process-executor workers with the pickled shards.
        index.prewarm_query_fragments(queries)
        # Plan once, execute everywhere: global selectivities, one MWIS
        # solve, and the full filtering outcome computed on the driver,
        # instead of per shard.  The plans carry that outcome, so shard
        # tasks only restrict it to their live ids — no backend work.
        plans = self.plan_queries(queries, sigma) or [None] * len(queries)
        payloads = self._shard_payloads(queries, sigma, verify_workers, plans)
        pool = self._executor(executor_name, num_shards, counters=index.counters)
        per_shard = pool.map_counted(
            _shard_batch_task, payloads, sink=index.counters
        )
        num_live = len(self.database)
        return [
            merge_search_results(
                [per_shard[shard][position] for shard in range(num_shards)],
                num_database_graphs=num_live,
                num_shards=num_shards,
            )
            for position in range(len(queries))
        ]

    def stats(self) -> Dict[str, Any]:
        """Return a JSON-friendly summary of the engine's components."""
        return {
            "num_graphs": len(self.database),
            "config": self.config.to_dict(),
            "index": self.index.stats().as_dict(),
            "strategy": self.config.strategy,
            "verify": self._verify_stats(),
        }

    def _merged_counters(self) -> PerfCounters:
        """Fold every counter sink the engine feeds into one view.

        Per-shard work lands in each shard's own sink (serial/thread
        scatter) or is merged into the sharded sink from worker deltas
        (process scatter); the active strategy may own a private sink.
        """
        counters = PerfCounters()
        counters.merge(self.index.counters)
        if self.is_sharded:
            for shard in self.index.shards:
                counters.merge(shard.counters)
        if (
            self._strategy is not None
            and self._strategy.counters is not self.index.counters
        ):
            counters.merge(self._strategy.counters)
        return counters

    def _verify_stats(self) -> Dict[str, Any]:
        """Verification view: kernel availability plus search effort.

        ``nodes_expanded`` counts partial placements the superposition
        search descended into across all queries so far — the direct
        measure of branch-and-bound pruning power (the array kernel's
        suffix bounds expand fewer nodes for the same answers).
        """
        from ..core import kernel as _kernel

        snapshot = self._merged_counters().as_dict()
        return {
            "kernel_available": _kernel.kernel_available(),
            "candidates": snapshot.get("verify.candidates", 0),
            "superpositions_explored": snapshot.get(
                "verify.superpositions_explored", 0
            ),
            "nodes_expanded": snapshot.get("verify.nodes_expanded", 0),
            "early_exits": snapshot.get("verify.early_exits", 0),
        }

    def profile(self) -> Dict[str, Any]:
        """Return the engine's accumulated performance profile.

        The profile aggregates the index's counters (build, enumeration,
        range queries) with the active strategy's (filtering, verification)
        and reports the memo-cache accounting — everything needed to see
        where query time goes without attaching an external profiler.
        """
        counters = self._merged_counters()
        caches = self.index.cache_stats() + [structure_code_cache().stats()]
        if self._planner is not None:
            caches.append(self._planner.cache_stats())
        if self._result_cache is not None:
            caches.append(self._result_cache.stats())
        return {
            "counters": counters.as_dict(),
            "caches": caches,
            "index": self.index.stats().as_dict(),
        }

    # ------------------------------------------------------------------
    # incremental updates
    # ------------------------------------------------------------------
    def add_graphs(
        self,
        graphs: Sequence[LabeledGraph],
        reuse_ids: bool = False,
    ) -> List[int]:
        """Add graphs to the database *and* the index, without a rebuild.

        Each graph is appended to the database (``reuse_ids=True`` reclaims
        retired identifiers first, lowest first) and incrementally indexed
        — equivalence classes, occurrence counts, and posting-list bitsets
        update in place, and the affected memo caches are invalidated, so
        subsequent searches answer exactly as a from-scratch rebuild over
        the grown database would.

        Returns the assigned graph ids, in input order.  An empty batch
        returns ``[]`` and touches nothing.

        With ``durability="wal"`` (a WAL attached), the whole batch —
        including the ids it will assign, planned deterministically up
        front — is fsync'd to the write-ahead log *before* anything
        mutates, so a crash at any later point replays to exactly this
        post-batch state.  The in-memory apply runs under the index's
        exclusive write epoch: concurrent searches see the pre-batch index
        or the post-batch index, never a half-applied one.
        """
        graphs = list(graphs)
        if not graphs:
            return []
        pairs = list(
            zip(plan_additions(self.database, len(graphs), reuse_ids), graphs)
        )
        lsn = log_additions(self._wal, pairs) if self._wal is not None else None
        assigned = apply_additions(self.database, self.index, pairs)
        self._committed(lsn)
        return assigned

    def remove_graphs(self, graph_ids: Sequence[int]) -> int:
        """Remove graphs from the database and the index, without a rebuild.

        The identifiers are retired (tombstoned), never renumbered, so
        every other graph keeps its id.  Returns the number of distinct
        index entries removed.  Removing an unknown or already-removed id
        raises before anything is mutated; an empty batch returns ``0``
        and touches nothing.
        """
        graph_ids = list(graph_ids)
        if not graph_ids:
            return 0
        if len(set(graph_ids)) != len(graph_ids):
            raise EngineError(f"duplicate graph ids in removal batch: {graph_ids}")
        for graph_id in graph_ids:
            if graph_id not in self.database:
                raise EngineError(
                    f"cannot remove graph id {graph_id}: not a live database graph"
                )
        # Validation above means the record can always replay; commit it
        # before the first in-memory mutation.
        lsn = log_removals(self._wal, graph_ids) if self._wal is not None else None
        removed = apply_removals(self.database, self.index, graph_ids)
        self._committed(lsn)
        return removed

    def _committed(self, lsn: Optional[int], changed: bool = True) -> None:
        """Bookkeeping after a mutation batch has been applied.

        Records the WAL position the in-memory state now folds in (when
        ``lsn`` is given) and, when the index ``changed``, drops the
        cached strategy and clears the result cache — the generation bump
        already makes old entries unreachable; clearing releases their
        memory immediately.
        """
        if lsn is not None:
            self._wal_applied_lsn = lsn
            self.database.wal_position = lsn
        if changed:
            self._strategy = None
            if self._result_cache is not None:
                self._result_cache.clear()

    # ------------------------------------------------------------------
    # durability (write-ahead log)
    # ------------------------------------------------------------------
    @staticmethod
    def wal_path_for(engine_path: Union[str, Path]) -> Path:
        """Conventional WAL directory for an engine file: ``<engine>.wal``."""
        return Path(str(engine_path) + ".wal")

    @property
    def wal(self) -> Optional[WriteAheadLog]:
        """The attached write-ahead log (``None`` in ``durability="none"``)."""
        return self._wal

    @property
    def wal_applied_lsn(self) -> int:
        """Last WAL record folded into the in-memory engine state."""
        return self._wal_applied_lsn

    def attach_wal(
        self,
        wal: Union[WriteAheadLog, str, Path],
        applied_lsn: Optional[int] = None,
        replay: bool = True,
    ) -> int:
        """Attach a write-ahead log and (by default) replay pending records.

        ``applied_lsn`` names the position the in-memory state already
        folds in (defaults to the current tracked position — 0 for a
        freshly built engine).  Returns the number of records replayed.
        """
        if not isinstance(wal, WriteAheadLog):
            wal = WriteAheadLog(wal)
        self._wal = wal
        if applied_lsn is not None:
            self._wal_applied_lsn = int(applied_lsn)
        return self.replay_wal() if replay else 0

    def replay_wal(self) -> int:
        """Bring the engine forward to the WAL's last committed batch.

        Each committed record is applied to exactly the stores that missed
        it: the index side replays records beyond the engine snapshot's
        position, the database side records beyond the database file's own
        position (a crash between the two atomic file writes leaves them
        one batch apart).  Replay runs the same apply functions as the
        live writes (:mod:`repro.engine.durability`), so the recovered
        state — generations, revisions, persisted bytes — is identical to
        an uninterrupted run.

        Returns the number of records applied.
        """
        if self._wal is None:
            return 0
        database_lsn = int(getattr(self.database, "wal_position", 0) or 0)
        start_lsn = min(self._wal_applied_lsn, database_lsn)
        applied = 0
        # One exclusive write epoch covers the whole replay; each
        # record's apply joins it.
        with self.index.epochs.write():
            for record in self._wal.pending(start_lsn):
                apply_record(
                    self.database,
                    self.index,
                    record,
                    to_database=record.lsn > database_lsn,
                    to_index=record.lsn > self._wal_applied_lsn,
                )
                self._wal_applied_lsn = max(self._wal_applied_lsn, record.lsn)
                applied += 1
        self._committed(
            max(self._wal_applied_lsn, database_lsn), changed=applied > 0
        )
        return applied

    def checkpoint(
        self,
        path: Union[str, Path],
        database_path: Union[str, Path, None] = None,
    ) -> int:
        """Fold the WAL into version-5 snapshots and prune the log.

        Writes the database first (when ``database_path`` is given), the
        engine snapshot second, and prunes the log last — each file
        replaced atomically — so a crash between any two steps leaves a
        combination :meth:`load` recovers from: the log still holds every
        record a lagging file is missing.  Returns the checkpointed LSN.
        """
        if self._wal is None:
            raise EngineError(
                "no write-ahead log attached; checkpoint requires "
                'durability="wal"'
            )
        lsn = self._wal_applied_lsn
        if database_path is not None:
            self.database.save(database_path, wal_position=lsn)
        self.save(path)
        self._wal.checkpoint(lsn)
        return lsn

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """The config fingerprint used in result-cache keys (memoized)."""
        if self._fingerprint is None:
            self._fingerprint = engine_fingerprint(self.config)
        return self._fingerprint

    def _cache_key(
        self, query: LabeledGraph, sigma: float
    ) -> Optional[Tuple[Any, float, str, int]]:
        """This query's result-cache key, or ``None`` when not caching."""
        if self._result_cache is None:
            return None
        return QueryResultCache.key(
            query, sigma, self.fingerprint(), self.index.generation
        )

    def _cached_batch(
        self,
        queries: Sequence[LabeledGraph],
        sigma: float,
        compute: Callable[[List[LabeledGraph]], List[SearchResult]],
    ) -> List[SearchResult]:
        """Answer a batch from the result cache, computing only the misses.

        Used by the batch paths that bypass :meth:`search` (sharded
        scatter, process chunks): hits are served up front, the misses go
        to ``compute`` in one call — a fully cached batch never calls it —
        and the fresh results are cached.  Results come back in query
        order.
        """
        keys = [self._cache_key(query, sigma) for query in queries]
        results: List[Optional[SearchResult]] = [
            self._result_cache.get(key) if key is not None else None
            for key in keys
        ]
        missing = [
            position for position, result in enumerate(results) if result is None
        ]
        if missing:
            fresh = compute([queries[position] for position in missing])
            for position, result in zip(missing, fresh):
                results[position] = result
                if keys[position] is not None:
                    self._result_cache.put(keys[position], result)
        return results

    def search(
        self,
        query: LabeledGraph,
        sigma: float,
        verify_workers: Optional[int] = None,
    ) -> SearchResult:
        """Answer one SSSD query with the configured strategy.

        Parameters
        ----------
        query:
            The query graph.
        sigma:
            Distance threshold of the SSSD query.
        verify_workers:
            Worker-pool size for parallel candidate verification of this
            query (``None`` = the config's ``verify_workers`` default).

        Returns
        -------
        SearchResult
            Candidates, answers with exact distances, per-phase timings,
            pruning report, and counter deltas.  On a sharded engine the
            query scatter-gathers across every shard (through the config's
            executor) and the merged result is byte-identical in answer ids
            and distances to an unsharded engine's.  On a *started* engine
            a repeated query is answered from the result cache
            (``result.from_cache`` is set), byte-identically to a fresh
            search against the current index generation.
        """
        key = self._cache_key(query, sigma)
        if key is not None:
            cached = self._result_cache.get(key)
            if cached is not None:
                return cached
        # Pin the reader epoch: a concurrent add/remove batch waits for
        # this query to finish, so it sees the pre-batch index or the
        # post-batch index, never a half-applied one.
        with self.index.epochs.read():
            result = self._search_uncached(query, sigma, verify_workers)
        if key is not None:
            self._result_cache.put(key, result)
        return result

    def _search_uncached(
        self,
        query: LabeledGraph,
        sigma: float,
        verify_workers: Optional[int],
    ) -> SearchResult:
        """Compute one query, bypassing the result cache."""
        if self.is_sharded:
            return self._scatter(
                [query], sigma, verify_workers, self.config.executor
            )[0]
        strategy = self.strategy
        if self.config.verify:
            return strategy.search(query, sigma, verify_workers=verify_workers)
        # Filter-only mode: report candidates without paying for
        # verification (the answer set is left empty on purpose).
        return _filter_only_search(strategy, query, sigma)

    def search_many(
        self,
        queries: Sequence[LabeledGraph],
        sigma: float,
        workers: Optional[int] = None,
        executor: Optional[str] = None,
        verify_workers: Optional[int] = None,
    ) -> BatchSearchResult:
        """Answer a batch of queries, optionally in a worker pool.

        Parameters
        ----------
        queries:
            The query graphs; results come back in the same order.
        sigma:
            Distance threshold shared by the whole batch.
        workers:
            Pool size.  ``None``, ``0`` or ``1`` runs the batch
            sequentially in the calling thread.  Ignored on a sharded
            engine, whose parallelism is one worker per shard.
        executor:
            ``"serial"`` runs in the calling thread; ``"thread"`` shares
            the engine across a thread pool; ``"process"`` runs in worker
            processes (the only executor that sidesteps the GIL for
            pure-Python verification).  ``None`` picks the default:
            ``"thread"`` on an unsharded engine, the config's ``executor``
            on a sharded one.  On a sharded engine the pool runs one task
            per shard (each covering the whole batch) instead of one task
            per query slice.
        verify_workers:
            Worker-pool size for parallel candidate verification *within*
            each query (``None`` = the config default).  Composes with
            ``workers``: batch-level parallelism spreads queries, verify
            workers spread the candidates of one query.

        Returns
        -------
        BatchSearchResult
            Per-query results in input order plus batch-level timing.
        """
        queries = list(queries)
        start = time.perf_counter()
        if self.is_sharded:
            executor = executor or self.config.executor
            workers = self.index.num_shards

            def scatter(missing: List[LabeledGraph]) -> List[SearchResult]:
                # One topology-level read pin covers the whole scatter;
                # per-shard work nests under it without re-acquiring.
                with self.index.epochs.read():
                    return self._scatter(missing, sigma, verify_workers, executor)

            results = self._cached_batch(queries, sigma, scatter)
        else:
            executor = executor or "thread"
            _check_executor(executor)
            workers = 0 if executor == "serial" else int(workers or 0)
            if workers <= 1 or len(queries) <= 1:
                workers, executor = 1, "sequential"
                results = [
                    self.search(query, sigma, verify_workers=verify_workers)
                    for query in queries
                ]
            elif executor == "process":

                def in_chunks(missing: List[LabeledGraph]) -> List[SearchResult]:
                    # Workers receive a cold pickled engine (no result
                    # cache).  One contiguous chunk per worker keeps engine
                    # pickling cost at O(workers) instead of O(queries);
                    # the executor layer degrades to serial where process
                    # pools are unavailable.
                    size = max(1, (len(missing) + workers - 1) // workers)
                    payloads = [
                        (self, missing[position : position + size], sigma, verify_workers)
                        for position in range(0, len(missing), size)
                    ]
                    pool = self._executor("process", workers)
                    # Hold a read pin while the engine pickles into the
                    # workers so a concurrent writer cannot mutate the
                    # index mid-serialization.
                    with self.index.epochs.read():
                        chunks = pool.map(_search_chunk, payloads)
                    return [result for chunk in chunks for result in chunk]

                results = self._cached_batch(queries, sigma, in_chunks)
            else:
                # "thread" and any other registered in-process executor
                # share the engine directly, one task per query;
                # :meth:`search` handles the result cache per query, so a
                # query repeated within the batch is a hit on its later
                # occurrences.
                pool = self._executor(executor, workers)
                results = pool.map(
                    lambda query: self.search(query, sigma, verify_workers=verify_workers),
                    queries,
                )
        return BatchSearchResult(
            sigma=sigma,
            results=results,
            wall_seconds=time.perf_counter() - start,
            workers=workers,
            executor=executor,
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Serialize the engine (config + built index) to a JSON dict.

        The database itself is never stored — exactly as in the paper, the
        index holds only fragment sequences and graph ids — so loading
        takes the database as an argument.  With a write-ahead log
        attached the snapshot also records the last WAL record it folds
        in, so :meth:`load` knows which committed batches to replay.
        """
        wal_position = self._wal_applied_lsn if self._wal is not None else None
        return {
            "format": ENGINE_FORMAT,
            "version": 1,
            "config": self.config.to_dict(),
            "database_fingerprint": database_fingerprint(self.database),
            "index": index_to_dict(self.index, wal_position=wal_position),
        }

    @classmethod
    def from_dict(
        cls,
        data: Dict[str, Any],
        database: GraphDatabase,
        _defer_consistency: bool = False,
    ) -> "Engine":
        """Rebuild an engine from :meth:`to_dict` output plus its database.

        ``_defer_consistency`` (internal, used by :meth:`load` during WAL
        recovery) skips the database/index cross-checks: a crash between
        the database and engine snapshot writes legitimately leaves the
        two files one batch apart, and the checks only hold again after
        the pending records replay.
        """
        if not isinstance(data, dict) or data.get("format") != ENGINE_FORMAT:
            raise SerializationError("not a serialized PIS engine")
        config = EngineConfig.from_dict(data.get("config", {}))
        index = index_from_dict(data.get("index", {}))
        # The built index is the ground truth for the sharding topology; a
        # hand-edited config cannot silently disagree with it.
        if isinstance(index, ShardedFragmentIndex):
            if config.shards != index.num_shards:
                config = config.replace(shards=index.num_shards)
        elif config.shards != 1:
            config = config.replace(shards=1)
        if not _defer_consistency:
            check_id_bound(index, database)
            check_fingerprint(data.get("database_fingerprint"), database)
        return cls(database, config, index)

    def save(self, path: Union[str, Path]) -> None:
        """Write the engine (config + index) to a JSON file.

        The file is replaced atomically (write-temp + fsync + rename): a
        crash mid-save leaves the previous snapshot intact, never a
        truncated one.
        """
        try:
            text = json.dumps(self.to_dict())
        except TypeError as exc:
            raise SerializationError(
                f"engine contains values that are not JSON-serializable: {exc}"
            ) from exc
        try:
            atomic_write_text(path, text)
        except OSError as exc:
            raise SerializationError(
                f"cannot write engine to {path}: {exc}"
            ) from exc

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        database: GraphDatabase,
        durability: Optional[str] = None,
    ) -> "Engine":
        """Load an engine written by :meth:`save`, binding it to ``database``.

        ``durability`` overrides the snapshot's configured mode: ``"wal"``
        forces a write-ahead log open (creating ``<path>.wal`` if absent),
        ``"none"`` ignores any log on disk, and ``None`` (the default)
        follows the stored config — also opening an existing ``<path>.wal``
        directory left by a ``durability="wal"`` writer.

        In WAL mode, committed batches the snapshot (or the database file)
        missed — e.g. because the writer crashed before checkpointing —
        are replayed before the engine is returned, so the loaded state
        always reflects the last *committed* mutation batch.
        """
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise SerializationError(
                f"cannot load engine from {path}: {exc}"
            ) from exc
        if durability is not None and durability not in ("none", "wal"):
            raise EngineConfigError(
                f"durability must be 'none' or 'wal', got {durability!r}"
            )
        wal_dir = cls.wal_path_for(path)
        mode = durability
        if mode is None:
            stored_config = data.get("config")
            stored_mode = (
                stored_config.get("durability", "none")
                if isinstance(stored_config, dict)
                else "none"
            )
            mode = (
                "wal"
                if stored_mode == "wal" or wal_dir.is_dir()
                else "none"
            )
        if mode != "wal":
            return cls.from_dict(data, database)
        wal = WriteAheadLog(wal_dir)
        snapshot_lsn = index_wal_position(data.get("index") or {})
        database_lsn = int(getattr(database, "wal_position", 0) or 0)
        pending = any(
            True for _ in wal.pending(min(snapshot_lsn, database_lsn))
        )
        if pending and database_lsn == snapshot_lsn:
            # Both files describe the same pre-replay state, so the
            # fingerprint is checkable now — a foreign database must not
            # silently absorb someone else's log.
            check_fingerprint(data.get("database_fingerprint"), database)
        # With records pending, the two files may legitimately disagree
        # (crash between the database and engine writes); the id bounds
        # are checked below, once replay has brought both forward.
        engine = cls.from_dict(data, database, _defer_consistency=pending)
        if engine.config.durability != "wal":
            engine.config = engine.config.replace(durability="wal")
        engine.attach_wal(wal, applied_lsn=snapshot_lsn)
        if pending:
            check_id_bound(engine.index, database, error=WalError)
        return engine
