"""Declarative engine configuration.

An :class:`EngineConfig` captures every choice that goes into building and
querying a PIS engine — which feature selector picks the indexed
structures, which per-class backend answers range queries, which distance
measure defines the semantics, and which search strategy (with which
parameters) answers queries — as plain data.  Components are referenced by
their registry names (:func:`repro.mining.make_selector`,
:func:`repro.index.make_backend`, :func:`repro.search.make_strategy`), so a
config round-trips through JSON and an engine saved to disk can be rebuilt
with identical behaviour.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..core.distance import DistanceMeasure, default_edge_mutation_distance
from ..core.errors import EngineConfigError
from ..index.persistence import measure_from_dict, measure_to_dict

__all__ = ["EngineConfig"]

#: keys of removed knobs that saved engine documents may still carry;
#: :meth:`EngineConfig.from_dict` drops them instead of rejecting the file
RETIRED_KEYS = frozenset({"kernel"})


@dataclass
class EngineConfig:
    """Everything needed to build (and rebuild) an engine, as plain data.

    Attributes
    ----------
    selector / selector_params:
        Registry name of the feature selector plus its constructor
        parameters (e.g. ``"exhaustive"`` with ``{"max_edges": 4}``).
    backend / backend_options:
        Per-class range-query backend name (``"trie"``, ``"rtree"``,
        ``"vptree"``, ``"linear"`` or ``"auto"``) and its options.
    rebuild_threshold:
        Tombstoned-entry fraction above which lazily-deleting backends
        (the R-tree) compact themselves after :meth:`repro.engine.Engine.\
remove_graphs` (see :mod:`repro.index.backends`).  ``None`` keeps each
        backend's default; a set value is injected into
        ``backend_options`` at build time.
    measure:
        Serialized distance measure (:func:`repro.index.measure_to_dict`
        output) or ``None`` for the paper's default edge-label mutation
        distance.
    strategy / strategy_params:
        Registry name of the search strategy plus its constructor
        parameters (e.g. ``"pis"`` with ``{"partition_method": "exact"}``).
    verify:
        When false, :meth:`repro.engine.Engine.search` stops after the
        filtering phase and reports an empty answer set — useful for
        pruning-power studies that must not pay for verification.
    verifier:
        Registry name of the candidate verifier
        (:func:`repro.search.verify.make_verifier`): ``"auto"`` (the
        default, resolving to the optimized ``"bounded"`` verifier),
        ``"bounded"``, or any name registered through
        :func:`repro.search.verify.register_verifier`.
    verify_workers:
        Default worker-pool size for parallel candidate verification
        (``0`` = serial).  Per-call overrides are available on
        :meth:`repro.engine.Engine.search` and
        :meth:`~repro.engine.Engine.search_many`.  Results are
        byte-identical to serial.  The pool *kind* follows ``executor``:
        thread pools (the default) are GIL-bound for pure-Python distance
        computation, while ``executor="process"`` verifies candidates in
        worker processes for real CPU parallelism.
    shards:
        Number of database shards (default ``1`` = the classic unsharded
        engine).  With ``shards > 1``, :meth:`repro.engine.Engine.build`
        partitions the graph-id space across per-shard fragment indexes
        (:class:`repro.index.ShardedFragmentIndex`) and every search
        scatter-gathers across the shards — answers are byte-identical to
        the unsharded engine.
    executor:
        Registry name of the :mod:`repro.exec` executor (``"serial"``,
        ``"thread"`` — the default — or ``"process"``) that runs parallel
        work: shard scatter-gather and parallel candidate verification.
        ``"process"`` is the only kind that sidesteps the GIL for
        pure-Python CPU work; it requires picklable payloads and degrades
        to serial where process pools are unavailable.
    result_cache_size:
        Capacity of the serving-mode query-result cache
        (:class:`repro.serve.QueryResultCache`), in results.  The cache
        only exists on a *started* engine (:meth:`repro.engine.Engine.\
start`); ``0`` disables it even there.  Entries are keyed by query
        content, sigma, the engine fingerprint, and the index generation,
        so a hit is always byte-identical to a fresh search.
    plan_cache_size:
        Capacity of the global query-plan cache
        (:class:`repro.search.GlobalPlanner`), in plans.  Plans are keyed
        by query content, sigma, the cutoff factor, and the index
        generation, so mutations invalidate without clearing; unlike the
        result cache the plan cache is always active.  ``0`` keeps the
        plan/execute split but stores nothing, so every search plans
        afresh.
    serve_batch_window_ms:
        Default micro-batching window of :class:`repro.serve.QueryServer`:
        how long the server waits, after one query arrives, for more
        concurrent queries to join the same ``search_many`` batch.  ``0``
        batches only queries that are already queued.
    serve_max_batch:
        Default batch-size cap of the query server; a full batch
        dispatches immediately without waiting out the window.
    serve_max_queue:
        Admission-control bound of the query server's submission queue.
        A query arriving while ``serve_max_queue`` submissions are already
        waiting is *shed* — rejected immediately with a retryable
        ``overloaded`` error — instead of buffering without bound.  ``0``
        disables the bound (the pre-admission-control behaviour).
    serve_max_inflight_per_conn:
        Per-connection pipelining cap of the TCP front: how many requests
        of one connection may be in flight at once.  When a connection
        reaches the cap the server stops reading its socket until a
        response completes (TCP flow control pushes the backpressure to
        the client), so one pipelining client cannot monopolize the
        submission queue.  ``0`` removes the cap.
    serve_max_request_bytes:
        Largest request line (one JSON object) the TCP front accepts.
        Longer lines are discarded without buffering them and answered
        with a structured ``too_large`` error — the connection survives.
        The server frames lines itself, so requests above asyncio's
        default 64 KiB stream limit are fine up to this bound.
    durability:
        Mutation durability mode: ``"none"`` (the default — mutations
        apply in memory only, exactly the pre-WAL behaviour) or ``"wal"``
        (every :meth:`repro.engine.Engine.add_graphs` /
        :meth:`~repro.engine.Engine.remove_graphs` batch is fsync'd to a
        write-ahead log *before* the in-memory index mutates, and
        :meth:`~repro.engine.Engine.load` replays committed batches the
        last snapshot missed — see :mod:`repro.store`).
    """

    selector: str = "exhaustive"
    selector_params: Dict[str, Any] = field(default_factory=dict)
    backend: str = "auto"
    backend_options: Dict[str, Any] = field(default_factory=dict)
    rebuild_threshold: Optional[float] = None
    measure: Optional[Dict[str, Any]] = None
    strategy: str = "pis"
    strategy_params: Dict[str, Any] = field(default_factory=dict)
    verify: bool = True
    verifier: str = "auto"
    verify_workers: int = 0
    shards: int = 1
    executor: str = "thread"
    result_cache_size: int = 1024
    plan_cache_size: int = 256
    serve_batch_window_ms: float = 2.0
    serve_max_batch: int = 32
    serve_max_queue: int = 1024
    serve_max_inflight_per_conn: int = 32
    serve_max_request_bytes: int = 1_048_576
    durability: str = "none"

    def __post_init__(self):
        if self.durability not in ("none", "wal"):
            raise EngineConfigError(
                f"durability must be 'none' or 'wal', got {self.durability!r}"
            )
        if isinstance(self.shards, bool) or not isinstance(self.shards, int):
            raise EngineConfigError(
                f"shards must be an int >= 1, got {self.shards!r}"
            )
        if self.shards < 1:
            raise EngineConfigError(f"shards must be >= 1, got {self.shards}")
        if self.rebuild_threshold is not None:
            if (
                isinstance(self.rebuild_threshold, bool)
                or not isinstance(self.rebuild_threshold, (int, float))
                or not 0.0 < self.rebuild_threshold <= 1.0
            ):
                raise EngineConfigError(
                    "rebuild_threshold must be a number in (0, 1] or None, "
                    f"got {self.rebuild_threshold!r}"
                )
            self.rebuild_threshold = float(self.rebuild_threshold)
        if not isinstance(self.verifier, str) or not self.verifier:
            raise EngineConfigError(
                f"verifier must be a non-empty string, got {self.verifier!r}"
            )
        if isinstance(self.verify_workers, bool) or not isinstance(
            self.verify_workers, int
        ):
            raise EngineConfigError(
                f"verify_workers must be an int, got {self.verify_workers!r}"
            )
        if self.verify_workers < 0:
            raise EngineConfigError(
                f"verify_workers must be >= 0, got {self.verify_workers}"
            )
        if isinstance(self.result_cache_size, bool) or not isinstance(
            self.result_cache_size, int
        ):
            raise EngineConfigError(
                f"result_cache_size must be an int >= 0, "
                f"got {self.result_cache_size!r}"
            )
        if self.result_cache_size < 0:
            raise EngineConfigError(
                f"result_cache_size must be >= 0, got {self.result_cache_size}"
            )
        if (
            isinstance(self.serve_batch_window_ms, bool)
            or not isinstance(self.serve_batch_window_ms, (int, float))
            or self.serve_batch_window_ms < 0
        ):
            raise EngineConfigError(
                f"serve_batch_window_ms must be a number >= 0, "
                f"got {self.serve_batch_window_ms!r}"
            )
        self.serve_batch_window_ms = float(self.serve_batch_window_ms)
        if (
            isinstance(self.serve_max_batch, bool)
            or not isinstance(self.serve_max_batch, int)
            or self.serve_max_batch < 1
        ):
            raise EngineConfigError(
                f"serve_max_batch must be an int >= 1, "
                f"got {self.serve_max_batch!r}"
            )
        for attribute, minimum in (
            ("plan_cache_size", 0),
            ("serve_max_queue", 0),
            ("serve_max_inflight_per_conn", 0),
            ("serve_max_request_bytes", 1),
        ):
            value = getattr(self, attribute)
            if (
                isinstance(value, bool)
                or not isinstance(value, int)
                or value < minimum
            ):
                raise EngineConfigError(
                    f"{attribute} must be an int >= {minimum}, got {value!r}"
                )
        for attribute in ("selector", "backend", "strategy", "executor"):
            value = getattr(self, attribute)
            if not isinstance(value, str) or not value:
                raise EngineConfigError(
                    f"{attribute} must be a non-empty string, got {value!r}"
                )
        for attribute in ("selector_params", "backend_options", "strategy_params"):
            value = getattr(self, attribute)
            if not isinstance(value, dict):
                raise EngineConfigError(
                    f"{attribute} must be a dict, got {type(value).__name__}"
                )
            # Own the nested dicts: dataclasses.replace would otherwise
            # alias them between the original and the copy.
            setattr(self, attribute, copy.deepcopy(value))
        if self.measure is not None:
            if isinstance(self.measure, DistanceMeasure):
                # Accept a live measure object and normalise it to its spec.
                self.measure = measure_to_dict(self.measure)
            elif isinstance(self.measure, dict):
                self.measure = copy.deepcopy(self.measure)
            else:
                raise EngineConfigError(
                    "measure must be a serialized measure dict, a "
                    f"DistanceMeasure, or None, got {type(self.measure).__name__}"
                )

    # ------------------------------------------------------------------
    # component resolution
    # ------------------------------------------------------------------
    def make_measure(self) -> DistanceMeasure:
        """Build the configured distance measure (default: edge mutation)."""
        if self.measure is None:
            return default_edge_mutation_distance()
        return measure_from_dict(self.measure)

    def resolved_backend_options(self) -> Dict[str, Any]:
        """Backend options with the config-level knobs folded in.

        ``rebuild_threshold`` is injected unless ``backend_options``
        already pins one explicitly (the narrower setting wins).
        """
        options = copy.deepcopy(self.backend_options)
        if self.rebuild_threshold is not None:
            options.setdefault("rebuild_threshold", self.rebuild_threshold)
        return options

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Return a JSON-friendly dict that :meth:`from_dict` inverts.

        The nested dicts are deep-copied so mutating the returned value
        never corrupts the live config.
        """
        return {
            "selector": self.selector,
            "selector_params": copy.deepcopy(self.selector_params),
            "backend": self.backend,
            "backend_options": copy.deepcopy(self.backend_options),
            "rebuild_threshold": self.rebuild_threshold,
            "measure": copy.deepcopy(self.measure),
            "strategy": self.strategy,
            "strategy_params": copy.deepcopy(self.strategy_params),
            "verify": self.verify,
            "verifier": self.verifier,
            "verify_workers": self.verify_workers,
            "shards": self.shards,
            "executor": self.executor,
            "result_cache_size": self.result_cache_size,
            "plan_cache_size": self.plan_cache_size,
            "serve_batch_window_ms": self.serve_batch_window_ms,
            "serve_max_batch": self.serve_max_batch,
            "serve_max_queue": self.serve_max_queue,
            "serve_max_inflight_per_conn": self.serve_max_inflight_per_conn,
            "serve_max_request_bytes": self.serve_max_request_bytes,
            "durability": self.durability,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EngineConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys are rejected so that typos in hand-written config
        files fail loudly instead of being silently ignored.  The one
        exception is :data:`RETIRED_KEYS`: documents written before a knob
        was removed still load, and the retired value is dropped.
        """
        if not isinstance(data, dict):
            raise EngineConfigError(
                f"engine config must be a dict, got {type(data).__name__}"
            )
        data = {key: value for key, value in data.items() if key not in RETIRED_KEYS}
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise EngineConfigError(
                f"unknown engine config keys: {sorted(unknown)}; "
                f"known keys: {sorted(known)}"
            )
        return cls(**data)

    def replace(self, **overrides) -> "EngineConfig":
        """Return a copy of the config with the given fields replaced."""
        return dataclasses.replace(self, **overrides)
