"""Engine mutations, their write-ahead-log records, and the load checks.

Every mutation batch of an :class:`~repro.engine.Engine` applies through
:func:`apply_additions` or :func:`apply_removals` — a live
``add_graphs`` / ``remove_graphs`` call and a committed record replayed
from the log after a crash alike — so replay runs exactly the operations
the original batch ran.  The record format (op names and payload keys) is
written by :func:`log_additions` / :func:`log_removals` and read by
:func:`apply_record`, and nowhere else.  Live writes hand
:class:`~repro.core.graph.LabeledGraph` objects straight to the apply
functions; only replay decodes a record's graph dicts.

The functions work on a plain ``(database, index)`` pair, where the index
is a :class:`~repro.index.FragmentIndex` or a
:class:`~repro.index.ShardedFragmentIndex`.  The engine keeps the
bookkeeping around them: the applied log position, its strategy, and its
result cache.

The checks that bind an engine snapshot to its database on load
(:func:`check_fingerprint`, :func:`check_id_bound`) live here as well.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

from ..core.database import GraphDatabase
from ..core.errors import EngineError, WalError
from ..core.graph import LabeledGraph
from ..store.wal import WalRecord, WriteAheadLog

__all__ = [
    "apply_additions",
    "apply_record",
    "apply_removals",
    "check_fingerprint",
    "check_id_bound",
    "database_fingerprint",
    "log_additions",
    "log_removals",
    "plan_additions",
]

ADD_OP = "add"
REMOVE_OP = "remove"


# ----------------------------------------------------------------------
# load checks
# ----------------------------------------------------------------------
def database_fingerprint(database: GraphDatabase) -> Dict[str, int]:
    """A cheap database identity check for :meth:`Engine.load`.

    Size totals catch the common mistake — loading an engine against a
    different database of the same length — without the cost of hashing
    every graph.
    """
    return {
        "num_graphs": len(database),
        "total_vertices": sum(graph.num_vertices for graph in database),
        "total_edges": sum(graph.num_edges for graph in database),
    }


def check_fingerprint(
    stored: Optional[Dict[str, int]], database: GraphDatabase
) -> None:
    """Raise :class:`EngineError` unless ``database`` matches the snapshot's
    stored fingerprint (snapshots without one are accepted)."""
    if stored is None:
        return
    actual = database_fingerprint(database)
    if stored != actual:
        raise EngineError(
            "the supplied database does not match the one this engine was "
            f"built from (fingerprint {stored} != {actual}); index graph ids "
            "would point at unrelated graphs"
        )


def check_id_bound(
    index: Any,
    database: GraphDatabase,
    error: Type[Exception] = EngineError,
) -> None:
    """Raise ``error`` unless the index and the database span the same ids.

    Identifier bounds are compared, not live counts: a database that has
    seen removals legitimately holds fewer live graphs than its id bound,
    and the index tracks the same bound.
    """
    database_bound = getattr(database, "id_bound", len(database))
    if index.num_graphs != database_bound:
        raise error(
            f"the engine's index spans {index.num_graphs} graph ids but the "
            f"supplied database spans {database_bound}; load the engine (and "
            "its write-ahead log) with the database it was built from"
        )


# ----------------------------------------------------------------------
# the mutation path
# ----------------------------------------------------------------------
def plan_additions(
    database: GraphDatabase, count: int, reuse_ids: bool
) -> List[int]:
    """The ids the database will assign to the next ``count`` additions.

    Replicates the database's assignment rule (reclaim tombstoned slots
    lowest-first when ``reuse_ids``, else append at the bound) without
    mutating anything, so the log record of a batch can name its ids
    *before* the batch applies — replay is then deterministic by
    construction.
    """
    reclaimable = database.removed_ids() if reuse_ids else []
    next_fresh = database.id_bound
    planned: List[int] = []
    for _ in range(count):
        if reclaimable:
            planned.append(reclaimable.pop(0))
        else:
            planned.append(next_fresh)
            next_fresh += 1
    return planned


def apply_additions(
    database: GraphDatabase,
    index: Any,
    pairs: Sequence[Tuple[int, LabeledGraph]],
    to_database: bool = True,
    to_index: bool = True,
    error: Type[Exception] = EngineError,
) -> List[int]:
    """Add ``(graph_id, graph)`` pairs to the selected stores.

    Each graph must land at exactly its planned id; a database that
    assigns another one raises ``error`` (:class:`EngineError` for live
    writes, :class:`WalError` on replay).  The batch applies under the
    index's exclusive write epoch, so a concurrent search sees the index
    before the batch or after it.  Returns the ids in input order.
    """
    with index.epochs.write():
        for graph_id, graph in pairs:
            if to_database:
                actual = (
                    database.add(graph, graph_id=graph_id)
                    if graph_id < database.id_bound
                    else database.add(graph)
                )
                if actual != graph_id:
                    raise error(
                        f"the batch planned graph id {graph_id} but the "
                        f"database assigned {actual}; the database does not "
                        "match the state the batch was planned against"
                    )
            if to_index:
                index.add_graph(graph_id, graph)
    return [graph_id for graph_id, _ in pairs]


def apply_removals(
    database: GraphDatabase,
    index: Any,
    graph_ids: Sequence[int],
    to_database: bool = True,
    to_index: bool = True,
) -> int:
    """Retire ``graph_ids`` from the selected stores.

    Ids the index already retired (or never held) are skipped on the index
    side.  Applies under the index's exclusive write epoch.  Returns the
    number of index entries removed.
    """
    removed = 0
    with index.epochs.write():
        for graph_id in graph_ids:
            if to_database:
                database.remove(graph_id)
            if (
                to_index
                and graph_id < index.num_graphs
                and graph_id not in index.removed_graph_ids
            ):
                removed += index.remove_graph(graph_id)
    return removed


# ----------------------------------------------------------------------
# the record format
# ----------------------------------------------------------------------
def log_additions(
    wal: WriteAheadLog, pairs: Sequence[Tuple[int, LabeledGraph]]
) -> int:
    """Commit an addition batch, with its planned ids, to the log."""
    return wal.append(
        ADD_OP,
        {"graphs": [[graph_id, graph.to_dict()] for graph_id, graph in pairs]},
    )


def log_removals(wal: WriteAheadLog, graph_ids: Sequence[int]) -> int:
    """Commit a removal batch to the log."""
    return wal.append(
        REMOVE_OP, {"graph_ids": [int(graph_id) for graph_id in graph_ids]}
    )


def apply_record(
    database: GraphDatabase,
    index: Any,
    record: WalRecord,
    to_database: bool = True,
    to_index: bool = True,
) -> None:
    """Replay one committed record onto the selected stores."""
    if record.op == ADD_OP:
        pairs = [
            (int(graph_id), LabeledGraph.from_dict(graph_data))
            for graph_id, graph_data in record.payload.get("graphs", [])
        ]
        apply_additions(
            database, index, pairs, to_database, to_index, error=WalError
        )
    elif record.op == REMOVE_OP:
        graph_ids = [int(graph_id) for graph_id in record.payload.get("graph_ids", [])]
        apply_removals(database, index, graph_ids, to_database, to_index)
    else:
        raise WalError(f"unknown WAL operation {record.op!r}")
