"""Tests for the durability layer: WAL, epochs, atomic writes, recovery.

Covers the :mod:`repro.store` primitives in isolation — segment rotation,
checksummed records, torn-tail tolerance, checkpoint pruning, the
epoch-based reader/writer gate, the atomic replace helper — and the
engine-level durability contract built on them: every batch is fsync'd to
the log before anything mutates, a crash at *any* WAL record boundary
recovers to exactly the pre-batch or post-batch state (byte-identical
files, byte-identical answers), and recovery is idempotent.  The real
SIGKILL path is exercised through the ``REPRO_CRASH_AFTER_WAL_RECORDS``
fault-injection hook in a subprocess, exactly as the crash-recovery CI
lane does.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from helpers import random_molecule

from repro.core.database import GraphDatabase
from repro.core.errors import EngineError, WalCorruptionError, WalError
from repro.engine import Engine, EngineConfig
from repro.index.persistence import (
    WAL_INDEX_SCHEMA_VERSION,
    index_wal_position,
)
from repro.store import (
    CRASH_ENV_VAR,
    CRASH_MODE_ENV_VAR,
    EpochManager,
    WriteAheadLog,
    atomic_write_text,
)

SELECTOR_PARAMS = {
    "max_edges": 3,
    "min_support": 0.1,
    "max_features": 40,
    "sample_size": 15,
}


def small_database(count=14, seed=17):
    rng = random.Random(seed)
    return GraphDatabase(
        [random_molecule(rng, num_vertices=7, extra_edges=2) for _ in range(count)],
        name="wal",
    )


def delta_graphs(count=3, seed=99):
    rng = random.Random(seed)
    return [
        random_molecule(rng, num_vertices=6, extra_edges=1) for _ in range(count)
    ]


def answers_payload(result):
    return (
        list(result.answer_ids),
        {gid: result.answer_distances[gid] for gid in result.answer_ids},
    )


# ----------------------------------------------------------------------
# atomic replace helper
# ----------------------------------------------------------------------
class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "file.json"
        atomic_write_text(target, "one")
        assert target.read_text() == "one"
        atomic_write_text(target, "two")
        assert target.read_text() == "two"
        # no stray temp files left behind
        assert [p.name for p in tmp_path.iterdir()] == ["file.json"]

    def test_failure_leaves_previous_contents(self, tmp_path, monkeypatch):
        target = tmp_path / "file.json"
        atomic_write_text(target, "intact")

        def boom(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            atomic_write_text(target, "lost")
        monkeypatch.undo()
        assert target.read_text() == "intact"
        assert [p.name for p in tmp_path.iterdir()] == ["file.json"]


# ----------------------------------------------------------------------
# write-ahead log
# ----------------------------------------------------------------------
class TestWriteAheadLog:
    def test_append_assigns_monotonic_lsns_and_survives_reopen(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        assert wal.committed_lsn == 0
        assert wal.append("add", {"graphs": [[0, {}]]}) == 1
        assert wal.append("remove", {"graph_ids": [0]}) == 2
        assert wal.committed_lsn == 2
        reopened = WriteAheadLog(tmp_path / "wal")
        records = list(reopened.records())
        assert [(r.lsn, r.op) for r in records] == [(1, "add"), (2, "remove")]
        assert records[1].payload == {"graph_ids": [0]}
        assert reopened.committed_lsn == 2

    def test_pending_filters_already_applied_records(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        for position in range(4):
            wal.append("remove", {"graph_ids": [position]})
        assert [r.lsn for r in wal.pending(0)] == [1, 2, 3, 4]
        assert [r.lsn for r in wal.pending(2)] == [3, 4]
        assert list(wal.pending(4)) == []

    def test_checkpoint_prunes_up_to_lsn(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        for position in range(3):
            wal.append("remove", {"graph_ids": [position]})
        wal.checkpoint(3)
        assert list(wal.records()) == []
        assert wal.committed_lsn == 3  # the base survives in the segment name
        assert wal.append("remove", {"graph_ids": [9]}) == 4
        reopened = WriteAheadLog(tmp_path / "wal")
        assert [r.lsn for r in reopened.records()] == [4]

    def test_partial_checkpoint_retains_newer_records(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        for position in range(4):
            wal.append("remove", {"graph_ids": [position]})
        wal.checkpoint(2)
        assert [r.lsn for r in wal.records()] == [3, 4]
        assert wal.committed_lsn == 4

    def test_torn_tail_is_dropped_silently(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append("remove", {"graph_ids": [1]})
        wal.append("remove", {"graph_ids": [2]})
        segment = wal.segment_paths()[-1]
        raw = segment.read_bytes()
        # simulate a crash mid-write: half of the last record is on disk
        lines = raw.splitlines(keepends=True)
        segment.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        recovered = WriteAheadLog(tmp_path / "wal")
        assert [r.lsn for r in recovered.records()] == [1]
        assert recovered.committed_lsn == 1
        # the torn bytes were truncated away, so new appends commit cleanly
        assert recovered.append("remove", {"graph_ids": [3]}) == 2
        assert [r.lsn for r in WriteAheadLog(tmp_path / "wal").records()] == [1, 2]

    def test_mid_stream_corruption_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append("remove", {"graph_ids": [1]})
        wal.append("remove", {"graph_ids": [2]})
        segment = wal.segment_paths()[-1]
        lines = segment.read_bytes().splitlines(keepends=True)
        corrupt = lines[0].replace(b"[1]", b"[7]")  # payload no longer matches crc
        segment.write_bytes(corrupt + lines[1])
        with pytest.raises(WalCorruptionError):
            WriteAheadLog(tmp_path / "wal")

    def test_lsn_gap_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append("remove", {"graph_ids": [1]})
        wal.append("remove", {"graph_ids": [2]})
        wal.append("remove", {"graph_ids": [3]})
        segment = wal.segment_paths()[-1]
        lines = segment.read_bytes().splitlines(keepends=True)
        segment.write_bytes(lines[0] + lines[2])  # drop the middle record
        with pytest.raises(WalCorruptionError):
            WriteAheadLog(tmp_path / "wal")

    def test_duplicate_lsns_across_segments_are_tolerated(self, tmp_path):
        # A crash between checkpoint's segment rotation and pruning leaves
        # the same records in both the old and the new segment; the first
        # copy wins and the log still reads cleanly.
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append("remove", {"graph_ids": [1]})
        wal.append("remove", {"graph_ids": [2]})
        old = wal.segment_paths()[-1]
        duplicate = old.with_name("wal-000000000002.log")
        duplicate.write_bytes(old.read_bytes().splitlines(keepends=True)[-1])
        recovered = WriteAheadLog(tmp_path / "wal")
        assert [r.lsn for r in recovered.records()] == [1, 2]

    def test_segment_rotation_keeps_the_stream_readable(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal", max_segment_bytes=1)
        for position in range(5):
            wal.append("remove", {"graph_ids": [position]})
        assert len(wal.segment_paths()) >= 2
        assert [r.lsn for r in WriteAheadLog(tmp_path / "wal").records()] == [
            1,
            2,
            3,
            4,
            5,
        ]


# ----------------------------------------------------------------------
# epoch-based reader/writer isolation
# ----------------------------------------------------------------------
class TestEpochManager:
    def test_read_and_write_epochs(self):
        epochs = EpochManager()
        with epochs.read() as epoch:
            assert epoch == 0
        with epochs.write() as epoch:
            assert epoch == 1  # the epoch the write publishes
        assert epochs.current == 1
        with epochs.read() as epoch:
            assert epoch == 1

    def test_reentrant_reads_and_writes(self):
        epochs = EpochManager()
        with epochs.read():
            with epochs.read():
                pass
        with epochs.write():
            with epochs.write():
                pass
            # the writer may take nested read pins of its own
            with epochs.read():
                pass
        assert epochs.current == 1  # one outermost write = one epoch

    def test_write_under_read_pin_is_rejected(self):
        epochs = EpochManager()
        with epochs.read():
            with pytest.raises(RuntimeError):
                with epochs.write():
                    pass

    def test_writer_waits_for_readers(self):
        epochs = EpochManager()
        order = []
        reader_in = threading.Event()
        release_reader = threading.Event()

        def reader():
            with epochs.read():
                reader_in.set()
                release_reader.wait(5)
                order.append("reader-exit")

        def writer():
            with epochs.write():
                order.append("writer-enter")

        reader_thread = threading.Thread(target=reader)
        writer_thread = threading.Thread(target=writer)
        reader_thread.start()
        assert reader_in.wait(5)
        writer_thread.start()
        time.sleep(0.05)  # give the writer a chance to (wrongly) barge in
        release_reader.set()
        reader_thread.join(5)
        writer_thread.join(5)
        assert order == ["reader-exit", "writer-enter"]
        assert epochs.current == 1

    def test_readers_wait_for_writer(self):
        epochs = EpochManager()
        observed = []
        writer_in = threading.Event()
        release_writer = threading.Event()

        def writer():
            with epochs.write():
                writer_in.set()
                release_writer.wait(5)

        def reader():
            with epochs.read() as epoch:
                observed.append(epoch)

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        assert writer_in.wait(5)
        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        time.sleep(0.05)
        assert observed == []  # reader is parked behind the writer
        release_writer.set()
        writer_thread.join(5)
        reader_thread.join(5)
        assert observed == [1]  # the reader saw the post-write epoch

    def test_pickling_preserves_epoch_and_resets_pins(self):
        epochs = EpochManager()
        with epochs.write():
            pass
        clone = pickle.loads(pickle.dumps(epochs))
        assert clone.current == 1
        with clone.write():
            pass
        assert clone.current == 2
        assert epochs.current == 1


# ----------------------------------------------------------------------
# engine-level durability: WAL + replay + checkpoint
# ----------------------------------------------------------------------
def durable_engine(tmp_path):
    """A checkpointed durable engine with its files on disk."""
    database = small_database()
    config = EngineConfig(selector_params=dict(SELECTOR_PARAMS), durability="wal")
    engine = Engine.build(database, config)
    engine_path = tmp_path / "engine.json"
    database_path = tmp_path / "db.json"
    engine.attach_wal(Engine.wal_path_for(engine_path))
    engine.checkpoint(engine_path, database_path=database_path)
    return engine, engine_path, database_path


class TestEngineDurability:
    def test_mutations_commit_to_the_log_before_applying(self, tmp_path):
        engine, engine_path, database_path = durable_engine(tmp_path)
        engine.remove_graphs([2, 5])
        engine.add_graphs(delta_graphs(), reuse_ids=True)
        assert engine.wal_applied_lsn == 2
        records = list(engine.wal.records())
        assert [(r.lsn, r.op) for r in records] == [(1, "remove"), (2, "add")]
        assert records[0].payload == {"graph_ids": [2, 5]}
        # the add record names its planned ids: reclaimed slots first
        assert [gid for gid, _ in records[1].payload["graphs"]] == [2, 5, 14]

    def test_snapshots_record_the_wal_position(self, tmp_path):
        engine, engine_path, database_path = durable_engine(tmp_path)
        engine.remove_graphs([1])
        engine.checkpoint(engine_path, database_path=database_path)
        engine_doc = json.loads(engine_path.read_text())
        assert engine_doc["index"]["version"] == WAL_INDEX_SCHEMA_VERSION
        assert index_wal_position(engine_doc["index"]) == 1
        database_doc = json.loads(database_path.read_text())
        assert database_doc["wal"] == {"committed_lsn": 1}

    def test_checkpoint_requires_a_wal(self, tmp_path):
        database = small_database()
        engine = Engine.build(
            database, EngineConfig(selector_params=dict(SELECTOR_PARAMS))
        )
        with pytest.raises(EngineError):
            engine.checkpoint(tmp_path / "engine.json")

    def test_load_replays_pending_records(self, tmp_path):
        engine, engine_path, database_path = durable_engine(tmp_path)
        engine.remove_graphs([2, 5])
        engine.add_graphs(delta_graphs(), reuse_ids=True)
        # crash before checkpoint: files are stale, the log is not
        stale_db = GraphDatabase.load(database_path)
        recovered = Engine.load(engine_path, stale_db)
        assert recovered.wal_applied_lsn == 2
        assert recovered.database.wal_position == 2
        query = delta_graphs(1, seed=5)[0]
        assert answers_payload(recovered.search(query, 2.0)) == answers_payload(
            engine.search(query, 2.0)
        )

    def test_replay_rejects_a_foreign_log(self, tmp_path):
        engine, engine_path, database_path = durable_engine(tmp_path)
        engine.remove_graphs([2])
        # hand the engine a log whose base state it does not match: replay
        # re-removing graph 2 from a database that never saw the checkpoint
        other = tmp_path / "other"
        other.mkdir()
        shutil.copy(engine_path, other / "engine.json")
        shutil.copytree(
            Engine.wal_path_for(engine_path),
            Engine.wal_path_for(other / "engine.json"),
        )
        rng = random.Random(23)
        foreign_db = GraphDatabase(
            [
                random_molecule(rng, num_vertices=8, extra_edges=1)
                for _ in range(14)
            ],
            name="foreign",
        )
        with pytest.raises((EngineError, WalError)):
            Engine.load(other / "engine.json", foreign_db)

    def test_durability_override_none_skips_the_log(self, tmp_path):
        engine, engine_path, database_path = durable_engine(tmp_path)
        engine.remove_graphs([2])
        stale_db = GraphDatabase.load(database_path)
        plain = Engine.load(engine_path, stale_db, durability="none")
        assert plain.wal is None
        assert plain.index.num_graphs == 14  # pre-batch state, no replay

    def test_unknown_wal_op_raises(self, tmp_path):
        engine, engine_path, database_path = durable_engine(tmp_path)
        engine.wal.append("frobnicate", {})
        stale_db = GraphDatabase.load(database_path)
        with pytest.raises(WalError):
            Engine.load(engine_path, stale_db)


# ----------------------------------------------------------------------
# the crash-recovery property, at every record boundary
# ----------------------------------------------------------------------
BATCHES = [
    ("remove", [2, 5]),
    ("add", True),  # reuse_ids=True: lands on the retired slots
    ("remove", [7]),
    ("add", False),  # fresh ids beyond the bound
]


def apply_batches(engine, upto):
    """Apply the first ``upto`` scripted batches to a durable engine."""
    for position, (op, arg) in enumerate(BATCHES[:upto]):
        if op == "remove":
            engine.remove_graphs(arg)
        else:
            engine.add_graphs(delta_graphs(seed=40 + position), reuse_ids=arg)


def checkpointed_run(tmp_path, tag, upto):
    """Reference files: load from base, apply ``upto`` batches, checkpoint."""
    base = tmp_path / "base"
    run = tmp_path / tag
    run.mkdir()
    shutil.copy(base / "db.json", run / "db.json")
    shutil.copy(base / "engine.json", run / "engine.json")
    shutil.copytree(
        Engine.wal_path_for(base / "engine.json"),
        Engine.wal_path_for(run / "engine.json"),
    )
    database = GraphDatabase.load(run / "db.json")
    engine = Engine.load(run / "engine.json", database)
    apply_batches(engine, upto)
    engine.checkpoint(run / "engine.json", database_path=run / "db.json")
    return run, engine


@pytest.mark.parametrize("verify_workers", [1, 4])
def test_crash_at_every_record_boundary_recovers_exactly(tmp_path, verify_workers):
    """Kill after N committed records → recover = the N-batch reference.

    For every prefix length N the recovered database and engine files are
    byte-identical to an uninterrupted run that applied exactly N batches,
    and search answers match — verified on one worker and on four.
    """
    base = tmp_path / "base"
    base.mkdir()
    database = small_database()
    config = EngineConfig(
        selector_params=dict(SELECTOR_PARAMS),
        verify_workers=verify_workers,
        durability="wal",
    )
    engine = Engine.build(database, config)
    engine.attach_wal(Engine.wal_path_for(base / "engine.json"))
    engine.checkpoint(base / "engine.json", database_path=base / "db.json")
    query = delta_graphs(1, seed=5)[0]

    for kill_point in range(len(BATCHES) + 1):
        reference_dir, reference_engine = checkpointed_run(
            tmp_path, f"ref-{kill_point}", kill_point
        )
        # The crashed run commits kill_point records to the log but dies
        # before any snapshot write — the files on disk stay at base.
        crash_dir = tmp_path / f"crash-{kill_point}"
        crash_dir.mkdir()
        shutil.copy(base / "db.json", crash_dir / "db.json")
        shutil.copy(base / "engine.json", crash_dir / "engine.json")
        shutil.copytree(
            Engine.wal_path_for(base / "engine.json"),
            Engine.wal_path_for(crash_dir / "engine.json"),
        )
        crashed_db = GraphDatabase.load(crash_dir / "db.json")
        crashed = Engine.load(crash_dir / "engine.json", crashed_db)
        apply_batches(crashed, kill_point)
        del crashed  # "crash": nothing written back

        recovered_db = GraphDatabase.load(crash_dir / "db.json")
        recovered = Engine.load(crash_dir / "engine.json", recovered_db)
        assert recovered.wal_applied_lsn == kill_point
        recovered.checkpoint(
            crash_dir / "engine.json", database_path=crash_dir / "db.json"
        )
        assert (crash_dir / "db.json").read_bytes() == (
            reference_dir / "db.json"
        ).read_bytes()
        assert (crash_dir / "engine.json").read_bytes() == (
            reference_dir / "engine.json"
        ).read_bytes()
        assert answers_payload(recovered.search(query, 2.0)) == answers_payload(
            reference_engine.search(query, 2.0)
        )


@pytest.mark.parametrize("verify_workers", [1, 4])
def test_crash_between_database_and_engine_writes(tmp_path, verify_workers):
    """The checkpoint's db-first write order leaves a recoverable gap."""
    base = tmp_path / "base"
    base.mkdir()
    database = small_database()
    config = EngineConfig(
        selector_params=dict(SELECTOR_PARAMS),
        verify_workers=verify_workers,
        durability="wal",
    )
    engine = Engine.build(database, config)
    engine.attach_wal(Engine.wal_path_for(base / "engine.json"))
    engine.checkpoint(base / "engine.json", database_path=base / "db.json")

    reference_dir, reference_engine = checkpointed_run(
        tmp_path, "ref", len(BATCHES)
    )
    crash_dir = tmp_path / "crash"
    crash_dir.mkdir()
    shutil.copy(base / "db.json", crash_dir / "db.json")
    shutil.copy(base / "engine.json", crash_dir / "engine.json")
    shutil.copytree(
        Engine.wal_path_for(base / "engine.json"),
        Engine.wal_path_for(crash_dir / "engine.json"),
    )
    crashed_db = GraphDatabase.load(crash_dir / "db.json")
    crashed = Engine.load(crash_dir / "engine.json", crashed_db)
    apply_batches(crashed, len(BATCHES))
    # the checkpoint got through the database write, died before the engine
    crashed.database.save(
        crash_dir / "db.json", wal_position=crashed.wal_applied_lsn
    )
    del crashed

    recovered_db = GraphDatabase.load(crash_dir / "db.json")
    recovered = Engine.load(crash_dir / "engine.json", recovered_db)
    assert recovered.wal_applied_lsn == len(BATCHES)
    recovered.checkpoint(
        crash_dir / "engine.json", database_path=crash_dir / "db.json"
    )
    assert (crash_dir / "db.json").read_bytes() == (
        reference_dir / "db.json"
    ).read_bytes()
    assert (crash_dir / "engine.json").read_bytes() == (
        reference_dir / "engine.json"
    ).read_bytes()
    query = delta_graphs(1, seed=5)[0]
    assert answers_payload(recovered.search(query, 2.0)) == answers_payload(
        reference_engine.search(query, 2.0)
    )


# ----------------------------------------------------------------------
# fault injection: a real SIGKILL through the CLI
# ----------------------------------------------------------------------
def run_pis(arguments, cwd, env=None):
    environment = dict(os.environ, PYTHONHASHSEED="0")
    repo_src = str(Path(__file__).resolve().parent.parent / "src")
    environment["PYTHONPATH"] = repo_src + os.pathsep + environment.get(
        "PYTHONPATH", ""
    )
    environment.update(env or {})
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *arguments],
        cwd=cwd,
        env=environment,
        capture_output=True,
        text=True,
        timeout=240,
    )


@pytest.mark.parametrize("crash_mode", ["clean", "torn"])
def test_sigkill_mid_update_then_recover(tmp_path, crash_mode):
    """The fault-injection hook: SIGKILL after the first fsync'd record.

    In ``clean`` mode the remove batch committed before the kill, so
    recovery replays it; in ``torn`` mode the record is half-written and
    recovery lands on the untouched pre-update state.
    """
    for name, count, seed in (("db.json", 18, 3), ("delta.json", 4, 9)):
        result = run_pis(
            ["generate", "--count", str(count), "--seed", str(seed), "--output", name],
            tmp_path,
        )
        assert result.returncode == 0, result.stderr
    result = run_pis(
        [
            "index",
            "--database",
            "db.json",
            "--max-edges",
            "3",
            "--engine-output",
            "engine.json",
        ],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr

    env = {CRASH_ENV_VAR: "1"}
    if crash_mode == "torn":
        env[CRASH_MODE_ENV_VAR] = "torn"
    killed = run_pis(
        [
            "update",
            "--database",
            "db.json",
            "--engine",
            "engine.json",
            "--add",
            "delta.json",
            "--remove",
            "1,4",
            "--wal",
        ],
        tmp_path,
        env=env,
    )
    assert killed.returncode == -signal.SIGKILL, killed.stderr

    recovery = run_pis(
        ["recover", "--database", "db.json", "--engine", "engine.json"], tmp_path
    )
    assert recovery.returncode == 0, recovery.stderr
    expected_lsn = 0 if crash_mode == "torn" else 1
    assert f"recovered to WAL record {expected_lsn}" in recovery.stdout

    database = GraphDatabase.load(tmp_path / "db.json")
    engine = Engine.load(tmp_path / "engine.json", database)
    if crash_mode == "torn":
        assert database.removed_ids() == []  # the batch never committed
    else:
        assert database.removed_ids() == [1, 4]
    # the recovered pair still answers queries and accepts further updates
    final = run_pis(
        [
            "update",
            "--database",
            "db.json",
            "--engine",
            "engine.json",
            "--add",
            "delta.json",
            "--wal",
        ],
        tmp_path,
    )
    assert final.returncode == 0, final.stderr


def test_crash_counter_counts_across_batches(tmp_path):
    """``REPRO_CRASH_AFTER_WAL_RECORDS=N`` is process-wide, not per-batch."""
    result = run_pis(
        ["generate", "--count", "12", "--seed", "3", "--output", "db.json"],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    result = run_pis(
        ["generate", "--count", "2", "--seed", "9", "--output", "delta.json"],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    result = run_pis(
        [
            "index",
            "--database",
            "db.json",
            "--max-edges",
            "3",
            "--engine-output",
            "engine.json",
        ],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    # both batches (remove, add) commit before the hook fires
    killed = run_pis(
        [
            "update",
            "--database",
            "db.json",
            "--engine",
            "engine.json",
            "--add",
            "delta.json",
            "--remove",
            "2",
            "--wal",
        ],
        tmp_path,
        env={CRASH_ENV_VAR: "2"},
    )
    assert killed.returncode == -signal.SIGKILL
    recovery = run_pis(
        ["recover", "--database", "db.json", "--engine", "engine.json"], tmp_path
    )
    assert recovery.returncode == 0, recovery.stderr
    assert "recovered to WAL record 2" in recovery.stdout
    database = GraphDatabase.load(tmp_path / "db.json")
    assert database.id_bound == 14  # remove freed slot 2, adds appended
    assert 2 not in database
