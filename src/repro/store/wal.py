"""Write-ahead log for crash-safe index mutation.

Every :meth:`Engine.add_graphs` / :meth:`Engine.remove_graphs` batch is
recorded here — fsync'd to disk — *before* the in-memory index mutates.
After a crash at any point, replaying the log on top of the last persisted
snapshot reconstructs exactly the batches that committed; a batch whose
record never reached the disk never happened.

Format
------
A log is a directory of segment files named ``wal-<first-lsn>.log``.  Each
segment is a sequence of JSON lines::

    {"lsn": 7, "op": "<op>", "payload": {...}, "crc": 2693572943}

The log is agnostic of what ``op`` and ``payload`` mean; the engine's
records are defined in :mod:`repro.engine.durability`.

``lsn`` (log sequence number) increases by one per record across segments.
``crc`` is the CRC-32 of the canonical JSON encoding of the record without
the ``crc`` field; a record whose checksum does not match is *torn* (cut
short by a crash mid-write).  A torn tail — the final record of the final
segment — is expected and dropped; a bad checksum anywhere earlier raises
:class:`~repro.core.errors.WalCorruptionError`.

The commit point of a batch is the moment its record's bytes are fsync'd.
Checkpointing (:meth:`WriteAheadLog.checkpoint`) folds applied records into
the engine snapshot and rotates to a fresh segment via write-temp + atomic
rename, then prunes the covered segments.

Fault injection
---------------
The environment variable ``REPRO_CRASH_AFTER_WAL_RECORDS=N`` makes the
N-th appended record (counted process-wide) SIGKILL the process immediately
after its fsync — simulating a crash at the worst possible moment: the
batch is committed but nothing downstream (in-memory apply, snapshot
rewrite, checkpoint) has happened.  ``REPRO_CRASH_MODE=torn`` instead
writes only a prefix of the N-th record before dying, simulating a crash
*mid-write* (the batch must then be treated as never having happened).
The CI ``crash-recovery`` job drives both modes at randomized offsets.
"""

from __future__ import annotations

import json
import os
import signal
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional

from ..core.errors import WalCorruptionError, WalError
from .atomic import fsync_dir

__all__ = ["WalRecord", "WriteAheadLog", "CRASH_ENV_VAR", "CRASH_MODE_ENV_VAR"]

CRASH_ENV_VAR = "REPRO_CRASH_AFTER_WAL_RECORDS"
CRASH_MODE_ENV_VAR = "REPRO_CRASH_MODE"

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"
_LSN_DIGITS = 12

# Process-wide count of records appended by any WriteAheadLog instance;
# the fault-injection hook triggers on this counter so a CLI invocation
# that issues several batches (remove then add) exposes every boundary.
_records_appended = 0


@dataclass(frozen=True)
class WalRecord:
    """One committed mutation batch."""

    lsn: int
    op: str
    payload: dict


def _encode(lsn: int, op: str, payload: dict) -> bytes:
    body = {"lsn": lsn, "op": op, "payload": payload}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    body["crc"] = zlib.crc32(canonical.encode("utf-8"))
    return (json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


def _decode(raw: bytes) -> Optional[WalRecord]:
    """Decode one line; ``None`` if the line is torn or checksum-corrupt."""

    try:
        body = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(body, dict) or "crc" not in body:
        return None
    crc = body.pop("crc")
    try:
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError):
        return None
    if zlib.crc32(canonical.encode("utf-8")) != crc:
        return None
    lsn = body.get("lsn")
    op = body.get("op")
    payload = body.get("payload")
    if not isinstance(lsn, int) or not isinstance(op, str) or not isinstance(payload, dict):
        return None
    return WalRecord(lsn=lsn, op=op, payload=payload)


def _segment_name(first_lsn: int) -> str:
    return f"{_SEGMENT_PREFIX}{first_lsn:0{_LSN_DIGITS}d}{_SEGMENT_SUFFIX}"


class WriteAheadLog:
    """Append-only, checksummed, segment-rotating write-ahead log.

    >>> import tempfile
    >>> wal = WriteAheadLog(tempfile.mkdtemp())
    >>> wal.append("note", {"ids": [0, 1]})
    1
    >>> [record.op for record in wal.records()]
    ['note']
    """

    def __init__(self, directory, max_segment_bytes: int = 4 * 1024 * 1024):
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        if max_segment_bytes <= 0:
            raise WalError("max_segment_bytes must be positive")
        self._max_segment_bytes = max_segment_bytes
        self._committed_lsn = 0
        self._active_path: Optional[Path] = None
        self._scan()

    # ------------------------------------------------------------------
    # inspection

    @property
    def directory(self) -> Path:
        return self._dir

    @property
    def committed_lsn(self) -> int:
        """LSN of the last durably committed record (0 when empty)."""

        return self._committed_lsn

    def segment_paths(self) -> List[Path]:
        return sorted(self._dir.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}"))

    def records(self, after: int = 0) -> Iterator[WalRecord]:
        """Yield committed records with ``lsn > after`` in order.

        Stops silently at a torn tail; raises
        :class:`~repro.core.errors.WalCorruptionError` for a bad record
        anywhere else (including LSN gaps).
        """

        segments = self.segment_paths()
        last_lsn = 0
        for seg_index, segment in enumerate(segments):
            lines = segment.read_bytes().split(b"\n")
            for line_index, line in enumerate(lines):
                if not line:
                    continue
                record = _decode(line)
                if record is None:
                    trailing = [ln for ln in lines[line_index + 1 :] if ln]
                    is_last_segment = seg_index == len(segments) - 1
                    if is_last_segment and not any(_decode(ln) for ln in trailing):
                        return  # torn tail: crash cut the final record short
                    raise WalCorruptionError(
                        f"corrupt WAL record in {segment.name} "
                        f"(line {line_index + 1})"
                    )
                if last_lsn and record.lsn <= last_lsn:
                    # Overlap from a checkpoint interrupted between segment
                    # rotation and pruning: the same record exists in both
                    # the old and the new segment.  Keep the first copy.
                    continue
                if last_lsn and record.lsn != last_lsn + 1:
                    raise WalCorruptionError(
                        f"LSN gap in {segment.name}: {last_lsn} -> {record.lsn}"
                    )
                last_lsn = record.lsn
                if record.lsn > after:
                    yield record

    def pending(self, applied_lsn: int) -> List[WalRecord]:
        """Records committed to the log but beyond ``applied_lsn``."""

        return list(self.records(after=applied_lsn))

    # ------------------------------------------------------------------
    # mutation

    def append(self, op: str, payload: dict) -> int:
        """Durably append one record; returns its LSN.

        The record is on disk (written + flushed + fsync'd) when this
        returns — that fsync is the batch's commit point.
        """

        global _records_appended
        lsn = self._committed_lsn + 1
        data = _encode(lsn, op, payload)
        if self._active_path is None or (
            self._active_path.exists()
            and self._active_path.stat().st_size + len(data) > self._max_segment_bytes
            and self._active_path.stat().st_size > 0
        ):
            self._rotate(first_lsn=lsn)

        crash_after = int(os.environ.get(CRASH_ENV_VAR, "0") or 0)
        crash_mode = os.environ.get(CRASH_MODE_ENV_VAR, "kill")
        dying = crash_after > 0 and _records_appended + 1 >= crash_after
        if dying and crash_mode == "torn":
            # Crash mid-write: a prefix of the record reaches the disk, the
            # checksum can never match, so the batch never committed.
            data = data[: max(1, len(data) // 2)]

        with open(self._active_path, "ab") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

        if dying:
            os.kill(os.getpid(), signal.SIGKILL)

        _records_appended += 1
        self._committed_lsn = lsn
        return lsn

    def checkpoint(self, lsn: int) -> None:
        """Fold everything up to ``lsn`` into the snapshot's past.

        Rotates to a fresh segment (write-temp + atomic rename) that starts
        at ``lsn + 1`` — carrying forward any not-yet-checkpointed records —
        then prunes every older segment.  Crash-safe at every step: until
        the rename lands the old segments are authoritative, and after it
        the reader tolerates the old/new overlap.
        """

        retained = list(self.records(after=lsn))
        content = b"".join(_encode(r.lsn, r.op, r.payload) for r in retained)
        new_path = self._dir / _segment_name(lsn + 1)
        fd, tmp_name = tempfile.mkstemp(
            prefix=new_path.name + ".", suffix=".tmp", dir=str(self._dir)
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(content)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, str(new_path))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        fsync_dir(self._dir)
        for segment in self.segment_paths():
            if segment != new_path:
                segment.unlink()
        fsync_dir(self._dir)
        self._active_path = new_path
        self._committed_lsn = max(lsn, retained[-1].lsn if retained else 0)

    # ------------------------------------------------------------------
    # internals

    def _rotate(self, first_lsn: int) -> None:
        """Start a new empty segment via write-temp + atomic rename."""

        new_path = self._dir / _segment_name(first_lsn)
        fd, tmp_name = tempfile.mkstemp(
            prefix=new_path.name + ".", suffix=".tmp", dir=str(self._dir)
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, str(new_path))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        fsync_dir(self._dir)
        self._active_path = new_path

    @staticmethod
    def _segment_first_lsn(segment: Path) -> int:
        stem = segment.name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
        try:
            return int(stem)
        except ValueError:
            raise WalError(f"malformed WAL segment name: {segment.name}")

    def _truncate_torn_tail(self, segment: Path) -> None:
        """Cut a torn final record off so future appends start clean."""

        data = segment.read_bytes()
        offset = 0
        while offset < len(data):
            newline = data.find(b"\n", offset)
            if newline == -1:
                break  # unterminated tail: the record never fully committed
            line = data[offset:newline]
            if line and _decode(line) is None:
                break
            offset = newline + 1
        if offset < len(data):
            with open(segment, "r+b") as handle:
                handle.truncate(offset)
                handle.flush()
                os.fsync(handle.fileno())

    def _scan(self) -> None:
        segments = self.segment_paths()
        if not segments:
            self._committed_lsn = 0
            self._rotate(first_lsn=1)
            return
        # Raises WalCorruptionError on mid-stream corruption; stops at a
        # torn tail.  An empty post-checkpoint segment still encodes its
        # base LSN in its file name.
        last = 0
        for record in self.records():
            last = record.lsn
        tail = segments[-1]
        self._committed_lsn = max(last, self._segment_first_lsn(tail) - 1)
        self._active_path = tail
        self._truncate_torn_tail(tail)
