"""Epoch-based reader/writer isolation for the fragment index.

The index keeps a single in-memory version, so isolation is achieved by
*pinning*: a search pins the current epoch for its whole duration and a
writer waits for every pin to drain before touching anything, then publishes
the next epoch atomically when it finishes.  A reader therefore only ever
observes the state before a batch or after it — never a half-applied
mutation — which is exactly the crash-recovery guarantee, applied to
concurrent readers instead of restarts.

Properties:

* **Shared readers** — any number of concurrent read pins.
* **Writer exclusion and priority** — a writer blocks new readers while it
  waits (no writer starvation under a steady query stream) and proceeds
  once in-flight readers drain.
* **Reentrancy** — a thread holding a read pin may pin again (``search``
  inside ``search_many``), and a thread holding the write side may write
  again (``Engine.add_graphs`` wrapping ``FragmentIndex.add_graph``).
  A reentrant reader also ignores a waiting writer, so nesting can never
  self-deadlock.
* **Pickle-safe** — the process executor ships the engine and its index
  to worker processes; the manager's locks are recreated on unpickle (epoch number preserved,
  pins reset — a worker process starts with no in-flight operations).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

__all__ = ["EpochManager"]


class EpochManager:
    """Shared read pins / exclusive writes with epoch publication.

    >>> epochs = EpochManager()
    >>> with epochs.read() as epoch:
    ...     epoch
    0
    >>> with epochs.write():
    ...     pass
    >>> epochs.current
    1
    """

    def __init__(self, epoch: int = 0):
        self._epoch = epoch
        self._cond = threading.Condition()
        self._readers = 0
        self._writer: int | None = None  # owning thread id
        self._writer_depth = 0
        self._writers_waiting = 0
        self._local = threading.local()

    @property
    def current(self) -> int:
        """The last published epoch."""

        return self._epoch

    def _read_depth(self) -> int:
        return getattr(self._local, "read_depth", 0)

    @contextmanager
    def read(self):
        """Pin the current epoch for shared reading.

        Yields the pinned epoch number.  The epoch cannot advance while any
        pin is held, so everything observed under the pin is one consistent
        index version.
        """

        me = threading.get_ident()
        depth = self._read_depth()
        if depth == 0 and self._writer != me:
            with self._cond:
                while self._writer is not None or self._writers_waiting:
                    self._cond.wait()
                self._readers += 1
        self._local.read_depth = depth + 1
        try:
            yield self._epoch
        finally:
            self._local.read_depth = depth
            if depth == 0 and self._writer != me:
                with self._cond:
                    self._readers -= 1
                    if self._readers == 0:
                        self._cond.notify_all()

    @contextmanager
    def write(self):
        """Exclusive write session; publishes the next epoch on exit.

        Yields the epoch number the session will publish.  Reentrant for
        the owning thread — nested sessions join the outer one and only
        the outermost exit publishes.
        """

        me = threading.get_ident()
        if self._writer == me:
            self._writer_depth += 1
            try:
                yield self._epoch + 1
            finally:
                self._writer_depth -= 1
            return
        if self._read_depth():
            raise RuntimeError(
                "cannot start a write session while holding a read pin"
            )
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
                self._writer = me
                self._writer_depth = 1
            finally:
                self._writers_waiting -= 1
        try:
            yield self._epoch + 1
        finally:
            with self._cond:
                self._writer_depth -= 1
                self._writer = None
                self._epoch += 1
                self._cond.notify_all()

    # ------------------------------------------------------------------
    # pickling: locks cannot cross process boundaries; a worker copy
    # starts quiescent at the same epoch.

    def __getstate__(self):
        return {"epoch": self._epoch}

    def __setstate__(self, state):
        self.__init__(epoch=state["epoch"])
