"""Reader-writer locking for the engine's per-logical-video locks.

The engine used to serialize *every* operation on one logical video with
a plain ``RLock`` — correct, but it made concurrent reads of the same
hot video fully sequential even though reads only consume immutable,
no-overwrite pages.  :class:`RWLock` splits the modes:

* **shared** — taken by reads (``read``, ``read_stream`` chunk pulls,
  ``read_batch`` groups).  Any number of shared holders may proceed at
  once.
* **exclusive** — taken by everything that mutates a video's pages or
  metadata: writes, cache admission, eviction, compaction, refinement,
  and delete.  An exclusive holder excludes all other threads.

Semantics chosen for the engine's call graphs:

* The lock is **writer-preferring**: once a writer is waiting, new
  reader threads queue behind it, so a steady read storm cannot starve
  admission or eviction indefinitely.  Threads that already hold a
  shared lock may reacquire it (reentrancy), which keeps the preference
  deadlock-free.
* **Exclusive acquisition is reentrant** per thread, and the exclusive
  holder may take the shared side (a writer reading its own state); the
  nested acquisition just deepens the exclusive hold.
* **Upgrades are refused**: a thread holding only a shared lock that
  requests the exclusive side raises ``RuntimeError`` immediately — two
  upgraders would deadlock waiting for each other's readers to leave,
  so the engine is structured to release shared before going exclusive.

``stats`` (optional, shared across all of one engine's locks) counts
shared/exclusive acquisitions so the contention split is observable in
``EngineStats`` and the server's ``/metrics``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager


class RWLockStats:
    """Acquisition counters, shared by every lock of one engine.

    One stats object is incremented from under *different* locks'
    condition variables, so the counters take their own lock — a bare
    ``+=`` is a non-atomic read-modify-write and would drop updates
    under exactly the concurrent load these counters exist to observe.
    """

    __slots__ = ("_lock", "shared_acquisitions", "exclusive_acquisitions")

    def __init__(self):
        self._lock = threading.Lock()
        self.shared_acquisitions = 0
        self.exclusive_acquisitions = 0

    def note_shared(self) -> None:
        with self._lock:
            self.shared_acquisitions += 1

    def note_exclusive(self) -> None:
        with self._lock:
            self.exclusive_acquisitions += 1


class RWLock:
    """A writer-preferring reader-writer lock (see module docs)."""

    __slots__ = (
        "_cond",
        "_readers",
        "_writer",
        "_writer_depth",
        "_writers_waiting",
        "_stats",
    )

    def __init__(self, stats: RWLockStats | None = None):
        self._cond = threading.Condition()
        self._readers: dict[int, int] = {}  # thread ident -> hold depth
        self._writer: int | None = None  # ident of the exclusive holder
        self._writer_depth = 0
        self._writers_waiting = 0
        self._stats = stats

    # ------------------------------------------------------------------
    # shared (read) side
    # ------------------------------------------------------------------
    def acquire_shared(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                # The exclusive holder reading its own state: deepen the
                # exclusive hold rather than downgrading.
                self._writer_depth += 1
            else:
                # Writer preference: fresh readers wait behind a queued
                # writer; threads already holding shared re-enter freely
                # (blocking them would deadlock the preference).
                while self._writer is not None or (
                    self._writers_waiting and me not in self._readers
                ):
                    self._cond.wait()
                self._readers[me] = self._readers.get(me, 0) + 1
            if self._stats is not None:
                self._stats.note_shared()

    def release_shared(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._release_exclusive_locked(me)
                return
            depth = self._readers.get(me, 0)
            if depth <= 0:
                raise RuntimeError("release_shared without a shared hold")
            if depth == 1:
                del self._readers[me]
                if not self._readers:
                    self._cond.notify_all()
            else:
                self._readers[me] = depth - 1

    # ------------------------------------------------------------------
    # exclusive (write) side
    # ------------------------------------------------------------------
    def acquire_exclusive(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
            else:
                if self._readers.get(me):
                    raise RuntimeError(
                        "shared->exclusive upgrade would deadlock; release "
                        "the shared lock first"
                    )
                self._writers_waiting += 1
                try:
                    while self._writer is not None or self._readers:
                        self._cond.wait()
                finally:
                    self._writers_waiting -= 1
                self._writer = me
                self._writer_depth = 1
            if self._stats is not None:
                self._stats.note_exclusive()

    def release_exclusive(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer != me:
                raise RuntimeError("release_exclusive by a non-holder")
            self._release_exclusive_locked(me)

    def _release_exclusive_locked(self, me: int) -> None:
        self._writer_depth -= 1
        if self._writer_depth == 0:
            self._writer = None
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # context managers and introspection
    # ------------------------------------------------------------------
    @contextmanager
    def shared(self):
        self.acquire_shared()
        try:
            yield self
        finally:
            self.release_shared()

    @contextmanager
    def exclusive(self):
        self.acquire_exclusive()
        try:
            yield self
        finally:
            self.release_exclusive()

    @property
    def write_locked(self) -> bool:
        with self._cond:
            return self._writer is not None
