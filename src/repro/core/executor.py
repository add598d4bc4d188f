"""Shared thread-pool execution for the parallel GOP pipeline.

Every GOP opens with an I frame, so GOPs are independent decode units,
and inside one GOP the entropy stage (zlib inflate / deflate) is
independent of the frame-to-frame recurrence; zlib and the numpy DCTs
release the GIL, so plain threads give genuine core scaling without the
serialization cost a process pool would pay shipping pixel arrays around.

One :class:`Executor` is shared per store (reader chunk decodes, the
codec's inflate and deflate tasks, and GOP file IO all funnel through
it).  The underlying ``ThreadPoolExecutor`` is created lazily on the
first pooled call — a store opened only for metadata work never spawns
threads — and ``parallelism=1`` runs every task inline on the calling
thread, making the serial path byte-identical to pre-parallel behaviour.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Cap worker counts: past ~8 threads the numpy kernels saturate memory
#: bandwidth long before they saturate additional cores.
MAX_DEFAULT_PARALLELISM = 8


def default_parallelism() -> int:
    """The worker count used when ``VSSEngine(parallelism=None)``."""
    return max(1, min(MAX_DEFAULT_PARALLELISM, os.cpu_count() or 1))


class Executor:
    """A lazily-created, shared thread pool with an inline serial mode."""

    def __init__(self, parallelism: int | None = None):
        if parallelism is None:
            parallelism = default_parallelism()
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        self.parallelism = parallelism
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self._tasks_completed = 0

    @property
    def tasks_completed(self) -> int:
        """Total items mapped so far (inline and pooled); a cheap counter
        concurrency tests use to assert how much work actually ran."""
        return self._tasks_completed

    def map(
        self, fn: Callable[[_T], _R], items: Iterable[_T]
    ) -> list[_R]:
        """Apply ``fn`` to every item, returning results in input order.

        Falls back to an inline loop when parallelism is 1 or there is at
        most one item (no thread round-trip for work that cannot overlap).
        Exceptions propagate exactly as in the serial loop: the first
        failing item's exception is raised.

        Calls arriving *from* a pool worker thread also run inline (see
        :meth:`_inline`; the GOP decode fast path fans entropy inflates
        through here from inside pooled chunk-decode tasks).
        """
        work: Sequence[_T] = items if isinstance(items, list) else list(items)
        if len(work) < 2 or self._inline():
            results = [fn(item) for item in work]
        else:
            results = list(self._ensure_pool().map(fn, work))
        with self._lock:
            self._tasks_completed += len(work)
        return results

    def submit(self, fn: Callable[..., _R], *args) -> "Future[_R]":
        """Run ``fn(*args)`` asynchronously, returning a Future.

        The streaming read path uses this to keep a bounded window of
        chunk decodes in flight, and the GOP encoder to deflate one
        step's levels while it computes the next.  With ``parallelism=1``
        the call runs inline and returns an already-completed Future,
        preserving the serial path's strict laziness (nothing runs ahead
        of the pull); so does a call from a pool worker thread (see
        :meth:`_inline`).
        """
        if self._inline():
            future: Future = Future()
            try:
                future.set_result(fn(*args))
            except BaseException as exc:  # noqa: BLE001 - mirrored to Future
                future.set_exception(exc)
            with self._lock:
                self._tasks_completed += 1
            return future
        future = self._ensure_pool().submit(fn, *args)
        future.add_done_callback(self._count_done)
        return future

    def _inline(self) -> bool:
        """The one rule for when work runs on the calling thread: there
        is no second worker, or the caller *is* a pool worker.  A task
        that blocks its worker slot waiting on subtasks queued behind
        other workers doing the same would deadlock the pool, so nested
        ``map`` and ``submit`` calls never queue.
        """
        return (
            self.parallelism == 1
            or threading.current_thread().name.startswith("vss-worker")
        )

    def _count_done(self, _future: Future) -> None:
        with self._lock:
            self._tasks_completed += 1

    def _ensure_pool(self) -> ThreadPoolExecutor:
        pool = self._pool
        if pool is None:
            with self._lock:
                pool = self._pool
                if pool is None:
                    pool = ThreadPoolExecutor(
                        max_workers=self.parallelism,
                        thread_name_prefix="vss-worker",
                    )
                    self._pool = pool
        return pool

    def shutdown(self) -> None:
        """Join and discard the pool (a later ``map`` recreates it)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
