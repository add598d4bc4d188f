"""Small shared utilities: deterministic RNG, wall-clock timing, byte sizes.

These helpers are deliberately tiny; anything with real policy lives in a
dedicated module.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

#: Default seed used by deterministic components when the caller does not
#: supply one.  Chosen arbitrarily; fixed so tests and benchmarks reproduce.
DEFAULT_SEED = 0x5EED


def rng(seed: int | None = None) -> np.random.Generator:
    """Return a numpy ``Generator`` seeded deterministically.

    ``None`` maps to :data:`DEFAULT_SEED` rather than entropy from the OS so
    that every run of the library is reproducible by default.
    """
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


@dataclass
class Timer:
    """Accumulating wall-clock timer.

    >>> t = Timer()
    >>> with t.measure():
    ...     pass
    >>> t.elapsed >= 0.0
    True
    """

    elapsed: float = 0.0
    count: int = 0

    @contextmanager
    def measure(self):
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.elapsed += time.perf_counter() - start
            self.count += 1

    @property
    def mean(self) -> float:
        """Mean seconds per measured interval (0.0 when never used)."""
        return self.elapsed / self.count if self.count else 0.0


@dataclass
class StageTimers:
    """Named collection of :class:`Timer` objects, used to decompose the
    cost of multi-stage operations (e.g. Figure 19's joint-compression
    breakdown)."""

    timers: dict[str, Timer] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Timer:
        return self.timers.setdefault(name, Timer())

    def measure(self, name: str):
        return self[name].measure()

    def as_dict(self) -> dict[str, float]:
        return {name: timer.elapsed for name, timer in self.timers.items()}


def human_bytes(n: int | float) -> str:
    """Format a byte count for reports (e.g. ``'1.5 MB'``)."""
    n = float(n)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(n) < 1024.0 or unit == "TB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024.0
    raise AssertionError("unreachable")


class LogicalClock:
    """Monotone counter used for LRU bookkeeping.

    Wall-clock time is unsuitable for cache-recency experiments because two
    accesses in the same scheduler quantum would tie; a logical clock gives a
    strict total order — across threads too: ``tick`` is atomic, so
    concurrent readers never receive the same stamp.  ``start`` resumes
    past stamps persisted by an earlier run.
    """

    def __init__(self, start: int = 0) -> None:
        self._now = start
        self._lock = threading.Lock()

    def tick(self) -> int:
        with self._lock:
            self._now += 1
            return self._now

    @property
    def now(self) -> int:
        return self._now


def map_parallel(executor, fn, items):
    """Apply ``fn`` to every item, in input order.

    ``executor`` is an :class:`repro.core.executor.Executor` (or anything
    with a compatible ``map``); ``None`` runs the items inline.  Lives
    here so the codec layer can share the dispatch without importing
    ``repro.core``.
    """
    if executor is None:
        return [fn(item) for item in items]
    return executor.map(fn, items)
