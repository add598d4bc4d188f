"""Host-speed probe: how fast is this machine running *right now*?

The VMs this suite runs on slow down and speed up by ±15% (some hours by
±40%) over tens of seconds — noisy neighbours; measured, see README
"Host-speed normalisation" — which is more than any bound the suite could
usefully set.  Statistics inside one run cannot remove a drift that lasts
longer than the run.  So the runner times a small fixed *reference
kernel* — entropy decode, a float transform over a frame stack, an
interpreter loop and first-touch page faults: the mix of the program under
test — every ``INTERVAL`` seconds between ops, and divides every timed
window by how much slower than nominal the kernel ran around that window.
Reported times are therefore "at nominal host speed"; the raw wall-clock
values are printed next to them.

A probe takes two readings: the kernel alone on the calling thread, and
two copies side by side on two threads.  The program does both kinds of
work (stream reads are serial, GOP encode/decode fans out over two
workers), and a neighbour that takes one of the two cores slows the
second kind far more than the first.  The probe's value is the mean of
the two slowdowns.

The kernel never changes between the two commits a comparison is made
on (it lives in the benchmark, which a PR that claims a gain may not
edit), so a change in the program moves the normalised numbers exactly
as it moves the raw ones.
"""

from __future__ import annotations

import mmap
import statistics
import time
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np

#: Kernel times on the defining 2-core VM in a quiet minute: alone, and per
#: repetition when two threads run it side by side.  Only a scale: they
#: keep normalised numbers in the same range as raw ones.
NOMINAL_SERIAL_S = 0.0035
NOMINAL_PAIRED_S = 0.0055
#: Bytes of fresh memory each kernel repetition touches.
FAULT_BYTES = 2 << 20
#: Probe when at least this long has passed since the previous probe.
INTERVAL = 0.5
#: Kernel repetitions per serial reading (their median is the reading) and
#: per thread of a paired reading (their mean is the reading).
SERIAL_UNITS = 6
PAIRED_UNITS = 3


class HostClock:
    """Reference-kernel slowdowns over time, on the ``perf_counter`` axis."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20210620)
        self._packed = zlib.compress(
            rng.integers(0, 64, 300_000, dtype=np.uint8).tobytes(), 6
        )
        self._frames = rng.integers(0, 255, (10, 108, 192, 3), dtype=np.uint8)
        self._pair = ThreadPoolExecutor(2, thread_name_prefix="vssbench-probe")
        self.times: list[float] = []
        self.readings: list[float] = []
        self._smooth = np.empty(0)
        self._last = float("-inf")

    def _unit(self) -> float:
        zlib.decompress(self._packed)
        stack = self._frames.astype(np.float32)
        stack *= 1.01
        total = float(stack.sum())
        for i in range(8000):
            total += i * i
        # Fresh anonymous pages, as every decoded frame stack costs.
        with mmap.mmap(-1, FAULT_BYTES) as fresh:
            view = memoryview(fresh)
            for offset in range(0, FAULT_BYTES, mmap.PAGESIZE):
                view[offset] = 1
            view.release()
        return total

    def _units(self, count: int) -> None:
        for _ in range(count):
            self._unit()

    def probe(self) -> None:
        """Record how much slower than nominal the kernel runs now."""
        begin = mark = time.perf_counter()
        samples = []
        for _ in range(SERIAL_UNITS):
            self._unit()
            now = time.perf_counter()
            samples.append(now - mark)
            mark = now
        serial = statistics.median(samples) / NOMINAL_SERIAL_S
        for done in [
            self._pair.submit(self._units, PAIRED_UNITS) for _ in range(2)
        ]:
            done.result()
        end = time.perf_counter()
        paired = (end - mark) / PAIRED_UNITS / NOMINAL_PAIRED_S
        self.times.append((begin + end) / 2)
        self.readings.append((serial + paired) / 2)
        self._last = end

    def maybe_probe(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL:
            self.probe()

    def _smoothed(self) -> np.ndarray:
        """The readings, each replaced by the median of itself and its two
        neighbours: one probe that a burst happened to hit must not rescale
        the windows around it (a burst that short is what the medians over
        rounds are for)."""
        if len(self._smooth) != len(self.readings):
            padded = np.pad(self.readings, 1, mode="edge")
            self._smooth = np.median(
                [padded[:-2], padded[1:-1], padded[2:]], axis=0
            )
        return self._smooth

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe value over ``[start, end]``.

        Smoothed readings are interpolated linearly between probes (and
        held flat before the first and after the last).
        """
        points = np.linspace(start, end, 9)
        return float(np.interp(points, self.times, self._smoothed()).mean())

    def nominal(self, start: float, end: float) -> float:
        """The length of ``[start, end]`` at nominal host speed."""
        return (end - start) / self.slowdown(start, end)

    def close(self) -> None:
        self._pair.shutdown()
