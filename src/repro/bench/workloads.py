"""Workload generators mirroring section 6.1's read distributions.

The long/short-read experiments draw reads of the form
``read(V, R, [t1, t2], P)`` with parameters at random; this module provides
that generator plus a cache-population helper shared by several benches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import Session

#: Output formats the random workloads draw from (codec, pixel format).
FORMAT_CHOICES = (
    ("raw", "rgb"),
    ("h264", "rgb"),
    ("hevc", "rgb"),
    ("raw", "yuv420"),
)


@dataclass
class RandomReadWorkload:
    """Uniform random reads over a stored video (section 6.1 parameters).

    ``duration`` bounds [t1, t2]; resolutions are drawn from halvings of
    the original; formats from :data:`FORMAT_CHOICES`.
    """

    duration: float
    original_resolution: tuple[int, int]
    min_read_seconds: float = 0.5
    max_read_seconds: float = 4.0
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        width, height = self.original_resolution
        # Snap to even dimensions so chroma-subsampled formats are valid.
        even = lambda v: max(2, v - v % 2)  # noqa: E731
        self._resolutions = [
            (width, height),
            (even(width // 2), even(height // 2)),
            (even(width // 4), even(height // 4)),
        ]

    def next_read(self) -> dict:
        """Parameters for one random read (kwargs for ``Session.read``)."""
        length = float(
            self._rng.uniform(self.min_read_seconds, self.max_read_seconds)
        )
        start = float(self._rng.uniform(0.0, max(self.duration - length, 0.0)))
        # Snap to whole seconds so direct-serve alignment is exercised.
        start = round(start)
        end = min(round(start + max(length, 1.0)), self.duration)
        if end <= start:
            start, end = 0, min(1, self.duration)
        codec, pixel_format = FORMAT_CHOICES[
            int(self._rng.integers(0, len(FORMAT_CHOICES)))
        ]
        resolution = self._resolutions[
            int(self._rng.integers(0, len(self._resolutions)))
        ]
        return {
            "start": float(start),
            "end": float(end),
            "codec": codec,
            "pixel_format": pixel_format,
            "resolution": resolution,
        }

    def short_read(self) -> dict:
        """A random one-second read (the Figure 12 workload)."""
        params = self.next_read()
        start = float(int(self._rng.uniform(0.0, max(self.duration - 1.0, 0.0))))
        params["start"] = start
        params["end"] = start + 1.0
        return params


def populate_cache(
    session: Session,
    name: str,
    workload: RandomReadWorkload,
    num_reads: int,
    short: bool = False,
) -> int:
    """Issue random reads to fill the cache; returns materialized fragment
    count afterwards."""
    engine = session.engine
    for _ in range(num_reads):
        params = workload.short_read() if short else workload.next_read()
        session.read(name, **params)
        # Each warm-up read plans against what the ones before it
        # admitted, so the cache a figure measures is deterministic.
        engine.drain_admissions()
    logical = engine.catalog.get_logical(name)
    return len(engine.catalog.fragments_of_logical(logical.id))
