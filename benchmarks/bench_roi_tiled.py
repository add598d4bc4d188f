"""Warm ROI reads: tiled layout vs untiled full-frame decode.

Set ``VSS_BENCH_QUICK=1`` for the CI smoke configuration (shorter
clip; the hardware-independent assertions keep running).

The motivating workload for the tiles subsystem (ISSUE 9): a consumer
keeps reading one region of interest — a door, a lane, a parking row —
out of a stored camera feed.  Untiled, every such read decodes **whole
frames** and crops at the end, paying the full decode regardless of ROI
area.  After ``engine.retile`` the same ROI read decodes only the tiles
it intersects.

Both layouts are measured warm (plan cache hot, decode cache off, read
caching off) at two ROI areas — ~10% and ~25% of the frame, each inside
a single 2x2 tile — over the same h264-ingested VisualRoad clip.

Correctness assertions (always on): tiled and untiled reads are
**bit-identical** at both areas, ``ReadStats`` proves the tiled read
decoded one of four tiles, and the decoded-byte reduction
(``bytes_read`` untiled / tiled) is at least 3x at both <=25%-area
ROIs.  The headline number is that reduction; wall-clock speedup is
printed alongside.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.bench.harness import Series, print_series
from repro.core.engine import VSSEngine
from repro.core.specs import ReadSpec
from repro.synthetic import visualroad

QUICK = os.environ.get("VSS_BENCH_QUICK", "") not in ("", "0")
FRAMES = 30 if QUICK else 90
GOP_SIZE = 15
FPS = 30.0
ROUNDS = 3 if QUICK else 5
#: ROI area fractions measured; both must clear the 3x reduction bar.
FRACTIONS = (0.10, 0.25)


def _roi(frac: float, width: int, height: int) -> tuple[int, int, int, int]:
    """A ~``frac``-area rectangle anchored at the origin (inside the
    top-left tile of a 2x2 grid), even-sized for chroma subsampling."""
    rw = int(width * frac**0.5) // 2 * 2
    rh = int(height * frac**0.5) // 2 * 2
    return (0, 0, rw, rh)


def _timed_reads(engine: VSSEngine, spec: ReadSpec, rounds: int):
    """One warm-up read, then ``rounds`` timed reads; returns the last
    result and the mean seconds per read."""
    result = engine.read(spec)  # warm the plan cache
    start = time.perf_counter()
    for _ in range(rounds):
        result = engine.read(spec)
    return result, (time.perf_counter() - start) / rounds


def test_roi_tiled(tmp_path, calibration, benchmark):
    dataset = visualroad("1K", overlap=0.3, num_frames=FRAMES)
    clip = dataset.video(camera=0, start=0, stop=FRAMES)
    w, h = clip.width, clip.height
    end = FRAMES / FPS

    # decode_cache_bytes=0: every read pays its layout's full disk +
    # decode cost, so bytes_read measures the layout, not cache luck.
    engine = VSSEngine(
        tmp_path / "store", calibration=calibration, decode_cache_bytes=0
    )
    with engine.session() as session:
        session.write("cam", clip, codec="h264", qp=10, gop_size=GOP_SIZE)

    specs = {
        frac: ReadSpec("cam", 0.0, end, roi=_roi(frac, w, h), cache=False)
        for frac in FRACTIONS
    }

    untiled = {}
    for frac, spec in specs.items():
        result, seconds = _timed_reads(engine, spec, ROUNDS)
        untiled[frac] = (result.as_segment().pixels, result.stats, seconds)

    group = engine.retile("cam", rows=2, cols=2)
    assert group is not None and group.grid.num_tiles == 4

    tiled = {}
    for frac, spec in specs.items():
        result, seconds = _timed_reads(engine, spec, ROUNDS)
        tiled[frac] = (result.as_segment().pixels, result.stats, seconds)

    benchmark.pedantic(
        lambda: engine.read(specs[FRACTIONS[0]]), rounds=1, iterations=1
    )
    engine.close()

    # Correctness: identical pixels, selective decode, >=3x fewer bytes.
    reductions = {}
    for frac in FRACTIONS:
        u_pixels, u_stats, _ = untiled[frac]
        t_pixels, t_stats, _ = tiled[frac]
        np.testing.assert_array_equal(t_pixels, u_pixels)
        assert t_stats.tiles_total == 4 and t_stats.tiles_decoded == 1
        assert t_stats.tile_bytes_skipped > 0
        reductions[frac] = u_stats.bytes_read / t_stats.bytes_read

    series = Series("ROI reads: tiled vs untiled", "roi area %", "bytes read")
    for frac in FRACTIONS:
        series.add(int(frac * 100), untiled[frac][1].bytes_read)
        series.add(int(frac * 100), tiled[frac][1].bytes_read)
    print_series(series)
    for frac in FRACTIONS:
        print(
            f"roi_tiled {frac:.0%}: untiled {untiled[frac][1].bytes_read} B "
            f"({untiled[frac][2]:.4f} s), tiled {tiled[frac][1].bytes_read} B "
            f"({tiled[frac][2]:.4f} s), {reductions[frac]:.1f}x fewer bytes"
        )

    # Hardware-independent: at <=25% ROI area the tiled layout must cut
    # decoded bytes at least 3x (it stores the ROI's tile separately).
    for frac in FRACTIONS:
        assert reductions[frac] >= 3.0, (frac, reductions[frac])
