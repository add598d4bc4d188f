"""Indexed search-then-read vs full-scan decode-and-filter.

Set ``VSS_BENCH_QUICK=1`` for the CI smoke configuration (fewer
cameras; the assertions, all counts and bytes, keep running).

The motivating workload for the content index (ISSUE 8): find the few
GOPs of a camera fleet where a red truck appears, then retrieve them.
Without the index the application must decode **every** GOP of every
camera and run the detector itself; with it, ``engine.search`` answers
from FTS5 + vector BLOBs in the catalog — no pixels touched — and the
follow-up reads decode only the matching windows.

The fleet is mostly empty roads; a red truck is painted into ~5% of
the GOPs.  Two pipelines produce the same answer:

* **indexed** — ``search(text="red")`` then one windowed read per hit;
* **full scan** — read every camera end to end, sample each GOP's
  middle frame (exactly what ingest-time extraction sampled), run
  ``detect_vehicles``, keep the GOPs with a red detection.

Correctness assertions (always on): both pipelines select exactly the
painted GOPs, their frames are **bit-identical**, and ``ReadStats``
proves the indexed path decoded only the matched GOPs while the full
scan decoded everything, at least 5x the frames.  The headline number,
the speedup at ~5% selectivity, is printed, not asserted.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.bench.harness import Series, print_series
from repro.core.engine import VSSEngine
from repro.synthetic.scene import RoadScene
from repro.video.frame import VideoSegment
from repro.vision.detection import detect_vehicles

QUICK = os.environ.get("VSS_BENCH_QUICK", "") not in ("", "0")
CAMS = 5 if QUICK else 10
GOPS_PER_CAM = 4 if QUICK else 8
GOP_SIZE = 15
FPS = 30.0
FRAMES = GOPS_PER_CAM * GOP_SIZE
HEIGHT, WIDTH = 72, 128
#: (camera index, gop index) windows the red truck drives through —
#: one GOP in 20 = 5% of the fleet's content.
INCIDENTS = (
    [(0, 1)] if QUICK
    else [(0, 1), (3, 4), (6, 0), (8, 7)]
)


def _clip(cam: int) -> VideoSegment:
    """An empty-road clip, with the incident GOPs painted in."""
    scene = RoadScene(world_width=WIDTH + 32, height=HEIGHT,
                      seed=100 + cam, num_vehicles=0)
    stack = np.empty((FRAMES, HEIGHT, WIDTH, 3), dtype=np.uint8)
    for t in range(FRAMES):
        stack[t] = scene.render_world(t)[:, :WIDTH]
    for incident_cam, gop in INCIDENTS:
        if incident_cam == cam:
            lo, hi = gop * GOP_SIZE, (gop + 1) * GOP_SIZE
            # A truck-aspect red box in the sky band, clear of the dark
            # road mass, so it forms its own connected component.
            stack[lo:hi, 8:24, 40:88] = (200, 30, 30)
    return VideoSegment(stack, "rgb", HEIGHT, WIDTH, fps=FPS)


def test_search_selectivity(tmp_path, calibration, benchmark):
    # decode_cache_bytes=0: both pipelines pay full decode cost — the
    # indexed pass must not warm GOPs the scan would otherwise re-use.
    engine = VSSEngine(
        tmp_path / "store", calibration=calibration, decode_cache_bytes=0
    )
    session = engine.session()
    for cam in range(CAMS):
        session.write(
            f"cam{cam}", _clip(cam), codec="h264", qp=10, gop_size=GOP_SIZE
        )
    start = time.perf_counter()
    engine.drain_admissions()  # ingest-time extraction, off the write path
    extraction_seconds = time.perf_counter() - start
    total_gops = CAMS * GOPS_PER_CAM
    assert engine.stats().search_index_rows == total_gops
    expected = {(f"cam{cam}", gop) for cam, gop in INCIDENTS}
    selectivity = len(expected) / total_gops

    # -- indexed: the catalog answers, then windowed reads --------------
    def indexed() -> tuple[dict, int]:
        frames, decoded = {}, 0
        for hit in engine.search(text="red", limit=total_gops):
            result = session.read(
                hit.name, hit.start_time, hit.end_time,
                codec="raw", cache=False,
            )
            frames[(hit.name, hit.gop_seq)] = result.segment.pixels
            decoded += result.stats.frames_decoded
        return frames, decoded

    start = time.perf_counter()
    indexed_frames, indexed_decoded = indexed()
    indexed_seconds = time.perf_counter() - start

    # -- full scan: decode everything, detect, filter --------------------
    def fullscan() -> tuple[dict, int]:
        frames, decoded = {}, 0
        for cam in range(CAMS):
            result = session.read(
                f"cam{cam}", 0.0, FRAMES / FPS, codec="raw", cache=False
            )
            decoded += result.stats.frames_decoded
            pixels = result.segment.pixels
            for gop in range(pixels.shape[0] // GOP_SIZE):
                chunk = pixels[gop * GOP_SIZE : (gop + 1) * GOP_SIZE]
                middle = np.ascontiguousarray(chunk[GOP_SIZE // 2])
                if any(d.color == "red" for d in detect_vehicles(middle)):
                    frames[(f"cam{cam}", gop)] = chunk
        return frames, decoded

    start = time.perf_counter()
    scan_frames, scan_decoded = fullscan()
    fullscan_seconds = time.perf_counter() - start

    # Correctness: same GOPs, bit-identical pixels, minimal decode work.
    assert set(indexed_frames) == set(scan_frames) == expected
    for key, pixels in indexed_frames.items():
        np.testing.assert_array_equal(pixels, scan_frames[key])
    assert indexed_decoded == len(expected) * GOP_SIZE
    assert scan_decoded == total_gops * GOP_SIZE

    benchmark.pedantic(indexed, rounds=1, iterations=1)
    engine.close()

    speedup = (
        fullscan_seconds / indexed_seconds
        if indexed_seconds > 0 else float("inf")
    )
    series = Series("Search selectivity", "pipeline", "seconds")
    series.add(0, indexed_seconds)   # 0 = indexed search-then-read
    series.add(1, fullscan_seconds)  # 1 = full-scan decode-and-filter
    print_series(series)
    print(
        f"search_selectivity: {len(expected)}/{total_gops} GOPs match "
        f"({selectivity:.0%}); indexed {indexed_seconds:.4f} s, full scan "
        f"{fullscan_seconds:.4f} s ({speedup:.1f}x), extraction "
        f"{extraction_seconds:.3f} s at ingest"
    )

    # At ~5% selectivity the indexed pipeline decodes a small fraction of
    # what the full scan decodes (20x fewer frames in either mode).
    assert scan_decoded >= 5 * indexed_decoded
