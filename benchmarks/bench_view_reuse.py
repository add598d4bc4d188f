"""Derived-view reuse: N sessions reading one named view vs N ad-hoc reads.

Set ``VSS_BENCH_QUICK=1`` for the CI smoke configuration (shorter clip,
fewer sessions; the hardware-independent assertions keep running).

The motivating workload for views (ISSUE 4): a dashboard where many
consumers repeatedly want the same derived variant of a camera — a
cropped, windowed, re-encoded slice.  Without views each consumer
phrases the transformation ad hoc and (with caching off, the
app-managed-transcode world) the store re-plans and re-transcodes it
per request.  With a named view, the first read's transcode is admitted
as a cached fragment **of the base logical video**, and every later
session reading the view — or any equivalent view — is direct-served
those stored bytes.

Three measurements over one store:

* **ad-hoc, uncached** — N sessions each read the hand-composed
  ``ReadSpec`` with ``cache=False``: every read pays the full decode +
  crop + re-encode.
* **view, cold** — the first read through the view: same transcode cost
  plus admission of the result under the base.
* **view, warm** — N sessions reading the same view afterwards: planner
  picks the cached fragment, reads are direct-served.

The warm/ad-hoc ratio is the headline number.  Correctness assertions
(always on): warm view reads are bit-identical to the cold read and to
the ad-hoc equivalent, ``direct_serve`` is set, zero frames decode, and
the admitted fragment is attributed to the base logical video.
"""

from __future__ import annotations

import os
import time

from repro.bench.harness import Series, print_series
from repro.core.engine import VSSEngine
from repro.core.specs import ReadSpec, ViewSpec

QUICK = os.environ.get("VSS_BENCH_QUICK", "") not in ("", "0")
NUM_SESSIONS = 4 if QUICK else 8
CLIP_FRAMES = 60 if QUICK else 150  # at 30 fps
WINDOW = (0.0, 1.5 if QUICK else 3.0)
ROI = (120, 80, 420, 280)  # a 300x200 crop of the 1K frame


def _hand_spec(width: int, height: int) -> ReadSpec:
    roi = _clamped_roi(width, height)
    return ReadSpec(
        "camera", WINDOW[0], WINDOW[1], codec="h264", qp=10, roi=roi,
        cache=False,
    )


def _clamped_roi(width: int, height: int) -> tuple[int, int, int, int]:
    return (
        min(ROI[0], width - 2),
        min(ROI[1], height - 2),
        min(ROI[2], width),
        min(ROI[3], height),
    )


def test_view_reuse(tmp_path, calibration, vroad_clip, benchmark):
    clip = vroad_clip.slice_frames(0, CLIP_FRAMES)
    roi = _clamped_roi(clip.width, clip.height)

    engine = VSSEngine(tmp_path / "store", calibration=calibration)
    ingest = engine.session()
    ingest.write("camera", clip, codec="h264", qp=10, gop_size=30)
    engine.create_view(
        "dashboard-crop",
        ViewSpec(over="camera", start=WINDOW[0], end=WINDOW[1], roi=roi,
                 codec="h264", qp=10),
    )
    view_spec = ReadSpec("dashboard-crop", WINDOW[0], WINDOW[1])
    hand = _hand_spec(clip.width, clip.height)

    # -- ad-hoc, uncached: every session re-transcodes ------------------
    start = time.perf_counter()
    adhoc_results = [
        engine.session().read(hand) for _ in range(NUM_SESSIONS)
    ]
    adhoc_seconds = (time.perf_counter() - start) / NUM_SESSIONS

    # -- view, cold: one transcode, admitted under the base -------------
    physicals_before = engine.video_stats("camera").num_physicals
    start = time.perf_counter()
    cold = engine.session().read(view_spec)
    cold_seconds = time.perf_counter() - start
    # Admission is asynchronous; drain so the warm phase deterministically
    # starts from the cached fragment (the drain is not timed — it is the
    # background work the cold read no longer pays for).
    engine.drain_admissions()
    assert engine.video_stats("camera").num_physicals == physicals_before + 1

    # -- view, warm: N fresh sessions hit the cached fragment -----------
    def warm_sessions() -> list:
        return [engine.session().read(view_spec) for _ in range(NUM_SESSIONS)]

    start = time.perf_counter()
    warm_results = warm_sessions()
    warm_seconds = (time.perf_counter() - start) / NUM_SESSIONS

    # Correctness: identical bytes everywhere, zero decode work warm.
    cold_bytes = [g.payloads for g in cold.gops]
    for result in warm_results:
        assert result.stats.direct_serve
        assert result.stats.frames_decoded == 0
        assert [g.payloads for g in result.gops] == cold_bytes
    assert [g.payloads for g in adhoc_results[0].gops] == cold_bytes
    assert engine.stats().view_reads == NUM_SESSIONS + 1

    benchmark.pedantic(warm_sessions, rounds=1, iterations=1)

    engine.close()

    speedup = adhoc_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    series = Series("View reuse", "configuration", "seconds/read")
    series.add(0, adhoc_seconds)  # 0 = ad-hoc uncached
    series.add(1, cold_seconds)   # 1 = view cold (transcode + admit)
    series.add(2, warm_seconds)   # 2 = view warm (direct-served)
    print_series(series)
    print(
        f"view_reuse: {NUM_SESSIONS} sessions; ad-hoc {adhoc_seconds:.4f}"
        f" s/read, view cold {cold_seconds:.4f} s, view warm "
        f"{warm_seconds:.4f} s/read ({speedup:.1f}x vs ad-hoc)"
    )

    # Hardware-independent: a direct-served warm read must clearly beat
    # re-transcoding (generous floor so CI noise cannot flake it).
    assert warm_seconds < adhoc_seconds
