"""The read path's pixel kernels against their whole-array oracles.

``video/resample.py``, ``video/frame.py`` and ``Reader._paste`` gather
first and touch each pixel once; ``tests/kernel_oracles.py`` keeps the
plain formulations they replaced.  The arithmetic and its order did not
change, so every comparison here is ``np.array_equal`` — no tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.cost import TargetFormat
from repro.core.engine import VSSEngine
from repro.core.read_planner import IntervalChoice, ReadPlan
from repro.core.reader import Reader, ReadStats, cell_rects
from repro.core.records import Fragment, PhysicalVideo
from repro.core.specs import ReadSpec
from repro.video import frame as frame_module
from repro.video.frame import VideoSegment, _from_rgb, _pool2, _to_rgb
from repro.video.metrics import segment_psnr
from repro.video.resample import index_run, resize_segment
from tests import kernel_oracles as oracle

FORMATS = ["rgb", "yuv420", "yuv422", "gray"]


def _pixels(seed: int, frames: int, height: int, width: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, (frames, height, width, 3), dtype=np.uint8)


def _strided(seed: int, frames: int, height: int, width: int, layout: str):
    """``(frames, height, width, 3)`` random RGB in one of the layouts the
    reader hands the kernels: a fresh array, an ROI view of a larger
    window, or every other frame of one (an fps change)."""
    if layout == "roi":
        return _pixels(seed, frames, height + 5, width + 7)[:, 2:2 + height, 3:3 + width]
    if layout == "stepped":
        return _pixels(seed, 2 * frames, height, width)[::2]
    return _pixels(seed, frames, height, width)


# ----------------------------------------------------------------------
# resize
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(
    fmt=st.sampled_from(FORMATS),
    frames=st.integers(1, 7),
    size=st.tuples(st.integers(1, 24), st.integers(1, 20)),
    ratio=st.sampled_from(
        [(1, 2), (1, 4), (2, 1), (3, 1), (1, 1), (2, 3), (7, 5), (5, 9)]
    ),
    other_axis=st.sampled_from(["same", "keep", "free"]),
    free=st.integers(1, 40),
    layout=st.sampled_from(["fresh", "roi", "stepped"]),
    block_frames=st.sampled_from([None, 1, 2, 3]),
    seed=st.integers(0, 2**16),
)
def test_resize_matches_whole_array_oracle(
    fmt, frames, size, ratio, other_axis, free, layout, block_frames, seed
):
    """Up, down, integer and non-integer ratios, one axis or both, odd and
    even sizes, strided inputs, and windows that end inside a block."""
    even = fmt in ("yuv420", "yuv422")
    width, height = (2 * v if even else v for v in size)
    new_width = max(1, width * ratio[0] // ratio[1])
    new_height = {
        "same": max(1, height * ratio[0] // ratio[1]),
        "keep": height,
        "free": free,
    }[other_axis]
    if even:
        new_width, new_height = new_width + new_width % 2, new_height + new_height % 2
    rgb = _strided(seed, frames, height, width, layout)
    pixels = oracle.from_rgb(rgb, fmt, height, width)
    if layout == "stepped" and fmt != "rgb":
        pixels = np.repeat(pixels, 2, axis=0)[::2]
    segment = VideoSegment(pixels, fmt, height, width, 30.0)
    expected = oracle.resize_segment(segment, new_width, new_height)
    with pytest.MonkeyPatch.context() as patch:
        if block_frames is not None:
            patch.setattr(
                frame_module,
                "_BLOCK_ELEMENTS",
                block_frames * 9 * max(height, new_height) * max(width, new_width),
            )
        got = resize_segment(segment, new_width, new_height)
    assert got.resolution == (new_width, new_height)
    assert got.pixels.dtype == np.uint8
    assert np.array_equal(got.pixels, expected.pixels)


@pytest.mark.parametrize(
    "indices, expected",
    [
        ([4], slice(4, 5)),
        ([0, 1, 2], slice(0, 3, 1)),
        ([1, 5, 9], slice(1, 10, 4)),
        ([0, 0, 1], None),
        ([0, 1, 3], None),
        ([3, 2, 1], None),
        ([2, 2], None),
    ],
)
def test_index_run_is_a_slice_only_for_rising_equal_steps(indices, expected):
    indices = np.array(indices)
    run = index_run(indices)
    if expected is None:
        assert run is indices
    else:
        assert run == expected
        assert np.array_equal(np.arange(20)[run], indices)


# ----------------------------------------------------------------------
# colour conversion
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    frames=st.integers(1, 5),
    half_height=st.integers(1, 20),
    half_width=st.integers(2, 30),
    rows=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**16),
)
def test_pool2_sums_in_the_order_mean_does(frames, half_height, half_width, rows, seed):
    # Width 2 is left out: there ``mean`` folds each window into one run
    # of four and adds it left to right, where the kernel keeps the
    # pairwise order it uses at every other width.
    rng = np.random.default_rng(seed)
    plane = (rng.random((frames, 2 * half_height, 2 * half_width)) * 400 - 70).astype(
        np.float32
    )
    pooled = _pool2(plane, rows, 2)
    assert pooled.dtype == np.float32
    assert np.array_equal(pooled, oracle.pool2(plane, rows, 2))


@settings(max_examples=60, deadline=None)
@given(
    fmt=st.sampled_from(["yuv420", "yuv422", "gray"]),
    frames=st.integers(1, 5),
    half_height=st.integers(1, 14),
    half_width=st.integers(2, 26),
    layout=st.sampled_from(["fresh", "roi", "stepped"]),
    seed=st.integers(0, 2**16),
)
def test_colour_conversion_matches_stack_and_concatenate_oracle(
    fmt, frames, half_height, half_width, layout, seed
):
    height, width = 2 * half_height, 2 * half_width
    rgb = _strided(seed, frames, height, width, layout)
    packed = _from_rgb(rgb, fmt, height, width)
    assert packed.flags.c_contiguous
    assert np.array_equal(packed, oracle.from_rgb(rgb, fmt, height, width))
    if layout == "stepped":
        packed = np.repeat(packed, 2, axis=0)[::2]
    segment = VideoSegment(packed, fmt, height, width, 30.0)
    assert np.array_equal(_to_rgb(segment), oracle.to_rgb(segment))


# ----------------------------------------------------------------------
# paste
# ----------------------------------------------------------------------
def _cuts(draw, lo: int, hi: int, pieces: int) -> list[int]:
    """``lo < ... < hi`` with up to ``pieces`` intervals."""
    inner = draw(
        st.lists(st.integers(lo + 1, hi - 1), max_size=pieces - 1, unique=True)
        if hi - lo > 1
        else st.just([])
    )
    return [lo, *sorted(inner), hi]


@st.composite
def _paste_cases(draw):
    orig_w, orig_h = draw(st.sampled_from([(64, 36), (50, 26), (33, 17)]))

    def region(bounds):
        x0 = draw(st.integers(bounds[0], bounds[2] - 1))
        x1 = draw(st.integers(x0 + 1, bounds[2]))
        y0 = draw(st.integers(bounds[1], bounds[3] - 1))
        y1 = draw(st.integers(y0 + 1, bounds[3]))
        return (x0, y0, x1, y1)

    full = (0, 0, orig_w, orig_h)
    roi = full if draw(st.booleans()) else region(full)
    # The fragment depicts the whole frame or some region holding the cells.
    covered = region(roi)
    frag_roi = draw(
        st.sampled_from(
            [
                None,
                covered,
                (0, covered[1], orig_w, covered[3]),
                (covered[0], 0, covered[2], orig_h),
            ]
        )
    )
    depicted = full if frag_roi is None else frag_roi
    dep_w, dep_h = depicted[2] - depicted[0], depicted[3] - depicted[1]
    frag_scale = draw(st.sampled_from([(1, 1), (1, 2), (1, 4), (2, 1), (2, 3)]))
    frag_w = max(1, dep_w * frag_scale[0] // frag_scale[1])
    frag_h = max(1, dep_h * frag_scale[0] // frag_scale[1])
    roi_w, roi_h = roi[2] - roi[0], roi[3] - roi[1]
    out_scale = draw(st.sampled_from([(1, 1), (1, 2), (1, 4), (2, 1), (3, 5), "frag"]))
    if out_scale == "frag":
        # The fragment's own scale: cells paste without a resize.
        out_scale = frag_scale
    canvas_w = max(1, roi_w * out_scale[0] // out_scale[1])
    canvas_h = max(1, roi_h * out_scale[0] // out_scale[1])
    xs = _cuts(draw, covered[0], covered[2], 3)
    ys = _cuts(draw, covered[1], covered[3], 3)
    cells = [
        (x0, y0, x1, y1)
        for x0, x1 in zip(xs, xs[1:])
        for y0, y1 in zip(ys, ys[1:])
    ]
    # Frame selection as the reader's schedule computes it: output frames
    # on the target grid, each mapped to the source frame under it.
    src_frames = draw(st.integers(1, 8))
    fps_src = 30.0
    fps_out = draw(st.sampled_from([10.0, 15.0, 30.0, 45.0, 60.0]))
    total = max(1, int(round(src_frames / fps_src * fps_out)))
    times = (np.arange(total) + 0.5) / fps_out
    src_indices = np.clip(
        np.floor(times * fps_src).astype(np.int64), 0, src_frames - 1
    )
    canvas_frames = total + draw(st.integers(0, 3))
    if draw(st.booleans()):
        # Scattered over the canvas: no slice can stand for them.
        chosen = draw(st.permutations(range(canvas_frames)))[:total]
        out_indices = np.sort(np.array(chosen, dtype=np.int64))
    else:
        out_indices = np.arange(total) + (canvas_frames - total)
    return {
        "original": (orig_w, orig_h),
        "roi": roi,
        "frag_roi": frag_roi,
        "frag_size": (frag_w, frag_h),
        "canvas_size": (canvas_w, canvas_h),
        "cells": cells,
        "src_frames": src_frames,
        "src_indices": src_indices,
        "out_indices": out_indices,
        "canvas_frames": canvas_frames,
        "fps_out": fps_out,
        "seed": draw(st.integers(0, 2**16)),
    }


def _plan_objects(case):
    frag_w, frag_h = case["frag_size"]
    canvas_w, canvas_h = case["canvas_size"]
    physical = PhysicalVideo(
        id=1, logical_id=1, codec="raw", pixel_format="rgb",
        width=frag_w, height=frag_h, fps=30.0, qp=0, roi=case["frag_roi"],
        start_time=0.0, end_time=1.0, mse_estimate=0.0,
        is_original=case["frag_roi"] is None, sealed=True,
    )
    choice = IntervalChoice(0.0, 1.0, Fragment(physical), case["cells"], False)
    plan = ReadPlan(
        request=ReadSpec("v", 0.0, 1.0),
        target=TargetFormat("raw", "rgb", canvas_w, canvas_h),
        target_fps=case["fps_out"],
        roi=case["roi"],
        choices=[choice],
        estimated_cost=0.0,
        mode="greedy",
        original_resolution=case["original"],
    )
    return choice, plan


@settings(max_examples=150, deadline=None)
@given(case=_paste_cases())
def test_paste_matches_double_copy_oracle(case):
    choice, plan = _plan_objects(case)
    frag_w, frag_h = case["frag_size"]
    canvas_w, canvas_h = case["canvas_size"]
    depicted = case["frag_roi"] or (0, 0, *case["original"])
    rects = [
        oracle.cell_rects(
            cell, depicted, case["frag_size"], case["roi"], case["canvas_size"]
        )
        for cell in case["cells"]
    ]
    # The oracle raises on an empty rectangle; those cells have tests of
    # their own below.
    assume(all(r[0] < r[2] and r[1] < r[3] for pair in rects for r in pair))
    for cell, pair in zip(case["cells"], rects):
        assert pair == cell_rects(
            cell, depicted, case["frag_size"], case["roi"], case["canvas_size"]
        )
    source = VideoSegment(
        _pixels(case["seed"], case["src_frames"], frag_h, frag_w),
        "rgb", frag_h, frag_w, 30.0,
    )
    canvases, stats = [], []
    for paste in (Reader._paste, oracle.paste):
        canvas = np.full(
            (case["canvas_frames"], canvas_h, canvas_w, 3), 7, dtype=np.uint8
        )
        stat = ReadStats()
        paste(
            canvas, case["out_indices"], source, case["src_indices"],
            choice, plan, stat,
        )
        canvases.append(canvas)
        stats.append(stat.resample_mse)
    assert np.array_equal(canvases[0], canvases[1])
    assert stats[0] == stats[1]
    assert not np.shares_memory(canvases[0], source.pixels)


class TestCellRects:
    """Slivers that round onto the far edge of the canvas or the fragment."""

    FULL = (0, 0, 64, 36)

    def test_interior_cell_maps_to_both_rasters(self):
        rects = cell_rects((8, 4, 40, 20), self.FULL, (32, 18), self.FULL, (16, 9))
        assert rects == ((4, 2, 20, 10), (2, 1, 10, 5))

    @pytest.mark.parametrize(
        "cell", [(62, 0, 64, 36), (0, 34, 64, 36), (62, 34, 64, 36)]
    )
    def test_cell_on_the_canvas_far_edge_is_skipped(self, cell):
        # At quarter resolution 62 -> 15.5 -> 16 and 34 -> 8.5 -> 8 (half
        # to even), on a 16x8 canvas both land on the edge.
        assert cell_rects(cell, self.FULL, (64, 36), self.FULL, (16, 8)) is None

    @pytest.mark.parametrize(
        "cell, source",
        [
            ((62, 0, 64, 36), (15, 0, 16, 8)),
            ((0, 34, 64, 36), (0, 7, 16, 8)),
            ((62, 34, 64, 36), (15, 7, 16, 8)),
        ],
    )
    def test_cell_on_the_fragment_far_edge_reads_its_last_pixels(self, cell, source):
        # The same slivers read *from* a quarter-resolution fragment onto
        # a full-resolution canvas: the canvas rectangle is real, so the
        # source is clamped to the fragment's last column / row.
        got_source, got_canvas = cell_rects(
            cell, self.FULL, (16, 8), self.FULL, (64, 36)
        )
        assert got_source == source
        assert got_canvas == cell

    def test_rect_is_at_least_one_pixel_inside_the_raster(self):
        source, canvas = cell_rects(
            (10, 10, 11, 11), self.FULL, (64, 36), self.FULL, (16, 9)
        )
        assert source == (10, 10, 11, 11)
        assert canvas == (2, 2, 3, 3)


def test_quarter_resolution_read_over_cached_roi_slivers(
    tmp_path, calibration, three_second_clip
):
    """Cached ROI reads cut the frame into cells with 2-pixel slivers along
    the right and bottom; at quarter resolution those round onto the
    canvas edge (62/4 -> 16 of 16).  The read used to die in
    ``resize_segment`` with ``target resolution must be positive, got
    0x8``."""
    with VSSEngine(
        tmp_path / "store", calibration=calibration, parallelism=1
    ) as engine:
        session = engine.session()
        session.write("traffic", three_second_clip, codec="h264", qp=10, gop_size=30)
        quarter = ReadSpec(
            "traffic", 0.0, 2.0, codec="raw", resolution=(16, 9), cache=False
        )
        clean = session.read(quarter).segment
        for roi in [(0, 0, 62, 36), (0, 0, 64, 34)]:
            session.read(ReadSpec("traffic", 0.0, 2.0, codec="raw", roi=roi))
            engine.drain_admissions()
        logical = engine.catalog.get_logical("traffic")
        plan, _ = engine._plan_for(
            logical, engine.catalog.original_physical(logical.id), quarter
        )
        cells = [cell for choice in plan.choices for cell in choice.cells]
        assert (62, 0, 64, 34) in cells and (0, 34, 62, 36) in cells
        answer = session.read(quarter).segment
        assert answer.pixels.shape == clean.pixels.shape
        # Every row and column is painted, and with the requested picture.
        # The bound is coarse: each cell is resized to its own rounded
        # rectangle, so the rows where traffic moves are sampled up to
        # half a pixel away from where one whole-frame resize samples.
        assert answer.pixels.any(axis=(0, 2, 3)).all()
        assert answer.pixels.any(axis=(0, 1, 3)).all()
        assert segment_psnr(clean, answer) > 15.0
