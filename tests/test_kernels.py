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
from repro.errors import HomographyError
from repro.vision import homography
from repro.vision.homography import ransac_homography, warp_perspective, warp_plan
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
    into=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_resize_matches_whole_array_oracle(
    fmt, frames, size, ratio, other_axis, free, layout, block_frames, into, seed
):
    """Up, down, integer and non-integer ratios, one axis or both, odd and
    even sizes, strided inputs, windows that end inside a block, and
    ``out=`` a rectangle of a larger canvas (the rest left as it was)."""
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
        if into:
            shape = expected.pixels.shape
            canvas = np.full(
                (frames, shape[1] + 3, shape[2] + 5, *shape[3:]), 7, np.uint8
            )
            out = canvas[:, 1:1 + shape[1], 2:2 + shape[2]]
            got = resize_segment(segment, new_width, new_height, out=out)
            assert got.pixels is out
            rest = np.ones(canvas.shape, dtype=bool)
            rest[:, 1:1 + shape[1], 2:2 + shape[2]] = False
            assert (canvas[rest] == 7).all()
        else:
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


@settings(max_examples=80, deadline=None)
@given(
    frames=st.integers(1, 7),
    height=st.integers(1, 30),
    width=st.integers(1, 40),
    layout=st.sampled_from(["fresh", "roi", "stepped"]),
    block_frames=st.sampled_from([None, 1, 2, 3]),
    seed=st.integers(0, 2**16),
)
def test_gray_conversion_computes_luma_only(
    frames, height, width, layout, block_frames, seed
):
    # Gray packs luma alone, so ``_from_rgb`` computes only Y (no U or
    # V to drop, hence any size, odd ones included), through blocks of
    # frames in ``convert_segment``; the bytes stay the whole-array
    # oracle's.
    rgb = _strided(seed, frames, height, width, layout)
    expected = oracle.from_rgb(rgb, "gray", height, width)
    scratch = frame_module._Scratch()
    assert np.array_equal(_from_rgb(rgb, "gray", height, width, scratch), expected)
    assert sorted(scratch._buffers) == ["value", "y"]
    segment = VideoSegment(rgb, "rgb", height, width, 30.0)
    with pytest.MonkeyPatch.context() as patch:
        if block_frames is not None:
            patch.setattr(
                frame_module, "_BLOCK_ELEMENTS", block_frames * 3 * height * width
            )
        converted = frame_module.convert_segment(segment, "gray")
    assert np.array_equal(converted.pixels, expected)


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


# ----------------------------------------------------------------------
# perspective warp
# ----------------------------------------------------------------------
def _homography(seed: int) -> np.ndarray:
    """A random invertible homography: scale, shear, translation and a
    mild perspective row, like the rig's skews and the pairs' overlaps."""
    rng = np.random.default_rng(seed)
    h = np.eye(3)
    h[0, 0], h[1, 1] = rng.uniform(0.7, 1.3, 2)
    h[0, 1], h[1, 0] = rng.uniform(-0.2, 0.2, 2)
    h[:2, 2] = rng.uniform(-20.0, 20.0, 2)
    h[2, :2] = rng.uniform(-0.01, 0.01, 2)
    return h


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    rgb=st.booleans(),
    in_shape=st.tuples(st.integers(1, 40), st.integers(1, 48)),
    out_shape=st.tuples(st.integers(1, 40), st.integers(1, 48)),
    same_shape=st.booleans(),
    cut=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
def test_warp_plan_matches_per_frame_oracle(
    seed, rgb, in_shape, out_shape, same_shape, cut
):
    """Random homographies, gray and rgb, equal and differing input and
    output shapes, any column slice: one plan applied to two frames equals
    the per-frame oracle's bytes and valid mask on the plan's columns, and
    ``warp_perspective`` equals it whole."""
    if same_shape:
        out_shape = in_shape
    out_w = out_shape[1]
    start = min(int(cut[0] * out_w), out_w - 1)
    stop = start + 1 + int(cut[1] * (out_w - start - 1))
    rng = np.random.default_rng(seed + 1)
    h = _homography(seed)
    plan = warp_plan(h, in_shape, out_shape, (start, stop))
    for _ in range(2):
        image = rng.integers(
            0, 256, in_shape + ((3,) if rgb else ()), dtype=np.uint8
        )
        expected, expected_valid = oracle.warp_perspective(image, h, out_shape)
        warped = plan.apply(image)
        assert warped.dtype == expected.dtype
        assert np.array_equal(warped, expected[:, start:stop])
        assert np.array_equal(plan.valid, expected_valid[:, start:stop])
        whole, valid = warp_perspective(image, h, out_shape)
        assert np.array_equal(whole, expected)
        assert np.array_equal(valid, expected_valid)


def _translation_onto_edges(in_shape, out_shape, kind: int) -> np.ndarray:
    """An integral translation whose samples land exactly on the input's
    last row (kind 1), last column (kind 2) or both (kind 3)."""
    h = np.eye(3)
    if kind & 2:
        h[0, 2] = out_shape[1] - in_shape[1]
    if kind & 1:
        h[1, 2] = out_shape[0] - in_shape[0]
    return h


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**16),
    frames=st.integers(1, 31),
    rgb=st.booleans(),
    dtype=st.sampled_from([np.uint8, np.float32, np.float64]),
    in_shape=st.tuples(st.integers(1, 24), st.integers(1, 24)),
    out_shape=st.tuples(st.integers(1, 24), st.integers(1, 24)),
    same_shape=st.booleans(),
    geometry=st.sampled_from(["random", "shift", "row", "column", "corner"]),
    cut=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    fill=st.sampled_from([0.0, 7.0, 2.5]),
)
def test_stacked_warp_matches_per_frame_oracle(
    seed, frames, rgb, dtype, in_shape, out_shape, same_shape, geometry,
    cut, fill,
):
    """One plan applied to a stack of 1-31 frames equals the per-frame
    oracle on every frame, bit for bit: gray, rgb and float input,
    non-zero fill, any column slice (zero-width ones too), random
    homographies and integral translations whose samples land exactly on
    the last row or column."""
    if same_shape:
        out_shape = in_shape
    out_w = out_shape[1]
    start = int(cut[0] * out_w)
    stop = start + int(cut[1] * (out_w - start))
    rng = np.random.default_rng(seed + 1)
    if geometry == "random":
        h = _homography(seed)
    elif geometry == "shift":
        h = np.eye(3)
        h[:2, 2] = rng.integers(-3, 4, 2)
    else:
        h = _translation_onto_edges(
            in_shape, out_shape, {"row": 1, "column": 2, "corner": 3}[geometry]
        )
    stack = rng.integers(0, 256, (frames,) + in_shape + ((3,) if rgb else ()))
    stack = stack.astype(dtype)
    if dtype != np.uint8:
        stack += rng.random(stack.shape).astype(dtype)
    plan = warp_plan(h, in_shape, out_shape, (start, stop))
    warped = plan.apply(stack, fill)
    if stack.ndim == 3 and stack.shape[:2] == in_shape:
        # A square gray stack as deep as its side reads as one frame
        # with that many channels, as the docstring says.
        expected, valid = oracle.warp_perspective(stack, h, out_shape, fill)
        expected = expected[:, start:stop]
    else:
        per_frame = [
            oracle.warp_perspective(frame, h, out_shape, fill) for frame in stack
        ]
        expected = np.stack([e[:, start:stop] for e, _ in per_frame])
        valid = per_frame[0][1]
    assert warped.dtype == expected.dtype
    assert warped.shape == expected.shape
    assert np.array_equal(warped, expected)
    assert np.array_equal(plan.valid, valid[:, start:stop])


def test_warp_plan_refuses_another_input_shape():
    plan = warp_plan(np.eye(3), (8, 12), (8, 12))
    with pytest.raises(ValueError, match="plan for input"):
        plan.apply(np.zeros((8, 13), dtype=np.uint8))
    with pytest.raises(ValueError, match="plan for input"):
        plan.apply(np.zeros((2, 8, 13, 3), dtype=np.uint8))


# ----------------------------------------------------------------------
# RANSAC
# ----------------------------------------------------------------------
def _correspondences(seed: int, n: int, noise: float, outliers: float, layout: str):
    """``n`` points and their images under a random homography, with
    gaussian noise, a share of outliers and a degenerate layout: a
    collinear block, every point on one line, or repeated points."""
    rng = np.random.default_rng(seed)
    src = rng.uniform(0.0, 200.0, (n, 2))
    if layout == "collinear":
        src[: min(n, 10)] = np.stack([np.arange(min(n, 10)) * 3.0, np.full(min(n, 10), 5.0)], 1)
    elif layout == "line":
        src[:, 1] = 0.5 * src[:, 0] + 3.0
    elif layout == "repeated":
        src[1::2] = src[::2][: n // 2]
    h = _homography(seed)
    mapped = np.hstack([src, np.ones((n, 1))]) @ h.T
    dst = mapped[:, :2] / mapped[:, 2:]
    dst += rng.normal(0.0, noise, dst.shape)
    wrong = rng.random(n) < outliers
    dst[wrong] = rng.uniform(0.0, 200.0, (int(wrong.sum()), 2))
    return src, dst


def _ransac_outcome(fn, src, dst, seed):
    try:
        return fn(src, dst, seed=seed)
    except HomographyError as exc:
        return str(exc)


def _assert_same_ransac(src, dst, seed):
    got = _ransac_outcome(ransac_homography, src, dst, seed)
    expected = _ransac_outcome(oracle.ransac_homography, src, dst, seed)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert not isinstance(got, str), got
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(4, 90),
    noise=st.sampled_from([0.0, 0.3, 1.5]),
    outliers=st.sampled_from([0.0, 0.2, 0.6]),
    layout=st.sampled_from(["spread", "collinear", "line", "repeated"]),
)
def test_batched_ransac_matches_per_sample_loop(seed, n, noise, outliers, layout):
    """The batched minimal solves and scores pick the per-sample loop's
    model: the same H and inlier mask bit for bit, or the same error.
    Exact correspondences (no noise, no outliers) end the search at the
    first all-inlier model; collinear and repeated points give
    degenerate samples, which both skip."""
    src, dst = _correspondences(seed, n, noise, outliers, layout)
    _assert_same_ransac(src, dst, seed % 97)


def test_all_inlier_model_ends_the_search_at_its_batch():
    """Exact correspondences: the first sample already explains every
    point, so one batch is solved, and the answer is the loop's."""
    src, dst = _correspondences(5, 40, 0.0, 0.0, "spread")
    solved = []
    batch = homography._batch_homographies

    def counted(src_, dst_, samples):
        solved.append(len(samples))
        return batch(src_, dst_, samples)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homography, "_batch_homographies", counted)
        _assert_same_ransac(src, dst, 0)
    assert solved == [homography.RANSAC_BATCH]


def test_failed_batched_solve_falls_back_to_per_sample():
    """A LinAlgError from a batched LAPACK call sends that batch through
    one solve per sample (each a stack of one), with the same answer."""
    src, dst = _correspondences(11, 60, 0.5, 0.3, "spread")
    svd = np.linalg.svd

    def refuses_stacks(a, *args, **kwargs):
        if np.ndim(a) == 3 and len(a) > 1:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "svd", refuses_stacks)
        _assert_same_ransac(src, dst, 4)
