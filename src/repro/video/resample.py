"""Spatial and temporal resampling: resize, ROI crop, frame-rate change.

These implement the spatial (``S``) and temporal (``T``) transformations a
VSS read may request.  All operations are pure functions over
:class:`~repro.video.frame.VideoSegment` values.

Resizing uses separable bilinear interpolation vectorized across blocks of
frames; chroma-subsampled formats are resized through RGB to avoid
compounding subsampling artifacts.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache

import numpy as np

from repro.errors import FormatError
from repro.video.frame import (
    VideoSegment,
    _from_rgb,
    _round_into,
    _to_rgb,
    frame_blocks,
    pixel_format,
)


def index_run(indices: np.ndarray) -> slice | np.ndarray:
    """``indices`` as a slice when they rise in equal steps, else unchanged.

    Basic slicing yields a view where integer-array indexing copies, so
    the pixel kernels index with this wherever a selection may be a run.
    """
    if indices.size == 1:
        return slice(int(indices[0]), int(indices[0]) + 1)
    step = int(indices[1] - indices[0])
    if step > 0 and (np.diff(indices) == step).all():
        return slice(int(indices[0]), int(indices[-1]) + 1, step)
    return indices


@lru_cache(maxsize=256)
def _axis_taps(
    old_size: int, new_size: int, repeat: int
) -> tuple[slice | np.ndarray, slice | np.ndarray, np.ndarray, np.ndarray]:
    """Bilinear taps ``(lo, hi, w_lo, w_hi)`` for one axis: output ``i`` is
    ``in[lo[i]] * w_lo[i] + in[hi[i]] * w_hi[i]``.

    ``lo``/``hi`` come through :func:`index_run`, which makes them slices
    at every integer ratio (the paper's 1/2 and 1/4 sizes).  Each weight
    appears ``repeat`` times in a row, once per element a tap spans, and
    is read-only because every caller shares it.
    """
    # Align pixel centers: coordinate of output i in input space.
    coords = (np.arange(new_size) + 0.5) * (old_size / new_size) - 0.5
    coords = np.clip(coords, 0, old_size - 1)
    lo = np.floor(coords).astype(np.int64)
    hi = np.minimum(lo + 1, old_size - 1)
    frac = (coords - lo).astype(np.float32)
    w_lo = np.repeat(1.0 - frac, repeat)[:, None]
    w_hi = np.repeat(frac, repeat)[:, None]
    w_lo.setflags(write=False)
    w_hi.setflags(write=False)
    return index_run(lo), index_run(hi), w_lo, w_hi


def _gather(
    pixels: np.ndarray, index: slice | np.ndarray, axis: int, out: np.ndarray
) -> None:
    """``out[...] = pixels`` at ``index`` along ``axis``, widened to float32."""
    widen = pixels.dtype != out.dtype
    if not widen:
        # Nothing to convert, only to move: one tap is one run of bytes,
        # and numpy copies an array of such opaque items several times
        # faster than the same bytes as strided rows of C floats.
        tap = math.prod(pixels.shape[axis + 1:])
        item = np.dtype((np.void, tap * pixels.itemsize))
        pixels = pixels.reshape(-1, pixels.shape[axis], tap).view(item)
        out = out.reshape(-1, out.shape[axis], tap).view(item)
        axis = 1
    if isinstance(index, slice):
        np.copyto(out, pixels[(slice(None),) * axis + (index,)])
    elif widen:
        np.copyto(out, np.take(pixels, index, axis=axis))
    else:
        # In range by construction; any mode but "raise" lets ``take``
        # write straight into ``out`` instead of through a copy of it.
        np.take(pixels, index, axis=axis, out=out, mode="clip")


def _lerp_axis(
    pixels: np.ndarray, new_size: int, axis: int, out: np.ndarray, tap: np.ndarray
) -> np.ndarray:
    """Bilinear resample along one spatial axis of an (N, H, W, C) stack.

    Gathers the two taps first and converts only what it gathered, so a
    uint8 input is widened once, at the output's size along ``axis``.
    ``out`` and ``tap`` are flat float32 scratch; the result is a view of
    ``out`` (or ``pixels`` itself when the size already matches).
    """
    old_size = pixels.shape[axis]
    if new_size == old_size:
        return pixels
    shape = pixels.shape[:axis] + (new_size,) + pixels.shape[axis + 1:]
    # Along the last spatial axis a tap is one pixel: fold its channels
    # into the weights so the multiply runs over whole rows, not C-element
    # ones.
    repeat = shape[-1] if axis == pixels.ndim - 2 else 1
    lo, hi, w_lo, w_hi = _axis_taps(old_size, new_size, repeat)
    size = math.prod(shape)
    out, tap = out[:size].reshape(shape), tap[:size].reshape(shape)
    rows = (-1, new_size * repeat, math.prod(shape[axis + 1:]) // repeat)
    for index, weights, buf in ((lo, w_lo, out), (hi, w_hi, tap)):
        _gather(pixels, index, axis, buf)
        buf = buf.reshape(rows)
        buf *= weights
    out += tap
    return out


def resize_segment(segment: VideoSegment, width: int, height: int) -> VideoSegment:
    """Resize a segment to ``width`` x ``height`` with bilinear filtering.

    ``segment.pixels`` may be any strided view (an ROI of a decoded
    window, every other frame of it): the filter reads it once, in place.
    """
    if width <= 0 or height <= 0:
        raise ValueError(f"target resolution must be positive, got {width}x{height}")
    if (width, height) == segment.resolution:
        return segment
    fmt = segment.pixel_format
    pixels = np.empty(
        (segment.num_frames, *pixel_format(fmt).frame_shape(height, width)),
        dtype=np.uint8,
    )
    # Frame by frame the filter is independent, so it runs in bounded
    # blocks (see ``frame_blocks``): the same bytes as one pass over the
    # whole window, without its window-sized float32 temporaries.  A
    # block's are three RGB stacks of the gathered rows at the wider of
    # the two widths (vertical result, tap, horizontal result) -- or of
    # the source itself when that has to become RGB first.  They are
    # allocated once, not per block: every pass after the first runs in
    # memory that is already mapped.
    rows = height if fmt == "rgb" else max(height, segment.height)
    cols = max(width, segment.width)
    blocks = frame_blocks(segment.num_frames, rows, cols, channels=3 * 3)
    block_frames = blocks[0][1] if blocks else 0
    scratch = np.empty((3, block_frames * height * cols * 3), dtype=np.float32)
    for lo, hi in blocks:
        rgb = _to_rgb(segment.slice_frames(lo, hi))
        rgb = _lerp_axis(rgb, height, 1, scratch[0], scratch[1])
        rgb = _lerp_axis(rgb, width, 2, scratch[2], scratch[1])
        if fmt == "rgb":
            _round_into(pixels[lo:hi], rgb)
        else:
            rgb8 = np.empty(rgb.shape, dtype=np.uint8)
            _round_into(rgb8, rgb)
            pixels[lo:hi] = _from_rgb(rgb8, fmt, height, width)
    return replace(segment, pixels=pixels, height=height, width=width)


def crop_roi(
    segment: VideoSegment, x0: int, x1: int, y0: int, y1: int
) -> VideoSegment:
    """Crop a spatial region of interest ``[x0..x1) x [y0..y1)``.

    Chroma-subsampled formats require the ROI to respect the subsampling
    grid; to keep the API uniform we crop through RGB whenever the ROI is
    not aligned, and directly otherwise.
    """
    if not (0 <= x0 < x1 <= segment.width and 0 <= y0 < y1 <= segment.height):
        raise ValueError(
            f"ROI [{x0}..{x1})x[{y0}..{y1}) out of bounds for "
            f"{segment.width}x{segment.height}"
        )
    w, h = x1 - x0, y1 - y0
    fmt = segment.pixel_format
    if fmt in ("rgb", "gray"):
        pixels = segment.pixels[:, y0:y1, x0:x1]
        return replace(segment, pixels=np.ascontiguousarray(pixels), height=h, width=w)
    if fmt in ("yuv420", "yuv422"):
        if any(v % 2 for v in (x0, x1, y0, y1, w, h)):
            # Unaligned ROI: round-trip through RGB.
            rgb = _to_rgb(segment)[:, y0:y1, x0:x1]
            pixels = _from_rgb(np.ascontiguousarray(rgb), fmt, h, w)
            return replace(segment, pixels=pixels, height=h, width=w)
        hh = segment.height
        y = segment.pixels[:, :hh][:, y0:y1, x0:x1]
        sub_h = 2 if fmt == "yuv420" else 1
        chroma = segment.pixels[:, hh:].reshape(
            segment.num_frames, 2, hh // sub_h, segment.width // 2
        )
        cy0, cy1 = y0 // sub_h, y1 // sub_h
        cx0, cx1 = x0 // 2, x1 // 2
        u = chroma[:, 0, cy0:cy1, cx0:cx1].reshape(segment.num_frames, -1, w)
        v = chroma[:, 1, cy0:cy1, cx0:cx1].reshape(segment.num_frames, -1, w)
        pixels = np.ascontiguousarray(np.concatenate([y, u, v], axis=1))
        return replace(segment, pixels=pixels, height=h, width=w)
    raise FormatError(f"unknown pixel format {fmt!r}")


def resample_fps(segment: VideoSegment, fps: float) -> VideoSegment:
    """Change the frame rate by nearest-frame sampling.

    Downsampling drops frames; upsampling duplicates them.  The segment's
    duration is preserved (up to one output frame of rounding).
    """
    if fps <= 0:
        raise ValueError(f"fps must be positive, got {fps}")
    if abs(fps - segment.fps) < 1e-9:
        return segment
    out_frames = max(1, int(round(segment.duration * fps)))
    # Sample at output-frame midpoints to avoid systematic drift.
    times = (np.arange(out_frames) + 0.5) / fps
    indices = np.clip(
        np.floor(times * segment.fps).astype(np.int64), 0, segment.num_frames - 1
    )
    return replace(segment, pixels=segment.pixels[indices], fps=fps)
