"""Spatial and temporal resampling: resize, ROI crop, frame-rate change.

These implement the spatial (``S``) and temporal (``T``) transformations a
VSS read may request.  All operations are pure functions over
:class:`~repro.video.frame.VideoSegment` values.

Resizing uses separable bilinear interpolation vectorized across blocks of
frames; chroma-subsampled formats are resized through RGB to avoid
compounding subsampling artifacts.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.errors import FormatError
from repro.video.frame import (
    VideoSegment,
    _from_rgb,
    _to_rgb,
    frame_blocks,
    pixel_format,
)


def _bilinear_axis(pixels: np.ndarray, new_size: int, axis: int) -> np.ndarray:
    """Bilinear resample along one spatial axis of an (N, H, W, C) stack."""
    old_size = pixels.shape[axis]
    if new_size == old_size:
        return pixels
    # Align pixel centers: coordinate of output i in input space.
    coords = (np.arange(new_size) + 0.5) * (old_size / new_size) - 0.5
    coords = np.clip(coords, 0, old_size - 1)
    lo = np.floor(coords).astype(np.int64)
    hi = np.minimum(lo + 1, old_size - 1)
    frac = (coords - lo).astype(np.float32)
    shape = [1] * pixels.ndim
    shape[axis] = new_size
    frac = frac.reshape(shape)
    take_lo = np.take(pixels, lo, axis=axis).astype(np.float32)
    take_hi = np.take(pixels, hi, axis=axis).astype(np.float32)
    return take_lo * (1.0 - frac) + take_hi * frac


def resize_segment(segment: VideoSegment, width: int, height: int) -> VideoSegment:
    """Resize a segment to ``width`` x ``height`` with bilinear filtering."""
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
    # whole window, without its window-sized float32 temporaries.
    blocks = frame_blocks(
        segment.num_frames, segment.height, segment.width, channels=3
    )
    for lo, hi in blocks:
        rgb = _to_rgb(segment.slice_frames(lo, hi)).astype(np.float32)
        rgb = _bilinear_axis(rgb, height, axis=1)
        rgb = _bilinear_axis(rgb, width, axis=2)
        rgb = np.clip(np.rint(rgb), 0, 255).astype(np.uint8)
        pixels[lo:hi] = _from_rgb(rgb, fmt, height, width)
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
