"""Reference pixel kernels: the whole-array formulations the read path ran
before its kernels became gather-first.

Each is the plain statement of the arithmetic — convert everything to
float32, ``take`` both taps, ``mean`` over a reshape, ``stack`` /
``concatenate`` the planes, copy every window through fancy indexing — and
the production kernels in ``video/resample.py``, ``video/frame.py`` and
``Reader._paste`` must reproduce their bytes exactly (``test_kernels.py``).
Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.video.frame import VideoSegment, _rgb_to_yuv_channels, _unpool2
from repro.video.metrics import mse


def bilinear_axis(pixels: np.ndarray, new_size: int, axis: int) -> np.ndarray:
    """Bilinear resample along one spatial axis of a float (N, H, W, C) stack."""
    old_size = pixels.shape[axis]
    if new_size == old_size:
        return pixels
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


def pool2(plane: np.ndarray, pool_h: int, pool_w: int) -> np.ndarray:
    """Mean-pool a stack of planes ``(N, H, W)`` by the given factors."""
    n, h, w = plane.shape
    pooled = plane.reshape(n, h // pool_h, pool_h, w // pool_w, pool_w)
    return pooled.mean(axis=(2, 4))


def yuv_to_rgb(y: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    y = y.astype(np.float32)
    du = u.astype(np.float32) - 128.0
    dv = v.astype(np.float32) - 128.0
    r = y + 1.403 * dv
    g = y - 0.344 * du - 0.714 * dv
    b = y + 1.773 * du
    rgb = np.stack([r, g, b], axis=-1)
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8)


def to_rgb(segment: VideoSegment) -> np.ndarray:
    """Segment pixels as an ``(N, H, W, 3)`` uint8 array."""
    fmt, h, w = segment.pixel_format, segment.height, segment.width
    px = segment.pixels
    if fmt == "rgb":
        return px
    if fmt == "gray":
        return np.repeat(px[..., None], 3, axis=-1)
    sub_h = 2 if fmt == "yuv420" else 1
    y = px[:, :h].astype(np.float32)
    chroma = px[:, h:].reshape(px.shape[0], 2, h // sub_h, w // 2)
    u = _unpool2(chroma[:, 0].astype(np.float32), sub_h, 2)
    v = _unpool2(chroma[:, 1].astype(np.float32), sub_h, 2)
    return yuv_to_rgb(y, u, v)


def from_rgb(rgb: np.ndarray, fmt: str, height: int, width: int) -> np.ndarray:
    if fmt == "rgb":
        return rgb
    y, u, v = _rgb_to_yuv_channels(rgb)
    y8 = np.clip(np.rint(y), 0, 255).astype(np.uint8)
    if fmt == "gray":
        return y8
    pool_h = 2 if fmt == "yuv420" else 1
    n = rgb.shape[0]
    u8 = np.clip(np.rint(pool2(u, pool_h, 2)), 0, 255).astype(np.uint8)
    v8 = np.clip(np.rint(pool2(v, pool_h, 2)), 0, 255).astype(np.uint8)
    chroma = np.concatenate(
        [u8.reshape(n, -1), v8.reshape(n, -1)], axis=1
    ).reshape(n, -1, width)
    return np.concatenate([y8, chroma], axis=1)


def resize_segment(segment: VideoSegment, width: int, height: int) -> VideoSegment:
    """Whole-segment bilinear resize: every source pixel becomes float32
    before either axis is gathered."""
    if (width, height) == segment.resolution:
        return segment
    rgb = to_rgb(segment).astype(np.float32)
    rgb = bilinear_axis(rgb, height, axis=1)
    rgb = bilinear_axis(rgb, width, axis=2)
    rgb = np.clip(np.rint(rgb), 0, 255).astype(np.uint8)
    pixels = from_rgb(rgb, segment.pixel_format, height, width)
    return replace(segment, pixels=pixels, height=height, width=width)


def cell_rects(cell, frag_roi, frag_size, roi, canvas_size):
    """``(source rect, canvas rect)`` of one plan cell, as ``_paste``
    rounded them inline.  Either may come out empty (``x0 == x1`` or
    ``y0 == y1``) for a sliver on the far edge; ``paste`` raises on those."""
    rects = []
    for region, (width, height) in ((frag_roi, frag_size), (roi, canvas_size)):
        scale_x = width / (region[2] - region[0])
        scale_y = height / (region[3] - region[1])
        x0 = int(round((cell[0] - region[0]) * scale_x))
        y0 = int(round((cell[1] - region[1]) * scale_y))
        x1 = int(round((cell[2] - region[0]) * scale_x))
        y1 = int(round((cell[3] - region[1]) * scale_y))
        x1 = min(max(x1, x0 + 1), width)
        y1 = min(max(y1, y0 + 1), height)
        rects.append((x0, y0, x1, y1))
    return tuple(rects)


def paste(canvas, out_indices, source, src_indices, choice, plan, stats) -> None:
    """Double-copy paste: every cell gathers its frames through fancy
    indexing, crops, makes the crop contiguous, resizes it if the scales
    differ and scatters the result through fancy indexing again."""
    physical = choice.fragment.physical
    frag_roi = physical.roi
    if frag_roi is None:
        frag_roi = (0, 0, *plan.original_resolution)
    for cell in choice.cells:
        (fx0, fy0, fx1, fy1), (ox0, oy0, ox1, oy1) = cell_rects(
            cell,
            frag_roi,
            (physical.width, physical.height),
            plan.roi,
            (canvas.shape[2], canvas.shape[1]),
        )
        used = source.pixels[src_indices][:, fy0:fy1, fx0:fx1]
        piece = VideoSegment(
            pixels=np.ascontiguousarray(used),
            pixel_format=source.pixel_format,
            height=fy1 - fy0,
            width=fx1 - fx0,
            fps=plan.target_fps,
            start_time=choice.start,
        )
        if (piece.width, piece.height) != (ox1 - ox0, oy1 - oy0):
            resized = resize_segment(piece, ox1 - ox0, oy1 - oy0)
            if stats.resample_mse == 0.0:
                restored = resize_segment(
                    resized.slice_frames(0, 1), piece.width, piece.height
                )
                stats.resample_mse = mse(piece.frame(0), restored.frame(0))
        else:
            resized = piece
        canvas[out_indices, oy0:oy1, ox0:ox1] = resized.pixels
