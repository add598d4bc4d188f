"""Reference kernels: the plain formulations production code ran before
it was made faster.

The pixel kernels are the whole-array statement of the arithmetic —
convert everything to float32, ``take`` both taps, ``mean`` over a
reshape, ``stack`` / ``concatenate`` the planes, copy every window through
fancy indexing — and the production kernels in ``video/resample.py``,
``video/frame.py`` and ``Reader._paste`` must reproduce their bytes
exactly (``test_kernels.py``).

:func:`encode_gop_scalar` and :func:`decode_gop_frames_scalar` are the
codec run one frame and one plane at a time; the lockstep encoder and the
batched decoder must equal their bytes and pixels.  :func:`dense_gop`
rewrites a GOP in the dense plane layout older stores hold (with
:func:`deflate_default`, the entropy stage's former default-strategy
deflate, for the oldest), which must still decode to the same pixels
(``test_codec.py``).

:class:`FullScanCacheManager` is the eviction scoring that walked every
GOP of every other physical per page, whose scores and evictions the
bisecting scorer must equal (``test_eviction_scores.py``), and
:func:`phase_correlate` the single-pair motion search whose vectors the
stacked ``motion.correlate_stack`` must equal, and
:func:`correlate_stack_numpy` the ``numpy.fft`` search it replaced, whose
vectors it must equal on rendered frames (``test_codec.py``).
:func:`warp_perspective` is the perspective warp that rebuilt its inverse,
sampling grid and valid mask on every call and sampled with scipy's
``map_coordinates``; a warp plan applied to a frame or a stack must equal
its bytes on the plan's columns (``test_kernels.py``).
:func:`ransac_homography` solves (:func:`estimate_homography`, the
per-set DLT) and scores (:func:`reprojection_errors`) one minimal sample
at a time; the batched RANSAC must return its H and mask bit for bit
(``test_kernels.py``).  :class:`PerFrameJointCompressor` is Algorithm 1
one frame at a time (warp, merge, :func:`recover_right_frame`, PSNR),
whose result the stacked ``JointCompressor.compress`` must equal field by
field (``test_jointcomp.py``).
:func:`plan_brute_force` prices every run of minimal covers of a read
plan's intervals, whose least cost the planner's pass must equal, and
:func:`plan_original` is the walk that planned ``mode="original"``
reads before they ran through that pass, whose choices and estimate the
pass must equal bit for bit (``test_planner.py``).
:func:`detect_vehicles_float` is vehicle detection with its colour mask
computed as float32 Euclidean distances (a ``sqrt`` per pixel and
palette colour); the integer mask and the detections must equal it
(``test_vision.py``).  :func:`histogram_bins_int64` is the colour
quantization that widened the whole image to int64; ``color_histogram``
and ``dominant_color`` must count the same bins (``test_vision.py``).
Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import replace

import numpy as np
from scipy import fft as sfft
from scipy import ndimage

from repro.core.cache import CacheManager
from repro.core.read_planner import (
    IntervalChoice,
    ReadPlan,
    _build_intervals,
    _filter_candidates,
    resolve_target,
)
from repro.errors import CodecError, HomographyError, QualityError
from repro.jointcomp.algorithm import (
    JointCompressor,
    JointResult,
    _match_resolution,
    _split_columns,
)
from repro.jointcomp.merge import MERGE_FUNCTIONS
from repro.util import StageTimers
from repro.video.codec import dct, entropy, motion, quant
from repro.video.codec.blockcodec import (
    _FRAME_HEADER,
    _PLANE_HEADER,
    _VECTOR,
    BlockCodec,
)
from repro.video.codec.container import EncodedGOP
from repro.video.frame import (
    _KB,
    _KG,
    _KR,
    VideoSegment,
    _unpool2,
    pixel_format,
    planes_to_frame,
)
from repro.video.metrics import mse, psnr
from repro.vision.detection import (
    COLOR_TOLERANCE,
    MIN_AREA,
    VEHICLE_PALETTE,
    Detection,
    classify_color,
)
from repro.vision.histogram import _as_uint8_rgb
from repro.vision.homography import apply_homography, homography_identity_distance


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


def rgb_to_yuv_channels(rgb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full-resolution float32 Y, U and V of an rgb stack."""
    r = rgb[..., 0].astype(np.float32)
    g = rgb[..., 1].astype(np.float32)
    b = rgb[..., 2].astype(np.float32)
    y = _KR * r + _KG * g + _KB * b
    u = 128.0 + 0.564 * (b - y)
    v = 128.0 + 0.713 * (r - y)
    return y, u, v


def from_rgb(rgb: np.ndarray, fmt: str, height: int, width: int) -> np.ndarray:
    if fmt == "rgb":
        return rgb
    y, u, v = rgb_to_yuv_channels(rgb)
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


def deflate_default(plane, level: int) -> bytes:
    """The entropy stage's former deflate: zlib's default strategy at the
    profile's level (6 for ``h264``, 9 for ``hevc``)."""
    return zlib.compress(plane, level)


# ----------------------------------------------------------------------
# the codec, one plane at a time
# ----------------------------------------------------------------------
def encode_levels(levels: np.ndarray, block: int) -> bytes:
    """Sparse payload of one plane's quantized levels ``(nby, nbx, B,
    B)``: the packed coded-block mask, then the zigzag-scanned rows of
    the coded blocks, as one buffer through :func:`entropy.deflate`."""
    flat = levels.reshape(-1, block * block)
    mask = (flat != 0).any(axis=1)
    scanned = flat[:, entropy.zigzag_order(block)].astype(np.int16)
    return entropy.deflate(np.packbits(mask).tobytes() + scanned[mask].tobytes())


def decode_levels(payload: bytes, nby: int, nbx: int, block: int) -> np.ndarray:
    """Inverse of :func:`encode_levels`."""
    raw = zlib.decompress(payload)
    head = (nby * nbx + 7) // 8
    mask = np.unpackbits(np.frombuffer(raw[:head], np.uint8))[: nby * nbx]
    scanned = np.zeros((nby * nbx, block * block), dtype=np.int16)
    rows = np.frombuffer(raw[head:], np.int16).reshape(-1, block * block)
    if rows.shape[0] != mask.sum():
        raise ValueError(
            f"payload holds {rows.shape[0]} blocks, its mask marks {mask.sum()}"
        )
    scanned[mask.astype(bool)] = rows
    flat = scanned[:, entropy.inverse_zigzag_order(block)]
    return flat.reshape(nby, nbx, block, block)


def _transform_plane(codec: BlockCodec, centered, qp: int, block: int):
    """Transform/quantize one plane; return (encoded bytes, recon)."""
    h, w = centered.shape
    coeffs = dct.forward_dct(centered, block)
    levels = quant.quantize(coeffs, qp, block, codec.profile.deadzone)
    payload = encode_levels(levels, block)
    nby, nbx = levels.shape[0], levels.shape[1]
    header = _PLANE_HEADER.pack(nby, nbx, h, w, len(payload))
    recon = dct.inverse_dct(quant.dequantize(levels, qp, block), h, w)
    return header + payload, recon


def _encode_intra_scalar(codec: BlockCodec, planes, qp: int, block: int):
    parts = [_FRAME_HEADER.pack(b"i", 0, len(planes))]
    reconstructed = []
    for plane in planes:
        encoded, recon = _transform_plane(codec, plane - 128.0, qp, block)
        parts.append(encoded)
        reconstructed.append(np.clip(recon + 128.0, 0, 255))
    return b"".join(parts), reconstructed


def _encode_predicted_scalar(
    codec: BlockCodec, planes, previous, qp: int, block: int
):
    vectors = motion.estimate_stack(
        codec.profile.motion, previous[0][None], planes[0][None]
    )[0]
    parts = [_FRAME_HEADER.pack(b"p", len(vectors), len(planes))]
    for dy, dx in vectors:
        parts.append(_VECTOR.pack(dy, dx))
    reconstructed = []
    luma_shape = previous[0].shape
    for plane, prior in zip(planes, previous):
        prediction = motion.compensate(prior, vectors, luma_shape)
        encoded, recon_residual = _transform_plane(
            codec, plane - prediction, qp, block
        )
        parts.append(encoded)
        reconstructed.append(np.clip(prediction + recon_residual, 0, 255))
    return b"".join(parts), reconstructed


def encode_gop_scalar(
    codec: BlockCodec, segment: VideoSegment, qp: int = quant.QP_DEFAULT
) -> EncodedGOP:
    """The per-plane encode loop: the bit-identity oracle for the
    lockstep ``encode_segment`` / ``encode_gop`` and the benchmark
    baseline."""
    if segment.num_frames == 0:
        raise CodecError("cannot encode an empty GOP")
    block = codec.profile.block_size
    payloads: list[bytes] = []
    frame_types: list[str] = []
    previous = None
    for index in range(segment.num_frames):
        planes = [p.astype(np.float32) for p in segment.planes(index)]
        if previous is None:
            payload, reconstructed = _encode_intra_scalar(codec, planes, qp, block)
            frame_types.append("I")
        else:
            payload, reconstructed = _encode_predicted_scalar(
                codec, planes, previous, qp, block
            )
            frame_types.append("P")
        payloads.append(payload)
        previous = reconstructed
    return EncodedGOP(
        codec=codec.name,
        pixel_format=segment.pixel_format,
        width=segment.width,
        height=segment.height,
        fps=segment.fps,
        qp=qp,
        start_time=segment.start_time,
        frame_types="".join(frame_types),
        payloads=payloads,
    )


def _decode_frame(codec: BlockCodec, payload: bytes, frame_type: str, previous, qp):
    block = codec.profile.block_size
    ftype, n_vectors, n_planes = _FRAME_HEADER.unpack_from(payload)
    if ftype != frame_type.lower().encode():
        raise CodecError(
            f"payload frame type {ftype!r} is not a sparse {frame_type} frame"
        )
    offset = _FRAME_HEADER.size
    vectors = []
    for _ in range(n_vectors):
        vectors.append(_VECTOR.unpack_from(payload, offset))
        offset += _VECTOR.size
    planes = []
    if frame_type == "P" and previous is None:
        raise CodecError("P frame encountered without a reference")
    luma_shape = previous[0].shape if previous is not None else None
    for plane_index in range(n_planes):
        nby, nbx, h, w, size = _PLANE_HEADER.unpack_from(payload, offset)
        offset += _PLANE_HEADER.size
        levels = decode_levels(payload[offset : offset + size], nby, nbx, block)
        offset += size
        recon = dct.inverse_dct(quant.dequantize(levels, qp, block), h, w)
        if frame_type == "I":
            planes.append(np.clip(recon + 128.0, 0, 255))
        else:
            prediction = motion.compensate(
                previous[plane_index], vectors, luma_shape
            )
            planes.append(np.clip(prediction + recon, 0, 255))
    return planes


def decode_gop_frames_scalar(
    codec: BlockCodec, gop: EncodedGOP, stop: int
) -> VideoSegment:
    """The per-frame decode loop over sparse payloads: the bit-identity
    oracle for ``decode_gop_frames`` and the throughput-benchmark
    baseline."""
    if gop.codec != codec.name:
        raise CodecError(f"GOP was encoded with {gop.codec!r}, not {codec.name!r}")
    if not 0 < stop <= gop.num_frames:
        raise CodecError(f"stop={stop} out of range (1..{gop.num_frames})")
    spec = pixel_format(gop.pixel_format)
    frames = np.empty(
        (stop, *spec.frame_shape(gop.height, gop.width)), dtype=np.uint8
    )
    previous = None
    for index in range(stop):
        previous = _decode_frame(
            codec, gop.payloads[index], gop.frame_types[index], previous, gop.qp
        )
        frames[index] = planes_to_frame(
            [np.clip(np.rint(p), 0, 255).astype(np.uint8) for p in previous],
            gop.pixel_format,
            gop.height,
            gop.width,
        )
    return VideoSegment(
        pixels=frames,
        pixel_format=gop.pixel_format,
        height=gop.height,
        width=gop.width,
        fps=gop.fps,
        start_time=gop.start_time,
    )


def dense_gop(gop: EncodedGOP, block: int, deflate=entropy.deflate) -> EncodedGOP:
    """``gop`` in the dense plane layout that stores written before the
    coded-block mask hold: uppercase type bytes, and every block's
    scanned row of each plane compressed by ``deflate`` (the run-length
    :func:`entropy.deflate` the layout last shipped with, or
    :func:`deflate_default` at a level for older stores).  Vectors and
    plane headers other than the payload size are unchanged."""
    payloads = []
    for payload in gop.payloads:
        ftype, n_vectors, n_planes = _FRAME_HEADER.unpack_from(payload)
        offset = _FRAME_HEADER.size + n_vectors * _VECTOR.size
        parts = [_FRAME_HEADER.pack(ftype.upper(), n_vectors, n_planes)]
        parts.append(payload[_FRAME_HEADER.size : offset])
        for _ in range(n_planes):
            nby, nbx, h, w, size = _PLANE_HEADER.unpack_from(payload, offset)
            offset += _PLANE_HEADER.size
            levels = decode_levels(payload[offset : offset + size], nby, nbx, block)
            offset += size
            scanned = levels.reshape(-1, block * block)[
                :, entropy.zigzag_order(block)
            ]
            dense = deflate(np.ascontiguousarray(scanned, dtype=np.int16))
            parts += [_PLANE_HEADER.pack(nby, nbx, h, w, len(dense)), dense]
        payloads.append(b"".join(parts))
    return replace(gop, payloads=payloads)


def phase_correlate(reference: np.ndarray, target: np.ndarray) -> tuple[int, int]:
    """Estimate the (dy, dx) translation taking ``reference`` to ``target``.

    Uses the standard cross-power-spectrum peak, on ``scipy.fft`` like
    the batched ``motion.correlate_stack``.  Returns integer shifts
    clamped to +/-``motion.MAX_SHIFT``.
    """
    if reference.shape != target.shape:
        raise ValueError(f"shape mismatch: {reference.shape} vs {target.shape}")
    f_ref = sfft.rfft2(reference)
    f_tgt = sfft.rfft2(target)
    cross = f_tgt * np.conj(f_ref)
    denom = np.abs(cross)
    denom[denom == 0.0] = 1.0
    correlation = sfft.irfft2(cross / denom, s=reference.shape)
    peak = np.unravel_index(np.argmax(correlation), correlation.shape)
    dy, dx = int(peak[0]), int(peak[1])
    h, w = reference.shape
    if dy > h // 2:
        dy -= h
    if dx > w // 2:
        dx -= w
    dy = int(np.clip(dy, -motion.MAX_SHIFT, motion.MAX_SHIFT))
    dx = int(np.clip(dx, -motion.MAX_SHIFT, motion.MAX_SHIFT))
    return dy, dx


def correlate_stack_numpy(
    references: np.ndarray, targets: np.ndarray
) -> list[tuple[int, int]]:
    """``motion.correlate_stack`` as it was on ``numpy.fft``, with a new
    array per step: the reference the ``scipy.fft`` version's vectors
    must equal on rendered content."""
    h, w = references.shape[-2:]
    f_ref = np.fft.rfft2(references)
    f_tgt = np.fft.rfft2(targets)
    cross = f_tgt * np.conj(f_ref)
    denom = np.abs(cross)
    denom[denom == 0.0] = 1.0
    correlation = np.fft.irfft2(cross / denom, s=(h, w))
    peaks = correlation.reshape(len(references), -1).argmax(axis=1)
    vectors = []
    for peak in peaks:
        dy, dx = int(peak // w), int(peak % w)
        if dy > h // 2:
            dy -= h
        if dx > w // 2:
            dx -= w
        dy = int(np.clip(dy, -motion.MAX_SHIFT, motion.MAX_SHIFT))
        dx = int(np.clip(dx, -motion.MAX_SHIFT, motion.MAX_SHIFT))
        vectors.append((dy, dx))
    return vectors


class FullScanCacheManager(CacheManager):
    """:class:`CacheManager` with the eviction scoring it had before
    covering alternatives were found by bisection: every page walks every
    GOP of every other physical, once for its redundancy rank and once more
    for its baseline offset.  ``enforce_budget`` is inherited, so its
    re-checks run the full scan too."""

    def scores(self, logical):
        physicals = {p.id: p for p in self.catalog.list_physicals(logical.id)}
        gops_by_physical = {
            pid: self.catalog.gops_of_physical(pid) for pid in physicals
        }
        result = {}
        for pid, gops in gops_by_physical.items():
            physical = physicals[pid]
            n = len(gops)
            for i, gop in enumerate(gops):
                base = float(gop.last_access)
                if self.policy == "lru":
                    result[gop.id] = base + self._full_scan_baseline(
                        physical, gop, physicals, gops_by_physical
                    )
                    continue
                position = float(min(i, n - i))
                redundancy = float(
                    sum(
                        1
                        for other in self._covering_alternatives(
                            physical, gop, physicals, gops_by_physical
                        )
                        if other.mse_estimate < physical.mse_estimate
                    )
                )
                baseline = self._full_scan_baseline(
                    physical, gop, physicals, gops_by_physical
                )
                result[gop.id] = (
                    base
                    + self.gamma * position
                    - self.zeta * redundancy
                    + baseline
                )
        return result

    def _full_scan_baseline(self, physical, gop, physicals, gops_by_physical):
        if physical.is_original:
            return float("inf")
        if not self.quality_model.meets_tau(physical):
            return 0.0
        for other in self._covering_alternatives(
            physical, gop, physicals, gops_by_physical
        ):
            if self.quality_model.meets_tau(other):
                return 0.0
        return float("inf")

    def _covering_alternatives(self, physical, gop, physicals, gops_by_physical):
        alternatives = []
        for pid, other in physicals.items():
            if pid == physical.id:
                continue
            if not self._roi_covers(other, physical):
                continue
            covered = 0.0
            for other_gop in gops_by_physical[pid]:
                lo = max(other_gop.start_time, gop.start_time)
                hi = min(other_gop.end_time, gop.end_time)
                covered += max(0.0, hi - lo)
            if covered >= gop.duration - 1e-6:
                alternatives.append(other)
        return alternatives


def warp_perspective(
    image: np.ndarray,
    h: np.ndarray,
    output_shape: tuple[int, int],
    fill: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Warp ``image`` into the destination space of ``h``, inverse-mapped
    with bilinear sampling: returns ``(warped, valid)``."""
    h = np.asarray(h, dtype=np.float64)
    try:
        h_inv = np.linalg.inv(h)
    except np.linalg.LinAlgError as exc:
        raise HomographyError(f"homography not invertible: {exc}") from exc
    out_h, out_w = output_shape
    ys, xs = np.mgrid[0:out_h, 0:out_w]
    coords = np.stack([xs.ravel(), ys.ravel(), np.ones(out_h * out_w)])
    mapped = h_inv @ coords
    w = mapped[2]
    w = np.where(np.abs(w) < 1e-12, 1e-12, w)
    src_x = (mapped[0] / w).reshape(out_h, out_w)
    src_y = (mapped[1] / w).reshape(out_h, out_w)
    in_h, in_w = image.shape[:2]
    valid = (
        (src_x >= 0) & (src_x <= in_w - 1) & (src_y >= 0) & (src_y <= in_h - 1)
    )
    sample = np.stack([src_y, src_x])
    if image.ndim == 2:
        warped = ndimage.map_coordinates(
            image.astype(np.float32), sample, order=1, mode="constant", cval=fill
        )
        warped = np.where(valid, warped, fill)
        return warped.astype(image.dtype), valid
    channels = []
    for c in range(image.shape[2]):
        warped = ndimage.map_coordinates(
            image[..., c].astype(np.float32),
            sample,
            order=1,
            mode="constant",
            cval=fill,
        )
        channels.append(np.where(valid, warped, fill))
    warped = np.stack(channels, axis=-1)
    if np.issubdtype(image.dtype, np.integer):
        warped = np.clip(np.rint(warped), 0, 255)
    return warped.astype(image.dtype), valid


def _normalization(points: np.ndarray) -> np.ndarray:
    """Hartley normalization transform for DLT conditioning."""
    centroid = points.mean(axis=0)
    spread = np.sqrt(((points - centroid) ** 2).sum(axis=1)).mean()
    scale = np.sqrt(2.0) / max(spread, 1e-12)
    return np.array(
        [
            [scale, 0.0, -scale * centroid[0]],
            [0.0, scale, -scale * centroid[1]],
            [0.0, 0.0, 1.0],
        ]
    )


def estimate_homography(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The normalized DLT of one point set, on 2-D arrays; scaled so
    ``H[2, 2] == 1``."""
    src = np.asarray(src, dtype=np.float64).reshape(-1, 2)
    dst = np.asarray(dst, dtype=np.float64).reshape(-1, 2)
    if src.shape[0] < 4 or src.shape != dst.shape:
        raise HomographyError(
            f"need >= 4 matched points, got {src.shape[0]} and {dst.shape[0]}"
        )
    t_src = _normalization(src)
    t_dst = _normalization(dst)
    ones = np.ones((src.shape[0], 1))
    src_n = (t_src @ np.hstack([src, ones]).T).T
    dst_n = (t_dst @ np.hstack([dst, ones]).T).T
    x, y = src_n[:, 0], src_n[:, 1]
    u, v = dst_n[:, 0], dst_n[:, 1]
    zero = np.zeros_like(x)
    one = np.ones_like(x)
    rows_a = np.stack([x, y, one, zero, zero, zero, -u * x, -u * y, -u], axis=1)
    rows_b = np.stack([zero, zero, zero, x, y, one, -v * x, -v * y, -v], axis=1)
    system = np.concatenate([rows_a, rows_b], axis=0)
    _, _, vh = np.linalg.svd(system)
    h = np.linalg.inv(t_dst) @ vh[-1].reshape(3, 3) @ t_src
    if abs(h[2, 2]) < 1e-12:
        raise HomographyError("degenerate homography (h33 ~ 0)")
    return h / h[2, 2]


def reprojection_errors(h: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Euclidean error of mapping each ``src`` point by one ``h``."""
    mapped = apply_homography(h, src)
    return np.sqrt(((mapped - np.asarray(dst, dtype=np.float64)) ** 2).sum(axis=1))


def ransac_homography(
    src: np.ndarray,
    dst: np.ndarray,
    iterations: int = 300,
    inlier_threshold: float = 2.0,
    min_inliers: int = 8,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """RANSAC that solves (:func:`estimate_homography`) and scores one
    minimal sample at a time: the first model with the most inliers wins,
    an all-inlier model ends the loop, and a sample whose solve raises is
    skipped."""
    src = np.asarray(src, dtype=np.float64).reshape(-1, 2)
    dst = np.asarray(dst, dtype=np.float64).reshape(-1, 2)
    n = src.shape[0]
    if n < 4:
        raise HomographyError(f"need >= 4 correspondences, got {n}")
    rng = np.random.default_rng(seed)
    best_mask: np.ndarray | None = None
    best_count = 0
    for _ in range(iterations):
        sample = rng.choice(n, size=4, replace=False)
        try:
            candidate = estimate_homography(src[sample], dst[sample])
        except (HomographyError, np.linalg.LinAlgError):
            continue
        mask = reprojection_errors(candidate, src, dst) <= inlier_threshold
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
            if count == n:
                break
    if best_mask is None or best_count < max(min_inliers, 4):
        raise HomographyError(
            f"RANSAC found only {best_count} inliers (need {min_inliers})"
        )
    refined = estimate_homography(src[best_mask], dst[best_mask])
    final_mask = reprojection_errors(refined, src, dst) <= inlier_threshold
    if final_mask.sum() >= 4:
        refined = estimate_homography(src[final_mask], dst[final_mask])
    else:
        final_mask = best_mask
    return refined, final_mask


def recover_right_frame(overlap, right, h_matrix, x_f, x_g):
    """One right (G) frame from its pieces: the overlap on an F-sized
    canvas warped back by H^-1, G's own columns ``[x_g, w)``, and each
    pixel outside the projection copied from two columns on."""
    height, width = right.shape[0], overlap.shape[1] + x_f
    canvas = np.zeros((height, width, 3), dtype=np.uint8)
    canvas[:, x_f:] = overlap
    warped, valid = warp_perspective(canvas, np.linalg.inv(h_matrix), (height, width))
    result = np.empty((height, width, 3), dtype=np.uint8)
    result[:, :x_g] = warped[:, :x_g]
    result[:, x_g:] = right
    ys, xs = np.nonzero(~valid[:, :x_g])
    result[ys, xs] = result[ys, np.clip(xs + 2, 0, width - 1)]
    return result


class PerFrameJointCompressor(JointCompressor):
    """Algorithm 1 one frame at a time: warp (:func:`warp_perspective`),
    merge, recover and PSNR-check frame ``i``; on a failing frame
    re-estimate once and retry it, and abort if it fails again.  The
    stacked ``JointCompressor.compress`` must return the same result."""

    def compress(self, frames_f, frames_g, _swapped=False):
        timers = StageTimers()
        frames_f, frames_g = _match_resolution(frames_f, frames_g)
        if frames_f.shape != frames_g.shape:
            return None
        h_matrix = self.estimate_homography(frames_f[0], frames_g[0], timers)
        if h_matrix is None:
            return None
        if homography_identity_distance(h_matrix) <= self.duplicate_epsilon:
            return self._duplicate_result(frames_f, frames_g, h_matrix, timers)
        if h_matrix[0, 2] < 0 and not _swapped:
            result = self.compress(frames_g, frames_f, _swapped=True)
            if result is not None:
                result.swapped = not result.swapped
            return result
        if h_matrix[0, 2] < 0:
            return None
        n, height, width = frames_f.shape[:3]
        x_f, x_g = _split_columns(h_matrix, width, height)
        if x_f is None:
            return None
        merge_fn = MERGE_FUNCTIONS[self.merge]
        left = np.empty((n, height, x_f, 3), dtype=np.uint8)
        overlap = np.empty((n, height, width - x_f, 3), dtype=np.uint8)
        right = np.empty((n, height, width - x_g, 3), dtype=np.uint8)
        quality_left: list[float] = []
        quality_right: list[float] = []
        reestimations = 0
        retried_this_frame = 0
        i = 0
        while i < n:
            frame_f, frame_g = frames_f[i], frames_g[i]
            if (
                self.reestimate_every
                and i > 0
                and i % self.reestimate_every == 0
                and retried_this_frame == 0
            ):
                fresh = self.estimate_homography(frame_f, frame_g, timers)
                if fresh is not None and fresh[0, 2] >= 0:
                    h_matrix = fresh
                    reestimations += 1
            warped, valid = warp_perspective(frame_g, h_matrix, (height, width))
            left[i] = frame_f[:, :x_f]
            overlap[i] = merge_fn(frame_f[:, x_f:], warped[:, x_f:], valid[:, x_f:])
            right[i] = frame_g[:, x_g:]
            q_left = psnr(frame_f, np.concatenate([left[i], overlap[i]], axis=1))
            recovered = recover_right_frame(overlap[i], right[i], h_matrix, x_f, x_g)
            q_right = psnr(frame_g, recovered)
            if min(q_left, q_right) < self.verify_db:
                if retried_this_frame == 0:
                    fresh = self.estimate_homography(frame_f, frame_g, timers)
                    retried_this_frame = 1
                    if fresh is not None and fresh[0, 2] >= 0:
                        h_matrix = fresh
                        reestimations += 1
                        continue
                return None
            quality_left.append(q_left)
            quality_right.append(q_right)
            retried_this_frame = 0
            i += 1
        return JointResult(
            homography=h_matrix,
            x_f=x_f,
            x_g=x_g,
            merge=self.merge,
            left_frames=left,
            overlap_frames=overlap,
            right_frames=right,
            quality_left_db=float(np.mean(quality_left)),
            quality_right_db=float(np.mean(quality_right)),
            reestimations=reestimations,
            timers=timers,
        )


def minimal_covers(fragments: list, cells: list[set]) -> list[tuple]:
    """Every subset of ``fragments`` that covers each cell and from which
    no member can be dropped, by enumerating all subsets."""
    covers = []
    for size in range(1, len(fragments) + 1):
        for subset in itertools.combinations(fragments, size):
            chosen = set(subset)
            if not all(cell & chosen for cell in cells):
                continue
            if any(all(cell & (chosen - {f}) for cell in cells) for f in chosen):
                continue
            covers.append(subset)
    return covers


def plan_brute_force(intervals: list[dict]) -> list[tuple[float, tuple]]:
    """Every run of one minimal cover per interval with its cost, least
    first.

    An interval is ``{"fragments", "cells", "cost", "lookback"}``: its
    fragment keys, each cell as the set of keys covering it, and each
    key's transcode and look-back cost there.  A run pays each chosen
    fragment's transcode cost, plus its look-back unless the same key
    was chosen in the interval before.
    """
    options = [
        minimal_covers(interval["fragments"], interval["cells"])
        for interval in intervals
    ]
    runs = []
    for run in itertools.product(*options):
        total, before = 0.0, set()
        for interval, cover in zip(intervals, run):
            for key in cover:
                total += interval["cost"][key]
                if key not in before:
                    total += interval["lookback"][key]
            before = set(cover)
        runs.append((total, run))
    runs.sort(key=lambda entry: entry[0])
    return runs


def plan_original(request, fragments, original, cost_model, quality_model):
    """A ``mode="original"`` plan as one walk over the intervals: the
    first original fragment covering each, charged its look-back unless
    it also read the interval before."""
    target, target_fps, roi = resolve_target(request, original)
    candidates = _filter_candidates(
        request, fragments, original, quality_model, roi, "original"
    )
    if not candidates:
        raise QualityError("no original fragment meets the cutoff")
    choices = []
    total = 0.0
    previous = None
    for interval in _build_intervals(request, candidates, roi):
        originals = [f for f in interval.fragments if f.physical.is_original]
        if not originals:
            raise QualityError(
                f"original video does not cover "
                f"[{interval.start}, {interval.end})"
            )
        fragment = originals[0]
        total += cost_model.transcode_cost(
            fragment, interval.end - interval.start, target, target_fps
        )
        charged = previous is not fragment
        if charged:
            total += cost_model.lookback_cost(fragment, interval.start)
        choices.append(
            IntervalChoice(interval.start, interval.end, fragment, [roi], charged)
        )
        previous = fragment
    return ReadPlan(
        request=request,
        target=target,
        target_fps=target_fps,
        roi=roi,
        choices=choices,
        estimated_cost=total,
        mode="original",
    )


def float_paint_mask(frame: np.ndarray) -> np.ndarray:
    """The paint mask as float32 distances: ``sqrt`` of the summed squared
    channel differences, at most the tolerance."""
    pixels = frame.astype(np.float32)
    mask = np.zeros(frame.shape[:2], dtype=bool)
    for reference in VEHICLE_PALETTE.values():
        ref = np.asarray(reference, dtype=np.float32)
        distance = np.sqrt(((pixels - ref) ** 2).sum(axis=-1))
        mask |= distance <= float(COLOR_TOLERANCE)
    return mask


def detect_vehicles_float(frame: np.ndarray) -> list[Detection]:
    """``detect_vehicles`` over :func:`float_paint_mask`."""
    labels, count = ndimage.label(float_paint_mask(frame))
    detections = []
    for index, slc in enumerate(ndimage.find_objects(labels), start=1):
        if slc is None:
            continue
        area = int((labels[slc] == index).sum())
        if area < MIN_AREA:
            continue
        y0, y1 = slc[0].start, slc[0].stop
        x0, x1 = slc[1].start, slc[1].stop
        color = classify_color(frame[y0:y1, x0:x1])
        detections.append(Detection(x0, y0, x1, y1, color, area))
    detections.sort(key=lambda d: -d.area)
    return detections


def histogram_bins_int64(image: np.ndarray, bins: int) -> np.ndarray:
    """Per-bin pixel counts of an image's joint RGB histogram, with the
    quantization computed on the image widened to int64."""
    quantized = (_as_uint8_rgb(image).astype(np.int64) * bins) // 256
    flat = (
        quantized[..., 0] * bins * bins + quantized[..., 1] * bins + quantized[..., 2]
    ).ravel()
    return np.bincount(flat, minlength=bins**3)
