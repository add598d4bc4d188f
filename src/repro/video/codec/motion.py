"""Motion estimation and compensation for P-frames.

Two estimators are provided:

* ``global`` — one translation per frame, estimated by phase correlation on
  the downsampled luma.  Cheap; captures camera pan.
* ``tiled`` — independent translations for a 2x2 grid of tiles.  Roughly 4x
  the estimation work for better prediction of parallax and local motion.
  The ``hevc`` profile uses this, which is what makes it genuinely more
  expensive (and better-compressing) than ``h264``.

Motion vectors are integer pixel translations, applied by shifting with
edge replication (codecs clamp at picture borders the same way).
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sfft

#: Maximum magnitude of an estimated motion component, in pixels.
MAX_SHIFT = 32


def shift_window(
    plane: np.ndarray,
    dy: int,
    dx: int,
    y0: int,
    y1: int,
    x0: int,
    x1: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The window ``[y0:y1, x0:x1]`` of ``plane`` shifted by (dy, dx).

    ``out[y - y0, x - x0] = plane[clip(y - dy), clip(x - dx)]`` for every
    ``(y, x)`` in the window — i.e. exactly the window of
    :func:`shift_plane`'s output, computed **without** materialising the
    full shifted plane.  Border pixels are pulled in from outside the
    window where the source lands inside the plane, and edge-replicated
    where it does not, so tiled motion compensation behaves like a real
    codec's clamped prediction.

    The window splits into at most 3x3 bands: the core (a pure slice
    copy from the plane), plus clipped bands that broadcast the plane's
    edge row/column/corner.  Every output pixel is written exactly once.

    ``plane`` may carry leading batch dimensions before the trailing
    ``(H, W)`` pair — same-shape planes sharing one vector (e.g. a GOP's
    RGB channels) then shift in a single banded pass instead of one pass
    per plane.

    ``out`` (optional, not overlapping ``plane``) receives the window in
    place of a new array.
    """
    h, w = plane.shape[-2:]
    if out is None:
        out = np.empty((*plane.shape[:-2], y1 - y0, x1 - x0), dtype=plane.dtype)
    # Output rows y (absolute) with an in-plane source row satisfy
    # 0 <= y - dy < h; [ya, yb) is that band clamped into the window.
    ya = min(max(y0, dy), y1)
    yb = max(min(y1, h + dy), ya)
    xa = min(max(x0, dx), x1)
    xb = max(min(x1, w + dx), xa)
    # (out start, out stop, plane start, plane stop) per axis band; the
    # clipped bands source a single edge line and broadcast over the
    # band (corners broadcast a single pixel both ways).
    row_bands = (
        (0, ya - y0, 0, 1),
        (ya - y0, yb - y0, ya - dy, yb - dy),
        (yb - y0, y1 - y0, h - 1, h),
    )
    col_bands = (
        (0, xa - x0, 0, 1),
        (xa - x0, xb - x0, xa - dx, xb - dx),
        (xb - x0, x1 - x0, w - 1, w),
    )
    for r0, r1, sr0, sr1 in row_bands:
        if r0 >= r1:
            continue
        for c0, c1, sc0, sc1 in col_bands:
            if c0 >= c1:
                continue
            out[..., r0:r1, c0:c1] = plane[..., sr0:sr1, sc0:sc1]
    return out


def shift_plane(
    plane: np.ndarray, dy: int, dx: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Translate planes ``(..., H, W)`` by (dy, dx), replicating edges.

    ``out[y, x] = plane[clip(y - dy), clip(x - dx)]``, realised as one
    sliced block copy plus edge replication (see :func:`shift_window`).
    This runs once per plane per P-frame on both the encode and decode
    paths; the former ``plane[src_y][:, src_x]`` double fancy-index
    materialised two full copies per call, where the banded slice form
    copies each pixel once.  ``out`` is as for :func:`shift_window`;
    a zero shift returns ``plane`` itself and leaves it untouched.
    """
    if dy == 0 and dx == 0:
        return plane
    h, w = plane.shape[-2:]
    return shift_window(plane, dy, dx, 0, h, 0, w, out)


def _sad(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).sum())


def _refine(
    reference: np.ndarray, target: np.ndarray, candidate: tuple[int, int]
) -> tuple[int, int]:
    """Mode decision: keep a candidate vector only if it actually predicts
    better than the zero vector (what real encoders do when the correlation
    peak is spurious, e.g. locked onto a moving object)."""
    if candidate == (0, 0):
        return candidate
    zero_cost = _sad(reference, target)
    moved_cost = _sad(shift_plane(reference, *candidate), target)
    return candidate if moved_cost < zero_cost else (0, 0)


def correlate_stack(
    references: np.ndarray, targets: np.ndarray
) -> list[tuple[int, int]]:
    """Phase correlation for every pair of a stack ``(N, h, w)``: the
    ``(dy, dx)`` translation taking each reference to its target, from
    the cross-power-spectrum peak, clamped to +/-:data:`MAX_SHIFT`.

    One batched ``scipy.fft`` round (the library ``dct.py`` uses) serves
    all ``N`` pairs, and the spectrum is normalised in place in the
    forward transform's output: the only arrays of the call are the two
    spectra, the inverse's output and a mask.

    The vectors equal the single-pair oracle's in
    ``tests/kernel_oracles.py`` (fuzz-tested against it, and against the
    former ``numpy.fft`` version on rendered frames, in
    ``tests/test_codec.py``), but the correlation surfaces need not be
    bit-identical to single-pair ones.  The batched transforms are, slice
    for slice; numpy's complex multiply is not: it can round an element
    differently inside a batch than alone.  On rendered 192x108 frames
    almost every tiled slice differs from its single-pair surface in the
    last bits (by up to 3e-8 against a peak near 1), with ``numpy.fft``
    exactly as with ``scipy.fft``, and no peak has moved.
    """
    h, w = references.shape[-2:]
    conj_ref = sfft.rfft2(references)
    cross = sfft.rfft2(targets)
    np.conjugate(conj_ref, out=conj_ref)
    cross *= conj_ref
    # |cross| into the real half of the spent reference spectrum; the
    # divide promotes it back to complex the way ``cross / denom`` does.
    denom = conj_ref.real
    np.abs(cross, out=denom)
    denom[denom == 0.0] = 1.0
    np.divide(cross, denom, out=cross)
    correlation = sfft.irfft2(cross, s=(h, w), overwrite_x=True)
    peaks = correlation.reshape(len(references), -1).argmax(axis=1)
    vectors = []
    for peak in peaks.tolist():
        dy, dx = divmod(peak, w)
        if dy > h // 2:
            dy -= h
        if dx > w // 2:
            dx -= w
        dy = max(-MAX_SHIFT, min(MAX_SHIFT, dy))
        dx = max(-MAX_SHIFT, min(MAX_SHIFT, dx))
        vectors.append((dy, dx))
    return vectors


def estimate_stack(
    mode: str, references: np.ndarray, targets: np.ndarray
) -> list[list[tuple[int, int]]]:
    """Motion vectors for ``N`` independent (reference, target) luma
    pairs, stacked ``(N, H, W)``: per pair none (``none``), one
    (``global``) or four in row-major 2x2 tile order (``tiled``).

    The pairs are frame ``k`` of ``N`` different GOPs (the encoder steps
    a segment's GOPs in lockstep), or one pair for a lone frame; either
    way every correlation of the step — ``N`` downsampled lumas, or
    ``4N`` equal-shape tiles — runs through one :func:`correlate_stack`.
    The SAD mode decision (:func:`_refine`) stays per vector: its
    short-circuits depend on each candidate.
    """
    count = len(references)
    if mode == "none":
        return [[] for _ in range(count)]
    h, w = references.shape[-2:]
    if mode == "global":
        # Estimated on 2x-downsampled luma for speed, then scaled back
        # to full-pixel units; frames too small for that use full size.
        refs, tgts, scale = references[:, ::2, ::2], targets[:, ::2, ::2], 2
        if min(refs.shape[-2:]) < 8:
            refs, tgts, scale = references, targets, 1
        return [
            [_refine(references[i], targets[i], (dy * scale, dx * scale))]
            for i, (dy, dx) in enumerate(correlate_stack(refs, tgts))
        ]
    hy, hx = h // 2, w // 2
    if min(hy, hx) < 8:
        return [[(0, 0)] * 4 for _ in range(count)]

    def tiles(lumas: np.ndarray) -> np.ndarray:
        grid = lumas[:, : 2 * hy, : 2 * hx].reshape(count, 2, hy, 2, hx)
        return grid.transpose(0, 1, 3, 2, 4).reshape(count * 4, hy, hx)

    refs, tgts = tiles(references), tiles(targets)
    peaks = correlate_stack(refs, tgts)
    return [
        [
            _refine(refs[i], tgts[i], peaks[i])
            for i in range(pair * 4, pair * 4 + 4)
        ]
        for pair in range(count)
    ]


def compensate_global(
    plane: np.ndarray, vector: tuple[int, int], out: np.ndarray | None = None
) -> np.ndarray:
    """Apply a global motion vector to a prediction plane."""
    return shift_plane(plane, *vector, out)


def compensate_tiled(
    plane: np.ndarray,
    vectors: list[tuple[int, int]],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Apply per-tile motion vectors (2x2 grid) to prediction planes.

    Each tile is predicted from the *whole* plane shifted by its vector,
    so pixels can be pulled in from outside the tile (as real motion
    compensation does) — but only the tile's own region is ever
    computed.  The former implementation called :func:`shift_plane` per
    tile, materialising four full-plane copies per P-frame plane; this
    runs on both the encode and decode hot paths, so the four tiles are
    now filled in one pass at one plane's worth of writes total.

    Like :func:`shift_window`, ``plane`` may carry leading batch
    dimensions; the tile grid applies to the trailing ``(H, W)`` pair.
    Each tile is shifted straight into its window of ``out`` (as for
    :func:`shift_window`; a new array when not given).
    """
    if all(v == (0, 0) for v in vectors):
        return plane
    h, w = plane.shape[-2:]
    hy, hx = h // 2, w // 2
    if out is None:
        out = np.empty_like(plane)
    if len(vectors) < 4:
        # Fewer than four vectors leaves the uncovered tiles unshifted,
        # exactly as the old shift-then-overwrite implementation did.
        out[...] = plane
    bounds = (
        (0, hy, 0, hx),
        (0, hy, hx, w),
        (hy, h, 0, hx),
        (hy, h, hx, w),
    )
    for (y0, y1, x0, x1), (dy, dx) in zip(bounds, vectors):
        shift_window(plane, dy, dx, y0, y1, x0, x1, out[..., y0:y1, x0:x1])
    return out


def compensate(
    prior: np.ndarray,
    vectors: list[tuple[int, int]],
    luma_shape: tuple[int, int],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Motion-compensate prediction planes from their reference.

    Dispatches on the vector count the way the frame header implies: no
    vectors is frame differencing (``none`` motion), one vector is a
    global translation, four is the 2x2 tiled grid.  Vectors are stored
    at luma resolution and scaled to the planes' own geometry here.

    ``prior`` may be one ``(H, W)`` plane or a stack ``(..., H, W)`` of
    same-shape planes (which share the same scaled vectors, so one banded
    pass predicts all of them).  When every scaled vector is zero the
    reference is returned as-is — callers only read predictions, and
    skipping the copy keeps the all-static case (common in practice)
    nearly free.  Otherwise the prediction is written into ``out`` when
    given (a buffer of ``prior``'s shape that does not overlap it), so a
    caller stepping a chain of frames reuses one buffer.
    """
    if not vectors or all(v == (0, 0) for v in vectors):
        # Zero luma vectors scale to zero in every plane geometry, so the
        # check can run before the per-plane scaling.
        return prior
    shape = prior.shape[-2:]
    scaled = [scale_vector_for_plane(v, luma_shape, shape) for v in vectors]
    if len(scaled) == 1:
        return compensate_global(prior, scaled[0], out)
    return compensate_tiled(prior, scaled, out)


def scale_vector_for_plane(
    vector: tuple[int, int], luma_shape: tuple[int, int], plane_shape: tuple[int, int]
) -> tuple[int, int]:
    """Scale a luma-resolution motion vector to a subsampled chroma plane."""
    sy = plane_shape[0] / luma_shape[0]
    sx = plane_shape[1] / luma_shape[1]
    return int(round(vector[0] * sy)), int(round(vector[1] * sx))
