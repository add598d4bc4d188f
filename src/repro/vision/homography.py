"""Homography estimation (normalized DLT + RANSAC) and perspective warps.

Coordinate convention
---------------------
Points are ``(x, y)`` with ``x`` the column index.  A homography ``H`` maps
*source* coordinates to *destination* coordinates:

    dest_homogeneous = H @ [x_src, y_src, 1]^T

``warp_perspective(image, H, shape)`` produces an output image in the
destination space: output pixel ``p`` samples ``image`` at ``H^-1 p``
(inverse mapping with bilinear interpolation).

Where each output pixel samples depends only on ``H`` and the shapes, so
it is computed once per homography: :func:`warp_plan` builds a
:class:`WarpPlan`, cut to the output columns the caller keeps, and
:meth:`WarpPlan.apply` warps one frame or a whole ``(n, h, w[, 3])``
stack with it.  ``warp_perspective`` is a plan built and applied once;
there is no other warp.  A plan keeps only whole columns of the
whole-frame grid, so its pixels equal those columns of the whole-frame
warp bit for bit.

A plan holds, per kept output pixel, the flat index of the top-left
source pixel of its bilinear square and the fractions ``ty`` and ``tx``
into that square, plus the valid mask.  ``apply`` is four gathers per
pixel and a float64 sum, done in frame blocks whose float64 scratch
stays near half a megabyte.  It equals scipy.ndimage's linear coordinate
mapping (spline order 1, constant mode) of the input cast to float32,
bit for bit, because it does that routine's arithmetic in its order:
scipy's spline loop starts a float64 total at 0 and adds the four
corners row-major; each term is the corner value times its row weight,
then times its column weight; the weights are ``1 - t`` and ``t`` with
``t = coordinate - floor(coordinate)``; and the total is cast to
float32.  A sample exactly on the last row or column uses the square
before it, at fraction 1.  Its terms are then the same products in the
same order, with exact zeros added at other places, so the sum does not
change.  The per-frame scipy warp survives as the test oracle
(``tests/kernel_oracles.py``).

In VSS's joint compression, ``H`` maps right-frame coordinates into the
left frame's space, so ``warp_perspective(right, H, left.shape)`` overlays
the right frame onto the left (paper Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import HomographyError


def _dlt(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The normalized direct linear transform of ``m`` point sets at once.

    ``src`` and ``dst`` are ``(m, p, 2)``.  Each set is Hartley-normalized,
    its ``2p x 9`` system solved by SVD and the result denormalized; numpy
    runs its batched matmul, SVD and inverse as the same BLAS and LAPACK
    routine per set, so a set's model does not depend on the others.
    Returns ``(H, ok)``: ``H`` is ``(m, 3, 3)`` scaled so ``H[2, 2] == 1``,
    and ``ok`` is False where ``|h33| < 1e-12`` (degenerate; that ``H`` is
    left unscaled).
    """
    m, points = src.shape[:2]
    ones = np.ones((m, points, 1))

    def normalizations(pts: np.ndarray) -> np.ndarray:
        centroid = pts.mean(axis=1)
        spread = np.sqrt(((pts - centroid[:, None]) ** 2).sum(axis=2)).mean(axis=1)
        scale = np.sqrt(2.0) / np.maximum(spread, 1e-12)
        t = np.zeros((m, 3, 3))
        t[:, 0, 0] = scale
        t[:, 0, 2] = -scale * centroid[:, 0]
        t[:, 1, 1] = scale
        t[:, 1, 2] = -scale * centroid[:, 1]
        t[:, 2, 2] = 1.0
        return t

    t_src = normalizations(src)
    t_dst = normalizations(dst)
    src_n = t_src @ np.concatenate([src, ones], axis=2).transpose(0, 2, 1)
    dst_n = t_dst @ np.concatenate([dst, ones], axis=2).transpose(0, 2, 1)
    x, y = src_n[:, 0], src_n[:, 1]
    u, v = dst_n[:, 0], dst_n[:, 1]
    zero = np.zeros_like(x)
    one = np.ones_like(x)
    rows_a = np.stack([x, y, one, zero, zero, zero, -u * x, -u * y, -u], axis=2)
    rows_b = np.stack([zero, zero, zero, x, y, one, -v * x, -v * y, -v], axis=2)
    system = np.concatenate([rows_a, rows_b], axis=1)
    _, _, vh = np.linalg.svd(system)
    h = np.linalg.inv(t_dst) @ vh[:, -1].reshape(m, 3, 3) @ t_src
    h33 = h[:, 2, 2]
    ok = np.abs(h33) >= 1e-12
    return h / np.where(ok, h33, 1.0)[:, None, None], ok


def estimate_homography(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Least-squares homography taking ``src`` points to ``dst`` points.

    Requires at least four correspondences.  Uses the normalized direct
    linear transform; the result is scaled so ``H[2, 2] == 1``.
    """
    src = np.asarray(src, dtype=np.float64).reshape(-1, 2)
    dst = np.asarray(dst, dtype=np.float64).reshape(-1, 2)
    if src.shape[0] < 4 or src.shape != dst.shape:
        raise HomographyError(
            f"need >= 4 matched points, got {src.shape[0]} and {dst.shape[0]}"
        )
    h, ok = _dlt(src[None], dst[None])
    if not ok[0]:
        raise HomographyError("degenerate homography (h33 ~ 0)")
    return h[0]


def apply_homography(h: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Apply ``h`` to an ``(n, 2)`` array of (x, y) points."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    homogeneous = np.hstack([points, np.ones((points.shape[0], 1))])
    mapped = (h @ homogeneous.T).T
    w = mapped[:, 2:3]
    w = np.where(np.abs(w) < 1e-12, 1e-12, w)
    return mapped[:, :2] / w


def reprojection_errors(
    h: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """Euclidean error of mapping each ``src`` point vs its ``dst``.

    ``h`` is one homography (errors ``(n,)``) or an ``(m, 3, 3)`` stack of
    them (errors ``(m, n)``, each row what that model alone gives).
    """
    src = np.asarray(src, dtype=np.float64).reshape(-1, 2)
    dst = np.asarray(dst, dtype=np.float64).reshape(-1, 2)
    mapped = h @ np.hstack([src, np.ones((src.shape[0], 1))]).T
    w = mapped[..., 2, :]
    w = np.where(np.abs(w) < 1e-12, 1e-12, w)
    dx = mapped[..., 0, :] / w - dst[:, 0]
    dy = mapped[..., 1, :] / w - dst[:, 1]
    return np.sqrt(dx * dx + dy * dy)


#: Minimal samples :func:`ransac_homography` solves and scores per
#: batch: one batched DLT and one error array each.
RANSAC_BATCH = 64


def _batch_homographies(
    src: np.ndarray, dst: np.ndarray, samples: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The minimal models of ``samples`` (``(m, 4)`` indices) and which
    are not degenerate: one batched :func:`_dlt`, or one
    :func:`estimate_homography` per sample when a batched LAPACK call
    fails (one bad sample fails the whole stack)."""
    try:
        return _dlt(src[samples], dst[samples])
    except np.linalg.LinAlgError:
        models = np.zeros((len(samples), 3, 3))
        ok = np.zeros(len(samples), dtype=bool)
        for k, sample in enumerate(samples):
            try:
                models[k] = estimate_homography(src[sample], dst[sample])
                ok[k] = True
            except (HomographyError, np.linalg.LinAlgError):
                pass
        return models, ok


def ransac_homography(
    src: np.ndarray,
    dst: np.ndarray,
    iterations: int = 300,
    inlier_threshold: float = 2.0,
    min_inliers: int = 8,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Robust homography via RANSAC.

    Returns ``(H, inlier_mask)``; raises :class:`HomographyError` when no
    model reaches ``min_inliers``.  The final model is re-estimated from all
    inliers of the best minimal sample.

    The samples are drawn one ``rng.choice`` at a time, and solved and
    scored :data:`RANSAC_BATCH` at a time.  The best minimal model is the
    first with the most inliers, and a model that explains every
    correspondence ends the search after its batch; degenerate samples
    are skipped.  That is the choice a per-sample loop makes.
    """
    src = np.asarray(src, dtype=np.float64).reshape(-1, 2)
    dst = np.asarray(dst, dtype=np.float64).reshape(-1, 2)
    n = src.shape[0]
    if n < 4:
        raise HomographyError(f"need >= 4 correspondences, got {n}")
    rng = np.random.default_rng(seed)
    best_mask: np.ndarray | None = None
    best_count = 0
    for first in range(0, iterations, RANSAC_BATCH):
        samples = np.array([
            rng.choice(n, size=4, replace=False)
            for _ in range(min(RANSAC_BATCH, iterations - first))
        ])
        models, ok = _batch_homographies(src, dst, samples)
        masks = reprojection_errors(models, src, dst) <= inlier_threshold
        counts = np.where(ok, masks.sum(axis=1), -1)
        best = int(np.argmax(counts))
        if counts[best] > best_count:
            best_count = int(counts[best])
            best_mask = masks[best]
        if best_count == n:
            break
    if best_mask is None or best_count < max(min_inliers, 4):
        raise HomographyError(
            f"RANSAC found only {best_count} inliers (need {min_inliers})"
        )
    refined = estimate_homography(src[best_mask], dst[best_mask])
    errors = reprojection_errors(refined, src, dst)
    final_mask = errors <= inlier_threshold
    if final_mask.sum() >= 4:
        refined = estimate_homography(src[final_mask], dst[final_mask])
    else:
        final_mask = best_mask
    return refined, final_mask


def homography_identity_distance(h: np.ndarray) -> float:
    """``||H - I||_2`` after scale normalization (paper's duplicate test).

    VSS treats a pair as exact duplicates when this distance is <= 0.1 and
    replaces the redundant GOP with a pointer (section 5.1.1).
    """
    h = np.asarray(h, dtype=np.float64)
    if abs(h[2, 2]) > 1e-12:
        h = h / h[2, 2]
    return float(np.linalg.norm(h - np.eye(3), ord=2))


#: Float64 values in each of :meth:`WarpPlan.apply`'s two scratch sums
#: (256 KiB each): a block of frames, or of one frame's pixels, that fits.
WARP_BLOCK = 1 << 15


@dataclass(frozen=True, eq=False)
class WarpPlan:
    """Where each kept output pixel of one warp samples its input.

    A plan fixes one homography, one input shape, one output shape and
    the output columns ``[start, stop)`` its caller keeps, so a caller
    that warps many frames by one homography builds it once.  Per kept
    output pixel (row-major) it holds the flat index of the top-left
    source pixel of its bilinear square and the row and column fractions
    ``ty`` and ``tx`` into it; ``valid`` marks the pixels whose source
    fell inside the input.  An invalid pixel holds index 0 and fractions
    0 and takes the fill value.
    """

    input_shape: tuple[int, int]
    columns: tuple[int, int]
    index: np.ndarray  # (out_h * (stop - start),) intp
    ty: np.ndarray  # (out_h * (stop - start),) float64
    tx: np.ndarray  # (out_h * (stop - start),) float64
    valid: np.ndarray  # (out_h, stop - start) bool

    def apply(self, image: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """The warped columns of one frame (2-D gray or 3-D rgb) or of an
        ``(n, h, w[, 3])`` stack of them; pixels outside ``valid`` take
        ``fill``.  A 3-D array whose first two axes are the input shape
        is one rgb frame.

        Each pixel is four gathers summed in float64 in scipy's order,
        ``(1-ty)(1-tx)·v00 + (1-ty)tx·v01 + ty(1-tx)·v10 + ty·tx·v11``
        with each term the value times its row weight, then times its
        column weight; the sum is cast to float32, the fill put in, and
        integer rgb rounded and clipped (gray is cast as is).
        """
        if image.ndim in (2, 3) and image.shape[:2] == self.input_shape:
            return self._apply_stack(image[None], fill)[0]
        if image.ndim not in (3, 4) or image.shape[1:3] != self.input_shape:
            raise ValueError(
                f"plan for input {self.input_shape}, got {image.shape}"
            )
        return self._apply_stack(image, fill)

    def _apply_stack(self, image: np.ndarray, fill: float) -> np.ndarray:
        """:meth:`apply` of an ``(n, h, w)`` gray or ``(n, h, w, c)`` rgb
        stack."""
        frames = image.shape[0]
        out_h, kept = self.valid.shape
        result = np.empty((frames, out_h, kept) + image.shape[3:], image.dtype)
        pixels = self.index.size
        if frames == 0 or pixels == 0:
            return result
        stack = image if image.ndim == 4 else image[..., None]
        channels = stack.shape[3]
        in_h, in_w = self.input_shape
        # The fractions of a pixel on the last row or column are 1 into
        # the square before it (or 0 on a 1-pixel axis), so every
        # neighbour is in range; a zero weight adds exactly nothing.
        right = 1 if in_w > 1 else 0
        down = in_w if in_h > 1 else 0
        row = (1.0 - self.ty, self.ty)
        col = (1.0 - self.tx, self.tx)
        terms = (
            (self.index, row[0], col[0]),
            (self.index + right, row[0], col[1]),
            (self.index + down, row[1], col[0]),
            (self.index + (down + right), row[1], col[1]),
        )
        block = max(1, WARP_BLOCK // (channels * pixels))
        block = min(block, frames)
        span = min(pixels, max(1, WARP_BLOCK // (channels * block)))
        # uint8 gathers widen exactly; scipy reads any other input as
        # float32, and so do these gathers.
        source_type = np.uint8 if image.dtype == np.uint8 else np.float32
        source = np.empty((block, channels, in_h * in_w), source_type)
        scratch = block * channels * span
        gathered = np.empty(scratch, source_type)
        total = np.empty(scratch)
        term = np.empty(scratch)
        warped = np.empty((block, pixels, channels), np.float32)
        invalid = ~self.valid.ravel()
        rounds = image.ndim == 4 and np.issubdtype(image.dtype, np.integer)
        for f0 in range(0, frames, block):
            m = min(block, frames - f0)
            src = source[:m]
            np.copyto(
                src.reshape(m, channels, in_h, in_w),
                stack[f0:f0 + m].transpose(0, 3, 1, 2),
                casting="unsafe",
            )
            out = warped[:m]
            planes = out.transpose(0, 2, 1)
            for p0 in range(0, pixels, span):
                p1 = min(pixels, p0 + span)
                shape = (m, channels, p1 - p0)
                size = m * channels * (p1 - p0)
                g = gathered[:size].reshape(shape)
                s = total[:size].reshape(shape)
                t = term[:size].reshape(shape)
                for k, (corner, wy, wx) in enumerate(terms):
                    # Every index is in range; "clip" only spares take
                    # the bounds check's buffered copy.
                    np.take(src, corner[p0:p1], axis=2, out=g, mode="clip")
                    acc = s if k == 0 else t
                    np.multiply(g, wy[p0:p1], out=acc)
                    np.multiply(acc, wx[p0:p1], out=acc)
                    if k == 1 or k == 2:
                        np.add(s, t, out=s)
                np.add(s, t, out=planes[:, :, p0:p1])
            out[:, invalid] = fill
            if rounds:
                np.rint(out, out=out)
                np.clip(out, 0, 255, out=out)
            np.copyto(
                result[f0:f0 + m].reshape(m, pixels, channels),
                out,
                casting="unsafe",
            )
        return result


def warp_plan(
    h: np.ndarray,
    input_shape: tuple[int, int],
    output_shape: tuple[int, int],
    columns: tuple[int, int] | None = None,
) -> WarpPlan:
    """Plan the warp by ``h`` of ``input_shape`` images into
    ``output_shape`` (both ``(height, width)``), keeping the output
    columns ``columns = (start, stop)`` (default: all of them).

    The inverse, the sampling grid and the valid mask are computed over
    the whole output frame and only then cut to ``columns``: a matmul
    over the kept columns alone may round differently, and the plan must
    sample exactly where the whole-frame warp does.
    """
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
    in_h, in_w = input_shape
    valid = (
        (src_x >= 0) & (src_x <= in_w - 1) & (src_y >= 0) & (src_y <= in_h - 1)
    )
    start, stop = columns if columns is not None else (0, out_w)
    valid = np.ascontiguousarray(valid[:, start:stop])
    src_x = np.where(valid, src_x[:, start:stop], 0.0).ravel()
    src_y = np.where(valid, src_y[:, start:stop], 0.0).ravel()
    # scipy's square starts at floor(coordinate); one on the last row or
    # column starts a square earlier, at fraction 1, so its neighbours
    # stay inside the input.
    x0 = np.minimum(np.floor(src_x), max(in_w - 2, 0))
    y0 = np.minimum(np.floor(src_y), max(in_h - 2, 0))
    return WarpPlan(
        input_shape=(in_h, in_w),
        columns=(start, stop),
        index=y0.astype(np.intp) * in_w + x0.astype(np.intp),
        ty=src_y - y0,
        tx=src_x - x0,
        valid=valid,
    )


def warp_perspective(
    image: np.ndarray,
    h: np.ndarray,
    output_shape: tuple[int, int],
    fill: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Warp ``image`` into the destination space defined by ``h``.

    ``output_shape`` is ``(height, width)``.  Returns ``(warped, valid)``
    where ``valid`` marks output pixels whose source coordinate fell inside
    the input image.  Works on 2-D (gray) and 3-D (rgb) arrays.  A caller
    warping many frames by one homography builds :func:`warp_plan` once
    instead.
    """
    plan = warp_plan(h, image.shape[:2], output_shape)
    return plan.apply(image, fill), plan.valid


def translation_homography(dx: float, dy: float) -> np.ndarray:
    """Pure-translation homography."""
    h = np.eye(3)
    h[0, 2] = dx
    h[1, 2] = dy
    return h


def perspective_skew_homography(
    width: int, height: int, skew: float
) -> np.ndarray:
    """A mild perspective distortion used by the synthetic camera rig.

    ``skew`` of 0 is the identity; positive values tilt the image plane so
    the right edge stretches vertically (like the bulge in paper Figure 6c).
    """
    src = np.array(
        [[0, 0], [width - 1, 0], [width - 1, height - 1], [0, height - 1]],
        dtype=np.float64,
    )
    offset = skew * height
    dst = np.array(
        [
            [0, 0],
            [width - 1, -offset],
            [width - 1, height - 1 + offset],
            [0, height - 1],
        ],
        dtype=np.float64,
    )
    return estimate_homography(src, dst)
