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
:class:`WarpPlan` (the inverse, the sampling grid and the valid mask,
cut to the output columns the caller keeps) and :meth:`WarpPlan.apply`
warps each frame with it.  ``warp_perspective`` is a plan built and
applied once; there is no other warp.  A plan keeps only whole columns
of the whole-frame grid, so its pixels equal those columns of the
whole-frame warp bit for bit.

In VSS's joint compression, ``H`` maps right-frame coordinates into the
left frame's space, so ``warp_perspective(right, H, left.shape)`` overlays
the right frame onto the left (paper Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from repro.errors import HomographyError


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
    h_normalized = vh[-1].reshape(3, 3)
    h = np.linalg.inv(t_dst) @ h_normalized @ t_src
    if abs(h[2, 2]) < 1e-12:
        raise HomographyError("degenerate homography (h33 ~ 0)")
    return h / h[2, 2]


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
    """Euclidean error of mapping each ``src`` point vs its ``dst``."""
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
    """Robust homography via RANSAC.

    Returns ``(H, inlier_mask)``; raises :class:`HomographyError` when no
    model reaches ``min_inliers``.  The final model is re-estimated from all
    inliers of the best minimal sample.
    """
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
        errors = reprojection_errors(candidate, src, dst)
        mask = errors <= inlier_threshold
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


@dataclass(frozen=True, eq=False)
class WarpPlan:
    """Where each kept output pixel of one warp samples its input.

    A plan fixes one homography, one input shape, one output shape and
    the output columns ``[start, stop)`` its caller keeps, so a caller
    that warps many frames by one homography builds it once and applies
    it per frame.  ``sample`` holds the source ``(y, x)`` of each kept
    output pixel and ``valid`` marks those that fell inside the input.
    """

    input_shape: tuple[int, int]
    columns: tuple[int, int]
    sample: np.ndarray  # (2, out_h, stop - start) float64: source (y, x)
    valid: np.ndarray  # (out_h, stop - start) bool

    def apply(self, image: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """The warped columns of ``image`` (2-D gray or 3-D rgb); pixels
        outside ``valid`` take ``fill``."""
        if image.shape[:2] != self.input_shape:
            raise ValueError(
                f"plan for input {self.input_shape}, got {image.shape[:2]}"
            )
        planes = (
            [image] if image.ndim == 2
            else [image[..., c] for c in range(image.shape[2])]
        )
        warped = [
            np.where(
                self.valid,
                ndimage.map_coordinates(
                    plane.astype(np.float32),
                    self.sample,
                    order=1,
                    mode="constant",
                    cval=fill,
                ),
                fill,
            )
            for plane in planes
        ]
        if image.ndim == 2:
            return warped[0].astype(image.dtype)  # gray: no rounding
        stacked = np.stack(warped, axis=-1)
        if np.issubdtype(image.dtype, np.integer):
            stacked = np.clip(np.rint(stacked), 0, 255)
        return stacked.astype(image.dtype)


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
    return WarpPlan(
        input_shape=(in_h, in_w),
        columns=(start, stop),
        sample=np.stack([src_y[:, start:stop], src_x[:, start:stop]]),
        valid=np.ascontiguousarray(valid[:, start:stop]),
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
