"""Vision substrate: features, matching, homography, histograms, detection.

Replaces the paper's OpenCV dependency.  The pipeline mirrors the paper's
references: scale-invariant-style keypoints and descriptors [Lowe 1999],
Lowe's ratio test [Lowe 2004], and RANSAC homography estimation.

:func:`frame_to_rgb` is the adapter between the store's decode path and
the detectors: a single decoded frame in any of the engine's pixel
formats (``rgb``, ``gray``, packed planar ``yuv420``/``yuv422``) and any
reasonable dtype becomes the ``(H, W, 3)`` uint8 RGB array every
function in this package consumes.
"""

import numpy as np

from repro.errors import FormatError
from repro.video.frame import _unpool2, _yuv_to_rgb, frame_planes
from repro.vision.detection import (
    Detection,
    classify_color,
    detect_vehicles,
)
from repro.vision.features import Keypoint, detect_and_describe, detect_keypoints
from repro.vision.histogram import (
    color_histogram,
    dominant_color,
    histogram_distance,
)
from repro.vision.homography import (
    estimate_homography,
    homography_identity_distance,
    WarpPlan,
    ransac_homography,
    warp_perspective,
    warp_plan,
)
from repro.vision.matching import match_descriptors


def frame_to_rgb(
    frame: np.ndarray,
    pixel_format: str = "rgb",
    height: int | None = None,
    width: int | None = None,
) -> np.ndarray:
    """One decoded frame, in any store pixel format, as uint8 RGB.

    ``frame`` is a single frame exactly as the decode path lays it out:
    ``(H, W, 3)`` for rgb, ``(H, W)`` for gray, and the packed planar
    shapes ``(3H/2, W)`` / ``(2H, W)`` for yuv420 / yuv422.  The output
    geometry is derived from the packed shape, so ``height``/``width``
    only need passing when the caller wants them checked.  Float input
    (unit-range or [0, 255]) is scaled/clipped into uint8 before the
    colour-space math — matching the tolerance of
    :func:`~repro.vision.histogram.color_histogram`.
    """
    frame = np.asarray(frame)
    if frame.dtype != np.uint8:
        data = np.nan_to_num(frame.astype(np.float64))
        if data.size and data.min() >= 0.0 and data.max() <= 1.0:
            data = data * 255.0
        frame = np.clip(np.rint(data), 0, 255).astype(np.uint8)
    if pixel_format == "rgb":
        if frame.ndim != 3 or frame.shape[2] != 3:
            raise FormatError(
                f"rgb frame must be (H, W, 3), got {frame.shape}"
            )
        return frame
    if pixel_format == "gray":
        if frame.ndim != 2:
            raise FormatError(f"gray frame must be (H, W), got {frame.shape}")
        return np.repeat(frame[..., None], 3, axis=-1)
    if pixel_format in ("yuv420", "yuv422"):
        if frame.ndim != 2:
            raise FormatError(
                f"{pixel_format} frame must be a packed 2-D plane stack, "
                f"got {frame.shape}"
            )
        packed_h = frame.shape[0]
        derived_h = (packed_h * 2) // 3 if pixel_format == "yuv420" else packed_h // 2
        derived_w = frame.shape[1]
        if height is None:
            height = derived_h
        if width is None:
            width = derived_w
        if (height, width) != (derived_h, derived_w):
            raise FormatError(
                f"{pixel_format} packed shape {frame.shape} does not match "
                f"{width}x{height}"
            )
        y, u, v = frame_planes(frame, pixel_format, height, width)
        pool_h = 2 if pixel_format == "yuv420" else 1
        u = _unpool2(u[None].astype(np.float32), pool_h, 2)[0]
        v = _unpool2(v[None].astype(np.float32), pool_h, 2)[0]
        return _yuv_to_rgb(y.astype(np.float32), u, v)
    raise FormatError(f"unknown pixel format {pixel_format!r}")


__all__ = [
    "Detection",
    "Keypoint",
    "WarpPlan",
    "classify_color",
    "color_histogram",
    "detect_and_describe",
    "detect_keypoints",
    "detect_vehicles",
    "dominant_color",
    "estimate_homography",
    "frame_to_rgb",
    "histogram_distance",
    "homography_identity_distance",
    "match_descriptors",
    "ransac_homography",
    "warp_perspective",
    "warp_plan",
]
