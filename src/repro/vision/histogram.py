"""Colour histograms.

Used in two places, mirroring the paper:

* joint-compression candidate clustering (section 5.1.3) — fragments are
  clustered by colour histogram before any expensive feature work;
* the end-to-end application's search phase (section 6.4) — vehicle colour
  is identified from the histogram of the region inside a bounding box,
  with a detection declared when the Euclidean distance between the
  largest bin's colour and the search colour is <= 50.
"""

from __future__ import annotations

import numpy as np

#: Bins per channel for the joint 3-D colour histogram (4^3 = 64 dims keeps
#: BIRCH's cluster features small).
DEFAULT_BINS = 4


def _as_uint8_rgb(image: np.ndarray) -> np.ndarray:
    """Coerce an image to ``(H, W, 3)`` uint8 for the bin arithmetic.

    Grayscale input is broadcast to three channels.  Float input arrives
    from the resample/compensation paths either in [0, 255] or unit
    range; unit-range data is scaled up, everything is clipped into
    [0, 255] — the integer quantization below is only correct for values
    in that range.
    """
    image = np.asarray(image)
    if image.ndim == 2:
        image = np.repeat(image[..., None], 3, axis=-1)
    if image.dtype == np.uint8:
        return image
    data = np.nan_to_num(image.astype(np.float64))
    if data.size and data.min() >= 0.0 and data.max() <= 1.0:
        data = data * 255.0
    return np.clip(np.rint(data), 0, 255).astype(np.uint8)


def _bin_index(image: np.ndarray, bins: int) -> np.ndarray:
    """The joint bin of every pixel of a uint8 RGB image, flattened:
    ``q_r * bins**2 + q_g * bins + q_b`` with ``q = value * bins // 256``.

    Computed channel by channel into two pixel-sized uint16 arrays (the
    product and index fit while ``bins**3 <= 2**16``; more bins take
    int64), never widening the whole image.
    """
    dtype = np.uint16 if bins**3 <= 1 << 16 else np.int64
    index = np.multiply(image[..., 0], bins, dtype=dtype)
    index //= 256
    level = np.empty_like(index)
    for channel in (1, 2):
        np.multiply(image[..., channel], bins, out=level, dtype=dtype)
        level //= 256
        index *= bins
        index += level
    return index.ravel()


def color_histogram(image: np.ndarray, bins: int = DEFAULT_BINS) -> np.ndarray:
    """Normalized joint RGB histogram of an image, flattened to 1-D.

    Accepts ``(H, W, 3)`` images (gray images are broadcast to three
    channels; float dtypes are clipped/scaled into uint8 range).  The
    result sums to 1 (all-zero for empty input).
    """
    image = _as_uint8_rgb(image)
    if image.size == 0:
        return np.zeros(bins**3, dtype=np.float64)
    counts = np.bincount(_bin_index(image, bins), minlength=bins**3).astype(
        np.float64
    )
    total = counts.sum()
    return counts / total if total else counts


def histogram_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two histograms."""
    return float(np.linalg.norm(a - b))


def dominant_color(image: np.ndarray, bins: int = 8) -> tuple[int, int, int]:
    """RGB centre of the most-populated histogram bin.

    This is the paper's vehicle-colour feature: "vehicle color is identified
    by computing a color histogram of the region inside the bounding box"
    and comparing the largest bin against the search colour.  Accepts
    the same inputs as :func:`color_histogram` (grayscale and float
    images are coerced to uint8 RGB).
    """
    image = _as_uint8_rgb(image)
    if image.size == 0:
        return (0, 0, 0)
    winner = int(np.bincount(_bin_index(image, bins), minlength=bins**3).argmax())
    r = winner // (bins * bins)
    g = (winner // bins) % bins
    b = winner % bins
    half = 256 // (2 * bins)
    to_center = lambda v: min(255, v * (256 // bins) + half)  # noqa: E731
    return (to_center(r), to_center(g), to_center(b))


def color_distance(a: tuple[int, int, int], b: tuple[int, int, int]) -> float:
    """Euclidean distance between two RGB colours."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    return float(np.linalg.norm(av - bv))
