"""Quantization: the lossy stage of the codec.

Follows the H.264 convention where the quantizer step size doubles every six
``qp`` steps.  A frequency-weighted matrix quantizes high-frequency
coefficients more coarsely, which is where most of the rate savings come
from at visually small cost.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: Valid quantization-parameter range (H.264 convention).
QP_MIN, QP_MAX = 0, 51

#: Default qp used when a caller asks for "lossless-ish" compressed video.
QP_LOSSLESS = 0

#: Default qp for ordinary writes; chosen so the synthetic datasets land in
#: the paper's "near-lossless" band (>= 30 dB) at useful compression ratios.
QP_DEFAULT = 14


def qstep(qp: float) -> float:
    """Quantizer step size for a given qp.

    ``qp = 0`` maps to step 0.5 (round-off error only, >= 40 dB on natural
    content) and the step doubles every 6 qp, mirroring H.264.
    """
    if not QP_MIN <= qp <= QP_MAX:
        raise ValueError(f"qp must be in [{QP_MIN}, {QP_MAX}], got {qp}")
    return 0.5 * 2.0 ** (qp / 6.0)


@lru_cache(maxsize=None)
def weight_matrix(block: int) -> np.ndarray:
    """Frequency weights for a ``block x block`` coefficient tile.

    Low frequencies (top-left) get weight 1.0; the highest frequency is
    quantized ~4x more coarsely.  The ramp is normalized by block size so
    8x8 and 16x16 profiles have comparable frequency response.
    """
    i, j = np.meshgrid(np.arange(block), np.arange(block), indexing="ij")
    ramp = (i + j) / (2.0 * (block - 1))
    return (1.0 + 3.0 * ramp).astype(np.float32)


@lru_cache(maxsize=None)
def fused_divisor(qp: float, block: int) -> np.ndarray:
    """The fused quantizer divisor ``qstep(qp) * weight_matrix(block)``.

    This float32 ``block x block`` array sits on the per-plane hot path of
    both ``quantize`` and ``dequantize``; caching it per ``(qp, block)``
    avoids rebuilding it on every call.  The array is marked read-only so
    a caller cannot corrupt the cache.
    """
    divisor = qstep(qp) * weight_matrix(block)
    divisor.setflags(write=False)
    return divisor


@lru_cache(maxsize=None)
def fused_reciprocal(qp: float, block: int) -> np.ndarray:
    """``1 / fused_divisor(qp, block)``, cached for the quantize path.

    Multiplying by the cached reciprocal replaces a vector divide per
    encoded plane with a (much cheaper) vector multiply.
    """
    reciprocal = np.reciprocal(fused_divisor(qp, block))
    reciprocal.setflags(write=False)
    return reciprocal


def quantize(
    coeffs: np.ndarray, qp: float, block: int, deadzone: float = 0.5
) -> np.ndarray:
    """Quantize DCT coefficient blocks to int16 levels.

    ``deadzone`` is the rounding offset ``f`` in
    ``level = sign(c) * floor(|c| / step + f)``: 0.5 is plain rounding,
    smaller values zero out more near-threshold coefficients.  Reference
    H.264/HEVC encoders use f < 0.5 because dropping noise-level
    coefficients saves more bits than the PSNR it costs.

    ``coeffs`` may carry any number of leading batch dimensions before the
    trailing ``(B, B)`` pair; the cached reciprocal broadcasts across them.
    """
    if not 0.0 < deadzone <= 0.5:
        raise ValueError(f"deadzone must be in (0, 0.5], got {deadzone}")
    # One float32 temporary, updated in place.  copysign(m, c) equals
    # sign(c) * m for every m >= 0 once cast to an integer (where c is
    # zero, m is floor(deadzone) = 0), and clipping m before the sign
    # goes on equals clipping the signed level.
    magnitudes = np.abs(coeffs)
    magnitudes *= fused_reciprocal(qp, block)
    magnitudes += deadzone
    np.floor(magnitudes, out=magnitudes)
    np.minimum(magnitudes, 32767, out=magnitudes)
    np.copysign(magnitudes, coeffs, out=magnitudes)
    return magnitudes.astype(np.int16)


def dequantize(levels: np.ndarray, qp: float, block: int) -> np.ndarray:
    """Reconstruct approximate coefficients from quantized levels.

    The int16 -> float32 cast and the divisor multiply are fused into one
    pass (``np.multiply`` with an explicit ``dtype``), which is bit-identical
    to ``levels.astype(np.float32) * divisor`` and skips a temporary the
    size of the coefficient tensor.
    """
    return np.multiply(levels, fused_divisor(qp, block), dtype=np.float32)
