"""Blockwise 2-D DCT used by the transform stage of the codec.

Planes are padded (edge-replicated) to a multiple of the block size, tiled
into ``B x B`` blocks, and transformed with the orthonormal type-II DCT from
``scipy.fft``.  The inverse reverses the tiling and strips the padding.

All entry points accept any number of leading batch dimensions before the
trailing ``(H, W)`` plane pair.  ``scipy.fft`` applies the transform
independently per trailing ``(B, B)`` slice, so a batched call is
bit-identical to looping the 2-D form — the property the GOP-batched decode
fast path is built on (fuzz-verified in ``tests/test_codec.py``).
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sfft


def pad_to_blocks(plane: np.ndarray, block: int) -> np.ndarray:
    """Edge-pad planes ``(..., H, W)`` so both trailing dims divide
    ``block``."""
    h, w = plane.shape[-2:]
    pad_h = (-h) % block
    pad_w = (-w) % block
    if pad_h == 0 and pad_w == 0:
        return plane
    pad = [(0, 0)] * (plane.ndim - 2) + [(0, pad_h), (0, pad_w)]
    return np.pad(plane, pad, mode="edge")


def to_blocks(plane: np.ndarray, block: int) -> np.ndarray:
    """Tile padded planes ``(..., H, W)`` into ``(..., nby, nbx, B, B)``
    blocks."""
    h, w = plane.shape[-2:]
    nby, nbx = h // block, w // block
    tiled = plane.reshape(*plane.shape[:-2], nby, block, nbx, block)
    return np.moveaxis(tiled, -3, -2)


def from_blocks(blocks: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_blocks`."""
    nby, nbx, block, _ = blocks.shape[-4:]
    untiled = np.moveaxis(blocks, -2, -3)
    return untiled.reshape(*blocks.shape[:-4], nby * block, nbx * block)


def replicate_edges(padded: np.ndarray, height: int, width: int) -> None:
    """Fill the rows from ``height`` and columns from ``width`` of planes
    ``(..., H, W)`` with their last real row and column, in place: what
    :func:`pad_to_blocks` appends, for a caller that keeps its planes in
    a block-aligned buffer already."""
    if height < padded.shape[-2]:
        padded[..., height:, :width] = padded[..., height - 1 : height, :width]
    if width < padded.shape[-1]:
        padded[..., width:] = padded[..., width - 1 : width]


def forward_dct(
    plane: np.ndarray, block: int, overwrite: bool = False
) -> np.ndarray:
    """Blockwise orthonormal DCT-II of float planes ``(..., H, W)``.

    Returns coefficient blocks shaped ``(..., nby, nbx, B, B)`` for the
    padded planes.  With ``overwrite`` the coefficients may be written
    over ``plane`` itself (they are, for block-aligned float32 input,
    and the result is then a view of it); the values do not change.
    """
    padded = pad_to_blocks(plane.astype(np.float32, copy=False), block)
    tiles = to_blocks(padded, block)
    return sfft.dctn(tiles, axes=(-2, -1), norm="ortho", overwrite_x=overwrite)


def inverse_dct(coeffs: np.ndarray, height: int, width: int) -> np.ndarray:
    """Inverse blockwise DCT, cropping back to ``height`` x ``width``."""
    tiles = sfft.idctn(coeffs, axes=(-2, -1), norm="ortho")
    plane = from_blocks(tiles.astype(np.float32))
    return plane[..., :height, :width]


def inverse_dct_sparse(
    coeff_blocks: np.ndarray, nonzero: np.ndarray, block: int
) -> np.ndarray:
    """Inverse blockwise DCT of a stack of planes, skipping zero blocks.

    ``nonzero`` is an ``(N, nby, nbx)`` boolean mask of the blocks that
    carry any coefficient; ``coeff_blocks`` holds exactly those blocks as a
    dense ``(K, B, B)`` float32 array (``K = nonzero.sum()``, row-major
    mask order).  Returns the ``(N, nby*B, nbx*B)`` padded planes.

    The transform of an all-zero block is exactly ``+0.0`` everywhere
    (a DCT is linear and produces no negative zeros from positive-zero
    input), so scattering the transformed nonzero blocks into a zeroed
    output is bit-identical to transforming everything — while only
    paying for the typically ~10-20% of blocks a quantized residual
    actually populates.
    """
    n, nby, nbx = nonzero.shape
    out = np.zeros((n, nby * block, nbx * block), dtype=np.float32)
    if coeff_blocks.size:
        tiles = sfft.idctn(coeff_blocks, axes=(-2, -1), norm="ortho")
        view = out.reshape(n, nby, block, nbx, block)
        np.moveaxis(view, -2, -3)[nonzero] = tiles
    return out
