"""Entropy coding stage: zigzag scan + run-length deflate.

Quantized coefficient blocks are mostly zero in their high-frequency tail.
Scanning each block in zigzag order groups those zeros into long runs.
This combination plays the role H.264's CAVLC/CABAC plays: it is the
lossless back half of the codec.

:func:`deflate` compresses a scanned plane with zlib's ``Z_RLE`` strategy:
every match it looks for is a repeat of the previous byte (distance one),
then Huffman codes the literals and run lengths.  That is the structure
of the scanned int16 levels — runs of zero bytes broken by a few small
coefficients, with little worth matching at a long distance.  Over the
planes a vssbench ``cold_mixed_reads`` run deflates, the default
strategy's match search (level 6 for ``h264``, 9 for ``hevc`` before)
took 2.6x and 18x the time and wrote payloads 5% larger; only where
coarse quantisation leaves whole blocks that repeat exactly (qp 24 and
up on flat content) do its long-distance matches win.  Under ``Z_RLE``
the level selects nothing, so there is no level to choose: the ``h264``
and ``hevc`` profiles differ only in motion mode and deadzone.

The output is an ordinary zlib stream.  :func:`decode_levels` and the
batched decoder inflate it with ``zlib.decompress``, which reads payloads
written with any strategy or level alike, so stores written by older
versions decode to the same pixels.
"""

from __future__ import annotations

import time
import zlib
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def zigzag_order(block: int) -> np.ndarray:
    """Indices that traverse a ``block x block`` tile in zigzag order."""
    order = sorted(
        ((i, j) for i in range(block) for j in range(block)),
        key=lambda ij: (ij[0] + ij[1], ij[1] if (ij[0] + ij[1]) % 2 else ij[0]),
    )
    flat = np.array([i * block + j for i, j in order], dtype=np.int64)
    return flat


@lru_cache(maxsize=None)
def inverse_zigzag_order(block: int) -> np.ndarray:
    forward = zigzag_order(block)
    inverse = np.empty_like(forward)
    inverse[forward] = np.arange(forward.size)
    return inverse


def deflate(buffer) -> bytes:
    """Run-length deflate one C-contiguous buffer (see the module
    docstring) into a zlib stream.

    Reads ``buffer`` through the buffer protocol (no ``tobytes`` copy)
    and releases the GIL while it compresses.  The level passed is
    immaterial: ``Z_RLE`` never reads the match-search parameters a level
    selects, and zlib writes the same header bits for every level under
    this strategy, so any nonzero level gives these exact bytes.
    """
    packer = zlib.compressobj(1, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
    return packer.compress(buffer) + packer.flush()


def encode_levels(levels: np.ndarray, block: int) -> bytes:
    """Entropy-encode quantized levels ``(nby, nbx, B, B)`` to bytes."""
    flat = levels.reshape(-1, block * block)
    scanned = flat[:, zigzag_order(block)]
    return deflate(np.ascontiguousarray(scanned, dtype=np.int16))


def scan_levels(levels: np.ndarray, block: int) -> np.ndarray:
    """Zigzag-scan quantized levels ``(..., nby, nbx, B, B)`` into
    C-contiguous int16 rows ``(..., nby * nbx, B * B)``.

    The first half of :func:`encode_levels`, for any number of leading
    plane dimensions at once; each ``[..., :, :]`` plane of the result is
    the exact buffer :func:`encode_levels` would deflate.
    """
    flat = levels.reshape(*levels.shape[:-4], -1, block * block)
    return np.take(flat, zigzag_order(block), axis=-1)


def deflate_planes(scanned: np.ndarray) -> tuple[list[bytes], float]:
    """:func:`deflate` each plane of a :func:`scan_levels` stack ``(P,
    n_blocks, B * B)``; returns the payloads and the seconds spent.

    The second half of :func:`encode_levels`.  The encoder runs this on
    pool threads beside its own array math.
    """
    began = time.perf_counter()
    payloads = [deflate(plane) for plane in scanned]
    return payloads, time.perf_counter() - began


def decode_levels(
    payload: bytes, nby: int, nbx: int, block: int
) -> np.ndarray:
    """Inverse of :func:`encode_levels`."""
    raw = zlib.decompress(payload)
    scanned = np.frombuffer(raw, dtype=np.int16).reshape(-1, block * block)
    if scanned.shape[0] != nby * nbx:
        raise ValueError(
            f"payload holds {scanned.shape[0]} blocks, expected {nby * nbx}"
        )
    flat = scanned[:, inverse_zigzag_order(block)]
    return flat.reshape(nby, nbx, block, block)


def stack_scanned(
    raws: list[bytes], n_blocks: int, block: int
) -> np.ndarray:
    """Stack decompressed payloads into ``(len(raws), n_blocks, B*B)`` rows.

    ``raws`` are the *already inflated* bytes of same-shape planes (the
    batched decode path inflates them up front, optionally in parallel).
    The single ``join`` + ``frombuffer`` replaces a per-plane
    ``frombuffer``/``np.stack`` round and is the zero-copy way to get one
    contiguous int16 tensor of still-zigzag-scanned block rows.
    """
    scanned = np.frombuffer(b"".join(raws), dtype=np.int16)
    expected = len(raws) * n_blocks * block * block
    if scanned.size != expected:
        raise ValueError(
            f"payloads hold {scanned.size // (block * block)} blocks, "
            f"expected {len(raws) * n_blocks}"
        )
    return scanned.reshape(len(raws), n_blocks, block * block)


def nonzero_blocks(scanned: np.ndarray) -> np.ndarray:
    """Boolean mask of block rows with any nonzero level.

    ``scanned`` is ``(..., n_blocks, B*B)`` int16; the reduction runs over
    an int64 view (eight int16 lanes per comparison) when the row width
    allows, which is bit-equivalent because an int64 word is zero exactly
    when all of its int16 lanes are.
    """
    if scanned.flags.c_contiguous and (scanned.shape[-1] * 2) % 8 == 0:
        return scanned.view(np.int64).any(axis=-1)
    return scanned.any(axis=-1)


def unscan_rows(rows: np.ndarray, block: int) -> np.ndarray:
    """Zigzag-scanned rows ``(N, B*B)`` -> spatial blocks ``(N, B, B)``."""
    return rows[:, inverse_zigzag_order(block)].reshape(-1, block, block)
