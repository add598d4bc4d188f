"""Entropy coding stage: coded-block mask + zigzag scan + run-length deflate.

Quantized coefficient blocks are mostly zero in their high-frequency tail,
and most blocks are zero outright: on the rendered traffic scenes the
store is run with, about 85% of a plane's 8x8 blocks carry no level at
all.  A plane's payload therefore codes only the blocks that do.  It is
one zlib stream holding, in order,

* ``np.packbits(mask)``: one bit per block, row-major block order, set
  where the block holds a nonzero level (padded with zero bits to a whole
  byte); and
* the zigzag-scanned int16 rows of exactly the blocks whose bit is set,
  in mask order.

The mask plays the role of H.264's ``coded_block_pattern``; the zigzag
scan groups each coded block's zeros into one run at its tail.  Coding
only the set blocks cuts the bytes inflated per plane about sevenfold, and
the decoder reads ``(mask, rows)`` straight out of the stream: the sparse
inverse transform wants exactly that pair, so no full plane of levels is
ever built, scanned for nonzero blocks or gathered from.

:func:`deflate` compresses with zlib's ``Z_RLE`` strategy: every match it
looks for is a repeat of the previous byte (distance one), then Huffman
codes the literals and run lengths.  That is the structure of the scanned
levels — runs of zero bytes broken by a few small coefficients, with
little worth matching at a long distance.  Under ``Z_RLE`` the level
selects nothing, so there is no level to choose: the ``h264`` and
``hevc`` profiles differ only in motion mode and deadzone.

Stores written before the mask existed hold the *dense* layout: every
block's scanned row, coded or not, deflated with any strategy or level.
A frame's type byte says which layout its planes use — lowercase
(``b"i"``, ``b"p"``) for sparse, uppercase for dense — and
:func:`unpack_plane` turns either into the same ``(mask, rows)``, so old
stores decode to the same pixels.
"""

from __future__ import annotations

import time
import zlib
from functools import lru_cache

import numpy as np

from repro.errors import CodecError


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


def deflate(*buffers) -> bytes:
    """Run-length deflate C-contiguous buffers, one after another, into
    one zlib stream (see the module docstring).

    Reads each buffer through the buffer protocol (no ``tobytes`` copy)
    and releases the GIL while it compresses; the stream equals the one
    deflating the buffers' concatenation would write.  The level passed
    is immaterial: ``Z_RLE`` never reads the match-search parameters a
    level selects, and zlib writes the same header bits for every level
    under this strategy, so any nonzero level gives these exact bytes.
    """
    packer = zlib.compressobj(1, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
    parts = [packer.compress(buffer) for buffer in buffers]
    parts.append(packer.flush())
    return b"".join(parts)


def nonzero_blocks(flat: np.ndarray) -> np.ndarray:
    """Boolean mask of block rows ``(..., n_blocks, B*B)`` int16 with any
    nonzero level.

    The reduction runs over an int64 view (eight int16 lanes per
    comparison) when the row width allows, which is bit-equivalent
    because an int64 word is zero exactly when all of its int16 lanes
    are.
    """
    if flat.flags.c_contiguous and (flat.shape[-1] * 2) % 8 == 0:
        return flat.view(np.int64).any(axis=-1)
    return flat.any(axis=-1)


def scan_rows(rows: np.ndarray, block: int) -> np.ndarray:
    """Spatial block rows ``(N, B*B)`` -> C-contiguous zigzag-scanned rows."""
    return np.take(rows, zigzag_order(block), axis=-1)


def unscan_rows(rows: np.ndarray, block: int) -> np.ndarray:
    """Zigzag-scanned rows ``(N, B*B)`` -> spatial blocks ``(N, B, B)``."""
    return rows[:, inverse_zigzag_order(block)].reshape(-1, block, block)


def pack_planes(
    masks: np.ndarray, rows: np.ndarray
) -> tuple[list[bytes], float]:
    """Sparse payloads of a stack of planes; returns them and the seconds
    spent.

    ``masks`` is ``(P, n_blocks)`` bool, one coded-block mask per plane;
    ``rows`` the C-contiguous scanned int16 rows ``(K, B*B)`` of every
    set block, plane after plane (``K = masks.sum()``).  The encoder
    runs this on pool threads beside its own array math.
    """
    began = time.perf_counter()
    payloads = []
    start = 0
    for mask in masks:
        stop = start + int(np.count_nonzero(mask))
        payloads.append(deflate(np.packbits(mask), rows[start:stop]))
        start = stop
    return payloads, time.perf_counter() - began


def unpack_plane(
    payload: bytes, n_blocks: int, block: int, sparse: bool
) -> tuple[np.ndarray, np.ndarray]:
    """``(mask, rows)`` of one plane payload, in either layout: the
    ``(n_blocks,)`` coded-block mask and the ``(K, B*B)`` int16 scanned
    rows of its set blocks.

    ``sparse`` selects the layout (the case of the frame's type byte).  A
    payload that does not inflate, or whose stream is shorter or longer
    than its block count implies, raises :class:`CodecError`.
    """
    try:
        raw = zlib.decompress(payload)
    except zlib.error as exc:
        raise CodecError(f"plane payload does not inflate: {exc}") from None
    row_bytes = block * block * 2
    if not sparse:
        # The dense layout every store written before the mask holds.
        if len(raw) != n_blocks * row_bytes:
            raise CodecError(
                f"dense plane holds {len(raw)} bytes, expected "
                f"{n_blocks} blocks of {row_bytes}"
            )
        scanned = np.frombuffer(raw, dtype=np.int16).reshape(n_blocks, -1)
        mask = nonzero_blocks(scanned)
        return mask, scanned[mask]
    head = (n_blocks + 7) // 8
    if len(raw) < head:
        raise CodecError(
            f"sparse plane holds {len(raw)} bytes, shorter than its "
            f"{head}-byte block mask"
        )
    mask = np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8, count=head), count=n_blocks
    ).view(np.bool_)
    count = int(np.count_nonzero(mask))
    if len(raw) != head + count * row_bytes:
        raise CodecError(
            f"sparse plane holds {len(raw)} bytes, expected a {head}-byte "
            f"mask and {count} blocks of {row_bytes}"
        )
    rows = np.frombuffer(
        raw, dtype=np.int16, count=count * block * block, offset=head
    )
    return mask, rows.reshape(count, block * block)
