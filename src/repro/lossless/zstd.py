"""Zstandard-equivalent lossless compressor (deferred compression, §5.2).

The paper uses Zstandard with its ``[1..19]`` compression-level dial and
scales the level linearly with the remaining storage budget.  Zstandard is
not installable offline, so this module exposes the same level scale backed
by deflate plus a level-dependent byte-delta pre-filter:

* levels 1..9 map onto zlib levels 1..9;
* levels 10..19 additionally delta-encode the payload before deflating,
  which substantially improves ratios on raw pixel data at extra CPU cost
  (the speed-for-ratio trade the higher zstd levels make).

Everything deferred compression relies on holds: exact round-trips, a
monotone-ish speed/ratio dial, and decompression that is far faster than a
video codec decode (Figure 20's comparison).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.errors import FormatError

LEVEL_MIN = 1
LEVEL_MAX = 19

_HEADER = struct.Struct(">4sBB")  # magic, level, filter flag
_MAGIC = b"VZST"


def _delta_encode(data: bytes) -> bytes:
    array = np.frombuffer(data, dtype=np.uint8)
    if array.size == 0:
        return data
    out = np.empty_like(array)
    out[0] = array[0]
    np.subtract(array[1:], array[:-1], out=out[1:])
    return out.tobytes()


def _delta_decode(data: bytes) -> bytes:
    array = np.frombuffer(data, dtype=np.uint8)
    if array.size == 0:
        return data
    return np.cumsum(array, dtype=np.uint8).tobytes()


def compress(data: bytes, level: int = 3) -> bytes:
    """Compress ``data`` at a zstd-style level in ``[1, 19]``."""
    if not LEVEL_MIN <= level <= LEVEL_MAX:
        raise FormatError(
            f"compression level must be in [{LEVEL_MIN}, {LEVEL_MAX}], got {level}"
        )
    use_delta = level > 9
    # Levels 10..19 restart the zlib ladder at 1..9 with the delta filter
    # stacked on top (slower, better ratio — the higher-zstd-levels trade).
    zlib_level = level if level <= 9 else max(1, min(9, level - 10))
    payload = _delta_encode(data) if use_delta else data
    packed = zlib.compress(payload, zlib_level)
    return _HEADER.pack(_MAGIC, level, 1 if use_delta else 0) + packed


def is_packed(blob: bytes) -> bool:
    """True when ``blob`` starts with :func:`compress`'s header."""
    return blob[: len(_MAGIC)] == _MAGIC


def decompress(blob: bytes) -> bytes:
    """Inverse of :func:`compress`."""
    if len(blob) < _HEADER.size:
        raise FormatError("compressed blob truncated before header")
    magic, _level, filtered = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise FormatError(f"bad lossless-container magic {magic!r}")
    payload = zlib.decompress(blob[_HEADER.size :])
    return _delta_decode(payload) if filtered else payload


def level_for_budget(remaining_fraction: float) -> int:
    """The paper's level policy: scale linearly with the *consumed* budget.

    With the full budget remaining the cheapest level is used; as the
    budget empties the level rises toward :data:`LEVEL_MAX`, trading write
    throughput for smaller cache entries (Figure 13).
    """
    remaining = min(max(remaining_fraction, 0.0), 1.0)
    level = LEVEL_MIN + (LEVEL_MAX - LEVEL_MIN) * (1.0 - remaining)
    return int(round(level))
