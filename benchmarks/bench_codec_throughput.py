"""Codec encode/decode throughput: the fast paths vs the scalar loops.

Set ``VSS_BENCH_QUICK=1`` for the CI smoke configuration (fewer timing
rounds; the identity assertions keep running).

Decode (ISSUE 10): every compressed read funnels through GOP decode, and
the recurrence that forces frame-by-frame work is only the cheap
compensate-add-clip chain.  ``decode_gop_frames`` batches the residual
reconstruction of a whole GOP ahead of it and is timed against the
scalar loop in ``tests/kernel_oracles.py``, on the sparse plane payloads
the encoder writes and on the same GOP in the dense layout older stores
hold (every block's scanned row, run-length deflated).

Encode (ISSUE 17): every transcoding read and every append funnels
through ``encode_segment``.  Its kernel steps the segment's GOPs in
lockstep on the calling thread and hands each step's deflate to the
executor; it is timed at 1 and 4 GOPs, with and without an executor,
against a loop of the oracle's ``encode_gop_scalar``.

Deflate: the entropy stage compresses each plane's stream (coded-block
mask, then the coded blocks' zigzag-scanned levels) with
``entropy.deflate`` (zlib's run-length strategy).  The streams of the
encoded clip are deflated with it and with the default strategy at levels
6 and 9 (what the ``h264`` and ``hevc`` profiles ran before); seconds and
bytes are printed per codec, and all three must inflate to the same
streams.

Frames are tile-sized (half of the scaled VisualRoad camera in each
axis): on a tiled store the 2x2 tile physical is the system's actual
codec granularity.  Times are best-of-``ROUNDS`` and printed for the
record only: what this file *asserts* is that both fast paths are
**bit-identical** to their scalar references, that both plane layouts
decode to the same pixels, and that every deflate inflates back to the
stream it was given.  Speed is judged by ``benchmarks/vssbench``, on
paired runs.
"""

from __future__ import annotations

import os
import time
import zlib

import numpy as np

from repro.bench.harness import Table, print_table
from repro.core.executor import Executor
from repro.synthetic import visualroad
from repro.video.codec import entropy
from repro.video.codec.blockcodec import _FRAME_HEADER, _PLANE_HEADER, _VECTOR
from repro.video.codec.registry import codec_for
from repro.video.frame import VideoSegment
from tests.kernel_oracles import (
    decode_gop_frames_scalar,
    dense_gop,
    encode_gop_scalar,
)

QUICK = os.environ.get("VSS_BENCH_QUICK", "") not in ("", "0")
GOP_SIZE = 24
#: Segment lengths for the encode rows: one GOP, and four (one lockstep
#: pass of the kernel).
ENCODE_GOPS = (1, 4)
QP = 14  # the codec default quality point
ROUNDS = 3 if QUICK else 9
PROFILES = ("h264", "hevc")
#: Tile-sized planes: a 2x2 grid over the 108x192 scaled camera.
TILE_H, TILE_W = 54, 96


def _tile_clip(frames: int) -> VideoSegment:
    dataset = visualroad("1K", overlap=0.3, num_frames=frames)
    clip = dataset.video(camera=0, start=0, stop=frames)
    pixels = np.ascontiguousarray(clip.pixels[:, :TILE_H, :TILE_W])
    return VideoSegment(pixels, "rgb", TILE_H, TILE_W, clip.fps)


def _best_seconds(fn, rounds: int) -> float:
    """Best-of-``rounds`` wall time (min is robust to scheduler noise)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _plane_streams(gops) -> list[bytes]:
    """The plane streams the encoder deflated, in order."""
    planes = []
    for gop in gops:
        for payload in gop.payloads:
            _, n_vectors, n_planes = _FRAME_HEADER.unpack_from(payload)
            offset = _FRAME_HEADER.size + n_vectors * _VECTOR.size
            for _ in range(n_planes):
                size = _PLANE_HEADER.unpack_from(payload, offset)[-1]
                offset += _PLANE_HEADER.size
                planes.append(zlib.decompress(payload[offset : offset + size]))
                offset += size
    return planes


def _scalar_encode(codec, clip: VideoSegment):
    """``encode_segment``'s GOP slicing over the scalar reference."""
    return [
        encode_gop_scalar(
            codec,
            clip.slice_frames(lo, min(lo + GOP_SIZE, clip.num_frames)),
            qp=QP,
        )
        for lo in range(0, clip.num_frames, GOP_SIZE)
    ]


def test_codec_throughput(benchmark):
    clip = _tile_clip(GOP_SIZE * max(ENCODE_GOPS))
    # Measured as deployed: the store's shared executor takes the
    # deflate / inflate tasks (inline on one core).
    executor = Executor()
    encode = Table(
        "encode_segment: lockstep kernel vs scalar loop (MB/s)",
        ["profile", "GOPs", "kernel", "kernel+executor", "scalar"],
    )
    decode = Table(
        "GOP decode: batched fast path vs scalar loop (MB/s)",
        ["profile", "batched", "batched, dense layout", "scalar"],
    )
    deflate = Table(
        "deflate of the plane streams: default strategy vs Z_RLE",
        ["profile", "planes", "MB in", "strategy", "seconds", "bytes out"],
    )
    for name in PROFILES:
        codec = codec_for(name)
        for gops in ENCODE_GOPS:
            piece = clip.slice_frames(0, gops * GOP_SIZE)
            mb = piece.pixels.nbytes / 1e6
            reference = _scalar_encode(codec, piece)
            for pool in (None, executor):
                fast = codec.encode_segment(
                    piece, qp=QP, gop_size=GOP_SIZE, executor=pool
                )
                assert [g.start_time for g in fast] == [
                    g.start_time for g in reference
                ]
                assert [g.payloads for g in fast] == [
                    g.payloads for g in reference
                ]
            encode.add_row(
                name,
                gops,
                *(
                    mb / _best_seconds(fn, ROUNDS)
                    for fn in (
                        lambda: codec.encode_segment(
                            piece, qp=QP, gop_size=GOP_SIZE
                        ),
                        lambda: codec.encode_segment(
                            piece, qp=QP, gop_size=GOP_SIZE, executor=executor
                        ),
                        lambda: _scalar_encode(codec, piece),
                    )
                ),
            )

        planes = _plane_streams(reference)
        mb = sum(map(len, planes)) / 1e6
        for label, fn in (
            ("default, level 6", lambda plane: zlib.compress(plane, 6)),
            ("default, level 9", lambda plane: zlib.compress(plane, 9)),
            ("entropy.deflate", entropy.deflate),
        ):
            out = [fn(plane) for plane in planes]
            assert [zlib.decompress(chunk) for chunk in out] == planes
            deflate.add_row(
                name,
                len(planes),
                mb,
                label,
                _best_seconds(lambda: [fn(plane) for plane in planes], ROUNDS),
                sum(map(len, out)),
            )

        gop = reference[0]
        dense = dense_gop(gop, codec.profile.block_size)
        mb = GOP_SIZE * clip.pixels[0].nbytes / 1e6
        expected = decode_gop_frames_scalar(codec, gop, GOP_SIZE).pixels
        for encoded in (gop, dense):
            np.testing.assert_array_equal(
                codec.decode_gop_frames(
                    encoded, GOP_SIZE, executor=executor
                ).pixels,
                expected,
            )
        decode.add_row(
            name,
            *(
                mb / _best_seconds(fn, ROUNDS)
                for fn in (
                    lambda: codec.decode_gop_frames(
                        gop, GOP_SIZE, executor=executor
                    ),
                    lambda: codec.decode_gop_frames(
                        dense, GOP_SIZE, executor=executor
                    ),
                    lambda: decode_gop_frames_scalar(codec, gop, GOP_SIZE),
                )
            ),
        )

    benchmark.pedantic(
        lambda: codec_for("hevc").encode_segment(
            clip, qp=QP, gop_size=GOP_SIZE, executor=executor
        ),
        rounds=1,
        iterations=1,
    )
    executor.shutdown()
    print_table(encode)
    print_table(decode)
    print_table(deflate)
