"""Codec encode/decode throughput: the fast paths vs the scalar loops.

Set ``VSS_BENCH_QUICK=1`` for the CI smoke configuration (fewer timing
rounds; the identity assertions keep running).

Decode (ISSUE 10): every compressed read funnels through GOP decode, and
the recurrence that forces frame-by-frame work is only the cheap
compensate-add-clip chain.  ``decode_gop_frames`` batches the residual
reconstruction of a whole GOP ahead of it and is timed against the
retained ``decode_gop_frames_scalar``.

Encode (ISSUE 17): every transcoding read and every append funnels
through ``encode_segment``.  Its kernel steps the segment's GOPs in
lockstep on the calling thread and hands each step's deflate to the
executor; it is timed at 1 and 4 GOPs, with and without an executor,
against a loop of the retained ``encode_gop_scalar``.

Frames are tile-sized (half of the scaled VisualRoad camera in each
axis): on a tiled store the 2x2 tile physical is the system's actual
codec granularity.  Times are best-of-``ROUNDS`` and printed for the
record only: what this file *asserts* is that both fast paths are
**bit-identical** to their scalar references.  Speed is judged by
``benchmarks/vssbench``, on paired runs.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.bench.harness import Table, print_table
from repro.core.executor import Executor
from repro.synthetic import visualroad
from repro.video.codec.registry import codec_for
from repro.video.frame import VideoSegment

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


def _scalar_encode(codec, clip: VideoSegment):
    """``encode_segment``'s GOP slicing over the scalar reference."""
    return [
        codec.encode_gop_scalar(
            clip.slice_frames(lo, min(lo + GOP_SIZE, clip.num_frames)), qp=QP
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
        ["profile", "batched", "scalar"],
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

        gop = reference[0]
        mb = GOP_SIZE * clip.pixels[0].nbytes / 1e6
        np.testing.assert_array_equal(
            codec.decode_gop_frames(gop, GOP_SIZE, executor=executor).pixels,
            codec.decode_gop_frames_scalar(gop, GOP_SIZE).pixels,
        )
        decode.add_row(
            name,
            mb
            / _best_seconds(
                lambda: codec.decode_gop_frames(
                    gop, GOP_SIZE, executor=executor
                ),
                ROUNDS,
            ),
            mb
            / _best_seconds(
                lambda: codec.decode_gop_frames_scalar(gop, GOP_SIZE), ROUNDS
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
