"""Read-path reconstruction of jointly compressed GOPs.

A GOP that participated in joint compression no longer has its own file;
its pixels are derived from the pair's shared left/overlap/right pieces.
``recover_gop`` rebuilds the requested side's frames and hands them to the
reader as a raw GOP (reconstruction already decoded the pieces, so
re-wrapping them raw lets the normal decode path consume them for free).
A right side's frames share one recovery plan (the pair's homography is
fixed), built once per reconstruction, and are rebuilt in one stacked
:func:`~repro.jointcomp.algorithm.recover_right_frame`: one canvas stack,
one warp of it, one fringe fill.
"""

from __future__ import annotations

import numpy as np

from repro.core.layout import Layout
from repro.core.records import GopRecord, JointPairRecord
from repro.errors import JointCompressionError
from repro.jointcomp.algorithm import recover_right_frame, recovery_plan
from repro.video.codec.container import EncodedGOP
from repro.video.codec.raw import RawCodec
from repro.video.codec.registry import decode_gop
from repro.video.frame import VideoSegment

_RAW = RawCodec()


def recover_segment(
    layout: Layout, pair: JointPairRecord, role: str
) -> VideoSegment:
    """Reconstruct one side ('a' = left/F, 'b' = right/G) of a pair."""
    if role not in ("a", "b"):
        raise JointCompressionError(f"unknown joint role {role!r}")
    left = decode_gop(layout.read_gop(pair.left_path))
    if pair.duplicate:
        # Either side is served from the single stored copy.
        return left
    if pair.overlap_path is None or pair.right_path is None:
        raise JointCompressionError(
            f"joint pair {pair.id} is missing overlap/right pieces"
        )
    overlap = decode_gop(layout.read_gop(pair.overlap_path))
    if role == "a":
        pixels = np.concatenate([left.pixels, overlap.pixels], axis=2)
        return VideoSegment(
            pixels,
            "rgb",
            left.height,
            left.width + overlap.width,
            left.fps,
            left.start_time,
        )
    right = decode_gop(layout.read_gop(pair.right_path))
    h_matrix = np.array(pair.homography, dtype=np.float64).reshape(3, 3)
    height = left.height
    width = left.width + overlap.width
    plan = recovery_plan(h_matrix, pair.x_g, height, width)
    frames = recover_right_frame(overlap.pixels, right.pixels, plan, pair.x_f)
    return VideoSegment(frames, "rgb", height, width, right.fps, right.start_time)


def recover_gop(
    layout: Layout, pair: JointPairRecord, record: GopRecord
) -> EncodedGOP:
    """Reconstruct the GOP ``record`` refers to, as a raw EncodedGOP."""
    segment = recover_segment(layout, pair, record.joint_role)
    expected = record.num_frames
    if segment.num_frames > expected:
        segment = segment.slice_frames(0, expected)
    gop = _RAW.encode_gop(segment)
    return gop.with_start_time(record.start_time)
