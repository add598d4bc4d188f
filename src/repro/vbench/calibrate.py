"""Install-time calibration, standing in for the vbench benchmark [30].

The paper computes the domain of its per-pixel transcode cost function
``alpha`` by running vbench on the installation hardware, and maps mean
bits-per-pixel to PSNR using vbench's published measurements.  This module
does the same locally: it times encode/decode on synthetic clips at several
resolutions and sweeps the quantizer to build a bits-per-pixel -> PSNR
curve per codec.  Resolutions that were not benchmarked are served by
piecewise-linear interpolation (as in the paper).

Timing the host is an explicit step: a store opened without a
calibration loads the one saved as ``calibration.json`` next to its
database (``run_calibration().save(path)`` writes it) and otherwise uses
:meth:`Calibration.default`, so two fresh stores plan alike.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.cost import Calibration
from repro.synthetic.scene import RoadScene
from repro.video.codec.registry import CODEC_NAMES, codec_for
from repro.video.frame import VideoSegment
from repro.video.metrics import segment_psnr

#: Resolutions (width, height) timed by the default calibration run.
DEFAULT_RESOLUTIONS = ((96, 54), (192, 108), (384, 216))

#: Quantizer sweep used to build the bpp -> PSNR curve.
DEFAULT_QP_SWEEP = (0, 8, 16, 24, 32, 44)


def _calibration_clip(width: int, height: int, frames: int) -> VideoSegment:
    """A small textured clip with motion, deterministic in its geometry."""
    scene = RoadScene(
        world_width=max(width + 16, 2 * height), height=height, seed=23
    )
    stack = np.empty((frames, height, width, 3), dtype=np.uint8)
    for t in range(frames):
        stack[t] = scene.render_world(t)[:, :width]
    return VideoSegment(stack, "rgb", height, width, 30.0)


def run_calibration(
    resolutions: tuple[tuple[int, int], ...] = DEFAULT_RESOLUTIONS,
    frames: int = 6,
    qp_sweep: tuple[int, ...] = DEFAULT_QP_SWEEP,
    repeats: int = 2,
) -> Calibration:
    """Measure encode/decode per-pixel costs and quality curves locally."""
    calibration = Calibration()
    for codec_name in CODEC_NAMES:
        codec = codec_for(codec_name)
        encode_samples: list[tuple[float, float]] = []
        decode_samples: list[tuple[float, float]] = []
        for width, height in resolutions:
            clip = _calibration_clip(width, height, frames)
            pixels = float(width * height)
            total_px = pixels * frames
            encode_time = []
            decode_time = []
            gops = None
            for _ in range(repeats):
                start = time.perf_counter()
                gops = codec.encode_segment(clip, gop_size=frames)
                encode_time.append(time.perf_counter() - start)
                start = time.perf_counter()
                for gop in gops:
                    codec.decode_gop(gop)
                decode_time.append(time.perf_counter() - start)
            encode_samples.append((pixels, min(encode_time) / total_px))
            decode_samples.append((pixels, min(decode_time) / total_px))
        encode_samples.sort()
        decode_samples.sort()
        calibration.encode_cost[codec_name] = encode_samples
        calibration.decode_cost[codec_name] = decode_samples

    width, height = resolutions[min(1, len(resolutions) - 1)]
    clip = _calibration_clip(width, height, frames)
    for codec_name in CODEC_NAMES:
        codec = codec_for(codec_name)
        if not codec.is_compressed:
            continue
        curve = []
        for qp in qp_sweep:
            gops = codec.encode_segment(clip, qp=qp, gop_size=frames)
            decoded = [codec.decode_gop(g) for g in gops]
            recovered = decoded[0].concatenate(decoded)
            quality = segment_psnr(clip, recovered)
            bpp = float(np.mean([g.bits_per_pixel for g in gops]))
            curve.append((bpp, quality))
        curve.sort()
        calibration.quality_curve[codec_name] = curve
    return calibration
