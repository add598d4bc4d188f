"""Seeded op lists: the only thing ``--seed`` changes.

The rendered cameras are the same for every seed.  Each workload's op list
is a *stratified* sample of its distribution: the table of formats,
resolutions and window lengths is walked completely, so every seed reads
the same amount of video in every format (the driver compares runs on
different seeds, and a freely drawn mix of 5 ms and 500 ms ops moves the
median latency by tens of percent from seed to seed).  The seed decides
where in the video each op lands, which half of the frame an ROI takes
and the order ops arrive in, so the caches see a different history on
every seed.  No position, seed or op is chosen with an eye on whether the
program can serve it: an op that fails is counted, not avoided.  The
program under test only ever receives the generated :class:`ReadSpec`
objects.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from repro.core.specs import ReadSpec

#: visualroad "1K" geometry and the ingest settings every workload uses.
WIDTH, HEIGHT = 192, 108
FPS = 30.0
GOP = 30
QP = 14

#: The paper's section 6.1 consumer formats: (codec, pixel format).
FORMATS = (("raw", "rgb"), ("raw", "yuv420"), ("h264", "rgb"), ("hevc", "rgb"))
#: Full, half and quarter resolution.
DIVISORS = (1, 2, 4)
#: Window lengths of the cold mix, seconds.
WINDOWS = (1, 2, 3, 4)


def even(value: float) -> int:
    """Snap to the nearest even size (chroma-subsampled formats need it)."""
    return max(2, 2 * round(value / 2))


@dataclass(frozen=True)
class ReadOp:
    """One generated read: which rendered camera it targets and its spec."""

    kind: str
    camera: int
    spec: ReadSpec

    @property
    def frames(self) -> int:
        """Frames a correct answer delivers."""
        return round((self.spec.end - self.spec.start) * FPS)


@dataclass(frozen=True)
class Step:
    """One step of an ``ingest_follow`` epoch (a write-side action or a read)."""

    action: str  # append | read | close | optimize
    camera: int = -1
    tick: int = -1
    op: ReadOp | None = None


def _half_frame_roi(side: int) -> tuple[int, int, int, int]:
    """Left, right, top or bottom half of the frame."""
    return (
        (0, 0, WIDTH // 2, HEIGHT),
        (WIDTH // 2, 0, WIDTH, HEIGHT),
        (0, 0, WIDTH, HEIGHT // 2),
        (0, HEIGHT // 2, WIDTH, HEIGHT),
    )[side]


def cold_mix(
    rng: np.random.Generator, name: str, video_seconds: int, reps: int
) -> list[ReadOp]:
    """The section 6.1 read mix over one video.

    ``reps`` passes over the 4 formats x 3 resolutions table.  Window
    lengths rotate through 1-4 s (four passes give every cell every
    length), and every fourth op takes a half-frame ROI.  ``rng`` places
    the windows: the video is cut into as many equal slots as there are
    ops, each op starts at a random frame of a slot of its own, and the
    slots are dealt out at random, so every seed spreads its reads over
    the whole video.  ``rng`` also picks each ROI's side and the arrival
    order.
    """
    count = reps * len(FORMATS) * len(DIVISORS)
    slots = rng.permutation(count)
    ops: list[ReadOp] = []
    for rep in range(reps):
        for f, (codec, pixel_format) in enumerate(FORMATS):
            for s, divisor in enumerate(DIVISORS):
                seconds = WINDOWS[(f + s + rep) % len(WINDOWS)]
                roi = None
                width, height = WIDTH, HEIGHT
                if (len(ops) + rep) % 4 == 3:
                    roi = _half_frame_roi(int(rng.integers(4)))
                    width, height = roi[2] - roi[0], roi[3] - roi[1]
                resolution = None
                if divisor > 1:
                    resolution = (even(width / divisor), even(height / divisor))
                starts = int((video_seconds - seconds) * FPS) + 1
                position = (slots[len(ops)] + rng.random()) / count
                start = int(position * starts) / FPS
                spec = ReadSpec(
                    name,
                    start,
                    start + seconds,
                    codec=codec,
                    pixel_format=pixel_format,
                    resolution=resolution,
                    roi=roi,
                    qp=QP,
                )
                ops.append(ReadOp("mixed", 0, spec))
    return [ops[i] for i in rng.permutation(len(ops))]


def hot_ops(
    rng: np.random.Generator,
    names: list[str],
    video_seconds: int,
    hot_cameras: int,
    hot_seconds: int,
    cool_seconds: int,
    count: int,
) -> list[ReadOp]:
    """One-second stream reads: 60% direct-serve, 30% hot raw, 10% half-res.

    Direct-serve ops ask for the stored format on a GOP boundary; hot raw
    ops stay inside ``hot_cameras`` x ``hot_seconds``; half-resolution ops
    land on the first ``cool_seconds`` of the *other* cameras.  Both sets
    of GOPs together must fit the decode cache, so that warm rounds decode
    nothing.
    """
    n_direct = count * 6 // 10
    n_hot = count * 3 // 10
    half = (even(WIDTH / 2), even(HEIGHT / 2))
    ops: list[ReadOp] = []
    for _ in range(n_direct):
        camera = int(rng.integers(len(names)))
        start = float(rng.integers(video_seconds))
        spec = ReadSpec(names[camera], start, start + 1.0, codec="h264", qp=QP)
        ops.append(ReadOp("direct", camera, spec))
    for _ in range(n_hot):
        camera = int(rng.integers(hot_cameras))
        start = float(rng.integers(hot_seconds))
        spec = ReadSpec(names[camera], start, start + 1.0, codec="raw")
        ops.append(ReadOp("hot_raw", camera, spec))
    for _ in range(count - n_direct - n_hot):
        camera = hot_cameras + int(rng.integers(len(names) - hot_cameras))
        start = float(rng.integers(cool_seconds))
        spec = ReadSpec(
            names[camera], start, start + 1.0, codec="raw", resolution=half
        )
        ops.append(ReadOp("half_raw", camera, spec))
    return [ops[i] for i in rng.permutation(len(ops))]


def follow_schedule(
    rng: np.random.Generator,
    names: list[str],
    ticks: int,
    lookback_every: int,
    lookback_seconds: int,
    readbacks: int,
) -> list[Step]:
    """One ``ingest_follow`` epoch.

    Every tick appends one second to each camera, then reads the newest
    second of each as raw half-resolution; every ``lookback_every``-th
    tick one seeded camera serves an hevc look-back.  After the streams
    close and the store is jointly compressed, ``readbacks`` seeded raw
    seconds per camera are read back through joint recovery.
    """
    half = (even(WIDTH / 2), even(HEIGHT / 2))
    steps: list[Step] = []
    for tick in range(ticks):
        for camera in range(len(names)):
            steps.append(Step("append", camera, tick))
        for camera, name in enumerate(names):
            spec = ReadSpec(
                name, float(tick), tick + 1.0, codec="raw", resolution=half
            )
            steps.append(Step("read", op=ReadOp("tail", camera, spec)))
        if (tick + 1) % lookback_every == 0:
            camera = int(rng.integers(len(names)))
            start = float(max(0, tick + 1 - lookback_seconds))
            spec = ReadSpec(
                names[camera], start, tick + 1.0, codec="hevc", qp=QP
            )
            steps.append(Step("read", op=ReadOp("lookback", camera, spec)))
    steps.append(Step("close"))
    steps.append(Step("optimize"))
    backs: list[ReadOp] = []
    for camera, name in enumerate(names):
        seconds = rng.choice(ticks, size=min(readbacks, ticks), replace=False)
        for second in seconds:
            spec = ReadSpec(name, float(second), second + 1.0, codec="raw")
            backs.append(ReadOp("readback", camera, spec))
    steps.extend(
        Step("read", op=backs[i]) for i in rng.permutation(len(backs))
    )
    return steps


def oplist_sha256(items: list) -> str:
    """A stable hash of a generated op list (read ops and/or steps)."""
    rows = []
    for item in items:
        op = item if isinstance(item, ReadOp) else item.op
        row = [getattr(item, "action", "read")]
        if isinstance(item, Step):
            row += [item.camera, item.tick]
        if op is not None:
            row += [op.kind, op.camera, op.spec.to_dict()]
        rows.append(row)
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
