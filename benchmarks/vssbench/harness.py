"""Measurement machinery shared by the four workloads.

The repeatability rules live here (README "Repeatability rules"): the
canned calibration, fixed parallelism, the quiesce wait after every op,
the warm-up write/read/delete, try/except around every op, and rounds of
identical work whose outcome counts must repeat exactly.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.engine import VSSEngine
from repro.core.specs import ReadSpec, WriteSpec
from repro.synthetic import visualroad
from repro.vbench.calibrate import Calibration
from repro.video.frame import VideoSegment, convert_segment
from repro.video.metrics import segment_psnr
from repro.video.resample import crop_roi, resize_segment

from .hostclock import HostClock
from .ops import FPS, GOP, QP, ReadOp
from .trace import Tracer, layer_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: Engine worker threads (rule 1): the same on every host.
PARALLELISM = 2
#: Every CHECK_EVERY-th op is hashed each round and PSNR-checked once.
CHECK_EVERY = 10
#: Joint-recovered read-backs must measure at least this against the render.
READBACK_PSNR_DB = 30.0
#: An answer cut from the wrong place, camera or size measures below this
#: against the render; the lowest a right answer has measured is 24.7 dB.
WRONG_CONTENT_DB = 20.0
#: Safety stop for time-driven round loops.
MAX_ROUNDS = 200


class NondeterminismError(RuntimeError):
    """Rounds of identical work produced different outcome counts."""


class CheckFailure(Exception):
    """An op returned the wrong output: frames, bytes or content."""


class QualityFailure(CheckFailure):
    """An op returned the requested content below its quality tolerance."""


@dataclass
class Run:
    """Bookkeeping for one benchmark run: clock, scratch space, failures."""

    workload: str
    seed: int
    seconds: float
    params: dict
    trace: bool
    t0: float
    setup_window: tuple[float, float] | None = None
    oplist_sha256: str = ""
    write_attempts: int = 0
    #: Failed write-side steps, as ``(kind, exception)``.
    write_failures: list[tuple] = field(default_factory=list)
    #: Read ops whose output failed a check made once per run (PSNR, byte
    #: identity), by op index.  They are failed ops in every round.
    bad_ops: dict[int, CheckFailure] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.workdir = OUT / f"run-{os.getpid()}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.rng = np.random.default_rng(self.seed)
        self.clock = HostClock()
        self.clock.probe()

    def store_dir(self, label: str) -> Path:
        return self.workdir / label

    def setup_done(self) -> None:
        """Mark the first timed read-side op (only the first call counts).

        ``t0`` is on the system-wide monotonic clock: it comes from the
        launching interpreter, so set-up includes the re-exec and imports.
        The window is kept on the ``perf_counter`` axis the host-speed
        probes use.
        """
        if self.setup_window is None:
            self.clock.probe()
            end = time.perf_counter()
            self.setup_window = (end - (time.monotonic() - self.t0), end)

    def cleanup(self) -> None:
        self.clock.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# inputs and engines
# ----------------------------------------------------------------------
def make_engine(root: Path) -> VSSEngine:
    """An engine under rule 1: canned calibration, fixed parallelism,
    default decode cache (64 MiB) and budget multiple (10x)."""
    return VSSEngine(
        root, calibration=Calibration.default(), parallelism=PARALLELISM
    )


def render_cameras(count: int, frames: int) -> list[VideoSegment]:
    """``count`` 1K cameras of ``frames`` frames, identical for every seed.

    Cameras 0 and 1 are the two 50%-overlap views of one visualroad rig;
    further pairs are the same rig at later times, so each camera shows
    different traffic while one world render serves two cameras.
    """
    pairs = (count + 1) // 2
    dataset = visualroad("1K", overlap=0.5, num_frames=pairs * frames)
    left, right = dataset.videos(0, pairs * frames)
    cameras = []
    for k in range(count):
        source = (left, right)[k % 2]
        piece = source.slice_frames((k // 2) * frames, (k // 2 + 1) * frames)
        cameras.append(dataclasses.replace(piece, start_time=0.0))
    return cameras


def write_spec(name: str) -> WriteSpec:
    return WriteSpec(name, codec="h264", qp=QP, gop_size=GOP)


def open_stream(engine: VSSEngine, name: str, source: VideoSegment):
    """A streaming write of ``source``'s geometry, encoded like
    :func:`write_spec`."""
    return engine.open_write_stream(
        name,
        codec="h264",
        pixel_format=source.pixel_format,
        width=source.width,
        height=source.height,
        fps=FPS,
        qp=QP,
        gop_size=GOP,
    )


def warm_up(write, read, delete, quiesce, source: VideoSegment) -> None:
    """Rule 3: pay lazy set-up on a throw-away video, then freeze the heap.

    The first write into a fresh engine or server is far slower than the
    second; one write + read + delete absorbs that before anything is
    timed.  ``gc.freeze`` keeps the collector from walking the long-lived
    module graph in the middle of a timed op.
    """
    clip = source.slice_frames(0, min(GOP, source.num_frames))
    seconds = clip.num_frames / FPS
    write(write_spec("warmup"), clip)
    quiesce()
    read(ReadSpec("warmup", 0.0, seconds, codec="raw"))
    read(ReadSpec("warmup", 0.0, seconds, codec="h264", qp=QP))
    quiesce()
    delete("warmup")
    gc.collect()
    gc.freeze()


# ----------------------------------------------------------------------
# answers and checks
# ----------------------------------------------------------------------
def frames_of(result) -> int:
    if result.segment is not None:
        return result.segment.num_frames
    return sum(gop.num_frames for gop in result.gops)


def digest_of(result) -> str:
    """sha256 of the delivered bytes (pixels, or GOP payloads)."""
    sha = hashlib.sha256()
    if result.segment is not None:
        sha.update(np.ascontiguousarray(result.segment.pixels).data)
    else:
        for gop in result.gops:
            sha.update(gop.frame_types.encode())
            for payload in gop.payloads:
                sha.update(payload)
    return sha.hexdigest()


def psnr_against_source(op: ReadOp, source: VideoSegment, result) -> float:
    """PSNR of an answer against the same window cut from the render."""
    first = round(op.spec.start * FPS)
    reference = source.slice_frames(first, first + op.frames)
    if op.spec.roi is not None:
        x0, y0, x1, y1 = op.spec.roi
        reference = crop_roi(reference, x0, x1, y0, y1)
    if op.spec.resolution is not None:
        reference = resize_segment(reference, *op.spec.resolution)
    answer = result.as_segment()
    # Compare in the answer's own pixel format, so a yuv420 read is not
    # charged for chroma subsampling it was asked to perform.
    reference = convert_segment(reference, answer.pixel_format)
    return segment_psnr(reference, answer)


def check_against_source(
    op: ReadOp, source: VideoSegment, result
) -> CheckFailure | None:
    """What is wrong with a sampled answer, judged against the render.

    The tolerance is the spec's own ``quality_db``, or the fixed floor for
    a read-back that goes through joint recovery.
    """
    try:
        db = psnr_against_source(op, source, result)
    except ValueError as exc:  # frame count or resolution mismatch
        return CheckFailure(str(exc))
    if db < WRONG_CONTENT_DB:
        return CheckFailure(f"PSNR {db:.2f} dB: not the requested content")
    floor = READBACK_PSNR_DB if op.kind == "readback" else op.spec.quality_db
    if db < floor:
        return QualityFailure(f"PSNR {db:.2f} dB < {floor:g} dB")
    return None


# ----------------------------------------------------------------------
# rounds of reads
# ----------------------------------------------------------------------
class RoundLog:
    """What one round of reads delivered and how long it took."""

    def __init__(self, ops: list[ReadOp]) -> None:
        self.ops = ops
        # (begin, done) of the read call, per successful read.
        self.latency: list[tuple | None] = [None] * len(ops)
        self.stats: list = [None] * len(ops)
        self.digests: dict[int, str] = {}
        self.failures: dict[int, BaseException] = {}
        # Read-side windows: read calls + their quiesce waits.  One per op,
        # or one for the whole round when ops overlap (remote_streams).
        self.busy: list[tuple] = []
        self.quiesce = 0.0
        self.window = (0.0, 0.0)  # the whole round
        self.state: dict = {}
        # Filled on the traced round only: EngineStats before/after as
        # dicts, and workload-specific per-layer values.
        self.before: dict = {}
        self.after: dict = {}
        self.extras: dict = {}

    @property
    def frames(self) -> int:
        """Frames delivered by the successful reads."""
        return sum(
            op.frames
            for op, latency in zip(self.ops, self.latency)
            if latency is not None
        )

    def fail(self, index: int, failure: BaseException) -> None:
        """Rule 5: a failed op delivers no frames and no latency sample."""
        self.latency[index] = self.stats[index] = None
        self.digests.pop(index, None)
        self.failures.setdefault(index, failure)

    def counts(self) -> dict:
        """Outcome counts that must repeat exactly across rounds (rule 6)."""
        rows = [s for s in self.stats if s is not None]
        sha = hashlib.sha256()
        for index in sorted(self.digests):
            sha.update(self.digests[index].encode())
        return {
            "frames_delivered": self.frames,
            "direct_serves": sum(1 for s in rows if s.direct_serve),
            "gop_windows": sum(
                s.decode_cache_hits + s.decode_cache_misses for s in rows
            ),
            "ops_failed": len(self.failures),
            "sampled_sha256": sha.hexdigest(),
            **self.state,
        }

    def decode_counts(self) -> dict:
        """Rule 6 counts that a read whose window starts inside a GOP
        makes racy: its two output chunks are built on two workers and
        both need that GOP, so both may miss the decode cache or one may
        hit the other's entry.  Enforced on the workloads whose windows
        are GOP-aligned, reported on ``cold_mixed_reads``."""
        rows = [s for s in self.stats if s is not None]
        return {
            "frames_decoded": sum(s.frames_decoded for s in rows),
            "decode_cache_hits": sum(s.decode_cache_hits for s in rows),
        }


def timed_read(
    run: Run,
    log: RoundLog,
    index: int,
    call,
    quiesce,
    source: VideoSegment | None = None,
) -> None:
    """Run one read under rules 2 and 5 and record it in ``log``.

    The latency window closes when ``call`` returns; the quiesce wait is
    charged to the round's read-side seconds only.  A raised exception, a
    wrong frame count or a failed check is a failed op.  ``source`` (given
    in one round per run) adds the check against the render on sampled
    ops; what it finds holds for every round, so it goes to
    ``run.bad_ops``.
    """
    op = log.ops[index]
    begin = time.perf_counter()
    try:
        result = call(op.spec)
        failure = None
    except Exception as exc:  # noqa: BLE001 - rule 5: count it, keep going
        result, failure = None, exc
    done = time.perf_counter()
    quiesce()
    end = time.perf_counter()
    log.busy.append((begin, end))
    log.quiesce += end - done
    if failure is None and frames_of(result) != op.frames:
        failure = CheckFailure(
            f"delivered {frames_of(result)} frames, expected {op.frames}"
        )
    if failure is not None:
        log.fail(index, failure)
        return
    log.latency[index] = (begin, done)
    log.stats[index] = result.stats
    if index % CHECK_EVERY == 0 or op.kind == "readback":
        log.digests[index] = digest_of(result)
        if source is not None:
            failure = check_against_source(op, source, result)
            if failure is not None:
                run.bad_ops[index] = failure


def timed_write(run: Run, kind: str, frames: int, action, quiesce) -> tuple:
    """One write-side step: ``(frames written, begin, end)`` incl. quiesce."""
    run.write_attempts += 1
    run.clock.maybe_probe()
    begin = time.perf_counter()
    try:
        action()
    except Exception as exc:  # noqa: BLE001 - rule 5
        run.write_failures.append((kind, exc))
        frames = 0
    quiesce()
    return frames, begin, time.perf_counter()


def measure_rounds(run: Run, one_round, min_rounds: int) -> list:
    """Repeat ``one_round`` for ``--seconds`` (at least ``min_rounds``)."""
    deadline = time.perf_counter() + run.seconds
    rounds = []
    while len(rounds) < MAX_ROUNDS and (
        len(rounds) < min_rounds or time.perf_counter() < deadline
    ):
        rounds.append(one_round())
    return rounds


def require_identical(counts: list[dict]) -> None:
    for position, row in enumerate(counts[1:], start=2):
        if row != counts[0]:
            changed = {
                key: (counts[0].get(key), row.get(key))
                for key in set(row) | set(counts[0])
                if row.get(key) != counts[0].get(key)
            }
            raise NondeterminismError(
                f"round {position} differs from round 1: {changed}"
            )


# ----------------------------------------------------------------------
# store state
# ----------------------------------------------------------------------
def engine_state(engine: VSSEngine, names: list[str]) -> dict:
    """Stored bytes and physical count over ``names`` (rule 6 counts)."""
    stats = [engine.video_stats(name) for name in names]
    return {
        "stored_bytes": sum(s.total_bytes for s in stats),
        "physicals": sum(s.num_physicals for s in stats),
    }


def original_bytes(engine: VSSEngine, names: list[str]) -> int:
    """Bytes held by the originals (the rest is cached materialisations)."""
    total = 0
    for name in names:
        logical = engine.catalog.get_logical(name)
        original = engine.catalog.original_physical(logical.id)
        total += sum(
            gop.nbytes for gop in engine.catalog.gops_of_physical(original.id)
        )
    return total


def engine_counters(engine: VSSEngine) -> dict:
    """``EngineStats`` as a dict, the shape the server's ``/metrics`` has."""
    return dataclasses.asdict(engine.stats())


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
def end_to_end(
    run: Run,
    length,
    rounds: list[RoundLog],
    ingest: list[list[tuple]],
    ingest_repeats: bool,
    stored_bytes: int,
    raw_bytes: int,
    rss_mb: float,
) -> dict:
    """The six end-to-end metrics from the untraced rounds.

    ``length(begin, end)`` measures a timed window: at nominal host speed
    (``run.clock.nominal``, what the suite reports) or in plain seconds
    (printed next to it).

    Rounds repeat identical work, so the *median round* is assembled
    window by window: each op's read-side time is its median across
    rounds, and the round is their sum.  One stalled op then costs one
    sample of one op, not a whole round.  ``ingest`` is one list of
    ``(frames, begin, end)`` steps per ingest round; when the rounds
    repeat the same steps (``ingest_repeats``) the median ingest round is
    assembled the same way, otherwise the metric is the median of the
    rounds' rates.
    """

    def median_round(rounds_of_windows) -> float:
        return sum(
            statistics.median(length(*window) for window in windows)
            for windows in zip(*rounds_of_windows)
        )

    per_op = []
    for index in range(len(rounds[0].ops)):
        samples = [
            length(*r.latency[index])
            for r in rounds
            if r.latency[index] is not None
        ]
        if samples:
            per_op.append(statistics.median(samples))
    if ingest_repeats:
        ingest_rate = sum(step[0] for step in ingest[0]) / median_round(
            [[step[1:] for step in steps] for steps in ingest]
        )
    else:
        ingest_rate = statistics.median(
            sum(step[0] for step in steps)
            / sum(length(*step[1:]) for step in steps)
            for steps in ingest
        )
    return {
        "setup_s": length(*run.setup_window),
        "read_p50_ms": statistics.median(per_op) * 1e3,
        "read_frames_per_s": rounds[0].frames
        / median_round([r.busy for r in rounds]),
        "ingest_frames_per_s": ingest_rate,
        "stored_bytes_per_raw_byte": stored_bytes / raw_bytes,
        "peak_rss_mb": rss_mb,
    }


@dataclass
class TracedRound:
    """Everything the per-layer metrics are computed from."""

    tracer: Tracer
    log: RoundLog
    cpu_s: float


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(traced: TracedRound, wall: float, untraced_wall: float) -> dict:
    """Every per-layer metric, from spans and counter deltas.

    ``wall`` and ``untraced_wall`` are the traced round's length and the
    untraced rounds' median length, both at nominal host speed.
    """
    summary = traced.tracer.summary()
    delta = {
        key: value - traced.log.before[key]
        for key, value in traced.log.after.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }
    rows = [s for s in traced.log.stats if s is not None]

    def span(name: str, column: str) -> float:
        return summary.get(name, {}).get(column, 0)

    codec_stage_s = (
        delta["codec_entropy_seconds"]
        + delta["codec_transform_seconds"]
        + delta["codec_compensate_seconds"]
    )
    values = {
        "codec.decode_s": span("codec.decode", "self_s"),
        "codec.encode_s": span("codec.encode", "self_s"),
        "codec.frames_decoded": delta["codec_frames_decoded"],
        "codec.frames_encoded": span("codec.encode", "n"),
        "codec.entropy_s": delta["codec_entropy_seconds"],
        "codec.transform_s": delta["codec_transform_seconds"],
        "codec.compensate_s": delta["codec_compensate_seconds"],
        "codec.decode_mb_per_s": _ratio(
            delta["codec_decoded_bytes"] / 1e6, codec_stage_s
        ),
        "planner.calls": span("planner.plan_read", "calls"),
        "planner.plan_s": span("planner.plan_read", "total_s"),
        "planner.plan_cache_hit_rate": _ratio(
            delta["plan_cache_hits"],
            delta["plan_cache_hits"] + delta["plan_cache_misses"],
        ),
        "planner.fragments_per_plan": _ratio(
            sum(s.fragments_used for s in rows), len(rows)
        ),
        "reader.execute_self_s": span("reader.execute", "self_s")
        + span("reader.iter_output", "self_s"),
        "reader.direct_serve_rate": _ratio(
            sum(1 for s in rows if s.direct_serve), len(rows)
        ),
        "reader.bytes_read": sum(s.bytes_read for s in rows),
        "reader.lookback_frames": sum(s.lookback_frames for s in rows),
        "resample.s": layer_totals(summary, "resample.", "self_s"),
        "decode_cache.hit_rate": _ratio(
            delta["decode_cache_hits"],
            delta["decode_cache_hits"] + delta["decode_cache_misses"],
        ),
        "decode_cache.evictions": delta["decode_cache_evictions"],
        "cache.admissions": span("cache.enforce_budget", "calls"),
        "cache.enforce_budget_s": span("cache.enforce_budget", "total_s"),
        "cache.evictions": span("cache.enforce_budget", "n"),
        "admission.enqueued": delta["admissions_enqueued"],
        "admission.coalesced": delta["admissions_coalesced"],
        "admission.dropped": delta["admissions_dropped"],
        "admission.drain_wait_s": traced.log.quiesce,
        "engine.read_self_s": span("engine.read", "self_s")
        + span("engine.read_stream", "self_s")
        + span("engine.stream_next", "self_s"),
        "engine.lock_shared_acq": delta["lock_shared_acquisitions"],
        "engine.lock_exclusive_acq": delta["lock_exclusive_acquisitions"],
        "catalog.calls": layer_totals(summary, "catalog.", "calls"),
        "catalog.self_s": layer_totals(summary, "catalog.", "self_s"),
        "layout.read_s": span("layout.read_gop", "total_s"),
        "layout.read_bytes": span("layout.read_gop", "n"),
        "layout.write_s": span("layout.write_gop", "total_s"),
        "layout.write_bytes": span("layout.write_gop", "n"),
        "writer.append_self_s": layer_totals(summary, "writer.", "self_s"),
        "writer.gops_written": span("layout.write_gop", "calls"),
        "search.extract_s": span("search.extract_physical", "total_s"),
        "search.index_rows": delta["search_index_rows"],
        "deferred.compress_s": span("deferred.compress_one", "total_s"),
        "deferred.bytes_saved": span("layout.compress_gop_file", "n"),
        "compaction.s": span("compaction.compact", "total_s"),
        "compaction.merges": span("compaction.compact", "n"),
        "jointcomp.optimize_s": span("jointcomp.optimize", "total_s"),
        "jointcomp.pairs_compressed": 0,
        "jointcomp.pairs_rejected": 0,
        "jointcomp.savings_fraction": 0.0,
        "wire.encode_s": span("wire.encode_frame", "total_s"),
        "wire.parse_s": span("wire.parse_frame", "total_s"),
        "wire.payload_bytes": span("wire.parse_frame", "n"),
        "client.overhead_p50_ms": 0.0,
        "client.read_p95_ms": 0.0,
        "server.served": 0,
        "server.rejected": 0,
        "server.peak_inflight": 0,
        "proc.cpu_s": traced.cpu_s,
        "proc.cpu_util": _ratio(
            traced.cpu_s, traced.log.window[1] - traced.log.window[0]
        ),
        "trace.spans": len(traced.tracer.spans),
        "trace.overhead_ratio": _ratio(wall, untraced_wall),
    }
    values.update(traced.log.extras)
    return values
