"""Read execution: decode the planned fragments and assemble the answer.

The planner (:mod:`repro.core.read_planner`) decided *which* fragments to
use; this module turns that plan into pixels:

* each chosen fragment is decoded over its interval — decoding starts at
  the containing GOP's I frame, so the look-back cost the planner modelled
  is physically paid here;
* fragment pixels are mapped into the requested ROI/resolution (with a
  fast path when a single fragment covers everything);
* output frames are sampled on the request's frame-rate grid; and
* compressed requests are re-encoded (or served byte-for-byte when the
  stored format already matches — no transcode, as in Figure 14's
  same-format reads).

GOPs are independent decode units (each opens with an I frame), so the
decode-and-assemble path fans its GOP loads/decodes across the store's
shared :class:`Executor`; results are reassembled in plan order, keeping
output pixels and stats deterministic.  A direct serve reads one stored
GOP per chunk, on the pulling thread.
A :class:`DecodeCache` short-circuits the decode entirely when a
sufficiently long prefix of the GOP was decoded by an earlier read.
Background work (search extraction, joint compression, tiling,
refinement) loads stored GOPs through :meth:`Reader.load_stored`, which
takes from that cache but never fills it.

:meth:`Reader.execute_batch` executes several plans with shared decode
work: the union of needed GOP windows is decoded once into a batch-local
:class:`BatchDecodeCache` overlay, so N overlapping reads pay for one
decode of each shared GOP instead of N.

Assembly is *chunked*: :meth:`Reader.iter_output` streams a plan's answer
as :class:`ReadChunk` increments whose peak resident pixels stay
O(GOP window × prefetch depth) regardless of the read's duration, and
:meth:`Reader.execute` is that stream drained (:func:`collect_chunks`).
Every read — in-process, batch member, stream, remote — therefore runs
one direct-serve loop, one pixel-format conversion and one encode
schedule: compressed output is re-encoded in blocks of up to
:data:`~repro.video.codec.blockcodec.LOCKSTEP_GOPS` output GOPs, the
width the encoder steps in lockstep anyway.  The chunk schedule is
computed statically from the catalog (no decoding), so concatenated
chunks equal the whole answer assembled at once, and it is computed
once per plan: the schedule, its identity chunks, the windows it reads
and a direct serve's records are kept on the plan (``ReadPlan.derived``)
and shared by every read of a plan-cached spec.  A read whose windows
are all in the decode cache builds its chunks on the calling thread;
one that decodes builds them on the executor (:meth:`Reader._prefetched`).

A decoded chunk is pasted into a fresh canvas, except an *identity
chunk*: one choice over the whole chunk, whose one cell is the
fragment's whole frame, reading a unit-step run of one window.  Its
pixels are that run of the window itself — the native decode-cache
entry when the canvas has the fragment's size, else the GOP's entry at
the canvas's size (a window from the GOP's first frame, resized whole
on a prefetch worker the first time and kept from the GOP's second
read on) — so a warm GOP-aligned raw read at full or reduced
resolution allocates and copies no pixels.  Hence the read contract:
every decoded chunk, and every answer collected from them, is read-only
(the decode cache freezes what it stores, and
:meth:`Reader.iter_output` freezes each chunk it hands out).
"""

from __future__ import annotations

import time
from collections import defaultdict, deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.decode_cache import BatchDecodeCache
from repro.core.layout import Layout
from repro.core.read_planner import IntervalChoice, ReadPlan
from repro.core.records import ROI, GopRecord
from repro.errors import ReadError
from repro.util import map_parallel
from repro.video.codec.blockcodec import LOCKSTEP_GOPS, CodecTimings
from repro.video.codec.container import EncodedGOP
from repro.video.codec.registry import codec_for
from repro.video.frame import VideoSegment, convert_segment
from repro.video.metrics import mse, segment_mse
from repro.video.resample import index_run, resize_segment

_EPS = 1e-9

#: The stages codec decode wall time splits into; :class:`ReadStats`,
#: ``EngineStats`` and the router's ``codec`` roll-up share these names.
DECODE_STAGES = (
    "codec_entropy_seconds",
    "codec_transform_seconds",
    "codec_compensate_seconds",
)


def decode_mb_per_s(totals) -> float:
    """Codec decode throughput: decoded MB per stage-second.

    ``totals`` maps :data:`DECODE_STAGES` and ``codec_decoded_bytes`` to
    sums — one read's, an engine's or a cluster's — so a rate is always
    derived from summed totals, never averaged.  0.0 when nothing was
    decoded.
    """
    seconds = sum(totals[stage] for stage in DECODE_STAGES)
    if seconds <= 0.0 or totals["codec_decoded_bytes"] == 0:
        return 0.0
    return totals["codec_decoded_bytes"] / 1e6 / seconds


#: Sentinel distinguishing "use the reader's cache" from an explicit None.
_DEFAULT_CACHE = object()


@dataclass
class ReadStats:
    """Execution statistics surfaced with every read."""

    planned_cost: float = 0.0
    wall_seconds: float = 0.0
    frames_decoded: int = 0
    lookback_frames: int = 0
    bytes_read: int = 0
    fragments_used: int = 0
    direct_serve: bool = False
    resample_mse: float = 0.0
    #: Measured loss of converting the RGB canvas to the request's pixel
    #: format (rgb -> format -> rgb on the first frame); 0.0 for rgb.
    format_mse: float = 0.0
    output_bpp: float = 0.0
    gop_ids_touched: list[int] = field(default_factory=list)
    decode_cache_hits: int = 0
    decode_cache_misses: int = 0
    #: True when the read's plan came from the engine's versioned plan
    #: cache (no planner run, no fragment query).
    plan_cached: bool = False
    #: Views the request's name resolved through (outermost first);
    #: empty for a read addressed directly at a logical video.
    view_chain: list[str] = field(default_factory=list)
    #: Tile accounting (``repro.tiles``), copied from the plan: how many
    #: tile physicals overlapped the request window, how many the plan
    #: actually decodes, and the stored bytes of overlapping tiles the
    #: ROI let the read skip.  All zero for untiled videos.
    tiles_total: int = 0
    tiles_decoded: int = 0
    tile_bytes_skipped: int = 0
    #: Codec decode fast-path stage counters, summed over this read's GOP
    #: decodes (see :class:`repro.video.codec.blockcodec.CodecTimings` for
    #: the stage attribution).  Cache-served windows contribute nothing —
    #: they decoded nothing — and ``codec_decoded_bytes`` counts decoded
    #: *output* pixel bytes, so ``decode_mb_per_s`` is the read's realised
    #: codec decode throughput.
    codec_entropy_seconds: float = 0.0
    codec_transform_seconds: float = 0.0
    codec_compensate_seconds: float = 0.0
    codec_decoded_bytes: int = 0
    #: Codec encode counters of a transcoding read (compressed output that
    #: is not a direct serve), from the same :class:`CodecTimings`: the
    #: calling thread's recurrence time, the deflate tasks' summed run
    #: time (they overlap it on pool threads, so the two add up to work,
    #: not wall time), and the frames encoded.
    codec_encode_recurrence_seconds: float = 0.0
    codec_encode_entropy_seconds: float = 0.0
    codec_frames_encoded: int = 0

    def add_encode_timings(self, timings: CodecTimings) -> None:
        """Fold one ``encode_segment`` call's counters into the read."""
        self.codec_encode_recurrence_seconds += timings.encode_recurrence_seconds
        self.codec_encode_entropy_seconds += timings.encode_entropy_seconds
        self.codec_frames_encoded += timings.frames_encoded

    @property
    def codec_decode_seconds(self) -> float:
        """Total wall time inside the codec decode stages."""
        return sum(getattr(self, stage) for stage in DECODE_STAGES)

    @property
    def decode_mb_per_s(self) -> float:
        """This read's :func:`decode_mb_per_s`."""
        return decode_mb_per_s(vars(self))

    @classmethod
    def for_plan(cls, plan: ReadPlan) -> "ReadStats":
        """Stats pre-filled with the plan-derived fields."""
        stats = cls(planned_cost=plan.estimated_cost)
        stats.fragments_used = plan.num_fragments_used
        stats.tiles_total = plan.tiles_total
        stats.tiles_decoded = plan.tiles_decoded
        stats.tile_bytes_skipped = plan.tile_bytes_skipped
        return stats


@dataclass
class BatchStats:
    """Shared-work accounting for one ``Reader.execute_batch`` call.

    ``window_requests`` counts GOP decode windows over all reads in the
    batch; ``unique_gops`` counts them after dedup, so the difference is
    the decode work the batch shared.  ``gops_decoded`` is the number of
    decodes actually performed — it can be smaller than ``unique_gops``
    when the store's decode cache already covered some windows.
    """

    num_reads: int = 0
    window_requests: int = 0
    unique_gops: int = 0
    gops_decoded: int = 0

    @property
    def gops_shared(self) -> int:
        """Decode windows served by another read's (or a prior) decode."""
        return self.window_requests - self.unique_gops

    def merge(self, other: "BatchStats") -> None:
        self.num_reads += other.num_reads
        self.window_requests += other.window_requests
        self.unique_gops += other.unique_gops
        self.gops_decoded += other.gops_decoded


@dataclass
class ReadResult:
    """The answer to a read: a raw segment or encoded GOPs, plus stats.

    ``plan`` is the plan that produced it, or None for an answer that
    came over the wire (the plan stayed on the server).  An in-process
    ``segment``'s pixels are read-only (see :class:`ReadChunk`); a
    remote one's are the client's own, writable buffer.
    """

    plan: ReadPlan | None
    segment: VideoSegment | None
    gops: list[EncodedGOP] | None
    stats: ReadStats

    def as_segment(self) -> VideoSegment:
        """The result as decoded video (decoding GOPs if necessary)."""
        if self.segment is not None:
            return self.segment
        decoded = [codec_for(g.codec).decode_gop(g) for g in self.gops]
        return decoded[0].concatenate(decoded)

    @property
    def nbytes(self) -> int:
        if self.gops is not None:
            return sum(g.nbytes for g in self.gops)
        return self.segment.nbytes


@dataclass
class ReadChunk:
    """One increment of a streamed read (:meth:`Reader.iter_output`).

    Exactly one of ``segment``/``gops`` is set: decoded chunks carry a
    segment in the request's pixel format; encoded chunks carry GOPs
    (one direct-served stored GOP, or one re-encoded block of output
    GOPs).  A decoded chunk's pixels are read-only, and may be a view
    of a decode-cache entry that keeps that whole decoded GOP alive;
    copy them before writing.
    ``gop_ids`` are the catalog GOPs whose pages this chunk consumed —
    the engine stamps their LRU entries as the chunk is pulled.
    """

    index: int
    start_time: float
    end_time: float
    segment: VideoSegment | None
    gops: list[EncodedGOP] | None
    gop_ids: list[int] = field(default_factory=list)

    @property
    def num_frames(self) -> int:
        if self.segment is not None:
            return self.segment.num_frames
        return sum(g.num_frames for g in self.gops)

    @property
    def nbytes(self) -> int:
        if self.segment is not None:
            return self.segment.nbytes
        return sum(g.nbytes for g in self.gops)


def collect_chunks(
    chunks: Iterable[ReadChunk],
) -> tuple[VideoSegment | None, list[EncodedGOP] | None]:
    """Fold a chunk stream into ``(segment, gops)``, one of them None.

    Decoded chunks concatenate into one segment, as writable as the
    chunks were (read-only in-process, the caller's own from a remote
    stream); otherwise the GOP runs flatten into one list — the shape
    every ``collect()`` (in-process and both remote streams) wraps in
    its own result type.
    """
    segments: list[VideoSegment] = []
    gops: list[EncodedGOP] = []
    for chunk in chunks:
        if chunk.segment is not None:
            segments.append(chunk.segment)
        if chunk.gops is not None:
            gops.extend(chunk.gops)
    if not segments:
        return None, gops
    if len(segments) == 1:
        return segments[0], None
    joined = segments[0].concatenate(segments)
    joined.pixels.flags.writeable = segments[0].pixels.flags.writeable
    return joined, None


@dataclass
class _GopWindow:
    """One worker's output: a decoded GOP window plus its stat deltas.

    ``cache_hit`` is None when the window was not decode-cache eligible
    (cache disabled or a joint GOP) — such windows count as neither hit
    nor miss.  ``timings`` carries the codec's per-stage decode counters
    when the window went through the compressed fast path (None for raw
    GOPs and cache hits); like the other deltas it travels with the
    pixels so the consumer folds stats in deterministic order.
    ``resample_error`` is set when ``segment`` is the window already
    resized to the canvas (:meth:`Reader._resized_window`): it gives the
    measured error of its first frame, the one the paste would have
    sampled, and is called only when the read still needs that sample.
    """

    segment: VideoSegment
    frames_decoded: int
    lookback_frames: int
    bytes_read: int
    cache_hit: bool | None
    timings: CodecTimings | None = None
    resample_error: Callable[[], float] | None = None


@dataclass(frozen=True, eq=False)
class _ChoiceSchedule:
    """Static decode/paste plan for one :class:`IntervalChoice`.

    Derived once per plan from catalog metadata before any pixel is
    decoded (:meth:`Reader._derive`), and shared, read-only, by every
    read of that plan, concurrent ones included: ``bounds`` are each
    record's ``(first needed frame, stop frame)`` window, ``offsets``
    the cumulative window frame counts, ``t0``/``fps_src`` anchor the
    choice's decoded frame run on the timeline, ``out_idx`` lists the
    global output frames the choice serves, and ``src_full`` maps each
    of them to a frame index in the run — the same floor/clip arithmetic
    the monolithic assembler used, so chunked pastes pick identical
    source frames.  ``whole_frame`` is True when the choice's one cell
    maps the fragment's whole frame onto the whole canvas (no crop);
    ``size`` is the canvas's ``(width, height)``, which differs from the
    fragment's when the choice resizes.  The decoded windows a read
    still needs for its later chunks are that read's own
    (:meth:`Reader._iter_decoded`), never kept here.
    """

    choice: IntervalChoice
    records: list[GopRecord]
    bounds: list[tuple[int, int]]
    offsets: np.ndarray
    n_frames: int
    t0: float
    fps_src: float
    out_idx: np.ndarray
    src_full: np.ndarray
    whole_frame: bool
    size: tuple[int, int]


@dataclass(frozen=True)
class _ChunkOp:
    """One choice's share of one chunk: which of ``ctx.out_idx`` fall in
    the chunk (positions ``[p0, p1)``), which records to decode while
    handling it (``decode_js`` — each record decodes in exactly one
    chunk), which decoded windows the paste needs (``j_lo..j_hi``), and
    which may be dropped afterwards (below ``keep_from``)."""

    ctx: _ChoiceSchedule
    p0: int
    p1: int
    decode_js: list[int]
    j_lo: int
    j_hi: int
    keep_from: int


@dataclass(frozen=True)
class _Chunk:
    """Output frames ``[lo, hi)`` of a plan's decoded answer and each
    choice's share of them.  ``identity`` is the run of window frames
    the chunk shows when it is an identity chunk (:func:`_identity_run`),
    else None; ``resized_j`` is the window it may show resized
    (:func:`_resized_identity`), else None."""

    lo: int
    hi: int
    ops: list[_ChunkOp]
    identity: slice | None
    resized_j: int | None


@dataclass(frozen=True)
class _Derived:
    """What the reader derives from a plan alone, kept on the plan
    (``ReadPlan.derived``) by its first execution.

    ``direct`` is the plan's :meth:`Reader._direct_serve_records`.  When
    that is None, ``chunks`` is its decode schedule
    (:meth:`Reader._decode_schedule`) and ``windows`` the ``(GOP id,
    stop frame)`` of every window the schedule reads, or None when one
    is a joint GOP's, which the decode cache never holds.
    """

    direct: list[GopRecord] | None
    chunks: list[_Chunk] = field(default_factory=list)
    windows: tuple[tuple[int, int], ...] | None = None


#: Sentinel marking iterator exhaustion inside the prefetch pipeline.
_DONE = object()


class Reader:
    """Executes :class:`ReadPlan` objects against the store.

    ``executor`` parallelizes per-GOP work (None = serial);
    ``decode_cache`` reuses decoded GOP prefixes across reads (None = off).
    """

    def __init__(
        self,
        layout: Layout,
        catalog,
        executor=None,
        decode_cache=None,
    ):
        self.layout = layout
        self.catalog = catalog
        self.executor = executor
        self.decode_cache = decode_cache

    # ------------------------------------------------------------------
    def execute(
        self, plan: ReadPlan, decode_cache=_DEFAULT_CACHE
    ) -> ReadResult:
        """Execute one plan: :meth:`iter_output` drained into one result.

        ``decode_cache`` overrides the reader's store-wide cache for this
        call (``Reader.execute_batch`` passes a batch-local overlay);
        leave it unset to use the store cache.
        """
        start_wall = time.perf_counter()
        stats = ReadStats.for_plan(plan)
        segment, gops = collect_chunks(
            self.iter_output(plan, stats, decode_cache)
        )
        stats.wall_seconds = time.perf_counter() - start_wall
        return ReadResult(plan, segment, gops, stats)

    def _derive(self, plan: ReadPlan) -> _Derived:
        """The plan's :class:`_Derived`, computed by its first read and
        kept on the plan for every later one.

        Two reads racing on a fresh plan may both derive it; they derive
        equal values, and either may be the one kept.
        """
        derived = plan.derived
        if derived is None:
            direct = self._direct_serve_records(plan)
            derived = (
                _Derived(direct)
                if direct is not None
                else _Derived(None, *self._decode_schedule(plan))
            )
            plan.derived = derived
        return derived

    # ------------------------------------------------------------------
    # direct byte serving (no transcode)
    # ------------------------------------------------------------------
    def _direct_serve_records(self, plan: ReadPlan) -> list[GopRecord] | None:
        """The GOP records a byte-for-byte serve would ship, or None when
        the plan is ineligible (format/fps/ROI mismatch, unaligned
        boundaries, or joint GOPs needing reconstruction)."""
        if plan.request.codec == "raw" or not plan.is_stored_answer():
            return None
        choice = plan.choices[0]
        if choice.cells != [plan.roi]:
            return None
        request = plan.request
        gops = choice.fragment.gops_overlapping(request.start, request.end)
        if not gops:
            return None
        if (
            abs(gops[0].start_time - request.start) > 1e-6
            or abs(gops[-1].end_time - request.end) > 1e-6
        ):
            return None  # boundaries unaligned; fall back to transcode path
        if any(record.joint_pair_id is not None for record in gops):
            return None  # joint GOPs need reconstruction
        return gops

    # ------------------------------------------------------------------
    # batched execution (shared decode work)
    # ------------------------------------------------------------------
    def execute_batch(
        self, plans: list[ReadPlan]
    ) -> tuple[list[ReadResult], BatchStats]:
        """Execute several plans, decoding each shared GOP window once.

        The union of GOP decode windows over all plans is computed first
        (per GOP: the deepest stop frame any plan needs), each window is
        decoded once — fanned across the executor — into a
        :class:`BatchDecodeCache` overlay, and the plans then execute
        against the overlay, so N overlapping reads pay for one decode of
        each shared GOP instead of N.  The first read of such a GOP
        reports that decode as its own miss; the others, hits.
        """
        batch = BatchStats(num_reads=len(plans))
        overlay = BatchDecodeCache(self.decode_cache)
        # gop_id -> (record, deepest stop frame needed)
        needed: dict[int, tuple[GopRecord, int]] = {}
        for plan in plans:
            if self._derive(plan).direct is not None:
                continue  # byte-served: no decode work to share
            for choice in plan.choices:
                fps = choice.fragment.physical.fps
                for record in choice.fragment.gops_overlapping(
                    choice.start, choice.end
                ):
                    if record.joint_pair_id is not None:
                        continue  # rebuilt from pair pieces; never cached
                    _, stop = self._window_bounds(
                        record, fps, choice.start, choice.end
                    )
                    batch.window_requests += 1
                    current = needed.get(record.id)
                    if current is None or stop > current[1]:
                        needed[record.id] = (record, stop)
        batch.unique_gops = len(needed)

        def warm(entry: tuple[GopRecord, int]) -> int:
            record, stop = entry
            if overlay.peek(record.id, stop) is not None:
                return 0  # an earlier read already decoded this deep
            # The first read of the GOP counts this decode, its frames
            # and timings as its own (BatchDecodeCache.take).
            overlay.put_ahead(
                record.id, *self._decode_into(None, record, stop, CodecTimings())
            )
            return 1

        batch.gops_decoded = sum(
            map_parallel(self.executor, warm, list(needed.values()))
        )
        results = [self.execute(plan, decode_cache=overlay) for plan in plans]
        return results, batch

    # ------------------------------------------------------------------
    # chunked decode-and-assemble path
    # ------------------------------------------------------------------
    @staticmethod
    def _grid(plan: ReadPlan) -> tuple[int, np.ndarray]:
        """The output frame grid: (total frames, per-frame sample times)."""
        request = plan.request
        fps = plan.target_fps
        total = max(1, int(round((request.end - request.start) * fps)))
        return total, request.start + (np.arange(total) + 0.5) / fps

    def _decode_schedule(
        self, plan: ReadPlan
    ) -> tuple[list[_Chunk], tuple[tuple[int, int], ...] | None]:
        """Statically partition a plan into chunks of output frames, and
        list the ``(GOP id, stop frame)`` windows they read (None when a
        joint GOP is among them).

        Chunk boundaries fall wherever some choice activates a new source
        GOP window, so handling one chunk decodes at most a handful of
        windows per choice.  Every record overlapping a served choice is
        assigned to exactly one chunk (unserved look-back/trailing
        records included, matching the monolithic assembler's decode
        coverage and stats), and the paste arithmetic reuses the global
        frame grid, so concatenated chunks equal the one-shot canvas.
        """
        total, frame_times = self._grid(plan)
        ctxs: list[_ChoiceSchedule] = []
        windows: list[tuple[int, int]] = []
        joint = False
        cuts = {0, total}
        for choice in plan.choices:
            mask = (frame_times >= choice.start - _EPS) & (
                frame_times < choice.end - _EPS
            )
            out_idx = np.nonzero(mask)[0]
            if out_idx.size == 0:
                continue
            fragment = choice.fragment
            records = fragment.gops_overlapping(choice.start, choice.end)
            if not records:
                raise ReadError(
                    f"fragment {fragment.physical.id} has no GOPs in "
                    f"[{choice.start}, {choice.end})"
                )
            fps_src = fragment.physical.fps
            bounds = [
                self._window_bounds(r, fps_src, choice.start, choice.end)
                for r in records
            ]
            windows.extend((r.id, stop) for r, (_, stop) in zip(records, bounds))
            joint = joint or any(r.joint_pair_id is not None for r in records)
            offsets = np.concatenate(
                [[0], np.cumsum([stop - first for first, stop in bounds])]
            ).astype(np.int64)
            n_frames = int(offsets[-1])
            t0 = records[0].start_time + bounds[0][0] / fps_src
            src_full = np.clip(
                np.floor((frame_times[out_idx] - t0) * fps_src).astype(
                    np.int64
                ),
                0,
                n_frames - 1,
            )
            first_pos = np.searchsorted(src_full, offsets, side="left")
            for j in range(len(records)):
                if first_pos[j] < first_pos[j + 1]:
                    cuts.add(int(out_idx[first_pos[j]]))
            size = (plan.target.width, plan.target.height)
            frag_size = (fragment.physical.width, fragment.physical.height)
            whole_frame = _choice_rects(choice, plan, size) == [
                ((0, 0, *frag_size), (0, 0, *size))
            ]
            ctxs.append(
                _ChoiceSchedule(
                    choice, records, bounds, offsets, n_frames, t0, fps_src,
                    out_idx, src_full, whole_frame, size,
                )
            )
        boundaries = sorted(cuts)
        chunks: list[_Chunk] = []
        cursors = [0] * len(ctxs)
        for lo, hi in zip(boundaries, boundaries[1:]):
            ops: list[_ChunkOp] = []
            for k, ctx in enumerate(ctxs):
                p0, p1 = np.searchsorted(ctx.out_idx, [lo, hi])
                if p0 == p1:
                    continue
                j_lo = int(
                    np.searchsorted(ctx.offsets, ctx.src_full[p0], "right")
                ) - 1
                j_hi = int(
                    np.searchsorted(ctx.offsets, ctx.src_full[p1 - 1], "right")
                ) - 1
                decode_js = list(range(cursors[k], j_hi + 1))
                cursors[k] = max(cursors[k], j_hi + 1)
                if p1 == ctx.out_idx.size:
                    # Final chunk for this choice: also decode its
                    # trailing records, preserving the non-chunked
                    # path's full decode coverage and cost accounting.
                    decode_js.extend(range(cursors[k], len(ctx.records)))
                    cursors[k] = len(ctx.records)
                    keep_from = len(ctx.records)
                else:
                    keep_from = int(
                        np.searchsorted(ctx.offsets, ctx.src_full[p1], "right")
                    ) - 1
                ops.append(
                    _ChunkOp(
                        ctx, int(p0), int(p1), decode_js, j_lo, j_hi, keep_from
                    )
                )
            run = _identity_run(ops, hi - lo)
            chunks.append(_Chunk(lo, hi, ops, run, _resized_identity(ops, run)))
        return chunks, None if joint else tuple(windows)

    def _build_windows(self, chunk: _Chunk, decode_cache) -> list[list]:
        """Decode (and RGB-convert) the windows one chunk's ops call for.

        Runs as one build of :meth:`_prefetched`; per-window stat deltas
        travel with the pixels so the consumer can fold them in
        deterministic order.  The window of a resized identity chunk
        (:func:`_resized_identity`) comes already resized, from the
        decode cache when it holds it.
        """
        cacheable = decode_cache is not None and decode_cache.enabled
        built = []
        for op in chunk.ops:
            ctx = op.ctx
            decoded = []
            for j in op.decode_js:
                record = ctx.records[j]
                first_needed, stop = ctx.bounds[j]
                if j == chunk.resized_j and cacheable:
                    window = self._resized_window(
                        record, stop, ctx.size, decode_cache
                    )
                    decoded.append((j, record.id, window.segment, window))
                    continue
                window = self._decode_gop_window(
                    record, first_needed, stop, decode_cache
                )
                rgb = convert_segment(window.segment, "rgb")
                decoded.append((j, record.id, rgb, window))
            built.append(decoded)
        return built

    def _resized_window(
        self,
        record: GopRecord,
        stop: int,
        size: tuple[int, int],
        decode_cache,
    ) -> _GopWindow:
        """A GOP's frames ``[0, stop)`` whole-frame resized to ``size``.

        The decode cache's resized entry serves it when it holds one
        (a hit: nothing decoded, resized or measured); otherwise the
        native window is taken as usual — a native hit or a decode —
        then resized.  The result is offered to the cache as the GOP's
        entry at ``size``, with its first frame's error measured, only
        when the native window was a hit, i.e. from the GOP's second read
        on, so a pass of reads that each see a GOP once keeps no resized
        copies; otherwise the error is measured only if the read asks
        for it.
        """
        hit = decode_cache.get_resized(record.id, stop, size)
        if hit is not None:
            segment, error = hit
            return _GopWindow(
                segment, 0, 0, 0, True, resample_error=lambda: error
            )
        window = self._decode_gop_window(record, 0, stop, decode_cache)
        rgb = convert_segment(window.segment, "rgb")
        resized = resize_segment(rgb, *size)
        if window.cache_hit:
            error = _resample_error_sample(rgb, resized)
            decode_cache.put_resized(record.id, stop, resized, error)
            measure = lambda: error  # noqa: E731
        else:
            measure = lambda: _resample_error_sample(rgb, resized)  # noqa: E731
        return replace(window, segment=resized, resample_error=measure)

    def _prefetched(self, derived: _Derived, build, decode_cache):
        """Yield ``build(chunk)`` for each of the plan's chunks, in order.

        A read builds on the calling thread, each chunk as it is pulled,
        when nothing could run ahead (a serial store) or nothing needs
        to: every window it reads answers ``decode_cache.peek`` (a joint
        GOP's never does), so no build decodes, and a hop through the
        pool and back would cost more than the build.  Any read that
        will decode — a one-chunk read too — stays on the pool: building
        every one-chunk read on the caller raised ``ingest_follow``'s
        ``read_p50_ms`` from 14.5–16.1 to 19.0–20.2 ms in 3 of 3
        benchmark pairs on a 2-core host.  There, up to ``parallelism``
        chunk builds run ahead of the consumer — enough to keep every
        worker busy while holding only O(parallelism) decoded windows in
        memory.
        """
        windows = derived.windows
        if (
            self.executor is None
            or self.executor.parallelism == 1
            or (
                windows is not None
                and decode_cache is not None
                and all(decode_cache.peek(*w) is not None for w in windows)
            )
        ):
            for chunk in derived.chunks:
                yield build(chunk)
            return
        pending: deque = deque()
        iterator = iter(derived.chunks)
        try:
            while True:
                while len(pending) < self.executor.parallelism:
                    chunk = next(iterator, _DONE)
                    if chunk is _DONE:
                        break
                    pending.append(self.executor.submit(build, chunk))
                if not pending:
                    return
                yield pending.popleft().result()
        finally:
            while pending:
                pending.popleft().cancel()

    def _iter_decoded(
        self, plan: ReadPlan, derived: _Derived, stats: ReadStats, decode_cache
    ):
        """Generate the RGB answer as :class:`ReadChunk` pieces, each
        allocating at most its own frames (an identity chunk, none)."""
        target = plan.target
        fps_out = plan.target_fps
        # Per choice, the decoded (RGB) windows later chunks still need:
        # this read's own, since the schedule is every read's.
        carry: defaultdict[_ChoiceSchedule, dict[int, VideoSegment]] = (
            defaultdict(dict)
        )

        def build(chunk: _Chunk):
            return chunk, self._build_windows(chunk, decode_cache)

        for index, (chunk, built) in enumerate(
            self._prefetched(derived, build, decode_cache)
        ):
            lo, hi = chunk.lo, chunk.hi
            gop_ids: list[int] = []
            for op, decoded in zip(chunk.ops, built):
                windows = carry[op.ctx]
                for j, record_id, rgb, window in decoded:
                    windows[j] = rgb
                    stats.gop_ids_touched.append(record_id)
                    gop_ids.append(record_id)
                    stats.bytes_read += window.bytes_read
                    stats.frames_decoded += window.frames_decoded
                    stats.lookback_frames += window.lookback_frames
                    if window.cache_hit is True:
                        stats.decode_cache_hits += 1
                    elif window.cache_hit is False:
                        stats.decode_cache_misses += 1
                    if (
                        window.resample_error is not None
                        and stats.resample_mse == 0.0
                    ):
                        stats.resample_mse = window.resample_error()
                    if window.timings is not None:
                        stats.codec_entropy_seconds += window.timings.entropy_seconds
                        stats.codec_transform_seconds += (
                            window.timings.transform_seconds
                        )
                        stats.codec_compensate_seconds += (
                            window.timings.compensate_seconds
                        )
                        stats.codec_decoded_bytes += window.timings.decoded_bytes
            chunk_pixels = _identity_view(chunk, carry)
            if chunk_pixels is None:
                chunk_pixels = np.zeros(
                    (hi - lo, target.height, target.width, 3), dtype=np.uint8
                )
                for op in chunk.ops:
                    ctx = op.ctx
                    pieces = [
                        carry[ctx][j] for j in range(op.j_lo, op.j_hi + 1)
                    ]
                    source = (
                        pieces[0]
                        if len(pieces) == 1
                        else pieces[0].concatenate(pieces)
                    )
                    self._paste(
                        chunk_pixels,
                        ctx.out_idx[op.p0:op.p1] - lo,
                        source,
                        ctx.src_full[op.p0:op.p1] - int(ctx.offsets[op.j_lo]),
                        ctx.choice,
                        plan,
                        stats,
                    )
            for op in chunk.ops:
                windows = carry[op.ctx]
                for j in [j for j in windows if j < op.keep_from]:
                    del windows[j]
            segment = VideoSegment(
                pixels=chunk_pixels,
                pixel_format="rgb",
                height=target.height,
                width=target.width,
                fps=fps_out,
                start_time=plan.request.start + lo / fps_out,
            )
            yield ReadChunk(
                index, segment.start_time, segment.end_time,
                segment, None, gop_ids,
            )

    # ------------------------------------------------------------------
    # streamed output
    # ------------------------------------------------------------------
    def iter_output(
        self,
        plan: ReadPlan,
        stats: ReadStats | None = None,
        decode_cache=_DEFAULT_CACHE,
    ):
        """Stream one plan's output as :class:`ReadChunk` increments.

        Peak resident pixels stay O(GOP window × prefetch depth)
        regardless of the read's duration: direct-served plans ship one
        stored GOP per chunk without decoding; raw requests yield one
        converted canvas piece per source-GOP activation; compressed
        requests re-encode in blocks of up to ``LOCKSTEP_GOPS`` output
        GOPs (:meth:`_iter_encoded`).  ``stats`` (optional, caller-owned)
        accumulates as chunks are pulled and is complete once the
        generator is exhausted.  :meth:`execute` is this generator
        drained.
        """
        if stats is None:
            stats = ReadStats.for_plan(plan)
        if decode_cache is _DEFAULT_CACHE:
            decode_cache = self.decode_cache
        derived = self._derive(plan)
        if derived.direct is not None:
            stats.direct_serve = True
            for index, record in enumerate(derived.direct):
                encoded = self._read_gop_file(record).with_start_time(
                    record.start_time
                )
                stats.bytes_read += record.nbytes
                stats.gop_ids_touched.append(record.id)
                yield ReadChunk(
                    index, record.start_time, record.end_time,
                    None, [encoded], [record.id],
                )
            return
        # Raw and compressed output alike leave the canvas in the
        # request's pixel format.  Conversion is per frame, so chunk by
        # chunk gives the bytes of the whole canvas converted at once;
        # the loss is sampled on the answer's first frame.
        chunks = (
            replace(
                chunk,
                segment=_frozen(
                    _to_request_format(
                        plan, stats, chunk.segment, sample=chunk.index == 0
                    )
                ),
            )
            for chunk in self._iter_decoded(plan, derived, stats, decode_cache)
        )
        if plan.request.codec == "raw":
            yield from chunks
        else:
            yield from self._iter_encoded(plan, stats, chunks)

    def _iter_encoded(
        self, plan: ReadPlan, stats: ReadStats, chunks: Iterable[ReadChunk]
    ):
        """Re-encode the decoded stream in blocks of ``LOCKSTEP_GOPS``
        output GOPs, one chunk per block.

        That is the width ``encode_segment`` steps in lockstep, so a
        block is one full encoder pass: the same encoder work a
        whole-answer encode does, in memory bounded by the block.  GOPs
        encode independently and are stamped with the start times a
        whole-answer encode gives them, so the output does not depend on
        where a block boundary falls.
        """
        request = plan.request
        codec = codec_for(request.codec)
        fps_out = plan.target_fps
        gop_size = max(1, int(round(fps_out)))
        block_frames = LOCKSTEP_GOPS * gop_size
        target = plan.target
        buffered: list[np.ndarray] = []
        buffered_frames = 0
        emitted = 0
        index = 0
        pending_gop_ids: list[int] = []
        bpps: list[float] = []

        def emit(frames: int) -> ReadChunk:
            nonlocal buffered, buffered_frames, emitted, index
            nonlocal pending_gop_ids
            stack = (
                buffered[0]
                if len(buffered) == 1
                else np.concatenate(buffered, axis=0)
            )
            block_pixels, rest = stack[:frames], stack[frames:]
            buffered = [rest] if rest.size else []
            buffered_frames -= frames
            block = VideoSegment(
                pixels=block_pixels,
                pixel_format=request.pixel_format,
                height=target.height,
                width=target.width,
                fps=fps_out,
                start_time=request.start + emitted / fps_out,
            )
            timings = CodecTimings()
            gops = [
                gop.with_start_time(
                    request.start + (emitted + k * gop_size) / fps_out
                )
                for k, gop in enumerate(
                    codec.encode_segment(
                        block,
                        qp=request.qp,
                        gop_size=gop_size,
                        executor=self.executor,
                        timings=timings,
                    )
                )
            ]
            stats.add_encode_timings(timings)
            bpps.extend(g.bits_per_pixel for g in gops)
            chunk = ReadChunk(
                index, block.start_time, block.end_time,
                None, gops, pending_gop_ids,
            )
            pending_gop_ids = []
            emitted += frames
            index += 1
            return chunk

        for chunk in chunks:
            buffered.append(chunk.segment.pixels)
            buffered_frames += chunk.segment.num_frames
            pending_gop_ids.extend(chunk.gop_ids)
            while buffered_frames >= block_frames:
                yield emit(block_frames)
        if buffered_frames:
            yield emit(buffered_frames)
        if bpps:
            stats.output_bpp = float(np.mean(bpps))

    @staticmethod
    def _window_bounds(
        record: GopRecord, fps: float, start: float, end: float
    ) -> tuple[int, int]:
        """(first needed frame, stop frame) of a GOP for ``[start, end)``."""
        first_needed = max(
            0, int(np.floor((start - record.start_time) * fps + 1e-6))
        )
        stop = min(
            record.num_frames,
            int(np.ceil((end - record.start_time) * fps - 1e-6)),
        )
        stop = max(stop, first_needed + 1)
        stop = min(stop, record.num_frames)
        return first_needed, stop

    def _decode_gop_window(
        self, record: GopRecord, first_needed: int, stop: int, decode_cache
    ) -> _GopWindow:
        """Decode frames ``[first_needed, stop)`` of one GOP.

        Frames before the window inside the GOP are decoded anyway (the
        look-back dependency chain) and then dropped — unless the decode
        cache already holds a prefix that covers the window, in which
        case no bytes are read and no frames are decoded at all.
        """
        # Joint GOPs are rebuilt from shared pair pieces rather than their
        # own page file; never cache them.
        cacheable = (
            decode_cache is not None
            and decode_cache.enabled
            and record.joint_pair_id is None
        )
        counted = cacheable and decode_cache.counted
        if cacheable:
            prefix = decode_cache.get(record.id, stop)
            if prefix is not None:
                if first_needed:
                    prefix = prefix.slice_frames(first_needed, stop)
                return _GopWindow(prefix, 0, 0, 0, True if counted else None)
        # A GOP a batch decoded ahead (perhaps past this read's stop) is
        # this read's decode.
        ahead = decode_cache.take(record.id) if cacheable else None
        decoded, timings = ahead or self._decode_into(
            decode_cache if cacheable else None, record, stop, CodecTimings()
        )
        if timings is not None:
            frames_decoded, lookback = decoded.num_frames, first_needed
        else:
            # Raw frames are independently decodable; skip the prefix.
            frames_decoded, lookback = stop - first_needed, 0
        return _GopWindow(
            decoded.slice_frames(first_needed, stop),
            frames_decoded,
            lookback,
            record.nbytes,
            False if counted else None,
            timings,
        )

    def _decode_into(
        self,
        cache,
        record: GopRecord,
        stop: int,
        timings: CodecTimings,
    ) -> tuple[VideoSegment, CodecTimings | None]:
        """Decode a GOP's frames ``[0, stop)`` — all of a raw GOP, whose
        frames need no look-back — on the executor and put them in
        ``cache`` (None: nowhere).  Returns them and ``timings``, which
        the decode filled in (None for a raw GOP)."""
        encoded = self._load_gop(record)
        codec = codec_for(encoded.codec)
        if codec.is_compressed:
            decoded = codec.decode_gop_frames(
                encoded, stop, executor=self.executor, timings=timings
            )
        else:
            decoded, stop = codec.decode_gop(encoded), record.num_frames
            timings = None
        if cache is not None:
            cache.put(record.id, stop, decoded)
        return decoded, timings

    def load_stored(
        self, record: GopRecord, stop: int | None = None
    ) -> VideoSegment:
        """Frames ``[0, stop)`` of a stored GOP (default: all of them),
        for background work.

        A prefix the decode cache holds is taken from it (``peek``: no
        hit or miss counted, no LRU refresh); any other is decoded from
        its page (a joint GOP from its pair's pieces) on the calling
        thread, without the executor, and is not put in the cache.  So
        the cache and its counters keep describing reads alone.  A page
        gone since the caller's catalog snapshot raises
        :class:`ReadError`.
        """
        stop = record.num_frames if stop is None else stop
        if self.decode_cache is not None:
            segment = self.decode_cache.peek(record.id, stop)
            if segment is not None:
                return segment
        encoded = self._load_gop(record)
        return codec_for(encoded.codec).decode_gop_frames(encoded, stop)

    def _load_gop(self, record: GopRecord) -> EncodedGOP:
        if record.joint_pair_id is not None:
            # Joint GOPs are reconstructed from their shared pair pieces.
            from repro.jointcomp.recovery import recover_gop

            pair = self.catalog.get_joint_pair(record.joint_pair_id)
            return recover_gop(self.layout, pair, record)
        return self._read_gop_file(record).with_start_time(record.start_time)

    def _read_gop_file(self, record: GopRecord) -> EncodedGOP:
        try:
            return self.layout.read_gop(record.path)
        except FileNotFoundError:
            # A page's path never changes, so a missing file means the page
            # was evicted or deleted after this read was planned (a stream
            # pulls its chunks across separate lock holds).
            raise ReadError(
                f"GOP {record.id} ({record.path}) was evicted or deleted"
                " after the read was planned"
            ) from None

    # ------------------------------------------------------------------
    @staticmethod
    def _paste(
        canvas: np.ndarray,
        out_indices: np.ndarray,
        source: VideoSegment,
        src_indices: np.ndarray,
        choice: IntervalChoice,
        plan: ReadPlan,
        stats: ReadStats,
    ) -> None:
        """Write ``choice``'s cells of ``source`` frames ``src_indices``
        into ``canvas`` frames ``out_indices``, resizing where the two
        differ in scale.

        Each cell is read once, through a view of ``source`` (a decode-
        cache entry is never copied whole), and written once: straight
        into the canvas when the scales agree, by :func:`resize_segment`
        otherwise — into the canvas rectangle itself when the output
        frames are a run, else into a fresh array that is then scattered.
        """
        frames, dest = index_run(src_indices), index_run(out_indices)
        for rects in _choice_rects(
            choice, plan, (canvas.shape[2], canvas.shape[1])
        ):
            if rects is None:
                continue
            (fx0, fy0, fx1, fy1), (ox0, oy0, ox1, oy1) = rects
            window = source.pixels[frames, fy0:fy1, fx0:fx1]
            if (fx1 - fx0, fy1 - fy0) == (ox1 - ox0, oy1 - oy0):
                canvas[dest, oy0:oy1, ox0:ox1] = window
                continue
            piece = VideoSegment(
                pixels=window,
                pixel_format=source.pixel_format,
                height=fy1 - fy0,
                width=fx1 - fx0,
                fps=plan.target_fps,
                start_time=choice.start,
            )
            # A run of canvas frames is a view: the filter writes into it.
            out = (
                canvas[dest, oy0:oy1, ox0:ox1]
                if isinstance(dest, slice)
                else None
            )
            resized = resize_segment(piece, ox1 - ox0, oy1 - oy0, out=out)
            if stats.resample_mse == 0.0:
                stats.resample_mse = _resample_error_sample(piece, resized)
            if out is None:
                canvas[dest, oy0:oy1, ox0:ox1] = resized.pixels


def _choice_rects(
    choice: IntervalChoice, plan: ReadPlan, canvas_size: tuple[int, int]
) -> list[tuple[ROI, ROI] | None]:
    """:func:`cell_rects` of each of ``choice``'s cells on a
    ``canvas_size`` canvas of the plan's ROI."""
    physical = choice.fragment.physical
    frag_roi = physical.roi
    if frag_roi is None:
        # Full-frame fragment: its pixels span the original frame.
        frag_roi = (0, 0, *plan.original_resolution)
    frag_size = (physical.width, physical.height)
    return [
        cell_rects(cell, frag_roi, frag_size, plan.roi, canvas_size)
        for cell in choice.cells
    ]


def _identity_run(ops: list[_ChunkOp], frames: int) -> slice | None:
    """The run of window frames an *identity chunk* shows, or None.

    An identity chunk has one op over all its ``frames``, reading one
    window of a whole-frame choice through a unit-step run of its
    frames: once that window is at the canvas's size, a paste would
    copy the run unchanged.
    """
    if len(ops) != 1:
        return None
    op = ops[0]
    ctx = op.ctx
    if not ctx.whole_frame or op.j_lo != op.j_hi or op.p1 - op.p0 != frames:
        return None
    run = index_run(ctx.src_full[op.p0:op.p1] - int(ctx.offsets[op.j_lo]))
    if not isinstance(run, slice) or run.step not in (None, 1):
        return None
    return run


def _resized_identity(ops: list[_ChunkOp], run: slice | None) -> int | None:
    """The window an identity chunk of a resizing choice, showing
    ``run`` (:func:`_identity_run`), can show resized, or None.

    That is a window decoded for this chunk alone that starts at its
    GOP's first frame (a joint GOP's is never cached), with the run
    starting at the window's first frame: resized whole, it is then the
    chunk itself, and its first frame is the one the paste samples the
    resample error on.
    """
    if run is None or run.start != 0:
        return None
    op = ops[0]
    ctx = op.ctx
    j = op.j_lo
    physical = ctx.choice.fragment.physical
    if (
        (physical.width, physical.height) == ctx.size
        or j not in op.decode_js
        or op.keep_from <= j
        or ctx.bounds[j][0]
        or ctx.records[j].joint_pair_id is not None
    ):
        return None
    return j


def _identity_view(
    chunk: _Chunk, carry: dict[_ChoiceSchedule, dict[int, VideoSegment]]
) -> np.ndarray | None:
    """A chunk's pixels as a view of the one window they are (in this
    read's ``carry``), or None when the chunk needs a canvas.

    The window is a decode-cache entry — the native decode, or for a
    resizing choice the GOP's entry at the canvas's size — or the fresh
    decode or resize just put there, so the view keeps that whole entry
    alive while it lives; a run of whole frames of a stack is
    C-contiguous.
    """
    if chunk.identity is None:
        return None
    op = chunk.ops[0]
    window = carry[op.ctx][op.j_lo]
    if (window.width, window.height) != op.ctx.size:
        return None  # a native window of a resizing choice: paste it
    return window.pixels[chunk.identity]


def _pixel_rect(cell: ROI, region: ROI, size: tuple[int, int]) -> ROI:
    """``cell`` in the pixels of a ``size`` raster that depicts ``region``.

    Each axis rounds to at least one pixel, except that a cell starting
    within half a pixel of the raster's far edge rounds to none.
    """
    rect = []
    for axis in (0, 1):
        scale = size[axis] / (region[axis + 2] - region[axis])
        p0 = int(round((cell[axis] - region[axis]) * scale))
        p1 = int(round((cell[axis + 2] - region[axis]) * scale))
        rect.append((p0, min(max(p1, p0 + 1), size[axis])))
    (x0, x1), (y0, y1) = rect
    return (x0, y0, x1, y1)


def cell_rects(
    cell: ROI,
    frag_roi: ROI,
    frag_size: tuple[int, int],
    roi: ROI,
    canvas_size: tuple[int, int],
) -> tuple[ROI, ROI] | None:
    """Where one plan cell lies in a fragment's pixels and on the canvas.

    ``cell``, ``frag_roi`` (the region the fragment depicts) and ``roi``
    (the region the canvas depicts) are in original-frame coordinates;
    the sizes are ``(width, height)`` in pixels.  Returns ``(source
    rect, canvas rect)`` as ``(x0, y0, x1, y1)`` pixel rectangles, or
    None for a sliver that rounds onto the canvas's far edge and so
    covers no output pixel.  A sliver that rounds onto the fragment's far
    edge reads the fragment's last row or column instead: a canvas
    rectangle is never left unpainted for want of a source.
    """
    ox0, oy0, ox1, oy1 = _pixel_rect(cell, roi, canvas_size)
    if ox0 == ox1 or oy0 == oy1:
        return None
    fx0, fy0, fx1, fy1 = _pixel_rect(cell, frag_roi, frag_size)
    fx0 = min(fx0, frag_size[0] - 1)
    fy0 = min(fy0, frag_size[1] - 1)
    return (fx0, fy0, fx1, fy1), (ox0, oy0, ox1, oy1)


def _resample_error_sample(
    source: VideoSegment, resized: VideoSegment
) -> float:
    """Measured MSE of a resolution change, computed on one sample frame by
    mapping the result back to the source geometry (paper section 3.2:
    resampling error is measured directly, not estimated)."""
    restored = resize_segment(
        resized.slice_frames(0, 1), source.width, source.height
    )
    return mse(source.frame(0), restored.frame(0))


def _frozen(segment: VideoSegment) -> VideoSegment:
    """``segment`` with its pixels made read-only.

    A decoded chunk may be a view of a decode-cache entry, so every
    in-process answer is read-only alike, view or canvas.
    """
    segment.pixels.flags.writeable = False
    return segment


def _to_request_format(
    plan: ReadPlan, stats: ReadStats, segment: VideoSegment, sample=True
) -> VideoSegment:
    """``segment`` (canvas pixels) converted to the request's pixel format.

    Chroma subsampling (or dropping colour) resamples planes, so with
    ``sample`` the conversion's loss is measured into
    ``stats.format_mse`` on the first frame mapped back to the canvas's
    format (the rule of :func:`_resample_error_sample`).
    """
    converted = convert_segment(segment, plan.request.pixel_format)
    if sample and converted is not segment:
        stats.format_mse = segment_mse(
            segment.slice_frames(0, 1), converted.slice_frames(0, 1)
        )
    return converted
