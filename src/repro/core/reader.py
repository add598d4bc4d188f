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

GOPs are independent decode units (each opens with an I frame), so both
the decode-and-assemble path and the direct-serve path fan their GOP
loads/decodes across the store's shared :class:`Executor`; results are
reassembled in plan order, keeping output pixels and stats deterministic.
A :class:`DecodeCache` short-circuits the decode entirely when a
sufficiently long prefix of the GOP was decoded by an earlier read.

:meth:`Reader.execute_batch` executes several plans with shared decode
work: the union of needed GOP windows is decoded once into a batch-local
:class:`BatchDecodeCache` overlay, so N overlapping reads pay for one
decode of each shared GOP instead of N.

Assembly is *chunked*: :meth:`Reader.iter_output` streams a plan's answer
as :class:`ReadChunk` increments whose peak resident pixels stay
O(GOP window × prefetch depth) regardless of the read's duration, and
:meth:`Reader.execute` is a thin collect-all over the same machinery
(chunks paste into one preallocated canvas).  The chunk schedule is
computed statically from the catalog (no decoding), using exactly the
arithmetic the monolithic assembler used, so chunked output is
bit-identical to the pre-streaming reader.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.core.cost import CostModel
from repro.core.decode_cache import BatchDecodeCache
from repro.core.layout import Layout
from repro.core.read_planner import IntervalChoice, ReadPlan
from repro.core.records import ROI, Fragment, GopRecord
from repro.errors import ReadError
from repro.util import map_parallel
from repro.video.codec.blockcodec import CodecTimings
from repro.video.codec.container import EncodedGOP
from repro.video.codec.registry import codec_for
from repro.video.frame import VideoSegment, convert_segment
from repro.video.metrics import mse
from repro.video.resample import index_run, resize_segment

_EPS = 1e-9

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
        return (
            self.codec_entropy_seconds
            + self.codec_transform_seconds
            + self.codec_compensate_seconds
        )

    @property
    def decode_mb_per_s(self) -> float:
        """Codec decode throughput (decoded MB per stage-second); 0.0 when
        the read decoded nothing."""
        seconds = self.codec_decode_seconds
        if seconds <= 0.0 or self.codec_decoded_bytes == 0:
            return 0.0
        return self.codec_decoded_bytes / 1e6 / seconds

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
    """The answer to a read: a raw segment or encoded GOPs, plus stats."""

    plan: ReadPlan
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
    (direct-served stored bytes, or output re-encoded on GOP boundaries).
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

    Decoded chunks concatenate into one segment; otherwise the GOP runs
    flatten into one list — the shape every ``collect()`` (in-process
    and both remote streams) wraps in its own result type.
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
    return segments[0].concatenate(segments), None


@dataclass
class _GopWindow:
    """One worker's output: a decoded GOP window plus its stat deltas.

    ``cache_hit`` is None when the window was not decode-cache eligible
    (cache disabled or a joint GOP) — such windows count as neither hit
    nor miss.  ``timings`` carries the codec's per-stage decode counters
    when the window went through the compressed fast path (None for raw
    GOPs and cache hits); like the other deltas it travels with the
    pixels so the consumer folds stats in deterministic order.
    """

    segment: VideoSegment
    frames_decoded: int
    lookback_frames: int
    bytes_read: int
    cache_hit: bool | None
    timings: CodecTimings | None = None


@dataclass
class _ChoiceSchedule:
    """Static decode/paste plan for one :class:`IntervalChoice`.

    Everything here is derived from catalog metadata before any pixel is
    decoded: ``offsets`` are cumulative per-record window frame counts,
    ``t0``/``fps_src`` anchor the choice's decoded frame run on the
    timeline, ``out_idx`` lists the global output frames the choice
    serves, and ``src_full`` maps each of them to a frame index in the
    run — the same floor/clip arithmetic the monolithic assembler used,
    so chunked pastes pick identical source frames.  ``windows`` is the
    consumer-side carry of decoded (RGB) windows still needed by future
    chunks.
    """

    choice: IntervalChoice
    records: list[GopRecord]
    offsets: np.ndarray
    n_frames: int
    t0: float
    fps_src: float
    out_idx: np.ndarray
    src_full: np.ndarray
    windows: dict[int, VideoSegment] = field(default_factory=dict)


@dataclass
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


@dataclass
class _DecodedChunk:
    """Internal chunk: a pasted RGB canvas piece plus provenance."""

    lo: int
    hi: int
    segment: VideoSegment
    gop_ids: list[int]


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
        cost_model: CostModel,
        executor=None,
        decode_cache=None,
    ):
        self.layout = layout
        self.catalog = catalog
        self.cost_model = cost_model
        self.executor = executor
        self.decode_cache = decode_cache

    def _map(self, fn, items):
        return map_parallel(self.executor, fn, items)

    # ------------------------------------------------------------------
    def execute(
        self,
        plan: ReadPlan,
        decode_cache=_DEFAULT_CACHE,
        direct_records=_DEFAULT_CACHE,
    ) -> ReadResult:
        """Execute one plan.

        ``decode_cache`` overrides the reader's store-wide cache for this
        call (``Reader.execute_batch`` passes a batch-local overlay);
        leave it unset to use the store cache.  ``direct_records`` is the
        precomputed :meth:`_direct_serve_records` outcome when the caller
        already evaluated eligibility (the batch pre-pass does); leave it
        unset to evaluate here.
        """
        if decode_cache is _DEFAULT_CACHE:
            decode_cache = self.decode_cache
        if direct_records is _DEFAULT_CACHE:
            direct_records = self._direct_serve_records(plan)
        start_wall = time.perf_counter()
        stats = ReadStats.for_plan(plan)

        direct = self._serve_direct(plan, direct_records, stats)
        if direct is not None:
            stats.wall_seconds = time.perf_counter() - start_wall
            return ReadResult(plan, None, direct, stats)

        segment = self._collect(plan, stats, decode_cache)
        gops: list[EncodedGOP] | None = None
        if plan.request.codec != "raw":
            codec = codec_for(plan.request.codec)
            gop_size = max(1, int(round(plan.target_fps)))
            timings = CodecTimings()
            gops = codec.encode_segment(
                segment,
                qp=plan.request.qp,
                gop_size=gop_size,
                executor=self.executor,
                timings=timings,
            )
            stats.add_encode_timings(timings)
            stats.output_bpp = float(
                np.mean([g.bits_per_pixel for g in gops])
            )
            segment_out = None
        else:
            segment_out = convert_segment(segment, plan.request.pixel_format)
        stats.wall_seconds = time.perf_counter() - start_wall
        return ReadResult(plan, segment_out, gops, stats)

    # ------------------------------------------------------------------
    # direct byte serving (no transcode)
    # ------------------------------------------------------------------
    def _direct_serve_records(self, plan: ReadPlan) -> list[GopRecord] | None:
        """The GOP records a byte-for-byte serve would ship, or None when
        the plan is ineligible (format/fps/ROI mismatch, unaligned
        boundaries, or joint GOPs needing reconstruction)."""
        if plan.request.codec == "raw":
            return None
        if len({id(c.fragment) for c in plan.choices}) != 1:
            return None
        choice = plan.choices[0]
        fragment = choice.fragment
        if not self.cost_model.is_format_match(fragment, plan.target):
            return None
        if abs(fragment.physical.fps - plan.target_fps) > _EPS:
            return None
        if choice.cells != [plan.roi]:
            return None
        frag_roi = fragment.physical.roi
        if frag_roi is not None and tuple(frag_roi) != tuple(plan.roi):
            return None
        request = plan.request
        gops = fragment.gops_overlapping(request.start, request.end)
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

    def _serve_direct(
        self,
        plan: ReadPlan,
        gops: list[GopRecord] | None,
        stats: ReadStats,
    ) -> list[EncodedGOP] | None:
        """Serve stored GOP bytes untouched when formats match exactly and
        the request aligns with GOP boundaries (``gops`` is the
        :meth:`_direct_serve_records` outcome)."""
        if gops is None:
            return None
        served = self._map(
            lambda record: self._read_gop_file(record).with_start_time(
                record.start_time
            ),
            gops,
        )
        stats.bytes_read += sum(record.nbytes for record in gops)
        stats.gop_ids_touched = [g.id for g in gops]
        stats.direct_serve = True
        return served

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
        each shared GOP instead of N.
        """
        batch = BatchStats(num_reads=len(plans))
        overlay = BatchDecodeCache(self.decode_cache)
        direct_by_plan = [self._direct_serve_records(plan) for plan in plans]
        # gop_id -> (record, fragment, deepest stop frame needed)
        needed: dict[int, tuple[GopRecord, Fragment, int]] = {}
        for plan, direct in zip(plans, direct_by_plan):
            if direct is not None:
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
                    if current is None or stop > current[2]:
                        needed[record.id] = (record, choice.fragment, stop)
        batch.unique_gops = len(needed)

        def warm(entry: tuple[GopRecord, Fragment, int]) -> int:
            record, fragment, stop = entry
            if overlay.peek(record.id, stop):
                return 0  # an earlier read already decoded this deep
            encoded = self._load_gop(record, fragment)
            codec = codec_for(encoded.codec)
            if codec.is_compressed:
                # Batch-warmed decodes are shared engine work: the reads
                # that consume them see overlay hits (no frames decoded),
                # so no per-read codec timings are attributed here either.
                overlay.put(
                    record.id,
                    stop,
                    codec.decode_gop_frames(
                        encoded, stop, executor=self.executor
                    ),
                )
            else:
                overlay.put(record.id, record.num_frames, codec.decode_gop(encoded))
            return 1

        batch.gops_decoded = sum(self._map(warm, list(needed.values())))
        results = [
            self.execute(plan, decode_cache=overlay, direct_records=direct)
            for plan, direct in zip(plans, direct_by_plan)
        ]
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
    ) -> list[tuple[int, int, list[_ChunkOp]]]:
        """Statically partition a plan into chunks of output frames.

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
            ctxs.append(
                _ChoiceSchedule(
                    choice, records, offsets, n_frames, t0, fps_src,
                    out_idx, src_full,
                )
            )
        boundaries = sorted(cuts)
        chunks: list[tuple[int, int, list[_ChunkOp]]] = []
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
            chunks.append((lo, hi, ops))
        return chunks

    def _build_windows(self, ops: list[_ChunkOp], decode_cache) -> list[list]:
        """Decode (and RGB-convert) the windows one chunk's ops call for.

        Runs as one prefetch task; per-window stat deltas travel with the
        pixels so the consumer can fold them in deterministic order.
        """
        built = []
        for op in ops:
            choice = op.ctx.choice
            decoded = []
            for j in op.decode_js:
                record = op.ctx.records[j]
                window = self._decode_gop_window(
                    record, choice.fragment, choice.start, choice.end,
                    decode_cache,
                )
                rgb = convert_segment(window.segment, "rgb")
                decoded.append((j, record.id, rgb, window))
            built.append(decoded)
        return built

    def _prefetched(self, chunks, build):
        """Yield ``build(chunk)`` in order with a bounded pipeline.

        With a multi-worker executor, up to ``parallelism`` chunk builds
        run ahead of the consumer — enough to keep every worker busy
        while holding only O(parallelism) decoded windows in memory.
        Serial stores build strictly on demand (nothing runs ahead of
        the pull).
        """
        if self.executor is None or self.executor.parallelism == 1:
            for chunk in chunks:
                yield build(chunk)
            return
        pending: deque = deque()
        iterator = iter(chunks)
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
        self, plan: ReadPlan, stats: ReadStats, decode_cache, canvas=None
    ):
        """Generate :class:`_DecodedChunk` pieces of the RGB answer.

        When ``canvas`` (the full preallocated frame stack) is given,
        chunks paste into views of it — the collect-all path; otherwise
        each chunk allocates only its own frames — the streaming path.
        """
        total, frame_times = self._grid(plan)
        schedule = self._decode_schedule(plan)
        target = plan.target
        fps_out = plan.target_fps
        request = plan.request

        def build(chunk):
            return chunk, self._build_windows(chunk[2], decode_cache)

        for (lo, hi, ops), built in self._prefetched(schedule, build):
            if canvas is not None:
                chunk_pixels = canvas[lo:hi]
            else:
                chunk_pixels = np.zeros(
                    (hi - lo, target.height, target.width, 3), dtype=np.uint8
                )
            gop_ids: list[int] = []
            for op, decoded in zip(ops, built):
                ctx = op.ctx
                for j, record_id, rgb, window in decoded:
                    ctx.windows[j] = rgb
                    stats.gop_ids_touched.append(record_id)
                    gop_ids.append(record_id)
                    stats.bytes_read += window.bytes_read
                    stats.frames_decoded += window.frames_decoded
                    stats.lookback_frames += window.lookback_frames
                    if window.cache_hit is True:
                        stats.decode_cache_hits += 1
                    elif window.cache_hit is False:
                        stats.decode_cache_misses += 1
                    if window.timings is not None:
                        stats.codec_entropy_seconds += window.timings.entropy_seconds
                        stats.codec_transform_seconds += (
                            window.timings.transform_seconds
                        )
                        stats.codec_compensate_seconds += (
                            window.timings.compensate_seconds
                        )
                        stats.codec_decoded_bytes += window.timings.decoded_bytes
                pieces = [
                    ctx.windows[j] for j in range(op.j_lo, op.j_hi + 1)
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
                for j in [j for j in ctx.windows if j < op.keep_from]:
                    del ctx.windows[j]
            yield _DecodedChunk(
                lo,
                hi,
                VideoSegment(
                    pixels=chunk_pixels,
                    pixel_format="rgb",
                    height=target.height,
                    width=target.width,
                    fps=fps_out,
                    start_time=request.start + lo / fps_out,
                ),
                gop_ids,
            )

    def _collect(
        self, plan: ReadPlan, stats: ReadStats, decode_cache
    ) -> VideoSegment:
        """The full decoded answer: a thin collect-all over the chunked
        stream, pasting every chunk into one preallocated canvas."""
        total, _ = self._grid(plan)
        target = plan.target
        canvas = np.zeros(
            (total, target.height, target.width, 3), dtype=np.uint8
        )
        for _chunk in self._iter_decoded(
            plan, stats, decode_cache, canvas=canvas
        ):
            pass
        return VideoSegment(
            pixels=canvas,
            pixel_format="rgb",
            height=target.height,
            width=target.width,
            fps=plan.target_fps,
            start_time=plan.request.start,
        )

    # ------------------------------------------------------------------
    # streamed output
    # ------------------------------------------------------------------
    def iter_output(
        self,
        plan: ReadPlan,
        stats: ReadStats | None = None,
        decode_cache=_DEFAULT_CACHE,
        direct_records=_DEFAULT_CACHE,
    ):
        """Stream one plan's output as :class:`ReadChunk` increments.

        Peak resident pixels stay O(GOP window × prefetch depth)
        regardless of the read's duration: direct-served plans ship one
        stored GOP per chunk without decoding; raw requests yield one
        converted canvas piece per source-GOP activation; compressed
        requests re-encode on GOP-size boundaries, producing bytes
        identical to the non-streamed read's GOPs.  ``stats`` (optional,
        caller-owned) accumulates as chunks are pulled and is complete
        once the generator is exhausted.
        """
        if stats is None:
            stats = ReadStats.for_plan(plan)
        if decode_cache is _DEFAULT_CACHE:
            decode_cache = self.decode_cache
        if direct_records is _DEFAULT_CACHE:
            direct_records = self._direct_serve_records(plan)
        if direct_records is not None:
            stats.direct_serve = True
            for index, record in enumerate(direct_records):
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
        if plan.request.codec != "raw":
            yield from self._iter_encoded(plan, stats, decode_cache)
            return
        for index, chunk in enumerate(
            self._iter_decoded(plan, stats, decode_cache)
        ):
            segment = convert_segment(
                chunk.segment, plan.request.pixel_format
            )
            yield ReadChunk(
                index, segment.start_time, segment.end_time,
                segment, None, chunk.gop_ids,
            )

    def _iter_encoded(self, plan: ReadPlan, stats: ReadStats, decode_cache):
        """Re-encode the decoded stream on output-GOP-size boundaries.

        Blocks are cut at multiples of the output GOP size with start
        times computed exactly as ``encode_segment`` would slice the
        full canvas, and each GOP encodes independently, so the streamed
        bytes are bit-identical to the non-streamed read's GOPs.  Each
        block's deflate fans across the shared executor like theirs.
        """
        request = plan.request
        codec = codec_for(request.codec)
        fps_out = plan.target_fps
        gop_size = max(1, int(round(fps_out)))
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
                pixel_format="rgb",
                height=target.height,
                width=target.width,
                fps=fps_out,
                start_time=request.start + emitted / fps_out,
            )
            timings = CodecTimings()
            gops = codec.encode_segment(
                block,
                qp=request.qp,
                gop_size=gop_size,
                executor=self.executor,
                timings=timings,
            )
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

        for chunk in self._iter_decoded(plan, stats, decode_cache):
            buffered.append(chunk.segment.pixels)
            buffered_frames += chunk.segment.num_frames
            pending_gop_ids.extend(chunk.gop_ids)
            while buffered_frames >= gop_size:
                yield emit(gop_size)
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
        self,
        record: GopRecord,
        fragment: Fragment,
        start: float,
        end: float,
        decode_cache,
    ) -> _GopWindow:
        """Decode the frames of one GOP that fall inside [start, end).

        Frames before the window inside the GOP are decoded anyway (the
        look-back dependency chain) and then dropped — unless the decode
        cache already holds a prefix that covers the window, in which
        case no bytes are read and no frames are decoded at all.
        """
        fps = fragment.physical.fps
        first_needed, stop = self._window_bounds(record, fps, start, end)
        # Joint GOPs are rebuilt from shared pair pieces rather than their
        # own page file; never cache them.
        cacheable = (
            decode_cache is not None
            and decode_cache.enabled
            and record.joint_pair_id is None
        )
        if cacheable:
            prefix = decode_cache.get(record.id, stop)
            if prefix is not None:
                if first_needed:
                    prefix = prefix.slice_frames(first_needed, stop)
                return _GopWindow(prefix, 0, 0, 0, True)
        encoded = self._load_gop(record, fragment)
        codec = codec_for(encoded.codec)
        timings: CodecTimings | None = None
        if codec.is_compressed:
            timings = CodecTimings()
            decoded = codec.decode_gop_frames(
                encoded, stop, executor=self.executor, timings=timings
            )
            if cacheable:
                decode_cache.put(record.id, stop, decoded)
            frames_decoded = stop
            lookback = first_needed
            if first_needed:
                decoded = decoded.slice_frames(first_needed, stop)
        else:
            # Raw frames are independently decodable; skip the prefix.
            full = codec.decode_gop(encoded)
            if cacheable:
                decode_cache.put(record.id, record.num_frames, full)
            decoded = full.slice_frames(first_needed, stop)
            frames_decoded = stop - first_needed
            lookback = 0
        return _GopWindow(
            decoded,
            frames_decoded,
            lookback,
            record.nbytes,
            False if cacheable else None,
            timings,
        )

    def _load_gop(self, record: GopRecord, fragment: Fragment) -> EncodedGOP:
        if record.joint_pair_id is not None:
            # Joint GOPs are reconstructed from their shared pair pieces.
            from repro.jointcomp.recovery import recover_gop

            pair = self.catalog.get_joint_pair(record.joint_pair_id)
            return recover_gop(self.layout, pair, record)
        return self._read_gop_file(record).with_start_time(record.start_time)

    def _read_gop_file(self, record: GopRecord) -> EncodedGOP:
        try:
            return self.layout.read_gop(record.path, record.zstd_level)
        except FileNotFoundError:
            # Deferred compression may rewrite a raw page (x.gop -> x.gop.z)
            # between planning and this load; the catalog row already
            # points at the new file, so refetch and retry once.
            fresh = self.catalog.get_gop(record.id)
            return self.layout.read_gop(fresh.path, fresh.zstd_level)

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
        into the canvas when the scales agree, through
        :func:`resize_segment` otherwise.
        """
        physical = choice.fragment.physical
        frag_roi = physical.roi
        if frag_roi is None:
            # Full-frame fragment: its pixels span the original frame.
            frag_roi = (0, 0, *plan.original_resolution)
        frames, dest = index_run(src_indices), index_run(out_indices)
        for cell in choice.cells:
            rects = cell_rects(
                cell,
                frag_roi,
                (physical.width, physical.height),
                plan.roi,
                (canvas.shape[2], canvas.shape[1]),
            )
            if rects is None:
                continue
            (fx0, fy0, fx1, fy1), (ox0, oy0, ox1, oy1) = rects
            window = source.pixels[frames, fy0:fy1, fx0:fx1]
            if (fx1 - fx0, fy1 - fy0) != (ox1 - ox0, oy1 - oy0):
                piece = VideoSegment(
                    pixels=window,
                    pixel_format=source.pixel_format,
                    height=fy1 - fy0,
                    width=fx1 - fx0,
                    fps=plan.target_fps,
                    start_time=choice.start,
                )
                resized = resize_segment(piece, ox1 - ox0, oy1 - oy0)
                if stats.resample_mse == 0.0:
                    stats.resample_mse = _resample_error_sample(piece, resized)
                window = resized.pixels
            canvas[dest, oy0:oy1, ox0:ox1] = window


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
