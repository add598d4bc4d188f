"""The concurrency-first engine/session API.

:class:`VSSEngine` owns one store's machinery — catalog, layout, executor,
decode cache, budget enforcement, and maintenance loops — and is safe to
share across threads: every logical video has its own *reader-writer*
lock (:class:`repro.core.rwlock.RWLock`), so concurrent reads of the
**same** video proceed in parallel (reads only consume immutable,
no-overwrite pages) while mutations — writes, cache admission, eviction,
deferred compression, compaction, refinement, delete — hold the
exclusive side and linearize against everything else on that video.

The read hot path does only what the answer needs: plan (memoized — see
below), decode, assemble, stamp LRU entries.  Opportunistic cache
admission and periodic maintenance run *after* the read returns, on a
bounded background queue (:class:`repro.core.admission.AdmissionWorker`)
that coalesces duplicate pending admissions per (logical, effective
spec).  That queue is the *only* post-operation path: ``read``, every
``read_batch`` member and a drained ``ReadStream`` all finish through
one completion step (:meth:`VSSEngine._complete_read`), and every
background task — admission, maintenance (deferred compression,
compaction, refinement), ingest-time extraction — runs
through one guard (:meth:`VSSEngine._run_if_current`) that skips work
aimed at a deleted or re-created video.  The side effects become
observable at ``engine.drain_admissions()`` / ``Session.close()`` /
``engine.close()``, which drain the queue deterministically.

Read plans are memoized in a versioned cache keyed by ``(logical id,
mutation version, effective ReadSpec)``: every catalog method that
changes a page bumps its video's version itself, so warm hot-path reads
skip the planner and the fragment query entirely and a single write/
evict/compact invalidates exactly the affected video's entries.  The
same methods hand the ids of the GOP rows they delete, move or rewrite
to the decode cache, which the engine registers as the catalog's one
listener; no subsystem bumps or invalidates by hand.

Callers talk to the engine through cheap :class:`Session` handles::

    engine = VSSEngine("/path/to/store")
    session = engine.session(codec="h264", qp=12)     # per-caller defaults
    result = session.read("traffic", 0.0, 1.0)        # builds a ReadSpec
    batch  = session.read_batch([spec0, spec1, ...])  # shared decode work
    future = session.read_async(spec)                 # concurrent.futures

Requests are immutable typed specs (:class:`repro.core.specs.ReadSpec`,
:class:`repro.core.specs.WriteSpec`), validated at construction.
``read_batch`` plans its specs against one catalog snapshot and decodes
each GOP window needed by several reads exactly once (via
:meth:`repro.core.reader.Reader.execute_batch`), then touches LRU stamps
and enforces the budget once per batch instead of once per read.

Names accepted by the read/stat entry points may also be *derived
views* (``engine.create_view(name, ViewSpec(over=base, ...))``): named
virtual videos persisted in the catalog and folded per-request into a
single effective :class:`ReadSpec` against the base logical video, so
planning, decoding, and caching are reused unchanged and cached
fragments produced through a view belong to the base (shared across all
views over it).  Views are read-only and own no storage.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from repro.core.admission import AdmissionWorker
from repro.core.cache import CacheManager, EvictionReport
from repro.core.catalog import Catalog
from repro.core.compaction import Compactor
from repro.core.cost import Calibration, CostModel
from repro.core.decode_cache import DEFAULT_DECODE_CACHE_BYTES, DecodeCache
from repro.core.deferred import DeferredCompressionManager
from repro.core.executor import Executor
from repro.core.layout import Layout
from repro.core.ops import OPS
from repro.core.quality import QualityModel
from repro.core.read_planner import (
    MAX_VIEW_DEPTH,
    fold_view,
    merge_views,
    plan_read,
)
from repro.core.reader import (
    BatchStats,
    ReadChunk,
    Reader,
    ReadResult,
    ReadStats,
    collect_chunks,
    decode_mb_per_s,
)
from repro.core.records import LogicalVideo, PhysicalVideo, ViewRecord
from repro.core.rwlock import RWLock, RWLockStats
from repro.core.specs import (
    ReadSpec,
    SessionStats,
    SessionSurface,
    ViewSpec,
    WriteSpec,
)
from repro.core.writer import StreamWriter, Writer
from repro.errors import (
    CatalogError,
    ContainerError,
    ReadError,
    VideoExistsError,
    VideoNotFoundError,
    VSSError,
    WriteError,
)
from repro.search.extract import extract_physical
from repro.tiles import RetilePolicy, TileGrid, Tiler
from repro.search.index import SearchIndex
from repro.search.query import DEFAULT_LIMIT as DEFAULT_SEARCH_LIMIT
from repro.search.query import SearchHit, rows_to_hits, run_search
from repro.util import Counters, LogicalClock
from repro.video.codec.container import EncodedGOP
from repro.video.codec.quant import QP_DEFAULT
from repro.video.frame import VideoSegment, convert_segment
from repro.video.metrics import segment_mse
from repro.video.resample import crop_roi, resize_segment

#: Default storage budget: 10x the initially written physical video.
DEFAULT_BUDGET_MULTIPLE = 10.0

#: Run exact-quality refinement every N reads, compaction every M reads.
REFINE_INTERVAL = 16
COMPACT_INTERVAL = 8

#: Bound on memoized read plans; stale-version entries age out via LRU.
PLAN_CACHE_SIZE = 512

#: The running totals a finished read adds its ``ReadStats`` attribute
#: of the same name to (its ``frames_decoded`` goes to
#: ``codec_frames_decoded``, the one total named differently).
_READ_TOTALS = (
    "codec_entropy_seconds",
    "codec_transform_seconds",
    "codec_compensate_seconds",
    "codec_decoded_bytes",
    "codec_encode_recurrence_seconds",
    "codec_encode_entropy_seconds",
    "codec_frames_encoded",
    "tiles_total",
    "tiles_decoded",
    "tile_bytes_skipped",
)


def diff_store(
    layout: Layout,
    catalog: Catalog,
    names: list[str] | None = None,
    hold=lambda video: nullcontext(),
) -> dict[str, list[str]]:
    """The report of :meth:`VSSEngine.check`, from a layout and catalog.

    ``names`` limits it to those videos; by default every video is
    diffed, then the files outside every video's directory.
    ``hold(video)`` is held while one video is diffed (the engine passes
    its shared lock).  Nothing is removed, so ``python -m repro.server
    <root> --check`` runs this without an engine, whose open would first
    sweep the very orphans the report lists.
    """
    whole = names is None
    if whole:
        names = catalog.list_names("video")

    def header_matches(gop, physical: PhysicalVideo) -> bool:
        try:
            encoded = layout.read_gop(gop.path)
        except ContainerError:
            return False
        return (
            encoded.codec,
            encoded.num_frames,
            encoded.width,
            encoded.height,
        ) == (physical.codec, gop.num_frames, physical.width, physical.height)

    report: dict[str, list[str]] = {
        "orphans": [], "dangling": [], "mismatched": []
    }
    for video in names:
        base = f"videos/{video}"
        with hold(video):
            logical = catalog.get_logical(video)
            gops = catalog.gops_of_logical(logical.id)
            live = {g.path for g in gops if g.joint_pair_id is None}
            for pair_id in {g.joint_pair_id for g in gops} - {None}:
                pair = catalog.get_joint_pair(pair_id)
                live |= {pair.left_path, pair.overlap_path, pair.right_path}
            live.discard(None)
            stored = {
                path
                for path in layout.stored_files(base)
                if path.rsplit("/", 2)[0] == base
            }
            physicals = {p.id: p for p in catalog.list_physicals(logical.id)}
            report["orphans"] += stored - live
            report["dangling"] += [
                path
                for path in live - stored
                if not (layout.root / path).is_file()
            ]
            report["mismatched"] += [
                gop.path
                for gop in gops
                if gop.joint_pair_id is None
                and gop.path in stored
                and not header_matches(gop, physicals[gop.physical_id])
            ]
    if whole:
        bases = {f"videos/{video}" for video in names}
        report["orphans"] += [
            path
            for path in layout.stored_files() - catalog.live_paths()
            if path.rsplit("/", 2)[0] not in bases
        ]
    return {key: sorted(paths) for key, paths in report.items()}


@dataclass
class StoreStats:
    """Per-video summary statistics (``engine.video_stats(name)``).

    Store-wide counters (decode cache, executor) live on
    :class:`EngineStats` (``engine.stats()``).
    """

    name: str
    budget_bytes: int
    total_bytes: int
    num_physicals: int
    num_fragments: int
    num_gops: int

    def __getitem__(self, key: str):
        # Only for benchmarks/vssbench/workloads.py's remote_streams,
        # which reads a remote video_stats reply as a dict
        # (s["total_bytes"], s["num_physicals"]); goes when that line does.
        return getattr(self, key)


@dataclass
class ViewStats:
    """Per-view summary (``engine.video_stats(name)`` for a view name).

    A view owns no storage, so its stats describe the definition and the
    traffic routed through it: ``over`` is the immediate parent,
    ``base`` the logical video the chain bottoms out at, ``depth`` the
    chain length, and ``reads`` the reads resolved through this view
    since the engine started.  ``base_stats`` is the base's
    :class:`StoreStats` — the storage every view over it shares.
    """

    name: str
    over: str
    base: str
    depth: int
    reads: int
    spec: ViewSpec
    base_stats: StoreStats


@dataclass(kw_only=True)
class EngineStats:
    """Store-wide statistics (``engine.stats()``).

    Fields with a zero default are the engine's running totals: its
    counter table (:class:`repro.util.Counters`) starts from those
    defaults, and each operation adds to it as it finishes
    (``extraction_pending`` is the one total that also goes down).
    Fields without a default are read when ``stats()`` is called:
    instantaneous gauges (``num_logical_videos``, ``num_views``,
    ``parallelism``, ``decode_cache_bytes``,
    ``decode_cache_resized_bytes``, ``admission_queue_depth``,
    ``search_index_rows``), the monotonic counters other components
    keep (executor, decode cache, per-logical locks, admission queue)
    and two derived rates (``decode_cache_hit_rate``,
    ``codec_decode_mb_per_s``).

    ``view_reads`` counts reads that resolved through at least one
    derived view (monotonic — deleting a view does not erase its
    traffic).  ``failures`` and ``session_seconds`` accumulate from
    *closed* sessions (``Session.close`` flushes its counters into the
    engine); sessions still open contribute nothing yet.

    The concurrency counters describe the hot read path:
    ``lock_shared_acquisitions`` / ``lock_exclusive_acquisitions`` split
    per-logical lock traffic by mode; ``plan_cache_hits`` / ``misses``
    count versioned plan-cache outcomes; the ``admission*`` gauges
    describe the background admission/maintenance queue
    (``admission_queue_depth`` is instantaneous, the rest monotonic).

    The search counters describe the content index (``repro.search``):
    ``search_index_rows`` is the instantaneous indexed-GOP count;
    ``extraction_pending`` counts queued-or-running background
    extraction tasks, ``extraction_completed``/``extraction_dropped``
    their outcomes; ``searches_served`` and ``search_seconds``
    accumulate query traffic and latency.

    The tile counters describe tiled layouts (``repro.tiles``):
    ``tiles_total``/``tiles_decoded`` accumulate per-read tile
    selectivity, ``tile_bytes_skipped`` the stored bytes ROI reads did
    not have to decode, and ``retiles`` the number of tile layouts
    built or replaced (explicit or access-driven).

    The codec counters describe the GOP decode fast path
    (``repro.video.codec``), accumulated from completed reads and
    streams: the three ``codec_*_seconds`` split decode wall time by
    stage (entropy decode, fused dequantize-inverse-DCT, and the
    compensate recurrence plus output packing), ``codec_frames_decoded``
    counts frames the codec layer decoded on behalf of reads, and
    ``codec_decoded_bytes`` the output pixel bytes they produced.
    ``codec_decode_mb_per_s`` is the derived lifetime throughput
    (decoded MB per stage-second; 0.0 before any compressed decode).
    Batch-warmed shared decodes and cache-served windows attribute
    nothing, matching the per-read stats they roll up from.  The three
    ``codec_encode_*`` / ``codec_frames_encoded`` counters are the same
    roll-up of the reads' transcoding encodes (recurrence time on the
    calling thread, summed deflate-task time, frames); writes and cache
    admission encode outside any read and are not in them.
    """

    num_logical_videos: int
    num_views: int
    num_sessions: int = 0
    reads: int = 0
    writes: int = 0
    batches: int = 0
    streams: int = 0
    view_reads: int = 0
    failures: int = 0
    session_seconds: float = 0.0
    parallelism: int
    executor_tasks: int
    decode_cache_hits: int
    decode_cache_misses: int
    decode_cache_hit_rate: float
    decode_cache_evictions: int
    decode_cache_invalidations: int
    decode_cache_bytes: int
    #: The part of ``decode_cache_bytes`` held by resized entries (GOPs
    #: kept at a size a read asked for, in room decodes leave free).
    decode_cache_resized_bytes: int
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    lock_shared_acquisitions: int
    lock_exclusive_acquisitions: int
    admission_queue_depth: int
    admissions_enqueued: int
    admissions_completed: int
    admissions_coalesced: int
    admissions_dropped: int
    search_index_rows: int
    extraction_pending: int = 0
    extraction_completed: int = 0
    extraction_dropped: int = 0
    searches_served: int = 0
    search_seconds: float = 0.0
    tiles_total: int = 0
    tiles_decoded: int = 0
    tile_bytes_skipped: int = 0
    retiles: int = 0
    codec_entropy_seconds: float = 0.0
    codec_transform_seconds: float = 0.0
    codec_compensate_seconds: float = 0.0
    codec_frames_decoded: int = 0
    codec_decoded_bytes: int = 0
    codec_decode_mb_per_s: float
    codec_encode_recurrence_seconds: float = 0.0
    codec_encode_entropy_seconds: float = 0.0
    codec_frames_encoded: int = 0


class VSSEngine:
    """A thread-safe VSS store rooted at a directory.

    Parameters mirror the prototype's knobs: ``cache_policy`` selects
    LRU_VSS or plain LRU (the Figure 16 comparison) and
    ``deferred_compression`` toggles section 5.2's optimization
    (Figure 12/13).  Figure 10's planner baselines are a read's
    ``ReadSpec.mode``.

    Execution knobs:

    * ``parallelism`` — worker-thread count for the parallel GOP
      pipeline (encode/decode/IO fan-out).  ``None`` sizes the pool from
      the machine's core count; ``1`` forces fully serial execution.
      Output is bit-identical at every setting.
    * ``decode_cache_bytes`` — budget for the in-memory cache of decoded
      GOP prefixes shared by all sessions.  ``0`` disables the cache.
    * ``calibration`` — the cost and quality tables.  ``None`` loads the
      store's saved ``calibration.json``, else :meth:`Calibration.default`;
      opening a store never times the host.

    Cache admission, periodic maintenance and ingest-time extraction
    always run on the background admission worker, never inline; call
    :meth:`drain_admissions` to observe their side effects.
    """

    def __init__(
        self,
        root: str | Path,
        budget_multiple: float = DEFAULT_BUDGET_MULTIPLE,
        cache_policy: str = "vss",
        deferred_compression: bool = True,
        calibration: Calibration | None = None,
        cache_reads: bool = True,
        parallelism: int | None = None,
        decode_cache_bytes: int = DEFAULT_DECODE_CACHE_BYTES,
    ):
        self.layout = Layout(root)
        self.decode_cache = DecodeCache(decode_cache_bytes)
        # One engine per store, held until close(): the sweep below would
        # remove a file another engine wrote before its row committed.
        self._store_lock = self.layout.lock()
        try:
            existing = self.layout.catalog_path.exists()
            # The catalog announces every GOP row it deletes, moves or
            # rewrites; their decoded prefixes go at once.
            self.catalog = Catalog(
                self.layout.catalog_path,
                on_pages_changed=self.decode_cache.invalidate_many,
            )
            # Sweep what a crash left between a file write and its rows;
            # not when the catalog was just created, so an open that
            # follows a lost catalog leaves the store's files in place.
            if existing:
                self.layout.sweep(
                    self.layout.stored_files() - self.catalog.live_paths()
                )
        except BaseException:
            self._store_lock.close()
            raise
        if calibration is None:
            calibration = (
                Calibration.load(self.layout.calibration_path)
                if self.layout.calibration_path.exists()
                else Calibration.default()
            )
        self.calibration = calibration
        # Resume the logical clock past persisted access stamps.
        self.clock = LogicalClock(start=self.catalog.max_last_access())
        self.quality_model = QualityModel(calibration)
        self.cost_model = CostModel(calibration)
        self.executor = Executor(parallelism)
        self.writer = Writer(
            self.catalog, self.layout, self.clock, executor=self.executor
        )
        self.reader = Reader(
            self.layout,
            self.catalog,
            executor=self.executor,
            decode_cache=self.decode_cache,
        )
        self.cache = CacheManager(
            self.catalog,
            self.layout,
            self.quality_model,
            policy=cache_policy,
        )
        self.deferred = DeferredCompressionManager(
            self.catalog,
            self.layout,
            self.cache,
            enabled=deferred_compression,
        )
        self.compactor = Compactor(self.catalog)
        # Tiled physical layouts (repro.tiles): the tiler builds/replaces
        # per-tile physicals, the policy decides when observed ROI
        # accesses justify doing so during maintenance.
        self.tiler = Tiler(self.catalog, self.layout, self.writer, self.reader)
        self.retile_policy = RetilePolicy()
        self.budget_multiple = budget_multiple
        self.cache_reads = cache_reads
        # Background admission/maintenance queue (see repro.core.admission).
        self._admissions = AdmissionWorker()
        # Content index & search (repro.search): FTS5 + vector tables in
        # the catalog's database; registers the delete-cascade hook, and
        # ingest-time extraction rides the admission worker above.
        self._search_index = SearchIndex(self.catalog)
        # Versioned plan cache: (logical id, data version, effective
        # ReadSpec, cost model) -> ReadPlan.  Bounded LRU;
        # entries for superseded versions (or a replaced cost model)
        # become unreachable the moment the key moves and age out here.
        self._plan_lock = threading.Lock()
        self._plan_cache: OrderedDict[tuple, object] = OrderedDict()
        # The running totals of EngineStats (its fields with a default).
        self._counters = Counters(**{
            f.name: f.default
            for f in fields(EngineStats)
            if f.default is not MISSING
        })
        # Engine-wide mutable state: the per-logical lock registry and
        # the maintenance bookkeeping.  Per-logical reader-writer locks
        # order operations on one video (shared for reads, exclusive for
        # mutations); _state_lock guards only the tiny shared
        # bookkeeping below.
        self._lock_stats = RWLockStats()
        self._state_lock = threading.Lock()
        self._logical_locks: dict[str, RWLock] = {}
        # logical id -> [compress due, compact due, refine due,
        # LogicalVideo], merged across reads so coalesced (or
        # shed-and-retried) maintenance submissions never drop a due flag.
        self._pending_maintenance: dict[int, list] = {}
        self._reads_since_refine = 0
        self._reads_since_compact = 0
        self._refine_cursor: dict[int, int] = {}
        # The per-logical ROI access log the re-tiling policy consumes
        # (flushed to the catalog during maintenance), and reads per view.
        self._roi_accesses: dict[int, dict[tuple, int]] = {}
        self._view_reads: dict[str, int] = {}
        # Known view names, kept in sync by create_view/delete: lets the
        # hot read/write paths skip the catalog probe entirely in stores
        # with no (matching) view — like the per-logical locks, this
        # assumes one engine per store.
        self._view_names: set[str] = {
            v.name for v in self.catalog.list_views()
        }
        self._frontend: ThreadPoolExecutor | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            frontend, self._frontend = self._frontend, None
        if frontend is not None:
            frontend.shutdown(wait=True)
        # Drain queued admissions/maintenance deterministically while the
        # catalog and executor are still alive; later submissions drop.
        self._admissions.close()
        self.drain_admissions()
        self.executor.shutdown()
        self.decode_cache.clear()
        self.catalog.close()
        self._store_lock.close()

    def drain_admissions(self) -> None:
        """Block until queued background admissions/maintenance finish.

        The deterministic synchronization point — there is no inline
        mode — for callers that need the queue's side effects (new
        cached physicals, budget enforcement, compaction, index rows) to
        be visible: tests, benchmarks warming a cache, ``Session.close``.
        Maintenance flags whose submission was shed by a full queue are
        flushed here as well, so a drained engine owes no deferred work
        at all.
        """
        self._admissions.drain()
        with self._state_lock:
            stranded = list(self._pending_maintenance.keys())
        for logical_id in stranded:
            self._maintenance_task(logical_id)

    def __enter__(self) -> "VSSEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _lock_for(self, name: str) -> RWLock:
        """The reader-writer lock ordering operations on one video."""
        with self._state_lock:
            lock = self._logical_locks.get(name)
            if lock is None:
                lock = self._logical_locks[name] = RWLock(self._lock_stats)
            return lock

    @contextmanager
    def _locked(self, name: str, shared: bool = False):
        """Hold the per-logical lock for ``name``.

        ``shared=True`` takes the read side (concurrent with other
        readers); the default exclusive side is for mutations.  The
        registry must not grow without bound under name churn, so a
        video's lock is retired when ``delete()`` removes it and when an
        operation finds the name does not exist; acquisition therefore
        re-checks that the acquired lock is still the registered one and
        retries with the fresh lock when it was retired mid-wait.
        """
        while True:
            lock = self._lock_for(name)
            if shared:
                lock.acquire_shared()
            else:
                lock.acquire_exclusive()
            with self._state_lock:
                if self._logical_locks.get(name) is lock:
                    break
            if shared:
                lock.release_shared()
            else:
                lock.release_exclusive()
        try:
            yield
        except VideoNotFoundError:
            # Probes of nonexistent names must not pin registry entries.
            with self._state_lock:
                if self._logical_locks.get(name) is lock:
                    del self._logical_locks[name]
            raise
        finally:
            if shared:
                lock.release_shared()
            else:
                lock.release_exclusive()

    def _frontend_pool(self) -> ThreadPoolExecutor:
        """Lazily created pool running ``read_async`` requests.

        Distinct from :attr:`executor` (the per-GOP worker pool): an
        async read *submits* GOP work to the executor and waits for it,
        so running it on the executor's own threads could deadlock.
        """
        with self._state_lock:
            if self._closed:
                raise RuntimeError("engine is closed")
            if self._frontend is None:
                self._frontend = ThreadPoolExecutor(
                    max_workers=max(2, min(8, self.executor.parallelism)),
                    thread_name_prefix="vss-session",
                )
            return self._frontend

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def session(self, **defaults) -> "Session":
        """A cheap handle with per-caller spec defaults and stats.

        ``defaults`` may name any non-positional :class:`ReadSpec` or
        :class:`WriteSpec` field (``codec``, ``qp``, ``quality_db``,
        ``cache``, ``mode``, ``gop_size``, ...); they fill in whatever a
        call does not specify explicitly.
        """
        session = Session(self, defaults)
        self._counters.add(num_sessions=1)
        return session

    # ------------------------------------------------------------------
    # create / delete
    # ------------------------------------------------------------------
    def create(self, name: str, budget_bytes: int = 0) -> LogicalVideo:
        """Create a logical video.

        ``budget_bytes = 0`` defers the budget to the default multiple of
        the first written physical video's size.
        """
        return self.catalog.create_logical(name, budget_bytes)

    def delete(self, name: str, force: bool = False) -> None:
        """Delete a logical video or a derived view.

        Deleting a *view* removes only its definition — the base video
        and any fragments cached through the view stay.  Deleting a name
        (view or video) that other views are defined over raises
        :class:`CatalogError` unless ``force=True``, which cascades the
        delete through every transitively dependent view.  The
        dependents check, the cascade and the delete are one catalog
        transaction, so a ``create_view`` racing this delete is either
        cascaded or finds its base gone.
        """
        kind = self.catalog.name_kind(name)
        if kind is None:
            raise VideoNotFoundError(name)
        if kind == "view":
            self.delete_view(name, force=force)
            return
        with self._locked(name):
            logical = self.catalog.get_logical(name)
            # Rows first, in one transaction: a refused delete leaves the
            # video intact, and files go only once no row names them.
            # The catalog announces the GOPs, freeing their decoded
            # prefixes.
            cascaded, unnamed = self.catalog.delete_logical(logical.id, force)
            self._forget_views(cascaded)
            self.layout.sweep(unnamed)
            # Retire the per-logical bookkeeping so name/id churn cannot
            # grow the engine without bound; _locked re-validates, so a
            # waiter on the retired lock re-acquires the fresh one.
            with self._state_lock:
                self._logical_locks.pop(name, None)
                self._refine_cursor.pop(logical.id, None)
                self._pending_maintenance.pop(logical.id, None)
                self._roi_accesses.pop(logical.id, None)

    def delete_view(self, name: str, force: bool = False) -> None:
        """Delete a derived view's definition — never stored video data.

        Unlike :meth:`delete`, a name that is (or mid-call becomes) a
        logical video raises :class:`VideoNotFoundError`: the catalog
        deletion only ever touches view rows, so no race can reach
        stored bytes.  ``force`` cascades dependent views, exactly as in
        :meth:`delete`.
        """
        self._forget_views(self.catalog.delete_view(name, force=force))

    def _forget_views(self, names: list[str]) -> None:
        """Drop deleted views from the in-memory name set and counters."""
        with self._state_lock:
            for name in names:
                self._view_names.discard(name)
                self._view_reads.pop(name, None)

    def list_videos(self, kind: str = "all") -> list[str]:
        """Names in the store, deterministically sorted.

        ``kind`` selects ``"video"`` (logical videos), ``"view"``
        (derived views), or ``"all"`` (both; they share one namespace).
        Each call reads **one catalog snapshot** — a single SQL
        statement — so a create or delete landing concurrently is either
        entirely visible or entirely absent; the listing never shows a
        half-applied state or re-queries per name.
        """
        return self.catalog.list_names(kind)

    def exists(self, name: str) -> bool:
        """True when ``name`` is a logical video *or* a derived view.

        Lets clients probe without a ``CatalogError`` try/except.  Like
        :meth:`list_videos`, the probe is one atomic catalog snapshot.
        """
        return self.name_kind(name) is not None

    def name_kind(self, name: str) -> str | None:
        """``"video"``, ``"view"``, or ``None`` — one catalog snapshot."""
        return self.catalog.name_kind(name)

    def set_budget(self, name: str, budget_bytes: int) -> None:
        self._require_storage(name, "set_budget")
        logical = self.catalog.get_logical(name)
        self.catalog.set_budget(logical.id, budget_bytes)

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def create_view(self, name: str, spec: ViewSpec) -> ViewRecord:
        """Register ``name`` as a derived view defined by ``spec``.

        The view is persisted in the catalog and from then on resolves
        everywhere a video name is accepted (reads, streams, batches,
        stats, ``exists``, the HTTP service).  ``spec.over`` may be a
        logical video or another view; the chain is validated here for
        depth, cycles, and statically checkable geometry (window
        overlap, ROI containment), so a nonsensical view fails at
        creation rather than on first read.  Views are read-only.
        """
        if not isinstance(spec, ViewSpec):
            raise TypeError(
                f"create_view takes a ViewSpec, got {type(spec).__name__}"
            )
        if name == spec.over:
            raise CatalogError(
                f"view {name!r} cannot be defined over itself"
            )
        # Check name availability before walking the chain so a taken
        # name fails as VideoExistsError, not as a bogus cycle report
        # (the catalog re-checks authoritatively under its writer lock).
        if self.catalog.name_kind(name) is not None:
            raise VideoExistsError(name)
        chain = self._view_chain(spec.over)
        if len(chain) >= MAX_VIEW_DEPTH:
            raise CatalogError(
                f"view {name!r} would nest deeper than "
                f"{MAX_VIEW_DEPTH} levels"
            )
        base = chain[-1].spec.over if chain else spec.over
        if self.catalog.name_kind(base) is None:
            raise VideoNotFoundError(base)
        # Folding the new spec through every ancestor validates the
        # statically checkable geometry of the whole chain, not just the
        # immediate parent, so e.g. a window disjoint with a grandparent
        # fails here instead of on every future read.
        functools.reduce(merge_views, (v.spec for v in chain), spec)
        record = self.catalog.create_view(name, spec)
        with self._state_lock:
            self._view_names.add(name)
        return record

    def get_view(self, name: str) -> ViewRecord:
        """The persisted definition of the view named ``name``."""
        return self.catalog.get_view(name)

    def list_views(self) -> list[ViewRecord]:
        """All view definitions, sorted by name."""
        return self.catalog.list_views()

    def _find_view_fast(self, name: str) -> ViewRecord | None:
        """Catalog view lookup behind the in-memory name set.

        The set can only have false negatives if a view is created
        behind the engine's back (unsupported — see the per-logical
        locks); a name in the set still reads its authoritative record
        from the catalog, so stale *positives* just pay the old probe.
        """
        with self._state_lock:
            if name not in self._view_names:
                return None
        return self.catalog.find_view(name)

    def _view_chain(self, name: str) -> list[ViewRecord]:
        """The views ``name`` resolves through, outermost first (empty
        for a logical video or an unknown name).

        The only upward walk: reads, ``create_view`` and view stats all
        use it.  It reads the catalog without the per-logical lock: a
        view definition is immutable, so the only race is a concurrent
        delete, which makes the walk behave as if it started a moment
        earlier.  Creation order makes cycles impossible, so the cycle
        arm only guards against a corrupted catalog.
        """
        chain: list[ViewRecord] = []
        view = self._find_view_fast(name)
        while view is not None:
            if any(v.name == view.name for v in chain):
                raise CatalogError(f"view cycle detected at {view.name!r}")
            chain.append(view)
            if len(chain) > MAX_VIEW_DEPTH:
                raise CatalogError(
                    f"view chain over {name!r} exceeds depth "
                    f"{MAX_VIEW_DEPTH}"
                )
            view = self._find_view_fast(view.spec.over)
        return chain

    def _resolve_read_spec(self, spec: ReadSpec) -> tuple[ReadSpec, list[str]]:
        """Fold a request whose name may be a view into the effective
        read against the base logical video.

        The chain's view specs merge first (:func:`merge_views`, where a
        child's explicit pins always beat an ancestor's), then the
        request folds once over the merged view.  Returns the folded
        spec plus the chain of view names traversed (outermost first;
        empty for a direct read).
        """
        chain = self._view_chain(spec.name)
        if not chain:
            return spec, []
        merged = functools.reduce(merge_views, (v.spec for v in chain))
        return fold_view(spec, merged), [v.name for v in chain]

    def _require_storage(self, name: str, operation: str) -> None:
        """Reject storage-management operations aimed at a view."""
        if self._find_view_fast(name) is not None:
            raise CatalogError(
                f"{name!r} is a view and owns no storage; {operation} "
                f"applies to logical videos (its base shares storage "
                f"with every view over it)"
            )

    def _reject_view_write(self, name: str) -> None:
        if self._find_view_fast(name) is not None:
            raise WriteError(
                f"cannot write to {name!r}: views are virtual and "
                f"read-only — write to the base video instead"
            )

    # ------------------------------------------------------------------
    # write
    # ------------------------------------------------------------------
    def write(
        self,
        spec: WriteSpec,
        segment: VideoSegment | None = None,
        gops: list[EncodedGOP] | None = None,
    ) -> PhysicalVideo:
        """Write video under ``spec.name`` (raw segment or encoded GOPs).

        The first write to a logical video becomes its *original*: the
        lossless reference all quality estimates chain back to.
        """
        if (segment is None) == (gops is None):
            raise WriteError("provide exactly one of segment= or gops=")
        self._reject_view_write(spec.name)
        with self._locked(spec.name):
            logical = self._get_or_create(spec.name)
            is_original = self.catalog.original_physical(logical.id) is None
            if gops is not None:
                outcome = self.writer.write_gops(
                    logical, gops, is_original=is_original
                )
            else:
                outcome = self.writer.write_segment(
                    logical, segment, spec=spec, is_original=is_original
                )
            if is_original:
                self._default_budget(logical, outcome.nbytes)
        self._counters.add(writes=1)
        self._schedule_extraction(logical)
        return outcome.physical

    def open_write_stream(
        self,
        name: str,
        codec: str,
        pixel_format: str,
        width: int,
        height: int,
        fps: float,
        qp: int = QP_DEFAULT,
        gop_size: int | None = None,
    ) -> "HookedStream":
        """Begin a non-blocking streaming write (prefix reads allowed)."""
        self._reject_view_write(name)
        with self._locked(name):
            logical = self._get_or_create(name)
            is_original = self.catalog.original_physical(logical.id) is None
            stream = self.writer.open_stream(
                logical,
                codec=codec,
                pixel_format=pixel_format,
                width=width,
                height=height,
                fps=fps,
                qp=qp,
                is_original=is_original,
                gop_size=gop_size,
            )
        self._counters.add(writes=1)
        return HookedStream(self, logical, stream, is_original)

    def _get_or_create(self, name: str) -> LogicalVideo:
        try:
            return self.catalog.get_logical(name)
        except VideoNotFoundError:
            return self.create(name)

    def _default_budget(self, logical: LogicalVideo, original_bytes: int) -> None:
        fresh = self.catalog.get_logical_by_id(logical.id)
        if fresh.budget_bytes == 0:
            self.catalog.set_budget(
                logical.id, int(original_bytes * self.budget_multiple)
            )

    # ------------------------------------------------------------------
    # read
    # ------------------------------------------------------------------
    def read(self, spec: ReadSpec) -> ReadResult:
        """Execute one read; see :meth:`Session.read` for the usual path.

        ``spec.name`` may be a derived view: the request is folded into
        an effective read against the base logical video first, so all
        locking, planning, and cache admission below operate on (and
        attribute to) the base.

        The *shared* per-logical lock is held only for plan + decode +
        assemble + LRU stamping, so reads of one hot video proceed
        concurrently; cache admission and periodic maintenance are
        queued afterwards by :meth:`_complete_read`.
        """
        spec, view_chain = self._resolve_read_spec(spec)
        logical, (result,) = self._execute_group(
            spec.name, [spec], [view_chain]
        )
        self._complete_read(logical, result.plan, result.stats, result)
        self._schedule_maintenance(logical)
        return result

    def _execute_group(
        self,
        name: str,
        specs: list[ReadSpec],
        chains: list[list[str]],
        batch: BatchStats | None = None,
    ) -> tuple[LogicalVideo, list[ReadResult]]:
        """Answer ``specs`` — all effective reads of logical ``name`` —
        under one hold of its shared lock.

        Plans against one catalog snapshot (one fragment query serves
        every plan-cache miss, and none runs when all specs hit),
        executes, and stamps the touched GOPs' LRU entries once.  With
        ``batch`` (a ``read_batch`` group) the plans run through
        :meth:`Reader.execute_batch`, which decodes each shared GOP
        window once and folds its sharing counters into ``batch``; a
        lone ``read`` keeps :meth:`Reader.execute`, so its
        :class:`ReadStats` attribute every decode to the read itself.
        """
        with self._locked(name, shared=True):
            logical, original = self._read_preamble(
                name, any_raw=any(spec.codec == "raw" for spec in specs)
            )
            group_fragments = functools.cache(
                lambda: self.catalog.fragments_of_logical(logical.id)
            )
            planned = [
                self._plan_for(logical, original, spec, group_fragments)
                for spec in specs
            ]
            if batch is None:
                results = [self.reader.execute(planned[0][0])]
            else:
                results, group_batch = self.reader.execute_batch(
                    [plan for plan, _ in planned]
                )
                batch.merge(group_batch)
            self.catalog.touch_gops(
                [gid for r in results for gid in r.stats.gop_ids_touched],
                self.clock.tick(),
            )
            for result, (_, cached), chain in zip(results, planned, chains):
                result.stats.plan_cached = cached
                result.stats.view_chain = list(chain)
        return logical, results

    def _plan_for(
        self, logical: LogicalVideo, original: PhysicalVideo, spec: ReadSpec,
        fragments_fn=None,
    ):
        """The read plan for ``spec``, memoized by (logical, version, spec,
        cost model).

        Returns ``(plan, cached)``.  Must run under the logical's lock
        (shared suffices: mutations — which bump the version — hold the
        exclusive side, so the version/fragment snapshot cannot move
        mid-plan).  ``fragments_fn`` lets batch groups share one
        fragment query across several cache misses.  Reassigning
        ``cost_model`` (the Figure 10 ablations do) makes every later
        read plan afresh.
        """
        version = self.catalog.data_version(logical.id)
        key = (logical.id, version, spec, self.cost_model)
        with self._plan_lock:
            plan = self._plan_cache.get(key)
            if plan is not None:
                self._plan_cache.move_to_end(key)
        if plan is not None:
            self._counters.add(plan_cache_hits=1)
            return plan, True
        self._counters.add(plan_cache_misses=1)
        fragments = (
            self.catalog.fragments_of_logical(logical.id)
            if fragments_fn is None
            else fragments_fn()
        )
        plan = plan_read(
            spec,
            fragments,
            original,
            self.cost_model,
            self.quality_model,
            mode=spec.mode or "solver",
        )
        with self._plan_lock:
            self._plan_cache[key] = plan
            self._plan_cache.move_to_end(key)
            while len(self._plan_cache) > PLAN_CACHE_SIZE:
                self._plan_cache.popitem(last=False)
        return plan, False

    def _complete_read(
        self,
        logical: LogicalVideo,
        plan,
        stats: ReadStats,
        result: ReadResult | None = None,
    ) -> None:
        """The one post-answer step of every read, batch member and
        drained stream.

        Runs after the shared lock is released — admission needs the
        exclusive side, and upgrading in place would deadlock against
        concurrent readers.  The read's :class:`ReadStats` fold into the
        counter table in one ``add`` (:data:`_READ_TOTALS`); the ROI
        access log the re-tiling policy consumes (genuine sub-frame ROIs
        only) and the per-view counts take ``_state_lock``; then the
        materialized ``result`` (None for a stream, which never holds
        its whole answer) is queued for opportunistic admission when
        cacheable.  Callers follow up with one
        :meth:`_schedule_maintenance` tick per operation (a batch group
        ticks once, not once per member).
        """
        # Zeros are skipped: a warm read's totals mostly are.
        deltas = {
            total: value
            for total in _READ_TOTALS
            if (value := getattr(stats, total))
        }
        deltas["reads"] = 1
        deltas["streams"] = result is None
        deltas["view_reads"] = bool(stats.view_chain)
        deltas["codec_frames_decoded"] = stats.frames_decoded
        self._counters.add(deltas)
        roi = tuple(int(v) for v in plan.roi)
        sub_frame = roi != (0, 0, *plan.original_resolution)
        if sub_frame or stats.view_chain:
            with self._state_lock:
                if sub_frame:
                    per = self._roi_accesses.setdefault(logical.id, {})
                    per[roi] = per.get(roi, 0) + 1
                for view_name in stats.view_chain:
                    self._view_reads[view_name] = (
                        self._view_reads.get(view_name, 0) + 1
                    )
        if (
            result is not None
            and self._should_cache(plan.request)
            and not stats.direct_serve
            and not plan.is_stored_answer()
        ):
            # The closure pins the result's pixels/bytes until the
            # worker runs; the queue's byte bound caps that memory.
            def admit(live: LogicalVideo) -> None:
                self._admit_guarded(live, plan, result)

            self._admissions.submit(
                ("admit", logical.id, plan.request),
                lambda: self._run_if_current(logical, admit),
                nbytes=result.nbytes,
            )

    def _current_incarnation(self, logical: LogicalVideo) -> bool:
        """True while ``logical`` is still the live video of its name.

        Ids are never recycled, so a video re-created under the same
        name has a new one: a queued admission from the deleted
        incarnation must not write its stale frames into it.  A name
        that no longer exists at all raises :class:`VideoNotFoundError`:
        callers run inside :meth:`_locked`, whose handler then retires
        the per-name lock-registry entry a background task would
        otherwise have re-created for a dead name (the registry must not
        grow without bound under name churn).
        """
        return self.catalog.get_logical(logical.name).id == logical.id

    def _run_if_current(
        self, logical: LogicalVideo, fn, shared: bool = False
    ) -> None:
        """The guard every background task runs through.

        Calls ``fn(logical)`` under the video's lock (exclusive unless
        ``shared``) iff ``logical`` is still the live incarnation of its
        name.  A video deleted while the task was queued makes this a
        quiet no-op: :meth:`_current_incarnation` raises inside
        :meth:`_locked`, which retires the registry entry the
        acquisition re-created for the dead name.
        """
        try:
            with self._locked(logical.name, shared=shared):
                if self._current_incarnation(logical):
                    fn(logical)
        except CatalogError:
            pass  # deleted while queued (VideoNotFoundError included)

    def _admit_guarded(
        self, logical: LogicalVideo, plan, result: ReadResult
    ) -> None:
        """Admit unless an equivalent fragment already landed.

        ``plan`` was computed before this admission got its turn, so its
        duplicate check can be stale: another reader's admission of the
        same spec may have materialized the fragment in the meantime
        (queue coalescing only dedups *pending* keys, and two concurrent
        shared-lock readers of one cold spec both transcode).  Re-plan
        against the current catalog — cheap here, off the read path, and
        it pre-warms the plan cache for the readers that follow — and
        skip when the fresh plan says the spec is already served by a
        single format-matched fragment (the admission would store a
        byte-level duplicate and churn the budget).  The *result* being
        admitted is unchanged: outputs are bit-identical however they
        were planned.
        """
        try:
            original = self.catalog.original_physical(logical.id)
            if original is None:
                return
            fresh_plan, _ = self._plan_for(logical, original, plan.request)
        except VSSError:
            fresh_plan = None  # planning hiccup: fall back to the old check
        if fresh_plan is not None and fresh_plan.is_stored_answer():
            return
        self._admit(logical, plan, result)

    def read_stream(
        self, spec: ReadSpec, on_complete=None, on_failure=None
    ) -> "ReadStream":
        """Open a pull-based streaming read with bounded memory.

        Planning happens now, against one catalog snapshot, under the
        per-logical *shared* lock (memoized like :meth:`read`); each
        subsequent chunk pull reacquires the shared lock only while that
        chunk is produced, so long streams interleave freely with each
        other and never starve concurrent operations on their video.
        Streamed reads stamp GOP LRU entries and populate the decode
        cache *per chunk*, but do not admit their result as a new cached
        physical video — that would require materializing the whole
        answer the stream exists to avoid.  Exactly one callback fires
        per stream that is not closed early: ``on_complete`` receives
        the final :class:`ReadStats` and the stream's pull time when it
        is exhausted, ``on_failure`` (no arguments) runs when a chunk
        pull raises.
        """
        if not isinstance(spec, ReadSpec):
            raise TypeError(
                f"read_stream takes a ReadSpec, got {type(spec).__name__}"
            )
        spec, view_chain = self._resolve_read_spec(spec)
        with self._locked(spec.name, shared=True):
            logical, original = self._read_preamble(
                spec.name, any_raw=spec.codec == "raw"
            )
            plan, plan_cached = self._plan_for(logical, original, spec)
            stats = ReadStats.for_plan(plan)
            stats.plan_cached = plan_cached
            stats.view_chain = list(view_chain)
            chunks = self.reader.iter_output(plan, stats=stats)
        return ReadStream(
            self, logical, plan, stats, chunks, on_complete, on_failure
        )

    def read_batch(self, specs: list[ReadSpec]) -> tuple[list[ReadResult], BatchStats]:
        """Execute several reads with shared planning and decode work.

        Specs are grouped by logical video; each group plans against one
        catalog snapshot, decodes every shared GOP window once, and
        touches LRU stamps once (:meth:`_execute_group`); every member
        then completes exactly like a one-shot read, its admission
        coalescing with duplicates on the queue.  Results come back in
        spec order.
        """
        for spec in specs:
            if not isinstance(spec, ReadSpec):
                raise TypeError(
                    f"read_batch takes ReadSpec objects, got {type(spec).__name__}"
                )
        # Resolve views first: specs addressing different views over one
        # base fold into the same logical video, so they join one group
        # and share its planning snapshot and decode windows.
        resolved = [self._resolve_read_spec(spec) for spec in specs]
        specs = [effective for effective, _ in resolved]
        chains = [chain for _, chain in resolved]
        results: list[ReadResult | None] = [None] * len(specs)
        total = BatchStats()
        groups: dict[str, list[int]] = {}
        for index, spec in enumerate(specs):
            groups.setdefault(spec.name, []).append(index)
        # Fail fast before mutating anything: a typo'd or empty video in
        # one spec must not leave earlier groups' side effects (admission,
        # eviction, LRU stamps) committed while the batch raises.
        for name in groups:
            logical = self.catalog.get_logical(name)
            if self.catalog.original_physical(logical.id) is None:
                raise ReadError(f"logical video {name!r} has no data")
        # Groups are handled one after another (never holding two logical
        # locks at once), so batches cannot deadlock against each other.
        for name in sorted(groups):
            indices = groups[name]
            logical, group_results = self._execute_group(
                name,
                [specs[i] for i in indices],
                [chains[i] for i in indices],
                batch=total,
            )
            for i, result in zip(indices, group_results):
                results[i] = result
                self._complete_read(logical, result.plan, result.stats, result)
            self._schedule_maintenance(logical)
        self._counters.add(batches=1)
        return results, total

    def _read_preamble(
        self, name: str, any_raw: bool
    ) -> tuple[LogicalVideo, PhysicalVideo]:
        """Resolve the logical/original pair; flag deferred compression.

        ``any_raw`` is True when at least one read in the operation wants
        uncompressed output (section 5.2's deferred-compression trigger).
        On an active video that marks one page compression due; the
        operation's :meth:`_schedule_maintenance` tick queues it.
        """
        logical = self.catalog.get_logical(name)
        original = self.catalog.original_physical(logical.id)
        if original is None:
            raise ReadError(f"logical video {name!r} has no data")
        if any_raw and self.deferred.active(logical):
            with self._state_lock:
                self._due_flags(logical)[0] = True
        return logical, original

    def _should_cache(self, spec: ReadSpec) -> bool:
        return self.cache_reads if spec.cache is None else spec.cache

    # ------------------------------------------------------------------
    # cache admission (section 4)
    # ------------------------------------------------------------------
    def _admit(self, logical: LogicalVideo, plan, result: ReadResult) -> None:
        if plan.is_stored_answer():
            return
        quality, request, stats = self.quality_model, plan.request, result.stats
        sources = [c.fragment.physical for c in plan.choices]
        # Two bounds: against the original, with the format conversion's
        # measured loss; and as a later read in this same format sees it
        # (sources judged the same way, no conversion step).  Their
        # difference is the new physical's ``format_mse``.
        mse_estimate = quality.estimate_after_transcode(
            source_mse=max((p.mse_estimate for p in sources), default=0.0),
            resample_mse=stats.resample_mse + stats.format_mse,
            target_codec=request.codec,
            achieved_bpp=stats.output_bpp,
        )
        own_format_mse = quality.estimate_after_transcode(
            source_mse=max(
                (quality.mse_for(p, request.pixel_format) for p in sources),
                default=0.0,
            ),
            resample_mse=stats.resample_mse,
            target_codec=request.codec,
            achieved_bpp=stats.output_bpp,
        )
        format_mse = mse_estimate - own_format_mse
        full = (0, 0, *plan.original_resolution)
        roi = None if tuple(plan.roi) == full else tuple(plan.roi)
        if result.gops is not None:
            self.writer.write_gops(
                logical,
                result.gops,
                mse_estimate=mse_estimate,
                roi=roi,
                format_mse=format_mse,
            )
        else:
            self.writer.write_segment(
                logical,
                result.segment,
                spec=WriteSpec(name=logical.name, codec="raw"),
                mse_estimate=mse_estimate,
                roi=roi,
                format_mse=format_mse,
            )
        # Enforce the budget and accept the outcome, whatever mix of old
        # and new pages the policy retains (paper Figure 5: admitting m4
        # evicts part of m1).  No rollback: eviction may already have
        # removed pages the new physical was covering, so deleting the new
        # pages afterwards could orphan part of the timeline.
        self.cache.enforce_budget(logical)

    def enforce_budget(self, name: str) -> EvictionReport:
        self._require_storage(name, "enforce_budget")
        with self._locked(name):
            logical = self.catalog.get_logical(name)
            return self.cache.enforce_budget(logical)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def _maintenance_flags(self) -> tuple[bool, bool]:
        """Advance the read counters; (compact due, refine due)."""
        with self._state_lock:
            self._reads_since_compact += 1
            compact_due = self._reads_since_compact >= COMPACT_INTERVAL
            if compact_due:
                self._reads_since_compact = 0
            self._reads_since_refine += 1
            refine_due = self._reads_since_refine >= REFINE_INTERVAL
            if refine_due:
                self._reads_since_refine = 0
        return compact_due, refine_due

    def _due_flags(self, logical: LogicalVideo) -> list:
        """``logical``'s pending maintenance entry, created on demand.
        The caller holds ``_state_lock``."""
        pending = self._pending_maintenance.get(logical.id)
        if pending is None:
            pending = self._pending_maintenance[logical.id] = [
                False, False, False, logical,
            ]
        return pending

    def _schedule_maintenance(self, logical: LogicalVideo) -> None:
        """Tick the periodic compaction/refinement counters for one read.

        Due work runs off the critical path on the admission worker
        (coalesced per logical).  Due flags — these two and the
        compression flag :meth:`_read_preamble` sets — accumulate in
        ``_pending_maintenance`` rather than in the queued closure, so a
        submission coalesced away can never lose a freshly-due task: the
        queued task reads the merged flags when it runs.
        """
        compact_due, refine_due = self._maintenance_flags()
        with self._state_lock:
            pending = self._pending_maintenance.get(logical.id)
            if compact_due or refine_due:
                pending = self._due_flags(logical)
                pending[1] |= compact_due
                pending[2] |= refine_due
            if pending is None:
                return
        # Submit whenever flags are pending, not just when one became
        # due now: a submission shed by a full queue earlier is retried
        # by every later read until it lands (drain flushes the rest).
        self._admissions.submit(
            ("maintain", logical.id),
            lambda: self._maintenance_task(logical.id),
        )

    def _maintenance_task(self, logical_id: int) -> None:
        """Consume (and clear) the accumulated due flags for one video.

        A concurrent :meth:`_schedule_maintenance` either merged its
        flags before this pop (they run now) or re-submits after this
        task's key left the queue (they run next); nothing is dropped.
        """
        with self._state_lock:
            pending = self._pending_maintenance.pop(logical_id, None)
        if pending is None:
            return
        compress_due, compact_due, refine_due, logical = pending

        def maintain(live: LogicalVideo) -> None:
            if compress_due:
                self.deferred.compress_one(live)
            if compact_due:
                self.compactor.compact(live)
                self._maybe_retile(live)
            if refine_due:
                self._refine_one(live)

        self._run_if_current(logical, maintain)

    def compact(self, name: str) -> int:
        self._require_storage(name, "compact")
        with self._locked(name):
            logical = self.catalog.get_logical(name)
            return self.compactor.compact(logical)

    def retile(
        self,
        name: str,
        grid: TileGrid | None = None,
        rows: int = 2,
        cols: int = 2,
    ):
        """Lay ``name`` out as spatial tiles (replacing any current grid).

        The explicit counterpart of the access-driven policy: build a
        tiled layout now, with ``grid`` (or a uniform ``rows x cols``
        one).  ROI reads then decode only the tiles they intersect;
        full-frame reads keep planning against the untiled source and
        stay byte-identical.  Returns the new
        :class:`~repro.core.records.TileGroupRecord`, or None when an
        equal grid is already in place.
        """
        self._require_storage(name, "retile")
        with self._locked(name):
            logical = self.catalog.get_logical(name)
            original = self.catalog.original_physical(logical.id)
            if original is None:
                raise ReadError(f"logical video {name!r} has no data")
            if grid is None:
                grid = TileGrid.uniform(
                    rows, cols, original.width, original.height
                )
            group = self.tiler.retile(logical, original, grid)
        # The catalog bumped the data version, so memoized plans for the
        # old layout are already unreachable.
        if group is not None:
            self._counters.add(retiles=1)
        return group

    def _maybe_retile(self, logical: LogicalVideo) -> None:
        """Access-driven re-tiling (runs under the exclusive lock during
        maintenance): flush the in-memory ROI access log to the catalog,
        then ask the policy whether the accumulated evidence justifies a
        new grid.  A successful retile consumes the log, so the next
        proposal needs fresh evidence."""
        with self._state_lock:
            accesses = self._roi_accesses.pop(logical.id, None)
        if accesses:
            self.catalog.record_roi_accesses(
                logical.id, accesses, self.clock.tick()
            )
        original = self.catalog.original_physical(logical.id)
        if original is None:
            return
        stored = self.catalog.roi_accesses(logical.id)
        if not stored:
            return
        groups = self.catalog.tile_groups_of_logical(logical.id)
        current = groups[0].grid if groups else None
        grid = self.retile_policy.propose(
            original.width, original.height, stored, current
        )
        if grid is None:
            return
        try:
            self.tiler.retile(logical, original, grid)
        except WriteError:
            return  # source not tileable (evicted pages / joint pairs)
        self.catalog.clear_roi_accesses(logical.id)
        self._counters.add(retiles=1)

    def _refine_one(self, logical: LogicalVideo) -> None:
        """Periodic exact-quality sampling (section 3.2): decode a sample
        of one cached physical video, compare against the original, and
        replace the estimated MSE with the measurement.  A per-logical
        cursor rotates through the candidates, so refinement eventually
        covers every cached physical instead of resampling the first."""
        original = self.catalog.original_physical(logical.id)
        if original is None:
            return
        candidates = [
            p
            for p in self.catalog.list_physicals(logical.id)
            if not p.is_original and p.sealed and p.mse_estimate > 0.0
        ]
        if not candidates:
            return
        with self._state_lock:
            cursor = self._refine_cursor.get(logical.id, 0)
            self._refine_cursor[logical.id] = cursor + 1
        physical = candidates[cursor % len(candidates)]
        gops = self.catalog.gops_of_physical(physical.id)
        if not gops:
            return
        sample = gops[0]
        window = self.catalog.gops_of_physical(
            original.id, sample.start_time, sample.end_time
        )
        if not window or any(g.joint_pair_id is not None for g in window):
            # Joint originals are skipped: loading them through the
            # reader is ROADMAP item 2's fix, which must ship with the
            # resize charge.
            return
        try:
            cached = self.reader.load_stored(sample)
            pieces = [self.reader.load_stored(gop) for gop in window]
        except ReadError:
            return  # sampling is best-effort
        reference = pieces[0].concatenate(pieces).slice_time(
            sample.start_time, sample.end_time
        )
        reference = self._match_geometry(reference, physical)
        frames = min(cached.num_frames, reference.num_frames)
        if frames == 0:
            return
        reference = reference.slice_frames(0, frames)
        cached = cached.slice_frames(0, frames)
        # In the original's pixel format: ``segment_mse`` converts
        # ``cached`` to it, so a subsampled fragment's chroma loss counts.
        measured = segment_mse(reference, cached)
        format_mse = 0.0
        if physical.pixel_format != reference.pixel_format:
            # As a read in the fragment's own format sees it: against the
            # reference put through the same conversion.
            converted = convert_segment(
                convert_segment(reference, physical.pixel_format),
                reference.pixel_format,
            )
            format_mse = max(measured - segment_mse(converted, cached), 0.0)
        # Quality estimates feed fragment selection; the catalog bumps
        # the version, so reads re-plan from here on.
        self.catalog.update_mse_estimate(physical.id, measured, format_mse)

    @staticmethod
    def _match_geometry(
        reference: VideoSegment, physical: PhysicalVideo
    ) -> VideoSegment:
        """``reference`` cropped and resized to ``physical``'s region and
        resolution, left in its own pixel format."""
        if physical.roi is not None:
            x0, y0, x1, y1 = physical.roi
            reference = crop_roi(reference, x0, x1, y0, y1)
        if (reference.width, reference.height) != physical.resolution:
            reference = resize_segment(
                reference, physical.width, physical.height
            )
        return reference

    # ------------------------------------------------------------------
    # consistency
    # ------------------------------------------------------------------
    def check(self, name: str | None = None) -> dict[str, list[str]]:
        """Diff the catalog against the files, for one video or the store.

        Returns relative paths under three keys: ``orphans`` (files no
        row names), ``dangling`` (files a row names that are missing) and
        ``mismatched`` (GOP files whose header codec, frame count or
        geometry disagrees with the catalog).  Each video is diffed under
        its shared lock (:func:`diff_store`).  Nothing is repaired.
        """
        if name is not None:
            self._require_storage(name, "check")
        return diff_store(
            self.layout,
            self.catalog,
            None if name is None else [name],
            hold=lambda video: self._locked(video, shared=True),
        )

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def _absorb_session(self, stats: SessionStats) -> None:
        """Fold a closing session's counters into the engine
        (:meth:`Session.close`)."""
        self._counters.add(
            failures=stats.failures, session_seconds=stats.wall_seconds
        )

    def stats(self) -> EngineStats:
        """Store-wide counters: traffic, decode cache, executor."""
        decode = self.decode_cache.stats
        admissions = self._admissions.stats
        totals = self._counters.snapshot()
        return EngineStats(
            **totals,
            num_logical_videos=len(self.catalog.list_logical()),
            num_views=self.catalog.count_views(),
            parallelism=self.executor.parallelism,
            executor_tasks=self.executor.tasks_completed,
            decode_cache_hits=decode.hits,
            decode_cache_misses=decode.misses,
            decode_cache_hit_rate=decode.hit_rate,
            decode_cache_evictions=decode.evictions,
            decode_cache_invalidations=decode.invalidations,
            decode_cache_bytes=self.decode_cache.current_bytes,
            decode_cache_resized_bytes=self.decode_cache.resized_bytes,
            lock_shared_acquisitions=self._lock_stats.shared_acquisitions,
            lock_exclusive_acquisitions=(
                self._lock_stats.exclusive_acquisitions
            ),
            admission_queue_depth=self._admissions.depth,
            admissions_enqueued=admissions.enqueued,
            admissions_completed=admissions.completed,
            admissions_coalesced=admissions.coalesced,
            admissions_dropped=admissions.dropped,
            search_index_rows=self._search_index.count_rows(),
            codec_decode_mb_per_s=decode_mb_per_s(totals),
        )

    def video_stats(self, name: str) -> StoreStats | ViewStats:
        """Per-name summary (see :meth:`stats` for store-wide counters).

        For a logical video: its :class:`StoreStats`.  For a derived
        view: a :class:`ViewStats` describing the definition, the chain,
        the traffic routed through it, and the base's storage.
        """
        chain = self._view_chain(name)
        if chain:
            return self._view_stats(chain)
        logical = self.catalog.get_logical(name)
        fragments = self.catalog.fragments_of_logical(logical.id)
        gops = self.catalog.gops_of_logical(logical.id)
        return StoreStats(
            name=name,
            budget_bytes=logical.budget_bytes,
            total_bytes=self.catalog.total_bytes(logical.id),
            num_physicals=len(self.catalog.list_physicals(logical.id)),
            num_fragments=len(fragments),
            num_gops=len(gops),
        )

    def _view_stats(self, chain: list[ViewRecord]) -> ViewStats:
        view, base = chain[0], chain[-1].spec.over
        with self._state_lock:
            reads = self._view_reads.get(view.name, 0)
        base_stats = self.video_stats(base)
        assert isinstance(base_stats, StoreStats)  # chains end at storage
        return ViewStats(
            name=view.name,
            over=view.spec.over,
            base=base,
            depth=len(chain),
            reads=reads,
            spec=view.spec,
            base_stats=base_stats,
        )

    # ------------------------------------------------------------------
    # content index & search
    # ------------------------------------------------------------------
    def _schedule_extraction(self, logical: LogicalVideo) -> None:
        """Queue ingest-time feature extraction for ``logical``.

        Rides the admission worker so extraction never blocks the write
        path; keyed per incarnation so back-to-back writes coalesce into
        one pass (the queued task re-reads the catalog and indexes
        whatever GOPs exist by the time it runs) while a re-created
        video, whose id is new, still gets its own.
        """
        key = ("extract", logical.id)
        if self._admissions.pending(key):
            return  # coalesces with the queued pass; nothing dropped
        submitted = self._admissions.submit(
            key, lambda: self._extraction_task(logical)
        )
        self._counters.add(
            **{"extraction_pending" if submitted else "extraction_dropped": 1}
        )

    def _extraction_task(self, logical: LogicalVideo) -> None:
        """Admission-worker body: index the original's un-indexed GOPs."""
        try:
            self._run_if_current(logical, self._extract_missing, shared=True)
        finally:
            self._counters.add(extraction_pending=-1, extraction_completed=1)

    def _extract_missing(self, logical: LogicalVideo) -> int:
        """Index the original's GOPs not yet in the search index.

        Only the *original* physical is extracted: it is never evicted,
        compacted, or rewritten, so its ``(logical, gop_seq)`` rows stay
        valid for the video's whole life — derived physicals come and go
        with the budget.  Caller holds at least the shared lock.
        """
        original = self.catalog.original_physical(logical.id)
        if original is None:
            return 0
        records = self.catalog.gops_of_physical(original.id)
        skip = self._search_index.indexed_seqs(logical.id)
        return extract_physical(
            self._search_index,
            logical.id,
            records,
            self.reader.load_stored,
            data_version=self.catalog.data_version(logical.id),
            skip_seqs=skip,
        )

    def reindex(self, name: str) -> int:
        """Drop and rebuild the content index for one video.

        Backfill for videos ingested before indexing existed (or under a
        newer extractor).  Runs synchronously — the caller asked for the
        index to be fresh — and returns the number of GOPs indexed.
        """
        with self._locked(name, shared=True):
            logical = self.catalog.get_logical(name)
            self._search_index.drop_logical(logical.id)
            return self._extract_missing(logical)

    def search(
        self,
        text: str | None = None,
        like=None,
        limit: int = DEFAULT_SEARCH_LIMIT,
        min_score: float = 0.0,
    ) -> list[SearchHit]:
        """Ranked :class:`SearchHit` GOPs matching ``text`` and/or ``like``.

        Pure index work — no video is locked or decoded.  Each hit's
        ``as_view()`` materializes a derived view over exactly the hit
        window, so the follow-up read decodes only matching GOPs.
        """
        begin = time.perf_counter()
        scored = run_search(
            self._search_index,
            text=text,
            like=like,
            limit=limit,
            min_score=min_score,
        )

        def name_of(logical_id: int) -> str | None:
            try:
                return self.catalog.get_logical_by_id(logical_id).name
            except CatalogError:
                return None

        hits = rows_to_hits(scored, name_of)
        self._counters.add(
            searches_served=1, search_seconds=time.perf_counter() - begin
        )
        return hits


class ReadStream:
    """A pull-based handle over one streamed read.

    Iterating yields :class:`repro.core.reader.ReadChunk` increments —
    decoded segments for raw requests, encoded GOP runs for compressed
    ones — holding only O(GOP window) frames resident at a time.  The
    per-logical *shared* lock is taken per *chunk*, so streams and
    one-shot reads over one video genuinely overlap, and a delete can
    land mid-stream (the next pull then raises the read/catalog error).

    ``stats`` accumulates as chunks are pulled and is final once the
    stream is exhausted, at which point the engine's read counters and
    periodic maintenance run exactly as for a one-shot ``read()``.
    A pull that raises kills the stream and reports one failure instead;
    closing early abandons the remainder and counts as neither.
    """

    def __init__(
        self,
        engine: VSSEngine,
        logical: LogicalVideo,
        plan,
        stats: ReadStats,
        chunks,
        on_complete=None,
        on_failure=None,
    ):
        self._engine = engine
        self._logical = logical
        self.spec = plan.request
        self.plan = plan
        self.stats = stats
        self._chunks = chunks
        self._on_complete = on_complete
        self._on_failure = on_failure
        self._done = False
        self._wall = 0.0
        self.chunks_pulled = 0

    def __iter__(self) -> "ReadStream":
        return self

    def __next__(self) -> ReadChunk:
        if self._done:
            raise StopIteration
        begin = time.perf_counter()
        engine = self._engine
        try:
            with engine._locked(self.spec.name, shared=True):
                chunk = next(self._chunks, None)
                if chunk is not None:
                    engine.catalog.touch_gops(
                        chunk.gop_ids, engine.clock.tick()
                    )
        except BaseException:
            # A failed stream is dead, not drained: mark it done so a
            # later pull/collect cannot complete it as a successful read.
            self._done = True
            self._chunks.close()
            if self._on_failure is not None:
                self._on_failure()
            raise
        if chunk is not None:
            self._note_wall(begin)
            self.chunks_pulled += 1
            return chunk
        # Complete outside the shared lock: maintenance needs the
        # exclusive side, and an in-place upgrade would deadlock.
        self._done = True
        engine._complete_read(self._logical, self.plan, self.stats)
        engine._schedule_maintenance(self._logical)
        self._note_wall(begin)
        if self._on_complete is not None:
            self._on_complete(self.stats, self._wall)
        raise StopIteration

    def _note_wall(self, begin: float) -> None:
        self._wall += time.perf_counter() - begin
        self.stats.wall_seconds = self._wall

    @property
    def exhausted(self) -> bool:
        return self._done

    def collect(self) -> ReadResult:
        """Drain the remaining chunks into one :class:`ReadResult`.

        A convenience for callers that opened a stream but want the
        materialized answer after all — segments are concatenated (GOP
        runs are flattened), giving the same pixels/bytes a plain
        ``read()`` with this spec would return (minus cache admission).
        """
        segment, gops = collect_chunks(self)
        return ReadResult(self.plan, segment, gops, self.stats)

    def close(self) -> None:
        """Abandon the stream early (no read is counted)."""
        if not self._done:
            self._done = True
            self._chunks.close()

    def __enter__(self) -> "ReadStream":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class Session(SessionSurface):
    """A cheap, thread-compatible handle onto a :class:`VSSEngine`.

    A session carries per-caller spec defaults (e.g. a surveillance
    consumer always reading ``codec="h264", qp=12``) and accumulates
    :class:`SessionStats`.  Sessions share the engine's catalog, caches,
    and thread pools; creating one allocates no store resources, so "one
    session per request handler" is the intended usage.  A session's own
    counters are lock-guarded, so a single session may also be shared by
    several threads.  The read / stream / batch / async / write calls,
    their accounting and the unary ops are :class:`SessionSurface`'s,
    the same code a remote client runs; a session supplies the engine as
    its transport, and runs a unary op's table entry in-process.
    """

    def __init__(self, engine: VSSEngine, defaults: dict):
        super().__init__(defaults)
        self._engine = engine

    @property
    def engine(self) -> VSSEngine:
        return self._engine

    def _shutdown(self) -> None:
        """Flush this session into the engine, once, at :meth:`close`.

        Drains the engine's background admission queue (so every
        admission this session's reads triggered is durably applied —
        the deterministic hand-off point for request handlers) and folds
        :attr:`stats` (failures, wall seconds) into
        :class:`EngineStats`.  The engine itself is untouched — sessions
        are cheap handles.
        """
        self._engine.drain_admissions()
        self._engine._absorb_session(self.stats)

    # ------------------------------------------------------------------
    # transport hooks (the calls themselves are SessionSurface's)
    # ------------------------------------------------------------------
    def _read_one(self, spec: ReadSpec) -> ReadResult:
        return self._engine.read(spec)

    def _open_stream(self, spec: ReadSpec, on_complete, on_failure) -> ReadStream:
        return self._engine.read_stream(
            spec, on_complete=on_complete, on_failure=on_failure
        )

    def _read_many(self, specs: list[ReadSpec]) -> tuple[list[ReadResult], BatchStats]:
        return self._engine.read_batch(specs)

    def _write_one(self, spec: WriteSpec, segment, gops) -> PhysicalVideo:
        return self._engine.write(spec, segment=segment, gops=gops)

    def _submit(self, fn, *args) -> Future:
        return self._engine._frontend_pool().submit(fn, *args)

    def _unary(self, op: str, params: dict) -> dict:
        return OPS[op](self, params)

    def write(
        self,
        spec_or_name: WriteSpec | str,
        segment: VideoSegment | None = None,
        gops: list[EncodedGOP] | None = None,
        **overrides,
    ) -> PhysicalVideo:
        """Write video; takes a :class:`WriteSpec` or a name."""
        return self._write(spec_or_name, overrides, segment, gops)


class HookedStream:
    """Streaming writer that drives deferred compression as data lands.

    During a long raw write the budget fills early; the paper's Figure 13
    shows deferred compression activating mid-write and moderating size at
    the cost of throughput.  This wrapper triggers that path after every
    appended chunk.

    Appends take the engine's per-logical lock, so a stream races neither
    concurrent reads of its prefix nor ``engine.delete()`` — appending to
    a video deleted mid-stream raises :class:`WriteError` instead of
    resurrecting its pages.
    """

    def __init__(
        self,
        engine: VSSEngine,
        logical: LogicalVideo,
        stream: StreamWriter,
        is_original: bool,
    ):
        self._engine = engine
        self._logical = logical
        self._stream = stream
        self._is_original = is_original

    @property
    def physical(self) -> PhysicalVideo:
        return self._stream.physical

    @property
    def nbytes(self) -> int:
        return self._stream.nbytes

    def _check_alive(self) -> None:
        """Raise when the logical video this stream opened was deleted,
        even if a new video of the same name replaced it."""
        try:
            alive = self._engine._current_incarnation(self._logical)
        except CatalogError:
            alive = False
        if not alive:
            raise WriteError(
                f"logical video {self._logical.name!r} was deleted during "
                f"the streaming write"
            )

    def append(self, segment: VideoSegment) -> None:
        with self._engine._locked(self._logical.name):
            self._check_alive()
            self._stream.append(segment)
            self._maybe_defer()

    def append_gops(self, gops: list[EncodedGOP]) -> None:
        with self._engine._locked(self._logical.name):
            self._check_alive()
            self._stream.append_gops(gops)
            self._maybe_defer()

    def _maybe_defer(self) -> None:
        if self._is_original:
            # Budget defaults are set from the original's final size; during
            # an original write, derive a provisional budget from bytes so
            # far so the threshold can engage (the paper's Figure 13 run).
            logical = self._engine.catalog.get_logical_by_id(self._logical.id)
            if logical.budget_bytes == 0:
                return
        if self._stream.physical.codec == "raw" and self._engine.deferred.active(
            self._logical
        ):
            self._engine.deferred.compress_one(self._logical)

    def close(self):
        with self._engine._locked(self._logical.name):
            self._check_alive()
            outcome = self._stream.close()
            if self._is_original:
                self._engine._default_budget(self._logical, outcome.nbytes)
        self._engine._schedule_extraction(self._logical)
        return outcome

    def __enter__(self) -> "HookedStream":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._stream.closed and self._stream.has_data:
            self.close()
