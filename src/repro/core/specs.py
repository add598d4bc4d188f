"""Typed request specifications, and the one surface that takes them.

:class:`ReadSpec`, :class:`WriteSpec` and :class:`ViewSpec` are the
requests; :class:`SessionSurface` is the Session-shaped handle a local
session and both remote clients share (spec defaults, the read / stream
/ batch / async / write calls and their :class:`SessionStats`, and one
method per unary op of the service-op table).

One request type is shared by sessions, clients, the planner, the
reader, the writer and the cache-admission path.  A spec is validated
*at construction* — an invalid interval, ROI, codec, or qp fails
immediately, not deep inside a read — and is immutable, so it
can be shared freely across sessions and threads, stored in plans, and
replayed.

``spec.replace(start=5.0)`` derives a new spec with one field changed,
which is the idiomatic way to sweep a parameter::

    base = ReadSpec("traffic", 0.0, 1.0, codec="h264")
    specs = [base.replace(start=t, end=t + 1.0) for t in range(8)]
    session.read_batch(specs)
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.quality import DEFAULT_EPSILON_DB
from repro.core.records import ROI, LogicalVideo, ViewRecord
from repro.core.roi import check_roi
from repro.errors import FormatError, OutOfRangeError
from repro.search.query import DEFAULT_LIMIT as DEFAULT_SEARCH_LIMIT
from repro.search.query import SearchHit, like_to_vector
from repro.video.codec.quant import QP_DEFAULT, QP_MAX, QP_MIN
from repro.video.codec.registry import CODEC_NAMES
from repro.video.frame import PIXEL_FORMATS

if TYPE_CHECKING:
    from repro.core.engine import StoreStats, ViewStats
    from repro.core.reader import BatchStats, ReadResult, ReadStats

#: Planner modes accepted by :attr:`ReadSpec.mode` (None = ``solver``).
PLANNER_MODES = ("solver", "greedy", "original")


def _check_name(name) -> None:
    if not isinstance(name, str) or not name:
        raise ValueError(f"video name must be a non-empty string, got {name!r}")


def _check_codec(codec: str) -> None:
    if codec not in CODEC_NAMES:
        raise FormatError(
            f"unknown codec {codec!r}; expected one of {sorted(CODEC_NAMES)}"
        )


def _check_qp(qp: int) -> None:
    if not QP_MIN <= qp <= QP_MAX:
        raise ValueError(f"qp must be in [{QP_MIN}, {QP_MAX}], got {qp}")


def check_planner_mode(mode: str) -> None:
    if mode not in PLANNER_MODES:
        raise ValueError(
            f"unknown planning mode {mode!r}; expected one of {PLANNER_MODES}"
        )


def _check_finite(field_name: str, value: float) -> None:
    # nan slips through ordinary comparisons (nan <= x is always False),
    # so every float field is explicitly pinned to finite values.
    if not math.isfinite(value):
        raise ValueError(f"{field_name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ReadSpec:
    """One read request (the paper's Figure 1 parameters, typed).

    Temporal (T): ``start``/``end`` seconds and output ``fps``; spatial
    (S): output ``resolution`` and ``roi`` in original coordinates;
    physical (P): ``codec``, ``pixel_format``, output ``qp``, and the
    quality cutoff ``quality_db`` below which cached fragments are
    rejected.  ``cache`` overrides the store's read-caching default (None
    = inherit) and ``mode`` picks the planner (None = ``solver``).
    """

    name: str
    start: float
    end: float
    codec: str = "raw"
    pixel_format: str = "rgb"
    resolution: tuple[int, int] | None = None
    roi: ROI | None = None
    fps: float | None = None
    quality_db: float = DEFAULT_EPSILON_DB
    qp: int = QP_DEFAULT
    cache: bool | None = None
    mode: str | None = None

    def __post_init__(self) -> None:
        _check_name(self.name)
        _check_finite("start", self.start)
        _check_finite("end", self.end)
        _check_finite("quality_db", self.quality_db)
        if self.fps is not None:
            _check_finite("fps", self.fps)
        if self.end <= self.start:
            raise OutOfRangeError(
                f"empty read interval [{self.start}, {self.end})"
            )
        _check_codec(self.codec)
        if self.pixel_format not in PIXEL_FORMATS:
            raise FormatError(
                f"unknown pixel format {self.pixel_format!r}; expected one "
                f"of {sorted(PIXEL_FORMATS)}"
            )
        if self.resolution is not None:
            width, height = self.resolution
            if width < 1 or height < 1:
                raise ValueError(
                    f"resolution must be positive, got {self.resolution}"
                )
        if self.roi is not None:
            check_roi(self.roi)
        if self.fps is not None and self.fps <= 0:
            raise ValueError(f"fps must be positive, got {self.fps}")
        _check_qp(self.qp)
        if self.mode is not None:
            check_planner_mode(self.mode)

    def replace(self, **changes) -> "ReadSpec":
        """A copy of this spec with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """A lossless, JSON-serializable dict form (the wire protocol)."""
        from repro.core.wire import read_spec_to_dict

        return read_spec_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ReadSpec":
        """Rebuild a spec from :meth:`to_dict` output (revalidated;
        unknown keys rejected)."""
        from repro.core.wire import read_spec_from_dict

        return read_spec_from_dict(data)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class WriteSpec:
    """One write request: how to encode and store incoming video.

    ``gop_size`` of None uses the codec's default; pre-encoded GOP writes
    ignore the encode knobs (the GOPs are stored as-is).
    """

    name: str
    codec: str = "h264"
    qp: int = QP_DEFAULT
    gop_size: int | None = None

    def __post_init__(self) -> None:
        _check_name(self.name)
        _check_codec(self.codec)
        _check_qp(self.qp)
        if self.gop_size is not None and self.gop_size < 1:
            raise ValueError(f"gop_size must be >= 1, got {self.gop_size}")

    def replace(self, **changes) -> "WriteSpec":
        """A copy of this spec with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """A lossless, JSON-serializable dict form (the wire protocol)."""
        from repro.core.wire import write_spec_to_dict

        return write_spec_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "WriteSpec":
        """Rebuild a spec from :meth:`to_dict` output (revalidated;
        unknown keys rejected)."""
        from repro.core.wire import write_spec_from_dict

        return write_spec_from_dict(data)


@dataclass(frozen=True)
class ViewSpec:
    """The definition of a *derived view*: a named virtual video.

    A view is a transformation over a base video (or over another view):
    ``over`` names the parent, ``start``/``end`` restrict the window (in
    the base timeline), ``roi`` crops (in the parent's output
    coordinates), and ``resolution``/``fps``/``codec``/``qp``/
    ``quality_db`` set the view's materialization defaults.  Every field
    except ``over`` is optional — ``None`` means "inherit from the
    parent / the read".

    Views own no storage: a read against a view is folded into a single
    effective :class:`ReadSpec` against the base video (see
    :func:`repro.core.read_planner.fold_view`), so the planner, reader,
    and caches are reused unchanged and cached fragments are attributed
    to the base logical video.
    """

    over: str
    start: float | None = None
    end: float | None = None
    roi: ROI | None = None
    resolution: tuple[int, int] | None = None
    fps: float | None = None
    codec: str | None = None
    qp: int | None = None
    quality_db: float | None = None

    def __post_init__(self) -> None:
        _check_name(self.over)
        if self.quality_db is not None:
            _check_finite("quality_db", self.quality_db)
        if self.start is not None:
            _check_finite("start", self.start)
        if self.end is not None:
            _check_finite("end", self.end)
        if (
            self.start is not None
            and self.end is not None
            and self.end <= self.start
        ):
            raise OutOfRangeError(
                f"empty view window [{self.start}, {self.end})"
            )
        if self.roi is not None:
            check_roi(self.roi)
        if self.resolution is not None:
            width, height = self.resolution
            if width < 1 or height < 1:
                raise ValueError(
                    f"resolution must be positive, got {self.resolution}"
                )
        if self.fps is not None:
            _check_finite("fps", self.fps)
            if self.fps <= 0:
                raise ValueError(f"fps must be positive, got {self.fps}")
        if self.codec is not None:
            _check_codec(self.codec)
        if self.qp is not None:
            _check_qp(self.qp)

    def replace(self, **changes) -> "ViewSpec":
        """A copy of this spec with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """A lossless, JSON-serializable dict form (the wire protocol)."""
        from repro.core.wire import view_spec_to_dict

        return view_spec_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ViewSpec":
        """Rebuild a spec from :meth:`to_dict` output (revalidated;
        unknown keys rejected)."""
        from repro.core.wire import view_spec_from_dict

        return view_spec_from_dict(data)


#: Field names callers may pass as session defaults / read overrides.
READ_SPEC_FIELDS = frozenset(
    f.name for f in dataclasses.fields(ReadSpec)
) - {"name", "start", "end"}

#: Field names callers may pass as session defaults / write overrides.
WRITE_SPEC_FIELDS = frozenset(
    f.name for f in dataclasses.fields(WriteSpec)
) - {"name"}


@dataclass
class SessionStats:
    """One handle's traffic: a :class:`repro.core.engine.Session`'s or a
    remote client's, counted the same way on both.

    ``reads`` counts successful reads — a ``read``, each ``read_batch``
    member, a drained stream — and ``wall_seconds`` their caller-side
    time: a read's call, a stream's pulls, a batch once, a write's call.
    ``failures`` counts calls that raised to the caller; a stream closed
    early counts as neither.
    """

    reads: int = 0
    writes: int = 0
    batches: int = 0
    failures: int = 0
    wall_seconds: float = 0.0
    decode_cache_hits: int = 0
    decode_cache_misses: int = 0
    plan_cache_hits: int = 0
    last_batch: BatchStats | None = None


class SessionSurface:
    """The Session-shaped surface, written once for every transport.

    :class:`repro.core.engine.Session` and the remote clients
    (:mod:`repro.client`) share it: spec defaults and builders,
    ``read`` / ``read_stream`` / ``read_batch`` / ``read_async`` /
    ``write`` with their :class:`SessionStats` accounting, and the close
    lifecycle.  ``defaults`` may name any non-positional
    :class:`ReadSpec` or :class:`WriteSpec` field and fill in whatever a
    call does not specify, so a call reads the same against a local
    engine and a remote one.  The control plane is here too: one method
    per unary op of the service-op table (:data:`repro.core.ops.OPS`),
    each answering with the value the engine method returns, whatever
    the handle.

    A subclass supplies only its transport, as hooks:

    * ``_read_one(spec)`` — one read, answered by a ``ReadResult``;
    * ``_open_stream(spec, on_complete, on_failure)`` — open a streamed
      read that calls ``on_complete(stats, wall_seconds)`` once drained
      (the caller's pull time) or ``on_failure()`` when a pull raises;
    * ``_read_many(specs)`` — one batch, ``(results, BatchStats)``;
    * ``_write_one(spec, *payload)`` — one write;
    * ``_unary(op, params)`` — one unary op, answered by its reply dict;
    * ``_submit(fn, *args)`` — run ``fn`` on a pool, as a ``Future``;
    * ``_shutdown()`` — run once, by the first :meth:`close`.

    A hook that raises is one failure, counted here where the call
    raises to the caller.  A closed handle rejects further calls with
    ``RuntimeError``.
    """

    def __init__(self, defaults: dict):
        unknown = set(defaults) - (READ_SPEC_FIELDS | WRITE_SPEC_FIELDS)
        if unknown:
            raise TypeError(
                f"unknown default(s) {sorted(unknown)}; expected fields "
                f"of ReadSpec/WriteSpec"
            )
        self._defaults = dict(defaults)
        # Build each spec once so a bad default value fails here, on the
        # line that gave it, not on the first read or write.
        self.read_spec("_", 0.0, 1.0)
        self.write_spec("_")
        self._lock = threading.Lock()
        self._closed = False
        self.stats = SessionStats()

    @property
    def defaults(self) -> dict:
        return dict(self._defaults)

    def read_spec(
        self, name: str, start: float, end: float, **overrides
    ) -> ReadSpec:
        """A :class:`ReadSpec` from the defaults plus ``overrides``."""
        fields = {
            k: v for k, v in self._defaults.items() if k in READ_SPEC_FIELDS
        }
        fields.update(overrides)
        return ReadSpec(name=name, start=start, end=end, **fields)

    def write_spec(self, name: str, **overrides) -> WriteSpec:
        """A :class:`WriteSpec` from the defaults plus ``overrides``."""
        fields = {
            k: v for k, v in self._defaults.items() if k in WRITE_SPEC_FIELDS
        }
        fields.update(overrides)
        return WriteSpec(name=name, **fields)

    def _coerce_read_spec(
        self, spec_or_name, start, end, overrides
    ) -> ReadSpec:
        if isinstance(spec_or_name, ReadSpec):
            if start is not None or end is not None:
                raise TypeError(
                    "pass either a ReadSpec or (name, start, end), not both"
                )
            spec = spec_or_name
            return spec.replace(**overrides) if overrides else spec
        if start is None or end is None:
            raise TypeError("read(name, ...) requires start and end")
        return self.read_spec(spec_or_name, start, end, **overrides)

    def _coerce_write_spec(self, spec_or_name, overrides) -> WriteSpec:
        if isinstance(spec_or_name, WriteSpec):
            spec = spec_or_name
            return spec.replace(**overrides) if overrides else spec
        return self.write_spec(spec_or_name, **overrides)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the handle (idempotent; the first call runs the
        transport's ``_shutdown``).  Later calls on it raise
        ``RuntimeError``."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._shutdown()

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # reads and writes
    # ------------------------------------------------------------------
    def read(
        self,
        spec_or_name: ReadSpec | str,
        start: float | None = None,
        end: float | None = None,
        **overrides,
    ) -> ReadResult:
        """Read video; takes a :class:`ReadSpec` or (name, start, end).

        With a spec, ``overrides`` are applied via :meth:`ReadSpec.replace`;
        with a name, the spec is built from the handle's defaults.
        """
        self._check_open()
        return self._timed_read(
            self._coerce_read_spec(spec_or_name, start, end, overrides)
        )

    def _timed_read(self, spec: ReadSpec) -> ReadResult:
        """The body ``read`` runs inline and ``read_async`` on the pool."""
        begin = time.perf_counter()
        try:
            result = self._read_one(spec)
        except Exception:
            self._note_failure()
            raise
        self._note_read(result.stats, time.perf_counter() - begin)
        return result

    def read_stream(
        self,
        spec_or_name: ReadSpec | str,
        start: float | None = None,
        end: float | None = None,
        **overrides,
    ):
        """Open a streaming read; yields GOP-sized ``ReadChunk``\\ s.

        Memory stays O(GOP window) for the stream's whole life; the
        counters update when the stream is exhausted (one read, its pull
        time) or when opening it or a chunk pull raises (one failure).
        """
        self._check_open()
        spec = self._coerce_read_spec(spec_or_name, start, end, overrides)
        try:
            return self._open_stream(spec, self._note_read, self._note_failure)
        except Exception:
            self._note_failure()
            raise

    def read_batch(self, specs: list[ReadSpec]) -> list[ReadResult]:
        """Execute several reads, sharing planning and decode work.

        Overlapping reads decode each shared GOP once; see
        :attr:`SessionStats.last_batch` for the sharing counters.
        """
        self._check_open()
        begin = time.perf_counter()
        try:
            results, batch = self._read_many(list(specs))
        except Exception:
            self._note_failure()
            raise
        elapsed = time.perf_counter() - begin
        with self._lock:
            self.stats.batches += 1
            self.stats.last_batch = batch
            self.stats.wall_seconds += elapsed  # once, not per member
        for result in results:
            self._note_read(result.stats, 0.0)
        return results

    def read_async(
        self,
        spec_or_name: ReadSpec | str,
        start: float | None = None,
        end: float | None = None,
        **overrides,
    ) -> Future:
        """Submit a read; returns a ``concurrent.futures.Future``.

        Reads of different videos proceed concurrently; a failure
        propagates through the Future and is counted once.
        """
        self._check_open()
        spec = self._coerce_read_spec(spec_or_name, start, end, overrides)
        return self._submit(self._timed_read, spec)

    def _write(self, spec_or_name, overrides: dict, *payload):
        """The timing and accounting of every transport's ``write``."""
        self._check_open()
        spec = self._coerce_write_spec(spec_or_name, overrides)
        begin = time.perf_counter()
        try:
            written = self._write_one(spec, *payload)
        except Exception:
            self._note_failure()
            raise
        with self._lock:
            self.stats.writes += 1
            self.stats.wall_seconds += time.perf_counter() - begin
        return written

    def _note_read(self, stats: ReadStats, elapsed: float) -> None:
        """Fold one successful read's stats into :attr:`stats`."""
        with self._lock:
            self.stats.reads += 1
            self.stats.wall_seconds += elapsed
            self.stats.decode_cache_hits += stats.decode_cache_hits
            self.stats.decode_cache_misses += stats.decode_cache_misses
            if stats.plan_cached:
                self.stats.plan_cache_hits += 1

    def _note_failure(self) -> None:
        with self._lock:
            self.stats.failures += 1

    # ------------------------------------------------------------------
    # the control plane: one method per unary op of the service table
    # ------------------------------------------------------------------
    def _op(self, name: str, params: dict):
        """Run the unary op ``name`` through :meth:`_unary` and decode
        its reply into the value the engine method returns."""
        # Imported here: ops imports wire, which imports this module.
        from repro.core.ops import OPS

        self._check_open()
        return OPS[name].decode(self._unary(name, params))

    def create(self, name: str, budget_bytes: int = 0) -> LogicalVideo:
        """Create a logical video (see :meth:`VSSEngine.create`)."""
        return self._op("create", {"name": name, "budget_bytes": budget_bytes})

    def delete(self, name: str, force: bool = False) -> None:
        """Delete a video or view; ``force`` cascades dependent views."""
        self._op("delete", {"name": name, "force": force})

    def exists(self, name: str) -> bool:
        """True when ``name`` is a logical video or a derived view."""
        return self._op("exists", {"name": name})

    def list_videos(self, kind: str = "all") -> list[str]:
        """Sorted names from one catalog snapshot (see the engine)."""
        return self._op("list_videos", {"kind": kind})

    def video_stats(self, name: str) -> StoreStats | ViewStats:
        """Per-video :class:`StoreStats` or per-view :class:`ViewStats`."""
        return self._op("video_stats", {"name": name})

    def create_view(self, name: str, spec: ViewSpec) -> ViewRecord:
        """Register a derived view (see :meth:`VSSEngine.create_view`)."""
        if not isinstance(spec, ViewSpec):
            raise TypeError(
                f"create_view takes a ViewSpec, got {type(spec).__name__}"
            )
        return self._op("create_view", {"name": name, "spec": spec.to_dict()})

    def get_view(self, name: str) -> ViewRecord:
        """The persisted definition of the view named ``name``."""
        return self._op("get_view", {"name": name})

    def list_views(self) -> list[ViewRecord]:
        """All view definitions, sorted by name."""
        return self._op("list_views", {})

    def search(
        self,
        text: str | None = None,
        like=None,
        limit: int = DEFAULT_SEARCH_LIMIT,
        min_score: float = 0.0,
    ) -> list[SearchHit]:
        """Ranked :class:`SearchHit` GOPs (see :meth:`VSSEngine.search`).

        A ``like=`` image becomes its query vector here, on the caller's
        side: only a flat float array crosses the wire, so a server
        never decodes images.
        """
        from repro.core.wire import search_query_to_dict

        if like is not None:
            _, like = like_to_vector(like)
        query = search_query_to_dict(
            text=text, like=like, limit=limit, min_score=min_score
        )
        return self._op("search", {"query": query})

    def reindex(self, name: str) -> int:
        """Rebuild one video's content index; rows written."""
        return self._op("reindex", {"name": name})

    def check(self) -> dict[str, list[str]]:
        """The store's consistency report (see :meth:`VSSEngine.check`):
        through a router, the sorted union of every live shard's."""
        return self._op("check", {})
