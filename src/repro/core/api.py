"""The legacy ``VSS`` facade: a deprecated shim over the engine API.

The public API is now the engine/session/spec model in
:mod:`repro.core.engine`:

* :class:`repro.core.engine.VSSEngine` — one thread-safe object per
  store; owns the catalog, layout, executor, decode cache, and budget /
  maintenance loops, with per-logical-video locking so concurrent reads
  and writes to different videos never serialize on one lock.
* :class:`repro.core.engine.Session` — cheap handles from
  ``engine.session()`` carrying per-caller defaults (codec, quality, qp,
  cache policy) and per-session stats, with ``read``, ``read_batch``
  (shared planning + deduplicated decode work across overlapping reads),
  and ``read_async`` (``concurrent.futures``).
* :class:`repro.core.specs.ReadSpec` / :class:`repro.core.specs.WriteSpec`
  — frozen, validated-at-construction request types used uniformly by the
  planner, reader, writer, and cache admission.

This module keeps the paper's four-operation facade (Figure 1) working::

    vss = VSS("/path/to/store")          # DeprecationWarning
    vss.create("traffic")
    vss.write("traffic", segment, codec="h264")
    result = vss.read("traffic", start=20, end=80, codec="h264")

``VSS(root)`` constructs a :class:`VSSEngine` plus a default session and
forwards everything to them, so pre-existing code (and all pre-existing
tests) runs unchanged — reads still accept the spatial (``resolution``,
``roi``), temporal (``start``, ``end``, ``fps``), and physical
(``codec``, ``pixel_format``, ``qp``, ``quality_db``) kwargs, results
are still cached as materialized physical videos under the LRU_VSS
budget policy, raw reads still trigger deferred compression, and
compaction still runs periodically.  The engine queues all of that
post-operation work on its background worker; the facade keeps the
paper's "side effects are visible when the call returns" contract by
calling ``engine.drain_admissions()`` at the end of its own ``read`` and
``write`` (methods forwarded to the engine untouched — ``read_batch``,
``open_write_stream`` — do not drain).  New code should use the engine
API directly; see ``docs/api.md`` for the migration guide.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

from repro.core.engine import (
    COMPACT_INTERVAL,
    DEFAULT_BUDGET_MULTIPLE,
    REFINE_INTERVAL,
    EngineStats,
    HookedStream,
    Session,
    SessionStats,
    StoreStats,
    VSSEngine,
)
from repro.core.decode_cache import DEFAULT_DECODE_CACHE_BYTES
from repro.core.reader import ReadResult
from repro.core.records import ROI, PhysicalVideo
from repro.core.specs import ReadSpec, WriteSpec
from repro.core.quality import DEFAULT_EPSILON_DB
from repro.errors import CatalogError
from repro.vbench.calibrate import Calibration
from repro.video.codec.container import EncodedGOP
from repro.video.codec.quant import QP_DEFAULT
from repro.video.frame import VideoSegment

__all__ = [
    "COMPACT_INTERVAL",
    "DEFAULT_BUDGET_MULTIPLE",
    "REFINE_INTERVAL",
    "EngineStats",
    "HookedStream",
    "LegacyStoreStats",
    "ReadSpec",
    "Session",
    "SessionStats",
    "StoreStats",
    "VSS",
    "VSSEngine",
    "WriteSpec",
]


@dataclass
class LegacyStoreStats(StoreStats):
    """Deprecated: the old ``VSS.stats`` shape.

    It mixed per-video fields with store-wide decode-cache counters (the
    cache is shared across logical videos).  New code should read
    per-video fields from ``engine.video_stats(name)`` (:class:`StoreStats`)
    and store-wide counters from ``engine.stats()`` (:class:`EngineStats`).
    """

    decode_cache_hits: int = 0
    decode_cache_misses: int = 0
    decode_cache_hit_rate: float = 0.0
    decode_cache_bytes: int = 0


class VSS:
    """Deprecated facade: a :class:`VSSEngine` plus a default session.

    All constructor knobs, methods, and attributes of the pre-engine
    ``VSS`` keep working (engine internals like ``catalog``, ``layout``,
    ``decode_cache``, ``deferred`` are reachable through attribute
    forwarding).  Construction emits a :class:`DeprecationWarning`.
    """

    def __init__(
        self,
        root: str | Path,
        budget_multiple: float = DEFAULT_BUDGET_MULTIPLE,
        cache_policy: str = "vss",
        planner: str = "solver",
        deferred_compression: bool = True,
        background_compression: bool = False,
        calibration: Calibration | None = None,
        cache_reads: bool = True,
        parallelism: int | None = None,
        decode_cache_bytes: int = DEFAULT_DECODE_CACHE_BYTES,
    ):
        warnings.warn(
            "VSS(root) is deprecated; use VSSEngine(root) and "
            "engine.session() (see docs/api.md)",
            DeprecationWarning,
            stacklevel=2,
        )
        self.engine = VSSEngine(
            root,
            budget_multiple=budget_multiple,
            cache_policy=cache_policy,
            planner=planner,
            deferred_compression=deferred_compression,
            background_compression=background_compression,
            calibration=calibration,
            cache_reads=cache_reads,
            parallelism=parallelism,
            decode_cache_bytes=decode_cache_bytes,
        )
        self.default_session = self.engine.session()

    def __getattr__(self, name: str):
        # Forward everything else (catalog, layout, decode_cache, deferred,
        # cache, compactor, executor, reader, writer, create, delete, ...)
        # to the engine, preserving the old object's full surface.
        try:
            engine = object.__getattribute__(self, "engine")
        except AttributeError:
            raise AttributeError(name) from None
        return getattr(engine, name)

    # ------------------------------------------------------------------
    # lifecycle (special methods bypass __getattr__, so defined here)
    # ------------------------------------------------------------------
    def close(self) -> None:
        # Close the default session first so its counters land in
        # EngineStats before the engine shuts down.
        self.default_session.close()
        self.engine.close()

    def __enter__(self) -> "VSS":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # kwargs facade over the typed spec API
    # ------------------------------------------------------------------
    def write(
        self,
        name: str,
        segment: VideoSegment | None = None,
        gops: list[EncodedGOP] | None = None,
        codec: str = "h264",
        qp: int = QP_DEFAULT,
        gop_size: int | None = None,
    ) -> PhysicalVideo:
        """Write video under ``name`` (raw segment or pre-encoded GOPs)."""
        spec = WriteSpec(name=name, codec=codec, qp=qp, gop_size=gop_size)
        physical = self.engine.write(spec, segment=segment, gops=gops)
        self.engine.drain_admissions()  # index rows visible on return
        return physical

    def read(
        self,
        name: str,
        start: float,
        end: float,
        codec: str = "raw",
        pixel_format: str = "rgb",
        resolution: tuple[int, int] | None = None,
        roi: ROI | None = None,
        fps: float | None = None,
        quality_db: float = DEFAULT_EPSILON_DB,
        qp: int = QP_DEFAULT,
        cache: bool | None = None,
        mode: str | None = None,
    ) -> ReadResult:
        """Read video in any spatial/temporal/physical configuration."""
        spec = ReadSpec(
            name=name,
            start=start,
            end=end,
            codec=codec,
            pixel_format=pixel_format,
            resolution=resolution,
            roi=roi,
            fps=fps,
            quality_db=quality_db,
            qp=qp,
            cache=cache,
            mode=mode,
        )
        result = self.default_session.read(spec)
        # The paper's facade admits synchronously: every pre-engine
        # caller observes cache admission the moment read() returns.
        self.engine.drain_admissions()
        return result

    def stats(self, name: str) -> LegacyStoreStats:
        """Deprecated combined per-video + store-wide stats shape."""
        video = self.engine.video_stats(name)
        if not isinstance(video, StoreStats):
            # Derived views postdate this facade; the legacy shape has
            # no view form (a view owns no storage to report).
            raise CatalogError(
                f"{name!r} is a derived view; use "
                f"engine.video_stats({name!r}) for its ViewStats"
            )
        store = self.engine.stats()
        return LegacyStoreStats(
            name=video.name,
            budget_bytes=video.budget_bytes,
            total_bytes=video.total_bytes,
            num_physicals=video.num_physicals,
            num_fragments=video.num_fragments,
            num_gops=video.num_gops,
            decode_cache_hits=store.decode_cache_hits,
            decode_cache_misses=store.decode_cache_misses,
            decode_cache_hit_rate=store.decode_cache_hit_rate,
            decode_cache_bytes=store.decode_cache_bytes,
        )
