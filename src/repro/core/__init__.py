"""VSS core: the storage manager itself.

The public entry point is :class:`repro.core.engine.VSSEngine` — a
thread-safe store handing out cheap :class:`repro.core.engine.Session`
objects whose ``read`` / ``write`` / ``read_batch`` / ``read_async``
take typed :class:`ReadSpec` / :class:`WriteSpec` requests — the paper's
four operations (Figure 1: create / write / read / delete) plus batch,
async and streaming reads.
"""

from repro.core.decode_cache import DecodeCache
from repro.core.engine import (
    EngineStats,
    ReadStream,
    Session,
    SessionStats,
    StoreStats,
    ViewStats,
    VSSEngine,
)
from repro.core.executor import Executor
from repro.core.reader import BatchStats, ReadChunk, ReadResult, ReadStats
from repro.core.records import (
    GopRecord,
    LogicalVideo,
    PhysicalVideo,
    ViewRecord,
)
from repro.core.read_planner import fold_view
from repro.core.specs import ReadSpec, ViewSpec, WriteSpec

__all__ = [
    "BatchStats",
    "DecodeCache",
    "EngineStats",
    "Executor",
    "GopRecord",
    "LogicalVideo",
    "PhysicalVideo",
    "ReadChunk",
    "ReadResult",
    "ReadSpec",
    "ReadStats",
    "ReadStream",
    "Session",
    "SessionStats",
    "StoreStats",
    "VSSEngine",
    "ViewRecord",
    "ViewSpec",
    "ViewStats",
    "WriteSpec",
    "fold_view",
]
