"""Reproduction of "VSS: A Storage System for Video Analytics" (SIGMOD 2021).

Public entry points:

* :class:`repro.VSSEngine` — the thread-safe storage manager; hand out
  :class:`repro.Session` objects via ``engine.session()`` and read/write
  with typed :class:`repro.ReadSpec` / :class:`repro.WriteSpec`.
  ``session.read_stream`` returns a :class:`repro.ReadStream` of
  GOP-sized :class:`repro.ReadChunk` increments with bounded memory.
  ``engine.create_view(name, ViewSpec(over=base, ...))`` registers a
  named *derived view* — a virtual video (window/crop/format defaults
  over a base) that resolves everywhere a video name is accepted.
* :class:`repro.VSSServer` / :class:`repro.VSSClient` — the HTTP service
  pair.  A client and a ``Session`` are one class's surface
  (:class:`repro.core.specs.SessionSurface`): the same read / stream /
  batch / async / write code and ``SessionStats`` accounting, and the
  same method for each catalog, view, search and check op.  Every answer
  is the value a session gives, of the same type — a remote read's
  :class:`repro.ReadResult` (``plan`` None), a write's
  ``PhysicalVideo``, ``create``'s ``LogicalVideo``, ``video_stats``'
  ``StoreStats`` — so code runs unchanged against a local engine, a
  server or a router.
* :class:`repro.VSSBinaryServer` / :class:`repro.VSSBinaryClient` — the
  same surface over the length-prefixed binary frame protocol: one
  asyncio loop multiplexing persistent connections, replies written
  from the answer's own arrays (the client copies each once, off the
  socket), bit-identical responses to the HTTP and local paths.
* :mod:`repro.synthetic` — Table 1 dataset equivalents.
* :mod:`repro.video` — frames, formats, codecs, metrics.
* :mod:`repro.baselines` — Local-FS and VStore-style comparators.

See examples/quickstart.py for a quickstart and docs/api.md for the
engine/session API guide plus the service API and wire protocol.
"""

from repro.client import RemoteReadStream, VSSBinaryClient, VSSClient
from repro.core import (
    ReadChunk,
    ReadResult,
    ReadSpec,
    ReadStream,
    Session,
    ViewRecord,
    ViewSpec,
    VSSEngine,
    WriteSpec,
)
from repro.server import VSSBinaryServer, VSSServer
from repro.video.frame import VideoSegment

__version__ = "3.0.0"

__all__ = [
    "ReadChunk",
    "ReadResult",
    "ReadSpec",
    "ReadStream",
    "RemoteReadStream",
    "Session",
    "VSSBinaryClient",
    "VSSBinaryServer",
    "VSSClient",
    "VSSEngine",
    "VSSServer",
    "VideoSegment",
    "ViewRecord",
    "ViewSpec",
    "WriteSpec",
    "__version__",
]
