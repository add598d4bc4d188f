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
  pair; the client mirrors the ``Session`` surface so code runs
  unchanged against local or remote engines.
* :class:`repro.VSSBinaryServer` / :class:`repro.VSSBinaryClient` — the
  same surface over the length-prefixed binary frame protocol: one
  asyncio loop multiplexing persistent connections, zero-copy ndarray
  payloads, bit-identical responses to the HTTP and local paths.
* :mod:`repro.synthetic` — Table 1 dataset equivalents.
* :mod:`repro.video` — frames, formats, codecs, metrics.
* :mod:`repro.baselines` — Local-FS and VStore-style comparators.

See examples/quickstart.py for a quickstart and docs/api.md for the
engine/session API guide plus the service API and wire protocol.
"""

from repro.client import (
    RemoteReadResult,
    RemoteReadStream,
    VSSBinaryClient,
    VSSClient,
)
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
    "RemoteReadResult",
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
