"""Session-shaped clients for a remote VSS server: HTTP and binary.

Two transports, one surface.  :class:`VSSClient` speaks the HTTP/JSON
service (:class:`repro.server.VSSServer`); :class:`VSSBinaryClient`
speaks the length-prefixed binary frame protocol
(:class:`repro.server.VSSBinaryServer`).  Both mirror
:class:`repro.core.engine.Session` — ``read`` / ``read_stream`` /
``read_batch`` / ``read_async`` / ``write`` plus one method per unary
operation of the service-op table (:data:`repro.core.ops.OPS`: catalog,
views, search, reindex, metrics), each a thin wrapper over
``_rpc(op, params)`` — so application code runs unchanged against a
local engine, an HTTP server, or a binary server (the parity is asserted
by introspection in ``tests/test_views.py``)::

    client = VSSBinaryClient("127.0.0.1", 8721, codec="h264", qp=12)
    client.write("traffic", segment)
    result = client.read("traffic", 0.0, 2.0, codec="raw")
    for chunk in client.read_stream("traffic", 0.0, 120.0, codec="raw"):
        consume(chunk.segment)        # O(GOP window) resident, both sides

Requests are serialized through :mod:`repro.core.wire`, so a spec built
here is revalidated identically on the server, and server-side errors
re-raise as the same :mod:`repro.errors` classes; a busy rejection (HTTP
429 / binary ``ServerBusyError`` envelope) raises
:class:`ServerBusyError` carrying the server's retry hint either way.

Transport differences worth knowing:

* the HTTP client opens one connection per call (which keeps a single
  client safe to share across threads) and frames metadata as JSON
  lines inside chunked transfer encoding;
* the binary client keeps a small pool of persistent connections —
  the frame protocol is strictly request/response delimited, so a
  drained response leaves the connection at a clean boundary and the
  next call reuses it, skipping the TCP handshake and HTTP parsing on
  the hot read path.  Pixel payloads are parsed zero-copy
  (``np.frombuffer`` over the received frame's memoryview).
"""

from __future__ import annotations

import json
import select
import socket
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPResponse

from repro.core.engine import SessionStats
from repro.core.ops import OPS
from repro.core.reader import (
    BatchStats,
    ReadChunk,
    ReadStats,
    collect_chunks,
)
from repro.core.specs import (
    READ_SPEC_FIELDS,
    WRITE_SPEC_FIELDS,
    ReadSpec,
    ViewSpec,
    WriteSpec,
)
from repro.core.wire import (
    FRAME_END,
    FRAME_ERROR,
    FRAME_GOPS,
    FRAME_REPLY,
    FRAME_REQUEST,
    FRAME_RESULT_GOPS,
    FRAME_RESULT_SEGMENT,
    FRAME_SEGMENT,
    check_frame_length,
    encode_frame,
    error_from_dict,
    parse_frame,
    read_spec_to_dict,
    read_stats_from_dict,
    search_hit_from_dict,
    search_query_to_dict,
    segment_from_payload,
    segment_payload,
    segment_payload_view,
    segment_to_meta,
    view_spec_to_dict,
    write_spec_to_dict,
)
from repro.errors import ServerBusyError, VSSError, WireError
from repro.search.query import (
    DEFAULT_LIMIT as DEFAULT_SEARCH_LIMIT,
)
from repro.search.query import (
    SearchHit,
    like_to_vector,
)
from repro.video.codec.container import decode_container
from repro.video.codec.registry import codec_for
from repro.video.frame import VideoSegment


@dataclass
class RemoteReadResult:
    """A read answer shipped over the wire: pixels or GOPs, plus stats.

    The in-process :class:`ReadResult` carries the full plan; the remote
    variant carries everything a consumer can use — the decoded segment
    (raw reads), the encoded GOPs (compressed reads), and the server's
    :class:`ReadStats`.
    """

    segment: VideoSegment | None
    gops: list | None
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


def _collect_stream(stream) -> RemoteReadResult:
    """Drain a remote stream's chunks into one :class:`RemoteReadResult`."""
    segment, gops = collect_chunks(stream)
    stats = stream.stats if stream.stats is not None else ReadStats()
    return RemoteReadResult(segment, gops, stats)


class RemoteReadStream:
    """Client half of an HTTP streamed read: lazily parses chunk frames.

    Iterating yields :class:`repro.core.reader.ReadChunk` objects (the
    same type the in-process stream yields); ``stats`` holds the
    server's final :class:`ReadStats` once the stream is exhausted.
    Closing early drops the connection; the server abandons its side on
    the broken pipe.
    """

    def __init__(self, conn: HTTPConnection, response: HTTPResponse):
        self._conn = conn
        self._response = response
        self._done = False
        self.stats: ReadStats | None = None
        self.chunks_pulled = 0

    def __iter__(self) -> "RemoteReadStream":
        return self

    def __next__(self) -> ReadChunk:
        if self._done:
            raise StopIteration
        frame = _read_meta(self._response)
        kind = frame.get("type")
        if kind == "end":
            self.stats = read_stats_from_dict(frame["stats"])
            # Drain the terminal transfer-encoding chunk so the server's
            # final write lands on an open socket, then hang up.
            self._response.read()
            self.close()
            raise StopIteration
        if kind == "error":
            self.close()
            raise error_from_dict(frame)
        if kind == "segment":
            payload = _read_exact(self._response, frame["nbytes"])
            segment = segment_from_payload(frame["meta"], payload)
            chunk = ReadChunk(
                frame["index"], segment.start_time, segment.end_time,
                segment, None,
            )
        elif kind == "gops":
            gops = _read_gops(self._response, frame["sizes"])
            chunk = ReadChunk(
                frame["index"], frame["start_time"], frame["end_time"],
                None, gops,
            )
        else:
            self.close()
            raise WireError(f"unexpected stream frame {frame!r}")
        self.chunks_pulled += 1
        return chunk

    def collect(self) -> RemoteReadResult:
        """Drain the remaining chunks into one :class:`RemoteReadResult`."""
        return _collect_stream(self)

    def close(self) -> None:
        if not self._done:
            self._done = True
            self._conn.close()

    def __enter__(self) -> "RemoteReadStream":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _read_exact(response: HTTPResponse, nbytes: int) -> bytes:
    pieces = []
    remaining = nbytes
    while remaining > 0:
        piece = response.read(remaining)
        if not piece:
            raise WireError(
                f"stream truncated: expected {nbytes} payload bytes, got "
                f"{nbytes - remaining}"
            )
        pieces.append(piece)
        remaining -= len(piece)
    return b"".join(pieces)


def _read_meta(response: HTTPResponse) -> dict:
    line = response.readline()
    if not line:
        raise WireError("stream truncated before its end frame")
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise WireError(f"malformed stream frame {line!r}: {exc}") from exc


def _read_gops(response: HTTPResponse, sizes: list[int]) -> list:
    return [
        decode_container(_read_exact(response, size)) for size in sizes
    ]


def _slice_gops(payload: memoryview, sizes: list[int]) -> list:
    """Split one binary frame's payload into decoded GOP containers."""
    gops, offset = [], 0
    for size in sizes:
        gops.append(decode_container(bytes(payload[offset:offset + size])))
        offset += size
    if offset != payload.nbytes:
        raise WireError(
            f"GOP frame payload is {payload.nbytes} bytes; sizes sum to "
            f"{offset}"
        )
    return gops


class _RemoteClientBase:
    """The transport-independent half of a Session-shaped client.

    Subclasses provide the wire: :meth:`_rpc` for one-shot operations,
    :meth:`_open_read_stream` for streamed reads, :meth:`_send_write`
    for raw-segment writes, and :meth:`read_batch`.  Everything else —
    spec defaults and builders, :class:`SessionStats` accounting, the
    ``read_async`` pool, the catalog surface — lives here once.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8720,
        timeout: float = 60.0,
        busy_retries: int = 0,
        **defaults,
    ):
        unknown = set(defaults) - (READ_SPEC_FIELDS | WRITE_SPEC_FIELDS)
        if unknown:
            raise TypeError(
                f"unknown client default(s) {sorted(unknown)}; expected "
                f"fields of ReadSpec/WriteSpec"
            )
        if busy_retries < 0:
            raise ValueError(f"busy_retries must be >= 0, got {busy_retries}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self._defaults = dict(defaults)
        self._busy_retries = busy_retries
        #: Times a busy rejection was absorbed by waiting out the
        #: server's Retry-After hint and retrying (``busy_retries > 0``).
        self.busy_retries_used = 0
        self._stats_lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._closed = False
        self.stats = SessionStats()

    def _retrying(self, fn, *args, **kwargs):
        """Run one idempotent operation, honouring busy backpressure.

        With ``busy_retries=N`` (constructor), a :class:`ServerBusyError`
        is absorbed up to N times by sleeping out the server's
        ``Retry-After`` hint (capped at 5 s a hop) and reissuing the
        request; the N+1th rejection propagates.  The default (0) keeps
        the historical fail-fast behaviour.
        """
        attempts = 0
        while True:
            try:
                return fn(*args, **kwargs)
            except ServerBusyError as exc:
                if attempts >= self._busy_retries:
                    raise
                attempts += 1
                with self._stats_lock:
                    self.busy_retries_used += 1
                time.sleep(min(max(exc.retry_after, 0.0), 5.0))

    @property
    def defaults(self) -> dict:
        return dict(self._defaults)

    # ------------------------------------------------------------------
    # transport hooks (subclass responsibility)
    # ------------------------------------------------------------------
    def _rpc(self, op: str, params: dict) -> dict:
        raise NotImplementedError

    def _open_read_stream(self, spec: ReadSpec):
        raise NotImplementedError

    def _send_write(self, spec: WriteSpec, segment: VideoSegment) -> dict:
        raise NotImplementedError

    def read_batch(self, specs: list[ReadSpec]) -> list[RemoteReadResult]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # catalog operations
    # ------------------------------------------------------------------
    def create(self, name: str, budget_bytes: int = 0) -> dict:
        return self._retrying(
            self._rpc, "create", {"name": name, "budget_bytes": budget_bytes}
        )

    def delete(self, name: str, force: bool = False) -> None:
        """Delete a video or view; ``force`` cascades dependent views."""
        self._retrying(self._rpc, "delete", {"name": name, "force": force})

    def exists(self, name: str) -> bool:
        """True when ``name`` is a logical video or a derived view."""
        reply = self._retrying(self._rpc, "exists", {"name": name})
        return bool(reply["exists"])

    def list_videos(self, kind: str = "all") -> list[str]:
        """Sorted names from one server-side catalog snapshot."""
        reply = self._retrying(self._rpc, "list_videos", {"kind": kind})
        return reply["videos"]

    def create_view(self, name: str, spec: ViewSpec) -> dict:
        """Register a derived view (mirrors ``Session.create_view``)."""
        if not isinstance(spec, ViewSpec):
            raise TypeError(
                f"create_view takes a ViewSpec, got {type(spec).__name__}"
            )
        return self._retrying(
            self._rpc,
            "create_view",
            {"name": name, "spec": view_spec_to_dict(spec)},
        )

    def get_view(self, name: str) -> dict:
        """One view definition (``spec`` is a ViewSpec dict)."""
        return self._retrying(self._rpc, "get_view", {"name": name})

    def list_views(self) -> list[dict]:
        """All view definitions, sorted by name."""
        return self._retrying(self._rpc, "list_views", {})["views"]

    def video_stats(self, name: str) -> dict:
        return self._retrying(self._rpc, "video_stats", {"name": name})

    # ------------------------------------------------------------------
    # content index & search
    # ------------------------------------------------------------------
    def search(
        self,
        text: str | None = None,
        like=None,
        limit: int = DEFAULT_SEARCH_LIMIT,
        min_score: float = 0.0,
    ) -> list[SearchHit]:
        """Ranked :class:`SearchHit` GOPs (mirrors ``Session.search``).

        A ``like=`` *image* is turned into its query vector here, on the
        client — only a flat float array ever crosses the wire, so the
        servers never decode images and the payload stays tiny.
        """
        if like is not None:
            _, like = like_to_vector(like)
        query = search_query_to_dict(
            text=text, like=like, limit=limit, min_score=min_score
        )
        reply = self._retrying(self._rpc, "search", {"query": query})
        return [search_hit_from_dict(d) for d in reply["hits"]]

    def reindex(self, name: str) -> int:
        """Rebuild one video's content index; rows written."""
        reply = self._retrying(self._rpc, "reindex", {"name": name})
        return int(reply["indexed_gops"])

    def metrics(self) -> dict:
        """The server's metrics document (engine + admission gauges)."""
        return self._retrying(self._rpc, "metrics", {})

    # ------------------------------------------------------------------
    # spec builders (mirror Session)
    # ------------------------------------------------------------------
    def read_spec(
        self, name: str, start: float, end: float, **overrides
    ) -> ReadSpec:
        fields = {
            k: v for k, v in self._defaults.items() if k in READ_SPEC_FIELDS
        }
        fields.update(overrides)
        return ReadSpec(name=name, start=start, end=end, **fields)

    def write_spec(self, name: str, **overrides) -> WriteSpec:
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

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def read(
        self,
        spec_or_name: ReadSpec | str,
        start: float | None = None,
        end: float | None = None,
        **overrides,
    ) -> RemoteReadResult:
        """Read video; takes a :class:`ReadSpec` or (name, start, end)."""
        spec = self._coerce_read_spec(spec_or_name, start, end, overrides)
        begin = time.perf_counter()
        result = self._retrying(
            lambda: self._open_read_stream(spec).collect()
        )
        with_stats = result.stats
        with self._stats_lock:
            self.stats.reads += 1
            self.stats.wall_seconds += time.perf_counter() - begin
            self.stats.decode_cache_hits += with_stats.decode_cache_hits
            self.stats.decode_cache_misses += with_stats.decode_cache_misses
            if with_stats.plan_cached:
                self.stats.plan_cache_hits += 1
        return result

    def read_stream(
        self,
        spec_or_name: ReadSpec | str,
        start: float | None = None,
        end: float | None = None,
        **overrides,
    ):
        """Open a streamed read; yields GOP-sized chunks lazily."""
        spec = self._coerce_read_spec(spec_or_name, start, end, overrides)
        return self._open_read_stream(spec)

    def read_async(
        self,
        spec_or_name: ReadSpec | str,
        start: float | None = None,
        end: float | None = None,
        **overrides,
    ) -> Future:
        """Submit a read; returns a ``concurrent.futures.Future``.

        Mirrors ``Session.read_async``: the request runs on a small
        client-side pool, so futures of different videos proceed
        concurrently server-side.
        """
        spec = self._coerce_read_spec(spec_or_name, start, end, overrides)
        with self._stats_lock:
            if self._closed:
                raise RuntimeError("client is closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=4, thread_name_prefix="vss-client"
                )
            # Submit under the lock: close() swaps the pool out under
            # the same lock before shutting it down, so a submit can
            # never race into an already-shut-down executor.
            return self._pool.submit(self.read, spec)

    def _account_batch(self, results, batch: BatchStats) -> None:
        with self._stats_lock:
            self.stats.batches += 1
            self.stats.reads += len(results)
            self.stats.last_batch = batch
            self.stats.plan_cache_hits += sum(
                1 for r in results if r.stats.plan_cached
            )

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def write(
        self,
        spec_or_name: WriteSpec | str,
        segment: VideoSegment,
        **overrides,
    ) -> dict:
        """Write a raw segment under a :class:`WriteSpec` or name."""
        if isinstance(spec_or_name, WriteSpec):
            spec = spec_or_name
            if overrides:
                spec = spec.replace(**overrides)
        else:
            spec = self.write_spec(spec_or_name, **overrides)
        begin = time.perf_counter()
        try:
            reply = self._retrying(self._send_write, spec, segment)
        except Exception:
            self._note_failure()
            raise
        with self._stats_lock:
            self.stats.writes += 1
            self.stats.wall_seconds += time.perf_counter() - begin
        return reply

    # ------------------------------------------------------------------
    def _note_failure(self) -> None:
        with self._stats_lock:
            self.stats.failures += 1

    def close(self) -> None:
        """Release the ``read_async`` pool (idempotent).

        Subclasses with persistent transport state extend this; a
        closed client rejects further ``read_async`` calls.
        """
        with self._stats_lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class VSSClient(_RemoteClientBase):
    """Session-shaped access to a remote HTTP VSS server (module docs).

    ``defaults`` mirror ``engine.session(**defaults)``: any non-
    positional :class:`ReadSpec`/:class:`WriteSpec` field, filled into
    whatever a call does not specify.  ``stats`` accumulates the same
    :class:`SessionStats` counters a local session would.  Each call
    opens its own connection, which keeps a single client safe to share
    across threads.
    """

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _connect(self) -> HTTPConnection:
        return HTTPConnection(self.host, self.port, timeout=self.timeout)

    def _raise_for_status(self, response: HTTPResponse, body: bytes) -> None:
        if response.status < 400:
            return
        if response.status == 429:
            retry_after = float(response.getheader("Retry-After", "1"))
            raise ServerBusyError(retry_after=retry_after)
        try:
            rebuilt = error_from_dict(json.loads(body))
        except (json.JSONDecodeError, WireError):
            # Not a well-formed envelope (proxy page, truncated body):
            # fall back to a generic error.  A WireError *named by* a
            # well-formed envelope re-raises as WireError below.
            raise VSSError(
                f"HTTP {response.status}: {body[:200]!r}"
            ) from None
        raise rebuilt

    def _request_json(
        self, method: str, path: str, body: bytes | None = None
    ) -> dict:
        conn = self._connect()
        try:
            headers = {"Connection": "close"}
            if body is not None:
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
            self._raise_for_status(response, data)
            return json.loads(data)
        finally:
            conn.close()

    def _rpc(self, op: str, params: dict) -> dict:
        """Render one logical operation as its REST request (op table)."""
        entry = OPS.get(op)
        if entry is None:
            raise VSSError(f"unknown client operation {op!r}")
        return self._request_json(*entry.render(params))

    def _open_read_stream(self, spec: ReadSpec) -> RemoteReadStream:
        return self._open_stream(
            "/v1/read", {"spec": read_spec_to_dict(spec)}
        )

    def _open_stream(self, path: str, payload: dict) -> RemoteReadStream:
        conn = self._connect()
        try:
            conn.request(
                "POST",
                path,
                body=json.dumps(payload).encode("utf-8"),
                headers={
                    "Content-Type": "application/json",
                    "Connection": "close",
                },
            )
            response = conn.getresponse()
            if response.status != 200:
                self._raise_for_status(response, response.read())
        except Exception:
            conn.close()
            self._note_failure()
            raise
        return RemoteReadStream(conn, response)

    def read_batch(self, specs: list[ReadSpec]) -> list[RemoteReadResult]:
        """Execute several reads server-side with shared decode work."""
        payload = {"specs": [read_spec_to_dict(s) for s in specs]}
        stream = self._open_stream("/v1/read_batch", payload)
        response = stream._response
        results: list[RemoteReadResult] = []
        try:
            while True:
                frame = _read_meta(response)
                kind = frame.get("type")
                if kind == "end":
                    batch = BatchStats(**frame["batch"])
                    response.read()  # drain the terminal chunk
                    break
                if kind == "error":
                    self._note_failure()
                    raise error_from_dict(frame)
                stats = read_stats_from_dict(frame["stats"])
                if kind == "result-segment":
                    payload_bytes = _read_exact(response, frame["nbytes"])
                    segment = segment_from_payload(
                        frame["meta"], payload_bytes
                    )
                    results.append(RemoteReadResult(segment, None, stats))
                elif kind == "result-gops":
                    gops = _read_gops(response, frame["sizes"])
                    results.append(RemoteReadResult(None, gops, stats))
                else:
                    raise WireError(f"unexpected batch frame {frame!r}")
        finally:
            stream.close()
        self._account_batch(results, batch)
        return results

    def _send_write(self, spec: WriteSpec, segment: VideoSegment) -> dict:
        header = json.dumps(
            {
                "spec": write_spec_to_dict(spec),
                "segment": segment_to_meta(segment),
            }
        ).encode("utf-8")
        body = header + b"\n" + segment_payload(segment)
        return self._request_json("POST", "/v1/write", body)


# ----------------------------------------------------------------------
# binary transport
# ----------------------------------------------------------------------
class _BinaryConnection:
    """One persistent socket speaking length-prefixed binary frames."""

    def __init__(self, host: str, port: int, timeout: float):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        # Frames are written back-to-back; never wait on Nagle for the
        # small prelude of a large payload.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self._sock.makefile("rb")
        #: Monotonic stamp of the last completed request (pool bookkeeping).
        self.last_used = time.monotonic()

    def stale(self, max_idle: float) -> bool:
        """True when a pooled connection must not carry another request.

        Two ways a parked socket goes bad: the server (or a proxy in
        between) closed it while it idled — the socket turns *readable*
        with EOF, since the protocol owes us nothing between requests —
        or it simply sat past ``max_idle`` and isn't worth trusting.
        Either way the caller discards it and dials fresh instead of
        failing the next request with a truncation error.
        """
        if time.monotonic() - self.last_used > max_idle:
            return True
        try:
            readable, _, _ = select.select([self._sock], [], [], 0)
        except (OSError, ValueError):
            return True  # fd already closed/invalid
        return bool(readable)

    def send_frame(self, buffers) -> None:
        for buffer in buffers:
            self._sock.sendall(buffer)

    def read_frame(self) -> tuple[int, dict, memoryview]:
        prefix = self._read_exactly(4)
        length = check_frame_length(int.from_bytes(prefix, "big"))
        return parse_frame(self._read_exactly(length))

    def _read_exactly(self, nbytes: int) -> bytes:
        data = self._rfile.read(nbytes)
        if data is None or len(data) != nbytes:
            raise WireError(
                f"connection truncated: wanted {nbytes} bytes, got "
                f"{len(data or b'')}"
            )
        return data

    def close(self) -> None:
        try:
            self._rfile.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


class BinaryReadStream:
    """Client half of a binary streamed read (yields :class:`ReadChunk`).

    The surface mirrors :class:`RemoteReadStream`: iterate for chunks,
    ``stats`` after exhaustion, ``collect()`` for the one-shot answer.
    A cleanly drained stream returns its connection to the client's
    pool; closing early (unread frames in flight) discards it.
    """

    def __init__(self, client: "VSSBinaryClient", conn: _BinaryConnection):
        self._client = client
        self._conn = conn
        self._done = False
        self.stats: ReadStats | None = None
        self.chunks_pulled = 0

    def __iter__(self) -> "BinaryReadStream":
        return self

    def __next__(self) -> ReadChunk:
        if self._done:
            raise StopIteration
        try:
            frame_type, header, payload = self._conn.read_frame()
        except Exception:
            self._abort()
            raise
        if frame_type == FRAME_END:
            self.stats = read_stats_from_dict(header["stats"])
            self._finish()
            raise StopIteration
        if frame_type == FRAME_ERROR:
            # The server framed the failure cleanly: the connection is
            # still at a frame boundary and stays poolable.
            self._finish()
            self._client._note_failure()
            raise error_from_dict(header)
        if frame_type == FRAME_SEGMENT:
            segment = segment_from_payload(header["meta"], payload)
            chunk = ReadChunk(
                header["index"], segment.start_time, segment.end_time,
                segment, None,
            )
        elif frame_type == FRAME_GOPS:
            gops = _slice_gops(payload, header["sizes"])
            chunk = ReadChunk(
                header["index"], header["start_time"], header["end_time"],
                None, gops,
            )
        else:
            self._abort()
            raise WireError(
                f"unexpected stream frame type {frame_type:#04x}"
            )
        self.chunks_pulled += 1
        return chunk

    def collect(self) -> RemoteReadResult:
        """Drain the remaining chunks into one :class:`RemoteReadResult`."""
        return _collect_stream(self)

    def _finish(self) -> None:
        if not self._done:
            self._done = True
            self._client._release(self._conn)

    def _abort(self) -> None:
        if not self._done:
            self._done = True
            self._conn.close()

    def close(self) -> None:
        """Abandon the stream early (drops the connection)."""
        self._abort()

    def __enter__(self) -> "BinaryReadStream":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class VSSBinaryClient(_RemoteClientBase):
    """Session-shaped access to a :class:`repro.server.VSSBinaryServer`.

    Same surface and semantics as :class:`VSSClient` (see the module
    docs), different wire: every operation is one binary REQUEST frame,
    answered by a REPLY frame or a stream of segment/GOP frames.  Up to
    ``pool_connections`` drained connections are kept open and reused
    across calls — safe because the protocol is strictly
    request/response delimited — so the hot read path pays no TCP
    handshake and no HTTP parsing.  A single client is safe to share
    across threads.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8721,
        timeout: float = 60.0,
        pool_connections: int = 8,
        pool_max_idle: float = 60.0,
        busy_retries: int = 0,
        **defaults,
    ):
        super().__init__(
            host, port, timeout, busy_retries=busy_retries, **defaults
        )
        self._pool_connections = pool_connections
        self._pool_max_idle = pool_max_idle
        self._conn_lock = threading.Lock()
        self._conns: list[_BinaryConnection] = []
        #: Pooled connections discarded as unusable (closed by the
        #: server while idle, or parked past ``pool_max_idle`` seconds).
        self.conns_reaped = 0

    # ------------------------------------------------------------------
    # connection pool
    # ------------------------------------------------------------------
    def _acquire(self) -> _BinaryConnection:
        # Pop LIFO (the most recently used connection is the least
        # likely to have been idle-reaped server-side), skipping any
        # socket that went stale while pooled — see _BinaryConnection
        # .stale — instead of failing the request it would truncate.
        while True:
            with self._conn_lock:
                if not self._conns:
                    break
                conn = self._conns.pop()
            if conn.stale(self._pool_max_idle):
                conn.close()
                with self._conn_lock:
                    self.conns_reaped += 1
                continue
            return conn
        return _BinaryConnection(self.host, self.port, self.timeout)

    def _release(self, conn: _BinaryConnection) -> None:
        conn.last_used = time.monotonic()
        with self._conn_lock:
            if not self._closed and len(self._conns) < self._pool_connections:
                self._conns.append(conn)
                return
        conn.close()

    # ------------------------------------------------------------------
    # transport hooks
    # ------------------------------------------------------------------
    def _rpc(self, op: str, params: dict, payload=None) -> dict:
        conn = self._acquire()
        clean = False
        try:
            conn.send_frame(
                encode_frame(FRAME_REQUEST, {"op": op, **params}, payload)
            )
            frame_type, header, _ = conn.read_frame()
            if frame_type == FRAME_ERROR:
                clean = True  # complete frame: boundary intact
                raise error_from_dict(header)
            if frame_type != FRAME_REPLY:
                raise WireError(
                    f"expected a reply frame, got type {frame_type:#04x}"
                )
            clean = True
            return header
        finally:
            if clean:
                self._release(conn)
            else:
                conn.close()

    def ping(self) -> bool:
        """Round-trip a no-op frame (connectivity probe)."""
        return bool(self._rpc("ping", {}).get("pong"))

    def _open_read_stream(self, spec: ReadSpec) -> BinaryReadStream:
        conn = self._acquire()
        try:
            conn.send_frame(
                encode_frame(
                    FRAME_REQUEST,
                    {"op": "read", "spec": read_spec_to_dict(spec)},
                )
            )
        except Exception:
            conn.close()
            self._note_failure()
            raise
        return BinaryReadStream(self, conn)

    def read_batch(self, specs: list[ReadSpec]) -> list[RemoteReadResult]:
        """Execute several reads server-side with shared decode work."""
        conn = self._acquire()
        clean = False
        results: list[RemoteReadResult] = []
        try:
            conn.send_frame(
                encode_frame(
                    FRAME_REQUEST,
                    {
                        "op": "read_batch",
                        "specs": [read_spec_to_dict(s) for s in specs],
                    },
                )
            )
            while True:
                frame_type, header, payload = conn.read_frame()
                if frame_type == FRAME_END:
                    batch = BatchStats(**header["batch"])
                    clean = True
                    break
                if frame_type == FRAME_ERROR:
                    clean = True
                    self._note_failure()
                    raise error_from_dict(header)
                stats = read_stats_from_dict(header["stats"])
                if frame_type == FRAME_RESULT_SEGMENT:
                    segment = segment_from_payload(header["meta"], payload)
                    results.append(RemoteReadResult(segment, None, stats))
                elif frame_type == FRAME_RESULT_GOPS:
                    gops = _slice_gops(payload, header["sizes"])
                    results.append(RemoteReadResult(None, gops, stats))
                else:
                    raise WireError(
                        f"unexpected batch frame type {frame_type:#04x}"
                    )
        finally:
            if clean:
                self._release(conn)
            else:
                conn.close()
        self._account_batch(results, batch)
        return results

    def _send_write(self, spec: WriteSpec, segment: VideoSegment) -> dict:
        # The pixels go out as the frame payload, straight from the
        # segment's buffer — no JSON header line, no body concatenation.
        return self._rpc(
            "write",
            {
                "spec": write_spec_to_dict(spec),
                "segment": segment_to_meta(segment),
            },
            payload=segment_payload_view(segment),
        )

    def close(self) -> None:
        """Release pooled connections and the ``read_async`` pool."""
        super().close()
        with self._conn_lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            conn.close()
