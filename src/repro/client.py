"""Session-shaped clients for a remote VSS server: HTTP and binary.

A client is a :class:`repro.core.specs.SessionSurface`, the class a
local :class:`repro.core.engine.Session` is too: ``read`` /
``read_stream`` / ``read_batch`` / ``read_async`` / ``write``, their
:class:`SessionStats` accounting, the close lifecycle and the unary ops
of the service-op table (:data:`repro.core.ops.OPS`: catalog, views,
search, reindex, check) are that one class's code.  An answer is the
value a session returns: the same :class:`repro.core.reader.ReadResult`
(with ``plan=None``: the plan stayed on the server), the same
:class:`repro.core.records.PhysicalVideo` for a write, and each unary
op's reply decoded by its table entry into the engine's own record.  So
application code runs unchanged against a local engine, an HTTP server,
a binary server or a router (values and types in
``tests/test_ops.py``, method names in ``tests/test_views.py``, the
accounting in ``tests/test_transports.py``).  Only ``metrics`` (and
``ping``, binary only) are the clients' own::

    client = VSSBinaryClient("127.0.0.1", 8721, codec="h264", qp=12)
    client.write("traffic", segment)
    result = client.read("traffic", 0.0, 2.0, codec="raw")
    for chunk in client.read_stream("traffic", 0.0, 120.0, codec="raw"):
        consume(chunk.segment)        # O(GOP window) resident, both sides

The data plane is the same on both transports: ``read``, ``read_batch``
and ``write`` send one ``REQUEST`` frame and parse the frames that
answer it (:mod:`repro.core.wire`; pixel payloads are ``np.frombuffer``
views of the received frame).  :class:`VSSClient` holds the surface's
transport hooks (its ``_unary`` is ``_rpc`` with busy retries); a wire
supplies two more hooks and nothing else:

* ``_rpc(op, params)`` — one unary op, answered by its reply dict: its
  REST route over HTTP, a ``REQUEST``/``REPLY`` frame pair over binary;
* ``_send_request(op, request)`` — put the request frame on the wire and
  hand back the file-like its answer arrives on, plus what to do with
  the connection afterwards.  :class:`VSSClient` POSTs the frame to
  ``/v1/<op>`` on a connection of its own (which keeps a single client
  safe to share across threads) and hangs up after the answer;
  :class:`VSSBinaryClient` keeps a small pool of persistent
  connections — the protocol is strictly request/response delimited, so
  a drained response leaves the connection at a frame boundary and the
  next call reuses it, skipping the TCP handshake and HTTP parsing.

Specs are revalidated identically on the server, and server-side errors
re-raise as the same :mod:`repro.errors` classes; a busy rejection (HTTP
429 / ``ServerBusyError`` envelope) raises :class:`ServerBusyError`
carrying the server's retry hint either way.  A closed client rejects
further calls, as a closed session does.
"""

from __future__ import annotations

import json
import select
import socket
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from http.client import HTTPConnection, HTTPResponse

from repro.core.ops import OPS, physical_from_dict
from repro.core.reader import (
    BatchStats,
    ReadChunk,
    ReadResult,
    ReadStats,
    collect_chunks,
)
from repro.core.records import PhysicalVideo
from repro.core.specs import ReadSpec, SessionSurface, WriteSpec
from repro.core.wire import (
    FRAME_END,
    FRAME_ERROR,
    FRAME_GOPS,
    FRAME_REPLY,
    FRAME_REQUEST,
    FRAME_RESULT_GOPS,
    FRAME_RESULT_SEGMENT,
    FRAME_SEGMENT,
    decode_content,
    encode_frame,
    error_from_dict,
    read_frame,
    read_spec_to_dict,
    read_stats_from_dict,
    segment_payload_view,
    segment_to_meta,
    write_spec_to_dict,
)
from repro.errors import ServerBusyError, VSSError, WireError
from repro.video.frame import VideoSegment


class _FrameReply:
    """The frames answering one request, read off a blocking file-like.

    Iterating yields ``(frame_type, header, payload)`` for each frame of
    the ``expect``-ed content types and stops at the ``last`` frame
    (``END``, or ``REPLY`` for a one-frame answer), whose header lands
    in :attr:`end`; an ``ERROR`` frame raises the error it envelopes.
    ``done(clean)`` runs exactly once, when the conversation ends:
    ``clean`` says the answer was read up to a frame boundary, so its
    connection may carry another request.
    """

    def __init__(self, rfile, done, expect: tuple, last: int):
        self._rfile = rfile
        self._done = done
        self._expect = expect
        self._last = last
        self.end: dict | None = None

    def __iter__(self) -> "_FrameReply":
        return self

    def __next__(self) -> tuple[int, dict, memoryview]:
        if self._done is None:
            raise StopIteration
        try:
            frame_type, header, payload = read_frame(self._rfile)
        except BaseException:
            self.close()
            raise
        if frame_type in self._expect:
            return frame_type, header, payload
        # Anything else ends the conversation.  The last frame and an
        # error frame are complete: the framing is intact either way.
        self.close(clean=frame_type in (self._last, FRAME_ERROR))
        if frame_type == self._last:
            self.end = header
            raise StopIteration
        if frame_type == FRAME_ERROR:
            raise error_from_dict(header)
        raise WireError(f"unexpected frame type {frame_type:#04x} in a reply")

    def close(self, clean: bool = False) -> None:
        done, self._done = self._done, None
        if done is not None:
            done(clean)

    def __enter__(self) -> "_FrameReply":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class RemoteReadStream:
    """Client half of a streamed read, on either transport.

    Iterating yields :class:`repro.core.reader.ReadChunk` objects (the
    same type the in-process stream yields); ``stats`` holds the
    server's final :class:`ReadStats` once the stream is exhausted.
    Like the in-process stream, exactly one callback fires per stream
    that is not closed early: ``on_complete(stats, wall_seconds)`` (the
    caller's pull time) once drained, ``on_failure()`` when a pull
    raises.  Closing early drops the connection (unread frames are in
    flight); the server abandons its side on the broken pipe.
    """

    def __init__(self, reply: _FrameReply, on_complete=None, on_failure=None):
        self._reply = reply
        self._on_complete = on_complete
        self._on_failure = on_failure
        self._wall = 0.0
        self.stats: ReadStats | None = None
        self.chunks_pulled = 0

    def __iter__(self) -> "RemoteReadStream":
        return self

    def __next__(self) -> ReadChunk:
        begin = time.perf_counter()
        try:
            frame_type, header, payload = next(self._reply)
            segment, gops = decode_content(frame_type, header, payload)
            chunk = ReadChunk(
                header["index"], header["start_time"], header["end_time"],
                segment, gops,
            )
        except StopIteration:
            if self.stats is None and self._reply.end is not None:
                self.stats = read_stats_from_dict(self._reply.end["stats"])
                self._wall += time.perf_counter() - begin
                if self._on_complete is not None:
                    self._on_complete(self.stats, self._wall)
            raise
        except Exception:
            self.close()
            if self._on_failure is not None:
                self._on_failure()
            raise
        self._wall += time.perf_counter() - begin
        self.chunks_pulled += 1
        return chunk

    def collect(self) -> ReadResult:
        """Drain the remaining chunks into one :class:`ReadResult`
        (``plan`` is None: the plan stayed on the server)."""
        segment, gops = collect_chunks(self)
        stats = self.stats if self.stats is not None else ReadStats()
        return ReadResult(None, segment, gops, stats)

    def close(self) -> None:
        """Abandon the stream early (drops the connection)."""
        self._reply.close()

    def __enter__(self) -> "RemoteReadStream":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class VSSClient(SessionSurface):
    """Session-shaped access to a remote HTTP VSS server (module docs).

    ``defaults`` mirror ``engine.session(**defaults)``: any non-
    positional :class:`ReadSpec`/:class:`WriteSpec` field, filled into
    whatever a call does not specify.  ``stats`` accumulates the same
    :class:`SessionStats` counters a local session does, by the same
    code.  Each call opens its own connection, which keeps a single
    client safe to share across threads.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8720,
        timeout: float = 60.0,
        busy_retries: int = 0,
        **defaults,
    ):
        super().__init__(defaults)
        if busy_retries < 0:
            raise ValueError(f"busy_retries must be >= 0, got {busy_retries}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self._busy_retries = busy_retries
        #: Times a busy rejection was absorbed by waiting out the
        #: server's Retry-After hint and retrying (``busy_retries > 0``).
        self.busy_retries_used = 0
        self._pool: ThreadPoolExecutor | None = None

    def _retrying(self, fn, *args, **kwargs):
        """Run one idempotent operation, honouring busy backpressure.

        With ``busy_retries=N`` (constructor), a :class:`ServerBusyError`
        is absorbed up to N times by sleeping out the server's
        ``Retry-After`` hint (capped at 5 s a hop) and reissuing the
        request; the N+1th rejection propagates.  The default (0) keeps
        the historical fail-fast behaviour.  A data-plane failure is
        counted once, by the surface, when it raises to the caller — a
        rejection absorbed here shows up in ``busy_retries_used`` only.
        """
        attempts = 0
        while True:
            try:
                return fn(*args, **kwargs)
            except ServerBusyError as exc:
                if attempts >= self._busy_retries:
                    raise
                attempts += 1
                with self._lock:
                    self.busy_retries_used += 1
                time.sleep(min(max(exc.retry_after, 0.0), 5.0))

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

    def _send_request(self, op: str, request: list):
        """Send one request frame (:func:`encode_frame` buffers).

        Returns ``(rfile, done)``: the blocking file-like the answer's
        frames arrive on, and ``done(clean)`` to call once when the
        conversation is over (:class:`_FrameReply`).  A failure the
        server reports before any frame raises here.
        """
        conn = self._connect()
        try:
            # A buffer list with an explicit length is sent as it is:
            # the payload goes from the segment's buffer to the socket.
            conn.request(
                "POST",
                f"/v1/{op}",
                body=request,
                headers={
                    "Content-Type": "application/x-vss-frames",
                    "Content-Length": str(
                        sum(memoryview(part).nbytes for part in request)
                    ),
                    "Connection": "close",
                },
            )
            response = conn.getresponse()
            if response.status != 200:
                self._raise_for_status(response, response.read())
        except BaseException:
            conn.close()
            raise

        def done(clean: bool) -> None:
            if clean:
                # Drain the terminal transfer-encoding chunk so the
                # server's final write lands on an open socket.
                response.read()
            conn.close()

        return response, done

    def _converse(
        self, op: str, params: dict, payload=None, *, expect=(), last=FRAME_END
    ) -> _FrameReply:
        request = encode_frame(FRAME_REQUEST, {"op": op, **params}, payload)
        return _FrameReply(*self._send_request(op, request), expect, last)

    def _one_reply(self, op: str, params: dict, payload=None) -> dict:
        """One request answered by one ``REPLY`` frame."""
        reply = self._converse(op, params, payload, last=FRAME_REPLY)
        next(reply, None)
        return reply.end

    # ------------------------------------------------------------------
    # the surface's transport hooks
    # ------------------------------------------------------------------
    def _read_one(self, spec: ReadSpec) -> ReadResult:
        return self._retrying(lambda: self._open_stream(spec).collect())

    def _open_stream(
        self, spec: ReadSpec, on_complete=None, on_failure=None
    ) -> RemoteReadStream:
        reply = self._converse(
            "read",
            {"spec": read_spec_to_dict(spec)},
            expect=(FRAME_SEGMENT, FRAME_GOPS),
        )
        return RemoteReadStream(reply, on_complete, on_failure)

    def _read_many(self, specs: list[ReadSpec]) -> tuple[list[ReadResult], BatchStats]:
        params = {"specs": [read_spec_to_dict(s) for s in specs]}
        return self._retrying(self._read_batch_once, params)

    def _read_batch_once(self, params: dict):
        with self._converse(
            "read_batch",
            params,
            expect=(FRAME_RESULT_SEGMENT, FRAME_RESULT_GOPS),
        ) as reply:
            results = [
                ReadResult(
                    None,
                    *decode_content(frame_type, header, payload),
                    read_stats_from_dict(header["stats"]),
                )
                for frame_type, header, payload in reply
            ]
        return results, BatchStats(**reply.end["batch"])

    def _write_one(
        self, spec: WriteSpec, segment: VideoSegment
    ) -> PhysicalVideo:
        # The pixels go out as the frame payload, straight from the
        # segment's buffer.
        return physical_from_dict(
            self._retrying(
                self._one_reply,
                "write",
                {
                    "spec": write_spec_to_dict(spec),
                    "segment": segment_to_meta(segment),
                },
                segment_payload_view(segment),
            )
        )

    def _unary(self, op: str, params: dict) -> dict:
        return self._retrying(self._rpc, op, params)

    def _submit(self, fn, *args) -> Future:
        """Run ``fn`` on a small client-side pool, so futures of
        different videos proceed concurrently server-side."""
        with self._lock:
            self._check_open()
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=4, thread_name_prefix="vss-client"
                )
            # Submit under the lock: close() marks the client closed
            # under the same lock before shutting the pool down, so a
            # submit can never race into an already-shut-down executor.
            return self._pool.submit(fn, *args)

    def _shutdown(self) -> None:
        """Release the ``read_async`` pool."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def metrics(self) -> dict:
        """The server's metrics document (engine + admission gauges)."""
        return self._op("metrics", {})

    # ------------------------------------------------------------------
    # writes (reads are SessionSurface's)
    # ------------------------------------------------------------------
    def write(
        self,
        spec_or_name: WriteSpec | str,
        segment: VideoSegment,
        **overrides,
    ) -> PhysicalVideo:
        """Write a raw segment under a :class:`WriteSpec` or name."""
        return self._write(spec_or_name, overrides, segment)


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
        self.rfile = self._sock.makefile("rb")
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

    def close(self) -> None:
        try:
            self.rfile.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


class VSSBinaryClient(VSSClient):
    """Session-shaped access to a :class:`repro.server.VSSBinaryServer`.

    A :class:`VSSClient` whose two wire hooks (``_rpc``,
    ``_send_request``) speak binary frames: same surface and semantics
    (see the module docs), and the unary ops are REQUEST/REPLY frames too,
    and every request rides a pooled persistent connection.  Up to
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
    def _rpc(self, op: str, params: dict) -> dict:
        return self._one_reply(op, params)

    def ping(self) -> bool:
        """Round-trip a no-op frame (connectivity probe)."""
        return self._op("ping", {})

    def _send_request(self, op: str, request: list):
        conn = self._acquire()
        try:
            conn.send_frame(request)
        except BaseException:
            conn.close()
            raise
        # A cleanly drained answer returns the connection to the pool;
        # anything else (unread frames in flight) discards it.
        return conn.rfile, lambda clean: (
            self._release(conn) if clean else conn.close()
        )

    def _shutdown(self) -> None:
        """Release the ``read_async`` pool and pooled connections."""
        super()._shutdown()
        with self._conn_lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            conn.close()
