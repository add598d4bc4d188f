"""The VSS HTTP service: engine endpoints over stdlib ``http.server``.

One :class:`VSSServer` wraps one :class:`repro.core.engine.VSSEngine`
behind a ``ThreadingHTTPServer`` (one thread per in-flight request —
the engine is already safe to share across threads, so the handler just
forwards).  This module is transport only: routing, admission control,
status codes, and how bytes reach the socket.

* The unary routes (catalog, views, search, reindex, metrics) are the
  REST bindings of the service-op table in :mod:`repro.core.ops` — the
  handler matches ``(method, path)`` against that table and has no
  per-op code; ``docs/api.md`` lists them.  Requests and replies are
  JSON.
* The data plane — ``POST /v1/<name>`` for each entry of
  :data:`repro.core.ops.DATA_OPS` (``read``, ``read_batch``, ``write``)
  — carries the binary frames of :mod:`repro.core.wire`: the request
  body is one ``REQUEST`` frame, and the ``200`` answer is a chunked
  body holding the frames the entry returns, the same the binary server
  writes (one HTTP chunk per frame; payload buffers go to the socket
  uncopied).  One handler serves every entry.  A failure in the entry's
  eager work (missing video, malformed request) or a busy server is a
  plain HTTP error — status code + JSON envelope; once frames flow, a
  failure travels as an in-band ``ERROR`` frame.
* ``GET /healthz`` answers ``{"ok": true}`` with no engine work.

Names resolve uniformly: a derived view created via ``POST /v1/views``
can be read, streamed, batched, listed, and stat'd exactly like a
stored video (the engine folds it into a read against its base).
Streamed reads are built on :meth:`Session.read_stream`, so the
server's resident frame buffer stays O(GOP window) no matter how long
the request interval is.

Admission control: at most ``max_inflight`` heavy requests (read, write,
batch) run concurrently; excess requests are rejected immediately with
HTTP 429 and a ``Retry-After`` hint rather than queueing unboundedly,
and the rejection/in-flight gauges are visible at ``/metrics``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import urlsplit

from repro.core.engine import VSSEngine
from repro.core.ops import DATA_OPS, match_route
from repro.core.wire import (
    FRAME_REQUEST,
    check_frame_length,
    error_frame,
    error_to_dict,
    parse_frame,
)
from repro.errors import (
    ServerBusyError,
    ShardUnavailableError,
    VideoExistsError,
    VideoNotFoundError,
    VSSError,
    WireError,
)

#: Default cap on concurrently executing heavy requests.
DEFAULT_MAX_INFLIGHT = 8

#: Retry hint (seconds) sent with 429 responses.
RETRY_AFTER_SECONDS = 1.0


def status_for(exc: BaseException) -> int:
    """The HTTP status an exception maps to."""
    if isinstance(exc, VideoNotFoundError):
        return 404
    if isinstance(exc, VideoExistsError):
        return 409
    if isinstance(exc, ServerBusyError):
        # A busy rejection forwarded from a cluster shard: same status
        # and Retry-After contract as this server's own admission.
        return 429
    if isinstance(exc, ShardUnavailableError):
        return 503
    if isinstance(exc, (VSSError, WireError, ValueError, TypeError, KeyError)):
        return 400
    return 500


class ServiceGauges:
    """Admission bookkeeping surfaced at ``/metrics``.

    ``inflight`` is the queue-depth gauge: how many heavy requests hold
    an admission slot right now.  ``peak_inflight``/``served``/
    ``rejected`` summarize the server's life so far.
    """

    def __init__(self, max_inflight: int):
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.max_inflight = max_inflight
        self._lock = threading.Lock()
        self.inflight = 0
        self.peak_inflight = 0
        self.served = 0
        self.rejected = 0

    def try_enter(self) -> bool:
        with self._lock:
            if self.inflight >= self.max_inflight:
                self.rejected += 1
                return False
            self.inflight += 1
            self.peak_inflight = max(self.peak_inflight, self.inflight)
            return True

    def leave(self) -> None:
        with self._lock:
            self.inflight -= 1
            self.served += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "max_inflight": self.max_inflight,
                "inflight": self.inflight,
                "peak_inflight": self.peak_inflight,
                "served": self.served,
                "rejected": self.rejected,
            }


class _EngineHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the engine/session/gauge context."""

    daemon_threads = True
    allow_reuse_address = True

    engine: VSSEngine
    session = None
    gauges: ServiceGauges
    verbose = False

    def handle_error(self, request, client_address) -> None:
        # Clients hanging up mid-conversation (closed streams, timeouts)
        # are routine for a video server, not stack-trace material.
        import sys

        exc = sys.exc_info()[1]
        if isinstance(exc, (ConnectionError, BrokenPipeError, TimeoutError)):
            return
        super().handle_error(request, client_address)


class VSSRequestHandler(BaseHTTPRequestHandler):
    """Routes one HTTP request onto the engine (see the module docs)."""

    protocol_version = "HTTP/1.1"
    server_version = "VSSServer/1.0"
    server: _EngineHTTPServer

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_json(self, payload: dict, status: int = 200, headers=None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_exception(self, exc: BaseException) -> None:
        headers = None
        if isinstance(exc, ServerBusyError):
            headers = {"Retry-After": str(exc.retry_after)}
        self._send_json(
            error_to_dict(exc), status=status_for(exc), headers=headers
        )

    def _reject_busy(self) -> None:
        # Drain the request body first: closing with unread data makes
        # the kernel RST the connection, which can discard the in-flight
        # 429 before the client reads it (losing the Retry-After hint).
        self._read_body()
        self.close_connection = True
        self._send_json(
            {
                "error": "ServerBusyError",
                "message": "too many in-flight requests",
            },
            status=429,
            headers={
                "Retry-After": str(RETRY_AFTER_SECONDS),
                "Connection": "close",
            },
        )

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length", 0))
        return self.rfile.read(length) if length > 0 else b""

    def _read_request(self, op: str) -> tuple[dict, memoryview]:
        """The body of ``POST /v1/<op>``: one ``REQUEST`` frame."""
        body = memoryview(self._read_body())
        if body.nbytes < 4 or body.nbytes - 4 != check_frame_length(
            int.from_bytes(body[:4], "big")
        ):
            raise WireError(
                f"the {body.nbytes}-byte request body is not one whole frame"
            )
        frame_type, header, payload = parse_frame(body[4:])
        if frame_type != FRAME_REQUEST or header.get("op", op) != op:
            raise WireError(
                f"/v1/{op} takes a request frame for op {op!r}, got type "
                f"{frame_type:#04x} for op {header.get('op')!r}"
            )
        return header, payload

    def _write_frame(self, buffers: list) -> None:
        """Write one frame as one HTTP chunk.

        Only the small prelude is copied (it shares a write with the
        chunk-size line); payload buffers go to the socket as they are.
        """
        size = sum(memoryview(part).nbytes for part in buffers)
        self.wfile.write(b"%x\r\n%b" % (size, buffers[0]))
        for payload in buffers[1:]:
            self.wfile.write(payload)
        self.wfile.write(b"\r\n")

    def _send_frames(self, frames) -> None:
        """Answer ``200`` with ``frames`` (buffer lists) as a chunked body.

        Once the status line is out, a failure while producing or
        writing frames travels as an in-band ``ERROR`` frame.  ``frames``
        is closed however the answer ends, releasing what its producer
        holds.
        """
        try:
            self.send_response(200)
            self.send_header("Content-Type", "application/x-vss-frames")
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            try:
                for buffers in frames:
                    self._write_frame(buffers)
            except ConnectionError:
                raise  # the client hung up: _serve has nothing to tell it
            except Exception as exc:  # noqa: BLE001 - in-band error frame
                self._write_frame(error_frame(exc))
            self.wfile.write(b"0\r\n\r\n")
        finally:
            frames.close()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Route one request: data plane, liveness, then the op table."""
        url = urlsplit(self.path)
        name = url.path.removeprefix("/v1/")
        if self.command == "POST" and name != url.path and name in DATA_OPS:

            def answer() -> None:
                self._send_frames(
                    DATA_OPS[name](self.server, *self._read_request(name))
                )

            self._serve(answer, admitted=True)
            return
        if self.command == "GET" and url.path == "/healthz":
            # Liveness only — no engine work, so a wedged store never
            # makes an external load balancer think the process died.
            self._send_json({"ok": True, "service": "vss"})
            return
        match = match_route(self.command, url.path)
        if match is None:
            self._read_body()
            self._send_json(
                {"error": "VSSError", "message": f"no route {self.path!r}"},
                status=404,
            )
            return
        op, path_params = match

        def run_op() -> None:
            params = op.parse(path_params, url.query, self._read_body())
            self._send_json(op(self.server, params))

        self._serve(run_op, admitted=op.admitted)

    do_GET = do_POST = do_DELETE = _dispatch  # noqa: N815 - stdlib naming

    def _serve(self, handler, admitted: bool) -> None:
        """Run a handler, mapping failures to an error envelope.

        ``admitted`` handlers run under admission control: 429 when the
        server already has ``max_inflight`` heavy requests in flight.
        """
        gauges = self.server.gauges
        if admitted and not gauges.try_enter():
            self._reject_busy()
            return
        try:
            handler()
        except ConnectionError:
            # The client hung up mid-response; nothing left to tell it.
            self.close_connection = True
        except Exception as exc:  # noqa: BLE001 - mapped to an envelope
            self._send_exception(exc)
        finally:
            if admitted:
                gauges.leave()


class VSSServer:
    """One engine behind an HTTP endpoint.

    Construct over an existing engine (``VSSServer(engine=engine)``) or
    let the server own a fresh one (``VSSServer(root=path, **knobs)``).
    ``port=0`` binds an ephemeral port — read :attr:`address` after
    construction.  :meth:`start` serves from a daemon thread (the usual
    embedded/test mode); :meth:`serve_forever` blocks (the CLI mode).
    """

    def __init__(
        self,
        engine: VSSEngine | None = None,
        root: str | Path | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        verbose: bool = False,
        **engine_kwargs,
    ):
        if (engine is None) == (root is None):
            raise ValueError("provide exactly one of engine= or root=")
        self._owns_engine = engine is None
        self.engine = engine if engine is not None else VSSEngine(
            root, **engine_kwargs
        )
        self.session = self.engine.session()
        self.gauges = ServiceGauges(max_inflight)
        self._httpd = _EngineHTTPServer((host, port), VSSRequestHandler)
        self._httpd.engine = self.engine
        self._httpd.session = self.session
        self._httpd.gauges = self.gauges
        self._httpd.verbose = verbose
        self._thread: threading.Thread | None = None
        self._closed = False

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return host, port

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "VSSServer":
        """Serve from a background daemon thread; returns self."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="vss-server",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        self._httpd.serve_forever()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        if self._owns_engine:
            self.engine.close()

    def __enter__(self) -> "VSSServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
