"""The VSS binary service: length-prefixed frames over an asyncio loop.

:class:`VSSBinaryServer` is the throughput-oriented peer of the HTTP
:class:`repro.server.http.VSSServer`.  Both front the same
:class:`repro.core.engine.VSSEngine` and answer ``read`` /
``read_batch`` / ``write`` with the same frames — each op's engine call
and frame building is its entry in :mod:`repro.core.ops` — so this
module is transport only.  Where the HTTP server burns one thread and
one connection per request, the binary server:

* runs **one event loop** that multiplexes every connection — thousands
  of idle streams cost file descriptors, not threads;
* keeps connections **persistent**: a frame is self-delimiting
  (``u32 length | u8 type | u32 header_len | JSON header | raw
  payload``, layout in ``docs/api.md``), so a drained answer leaves the
  connection ready for the next request, and a batch of frames goes
  to the socket in one ``os.writev`` straight from the answer's pixel
  arrays and stored GOP bytes: the server copies nothing unless the
  kernel refuses part of a reply, and then only that part, a bounded
  slice at a time (not asyncio's ``writelines``: on Python 3.10 and
  3.11 it joins the list into one new bytes object, a copy of every
  reply, which this server paid until it switched to ``os.writev``);
* **bridges** into worker threads only for engine work (planning,
  decode, catalog IO), prefetching the next batch of frames while the
  current one goes out, so blocking storage code never stalls the loop.

A connection carries any number of sequential requests: the client
sends one ``FRAME_REQUEST`` and reads that request's response frames
(one ``FRAME_REPLY``, or a stream of segment/GOP frames ending in
``FRAME_END``/``FRAME_ERROR``) before sending the next.  Engine errors
travel as ``FRAME_ERROR`` envelopes and leave the connection usable;
framing errors (bad length prefix, unknown frame type, truncated frame)
answer with a :class:`WireError` envelope and close only that
connection — never the server.

Every ``"op"`` value is answered by one handler,
:meth:`VSSBinaryServer._answer`: a payload op is its
:data:`repro.core.ops.DATA_OPS` entry, and a unary op of
:data:`repro.core.ops.OPS` answers one ``REPLY`` frame.  Admission
control matches the HTTP server: the heavy ops (the payload ops,
``reindex``, ``check``) take a :class:`ServiceGauges` slot or are
rejected immediately with a ``ServerBusyError`` envelope carrying the
same ``retry_after`` hint as HTTP 429 + ``Retry-After``; the
queue-depth gauges are served by the ``metrics`` op (the ``/metrics``
equivalent).
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

from repro.core.engine import VSSEngine
from repro.core.ops import DATA_OPS, OPS, reply_frames
from repro.core.wire import (
    FRAME_PING,
    FRAME_PONG,
    FRAME_REQUEST,
    check_frame_length,
    encode_frame,
    error_frame,
    parse_frame,
)
from repro.errors import ServerBusyError, WireError
from repro.server.http import (
    DEFAULT_MAX_INFLIGHT,
    RETRY_AFTER_SECONDS,
    ServiceGauges,
)


async def read_frame_async(
    reader: asyncio.StreamReader,
) -> tuple[int, dict, memoryview]:
    """Read one complete frame from an asyncio stream.

    Raises :class:`WireError` for an implausible length prefix or a
    malformed body, and :class:`asyncio.IncompleteReadError` when the
    peer hangs up (``.partial`` distinguishes between-frames from
    mid-frame).
    """
    prefix = await reader.readexactly(4)
    length = check_frame_length(int.from_bytes(prefix, "big"))
    body = await reader.readexactly(length)
    return parse_frame(body)


#: Frame-batch bounds for one bridge round-trip.  Every loop<->thread
#: hop costs a wakeup on both sides (and GIL churn under load), so an
#: answer is drained in bounded batches rather than frame-at-a-time:
#: small reads finish in a single hop, large reads stay O(batch)
#: resident instead of O(read).
_PULL_MAX_FRAMES = 8
_PULL_MAX_BYTES = 32 << 20


#: The rejection a full server answers an admitted request with.
_BUSY = ServerBusyError(
    "too many in-flight requests", retry_after=RETRY_AFTER_SECONDS
)

#: Largest ``os.writev`` call: the kernel refuses longer vectors.
_IOV_MAX = os.sysconf("SC_IOV_MAX")

#: Slice size for the bytes the kernel refused.  asyncio copies each
#: slice into its transport buffer and (before Python 3.12) memmoves
#: that buffer's tail on every partial send, so a bounded slice keeps a
#: slow reader from costing a multi-MB copy per socket wakeup.
_HANDOFF_BYTES = 256 << 10


def write_vectored(fd: int, buffers) -> list[memoryview]:
    """Write ``buffers`` to the non-blocking socket ``fd`` with ``os.writev``.

    Sends at most :data:`_IOV_MAX` buffers per call and stops at the
    first call the kernel takes only part of (or none of).  Returns the
    unsent tail as byte views of the caller's buffers, empty when all
    of it went out; nothing is copied either way.  A peer that hung up
    raises :class:`ConnectionError`.
    """
    views = [memoryview(b).cast("B") for b in buffers]
    views = [v for v in views if v.nbytes]
    start = 0
    while start < len(views):
        batch = views[start:start + _IOV_MAX]
        try:
            sent = os.writev(fd, batch)
        except BlockingIOError:
            sent = 0
        for view in batch:
            if sent < view.nbytes:
                views[start] = view[sent:]
                return views[start:]
            sent -= view.nbytes
            start += 1
    return []


def _entry(name) -> tuple:
    """``(run, admitted)`` for op ``name``: its :data:`DATA_OPS` entry, or
    its :data:`OPS` entry answering one ``REPLY`` frame.

    The request header doubles as a unary op's params (its ``"op"`` key
    is just one more name the op does not look at).
    """
    if name in DATA_OPS:
        return DATA_OPS[name], True
    op = OPS.get(name)
    if op is None:
        # Frame boundaries are intact: answer and keep serving.
        raise WireError(f"unknown op {name!r}")
    return (
        lambda service, header, payload: reply_frames(op(service, header))
    ), op.admitted


def _pull(frames) -> tuple[list, bool]:
    """Up to one bounded batch of frames, pulled on a bridge thread.

    Returns ``(batch, exhausted)``.  A pull that raises ends the batch
    and the answer with an ``ERROR`` frame after the frames pulled
    before it, as the HTTP server sends them.
    """
    batch: list = []
    nbytes = 0
    try:
        while len(batch) < _PULL_MAX_FRAMES and nbytes < _PULL_MAX_BYTES:
            frame = next(frames, None)
            if frame is None:
                return batch, True
            batch.append(frame)
            nbytes += sum(memoryview(buffer).nbytes for buffer in frame)
    except Exception as exc:  # noqa: BLE001 - in-band error frame
        batch.append(error_frame(exc))
        return batch, True
    return batch, False


def _open(run, service, header: dict, payload):
    """Run an op's eager work and pull its first batch in one bridge hop.

    A frame iterator that raises has already released what it held.
    """
    frames = run(service, header, payload)
    return (frames, *_pull(frames))


class VSSBinaryServer:
    """One engine behind the binary frame protocol (see the module docs).

    The constructor mirrors :class:`repro.server.http.VSSServer`: wrap
    an existing engine (``VSSBinaryServer(engine=engine)``) or own a
    fresh one (``VSSBinaryServer(root=path, **knobs)``).  ``port=0``
    binds an ephemeral port — the socket is bound synchronously in the
    constructor, so :attr:`address` is valid immediately.
    :meth:`start` serves from a daemon thread running the event loop;
    :meth:`serve_forever` blocks the calling thread until interrupted.
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
        self.verbose = verbose
        self._sock = socket.create_server((host, port))
        # The engine bridge: every blocking call (plan, decode, catalog)
        # runs here, so the event loop only ever awaits.
        self._bridge = ThreadPoolExecutor(
            max_workers=max(4, max_inflight),
            thread_name_prefix="vss-binary-bridge",
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._shutdown: asyncio.Event | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        host, port = self._sock.getsockname()[:2]
        return host, port

    @property
    def url(self) -> str:
        host, port = self.address
        return f"vss://{host}:{port}"

    def start(self) -> "VSSBinaryServer":
        """Serve from a background daemon thread; returns self."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run_loop, name="vss-binary-server", daemon=True
            )
            self._thread.start()
            self._started.wait(timeout=10.0)
        return self

    def serve_forever(self) -> None:
        """Serve until the process is interrupted (the CLI mode)."""
        self.start()
        while self._thread is not None and self._thread.is_alive():
            self._thread.join(timeout=1.0)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._signal_shutdown)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        else:
            self._sock.close()
        self._bridge.shutdown(wait=True, cancel_futures=True)
        if self._owns_engine:
            self.engine.close()

    def __enter__(self) -> "VSSBinaryServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _signal_shutdown(self) -> None:
        if self._shutdown is not None:
            self._shutdown.set()

    def _run_loop(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._main())
        finally:
            try:
                self._loop.run_until_complete(
                    self._loop.shutdown_asyncgens()
                )
            finally:
                asyncio.set_event_loop(None)
                self._loop.close()

    async def _main(self) -> None:
        self._shutdown = asyncio.Event()
        server = await asyncio.start_server(
            self._on_connection, sock=self._sock
        )
        self._started.set()
        try:
            await self._shutdown.wait()
        finally:
            server.close()
            await server.wait_closed()
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(
                    *self._conn_tasks, return_exceptions=True
                )

    def _bridge_call(self, fn, *args, **kwargs):
        """Run blocking engine work on the bridge pool; awaitable."""
        return asyncio.get_running_loop().run_in_executor(
            self._bridge, partial(fn, *args, **kwargs)
        )

    # ------------------------------------------------------------------
    # connection loop
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        if self.verbose:
            print(f"binary: connection from {writer.get_extra_info('peername')}")
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionError, TimeoutError):
            pass  # client hung up mid-conversation: routine, not an error
        except asyncio.CancelledError:
            pass  # server shutting down
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while not self._shutdown.is_set():
            try:
                frame_type, header, payload = await read_frame_async(reader)
            except asyncio.IncompleteReadError as exc:
                if exc.partial:
                    # Died mid-frame: report the truncation best-effort.
                    await self._send_error(
                        writer,
                        WireError(
                            "connection truncated mid-frame "
                            f"({len(exc.partial)} of its bytes arrived)"
                        ),
                        best_effort=True,
                    )
                return
            except WireError as exc:
                # Bad length prefix or unparseable body: the framing can
                # no longer be trusted, so answer and drop the
                # connection.  The server itself keeps serving.
                await self._send_error(writer, exc, best_effort=True)
                return
            if frame_type == FRAME_PING:
                # Liveness probe: answered inline, no admission slot, no
                # engine work — usable by health checkers and external
                # load balancers even when the store is saturated.
                await self._send(
                    writer, encode_frame(FRAME_PONG, {"pong": True})
                )
                continue
            if frame_type != FRAME_REQUEST:
                await self._send_error(
                    writer,
                    WireError(
                        f"expected a request frame, got type "
                        f"{frame_type:#04x}"
                    ),
                    best_effort=True,
                )
                return
            try:
                await self._answer(writer, header, payload)
            except (ConnectionError, TimeoutError, asyncio.CancelledError):
                raise
            except Exception as exc:  # noqa: BLE001 - mapped to an envelope
                await self._send_error(writer, exc)

    # ------------------------------------------------------------------
    # frame writers
    # ------------------------------------------------------------------
    async def _send(self, writer, buffers) -> None:
        """Write one batch of frame buffers, copying nothing the kernel takes.

        With nothing queued in the transport, the buffers go to the
        socket in one :func:`write_vectored` call straight from the
        answer's memory.  Only what the kernel refuses (or everything,
        behind bytes already queued) is handed to ``writer.write`` as
        :data:`_HANDOFF_BYTES` slices, draining between them, so a slow
        reader holds at most one slice copied in the transport buffer.
        """
        transport = writer.transport
        if not transport.is_closing() and not transport.get_write_buffer_size():
            fd = writer.get_extra_info("socket").fileno()
            buffers = write_vectored(fd, buffers)
        for buffer in buffers:
            view = memoryview(buffer).cast("B")
            for start in range(0, view.nbytes, _HANDOFF_BYTES):
                writer.write(view[start:start + _HANDOFF_BYTES])
                await writer.drain()

    async def _send_error(
        self, writer, exc: BaseException, best_effort: bool = False
    ) -> None:
        try:
            await self._send(writer, error_frame(exc))
        except (ConnectionError, TimeoutError):
            if not best_effort:
                raise

    # ------------------------------------------------------------------
    # the one handler
    # ------------------------------------------------------------------
    async def _answer(self, writer, header: dict, payload) -> None:
        """Answer one request of any op (module docs).

        An admitted op takes a gauge slot first.  One bridge hop then
        runs the op's eager work and pulls the first bounded batch of
        its frames; errors raised there (missing video, malformed
        request) surface as one error frame.  While a batch goes out in
        one uncopied :meth:`_send`, the bridge already pulls the next,
        so the answer's decode runs ahead of the socket writes; once
        frames flow, a failure travels as an in-band error frame too —
        the framing keeps the connection reusable either way.
        """
        run, admitted = _entry(header.get("op"))
        if admitted and not self.gauges.try_enter():
            await self._send_error(writer, _BUSY)
            return
        frames = None
        prefetch = None
        try:
            frames, batch, done = await self._bridge_call(
                _open, run, self, header, payload
            )
            while True:
                prefetch = None if done else self._bridge_call(_pull, frames)
                await self._send(
                    writer, [buffer for frame in batch for buffer in frame]
                )
                if prefetch is None:
                    break
                batch, done = await prefetch
                prefetch = None
        except BaseException:
            # Let an in-flight prefetch finish before closing the
            # frames under it; its result is discarded.
            if prefetch is not None:
                with contextlib.suppress(BaseException):
                    await prefetch
            if frames is not None:
                frames.close()
            raise
        finally:
            if admitted:
                self.gauges.leave()
