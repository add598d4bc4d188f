"""The VSS binary service: length-prefixed frames over an asyncio loop.

:class:`VSSBinaryServer` is the throughput-oriented peer of the HTTP
:class:`repro.server.http.VSSServer`.  Both front the same
:class:`repro.core.engine.VSSEngine` and answer ``read`` /
``read_batch`` / ``write`` with the same frames — request decoding and
frame building live in :mod:`repro.core.wire` — so this module is
transport only.  Where the HTTP server burns one thread and one
connection per request, the binary server:

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
  decode, catalog IO), prefetching the next batch of chunks while the
  current one goes out, so blocking storage code never stalls the loop.

A connection carries any number of sequential requests: the client
sends one ``FRAME_REQUEST`` and reads that request's response frames
(one ``FRAME_REPLY``, or a stream of segment/GOP frames ending in
``FRAME_END``/``FRAME_ERROR``) before sending the next.  Engine errors
travel as ``FRAME_ERROR`` envelopes and leave the connection usable;
framing errors (bad length prefix, unknown frame type, truncated frame)
answer with a :class:`WireError` envelope and close only that
connection — never the server.

Admission control matches the HTTP server: heavy operations (read,
read_batch, write) take a :class:`ServiceGauges` slot or are rejected
immediately with a ``ServerBusyError`` envelope carrying the same
``retry_after`` hint as HTTP 429 + ``Retry-After``; the queue-depth
gauges are served by the ``metrics`` op (the ``/metrics`` equivalent).

Only the payload-carrying ops (``read``, ``read_batch``, ``write``) have
handlers here; every other ``"op"`` value is an entry of the service-op
table in :mod:`repro.core.ops`, run by one generic handler.
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
from repro.core.ops import OPS, Op, physical_to_dict
from repro.core.wire import (
    FRAME_PING,
    FRAME_PONG,
    FRAME_REPLY,
    FRAME_REQUEST,
    batch_frames,
    check_frame_length,
    chunk_frame,
    decode_read,
    decode_read_batch,
    decode_write,
    encode_frame,
    error_frame,
    parse_frame,
    stream_end_frame,
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


#: Chunk-batch bounds for one bridge round-trip.  Every loop<->thread
#: hop costs a wakeup on both sides (and GIL churn under load), so the
#: stream is drained in bounded batches rather than chunk-at-a-time:
#: small reads finish in a single hop, large reads stay O(batch)
#: resident instead of O(read).
_PULL_MAX_CHUNKS = 8
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


def _pull_chunks(stream) -> tuple[list, bool]:
    """Drain up to one bounded batch of chunks on a bridge thread.

    Returns ``(chunks, exhausted)``.
    """
    chunks: list = []
    nbytes = 0
    while len(chunks) < _PULL_MAX_CHUNKS and nbytes < _PULL_MAX_BYTES:
        try:
            chunk = next(stream)
        except StopIteration:
            return chunks, True
        chunks.append(chunk)
        nbytes += chunk.nbytes
    return chunks, False


def _open_and_pull(session, spec):
    """Open a read stream and pull its first batch in one bridge hop."""
    stream = session.read_stream(spec)
    try:
        chunks, done = _pull_chunks(stream)
    except BaseException:
        stream.close()
        raise
    return stream, chunks, done


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
            op = header.get("op")
            try:
                handler = self._OPS.get(op)
                if handler is not None:
                    await handler(self, writer, header, payload)
                elif op in OPS:
                    await self._op_unary(writer, OPS[op], header)
                else:
                    # Frame boundaries are intact: answer and keep serving.
                    raise WireError(f"unknown op {op!r}")
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

    async def _send_reply(self, writer, result: dict) -> None:
        await self._send(writer, encode_frame(FRAME_REPLY, result))

    async def _send_error(
        self, writer, exc: BaseException, best_effort: bool = False
    ) -> None:
        try:
            await self._send(writer, error_frame(exc))
        except (ConnectionError, TimeoutError):
            if not best_effort:
                raise

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    async def _op_unary(self, writer, op: Op, header: dict) -> None:
        """Any op of the service table: one bridge hop, one REPLY frame.

        The request header doubles as the op's params (its ``"op"`` key
        is just one more name the op does not look at).
        """
        if op.admitted and not self.gauges.try_enter():
            await self._send_error(writer, _BUSY)
            return
        try:
            reply = await self._bridge_call(op, self, header)
        finally:
            if op.admitted:
                self.gauges.leave()
        await self._send_reply(writer, reply)

    async def _op_write(self, writer, header, payload) -> None:
        spec, segment = decode_write(header, payload)
        if not self.gauges.try_enter():
            await self._send_error(writer, _BUSY)
            return
        try:
            physical = await self._bridge_call(
                self.engine.write, spec, segment=segment
            )
        finally:
            self.gauges.leave()
        await self._send_reply(writer, physical_to_dict(physical))

    async def _op_read(self, writer, header, payload) -> None:
        spec = decode_read(header)
        if not self.gauges.try_enter():
            await self._send_error(writer, _BUSY)
            return
        stream = None
        prefetch = None
        try:
            # Errors raised before any chunk exists (missing video,
            # empty logical) surface as one error frame; once streaming
            # starts, failures travel as an in-band error frame too —
            # the framing keeps the connection reusable either way.
            stream, chunks, done = await self._bridge_call(
                _open_and_pull, self.session, spec
            )
            while True:
                # Prefetch the next batch while this one goes out: the
                # bridge thread decodes ahead of the socket writes.
                prefetch = (
                    None if done else self._bridge_call(_pull_chunks, stream)
                )
                # One vectored write per batch: every frame of the
                # batch (and, on the last one, the END frame) leaves in
                # a single _send, uncopied.
                buffers: list = []
                for chunk in chunks:
                    buffers.extend(chunk_frame(chunk))
                if prefetch is None:
                    buffers.extend(stream_end_frame(stream.stats))
                    await self._send(writer, buffers)
                    break
                await self._send(writer, buffers)
                chunks, done = await prefetch
                prefetch = None
        except BaseException:
            # Let an in-flight prefetch finish before closing the
            # stream under it; its result is discarded.
            if prefetch is not None:
                with contextlib.suppress(BaseException):
                    await prefetch
            if stream is not None:
                stream.close()
            raise
        finally:
            self.gauges.leave()

    async def _op_read_batch(self, writer, header, payload) -> None:
        specs = decode_read_batch(header)
        if not self.gauges.try_enter():
            await self._send_error(writer, _BUSY)
            return
        try:
            results, batch = await self._bridge_call(
                self.engine.read_batch, specs
            )
            for buffers in batch_frames(results, batch):
                await self._send(writer, buffers)
        finally:
            self.gauges.leave()

    #: The payload-carrying ops; everything else lives in ``OPS``.
    _OPS = {
        "write": _op_write,
        "read": _op_read,
        "read_batch": _op_read_batch,
    }
