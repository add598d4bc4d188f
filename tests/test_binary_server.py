"""Binary service layer: what only the binary transport has.

A real ``VSSBinaryServer`` runs its asyncio loop on an ephemeral port
for each test; a ``VSSBinaryClient`` talks to it over real sockets with
pooled persistent connections.  Reads, batches, admission and
accounting that both transports share are in ``test_transports.py``;
here are the connection pool, the cross-transport pixel check, and
frame fuzzing.  The fuzzing half feeds the server garbage frames (bad
length prefixes, unknown types, truncations, malformed headers) and
asserts each lands as a :class:`WireError` envelope on that connection
only — the server keeps serving everyone else.
"""

from __future__ import annotations

import gc
import socket
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro.client import VSSBinaryClient, VSSClient
from repro.core.engine import VSSEngine
from repro.core.specs import ReadSpec, ViewSpec
from repro.core.wire import (
    FRAME_END,
    FRAME_ERROR,
    FRAME_REPLY,
    FRAME_REQUEST,
    FRAME_SEGMENT,
    error_frame,
    frame_to_bytes,
    parse_frame,
    read_frame,
    read_spec_to_dict,
)
from repro.errors import ServerBusyError, VideoExistsError
from repro.server import VSSBinaryServer, VSSServer
from repro.server.binary import _IOV_MAX, write_vectored
from repro.server.http import RETRY_AFTER_SECONDS


@pytest.fixture()
def engine(tmp_path, calibration) -> VSSEngine:
    eng = VSSEngine(tmp_path / "store", calibration=calibration)
    yield eng
    eng.close()


@pytest.fixture()
def server(engine) -> VSSBinaryServer:
    with VSSBinaryServer(engine=engine) as srv:
        yield srv


@pytest.fixture()
def client(server) -> VSSBinaryClient:
    host, port = server.address
    with VSSBinaryClient(host, port, timeout=30.0) as cli:
        yield cli


@pytest.fixture()
def loaded_client(client, three_second_clip) -> VSSBinaryClient:
    client.write(
        "traffic", three_second_clip, codec="h264", qp=10, gop_size=30
    )
    return client


def _wait_idle(client: VSSBinaryClient, timeout: float = 5.0) -> dict:
    """Poll the metrics op until no handler holds an admission slot."""
    deadline = time.monotonic() + timeout
    while True:
        doc = client.metrics()
        if doc["server"]["inflight"] == 0 or time.monotonic() > deadline:
            return doc
        time.sleep(0.01)


class _RawConnection:
    """A hand-rolled socket for speaking deliberately broken frames."""

    def __init__(self, address: tuple[str, int], rcvbuf: int | None = None):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        if rcvbuf is not None:
            # Before connecting, so the small window is what TCP offers.
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        self.sock.settimeout(30.0)
        self.sock.connect(address)
        self.rfile = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def read_frame(self):
        prefix = self.rfile.read(4)
        if len(prefix) < 4:
            return None  # peer closed
        body = self.rfile.read(int.from_bytes(prefix, "big"))
        return parse_frame(body)

    def closed_by_peer(self) -> bool:
        """True when the server hangs up (EOF) within the timeout."""
        try:
            return self.rfile.read(1) == b""
        except (TimeoutError, OSError):
            return False

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


class TestCatalogOverBinary:
    def test_create_exists_list_delete(self, client):
        client.create("cam0")
        assert client.exists("cam0")
        assert not client.exists("nope")
        assert client.list_videos() == ["cam0"]
        with pytest.raises(VideoExistsError):
            client.create("cam0")
        client.delete("cam0")
        assert client.list_videos() == []


    def test_ping(self, client):
        assert client.ping()


class TestReadsOverBinary:

    def test_raw_read_bit_identical_to_http(self, loaded_client, engine):
        """The acceptance criterion across all three paths at once."""
        spec = ReadSpec(
            "traffic", 0.4, 2.6, codec="raw", cache=False,
            resolution=(32, 18),
        )
        with VSSServer(engine=engine) as http_server:
            host, port = http_server.address
            http_client = VSSClient(host, port, timeout=30.0)
            over_http = http_client.read(spec)
        over_binary = loaded_client.read(spec)
        local = engine.session().read(spec)
        assert np.array_equal(
            over_binary.segment.pixels, local.segment.pixels
        )
        assert np.array_equal(
            over_binary.segment.pixels, over_http.segment.pixels
        )


    def test_early_stream_abandonment_leaves_client_usable(
        self, loaded_client
    ):
        spec = ReadSpec(
            "traffic", 0.0, 3.0, codec="raw", cache=False,
            resolution=(32, 18),
        )
        stream = loaded_client.read_stream(spec)
        next(stream)
        stream.close()  # unread frames in flight: connection is dropped
        # The next call runs on a fresh pooled connection.
        result = loaded_client.read(
            ReadSpec("traffic", 0.0, 1.0, codec="raw", cache=False)
        )
        assert result.segment.num_frames == 30
        _wait_idle(loaded_client)

    def test_connections_are_reused_across_calls(self, loaded_client):
        spec = ReadSpec("traffic", 0.0, 0.5, codec="raw", cache=False)
        for _ in range(5):
            loaded_client.read(spec)
        # Sequential calls drain cleanly and reuse one pooled socket.
        assert len(loaded_client._conns) == 1


class TestViewsOverBinary:
    VIEW = ViewSpec(over="traffic", start=0.5, end=2.5, resolution=(32, 18))

    def test_create_list_get_delete_view(self, loaded_client):
        created = loaded_client.create_view("vw", self.VIEW)
        assert created["name"] == "vw"
        assert created["over"] == "traffic"
        listed = loaded_client.list_views()
        assert [v["name"] for v in listed] == ["vw"]
        got = loaded_client.get_view("vw")
        assert got["spec"] == created["spec"]
        loaded_client.delete("vw")
        assert loaded_client.list_views() == []

    def test_view_read_bit_identical(self, loaded_client, engine):
        loaded_client.create_view("vw", self.VIEW)
        spec = ReadSpec("vw", 0.5, 1.5, codec="raw", cache=False)
        remote = loaded_client.read(spec)
        local = engine.session().read(spec)
        assert np.array_equal(remote.segment.pixels, local.segment.pixels)

    def test_views_resolve_in_list_and_exists(self, loaded_client):
        loaded_client.create_view("vw", self.VIEW)
        assert loaded_client.exists("vw")
        assert "vw" in loaded_client.list_videos()
        assert "vw" not in loaded_client.list_videos("video")


class TestAdmissionControl:

    def test_concurrent_clients_disjoint_videos(
        self, server, tiny_clip
    ):
        host, port = server.address
        with VSSBinaryClient(
            host, port, codec="h264", qp=12, timeout=60.0
        ) as seed:
            for i in range(3):
                seed.write(f"cam{i}", tiny_clip)
        errors: list = []
        shapes: list = []

        def worker(name: str):
            try:
                with VSSBinaryClient(host, port, timeout=60.0) as cli:
                    result = cli.read(name, 0.0, 0.5, codec="raw",
                                      cache=False)
                    shapes.append(result.segment.pixels.shape)
            except Exception as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(f"cam{i}",))
            for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(set(shapes)) == 1  # same clip, three videos

    def test_busy_reply_is_the_error_frame_of_a_busy_error(self, server):
        """A full server's rejection, byte for byte: the envelope
        ``error_frame`` builds for a ``ServerBusyError``, keys in the
        order the binary protocol has always sent them."""
        envelope = {
            "error": "ServerBusyError",
            "message": "too many in-flight requests",
            "retry_after": RETRY_AFTER_SECONDS,
        }
        expected = frame_to_bytes(FRAME_ERROR, envelope)
        assert b"".join(error_frame(ServerBusyError(
            "too many in-flight requests", retry_after=RETRY_AFTER_SECONDS
        ))) == expected
        saved = server.gauges.max_inflight
        server.gauges.max_inflight = 0
        conn = _RawConnection(server.address)
        try:
            spec = ReadSpec("cam", 0.0, 0.5, codec="raw")
            conn.send(frame_to_bytes(
                FRAME_REQUEST, {"op": "read", "spec": read_spec_to_dict(spec)}
            ))
            prefix = conn.rfile.read(4)
            body = conn.rfile.read(int.from_bytes(prefix, "big"))
        finally:
            conn.close()
            server.gauges.max_inflight = saved
        assert prefix + body == expected

    def test_one_shared_client_across_threads(self, loaded_client):
        spec = ReadSpec("traffic", 0.0, 1.0, codec="raw", cache=False)
        errors: list = []

        def worker():
            try:
                assert loaded_client.read(spec).segment.num_frames == 30
            except Exception as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Every connection came back to the pool (bounded by the default).
        assert 1 <= len(loaded_client._conns) <= 4


class TestFrameFuzzing:
    """Garbage on the wire hurts one connection, never the server."""

    def _assert_server_alive(self, server) -> None:
        host, port = server.address
        with VSSBinaryClient(host, port, timeout=10.0) as probe:
            assert probe.ping()

    def test_bad_length_prefix(self, server):
        raw = _RawConnection(server.address)
        try:
            raw.send((2**31).to_bytes(4, "big") + b"\x01junk")
            reply = raw.read_frame()
            assert reply is not None
            frame_type, header, _ = reply
            assert frame_type == FRAME_ERROR
            assert header["error"] == "WireError"
            assert raw.closed_by_peer()
        finally:
            raw.close()
        self._assert_server_alive(server)

    def test_zero_length_prefix(self, server):
        raw = _RawConnection(server.address)
        try:
            raw.send(b"\x00\x00\x00\x00")
            frame_type, header, _ = raw.read_frame()
            assert frame_type == FRAME_ERROR
            assert header["error"] == "WireError"
            assert raw.closed_by_peer()
        finally:
            raw.close()
        self._assert_server_alive(server)

    def test_unknown_frame_type(self, server):
        body = b"\x7f" + (0).to_bytes(4, "big")
        raw = _RawConnection(server.address)
        try:
            raw.send(len(body).to_bytes(4, "big") + body)
            frame_type, header, _ = raw.read_frame()
            assert frame_type == FRAME_ERROR
            assert header["error"] == "WireError"
            assert "unknown frame type" in header["message"]
            assert raw.closed_by_peer()
        finally:
            raw.close()
        self._assert_server_alive(server)

    def test_truncated_frame(self, server):
        wire = frame_to_bytes(FRAME_REQUEST, {"op": "ping"})
        raw = _RawConnection(server.address)
        try:
            raw.send(wire[:-3])  # length prefix promises 3 more bytes
            raw.sock.shutdown(socket.SHUT_WR)
            frame_type, header, _ = raw.read_frame()
            assert frame_type == FRAME_ERROR
            assert header["error"] == "WireError"
            assert "truncated" in header["message"]
        finally:
            raw.close()
        self._assert_server_alive(server)

    def test_malformed_header_json(self, server):
        header = b"!not json!"
        body = b"\x01" + len(header).to_bytes(4, "big") + header
        raw = _RawConnection(server.address)
        try:
            raw.send(len(body).to_bytes(4, "big") + body)
            frame_type, envelope, _ = raw.read_frame()
            assert frame_type == FRAME_ERROR
            assert envelope["error"] == "WireError"
            assert raw.closed_by_peer()
        finally:
            raw.close()
        self._assert_server_alive(server)

    def test_non_request_frame_rejected(self, server):
        raw = _RawConnection(server.address)
        try:
            raw.send(frame_to_bytes(FRAME_END, {}))
            frame_type, header, _ = raw.read_frame()
            assert frame_type == FRAME_ERROR
            assert header["error"] == "WireError"
            assert "expected a request frame" in header["message"]
            assert raw.closed_by_peer()
        finally:
            raw.close()
        self._assert_server_alive(server)

    def test_unknown_op_keeps_connection_open(self, server):
        raw = _RawConnection(server.address)
        try:
            raw.send(frame_to_bytes(FRAME_REQUEST, {"op": "frobnicate"}))
            frame_type, header, _ = raw.read_frame()
            assert frame_type == FRAME_ERROR
            assert header["error"] == "WireError"
            assert "unknown op" in header["message"]
            # Frame boundaries intact: the same connection still works.
            raw.send(frame_to_bytes(FRAME_REQUEST, {"op": "ping"}))
            frame_type, header, _ = raw.read_frame()
            assert frame_type == FRAME_REPLY
            assert header == {"pong": True}
        finally:
            raw.close()

    def test_missing_required_param_keeps_connection_open(self, server):
        """The same WireError the HTTP transport answers with a 400."""
        raw = _RawConnection(server.address)
        try:
            for request, message in (
                ({"op": "create"}, "op 'create' requires 'name'"),
                ({"op": "create_view", "name": "v"},
                 "op 'create_view' requires 'spec'"),
                ({"op": "reindex"}, "op 'reindex' requires 'name'"),
            ):
                raw.send(frame_to_bytes(FRAME_REQUEST, request))
                frame_type, header, _ = raw.read_frame()
                assert frame_type == FRAME_ERROR
                assert header == {"error": "WireError", "message": message}
            raw.send(frame_to_bytes(FRAME_REQUEST, {"op": "ping"}))
            assert raw.read_frame()[0] == FRAME_REPLY
        finally:
            raw.close()

    def test_clean_disconnect_between_frames_is_silent(self, server):
        raw = _RawConnection(server.address)
        raw.send(frame_to_bytes(FRAME_REQUEST, {"op": "ping"}))
        assert raw.read_frame()[0] == FRAME_REPLY
        raw.close()  # between frames: no error, no fuss
        self._assert_server_alive(server)

    def test_fuzz_storm_then_real_traffic(self, loaded_client, server):
        """A burst of junk connections never degrades real clients."""
        for junk in (
            b"\xff\xff\xff\xff",
            b"\x00\x00\x00\x05\x63haos",
            frame_to_bytes(FRAME_REPLY, {"not": "a request"}),
            b"\x00",
        ):
            raw = _RawConnection(server.address)
            try:
                raw.send(junk)
                raw.sock.shutdown(socket.SHUT_WR)
                raw.read_frame()  # drain whatever comes back
            finally:
                raw.close()
        result = loaded_client.read(
            ReadSpec("traffic", 0.0, 1.0, codec="raw", cache=False)
        )
        assert result.segment.num_frames == 30



class _SlowReader:
    """A socket read at most ``piece`` bytes per call, pausing every
    ``every`` calls: a consumer far slower than the server's writes."""

    def __init__(self, sock: socket.socket, piece: int = 16 << 10,
                 every: int = 16, pause: float = 0.002):
        self.sock = sock
        self.piece = piece
        self.every = every
        self.pause = pause
        self.calls = 0

    def read(self, n: int) -> bytes:
        data = bytearray()
        while len(data) < n:
            got = self.sock.recv(n - len(data))
            if not got:
                break
            data += got
        return bytes(data)

    def readinto(self, buffer) -> int:
        self.calls += 1
        if self.calls % self.every == 0:
            time.sleep(self.pause)
        return self.sock.recv_into(memoryview(buffer)[:self.piece])


def _read_request(spec: ReadSpec) -> bytes:
    return frame_to_bytes(
        FRAME_REQUEST, {"op": "read", "spec": read_spec_to_dict(spec)}
    )


def _read_answer(rfile) -> tuple[list, list]:
    """The frame types of one read answer and its pixel payloads."""
    types, pixels = [], []
    while True:
        frame_type, _, payload = read_frame(rfile)
        types.append(frame_type)
        if frame_type != FRAME_SEGMENT:
            return types, pixels
        pixels.append(payload)


def _received(sock: socket.socket) -> bytes:
    """Everything already readable on a non-blocking socket."""
    data = bytearray()
    while True:
        try:
            got = sock.recv(1 << 20)
        except BlockingIOError:
            return bytes(data)
        if not got:
            return bytes(data)
        data += got


class TestSendPath:
    """Replies leave by ``os.writev`` from the answer's own buffers;
    only bytes the kernel refuses are copied, a bounded slice at a time."""

    @pytest.fixture()
    def big(self, engine, large_clip) -> str:
        session = engine.session()
        session.write("big", large_clip, codec="h264", qp=10, gop_size=30)
        engine.drain_admissions()
        return "big"

    def test_reply_allocates_answer_plus_client_copy(self, server, engine, big):
        """A 2-s raw read at the stored resolution holds the server's
        answer and the client's copy, and no joined copy of the reply
        (nor a transport-buffer copy of what the kernel refused)."""
        spec = ReadSpec(big, 0.0, 2.0, codec="raw", cache=False)
        # Warm: the measured read copies decoded GOPs out of the decode
        # cache into its answer and decodes nothing.
        answer = engine.session().read(spec).segment.nbytes
        engine.drain_admissions()
        # The reply is larger than the socket's send buffer and the
        # window is small: the kernel refuses most of it at first.
        raw = _RawConnection(server.address, rcvbuf=64 << 10)
        tracemalloc.start()
        try:
            raw.send(_read_request(spec))
            types, pixels = _read_answer(raw.rfile)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            raw.close()
        assert types[-1] == FRAME_END
        assert sum(payload.nbytes for payload in pixels) == answer
        assert peak <= 2 * answer + (1 << 20), (peak, answer)

    def test_slow_reader_gets_every_reply_in_order(self, server, engine, big):
        specs = [
            ReadSpec(big, 0.0, 2.0, codec="raw", cache=False),
            ReadSpec(big, 0.5, 1.5, codec="raw", cache=False,
                     resolution=(192, 108)),
            ReadSpec(big, 1.0, 2.0, codec="raw", cache=False,
                     pixel_format="yuv420"),
        ]
        session = engine.session()
        expected = [session.read(spec).segment.pixels.tobytes()
                    for spec in specs]
        raw = _RawConnection(server.address, rcvbuf=8 << 10)
        slow = _SlowReader(raw.sock)
        try:
            for spec, want in zip(specs, expected):
                raw.send(_read_request(spec))
                types, pixels = _read_answer(slow)
                assert types[-1] == FRAME_END
                assert b"".join(pixels) == want
        finally:
            raw.close()
        assert slow.calls > len(expected[0]) // slow.piece

    def test_more_buffers_than_iov_max(self):
        buffers = [bytes([i % 251]) * (i % 7) for i in range(2 * _IOV_MAX + 3)]
        writer, reader = socket.socketpair()
        with writer, reader:
            writer.setblocking(False)
            reader.setblocking(False)
            assert write_vectored(writer.fileno(), buffers) == []
            assert _received(reader) == b"".join(buffers)

    def test_zero_length_buffers(self):
        pixels = np.arange(4096, dtype=np.uint8).reshape(16, 256)
        buffers = [b"", b"head", memoryview(pixels), b"", bytearray(b"t")]
        writer, reader = socket.socketpair()
        with writer, reader:
            writer.setblocking(False)
            reader.setblocking(False)
            assert write_vectored(writer.fileno(), buffers) == []
            assert write_vectored(writer.fileno(), [b""]) == []
            assert _received(reader) == b"head" + pixels.tobytes() + b"t"

    def test_refused_tail_is_views_of_the_callers_buffers(self):
        pixels = np.random.default_rng(0).integers(
            0, 256, 8 << 20, dtype=np.uint8
        )
        buffers = [b"prelude", memoryview(pixels), b"end"]
        writer, reader = socket.socketpair()
        with writer, reader:
            writer.setblocking(False)
            reader.setblocking(False)
            tail = write_vectored(writer.fileno(), buffers)
            assert tail  # more than any socket buffer takes at once
            assert any(view.obj is pixels for view in tail)
            sent = _received(reader)
            assert sent + b"".join(tail) == b"".join(buffers)

    def test_closed_peer_raises_connection_error(self):
        writer, reader = socket.socketpair()
        with writer:
            writer.setblocking(False)
            reader.close()
            with pytest.raises(ConnectionError):
                write_vectored(writer.fileno(), [b"frame", b"payload"])

    def test_hangup_mid_reply_is_routine(self, server, engine, big):
        """A reader that vanishes mid-reply costs its connection only:
        the slot comes back, nothing escapes to the event loop."""
        escaped: list = []
        server._loop.call_soon_threadsafe(
            server._loop.set_exception_handler,
            lambda loop, context: escaped.append(context),
        )
        spec = ReadSpec(big, 0.0, 2.0, codec="raw", cache=False)
        raw = _RawConnection(server.address, rcvbuf=4096)
        raw.send(_read_request(spec))
        assert len(raw.rfile.read(1024)) == 1024
        # Unread bytes at close make the kernel reset the connection.
        raw.close()
        with VSSBinaryClient(*server.address, timeout=10.0) as probe:
            assert _wait_idle(probe)["server"]["inflight"] == 0
            assert probe.ping()
        gc.collect()  # an unretrieved task exception reports on collection
        assert escaped == []


class TestServerLifecycle:
    def test_close_is_idempotent(self, engine):
        server = VSSBinaryServer(engine=engine).start()
        server.close()
        server.close()

    def test_close_without_start(self, engine):
        VSSBinaryServer(engine=engine).close()

    def test_requires_exactly_one_source(self, engine, tmp_path):
        with pytest.raises(ValueError):
            VSSBinaryServer()
        with pytest.raises(ValueError):
            VSSBinaryServer(engine=engine, root=tmp_path / "x")

    def test_url_scheme(self, server):
        assert server.url.startswith("vss://")

    def test_clients_fail_fast_after_close(self, engine, calibration):
        server = VSSBinaryServer(engine=engine).start()
        host, port = server.address
        server.close()
        with pytest.raises(OSError):
            VSSBinaryClient(host, port, timeout=2.0).ping()
