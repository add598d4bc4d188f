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

import socket
import threading
import time

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
    frame_to_bytes,
    parse_frame,
)
from repro.errors import VideoExistsError
from repro.server import VSSBinaryServer, VSSServer


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

    def __init__(self, address: tuple[str, int]):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
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
