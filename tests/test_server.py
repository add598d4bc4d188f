"""HTTP service layer: what only the HTTP transport has.

A real ``VSSServer`` runs on an ephemeral port for each test; a
``VSSClient`` talks to it over real sockets.  Reads, batches, admission
and accounting that both transports share are in
``test_transports.py``; here are the REST routes, the status codes and
JSON envelopes of failures before the first frame, and derived views
end to end.
"""

from __future__ import annotations

import json
import time
from http.client import HTTPConnection

import numpy as np
import pytest

from repro.client import VSSClient
from repro.core.engine import VSSEngine
from repro.core.specs import ReadSpec, ViewSpec, WriteSpec
from repro.core.wire import (
    FRAME_REQUEST,
    error_from_dict,
    frame_to_bytes,
    read_spec_to_dict,
)
from repro.errors import (
    CatalogError,
    VideoExistsError,
    VideoNotFoundError,
    WireError,
    WriteError,
)
from repro.server import VSSServer
from repro.video.codec.container import encode_container


@pytest.fixture()
def engine(tmp_path, calibration) -> VSSEngine:
    eng = VSSEngine(tmp_path / "store", calibration=calibration)
    yield eng
    eng.close()


@pytest.fixture()
def server(engine) -> VSSServer:
    with VSSServer(engine=engine) as srv:
        yield srv


@pytest.fixture()
def client(server) -> VSSClient:
    host, port = server.address
    return VSSClient(host, port, timeout=30.0)


@pytest.fixture()
def loaded_client(client, three_second_clip) -> VSSClient:
    client.write(
        "traffic", three_second_clip, codec="h264", qp=10, gop_size=30
    )
    return client


def _gop_bytes(gops) -> bytes:
    return b"".join(encode_container(g) for g in gops)


def _post(client, path: str, body: bytes):
    """POST ``body`` by hand: ``(status, headers, response body)``."""
    conn = HTTPConnection(client.host, client.port, timeout=10)
    try:
        conn.request("POST", path, body=body)
        response = conn.getresponse()
        return response.status, response.headers, response.read()
    finally:
        conn.close()


class TestCatalogOverHTTP:
    def test_create_exists_list_delete(self, client):
        assert client.list_videos() == []
        assert not client.exists("cam0")
        client.create("cam0")
        client.create("cam1")
        assert client.exists("cam0")
        assert client.list_videos() == ["cam0", "cam1"]  # sorted
        client.delete("cam0")
        assert client.list_videos() == ["cam1"]

    def test_names_with_odd_characters(self, client):
        name = "lot 7/cam #2"
        client.create(name)
        assert client.exists(name)
        assert name in client.list_videos()
        client.delete(name)
        assert not client.exists(name)

    def test_route_suffix_names_do_not_collide(self, client, tiny_clip):
        """Names like "stats" or "a/stats" must not be misrouted."""
        for name in ["stats", "a/stats", "metrics"]:
            client.write(name, tiny_clip, codec="raw")
            assert client.exists(name)
            assert client.video_stats(name).num_gops >= 1
        assert client.list_videos() == ["a/stats", "metrics", "stats"]
        for name in ["stats", "a/stats", "metrics"]:
            client.delete(name)
        assert client.list_videos() == []


class TestRouting:
    def test_unknown_route_404(self, client):
        conn = HTTPConnection(client.host, client.port, timeout=10)
        try:
            conn.request("GET", "/nope")
            response = conn.getresponse()
            assert response.status == 404
            assert json.loads(response.read())["error"] == "VSSError"
        finally:
            conn.close()


class TestWriteOverHTTP:
    def test_write_then_read_round_trip(self, client, tiny_clip):
        written = client.write("clip", tiny_clip, codec="raw")
        assert written.codec == "raw"
        back = client.read(
            "clip", 0.0, tiny_clip.duration, codec="raw", cache=False
        )
        assert np.array_equal(back.segment.pixels, tiny_clip.pixels)

    def test_write_spec_object(self, client, tiny_clip):
        spec = WriteSpec("clip2", codec="h264", qp=12, gop_size=12)
        client.write(spec, tiny_clip)
        assert client.exists("clip2")
        assert client.stats.writes == 1

    def test_wire_error_envelope_keeps_class(self, client):
        """A server-sent WireError envelope re-raises as WireError."""
        spec = read_spec_to_dict(ReadSpec("v", 0.0, 1.0))
        status, _, data = _post(
            client, "/v1/read",
            frame_to_bytes(
                FRAME_REQUEST, {"op": "read", "spec": {**spec, "surprise": 1}}
            ),
        )
        assert status == 400
        with pytest.raises(WireError, match="surprise"):
            raise error_from_dict(json.loads(data))

    @pytest.mark.parametrize(
        "body, message",
        [
            (b"no-frame-here", "bad frame length prefix"),
            (frame_to_bytes(FRAME_REQUEST, {"op": "write"})[:-2],
             "not one whole frame"),
            (frame_to_bytes(FRAME_REQUEST, {"op": "write"}) + b"junk",
             "not one whole frame"),
            (frame_to_bytes(FRAME_REQUEST, {"op": "write"}),
             "op 'write' requires 'spec'"),
            (frame_to_bytes(FRAME_REQUEST, {"op": "read"}),
             "takes a request frame for op 'write'"),
            (b'{"spec": {}}\n', "bad frame length prefix"),  # the old framing
        ],
    )
    def test_corrupt_write_frame_rejected(self, client, body, message):
        status, _, data = _post(client, "/v1/write", body)
        assert status == 400
        envelope = json.loads(data)
        assert envelope["error"] == "WireError"
        assert message in envelope["message"]
        assert isinstance(error_from_dict(envelope), WireError)

    def test_failures_before_the_first_frame_are_http_errors(
        self, loaded_client, server
    ):
        """404 / 400 / 429 + ``Retry-After`` with the JSON envelope — for
        reads and batches alike; only a started answer carries frames."""
        def request(op, name):
            spec = read_spec_to_dict(ReadSpec(name, 0.0, 1.0))
            params = {"spec": spec} if op == "read" else {"specs": [spec]}
            return frame_to_bytes(FRAME_REQUEST, {"op": op, **params})

        for op in ("read", "read_batch"):
            status, _, data = _post(
                loaded_client, f"/v1/{op}", request(op, "ghost")
            )
            assert status == 404
            assert json.loads(data) == {
                "error": "VideoNotFoundError",
                "message": "logical video 'ghost' does not exist",
                "name": "ghost",
            }
            status, _, data = _post(loaded_client, f"/v1/{op}", b"\x00" * 9)
            assert status == 400
            assert json.loads(data)["error"] == "WireError"
        # A handler releases its slot a hair after its client saw the
        # response; wait for idle before pinning the window.
        deadline = time.monotonic() + 5.0
        while server.gauges.inflight and time.monotonic() < deadline:
            time.sleep(0.01)
        server.gauges.max_inflight = 1
        assert server.gauges.try_enter()
        try:
            for op in ("read", "read_batch", "write"):
                status, headers, data = _post(
                    loaded_client, f"/v1/{op}", request(op, "traffic")
                )
                assert status == 429
                assert float(headers["Retry-After"]) >= 1.0
                assert json.loads(data)["error"] == "ServerBusyError"
        finally:
            server.gauges.leave()

    def test_missing_required_param_rejected(self, client):
        """An op request without a required param is a 400 WireError
        naming the op and the param — not a stringified KeyError."""
        conn = HTTPConnection(client.host, client.port, timeout=10)
        try:
            for path, body, message in (
                ("/v1/videos", b"{}", "op 'create' requires 'name'"),
                ("/v1/views", b'{"name": "v"}',
                 "op 'create_view' requires 'spec'"),
                ("/v1/reindex", b"", "op 'reindex' requires 'name'"),
            ):
                conn.request("POST", path, body=body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                envelope = json.loads(response.read())
                assert response.status == 400
                assert envelope == {"error": "WireError", "message": message}
        finally:
            conn.close()
        with pytest.raises(WireError, match="requires 'name'"):
            client._rpc("create", {})
        assert client.list_videos() == []


class TestViewsOverHTTP:
    """Derived views through the service layer: full local/remote parity."""

    def test_create_list_get_delete_view(self, loaded_client):
        spec = ViewSpec(over="traffic", start=0.5, end=2.5,
                        roi=(8, 4, 40, 28))
        created = loaded_client.create_view("crop", spec)
        assert created.name == "crop" and created.over == "traffic"
        assert created.spec == spec
        assert [v.name for v in loaded_client.list_views()] == ["crop"]
        assert loaded_client.get_view("crop").spec == spec
        assert loaded_client.exists("crop")
        assert loaded_client.list_videos() == ["crop", "traffic"]
        assert loaded_client.list_videos(kind="view") == ["crop"]
        assert loaded_client.list_videos(kind="video") == ["traffic"]
        loaded_client.delete("crop")
        assert not loaded_client.exists("crop")
        assert loaded_client.list_views() == []

    def test_view_read_bit_identical_over_http(self, loaded_client, engine):
        """The acceptance criterion, remote edition: HTTP view read ==
        local view read == local hand-composed base read."""
        spec = ViewSpec(over="traffic", start=0.5, end=2.5,
                        roi=(8, 4, 40, 28))
        loaded_client.create_view("crop", spec)
        remote = loaded_client.read("crop", 0.0, 3.0, codec="raw",
                                    cache=False)
        with engine.session() as session:
            local = session.read("crop", 0.0, 3.0, codec="raw", cache=False)
            by_hand = session.read(
                ReadSpec("traffic", 0.5, 2.5, codec="raw",
                         roi=(8, 4, 40, 28), cache=False)
            )
        assert np.array_equal(remote.segment.pixels, local.segment.pixels)
        assert np.array_equal(remote.segment.pixels, by_hand.segment.pixels)
        assert remote.stats.view_chain == ["crop"]

    def test_view_stream_and_encoded_read_over_http(
        self, loaded_client, engine
    ):
        loaded_client.create_view(
            "clip", ViewSpec(over="traffic", start=0.0, end=2.0,
                             codec="h264", qp=12)
        )
        chunks = list(
            loaded_client.read_stream("clip", 0.0, 2.0, cache=False)
        )
        remote_bytes = _gop_bytes(
            [g for c in chunks for g in c.gops]
        )
        with engine.session() as session:
            local = session.read("clip", 0.0, 2.0, cache=False)
        assert remote_bytes == _gop_bytes(local.gops)

    def test_view_stats_over_http(self, loaded_client):
        loaded_client.create_view("crop", ViewSpec(over="traffic",
                                                   roi=(8, 4, 40, 28)))
        loaded_client.read("crop", 0.0, 1.0, codec="raw", cache=False)
        stats = loaded_client.video_stats("crop")
        assert stats.base == "traffic"
        assert stats.depth == 1
        assert stats.reads == 1
        assert stats.base_stats.num_gops >= 3
        assert stats.spec.roi == (8, 4, 40, 28)

    def test_delete_with_dependents_over_http(self, loaded_client):
        loaded_client.create_view("a", ViewSpec(over="traffic"))
        loaded_client.create_view("b", ViewSpec(over="a"))
        with pytest.raises(CatalogError, match="force"):
            loaded_client.delete("traffic")
        loaded_client.delete("traffic", force=True)
        assert loaded_client.list_videos() == []

    def test_view_error_envelopes(self, loaded_client, tiny_clip):
        with pytest.raises(VideoNotFoundError):
            loaded_client.create_view("v", ViewSpec(over="ghost"))
        loaded_client.create_view("v", ViewSpec(over="traffic"))
        with pytest.raises(VideoExistsError):
            loaded_client.create_view("v", ViewSpec(over="traffic"))
        with pytest.raises(WriteError, match="read-only"):
            loaded_client.write("v", tiny_clip, codec="raw")
        with pytest.raises(VideoNotFoundError):
            loaded_client.get_view("ghost")

    def test_views_delete_route_rejects_videos(self, loaded_client):
        """DELETE /v1/views/<name> manages definitions only: a stored
        video must not be deletable (or force-cascaded) through it."""
        conn = HTTPConnection(
            loaded_client.host, loaded_client.port, timeout=10
        )
        try:
            conn.request("DELETE", "/v1/views/traffic?force=1")
            response = conn.getresponse()
            body = response.read()
            assert response.status == 404
        finally:
            conn.close()
        assert loaded_client.exists("traffic")
        with pytest.raises(VideoNotFoundError):
            loaded_client._raise_for_status(response, body)

    def test_second_client_hits_fragments_cached_by_first(
        self, server, three_second_clip
    ):
        """Warm reuse across *clients* through the server: the second
        client's identical view read is direct-served from the fragment
        the first client's read admitted under the base."""
        host, port = server.address
        ingest = VSSClient(host, port, timeout=30.0)
        ingest.write("traffic", three_second_clip, codec="h264", qp=10,
                     gop_size=30)
        ingest.create_view(
            "crop", ViewSpec(over="traffic", start=0.0, end=2.0,
                             roi=(8, 4, 40, 28), codec="h264", qp=10)
        )
        spec = ReadSpec("crop", 0.0, 2.0)  # codec/qp from the view
        first = VSSClient(host, port, timeout=30.0)
        # Remote one-shot reads stream (no admission, by design); a
        # batch read runs engine.read_batch server-side, which *does*
        # admit the transcoded crop under the base logical video.
        [cold] = first.read_batch([spec])
        assert not cold.stats.direct_serve
        # Admission is asynchronous server-side; drain so the second
        # client's warm read deterministically sees the cached fragment.
        server.engine.drain_admissions()
        second = VSSClient(host, port, timeout=30.0)
        warm = second.read(spec)
        assert warm.stats.direct_serve  # stored bytes, zero decode work
        assert warm.stats.frames_decoded == 0
        assert _gop_bytes(warm.gops) == _gop_bytes(cold.gops)
        # A repeat of the *streamed* path also reuses work: through an
        # unpinned view the raw request decodes once, and the repeat
        # pulls its GOP windows from the shared decode cache.
        ingest.create_view(
            "rawcrop", ViewSpec(over="traffic", start=0.0, end=2.0,
                                roi=(8, 4, 40, 28))
        )
        streamed = second.read("rawcrop", 0.0, 2.0, codec="raw",
                               cache=False)
        rewarmed = second.read("rawcrop", 0.0, 2.0, codec="raw",
                               cache=False)
        assert rewarmed.stats.decode_cache_hits >= 1
        assert np.array_equal(
            streamed.segment.pixels, rewarmed.segment.pixels
        )
