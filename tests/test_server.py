"""HTTP service layer: end-to-end reads, admission control, metrics.

A real ``VSSServer`` runs on an ephemeral port for each test class; a
``VSSClient`` talks to it over real sockets.  The headline contract is
the acceptance criterion: frames read over HTTP are bit-identical to an
in-process ``session.read`` for the same spec — for raw streams,
re-encoded compressed output, and direct-served bytes.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.client import VSSClient
from repro.core.engine import VSSEngine
from repro.core.specs import ReadSpec, ViewSpec, WriteSpec
from repro.core.wire import error_from_dict
from repro.errors import (
    CatalogError,
    ServerBusyError,
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


def _wait_idle(client: VSSClient, timeout: float = 5.0) -> dict:
    """Poll /metrics until no handler holds an admission slot.

    The slot is released a hair after the client sees the last byte (the
    handler still writes its terminal chunk), so gauge assertions poll.
    """
    deadline = time.monotonic() + timeout
    while True:
        doc = client.metrics()
        if doc["server"]["inflight"] == 0 or time.monotonic() > deadline:
            return doc
        time.sleep(0.01)


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
            assert client.video_stats(name)["num_gops"] >= 1
        assert client.list_videos() == ["a/stats", "metrics", "stats"]
        for name in ["stats", "a/stats", "metrics"]:
            client.delete(name)
        assert client.list_videos() == []

    def test_delete_missing_raises_not_found(self, client):
        with pytest.raises(VideoNotFoundError) as info:
            client.delete("ghost")
        assert info.value.name == "ghost"

    def test_video_stats(self, loaded_client):
        stats = loaded_client.video_stats("traffic")
        assert stats["num_gops"] == 3
        assert stats["total_bytes"] > 0


class TestReadsOverHTTP:
    def test_raw_read_bit_identical(self, loaded_client, engine):
        spec = ReadSpec("traffic", 0.0, 3.0, codec="raw", cache=False)
        remote = loaded_client.read(spec)  # cold: decodes on the server
        local = engine.session().read(spec)
        assert np.array_equal(
            remote.segment.pixels, local.segment.pixels
        )
        assert remote.stats.frames_decoded == 90

    def test_streamed_read_bit_identical(self, loaded_client, engine):
        spec = ReadSpec(
            "traffic", 0.2, 2.8, codec="raw", cache=False,
            resolution=(32, 18),
        )
        stream = loaded_client.read_stream(spec)
        chunks = list(stream)
        local = engine.session().read(spec)
        assert len(chunks) > 1
        got = np.concatenate([c.segment.pixels for c in chunks], axis=0)
        assert np.array_equal(got, local.segment.pixels)
        assert stream.stats is not None  # final server-side stats arrived
        assert stream.stats.frames_decoded > 0

    def test_encoded_read_same_bytes(self, loaded_client, engine):
        spec = ReadSpec("traffic", 0.15, 2.85, codec="h264", qp=14,
                        cache=False)
        local = engine.session().read(spec)
        remote = loaded_client.read(spec)
        assert _gop_bytes(remote.gops) == _gop_bytes(local.gops)
        assert np.array_equal(
            remote.as_segment().pixels, local.as_segment().pixels
        )

    def test_direct_serve_over_http(self, loaded_client, engine):
        spec = ReadSpec("traffic", 0.0, 3.0, codec="h264", qp=10,
                        cache=False)
        local = engine.session().read(spec)
        assert local.stats.direct_serve
        remote = loaded_client.read(spec)
        assert remote.stats.direct_serve
        assert _gop_bytes(remote.gops) == _gop_bytes(local.gops)

    def test_read_batch(self, loaded_client, engine):
        base = ReadSpec("traffic", 0.0, 1.0, codec="raw", cache=False)
        specs = [base, base.replace(start=1.0, end=2.0),
                 base.replace(start=0.5, end=1.5)]
        local = [engine.read(s) for s in [specs[0]]]
        results = loaded_client.read_batch(specs)
        assert len(results) == 3
        assert np.array_equal(
            results[0].segment.pixels, local[0].segment.pixels
        )
        assert loaded_client.stats.last_batch.num_reads == 3
        assert loaded_client.stats.last_batch.gops_shared > 0

    def test_session_defaults_mirror(self, server, three_second_clip):
        host, port = server.address
        client = VSSClient(host, port, codec="h264", qp=10, gop_size=30)
        client.write("cam", three_second_clip)  # defaults applied
        result = client.read("cam", 0.0, 1.0, codec="raw", cache=False)
        assert result.segment.num_frames == 30

    def test_missing_video_raises_not_found(self, client):
        with pytest.raises(VideoNotFoundError):
            client.read("ghost", 0.0, 1.0)
        assert client.stats.failures == 1

    def test_invalid_spec_rejected_client_side(self, client):
        with pytest.raises(ValueError):
            client.read("v", 0.0, float("nan"))

    def test_unknown_default_rejected(self):
        with pytest.raises(TypeError):
            VSSClient("127.0.0.1", 1, bogus=True)


class TestAdmissionControl:
    def test_429_when_full(self, loaded_client, server):
        spec = ReadSpec("traffic", 0.0, 1.0, codec="raw", cache=False)
        # The write handler releases its slot a hair after the client
        # sees the response; wait for idle before pinning the window.
        _wait_idle(loaded_client)
        # Deterministically exhaust the admission slots.
        saved = server.gauges.max_inflight
        server.gauges.max_inflight = 1
        assert server.gauges.try_enter()
        try:
            with pytest.raises(ServerBusyError) as info:
                loaded_client.read(spec)
            assert info.value.retry_after >= 1.0
        finally:
            server.gauges.leave()
            server.gauges.max_inflight = saved
        # Slot released: the same request now succeeds.
        assert loaded_client.read(spec).segment is not None
        assert loaded_client.metrics()["server"]["rejected"] == 1

    def test_gauges_track_inflight(self, loaded_client, server):
        spec = ReadSpec("traffic", 0.0, 3.0, codec="raw", cache=False)
        stream = loaded_client.read_stream(spec)
        next(stream)
        # While the stream is open, its handler holds an admission slot.
        metrics = loaded_client.metrics()["server"]
        assert metrics["inflight"] == 1
        assert metrics["max_inflight"] == server.gauges.max_inflight
        list(stream)
        assert _wait_idle(loaded_client)["server"]["inflight"] == 0

    def test_concurrent_clients_all_served_within_limit(
        self, loaded_client, server, three_second_clip
    ):
        host, port = server.address
        spec = ReadSpec("traffic", 0.0, 1.0, codec="raw", cache=False)
        errors: list = []
        frames: list = []

        def worker():
            try:
                client = VSSClient(host, port, timeout=60.0)
                frames.append(client.read(spec).segment.num_frames)
            except Exception as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert frames == [30, 30, 30, 30]


class TestMetrics:
    def test_metrics_document(self, loaded_client):
        loaded_client.read(
            ReadSpec("traffic", 0.0, 1.0, codec="raw", cache=False)
        )
        doc = _wait_idle(loaded_client)
        assert doc["engine"]["reads"] >= 1
        assert doc["engine"]["streams"] >= 1  # server reads are streams
        assert doc["engine"]["num_logical_videos"] == 1
        server = doc["server"]
        assert server["served"] >= 2  # write + read
        assert server["inflight"] == 0
        assert server["rejected"] == 0

    def test_unknown_route_404(self, client):
        import json
        from http.client import HTTPConnection

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
        reply = client.write("clip", tiny_clip, codec="raw")
        assert reply["codec"] == "raw"
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
        import json
        from http.client import HTTPConnection

        conn = HTTPConnection(client.host, client.port, timeout=10)
        try:
            body = json.dumps(
                {"spec": {"name": "v", "start": 0.0, "end": 1.0,
                          "surprise": 1}}
            ).encode()
            conn.request("POST", "/v1/read", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            data = response.read()
            assert response.status == 400
        finally:
            conn.close()
        with pytest.raises(WireError, match="surprise"):
            client._raise_for_status(response, data)

    def test_corrupt_write_header_rejected(self, client):
        import json
        from http.client import HTTPConnection

        conn = HTTPConnection(client.host, client.port, timeout=10)
        try:
            conn.request(
                "POST", "/v1/write", body=b"no-newline-header",
                headers={"Content-Type": "application/octet-stream"},
            )
            response = conn.getresponse()
            assert response.status == 400
            envelope = json.loads(response.read())
            assert envelope["error"] == "WireError"
        finally:
            conn.close()
        assert isinstance(error_from_dict(envelope), WireError)

    def test_missing_required_param_rejected(self, client):
        """An op request without a required param is a 400 WireError
        naming the op and the param — not a stringified KeyError."""
        import json
        from http.client import HTTPConnection

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
        assert created["name"] == "crop" and created["over"] == "traffic"
        assert ViewSpec.from_dict(created["spec"]) == spec
        assert [v["name"] for v in loaded_client.list_views()] == ["crop"]
        assert ViewSpec.from_dict(
            loaded_client.get_view("crop")["spec"]
        ) == spec
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
        assert stats["base"] == "traffic"
        assert stats["depth"] == 1
        assert stats["reads"] == 1
        assert stats["base_stats"]["num_gops"] >= 3
        assert stats["spec"]["roi"] == [8, 4, 40, 28]

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
        from http.client import HTTPConnection

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
