"""Both transports, one body: what a client sees must not depend on the wire.

Every test here runs twice — a ``VSSServer`` with a ``VSSClient``, and a
``VSSBinaryServer`` with a ``VSSBinaryClient`` — over real sockets on an
ephemeral port.  The headline contract is the acceptance criterion:
answers are bit-identical to an in-process ``session.read`` for the same
spec (raw streams, re-encoded output, direct-served bytes), and the
client-side accounting (``stats.failures``, ``busy_retries_used``) is
the same whichever transport carried the calls.  What only one
transport has (HTTP status codes, frame fuzzing, pool hygiene) stays in
``test_server.py`` / ``test_binary_server.py``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.client import VSSBinaryClient, VSSClient
from repro.core.engine import VSSEngine
from repro.core.specs import ReadSpec
from repro.core.wire import FRAME_END, FRAME_SEGMENT, read_spec_to_dict
from repro.errors import ReadError, ServerBusyError, VideoNotFoundError
from repro.server import VSSBinaryServer, VSSServer
from repro.video.codec.container import encode_container

TRANSPORTS = {
    "http": (VSSServer, VSSClient),
    "binary": (VSSBinaryServer, VSSBinaryClient),
}


@pytest.fixture(params=sorted(TRANSPORTS))
def transport(request) -> str:
    return request.param


@pytest.fixture()
def engine(tmp_path, calibration) -> VSSEngine:
    eng = VSSEngine(tmp_path / "store", calibration=calibration)
    yield eng
    eng.close()


@pytest.fixture()
def server(engine, transport):
    with TRANSPORTS[transport][0](engine=engine) as srv:
        yield srv


@pytest.fixture()
def connect(server, transport):
    """Open clients of the transport under test; closed at teardown."""
    opened = []

    def open_client(**kwargs):
        kwargs.setdefault("timeout", 30.0)
        opened.append(TRANSPORTS[transport][1](*server.address, **kwargs))
        return opened[-1]

    yield open_client
    for client in opened:
        client.close()


@pytest.fixture()
def client(connect):
    return connect()


def _load(client, clip):
    client.write("traffic", clip, codec="h264", qp=10, gop_size=30)
    return client


@pytest.fixture()
def loaded_client(client, three_second_clip):
    return _load(client, three_second_clip)


def _gop_bytes(gops) -> bytes:
    return b"".join(encode_container(g) for g in gops)


def _wait_idle(client, timeout: float = 5.0) -> dict:
    """Poll the metrics op until no handler holds an admission slot.

    The slot is released a hair after the client sees the last byte (the
    handler is still finishing its last write), so gauge assertions poll.
    """
    deadline = time.monotonic() + timeout
    while True:
        doc = client.metrics()
        if doc["server"]["inflight"] == 0 or time.monotonic() > deadline:
            return doc
        time.sleep(0.01)


class TestCatalog:
    def test_delete_missing_raises_not_found(self, client):
        with pytest.raises(VideoNotFoundError) as info:
            client.delete("ghost")
        assert info.value.name == "ghost"

    def test_video_stats(self, loaded_client):
        stats = loaded_client.video_stats("traffic")
        assert stats["num_gops"] == 3
        assert stats["total_bytes"] > 0


class TestReads:
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

    def test_direct_serve(self, loaded_client, engine):
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
        local = engine.read(specs[0])
        results = loaded_client.read_batch(specs)
        assert len(results) == 3
        assert np.array_equal(
            results[0].segment.pixels, local.segment.pixels
        )
        assert loaded_client.stats.last_batch.num_reads == 3
        assert loaded_client.stats.last_batch.gops_shared > 0

    def test_session_defaults_mirror(self, connect, three_second_clip):
        client = connect(codec="h264", qp=10, gop_size=30)
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

    def test_unknown_default_rejected(self, transport):
        with pytest.raises(TypeError):
            TRANSPORTS[transport][1]("127.0.0.1", 1, bogus=True)


class TestAdmissionControl:
    def test_busy_rejection_carries_retry_after(self, loaded_client, server):
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

    def test_gauges_track_inflight(
        self, loaded_client, server, transport, raw_answer
    ):
        _wait_idle(loaded_client)
        # A tiny receive window forces the server to block in its
        # backpressure path mid-stream — the upscaled raw response
        # (10 MB) is larger than any send buffer the kernel will grow —
        # so the admission slot is observably held while the stream is
        # in flight.
        spec = ReadSpec(
            "traffic", 0.0, 3.0, codec="raw", cache=False,
            resolution=(256, 144),
        )
        answer = raw_answer(
            transport, server.address, "read",
            {"spec": read_spec_to_dict(spec)}, rcvbuf=4096,
        )
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            metrics = loaded_client.metrics()["server"]
            if metrics["inflight"] == 1:
                break
            time.sleep(0.01)
        assert metrics["inflight"] == 1
        assert metrics["max_inflight"] == server.gauges.max_inflight
        # Drain the stream; the slot is released at the END frame.
        *chunks, end = answer.frames()
        assert len(chunks) > 1
        assert {frame[0] for frame in chunks} == {FRAME_SEGMENT}
        assert end[0] == FRAME_END
        assert _wait_idle(loaded_client)["server"]["inflight"] == 0

    def test_concurrent_clients_shared_video(self, loaded_client, connect):
        spec = ReadSpec("traffic", 0.0, 1.0, codec="raw", cache=False)
        errors: list = []
        frames: list = []

        def worker():
            try:
                client = connect(timeout=60.0)
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
        assert server["max_inflight"] >= 1
        assert server["rejected"] == 0


class _DiesAfter:
    """A server-side read stream that fails once ``chunks`` were pulled."""

    def __init__(self, stream, chunks: int):
        self._stream = stream
        self._left = chunks

    @property
    def stats(self):
        return self._stream.stats

    def __iter__(self):
        return self

    def __next__(self):
        if self._left == 0:
            raise ReadError("disk on fire")
        self._left -= 1
        return next(self._stream)

    def close(self) -> None:
        self._stream.close()


class TestClientAccounting:
    """``SessionStats`` means the same thing on both transports: a
    failure is counted once, where the call raises to the caller, and a
    busy rejection a retry absorbed shows only in ``busy_retries_used``."""

    SPEC = ReadSpec("traffic", 0.0, 3.0, codec="raw", cache=False)

    def _while_full(self, server, call):
        """Run ``call`` against a full server that frees a slot 0.5 s in
        — inside the first ``Retry-After`` wait (1 s), so exactly one
        rejection is absorbed."""
        saved = server.gauges.max_inflight
        server.gauges.max_inflight = 1
        assert server.gauges.try_enter()
        timer = threading.Timer(0.5, server.gauges.leave)
        timer.start()
        try:
            return call()
        finally:
            timer.cancel()
            timer.join()
            server.gauges.max_inflight = saved

    def test_scripted_sequence_counts_alike(
        self, connect, server, three_second_clip, monkeypatch
    ):
        client = _load(connect(busy_retries=5), three_second_clip)
        _wait_idle(client)

        with pytest.raises(VideoNotFoundError):
            client.read("ghost", 0.0, 1.0)
        with pytest.raises(VideoNotFoundError):
            client.read_batch([self.SPEC.replace(name="ghost")])
        assert client.stats.failures == 2

        # A read, then a batch, each rejected once and retried.
        result = self._while_full(server, lambda: client.read(self.SPEC))
        assert result.segment.num_frames == 90
        _wait_idle(client)
        results = self._while_full(
            server, lambda: client.read_batch([self.SPEC, self.SPEC])
        )
        assert [r.segment.num_frames for r in results] == [90, 90]
        assert client.busy_retries_used == 2
        assert client.stats.failures == 2  # absorbed: not failures

        # An error after the stream began: once per call that raised.
        real = server.session.read_stream
        monkeypatch.setattr(
            server.session, "read_stream",
            lambda spec: _DiesAfter(real(spec), chunks=1),
        )
        with pytest.raises(ReadError, match="disk on fire"):
            list(client.read_stream(self.SPEC))
        with pytest.raises(ReadError, match="disk on fire"):
            client.read(self.SPEC)
        monkeypatch.undo()

        stats = client.stats
        assert (stats.failures, client.busy_retries_used) == (4, 2)
        assert (stats.reads, stats.batches, stats.writes) == (3, 1, 1)
        # The connection (binary) survived every framed error.
        assert client.read(self.SPEC).segment.num_frames == 90

    def test_unabsorbed_busy_is_one_failure(self, connect, server,
                                            three_second_clip):
        client = _load(connect(), three_second_clip)  # busy_retries=0
        _wait_idle(client)
        server.gauges.max_inflight = 1
        assert server.gauges.try_enter()
        try:
            for call in (
                lambda: client.read(self.SPEC),
                lambda: client.read_batch([self.SPEC]),
                lambda: client.write("other", three_second_clip),
            ):
                with pytest.raises(ServerBusyError):
                    call()
        finally:
            server.gauges.leave()
        assert client.stats.failures == 3
        assert client.busy_retries_used == 0
