"""Codec fast-path observability across every access path.

The stage counters of the GOP-batched decode, and the recurrence /
entropy / frame counters of the two-stage encode, must be visible (a)
per read in ``ReadStats``, (b) store-wide in ``EngineStats`` and both
servers' ``/metrics`` documents, and (c) cluster-wide in the router's
rolled-up ``codec`` section — with the pixels themselves byte-identical
across local session, HTTP service, binary service, and routed reads on
a tiled store.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.client import VSSBinaryClient, VSSClient
from repro.cluster import VSSRouter
from repro.core.engine import VSSEngine
from repro.core.specs import ReadSpec
from repro.server.binary import VSSBinaryServer
from repro.server.http import VSSServer

#: An ROI inside the top-left tile of a 2x2 grid over 64x36 frames.
_ROI = (4, 2, 28, 16)

#: A window unaligned with the stored GOPs in another codec: answered by
#: re-encoding 18 frames, never by a direct serve.
_TRANSCODE = ReadSpec("cam", 0.1, 0.7, codec="hevc", qp=14, cache=False)

_CODEC_METRIC_KEYS = (
    "codec_entropy_seconds",
    "codec_transform_seconds",
    "codec_compensate_seconds",
    "codec_frames_decoded",
    "codec_decoded_bytes",
    "codec_decode_mb_per_s",
    "codec_encode_recurrence_seconds",
    "codec_encode_entropy_seconds",
    "codec_frames_encoded",
)


@pytest.fixture()
def engine(tmp_path, calibration):
    eng = VSSEngine(
        tmp_path / "store",
        calibration=calibration,
        decode_cache_bytes=0,
    )
    yield eng
    eng.close()


def _load(engine, tiny_clip, name="cam"):
    engine.create(name)
    with engine.session() as session:
        session.write(name, tiny_clip, codec="h264", qp=10, gop_size=8)


class TestReadStatsCodecCounters:
    def test_compressed_read_populates_stage_counters(
        self, engine, tiny_clip
    ):
        _load(engine, tiny_clip)
        result = engine.read(ReadSpec("cam", 0.0, 0.8, cache=False))
        stats = result.stats
        assert stats.codec_entropy_seconds > 0.0
        assert stats.codec_transform_seconds > 0.0
        assert stats.codec_compensate_seconds > 0.0
        assert stats.codec_decoded_bytes > 0
        assert stats.decode_mb_per_s > 0.0
        assert stats.codec_decode_seconds == pytest.approx(
            stats.codec_entropy_seconds
            + stats.codec_transform_seconds
            + stats.codec_compensate_seconds
        )

    def test_cache_served_read_attributes_nothing(
        self, tmp_path, calibration, tiny_clip
    ):
        eng = VSSEngine(tmp_path / "cached", calibration=calibration)
        try:
            _load(eng, tiny_clip)
            spec = ReadSpec("cam", 0.0, 0.8)
            first = eng.read(spec)
            assert first.stats.codec_decode_seconds > 0.0
            eng.drain_admissions()
            second = eng.read(spec)
            # The repeat read is served from cached work (the decode
            # cache or an admitted raw physical): either way no
            # compressed decode ran, so the codec stage counters must
            # not inflate.
            assert second.stats.codec_decode_seconds == 0.0
            assert second.stats.codec_decoded_bytes == 0
            assert second.stats.decode_mb_per_s == 0.0
        finally:
            eng.close()

    def test_engine_stats_roll_up_across_reads(self, engine, tiny_clip):
        _load(engine, tiny_clip)
        first = engine.read(ReadSpec("cam", 0.0, 0.4, cache=False))
        second = engine.read(ReadSpec("cam", 0.4, 0.8, cache=False))
        stats = engine.stats()
        assert stats.codec_frames_decoded == (
            first.stats.frames_decoded + second.stats.frames_decoded
        )
        assert stats.codec_decoded_bytes == (
            first.stats.codec_decoded_bytes
            + second.stats.codec_decoded_bytes
        )
        total = (
            stats.codec_entropy_seconds
            + stats.codec_transform_seconds
            + stats.codec_compensate_seconds
        )
        assert total == pytest.approx(
            first.stats.codec_decode_seconds
            + second.stats.codec_decode_seconds
        )
        assert stats.codec_decode_mb_per_s == pytest.approx(
            stats.codec_decoded_bytes / 1e6 / total
        )


class TestReadStatsEncodeCounters:
    def test_transcoding_read_populates_encode_counters(
        self, engine, tiny_clip
    ):
        _load(engine, tiny_clip)
        stats = engine.read(_TRANSCODE).stats
        assert not stats.direct_serve
        assert stats.codec_frames_encoded == 18
        assert stats.codec_encode_recurrence_seconds > 0.0
        assert stats.codec_encode_entropy_seconds > 0.0

    def test_raw_and_direct_serve_reads_encode_nothing(
        self, engine, tiny_clip
    ):
        _load(engine, tiny_clip)
        raw = engine.read(ReadSpec("cam", 0.0, 0.8, cache=False))
        direct = engine.read(
            ReadSpec("cam", 0.0, 0.8, codec="h264", qp=10, cache=False)
        )
        assert direct.stats.direct_serve
        for stats in (raw.stats, direct.stats):
            assert stats.codec_frames_encoded == 0
            assert stats.codec_encode_recurrence_seconds == 0.0
            assert stats.codec_encode_entropy_seconds == 0.0

    def test_engine_stats_roll_up_reads_and_streams(self, engine, tiny_clip):
        _load(engine, tiny_clip)
        spec = ReadSpec("cam", 0.1, 0.7, codec="h264", qp=20, cache=False)
        read = engine.read(spec)
        stream = engine.read_stream(spec)
        for _ in stream:
            pass
        stats = engine.stats()
        assert stream.stats.codec_frames_encoded == 18
        assert stats.codec_frames_encoded == 36
        assert stats.codec_encode_recurrence_seconds == pytest.approx(
            read.stats.codec_encode_recurrence_seconds
            + stream.stats.codec_encode_recurrence_seconds
        )
        assert stats.codec_encode_entropy_seconds == pytest.approx(
            read.stats.codec_encode_entropy_seconds
            + stream.stats.codec_encode_entropy_seconds
        )


class TestTransportParityTiledStore:
    """Same bytes, same counters, on every access path to a tiled store."""

    @pytest.fixture()
    def specs(self):
        return [
            ReadSpec("cam", 0.0, 0.8, cache=False),
            ReadSpec("cam", 0.0, 0.8, roi=_ROI, cache=False),
        ]

    def test_http_and_binary_parity_with_codec_metrics(
        self, engine, tiny_clip, specs
    ):
        _load(engine, tiny_clip)
        baseline = [engine.read(s).as_segment().pixels for s in specs]
        engine.retile("cam", rows=2, cols=2)
        with VSSServer(engine=engine) as http_server:
            with VSSClient(*http_server.address) as http:
                for spec, expect in zip(specs, baseline):
                    result = http.read(spec)
                    assert np.array_equal(result.segment.pixels, expect)
                full = http.read(specs[0])
                assert full.stats.codec_decode_seconds > 0.0
                assert full.stats.decode_mb_per_s > 0.0
                transcoded = http.read(_TRANSCODE)
                assert transcoded.stats.codec_frames_encoded == 18
                assert transcoded.stats.codec_encode_entropy_seconds > 0.0
                metrics = http.metrics()
        engine_doc = metrics["engine"]
        for key in _CODEC_METRIC_KEYS:
            assert key in engine_doc
        assert engine_doc["codec_frames_decoded"] > 0
        assert engine_doc["codec_decode_mb_per_s"] > 0.0
        assert engine_doc["codec_frames_encoded"] == 18
        assert engine_doc["codec_encode_recurrence_seconds"] > 0.0
        with VSSBinaryServer(engine=engine) as bin_server:
            with VSSBinaryClient(*bin_server.address) as binary:
                for spec, expect in zip(specs, baseline):
                    result = binary.read(spec)
                    assert np.array_equal(result.segment.pixels, expect)
                full = binary.read(specs[0])
                assert full.stats.codec_decode_seconds > 0.0
                assert binary.read(_TRANSCODE).stats.codec_frames_encoded == 18
                bin_metrics = binary.metrics()
        assert bin_metrics["engine"]["codec_frames_decoded"] > 0
        assert bin_metrics["engine"]["codec_frames_encoded"] == 36

    def test_router_parity_and_codec_rollup(
        self, tmp_path, calibration, tiny_clip, specs
    ):
        shard_engine = VSSEngine(
            tmp_path / "shard0",
            calibration=calibration,
            decode_cache_bytes=0,
        )
        try:
            _load(shard_engine, tiny_clip)
            baseline = [
                shard_engine.read(s).as_segment().pixels for s in specs
            ]
            shard_engine.retile("cam", rows=2, cols=2)
            with VSSBinaryServer(engine=shard_engine) as shard:
                addr = f"{shard.address[0]}:{shard.address[1]}"
                router = VSSRouter([addr], probe_interval=30.0).start()
                try:
                    with VSSBinaryClient(*router.address) as client:
                        for spec, expect in zip(specs, baseline):
                            result = client.read(spec)
                            assert np.array_equal(
                                result.segment.pixels, expect
                            )
                        client.read(_TRANSCODE)
                    rolled = router.engine.stats()["codec"]
                    for key in _CODEC_METRIC_KEYS:
                        assert key in rolled
                    assert rolled["codec_frames_encoded"] == 18
                    assert rolled["codec_encode_recurrence_seconds"] > 0.0
                    assert rolled["codec_encode_entropy_seconds"] > 0.0
                    assert rolled["codec_frames_decoded"] > 0
                    assert rolled["codec_decoded_bytes"] > 0
                    assert rolled["codec_decode_mb_per_s"] > 0.0
                finally:
                    router.close()
        finally:
            shard_engine.close()
