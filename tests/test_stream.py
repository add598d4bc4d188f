"""Streaming read handles: bounded memory, bit-identity, lifecycle.

The contracts under test:

* ``session.read_stream(spec)`` yields GOP-sized chunks whose
  concatenation is bit-identical to ``session.read(spec)`` — for raw
  output, pixel-format conversion, fps resampling, ROI/resolution
  changes, re-encoded compressed output (same GOP bytes), and
  direct-served reads (same stored bytes).
* Peak resident frames stay O(GOP window): on a serial store nothing
  decodes ahead of the pull, and no chunk ever approaches the full
  read's size.
* Stream completion updates engine/session counters exactly like a
  one-shot read; early close counts nothing; a delete landing
  mid-stream surfaces as an error on the next pull instead of pinning
  the engine.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.engine import VSSEngine
from repro.core.specs import ReadSpec
from repro.errors import VSSError
from repro.video.codec.container import encode_container


@pytest.fixture()
def serial_engine(tmp_path, calibration) -> VSSEngine:
    """parallelism=1: chunk builds run strictly on demand."""
    eng = VSSEngine(
        tmp_path / "store", calibration=calibration, parallelism=1
    )
    yield eng
    eng.close()


@pytest.fixture()
def loaded(serial_engine, three_second_clip) -> VSSEngine:
    session = serial_engine.session()
    session.write(
        "traffic", three_second_clip, codec="h264", qp=10, gop_size=30
    )
    return serial_engine


def _gop_bytes(gops) -> bytes:
    return b"".join(encode_container(g) for g in gops)


class TestBitIdentity:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"fps": 10.0},
            {"fps": 45.0},
            {"resolution": (32, 18)},
            {"roi": (8, 4, 56, 32)},
            {"pixel_format": "gray"},
            {"pixel_format": "yuv420"},
        ],
    )
    def test_raw_stream_matches_read(self, loaded, overrides):
        session = loaded.session()
        spec = ReadSpec(
            "traffic", 0.1, 2.9, codec="raw", cache=False, **overrides
        )
        full = session.read(spec)
        chunks = list(session.read_stream(spec))
        assert len(chunks) > 1  # actually incremental
        got = np.concatenate([c.segment.pixels for c in chunks], axis=0)
        assert np.array_equal(got, full.segment.pixels)
        # chunk timeline re-assembles the request interval
        assert chunks[0].segment.start_time == full.segment.start_time
        assert sum(c.num_frames for c in chunks) == full.segment.num_frames

    def test_encoded_stream_matches_read_bytes(self, loaded):
        session = loaded.session()
        spec = ReadSpec(
            "traffic", 0.15, 2.85, codec="h264", qp=14, cache=False
        )
        full = session.read(spec)
        assert not full.stats.direct_serve
        streamed = [
            g for c in session.read_stream(spec) for g in c.gops
        ]
        assert _gop_bytes(streamed) == _gop_bytes(full.gops)

    def test_direct_serve_stream_ships_stored_bytes(self, loaded):
        session = loaded.session()
        spec = ReadSpec("traffic", 0.0, 3.0, codec="h264", qp=10, cache=False)
        full = session.read(spec)
        assert full.stats.direct_serve
        stream = session.read_stream(spec)
        chunks = list(stream)
        assert stream.stats.direct_serve
        assert stream.stats.frames_decoded == 0
        assert _gop_bytes(
            [g for c in chunks for g in c.gops]
        ) == _gop_bytes(full.gops)

    def test_collect_equals_read(self, loaded):
        session = loaded.session()
        spec = ReadSpec("traffic", 0.0, 3.0, codec="raw", cache=False)
        full = session.read(spec)
        collected = session.read_stream(spec).collect()
        assert np.array_equal(
            collected.segment.pixels, full.segment.pixels
        )


class TestBoundedMemory:
    def test_serial_stream_is_lazy(self, loaded):
        """On a serial store, pulling chunk k decodes only through k."""
        session = loaded.session()
        spec = ReadSpec("traffic", 0.0, 3.0, codec="raw", cache=False)
        # Cold cache: nothing should be decoded before the first pull.
        loaded.decode_cache.clear()
        stream = session.read_stream(spec)
        assert stream.stats.frames_decoded == 0
        first = next(stream)
        total = 90  # 3 s at 30 fps
        assert first.num_frames < total
        assert stream.stats.frames_decoded < total
        remaining = list(stream)
        assert stream.stats.frames_decoded == total
        assert first.num_frames + sum(
            c.num_frames for c in remaining
        ) == total

    def test_chunk_sizes_are_gop_bounded(self, loaded):
        session = loaded.session()
        spec = ReadSpec("traffic", 0.0, 3.0, codec="raw", cache=False)
        chunks = list(session.read_stream(spec))
        full_bytes = 90 * 36 * 64 * 3
        for chunk in chunks:
            # one stored GOP is 30 frames -> a chunk holds one GOP window
            assert chunk.num_frames <= 30
            assert chunk.nbytes <= full_bytes / 2

    def test_long_read_constant_chunk_size(self, tmp_path, calibration):
        """Chunk size must not grow with read duration (O(GOP window))."""
        from repro.video.frame import blank_segment

        eng = VSSEngine(
            tmp_path / "long", calibration=calibration, parallelism=1
        )
        try:
            rng = np.random.default_rng(11)
            clip = blank_segment(240, 36, 64, fps=30.0)
            clip.pixels[:] = rng.integers(
                0, 256, clip.pixels.shape, dtype=np.uint8
            )
            session = eng.session()
            session.write("cam", clip, codec="h264", qp=10, gop_size=30)
            short = [
                c.num_frames
                for c in session.read_stream(
                    ReadSpec("cam", 0.0, 2.0, codec="raw", cache=False)
                )
            ]
            long = [
                c.num_frames
                for c in session.read_stream(
                    ReadSpec("cam", 0.0, 8.0, codec="raw", cache=False)
                )
            ]
            assert max(long) == max(short)  # window-sized either way
            assert len(long) > len(short)  # more chunks, not bigger ones
        finally:
            eng.close()


class TestLifecycle:
    def test_completion_counts_as_read(self, loaded):
        session = loaded.session()
        spec = ReadSpec("traffic", 0.0, 1.0, codec="raw", cache=False)
        before = loaded.stats()
        stream = session.read_stream(spec)
        assert session.stats.reads == 0
        list(stream)
        after = loaded.stats()
        assert after.reads == before.reads + 1
        assert after.streams == before.streams + 1
        assert session.stats.reads == 1
        assert stream.exhausted
        assert stream.stats.wall_seconds > 0

    def test_early_close_counts_nothing(self, loaded):
        session = loaded.session()
        spec = ReadSpec("traffic", 0.0, 3.0, codec="raw", cache=False)
        before = loaded.stats()
        with session.read_stream(spec) as stream:
            next(stream)
        after = loaded.stats()
        assert after.reads == before.reads
        assert after.streams == before.streams
        assert session.stats.reads == 0
        assert session.stats.failures == 0  # abandoned, not failed
        with pytest.raises(StopIteration):
            next(stream)

    def test_streams_interleave_on_one_video(self, loaded):
        """Per-chunk locking: two streams over one video make progress
        alternately instead of serializing end-to-end."""
        session = loaded.session()
        spec = ReadSpec("traffic", 0.0, 3.0, codec="raw", cache=False)
        a = session.read_stream(spec)
        b = session.read_stream(spec)
        pixels_a, pixels_b = [], []
        for chunk_a, chunk_b in zip(a, b):
            pixels_a.append(chunk_a.segment.pixels)
            pixels_b.append(chunk_b.segment.pixels)
        assert np.array_equal(
            np.concatenate(pixels_a), np.concatenate(pixels_b)
        )

    def test_delete_mid_stream_raises(self, loaded):
        session = loaded.session()
        spec = ReadSpec("traffic", 0.0, 3.0, codec="raw", cache=False)
        loaded.decode_cache.clear()
        stream = session.read_stream(spec)
        next(stream)
        loaded.delete("traffic")
        with pytest.raises((VSSError, FileNotFoundError)):
            for _ in stream:
                pass

    def test_failed_stream_counts_one_failure_never_a_read(self, loaded):
        """A stream that dies after its first chunk is counted as exactly
        one session failure (both servers serve reads through
        ``session.read_stream``, so this is what ``/metrics`` sees), and
        pulling again must not complete it as a successful read."""
        session = loaded.session()
        spec = ReadSpec("traffic", 0.0, 3.0, codec="raw", cache=False)
        loaded.decode_cache.clear()
        before = loaded.stats()
        stream = session.read_stream(spec)
        next(stream)
        loaded.delete("traffic")
        with pytest.raises((VSSError, FileNotFoundError)):
            for _ in stream:
                pass
        # retrying the dead stream raises StopIteration, not success
        with pytest.raises(StopIteration):
            next(stream)
        assert loaded.stats().reads == before.reads
        assert loaded.stats().streams == before.streams
        assert session.stats.reads == 0
        assert session.stats.failures == 1
        session.close()
        assert loaded.stats().failures == before.failures + 1

    def test_spec_required(self, loaded):
        with pytest.raises(TypeError):
            loaded.read_stream("traffic")

    def test_missing_video_fails_at_open(self, serial_engine):
        session = serial_engine.session()
        with pytest.raises(VSSError):
            session.read_stream(ReadSpec("ghost", 0.0, 1.0))
        assert session.stats.failures == 1


class TestParallelStream:
    def test_parallel_stream_matches_serial(self, tmp_path, calibration,
                                            three_second_clip):
        serial = VSSEngine(
            tmp_path / "s1", calibration=calibration, parallelism=1
        )
        parallel = VSSEngine(
            tmp_path / "s4", calibration=calibration, parallelism=4
        )
        try:
            for eng in (serial, parallel):
                eng.session().write(
                    "v", three_second_clip, codec="h264", qp=10, gop_size=30
                )
            spec = ReadSpec("v", 0.2, 2.8, codec="raw", cache=False)
            a = np.concatenate(
                [c.segment.pixels for c in serial.session().read_stream(spec)]
            )
            b = np.concatenate(
                [c.segment.pixels
                 for c in parallel.session().read_stream(spec)]
            )
            assert np.array_equal(a, b)
        finally:
            serial.close()
            parallel.close()

    def test_streamed_transcode_fans_out_like_read(
        self, tmp_path, calibration, three_second_clip, monkeypatch
    ):
        # A streamed hevc window re-encodes block by block; every block
        # must go through the same executor fan-out as the one-shot read
        # and produce the same three GOPs' bytes.
        from repro.video.codec.blockcodec import BlockCodec

        engine = VSSEngine(
            tmp_path / "p2", calibration=calibration, parallelism=2
        )
        seen = []
        encode_segment = BlockCodec.encode_segment

        def recording(self, *args, **kwargs):
            seen.append(kwargs.get("executor"))
            return encode_segment(self, *args, **kwargs)

        try:
            session = engine.session()
            session.write(
                "v", three_second_clip, codec="h264", qp=10, gop_size=30
            )
            engine.drain_admissions()
            spec = ReadSpec(
                "v", 0.15, 2.85, codec="hevc", qp=14, cache=False
            )
            monkeypatch.setattr(BlockCodec, "encode_segment", recording)
            full = session.read(spec)
            stream = session.read_stream(spec)
            streamed = [g for chunk in stream for g in chunk.gops]
        finally:
            engine.close()
        assert len(full.gops) == 3
        assert b"".join(p for g in streamed for p in g.payloads) == (
            b"".join(p for g in full.gops for p in g.payloads)
        )
        assert len(seen) == 1 + 3 and all(e is engine.executor for e in seen)
        assert stream.stats.codec_frames_encoded == (
            full.stats.codec_frames_encoded
        ) == 81


class TestNoAliasingOfCachedPixels:
    """The reader pastes from *views* of decode-cache entries; what a
    caller gets back must share no memory with them, or scribbling on an
    answer would corrupt every later read of that GOP."""

    SPECS = {
        "full": ReadSpec("traffic", 0.0, 2.0, codec="raw", cache=False),
        "half": ReadSpec(
            "traffic", 0.0, 2.0, codec="raw", resolution=(32, 18), cache=False
        ),
    }

    @staticmethod
    def _answers(session, how: str, spec: ReadSpec) -> list[np.ndarray]:
        if how == "read":
            return [session.read(spec).segment.pixels]
        if how == "read_stream":
            return [chunk.segment.pixels for chunk in session.read_stream(spec)]
        return [r.segment.pixels for r in session.read_batch([spec, spec])]

    @pytest.mark.parametrize("how", ["read", "read_stream", "read_batch"])
    @pytest.mark.parametrize("size", ["full", "half"])
    def test_answers_share_no_memory_with_the_decode_cache(
        self, loaded, how, size
    ):
        session = loaded.session()
        spec = self.SPECS[size]
        self._answers(session, how, spec)  # warm: decodes into the cache
        cache = loaded.decode_cache
        assert len(cache) > 0
        misses = cache.stats.misses
        answers = self._answers(session, how, spec)
        assert cache.stats.misses == misses  # served from cached pixels
        cached = [segment.pixels for _, segment in cache._entries.values()]
        for pixels in answers:
            assert not any(np.shares_memory(pixels, entry) for entry in cached)
        digest = hashlib.sha256(b"".join(p.tobytes() for p in answers))
        for pixels in answers:
            pixels[...] = 255 - pixels
        again = self._answers(session, how, spec)
        assert hashlib.sha256(
            b"".join(p.tobytes() for p in again)
        ).hexdigest() == digest.hexdigest()
