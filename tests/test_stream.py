"""Streaming read handles: bounded memory, bit-identity, lifecycle.

The contracts under test:

* ``session.read_stream(spec)`` yields GOP-sized chunks whose
  concatenation is bit-identical to ``session.read(spec)`` — for raw
  output, pixel-format conversion, fps resampling, ROI/resolution
  changes, re-encoded compressed output (same GOP bytes), and
  direct-served reads (same stored bytes).
* ``read`` is the same stream drained: on equally fresh engines both
  report the same ``ReadStats`` (timings aside) and make the same
  encoder calls, one per block of up to four output GOPs.
* Peak resident frames stay O(GOP window): on a serial store nothing
  decodes ahead of the pull, and no chunk ever approaches the full
  read's size.
* Stream completion updates engine/session counters exactly like a
  one-shot read; early close counts nothing.
* A stream keeps the snapshot it planned: it takes its video's lock
  once, to plan, then leases every file the plan reads, so an
  eviction, compaction, deferred compression, re-tile, joint pairing or
  delete landing mid-stream changes nothing it returns; ``check()``
  lists the files it keeps under ``pending`` until it ends (or the
  engine closes), and then they are gone.
* A plan-cached read derives nothing from its plan again, builds its
  chunks on the calling thread when every window it reads is cached
  (on the pool otherwise), and concurrent reads sharing one cached plan
  give what a lone read gives.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import threading

import numpy as np
import pytest

from repro.core.engine import VSSEngine
from repro.core.reader import Reader
from repro.core.specs import ReadSpec
from repro.errors import ReadError, VSSError
from repro.jointcomp import JointCompressionManager
from repro.synthetic import visualroad
from repro.video.codec.container import encode_container
from repro.video.frame import VideoSegment


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


#: What ``engine.check()`` reports on a clean store.
CLEAN = {"orphans": [], "dangling": [], "mismatched": [], "pending": []}


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
        """Lock-free pulls: two streams over one video make progress
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

    def test_delete_mid_stream_finishes_the_snapshot(self, loaded):
        """A stream whose video is deleted after its first pull returns
        the rest of what it planned and counts one read; the video's
        files go when it ends."""
        session = loaded.session()
        spec = ReadSpec("traffic", 0.0, 3.0, codec="raw", cache=False)
        expected = session.read(spec).segment.pixels
        loaded.decode_cache.clear()
        reads = loaded.stats().reads
        stream = session.read_stream(spec)
        first = next(stream)
        loaded.delete("traffic")
        assert loaded.check()["pending"]
        rest = stream.collect()
        assert np.array_equal(
            np.concatenate([first.segment.pixels, rest.segment.pixels]),
            expected,
        )
        assert loaded.stats().reads == reads + 1
        assert loaded.check() == CLEAN
        assert not (loaded.layout.root / "videos" / "traffic").exists()

    def test_eviction_between_pulls_reads_the_planned_pages(self, loaded):
        """Pages evicted between two pulls stay until the stream ends:
        it reads what it planned, then they are swept."""
        session = loaded.session()
        session.read("traffic", 0.0, 3.0, codec="raw")  # admits raw pages
        loaded.drain_admissions()
        spec = ReadSpec("traffic", 0.0, 3.0, codec="raw", cache=False)
        expected = session.read(spec).segment.pixels
        loaded.decode_cache.clear()
        stream = session.read_stream(spec)
        raw = [
            g
            for c in stream.plan.choices
            if c.fragment.physical.codec == "raw"
            for g in c.fragment.gops
        ]
        assert raw  # planned from the cached raw fragment
        pixels = [next(stream).segment.pixels]
        loaded.set_budget("traffic", 1)
        evicted = loaded.enforce_budget("traffic").evicted_gop_ids
        assert {g.id for g in raw} <= set(evicted)
        assert loaded.check()["pending"] == sorted(g.path for g in raw)
        pixels += [chunk.segment.pixels for chunk in stream]
        assert np.array_equal(np.concatenate(pixels), expected)
        assert loaded.check() == CLEAN
        root = loaded.layout.root
        assert not any((root / g.path).exists() for g in raw)

    def test_pages_compressed_between_pulls_read_the_same(
        self, serial_engine, three_second_clip
    ):
        """Deferred compression rewrites a page under its own path, so a
        stream planned before the rewrite still reads every page."""
        session = serial_engine.session()
        session.write("traffic", three_second_clip, codec="raw", gop_size=30)
        spec = ReadSpec("traffic", 0.0, 3.0, codec="raw", cache=False)
        expected = session.read(spec).segment.pixels
        serial_engine.decode_cache.clear()
        stream = session.read_stream(spec)
        pixels = [next(stream).segment.pixels]
        logical = serial_engine.catalog.get_logical("traffic")
        with serial_engine._locked("traffic"):
            while serial_engine.deferred.compress_one(logical) is not None:
                pass
        assert all(
            g.zstd_level > 0
            for g in serial_engine.catalog.gops_of_logical(logical.id)
        )
        pixels += [chunk.segment.pixels for chunk in stream]
        assert np.array_equal(np.concatenate(pixels), expected)

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
        # A page removed behind the store's back: no lease keeps it.
        (loaded.layout.root / stream.plan.choices[0].fragment.gops[1].path).unlink()
        with pytest.raises(ReadError, match=r"GOP \d+ \(videos/"):
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
        """Every engine read entry rejects a bare name alike."""
        for call in (
            lambda: loaded.read_stream("traffic"),
            lambda: loaded.read("traffic"),
            lambda: loaded.read_batch(["traffic"]),
        ):
            with pytest.raises(TypeError, match="take a ReadSpec, got str"):
                call()

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
        # A 3-GOP hevc window is one encoder pass on either path: one
        # ``encode_segment`` call on the engine's executor, same bytes.
        engine = VSSEngine(
            tmp_path / "p2", calibration=calibration, parallelism=2
        )
        try:
            session = engine.session()
            session.write(
                "v", three_second_clip, codec="h264", qp=10, gop_size=30
            )
            engine.drain_admissions()
            spec = ReadSpec(
                "v", 0.15, 2.85, codec="hevc", qp=14, cache=False
            )
            calls = _record_encodes(monkeypatch)
            full = session.read(spec)
            read_calls = list(calls)
            calls.clear()
            stream = session.read_stream(spec)
            streamed = [g for chunk in stream for g in chunk.gops]
        finally:
            engine.close()
        assert len(full.gops) == 3
        assert _gop_bytes(streamed) == _gop_bytes(full.gops)
        assert read_calls == calls == [(81, engine.executor)]
        assert stream.stats.codec_frames_encoded == (
            full.stats.codec_frames_encoded
        ) == 81

    def test_long_transcode_encodes_in_lockstep_blocks(
        self, serial_engine, three_second_clip, monkeypatch
    ):
        """Five output GOPs encode as one 4-GOP block plus one 1-GOP
        block on both paths, one stream chunk per block."""
        clip = VideoSegment(
            np.concatenate([three_second_clip.pixels] * 2), "rgb", 36, 64,
            fps=30.0,
        )
        session = serial_engine.session()
        session.write("v", clip, codec="h264", qp=10, gop_size=30)
        serial_engine.drain_admissions()
        spec = ReadSpec("v", 0.0, 5.0, codec="hevc", qp=14, cache=False)
        calls = _record_encodes(monkeypatch)
        full = session.read(spec)
        read_frames = [frames for frames, _ in calls]
        calls.clear()
        chunks = list(session.read_stream(spec))
        assert read_frames == [frames for frames, _ in calls] == [120, 30]
        assert [len(chunk.gops) for chunk in chunks] == [4, 1]
        assert _gop_bytes(
            [g for chunk in chunks for g in chunk.gops]
        ) == _gop_bytes(full.gops)


def _record_encodes(monkeypatch) -> list[tuple]:
    """Record ``(frames, executor)`` of every ``encode_segment`` call."""
    from repro.video.codec.blockcodec import BlockCodec

    calls = []
    encode_segment = BlockCodec.encode_segment

    def recording(self, segment, *args, **kwargs):
        calls.append((segment.num_frames, kwargs.get("executor")))
        return encode_segment(self, segment, *args, **kwargs)

    monkeypatch.setattr(BlockCodec, "encode_segment", recording)
    return calls


class TestStatsParity:
    """``read`` is ``read_stream`` drained: on equally fresh engines the
    two report the same stats, timings aside."""

    SPECS = {
        "direct": ReadSpec("traffic", 0.0, 3.0, codec="h264", qp=10),
        "raw_rgb": ReadSpec("traffic", 0.1, 2.9, codec="raw"),
        "raw_yuv420_half": ReadSpec(
            "traffic", 0.1, 2.9, codec="raw", pixel_format="yuv420",
            resolution=(32, 18),
        ),
        "h264_roi": ReadSpec(
            "traffic", 0.0, 2.0, codec="h264", qp=14, roi=(8, 4, 56, 32)
        ),
        "hevc_unaligned": ReadSpec("traffic", 0.15, 2.85, codec="hevc", qp=14),
    }
    UNTIMED = {"wall_seconds", "plan_cached"}

    @classmethod
    def _untimed(cls, stats) -> dict:
        return {
            name: value
            for name, value in dataclasses.asdict(stats).items()
            if name not in cls.UNTIMED
            and not (name.startswith("codec_") and name.endswith("_seconds"))
        }

    @pytest.mark.parametrize("case", sorted(SPECS))
    def test_read_and_stream_stats_agree(
        self, tmp_path, calibration, three_second_clip, case
    ):
        spec = self.SPECS[case].replace(cache=False)
        stats = {}
        for how in ("read", "read_stream"):
            engine = VSSEngine(
                tmp_path / how, calibration=calibration, parallelism=1
            )
            try:
                session = engine.session()
                session.write(
                    "traffic", three_second_clip, codec="h264", qp=10,
                    gop_size=30,
                )
                engine.drain_admissions()
                if how == "read":
                    stats[how] = session.read(spec).stats
                else:
                    stream = session.read_stream(spec)
                    for _ in stream:
                        pass
                    stats[how] = stream.stats
            finally:
                engine.close()
        assert stats["read"].direct_serve == (case == "direct")
        assert self._untimed(stats["read"]) == self._untimed(
            stats["read_stream"]
        )


class TestReadOnlyAnswers:
    """Every in-process answer is read-only.  A chunk that is one whole
    decoded window is a view of its decode-cache entry (nothing is
    allocated or copied) — at full resolution the native decode, at half
    the GOP's resized entry — so writing through an answer must fail
    rather than corrupt every later read of that GOP."""

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
    def test_answers_are_read_only_and_stay_intact(self, loaded, how, size):
        session = loaded.session()
        spec = self.SPECS[size]
        self._answers(session, how, spec)  # warm: decodes into the cache
        cache = loaded.decode_cache
        assert len(cache) > 0
        misses = cache.stats.misses
        answers = self._answers(session, how, spec)
        assert cache.stats.misses == misses  # served from cached pixels
        cached = [
            entry.segment.pixels
            for entries in (cache._native, cache._resized)
            for entry in entries.values()
        ]
        # A GOP-aligned chunk is its cache entry's frames, at either size
        # (a 2-s read or batch member concatenates two of them); a silent
        # return to copying fails here.
        shares = how == "read_stream"
        for pixels in answers:
            assert not pixels.flags.writeable
            assert pixels.flags.c_contiguous
            assert any(np.shares_memory(pixels, e) for e in cached) is shares
        digest = hashlib.sha256(b"".join(p.tobytes() for p in answers))
        for pixels in answers:
            with pytest.raises(ValueError):
                pixels[...] = 0
        again = self._answers(session, how, spec)
        assert hashlib.sha256(
            b"".join(p.tobytes() for p in again)
        ).hexdigest() == digest.hexdigest()


def _spy(monkeypatch, owner, name: str) -> list:
    """Record every call of ``owner.name`` (its arguments), still
    calling through."""
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


class TestWarmReadsDeriveOnce:
    """What a read derives from its plan alone — the chunk schedule, its
    identity chunks, the windows it reads, a direct serve's records — is
    kept with the plan, so a plan-cached read derives none of it again;
    and a read whose windows are all in the decode cache builds its
    chunks on the calling thread, while one that decodes still hops
    through the pool, one build per chunk, running ahead."""

    SPECS = {
        "raw_mid_gop": ReadSpec("traffic", 0.5, 2.5, codec="raw", cache=False),
        "direct": ReadSpec("traffic", 0.0, 2.0, codec="h264", qp=10, cache=False),
        "hevc": ReadSpec("traffic", 0.15, 2.85, codec="hevc", qp=14, cache=False),
    }

    @pytest.mark.parametrize("case", sorted(SPECS))
    def test_plan_cached_reads_derive_nothing(self, loaded, monkeypatch, case):
        schedules = _spy(monkeypatch, Reader, "_decode_schedule")
        directs = _spy(monkeypatch, Reader, "_direct_serve_records")
        session = loaded.session()
        spec = self.SPECS[case]
        first = session.read(spec)
        derived = (len(schedules), len(directs))
        assert derived == ((0, 1) if case == "direct" else (1, 1))
        again = [
            session.read(spec),
            session.read_stream(spec).collect(),
            *session.read_batch([spec, spec]),
        ]
        assert (len(schedules), len(directs)) == derived
        for result in again:
            assert result.stats.direct_serve == (case == "direct")
            if result.gops is not None:
                assert _gop_bytes(result.gops) == _gop_bytes(first.gops)
            else:
                assert np.array_equal(result.segment.pixels, first.segment.pixels)

    def test_an_append_derives_afresh(self, serial_engine, three_second_clip,
                                      monkeypatch):
        schedules = _spy(monkeypatch, Reader, "_decode_schedule")
        directs = _spy(monkeypatch, Reader, "_direct_serve_records")
        clip = three_second_clip
        stream = serial_engine.open_write_stream(
            "cam", "h264", "rgb", clip.width, clip.height, 30, qp=10,
            gop_size=30,
        )
        session = serial_engine.session()
        spec = ReadSpec("cam", 0.0, 1.0, codec="raw", cache=False)
        stream.append(clip.slice_frames(0, 30))
        before = session.read(spec)
        session.read(spec)
        assert (len(schedules), len(directs)) == (1, 1)
        stream.append(clip.slice_frames(30, 60))  # bumps the data version
        after = session.read(spec)
        assert not after.stats.plan_cached
        assert (len(schedules), len(directs)) == (2, 2)
        assert np.array_equal(after.segment.pixels, before.segment.pixels)
        stream.close()

    def test_only_reads_that_decode_hop_through_the_pool(
        self, tmp_path, calibration, three_second_clip, monkeypatch
    ):
        engine = VSSEngine(
            tmp_path / "p2", calibration=calibration, parallelism=2
        )
        try:
            session = engine.session()
            session.write(
                "traffic", three_second_clip, codec="h264", qp=10, gop_size=30
            )
            engine.drain_admissions()
            submits = _spy(monkeypatch, engine.executor, "submit")
            one_gop = ReadSpec("traffic", 1.0, 2.0, codec="raw", cache=False)
            cold = session.read(one_gop)
            assert cold.stats.decode_cache_misses == 1
            assert len(submits) == 1  # a decode: its build went to the pool
            submits.clear()
            warm = session.read(one_gop)
            assert warm.stats.decode_cache_hits == 1
            assert submits == []  # all hits: built on the caller
            # Three chunks (half of GOP 0, GOP 1, half of GOP 2), two of
            # them decoding: one build each on the pool, running ahead.
            mid_gop = ReadSpec("traffic", 0.5, 2.5, codec="raw", cache=False)
            stream = session.read_stream(mid_gop)
            assert len(list(stream)) == 3
            assert stream.stats.decode_cache_misses == 2
            assert len(submits) == 3
            submits.clear()
            assert session.read(mid_gop).stats.decode_cache_hits == 3
            assert submits == []
        finally:
            engine.close()

    def test_shared_plans_under_threads(self, tmp_path, calibration,
                                        three_second_clip, monkeypatch):
        """Four threads reading three plan-cached specs at once share
        each plan's schedule; every read gives the bytes and stats a
        single thread's read of its spec gives.  Periodic maintenance
        (compaction, the re-tile ROI reads ask for, refinement) would
        rewrite pages mid-run, and so the plans: it is off here."""
        monkeypatch.setattr(
            VSSEngine, "_schedule_maintenance", lambda self, logical: None
        )

        specs = [
            ReadSpec("v", 0.5, 2.5, codec="raw", cache=False),
            ReadSpec("v", 1.0, 2.0, codec="raw", resolution=(32, 18), cache=False),
            ReadSpec("v", 0.25, 1.75, codec="raw", roi=(8, 4, 56, 32), cache=False),
        ]

        def observed(result):
            stats = result.stats
            return (
                hashlib.sha256(result.segment.pixels.tobytes()).hexdigest(),
                stats.decode_cache_hits,
                stats.decode_cache_misses,
                list(stats.gop_ids_touched),
            )

        engine = VSSEngine(
            tmp_path / "threads", calibration=calibration, parallelism=2
        )
        try:
            session = engine.session()
            # Five-frame GOPs: each read carries many windows.
            session.write(
                "v", three_second_clip, codec="h264", qp=10, gop_size=5
            )
            engine.drain_admissions()
            for spec in specs:  # decode, plan, and keep the resized GOPs
                for _ in range(2):
                    session.read(spec)
            expected = [observed(session.read(spec)) for spec in specs]
            assert all(misses == 0 for _, _, misses, _ in expected)
            failures: list = []
            start = threading.Barrier(4)

            def reader(offset: int) -> None:
                own = engine.session()
                start.wait()
                try:
                    for i in range(50):
                        k = (offset + i) % len(specs)
                        result = own.read(specs[k])
                        assert result.stats.plan_cached
                        if observed(result) != expected[k]:
                            failures.append((k, observed(result)))
                except Exception as exc:  # noqa: BLE001 - reported below
                    failures.append(exc)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # interleave the threads densely
            try:
                threads = [
                    threading.Thread(target=reader, args=(n,)) for n in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            finally:
                sys.setswitchinterval(interval)
            assert failures == []
        finally:
            engine.close()


def _answer(chunks) -> bytes:
    """A streamed or read answer as bytes: its pixels or its GOPs."""
    gops = [gop for chunk in chunks if chunk.gops for gop in chunk.gops]
    if gops:
        return _gop_bytes(gops)
    return b"".join(chunk.segment.pixels.tobytes() for chunk in chunks)


class TestLeases:
    """A stream keeps the pages it planned, and pulls without a lock."""

    def test_eviction_under_an_open_stream(
        self, tmp_path, calibration, benchmark_size_clip
    ):
        """The probe: an hevc copy of a 3-s 192x108 clip, a cache=False
        hevc stream over it pulled once, then the copy evicted."""
        engine = VSSEngine(tmp_path / "store", calibration=calibration)
        try:
            session = engine.session()
            session.write("v", benchmark_size_clip, codec="h264", gop_size=30)
            session.read("v", 0.0, 3.0, codec="hevc")
            engine.drain_admissions()
            spec = ReadSpec("v", 0.0, 3.0, codec="hevc", cache=False)
            expected = _gop_bytes(session.read(spec).gops)
            stream = session.read_stream(spec)
            first = next(stream)
            engine.set_budget("v", 1)
            assert engine.enforce_budget("v").evicted_gop_ids
            report = engine.check()
            pending = report.pop("pending")
            assert pending and not any(report.values())
            assert _answer([first, stream.collect()]) == expected
            assert engine.check() == CLEAN
            root = engine.layout.root
            assert not any((root / path).exists() for path in pending)
        finally:
            engine.close()

    def test_held_streams_outlive_every_page_rewrite(
        self, tmp_path, calibration
    ):
        """Streams held open, one chunk pulled, across compaction,
        deferred compression, a re-tile, joint compression and budget
        eviction of the pages they planned: each finishes with its
        unraced answer, no decode of a rewritten GOP goes back into the
        decode cache, and the store is clean after the last ends."""
        left, right = visualroad("1K", overlap=0.5, num_frames=90).videos(0, 90)
        engine = VSSEngine(
            tmp_path / "store", calibration=calibration, parallelism=1
        )
        try:
            session = engine.session()
            for name, clip in (("left", left), ("right", right)):
                session.write(name, clip, codec="h264", qp=10, gop_size=30)
            for start in (0.0, 1.0):  # two contiguous hevc copies
                session.read("left", start, start + 1.0, codec="hevc")
                engine.drain_admissions()
            session.read("right", 0.0, 3.0, codec="raw")  # raw pages
            engine.drain_admissions()
            specs = [
                ReadSpec("left", 0.0, 2.0, codec="hevc", cache=False),
                ReadSpec("left", 0.0, 3.0, codec="raw", cache=False),
                ReadSpec("right", 0.0, 3.0, codec="raw", cache=False),
                ReadSpec(
                    "right", 0.5, 2.5, codec="raw", resolution=(96, 54),
                    cache=False,
                ),
            ]
            expected = [_answer([session.read(spec)]) for spec in specs]
            engine.decode_cache.clear()  # the streams decode after each step
            streams = [session.read_stream(spec) for spec in specs]
            firsts = [next(stream) for stream in streams]
            planned = {
                gop.path
                for stream in streams
                for choice in stream.plan.choices
                for gop in choice.fragment.gops
            }

            assert engine.compact("left") >= 1
            right_video = engine.catalog.get_logical("right")
            with engine._locked("right"):
                assert engine.deferred.compress_one(right_video) is not None
            assert engine.retile("left", rows=2, cols=2) is not None
            report = JointCompressionManager(engine, merge="mean").optimize()
            assert report.pairs_compressed >= 1
            for name in ("left", "right"):
                engine.set_budget(name, 1)
                engine.enforce_budget(name)
            pending = set(engine.check()["pending"])
            assert pending and pending <= planned
            paired = [
                gop.id
                for name in ("left", "right")
                for gop in engine.catalog.gops_of_logical(
                    engine.catalog.get_logical(name).id
                )
                if gop.joint_pair_id is not None
            ]
            assert paired

            for stream, first, want in zip(streams, firsts, expected):
                assert _answer([first, stream.collect()]) == want
            assert not any(gop_id in engine.decode_cache for gop_id in paired)
            engine.drain_admissions()
            assert engine.check() == CLEAN
            root = engine.layout.root
            assert not any((root / path).exists() for path in pending)
        finally:
            engine.close()

    def test_a_drained_one_chunk_stream_takes_one_lock_hold(self, loaded):
        spec = ReadSpec("traffic", 0.0, 1.0, codec="raw", cache=False)
        session = loaded.session()
        session.read(spec)
        before = loaded.stats()
        assert len(list(session.read_stream(spec))) == 1
        after = loaded.stats()
        assert after.lock_shared_acquisitions == (
            before.lock_shared_acquisitions + 1
        )
        assert after.lock_exclusive_acquisitions == (
            before.lock_exclusive_acquisitions
        )

    def test_engine_close_ends_the_leases(self, tmp_path, calibration,
                                          three_second_clip):
        root = tmp_path / "store"
        engine = VSSEngine(root, calibration=calibration, parallelism=1)
        session = engine.session()
        session.write("traffic", three_second_clip, codec="h264", gop_size=30)
        session.read("traffic", 0.0, 3.0, codec="raw")
        engine.drain_admissions()
        stream = session.read_stream(
            ReadSpec("traffic", 0.0, 3.0, codec="raw", cache=False)
        )
        next(stream)
        engine.set_budget("traffic", 1)
        engine.enforce_budget("traffic")
        pending = engine.check()["pending"]
        assert pending
        engine.close()
        assert not any((root / path).exists() for path in pending)
        stream.close()
        with VSSEngine(root, calibration=calibration) as reopened:
            assert reopened.check() == CLEAN

    def test_streams_racing_eviction_and_readmission(
        self, tmp_path, calibration, three_second_clip
    ):
        """Four threads stream one video while a fifth evicts its cached
        copy and admits it again, for about a second with a short switch
        interval: every stream gives the unraced answer, and once all
        have ended nothing is pending and no file is left over."""
        engine = VSSEngine(tmp_path / "store", calibration=calibration)
        try:
            session = engine.session()
            session.write(
                "traffic", three_second_clip, codec="h264", qp=10, gop_size=30
            )
            cached = ReadSpec("traffic", 0.0, 3.0, codec="raw")
            spec = ReadSpec("traffic", 0.0, 3.0, codec="raw", cache=False)
            expected = session.read(spec).segment.pixels.tobytes()
            budget = engine.catalog.get_logical("traffic").budget_bytes
            stop = threading.Event()
            failures: list = []

            def stream_loop() -> None:
                own = engine.session()
                try:
                    while not stop.is_set():
                        chunks = list(own.read_stream(spec))
                        if _answer(chunks) != expected:
                            failures.append("answer differs")
                except Exception as exc:  # noqa: BLE001 - reported below
                    failures.append(exc)

            def churn() -> None:
                own = engine.session()
                try:
                    while not stop.is_set():
                        own.read(cached)
                        engine.drain_admissions()
                        engine.set_budget("traffic", 1)
                        engine.enforce_budget("traffic")
                        engine.set_budget("traffic", budget)
                except Exception as exc:  # noqa: BLE001 - reported below
                    failures.append(exc)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [
                    threading.Thread(target=stream_loop) for _ in range(4)
                ] + [threading.Thread(target=churn)]
                for thread in threads:
                    thread.start()
                stop.wait(1.0)
                stop.set()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
            finally:
                sys.setswitchinterval(interval)
            assert failures == []
            engine.drain_admissions()
            assert engine.check() == CLEAN
        finally:
            engine.close()
