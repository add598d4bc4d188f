"""Parallel GOP pipeline and decoded-GOP cache.

The contract under test: ``parallelism > 1`` produces byte-identical GOPs
and pixel-identical segments to the serial path, and the decode cache
serves repeated reads without re-decoding while staying coherent across
eviction, compaction, and deferred compression.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.engine import VSSEngine
from repro.core.decode_cache import DecodeCache
from repro.core.executor import Executor
from repro.video.codec.registry import codec_for
from repro.video.frame import blank_segment


# ----------------------------------------------------------------------
# executor
# ----------------------------------------------------------------------
class TestExecutor:
    def test_serial_runs_inline(self):
        executor = Executor(parallelism=1)
        thread_ids = []
        executor.map(lambda _: thread_ids.append(threading.get_ident()), range(4))
        assert set(thread_ids) == {threading.get_ident()}
        assert executor._pool is None  # no pool ever created

    def test_pool_is_lazy(self):
        executor = Executor(parallelism=4)
        assert executor._pool is None
        executor.map(lambda x: x, [1])  # single item: still inline
        assert executor._pool is None
        executor.map(lambda x: x, [1, 2])
        assert executor._pool is not None
        executor.shutdown()
        assert executor._pool is None

    def test_map_preserves_order(self):
        executor = Executor(parallelism=4)
        try:
            assert executor.map(lambda x: x * x, range(20)) == [
                x * x for x in range(20)
            ]
        finally:
            executor.shutdown()

    def test_map_propagates_exceptions(self):
        executor = Executor(parallelism=4)

        def boom(x):
            if x == 3:
                raise ValueError("x=3")
            return x

        try:
            with pytest.raises(ValueError):
                executor.map(boom, range(8))
        finally:
            executor.shutdown()

    def test_invalid_parallelism(self):
        with pytest.raises(ValueError):
            Executor(parallelism=0)

    def test_submit_and_map_from_a_worker_run_inline(self):
        # One rule for both entry points: work handed over *from* a pool
        # worker runs on that worker.  With both workers occupied by
        # tasks that submit and wait, queued subtasks would never start.
        executor = Executor(parallelism=2)

        def nested(_):
            inner = executor.submit(threading.get_ident)
            mapped = executor.map(lambda _: threading.get_ident(), [0, 1])
            assert inner.done()
            return threading.get_ident(), inner.result(), mapped

        try:
            outer = [executor.submit(nested, k) for k in range(2)]
            for future in outer:
                worker, inner, mapped = future.result(timeout=30)
                assert worker != threading.get_ident()
                assert inner == worker and set(mapped) == {worker}
        finally:
            executor.shutdown()
        # Nested work is counted like any other (read after the join: a
        # pooled task is counted by its done-callback).
        assert executor.tasks_completed == 2 + 2 + 4

    def test_submit_mirrors_exceptions_when_inline(self):
        executor = Executor(parallelism=1)
        future = executor.submit(lambda: 1 // 0)
        with pytest.raises(ZeroDivisionError):
            future.result()


# ----------------------------------------------------------------------
# bit-exactness of the parallel pipeline
# ----------------------------------------------------------------------
class TestParallelBitExact:
    @pytest.mark.parametrize("codec_name", ["h264", "raw"])
    def test_parallel_encode_matches_serial(self, tiny_clip, codec_name):
        codec = codec_for(codec_name)
        serial = codec.encode_segment(tiny_clip, qp=10, gop_size=8)
        executor = Executor(parallelism=4)
        try:
            parallel = codec.encode_segment(
                tiny_clip, qp=10, gop_size=8, executor=executor
            )
        finally:
            executor.shutdown()
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert a.frame_types == b.frame_types
            assert a.start_time == b.start_time
            assert a.payloads == b.payloads

    def test_parallel_store_matches_serial_store(
        self, tmp_path, calibration, three_second_clip
    ):
        results = {}
        for par in (1, 4):
            with VSSEngine(
                tmp_path / f"p{par}", calibration=calibration, parallelism=par
            ) as engine:
                session = engine.session()
                session.write(
                    "traffic", three_second_clip, codec="h264", qp=10, gop_size=30
                )
                raw = session.read("traffic", 0.4, 2.3)
                encoded = session.read(
                    "traffic", 0.0, 2.0, codec="h264", cache=False
                )
                results[par] = (raw.segment.pixels, encoded.gops)
        pixels_1, gops_1 = results[1]
        pixels_4, gops_4 = results[4]
        assert np.array_equal(pixels_1, pixels_4)
        assert len(gops_1) == len(gops_4)
        for a, b in zip(gops_1, gops_4):
            assert a.payloads == b.payloads
            assert a.frame_types == b.frame_types

    def test_streaming_append_parallel_matches_serial(
        self, tmp_path, calibration, tiny_clip
    ):
        payloads = {}
        for par in (1, 4):
            with VSSEngine(
                tmp_path / f"s{par}", calibration=calibration, parallelism=par
            ) as engine:
                with engine.open_write_stream(
                    "cam", "h264", "rgb", tiny_clip.width, tiny_clip.height,
                    tiny_clip.fps, qp=12, gop_size=8,
                ) as stream:
                    stream.append(tiny_clip)
                logical = engine.catalog.get_logical("cam")
                original = engine.catalog.original_physical(logical.id)
                gops = engine.catalog.gops_of_physical(original.id)
                payloads[par] = [
                    engine.layout.read_gop(g.path).payloads
                    for g in gops
                ]
        assert payloads[1] == payloads[4]


# ----------------------------------------------------------------------
# decode cache unit behaviour
# ----------------------------------------------------------------------
class TestDecodeCache:
    def _segment(self, frames=8):
        return blank_segment(frames, 4, 4, fps=30.0, fill=7)

    def test_prefix_reuse(self):
        cache = DecodeCache(capacity_bytes=1 << 20)
        cache.put(1, 8, self._segment(8))
        hit = cache.get(1, 5)
        assert hit is not None and hit.num_frames == 5
        assert cache.get(1, 8).num_frames == 8
        assert cache.get(1, 9) is None  # longer than the cached prefix
        assert cache.stats.hits == 2 and cache.stats.misses == 1

    def test_shorter_prefix_never_replaces_longer(self):
        cache = DecodeCache(capacity_bytes=1 << 20)
        cache.put(1, 8, self._segment(8))
        cache.put(1, 3, self._segment(3))
        assert cache.get(1, 8) is not None

    def test_lru_eviction_by_bytes(self):
        one = self._segment(4)
        cache = DecodeCache(capacity_bytes=one.nbytes * 2)
        cache.put(1, 4, self._segment(4))
        cache.put(2, 4, self._segment(4))
        cache.get(1, 4)  # make gop 1 most recent
        cache.put(3, 4, self._segment(4))
        assert 1 in cache and 3 in cache and 2 not in cache
        assert cache.stats.evictions == 1
        assert cache.current_bytes <= cache.capacity_bytes

    def test_peek_counts_nothing_and_keeps_lru_order(self):
        one = self._segment(4)
        cache = DecodeCache(capacity_bytes=one.nbytes * 2)
        cache.put(1, 4, self._segment(4))
        cache.put(2, 4, self._segment(4))
        assert cache.peek(1, 3).num_frames == 3
        assert cache.peek(1, 4) is not None
        assert cache.peek(1, 5) is None and cache.peek(9, 1) is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 0)
        cache.put(3, 4, self._segment(4))  # gop 1 is still the oldest
        assert 1 not in cache and 2 in cache
        assert DecodeCache(capacity_bytes=0).peek(1, 1) is None

    def test_invalidate(self):
        cache = DecodeCache(capacity_bytes=1 << 20)
        cache.put(1, 4, self._segment(4))
        cache.invalidate(1)
        assert 1 not in cache
        assert cache.current_bytes == 0
        assert cache.stats.invalidations == 1

    def test_disabled_cache(self):
        cache = DecodeCache(capacity_bytes=0)
        cache.put(1, 4, self._segment(4))
        assert cache.get(1, 4) is None
        assert len(cache) == 0


# ----------------------------------------------------------------------
# decode cache through the store
# ----------------------------------------------------------------------
class TestDecodeCacheIntegration:
    def test_repeated_read_hits(self, loaded_store):
        first = loaded_store.read("traffic", 0.4, 1.6, cache=False)
        assert first.stats.decode_cache_misses > 0
        again = loaded_store.read("traffic", 0.4, 1.6, cache=False)
        assert again.stats.decode_cache_hits > 0
        assert again.stats.decode_cache_misses == 0
        assert again.stats.frames_decoded == 0
        assert again.stats.bytes_read == 0
        assert np.array_equal(first.segment.pixels, again.segment.pixels)
        stats = loaded_store.engine.stats()
        assert stats.decode_cache_hits > 0
        assert 0.0 < stats.decode_cache_hit_rate < 1.0
        assert stats.decode_cache_bytes > 0

    def test_lookback_prefix_serves_shorter_read(self, loaded_store):
        # Decode deep into the first GOP, then read a shorter window of it.
        loaded_store.read("traffic", 0.0, 0.9, cache=False)
        shorter = loaded_store.read("traffic", 0.2, 0.6, cache=False)
        assert shorter.stats.decode_cache_hits == 1
        assert shorter.stats.frames_decoded == 0

    def test_disabled_via_knob(self, tmp_path, calibration, tiny_clip):
        with VSSEngine(
            tmp_path / "nocache", calibration=calibration, decode_cache_bytes=0
        ) as engine:
            session = engine.session()
            session.write("v", tiny_clip, codec="h264", qp=10, gop_size=8)
            session.read("v", 0.0, 0.5, cache=False)
            second = session.read("v", 0.0, 0.5, cache=False)
            assert second.stats.decode_cache_hits == 0
            # A disabled cache records neither hits nor misses.
            assert second.stats.decode_cache_misses == 0
            assert second.stats.frames_decoded > 0

    def test_eviction_invalidates(self, loaded_store):
        logical = loaded_store.engine.catalog.get_logical("traffic")
        # Populate the decode cache from cached (non-original) physicals.
        loaded_store.read("traffic", 0.0, 3.0, cache=True)
        loaded_store.engine.drain_admissions()
        loaded_store.read("traffic", 0.0, 3.0, cache=True)
        loaded_store.engine.drain_admissions()
        assert len(loaded_store.engine.decode_cache) > 0
        loaded_store.engine.set_budget("traffic", 1)  # force eviction of everything evictable
        report = loaded_store.engine.cache.enforce_budget(logical)
        assert report.evicted_gop_ids
        for gid in report.evicted_gop_ids:
            assert gid not in loaded_store.engine.decode_cache
        # Reads still serve correct pixels from what survived.
        result = loaded_store.read("traffic", 0.5, 1.5, cache=False)
        assert result.segment.num_frames > 0

    def test_compaction_invalidates(self, loaded_store):
        # Two contiguous transcoded reads admit mergeable cached physicals.
        loaded_store.read(
            "traffic", 0.0, 1.5, codec="h264", resolution=(32, 18), cache=True
        )
        loaded_store.read(
            "traffic", 1.5, 3.0, codec="h264", resolution=(32, 18), cache=True
        )
        loaded_store.engine.drain_admissions()
        logical = loaded_store.engine.catalog.get_logical("traffic")
        cached_ids = [
            g.id
            for p in loaded_store.engine.catalog.list_physicals(logical.id)
            if not p.is_original
            for g in loaded_store.engine.catalog.gops_of_physical(p.id)
        ]
        # Read the cached variants so their decodes populate the cache.
        loaded_store.read(
            "traffic", 0.0, 3.0, codec="h264", resolution=(32, 18), cache=False
        )
        before = loaded_store.engine.decode_cache.stats.invalidations
        merges = loaded_store.engine.compact("traffic")
        assert merges > 0
        moved = [
            gid for gid in cached_ids if gid not in loaded_store.engine.decode_cache
        ]
        assert loaded_store.engine.decode_cache.stats.invalidations >= before
        assert moved  # at least the reassigned GOPs dropped out
        # Post-compaction reads still decode correctly.
        result = loaded_store.read(
            "traffic", 0.0, 3.0, codec="h264", resolution=(32, 18), cache=False
        )
        assert result is not None

    def test_delete_invalidates_before_rowid_reuse(
        self, tmp_path, calibration
    ):
        # A delete drops the video's decoded prefixes: no decode-cache
        # entry may serve the deleted video's pixels to a later one.
        with VSSEngine(tmp_path / "s", calibration=calibration) as engine:
            session = engine.session()
            clip_a = blank_segment(16, 36, 64, fps=30.0, fill=200)
            clip_b = blank_segment(16, 36, 64, fps=30.0, fill=30)
            session.write("a", clip_a, codec="raw", gop_size=8)
            session.read("a", 0.0, 0.5, cache=False)  # warm the decode cache
            engine.delete("a")
            session.write("b", clip_b, codec="raw", gop_size=8)
            result = session.read("b", 0.0, 0.5, cache=False)
            assert int(result.segment.pixels.mean()) == 30

    @staticmethod
    def _store_for(rewrite, session, tiny_clip):
        """Write the videos ``rewrite`` needs; returns a read of them."""
        if rewrite == "joint_pair":
            from repro.synthetic import visualroad

            clips = visualroad("1K", overlap=0.5, num_frames=10).videos(0, 10)
            for name, clip in zip(("v", "w"), clips):
                session.write(name, clip, codec="h264", qp=10, gop_size=5)
            return lambda: [
                session.read(name, 0.0, 1 / 3, codec="raw", cache=False)
                for name in ("v", "w")
            ]
        if rewrite == "retile":
            session.write("v", tiny_clip, codec="h264", qp=10, gop_size=8)
            session.engine.retile("v", rows=2, cols=2)
            return lambda: [
                session.read("v", 0.0, 0.8, roi=(4, 4, 28, 16), cache=False)
            ]
        session.write("v", tiny_clip, codec="raw", gop_size=8)
        return lambda: [session.read("v", 0.0, 0.8, cache=False)]

    @staticmethod
    def _rewrite(rewrite, engine) -> None:
        if rewrite == "joint_pair":
            from repro.jointcomp import JointCompressionManager

            report = JointCompressionManager(engine, merge="mean").optimize()
            assert report.pairs_compressed
        elif rewrite == "retile":
            engine.retile("v", rows=1, cols=2)
        else:
            logical = engine.catalog.get_logical("v")
            assert engine.deferred.compress_one(logical) is not None

    @pytest.mark.parametrize(
        "rewrite", ["deferred_compression", "retile", "joint_pair"]
    )
    def test_rewritten_pages_are_invalidated(
        self, tmp_path, calibration, tiny_clip, rewrite
    ):
        """A page rewritten in place (deferred compression), dropped with
        its tile group (re-tile) or repointed at a joint pair leaves the
        decode cache; reads still give the same answer."""
        with VSSEngine(tmp_path / "rewrite", calibration=calibration) as engine:
            session = engine.session()
            read = self._store_for(rewrite, session, tiny_clip)
            first = read()

            def pages():
                return {
                    g.id: g
                    for name in engine.catalog.list_names("video")
                    for g in engine.catalog.gops_of_logical(
                        engine.catalog.get_logical(name).id
                    )
                }

            before = pages()
            cached = {gid for gid in before if gid in engine.decode_cache}
            self._rewrite(rewrite, engine)
            after = pages()
            rewritten = {
                gid
                for gid, gop in before.items()
                if gid not in after
                or (gop.zstd_level, gop.joint_pair_id)
                != (after[gid].zstd_level, after[gid].joint_pair_id)
            }
            assert rewritten & cached
            assert not any(gid in engine.decode_cache for gid in rewritten)
            for old, new in zip(first, read()):
                if rewrite == "joint_pair":  # a lossy reconstruction
                    assert new.segment.pixels.shape == old.segment.pixels.shape
                else:
                    assert np.array_equal(new.segment.pixels, old.segment.pixels)


# ----------------------------------------------------------------------
# satellite API cleanups
# ----------------------------------------------------------------------
class TestPublicSurfaces:
    def test_stream_writer_properties(self, tmp_path, calibration, tiny_clip):
        with VSSEngine(tmp_path / "s", calibration=calibration) as engine:
            stream = engine.open_write_stream(
                "cam", "h264", "rgb", tiny_clip.width, tiny_clip.height,
                tiny_clip.fps, qp=12, gop_size=8,
            )
            inner = stream._stream
            assert not inner.closed
            assert not inner.has_data
            stream.append(tiny_clip)
            assert inner.has_data
            stream.close()
            assert inner.closed

    def test_hooked_stream_exit_without_data(self, tmp_path, calibration):
        with VSSEngine(tmp_path / "s", calibration=calibration) as engine:
            with engine.open_write_stream(
                "cam", "h264", "rgb", 64, 36, 30.0, qp=12
            ):
                pass  # no data appended: __exit__ must not try to seal
