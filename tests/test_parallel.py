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
from repro.core.specs import ReadSpec
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
        cache.put_resized(1, 4, blank_segment(4, 2, 2, fps=30.0), 1.5)
        assert cache.get(1, 4) is None
        assert cache.get_resized(1, 4, (2, 2)) is None
        assert len(cache) == 0

    def test_resized_entries_sit_beside_the_native_one(self):
        cache = DecodeCache(capacity_bytes=1 << 20)
        native = self._segment(8)
        half = blank_segment(8, 2, 2, fps=30.0, fill=9)
        cache.put(1, 8, native)
        cache.put_resized(1, 8, half, 2.5)
        assert len(cache) == 2 and 1 in cache
        assert cache.current_bytes == native.nbytes + half.nbytes
        assert cache.resized_bytes == half.nbytes
        # A resized miss counts nothing (the native get that follows
        # counts it); a hit counts one hit and carries the error.
        assert cache.get_resized(1, 8, (4, 4)) is None
        assert cache.get_resized(1, 9, (2, 2)) is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 0)
        segment, error = cache.get_resized(1, 5, (2, 2))
        assert segment.num_frames == 5 and error == 2.5
        assert not segment.pixels.flags.writeable
        assert (cache.stats.hits, cache.stats.misses) == (1, 0)
        # peek and get see the native entry alone.
        assert cache.peek(1, 8) is native
        assert cache.get(1, 8) is native

    def test_a_resized_hit_refreshes_the_native_entry(self):
        # As the native hit it replaces would: gop 2 is then the oldest.
        one = self._segment(4)
        cache = DecodeCache(capacity_bytes=3 * one.nbytes - 1)
        cache.put(1, 4, self._segment(4))
        cache.put(2, 4, self._segment(4))
        cache.put_resized(1, 4, blank_segment(4, 2, 2, fps=30.0), 1.0)
        assert cache.get_resized(1, 4, (2, 2)) is not None
        cache.put(3, 4, self._segment(4))  # evicts the resize, then gop 2
        assert cache.peek(1, 4) is not None and 2 not in cache
        assert (cache.resized_bytes, cache.stats.evictions) == (0, 2)

    def test_byte_counts_hold_under_concurrent_puts_and_invalidations(self):
        # More threads than cores put, hit and invalidate native and
        # resized entries of a few GOPs through a budget that keeps
        # evicting; a lost update would leave a byte count or the per-GOP
        # size index out of step with the entries.
        import sys

        one = self._segment(4)
        cache = DecodeCache(capacity_bytes=6 * one.nbytes)

        errors = []

        def work(seed: int) -> None:
            try:
                churn(seed)
            except Exception as exc:  # a lost update can also raise
                errors.append(exc)

        def churn(seed: int) -> None:
            rng = np.random.default_rng(seed)
            for _ in range(1000):
                gop, action = int(rng.integers(6)), int(rng.integers(4))
                if action == 0:
                    cache.put(gop, 4, self._segment(4))
                elif action == 1:
                    size = int(rng.integers(1, 3))
                    cache.put_resized(
                        gop, 4, blank_segment(4, size, size, fps=30.0), 1.0
                    )
                elif action == 2:
                    cache.get_resized(gop, 4, (1, 1))
                else:
                    cache.invalidate_many([gop, (gop + 1) % 6])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(seed,)) for seed in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        resized = sum(e.segment.nbytes for e in cache._resized.values())
        assert cache.resized_bytes == resized
        assert cache.current_bytes == resized + sum(
            e.segment.nbytes for e in cache._native.values()
        )
        assert cache.current_bytes <= cache.capacity_bytes

    def test_a_resized_entry_is_kept_only_in_free_room(self):
        one = self._segment(4)
        cache = DecodeCache(capacity_bytes=2 * one.nbytes)
        cache.put_resized(1, 4, blank_segment(4, 2, 2, fps=30.0), 1.0)
        cache.put(1, 4, self._segment(4))
        cache.put(2, 4, self._segment(4))  # the decode evicts the resize
        assert cache.get_resized(1, 4, (2, 2)) is None
        cache.put_resized(2, 4, blank_segment(4, 2, 2, fps=30.0), 1.0)
        assert (cache.resized_bytes, cache.stats.evictions) == (0, 1)
        assert 1 in cache and 2 in cache

    def test_invalidation_drops_every_size(self):
        cache = DecodeCache(capacity_bytes=1 << 20)
        for gop in (1, 2):
            cache.put(gop, 8, self._segment(8))
            cache.put_resized(gop, 8, blank_segment(8, 2, 2, fps=30.0), 1.0)
            cache.put_resized(gop, 8, blank_segment(8, 1, 1, fps=30.0), 1.0)
        cache.invalidate_many([1, 7])
        assert 1 not in cache and 2 in cache and len(cache) == 3
        assert cache.stats.invalidations == 1
        assert cache.resized_bytes == 8 * (2 * 2 + 1) * 3
        cache.invalidate(2)
        assert len(cache) == 0
        assert (cache.current_bytes, cache.resized_bytes) == (0, 0)


# ----------------------------------------------------------------------
# decode cache through the store
# ----------------------------------------------------------------------
class TestDecodeCacheSnapshot:
    """A read stream decodes through a snapshot taken with its plan: a
    GOP invalidated after it is a miss there and takes none of its puts,
    while reads under the lock (no snapshot) see the cache as usual."""

    def _segment(self, fill: int) -> object:
        return blank_segment(4, 4, 4, fps=30.0, fill=fill)

    def test_a_gop_invalidated_after_the_snapshot_is_neither_read_nor_put(self):
        cache = DecodeCache(capacity_bytes=1 << 20)
        cache.put(1, 4, self._segment(1))
        cache.put(2, 4, self._segment(2))
        snapshot = cache.snapshot()
        cache.invalidate(1)  # GOP 1's page rewritten after the plan
        cache.put(1, 4, self._segment(9))  # a locked read's new decode
        misses = cache.stats.misses
        assert snapshot.get(1, 4) is None
        assert snapshot.peek(1, 4) is None
        assert cache.stats.misses == misses + 1
        snapshot.put(1, 4, self._segment(1))  # the stream's old decode
        assert int(cache.peek(1, 4).pixels[0, 0, 0, 0]) == 9
        # An untouched GOP reads and fills as usual.
        assert int(snapshot.get(2, 4).pixels[0, 0, 0, 0]) == 2
        snapshot.put(3, 4, self._segment(3))
        assert 3 in cache
        # A snapshot taken after the rewrite sees the new decode.
        later = cache.snapshot()
        assert int(later.get(1, 4).pixels[0, 0, 0, 0]) == 9
        later.release()
        snapshot.release()

    def test_an_old_decode_never_lands_after_its_invalidation(self):
        cache = DecodeCache(capacity_bytes=1 << 20)
        snapshot = cache.snapshot()
        cache.invalidate(1)  # the cache held nothing of GOP 1 yet
        snapshot.put(1, 4, self._segment(1))
        snapshot.put_resized(1, 4, self._segment(1), 0.5)
        assert 1 not in cache

    def test_a_released_snapshot_puts_nothing_and_leaves_no_bookkeeping(self):
        cache = DecodeCache(capacity_bytes=1 << 20)
        first, second = cache.snapshot(), cache.snapshot()
        cache.invalidate_many([1, 2])
        third = cache.snapshot()
        cache.invalidate(3)
        first.release()
        first.release()  # a second release does nothing
        first.put(4, 4, self._segment(4))
        assert 4 not in cache
        # GOPs 1 and 2 stay stale for the snapshot still older than them.
        cache.put(1, 4, self._segment(1))
        assert second.get(1, 4) is None
        second.release()
        assert cache._dropped == {3: cache._epoch}
        assert third.get(1, 4) is not None and third.get(3, 4) is None
        third.release()
        assert cache._dropped == {} and cache._snapshots == {}


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


def _admit(session, spec) -> None:
    session.read(spec)
    session.engine.drain_admissions()


def _pages(engine) -> dict:
    """Every GOP row of every video: id -> where its pixels live."""
    return {
        g.id: (g.physical_id, g.path, g.zstd_level, g.joint_pair_id)
        for name in engine.catalog.list_names("video")
        for g in engine.catalog.gops_of_logical(
            engine.catalog.get_logical(name).id
        )
    }


def _enforce_tiny_budget(engine) -> None:
    engine.set_budget("v", 1)
    engine.cache.enforce_budget(engine.catalog.get_logical("v"))


def _joint(engine) -> None:
    from repro.jointcomp import JointCompressionManager

    assert JointCompressionManager(engine, merge="mean").optimize().pairs_compressed


def _recreate(engine) -> None:
    engine.delete("v")
    session = engine.session()
    clip = blank_segment(24, 36, 64, fps=30.0, fill=90)
    session.write("v", clip, codec="h264", qp=10, gop_size=8)


class TestResizedEntriesLeaveWithTheirPage:
    """Each page-changing catalog transaction drops a GOP's entries at
    every size: after it no entry of a rewritten GOP is left, the
    cache's byte counts are the sum of what is, and a re-read equals an
    engine's without a decode cache.

    Each case is ``(setup, reads, rewrite)``: ``setup(session, clips)``
    writes (and admits) what the case needs, ``reads`` are read twice
    before the rewrite — the second read keeps the GOPs it resizes —
    and once after it, and ``rewrite(engine)`` changes the pages.
    """

    HALF = dict(codec="raw", resolution=(32, 18), cache=False)
    QUARTER = dict(codec="raw", resolution=(16, 10), cache=False)
    #: At any quality the planner may take an admitted half-size copy.
    FROM_COPY = dict(QUARTER, quality_db=0.0)
    CASES = {
        "budget_eviction": (
            lambda s, c: (
                s.write("v", c["long"], codec="h264", qp=10, gop_size=30),
                _admit(s, ReadSpec("v", 0.0, 3.0, codec="h264", resolution=(32, 18))),
            ),
            [ReadSpec("v", 0.0, 3.0, **FROM_COPY)],
            _enforce_tiny_budget,
        ),
        "compaction": (
            lambda s, c: (
                s.write("v", c["long"], codec="h264", qp=10, gop_size=30),
                _admit(s, ReadSpec("v", 0.0, 1.5, codec="h264", resolution=(32, 18))),
                _admit(s, ReadSpec("v", 1.5, 3.0, codec="h264", resolution=(32, 18))),
            ),
            [ReadSpec("v", 0.0, 3.0, **FROM_COPY)],
            lambda engine: engine.compact("v"),
        ),
        "deferred_compression": (
            lambda s, c: s.write("v", c["tiny"], codec="raw", gop_size=8),
            [ReadSpec("v", 0.0, 0.8, **HALF)],
            lambda engine: engine.deferred.compress_one(
                engine.catalog.get_logical("v")
            ),
        ),
        "retile": (
            lambda s, c: (
                s.write("v", c["tiny"], codec="h264", qp=10, gop_size=8),
                s.engine.retile("v", rows=2, cols=2),
            ),
            [ReadSpec("v", 0.0, 0.8, roi=(0, 0, 32, 18), **QUARTER)],
            lambda engine: engine.retile("v", rows=1, cols=2),
        ),
        "joint_repoint": (
            lambda s, c: [
                s.write(name, clip, codec="h264", qp=10, gop_size=5)
                for name, clip in zip(("v", "w"), c["pair"])
            ],
            [
                ReadSpec(name, 0.0, 1 / 3, codec="raw", resolution=(96, 54), cache=False)
                for name in ("v", "w")
            ],
            _joint,
        ),
        "delete_recreate": (
            lambda s, c: s.write("v", c["tiny"], codec="h264", qp=10, gop_size=8),
            [ReadSpec("v", 0.0, 0.8, **HALF)],
            _recreate,
        ),
    }

    @pytest.fixture(scope="class")
    def clips(self, tiny_clip, three_second_clip):
        from repro.synthetic import visualroad

        pair = visualroad("1K", overlap=0.5, num_frames=10).videos(0, 10)
        return {"tiny": tiny_clip, "long": three_second_clip, "pair": pair}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rewrite_drops_every_size(self, tmp_path, calibration, clips, case):
        setup, reads, rewrite = self.CASES[case]
        engines = [
            VSSEngine(tmp_path / "cached", calibration=calibration),
            VSSEngine(
                tmp_path / "uncached", calibration=calibration,
                decode_cache_bytes=0,
            ),
        ]
        try:
            answers = []
            for engine in engines:
                session = engine.session()
                setup(session, clips)
                engine.drain_admissions()
                for _ in range(2):
                    for spec in reads:
                        session.read(spec)
                cache = engine.decode_cache
                resized = {gid for gid, _ in cache._resized}
                before = _pages(engine)
                rewrite(engine)
                engine.drain_admissions()
                if cache.enabled:
                    after = _pages(engine)
                    rewritten = {
                        gid for gid, page in before.items()
                        if after.get(gid) != page
                    }
                    assert rewritten & resized, case
                    assert not any(gid in cache for gid in rewritten)
                    kept = sum(e.segment.nbytes for e in cache._resized.values())
                    assert cache.resized_bytes == kept
                    assert cache.current_bytes == kept + sum(
                        e.segment.nbytes for e in cache._native.values()
                    )
                answers.append(
                    [session.read(spec).segment.pixels.tobytes() for spec in reads]
                )
            assert answers[0] == answers[1]
        finally:
            for engine in engines:
                engine.close()


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
