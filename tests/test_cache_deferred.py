"""Tests for the LRU_VSS eviction policy, deferred compression, and
compaction (paper sections 4, 5.2, 5.3)."""

import numpy as np
import pytest

from repro.core.engine import VSSEngine
from repro.core.specs import ReadSpec
from repro.lossless import zstd


@pytest.fixture()
def small_budget_store(tmp_path, calibration, three_second_clip):
    """A store whose budget forces eviction quickly (~2x original size)."""
    with VSSEngine(
        tmp_path / "store", calibration=calibration, budget_multiple=2.0
    ) as engine:
        session = engine.session()
        session.create("traffic")
        session.write("traffic", three_second_clip, codec="h264", qp=10, gop_size=30)
        yield session


class TestEviction:
    def test_budget_enforced(self, small_budget_store):
        session = small_budget_store
        engine = session.engine
        for start in range(3):
            session.read("traffic", float(start), float(start + 1), codec="raw")
        engine.drain_admissions()
        stats = engine.video_stats("traffic")
        assert stats.total_bytes <= stats.budget_bytes

    def test_lossless_cover_always_survives(self, small_budget_store):
        """The paper's invariant: a >= tau-quality cover of the original's
        full time range must survive any eviction pressure."""
        session = small_budget_store
        engine = session.engine
        for start in range(3):
            session.read("traffic", float(start), float(start + 1), codec="raw")
            session.read("traffic", float(start), float(start + 1), codec="hevc")
        engine.drain_admissions()
        logical = engine.catalog.get_logical("traffic")
        covered = []
        for physical in engine.catalog.list_physicals(logical.id):
            if engine.quality_model.meets_tau(physical):
                covered.extend(
                    (g.start_time, g.end_time)
                    for g in engine.catalog.gops_of_physical(physical.id)
                )
        covered.sort()
        # Merge intervals and verify [0, 3] is covered.
        reach = 0.0
        for lo, hi in covered:
            if lo <= reach + 1e-6:
                reach = max(reach, hi)
        assert reach >= 3.0 - 1e-6

    def test_full_read_still_possible_after_pressure(self, small_budget_store):
        session = small_budget_store
        engine = session.engine
        for start in range(3):
            session.read("traffic", float(start), float(start + 1), codec="raw")
        engine.drain_admissions()
        result = session.read("traffic", 0.0, 3.0, codec="raw", cache=False)
        assert result.segment.num_frames == 90

    def test_eviction_report(self, small_budget_store):
        session = small_budget_store
        engine = session.engine
        for start in range(3):
            session.read("traffic", float(start), float(start + 1), codec="raw")
        engine.drain_admissions()
        report = engine.enforce_budget("traffic")
        assert report.fit

    def test_protected_pages_never_evicted_even_under_impossible_budget(
        self, small_budget_store
    ):
        session = small_budget_store
        engine = session.engine
        engine.set_budget("traffic", 1)  # impossible
        report = engine.enforce_budget("traffic")
        assert not report.fit
        # The original must still be readable.
        result = session.read("traffic", 0.0, 3.0, codec="raw", cache=False)
        assert result.segment.num_frames == 90


class TestPolicyScores:
    def test_position_offset_favors_middle(self, small_budget_store):
        session = small_budget_store
        engine = session.engine
        logical = engine.catalog.get_logical("traffic")
        session.read("traffic", 0.0, 3.0, codec="hevc", cache=True)
        engine.drain_admissions()
        scores = engine.cache.scores(logical)
        # For the cached 3-GOP hevc physical, the middle page should score
        # at least as high as the edges (same recency, +gamma * position).
        physicals = [
            p
            for p in engine.catalog.list_physicals(logical.id)
            if not p.is_original
        ]
        assert physicals
        gops = engine.catalog.gops_of_physical(physicals[0].id)
        if len(gops) >= 3:
            edge = scores[gops[0].id]
            middle = scores[gops[1].id]
            assert middle >= edge

    def test_lru_policy_ignores_position(self, tmp_path, calibration,
                                         three_second_clip):
        engine = VSSEngine(tmp_path / "lru", calibration=calibration,
                           cache_policy="lru")
        session = engine.session()
        session.create("v")
        session.write("v", three_second_clip, codec="h264", qp=10, gop_size=30)
        session.read("v", 0.0, 3.0, codec="hevc")
        engine.drain_admissions()
        logical = engine.catalog.get_logical("v")
        scores = engine.cache.scores(logical)
        physicals = [
            p for p in engine.catalog.list_physicals(logical.id) if not p.is_original
        ]
        gops = engine.catalog.gops_of_physical(physicals[0].id)
        finite = [scores[g.id] for g in gops if scores[g.id] != float("inf")]
        # Plain LRU: same-access pages tie (no positional offset).
        assert len(set(finite)) <= 1
        engine.close()


class TestDeferredCompression:
    def test_inactive_below_threshold(self, tmp_path, calibration,
                                      three_second_clip):
        # With the default 10x budget the original is 10% of budget, below
        # the 25% activation threshold.
        engine = VSSEngine(tmp_path / "big", calibration=calibration)
        session = engine.session()
        session.write("v", three_second_clip, codec="h264", qp=10)
        logical = engine.catalog.get_logical("v")
        assert not engine.deferred.active(logical)
        engine.drain_admissions()
        # A raw read of an inactive video queues nothing: the hot
        # workloads' raw streams never pay for a maintenance task.
        enqueued = engine.stats().admissions_enqueued
        session.read("v", 0.0, 1.0, codec="raw", cache=False)
        assert engine.stats().admissions_enqueued == enqueued
        assert engine._pending_maintenance == {}
        engine.close()

    def test_activates_above_threshold(self, small_budget_store):
        session = small_budget_store
        engine = session.engine
        session.read("traffic", 0.0, 2.0, codec="raw")
        engine.drain_admissions()
        logical = engine.catalog.get_logical("traffic")
        assert engine.cache.usage_fraction(logical) > engine.deferred.threshold
        assert engine.deferred.active(logical)

    @staticmethod
    def _compressed(engine, logical) -> int:
        return sum(
            g.zstd_level > 0 for g in engine.catalog.gops_of_logical(logical.id)
        )

    @staticmethod
    def _active_with_raw_pages(session):
        """Cache 2 s of raw pages under a budget that keeps them all but
        leaves the video above the activation threshold."""
        engine = session.engine
        engine.set_budget("traffic", 1_200_000)
        session.read("traffic", 0.0, 2.0, codec="raw")
        engine.drain_admissions()
        logical = engine.catalog.get_logical("traffic")
        assert engine.deferred.active(logical)
        assert len(engine.deferred._raw_pages(logical)) > 1
        return logical

    def test_raw_read_triggers_compression(self, small_budget_store):
        """A raw read on an active video queues one page compression on
        the maintenance step; once drained, one more page is packed."""
        session = small_budget_store
        engine = session.engine
        logical = self._active_with_raw_pages(session)
        before = self._compressed(engine, logical)
        session.read("traffic", 0.0, 1.0, codec="raw", cache=False)
        engine.drain_admissions()
        assert self._compressed(engine, logical) == before + 1

    def test_raw_batch_group_queues_one_compression(self, small_budget_store):
        session = small_budget_store
        engine = session.engine
        logical = self._active_with_raw_pages(session)
        before = self._compressed(engine, logical)
        enqueued = engine.stats().admissions_enqueued
        specs = [
            ReadSpec("traffic", t, t + 0.5, codec="raw", cache=False)
            for t in (0.0, 0.5, 1.0)
        ]
        session.read_batch(specs)
        engine.drain_admissions()
        assert engine.stats().admissions_enqueued == enqueued + 1
        assert self._compressed(engine, logical) == before + 1

    def test_compressed_pages_read_transparently(self, small_budget_store):
        session = small_budget_store
        engine = session.engine
        session.read("traffic", 0.0, 2.0, codec="raw")
        engine.drain_admissions()
        logical = engine.catalog.get_logical("traffic")
        # Force-compress every raw page, then re-read.
        while engine.deferred.compress_one(logical) is not None:
            pass
        result = session.read("traffic", 0.0, 2.0, codec="raw", cache=False)
        assert result.segment.num_frames == 60

    def test_level_scales_with_pressure(self, small_budget_store):
        session = small_budget_store
        engine = session.engine
        logical = engine.catalog.get_logical("traffic")
        low_pressure = engine.deferred.level(logical)
        session.read("traffic", 0.0, 2.0, codec="raw")
        engine.drain_admissions()
        high_pressure = engine.deferred.level(logical)
        assert high_pressure >= low_pressure

    def test_disabled_manager_never_activates(self, tmp_path, calibration,
                                              three_second_clip):
        engine = VSSEngine(tmp_path / "nodefer", calibration=calibration,
                           budget_multiple=2.0, deferred_compression=False)
        session = engine.session()
        session.write("v", three_second_clip, codec="h264", qp=10)
        session.read("v", 0.0, 2.0, codec="raw")
        session.read("v", 2.0, 3.0, codec="raw")
        engine.drain_admissions()
        logical = engine.catalog.get_logical("v")
        assert all(
            g.zstd_level == 0 for g in engine.catalog.gops_of_logical(logical.id)
        )
        engine.close()


class TestPageRewrites:
    """A page keeps its path for life; old ``.gop.z`` stores and a crash
    between the file rewrite and the row update still read the same."""

    @pytest.fixture()
    def raw_store(self, tmp_path, calibration, three_second_clip):
        engine = VSSEngine(tmp_path / "store", calibration=calibration)
        session = engine.session()
        session.write("v", three_second_clip, codec="raw", gop_size=30)
        engine.drain_admissions()
        yield engine
        engine.close()

    @staticmethod
    def _pixels(engine):
        engine.decode_cache.clear()
        return engine.session().read("v", 0.0, 3.0, cache=False).segment.pixels

    def test_compress_one_keeps_path_and_counts_file_bytes(self, raw_store):
        logical = raw_store.catalog.get_logical("v")
        before = {g.id: g for g in raw_store.catalog.gops_of_logical(logical.id)}
        expected = self._pixels(raw_store)
        with raw_store._locked("v"):
            gop_id = raw_store.deferred.compress_one(logical)
        after = raw_store.catalog.get_gop(gop_id)
        assert after.path == before[gop_id].path
        assert after.zstd_level > 0
        assert after.nbytes == raw_store.layout.file_size(after.path)
        assert after.nbytes < before[gop_id].nbytes
        assert np.array_equal(self._pixels(raw_store), expected)

    def test_store_with_z_twins_reads_the_same(
        self, tmp_path, calibration, three_second_clip
    ):
        """Rows pointing at ``<seq>.gop.z``, written as older versions
        did: the packed container beside the unlinked plain file."""
        root = tmp_path / "old"
        with VSSEngine(root, calibration=calibration) as engine:
            engine.session().write(
                "v", three_second_clip, codec="raw", gop_size=30
            )
            engine.drain_admissions()
            expected = self._pixels(engine)
            gops = engine.catalog.gops_of_logical(
                engine.catalog.get_logical("v").id
            )
            with engine.catalog._write() as conn:
                for gop in gops:
                    source = root / gop.path
                    packed = zstd.compress(source.read_bytes(), 5)
                    (root / (gop.path + ".z")).write_bytes(packed)
                    source.unlink()
                    conn.execute(
                        "UPDATE gops SET zstd_level = ?, nbytes = ?, path = ?"
                        " WHERE id = ?",
                        (5, len(packed), gop.path + ".z", gop.id),
                    )
                conn.commit()
        with VSSEngine(root, calibration=calibration) as engine:
            assert all(
                g.path.endswith(".gop.z")
                for g in engine.catalog.gops_of_logical(
                    engine.catalog.get_logical("v").id
                )
            )
            assert np.array_equal(self._pixels(engine), expected)

    def test_rewrite_without_row_update_reads_the_same(self, raw_store):
        """A crash after the in-place rewrite but before the row update
        leaves a packed file under an unpacked row."""
        logical = raw_store.catalog.get_logical("v")
        expected = self._pixels(raw_store)
        page = raw_store.catalog.gops_of_logical(logical.id)[1]
        raw_store.layout.compress_gop_file(page.path, 7)
        assert raw_store.catalog.get_gop(page.id).zstd_level == 0
        assert np.array_equal(self._pixels(raw_store), expected)
        # Deferred compression may later pack that page again.
        with raw_store._locked("v"):
            while raw_store.deferred.compress_one(logical) is not None:
                pass
        assert np.array_equal(self._pixels(raw_store), expected)


class TestCompaction:
    def test_contiguous_cached_entries_merge(self, small_budget_store):
        session = small_budget_store
        engine = session.engine
        engine.set_budget("traffic", 10**9)  # no eviction interference
        session.read("traffic", 0.0, 1.0, codec="hevc")
        session.read("traffic", 1.0, 2.0, codec="hevc")
        engine.drain_admissions()
        before = engine.video_stats("traffic").num_physicals
        merges = engine.compact("traffic")
        assert merges >= 1
        after = engine.video_stats("traffic")
        assert after.num_physicals == before - merges
        # Reads still work across the merged boundary.
        result = session.read("traffic", 0.0, 2.0, codec="hevc", cache=False)
        assert result.as_segment().num_frames == 60

    def test_compaction_is_idempotent(self, small_budget_store):
        session = small_budget_store
        engine = session.engine
        engine.set_budget("traffic", 10**9)
        session.read("traffic", 0.0, 1.0, codec="hevc")
        session.read("traffic", 1.0, 2.0, codec="hevc")
        engine.drain_admissions()
        engine.compact("traffic")
        assert engine.compact("traffic") == 0

    def test_incompatible_entries_not_merged(self, small_budget_store):
        session = small_budget_store
        engine = session.engine
        engine.set_budget("traffic", 10**9)
        session.read("traffic", 0.0, 1.0, codec="hevc")
        session.read("traffic", 1.0, 2.0, codec="h264", resolution=(32, 18))
        engine.drain_admissions()
        physicals_before = engine.video_stats("traffic").num_physicals
        engine.compact("traffic")
        assert engine.video_stats("traffic").num_physicals == physicals_before
