"""Tests for the LRU_VSS eviction policy, deferred compression, and
compaction (paper sections 4, 5.2, 5.3)."""

import time

import pytest

from repro.core.engine import VSSEngine


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
        assert engine.deferred.on_uncompressed_read(logical) is None
        engine.close()

    def test_activates_above_threshold(self, small_budget_store):
        session = small_budget_store
        engine = session.engine
        session.read("traffic", 0.0, 2.0, codec="raw")
        engine.drain_admissions()
        logical = engine.catalog.get_logical("traffic")
        assert engine.cache.usage_fraction(logical) > engine.deferred.threshold
        assert engine.deferred.active(logical)

    def test_raw_read_triggers_compression(self, small_budget_store):
        session = small_budget_store
        engine = session.engine
        session.read("traffic", 0.0, 2.0, codec="raw")
        engine.drain_admissions()
        logical = engine.catalog.get_logical("traffic")
        # The hook fires before each raw read; with raw pages cached and
        # the threshold crossed it must compress one page.
        gop_id = engine.deferred.on_uncompressed_read(logical)
        assert gop_id is not None
        assert engine.catalog.get_gop(gop_id).zstd_level > 0

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

    def test_background_thread_compresses(self, small_budget_store):
        session = small_budget_store
        engine = session.engine
        session.read("traffic", 0.0, 2.0, codec="raw")
        engine.drain_admissions()
        logical = engine.catalog.get_logical("traffic")
        engine.deferred.start_background(logical, idle_wait=0.01)
        engine.deferred.notify_idle()
        deadline = time.time() + 3.0
        compressed = 0
        while time.time() < deadline:
            compressed = sum(
                1
                for g in engine.catalog.gops_of_logical(logical.id)
                if g.zstd_level > 0
            )
            if compressed:
                break
            time.sleep(0.02)
        engine.deferred.stop_background()
        assert compressed > 0


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
