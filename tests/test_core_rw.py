"""Integration tests: VSS write/read paths, planning, streaming, caching."""

import pytest

from repro.errors import OutOfRangeError, WriteError
from repro.video.metrics import segment_psnr


class TestWrite:
    def test_first_write_is_original(self, store, tiny_clip):
        store.create("v")
        physical = store.write("v", tiny_clip, codec="h264", qp=10)
        assert physical.is_original
        assert physical.sealed

    def test_default_budget_from_multiple(self, store, tiny_clip):
        store.create("v")
        store.write("v", tiny_clip, codec="h264", qp=10)
        stats = store.video_stats("v")
        assert stats.budget_bytes == pytest.approx(
            stats.total_bytes * store.engine.budget_multiple, rel=0.01
        )

    def test_explicit_budget_kept(self, store, tiny_clip):
        store.create("v", budget_bytes=10**9)
        store.write("v", tiny_clip, codec="h264", qp=10)
        assert store.video_stats("v").budget_bytes == 10**9

    def test_write_without_create_autocreates(self, store, tiny_clip):
        store.write("auto", tiny_clip, codec="h264")
        assert "auto" in store.list_videos()

    def test_write_rejects_both_or_neither(self, store, tiny_clip):
        store.create("v")
        with pytest.raises(WriteError):
            store.write("v")

    def test_compressed_gops_accepted_as_is(self, store, tiny_clip):
        from repro.video.codec.registry import encode_gop

        gops = encode_gop("hevc", tiny_clip, qp=12, gop_size=8)
        store.create("v")
        physical = store.write("v", gops=gops)
        assert physical.codec == "hevc"
        assert store.video_stats("v").num_gops == len(gops)

    def test_streaming_prefix_read(self, store, tiny_clip):
        """Non-blocking writes: a prefix is readable before close."""
        stream = store.engine.open_write_stream(
            "live", codec="h264", pixel_format="rgb",
            width=tiny_clip.width, height=tiny_clip.height, fps=30.0, qp=10,
        )
        stream.append(tiny_clip.slice_frames(0, 12))
        result = store.read("live", 0.0, 12 / 30, codec="raw", cache=False)
        assert result.segment.num_frames == 12
        stream.append(tiny_clip.slice_frames(12, 24))
        stream.close()
        result = store.read("live", 0.0, 24 / 30, codec="raw", cache=False)
        assert result.segment.num_frames == 24

    def test_stream_close_empty_rejected(self, store, tiny_clip):
        stream = store.engine.open_write_stream(
            "live", codec="h264", pixel_format="rgb",
            width=64, height=36, fps=30.0,
        )
        with pytest.raises(WriteError):
            stream.close()


class TestRead:
    def test_raw_read_quality(self, loaded_store, three_second_clip):
        result = loaded_store.read("traffic", 0.0, 1.0, codec="raw")
        reference = three_second_clip.slice_time(0.0, 1.0)
        assert result.segment.num_frames == 30
        assert segment_psnr(reference, result.segment) >= 40.0

    def test_read_out_of_range(self, loaded_store):
        with pytest.raises(OutOfRangeError):
            loaded_store.read("traffic", 0.0, 99.0)

    def test_empty_interval(self, loaded_store):
        with pytest.raises(OutOfRangeError):
            loaded_store.read("traffic", 1.0, 1.0)

    def test_unknown_video(self, store):
        from repro.errors import VideoNotFoundError

        with pytest.raises(VideoNotFoundError):
            store.read("ghost", 0.0, 1.0)

    def test_resolution_change(self, loaded_store):
        result = loaded_store.read(
            "traffic", 0.0, 1.0, codec="raw", resolution=(32, 18)
        )
        assert result.segment.resolution == (32, 18)

    def test_roi_read(self, loaded_store):
        result = loaded_store.read(
            "traffic", 0.0, 1.0, codec="raw", roi=(16, 9, 48, 27)
        )
        assert result.segment.resolution == (32, 18)

    def test_roi_out_of_bounds(self, loaded_store):
        with pytest.raises(OutOfRangeError):
            loaded_store.read("traffic", 0.0, 1.0, roi=(0, 0, 999, 999))

    def test_fps_resample(self, loaded_store):
        result = loaded_store.read("traffic", 0.0, 2.0, codec="raw", fps=15.0)
        assert result.segment.num_frames == 30
        assert result.segment.fps == 15.0

    def test_pixel_format_conversion(self, loaded_store):
        result = loaded_store.read(
            "traffic", 0.0, 1.0, codec="raw", pixel_format="yuv420"
        )
        assert result.segment.pixel_format == "yuv420"

    def test_compressed_output(self, loaded_store):
        result = loaded_store.read("traffic", 0.0, 2.0, codec="hevc")
        assert result.gops is not None
        assert result.gops[0].codec == "hevc"
        assert result.as_segment().num_frames == 60

    def test_same_format_direct_serve(self, loaded_store):
        result = loaded_store.read("traffic", 0.0, 1.0, codec="h264")
        assert result.stats.direct_serve
        assert sum(g.num_frames for g in result.gops) == 30

    def test_unaligned_same_format_falls_back(self, loaded_store):
        result = loaded_store.read("traffic", 0.25, 1.25, codec="h264")
        assert not result.stats.direct_serve
        assert result.as_segment().num_frames == 30

    def test_quality_cutoff_rejects_bad_cache(self, loaded_store):
        # Cache a very low quality variant, then demand high quality: the
        # planner must not use the bad fragment.
        loaded_store.read("traffic", 0.0, 3.0, codec="h264", qp=44)
        loaded_store.engine.drain_admissions()
        result = loaded_store.read(
            "traffic", 0.0, 3.0, codec="raw", quality_db=40.0
        )
        for choice in result.plan.choices:
            assert choice.fragment.physical.qp != 44

    def test_quality_cutoff_accepts_when_lowered(self, loaded_store):
        loaded_store.read("traffic", 0.0, 3.0, codec="h264", qp=44)
        loaded_store.engine.drain_admissions()
        result = loaded_store.read(
            "traffic", 0.0, 3.0, codec="h264", qp=44, quality_db=15.0
        )
        assert result is not None


class TestCachingBehaviour:
    def test_read_result_cached_as_physical(self, loaded_store):
        before = loaded_store.video_stats("traffic").num_physicals
        loaded_store.read("traffic", 0.0, 1.0, codec="raw")
        loaded_store.engine.drain_admissions()
        assert loaded_store.video_stats("traffic").num_physicals == before + 1

    def test_cache_false_skips_admission(self, loaded_store):
        before = loaded_store.video_stats("traffic").num_physicals
        loaded_store.read("traffic", 0.0, 1.0, codec="raw", cache=False)
        loaded_store.engine.drain_admissions()
        assert loaded_store.video_stats("traffic").num_physicals == before

    def test_cached_fragment_reused_by_plan(self, loaded_store):
        first = loaded_store.read("traffic", 0.0, 2.0, codec="raw")
        loaded_store.engine.drain_admissions()
        second = loaded_store.read("traffic", 0.0, 2.0, codec="raw")
        assert second.plan.estimated_cost < first.plan.estimated_cost

    def test_duplicate_not_readmitted(self, loaded_store):
        loaded_store.read("traffic", 0.0, 2.0, codec="raw")
        loaded_store.engine.drain_admissions()
        count = loaded_store.video_stats("traffic").num_physicals
        loaded_store.read("traffic", 0.0, 2.0, codec="raw")
        loaded_store.engine.drain_admissions()
        assert loaded_store.video_stats("traffic").num_physicals == count

    def test_solver_beats_or_ties_greedy(self, loaded_store):
        # Build a mixed cache, then compare plan costs on a spanning read.
        loaded_store.read("traffic", 1.0, 2.0, codec="h264", cache=True)
        loaded_store.read("traffic", 0.0, 1.0, codec="raw", cache=True)
        loaded_store.engine.drain_admissions()
        solver = loaded_store.read(
            "traffic", 0.0, 3.0, codec="hevc", cache=False, mode="solver"
        )
        greedy = loaded_store.read(
            "traffic", 0.0, 3.0, codec="hevc", cache=False, mode="greedy"
        )
        original = loaded_store.read(
            "traffic", 0.0, 3.0, codec="hevc", cache=False, mode="original"
        )
        assert solver.plan.estimated_cost <= greedy.plan.estimated_cost + 1e-12
        assert solver.plan.estimated_cost <= original.plan.estimated_cost + 1e-12

    def test_reads_touch_lru(self, loaded_store):
        logical = loaded_store.engine.catalog.get_logical("traffic")
        before = max(
            g.last_access for g in loaded_store.engine.catalog.gops_of_logical(logical.id)
        )
        loaded_store.read("traffic", 0.0, 1.0, codec="raw", cache=False)
        after = max(
            g.last_access for g in loaded_store.engine.catalog.gops_of_logical(logical.id)
        )
        assert after > before


class TestDelete:
    def test_delete_removes_everything(self, loaded_store):
        loaded_store.read("traffic", 0.0, 1.0, codec="raw")
        loaded_store.engine.drain_admissions()  # a cached physical to delete
        loaded_store.delete("traffic")
        assert "traffic" not in loaded_store.list_videos()
        assert not (loaded_store.engine.layout.root / "videos" / "traffic").exists()
