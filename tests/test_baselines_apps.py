"""Tests for the baseline systems and the end-to-end monitoring app."""

import pytest

from repro.apps import MonitoringApp
from repro.baselines import LocalFSStore, VStoreBaseline
from repro.baselines.vstore import FRAME_LIMIT, StagedFormat
from repro.core.engine import VSSEngine
from repro.errors import FormatError, VideoNotFoundError, WriteError
from repro.synthetic import visualroad
from repro.video.metrics import segment_psnr


class TestLocalFS:
    def test_write_read_same_format(self, tmp_path, tiny_clip):
        fs = LocalFSStore(tmp_path)
        nbytes = fs.write("v", tiny_clip, codec="h264", qp=10)
        assert nbytes > 0
        gops = fs.read("v")
        assert sum(g.num_frames for g in gops) == tiny_clip.num_frames

    def test_read_time_range(self, tmp_path, tiny_clip):
        fs = LocalFSStore(tmp_path)
        fs.write("v", tiny_clip, codec="h264", qp=10, gop_size=8)
        gops = fs.read("v", 0.0, 8 / 30)
        assert sum(g.num_frames for g in gops) == 8

    def test_conversion_decodes_everything(self, tmp_path, tiny_clip):
        fs = LocalFSStore(tmp_path)
        fs.write("v", tiny_clip, codec="h264", qp=0)
        segment = fs.read("v", codec="raw")
        assert segment.num_frames == tiny_clip.num_frames
        assert segment_psnr(tiny_clip, segment) >= 40.0

    def test_transcode_between_codecs(self, tmp_path, tiny_clip):
        fs = LocalFSStore(tmp_path)
        fs.write("v", tiny_clip, codec="h264", qp=10)
        gops = fs.read("v", codec="hevc")
        assert gops[0].codec == "hevc"

    def test_missing_video(self, tmp_path):
        with pytest.raises(VideoNotFoundError):
            LocalFSStore(tmp_path).read("ghost")

    def test_size_and_delete(self, tmp_path, tiny_clip):
        fs = LocalFSStore(tmp_path)
        fs.write("v", tiny_clip, codec="h264")
        assert fs.size("v") > 0
        fs.delete("v")
        with pytest.raises(VideoNotFoundError):
            fs.size("v")


class TestVStore:
    def workload(self):
        return [
            StagedFormat("h264", "rgb", 10),
            StagedFormat("raw", "rgb"),
        ]

    def test_write_stages_all_formats(self, tmp_path, tiny_clip):
        store = VStoreBaseline(tmp_path, self.workload())
        written = store.write("v", tiny_clip)
        assert len(written) == 2
        assert all(v > 0 for v in written.values())

    def test_staged_read_supported(self, tmp_path, tiny_clip):
        store = VStoreBaseline(tmp_path, self.workload())
        store.write("v", tiny_clip)
        gops = store.read("v", codec="h264")
        assert gops[0].codec == "h264"
        segment = store.read("v", codec="raw")
        assert segment.num_frames == tiny_clip.num_frames

    def test_unstaged_read_unsupported(self, tmp_path, tiny_clip):
        store = VStoreBaseline(tmp_path, self.workload())
        store.write("v", tiny_clip)
        assert not store.supports("hevc")
        with pytest.raises(FormatError, match="pre-declared"):
            store.read("v", codec="hevc")

    def test_frame_limit(self, tmp_path):
        from repro.video.frame import blank_segment

        store = VStoreBaseline(tmp_path, self.workload())
        big = blank_segment(FRAME_LIMIT + 1, 16, 16, 30.0)
        with pytest.raises(WriteError, match="limited"):
            store.write("v", big)

    def test_empty_workload_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            VStoreBaseline(tmp_path, [])

    def test_total_size_counts_all_formats(self, tmp_path, tiny_clip):
        store = VStoreBaseline(tmp_path, self.workload())
        store.write("v", tiny_clip)
        # Raw staging dominates: total must exceed the raw size alone.
        assert store.size("v") > tiny_clip.nbytes


class TestMonitoringApp:
    @pytest.fixture(scope="class")
    def traffic_video(self):
        ds = visualroad("1K", overlap=0.3, num_frames=60, seed=9)
        return ds.video(0, 0, 60)

    def test_pipeline_on_vss(self, tmp_path, calibration, traffic_video):
        engine = VSSEngine(tmp_path / "vss", calibration=calibration)
        session = engine.session()
        session.write("cam", traffic_video, codec="h264", qp=10, gop_size=30)
        app = MonitoringApp("cam")
        detections = app.run_indexing(session, duration=2.0)
        assert detections > 0
        colors = {e.color for e in app.index}
        color = sorted(colors)[0]
        hits = app.run_search(session, color, duration=2.0)
        assert hits  # the indexed colour must be confirmable
        clips = app.run_streaming(session, hits, duration=2.0)
        assert clips >= 1
        assert app.timings.indexing > 0
        assert app.timings.search > 0
        assert app.timings.streaming > 0
        engine.close()

    def test_pipeline_on_localfs(self, tmp_path, traffic_video):
        fs = LocalFSStore(tmp_path / "fs")
        fs.write("cam", traffic_video, codec="h264", qp=10, gop_size=30)
        app = MonitoringApp("cam")
        detections = app.run_indexing(fs, duration=2.0)
        assert detections > 0

    def test_vss_and_fs_agree_on_detections(self, tmp_path, calibration,
                                            traffic_video):
        engine = VSSEngine(tmp_path / "vss2", calibration=calibration)
        session = engine.session()
        session.write("cam", traffic_video, codec="h264", qp=10, gop_size=30)
        fs = LocalFSStore(tmp_path / "fs2")
        fs.write("cam", traffic_video, codec="h264", qp=10, gop_size=30)
        app_vss = MonitoringApp("cam")
        app_fs = MonitoringApp("cam")
        n_vss = app_vss.run_indexing(session, duration=2.0)
        n_fs = app_fs.run_indexing(fs, duration=2.0)
        # Same decoder, same detector: counts should be close (resize
        # paths differ slightly).
        assert abs(n_vss - n_fs) <= max(3, 0.2 * max(n_vss, n_fs))
        engine.close()

    def test_unsupported_store_rejected(self, traffic_video):
        app = MonitoringApp("cam")
        with pytest.raises(TypeError):
            app.run_indexing(object(), duration=1.0)
