"""Tests for joint compression: Algorithm 1, selection, recovery, manager."""

import numpy as np
import pytest

from repro.core.engine import VSSEngine
from repro.jointcomp import (
    JointCandidateSelector,
    JointCompressionManager,
    JointCompressor,
)
from repro.jointcomp.algorithm import recover_right_frame
from repro.jointcomp.selection import random_pairs
from repro.synthetic import visualroad
from repro.video.metrics import segment_psnr


@pytest.fixture(scope="module")
def overlapping_pair():
    ds = visualroad("1K", overlap=0.5, num_frames=8)
    left, right = ds.videos(0, 8)
    return ds, left, right


class TestAlgorithm:
    def test_compresses_overlapping_pair(self, overlapping_pair):
        ds, left, right = overlapping_pair
        result = JointCompressor(merge="unprojected").compress(
            left.pixels, right.pixels
        )
        assert result is not None
        assert not result.duplicate
        assert 0 < result.x_f < left.width
        assert 0 < result.x_g < right.width

    def test_unprojected_merge_left_is_exact(self, overlapping_pair):
        ds, left, right = overlapping_pair
        result = JointCompressor(merge="unprojected").compress(
            left.pixels, right.pixels
        )
        # Left recovery concatenates stored pixels: exact by construction.
        assert result.quality_left_db >= 300.0
        assert result.quality_right_db >= 24.0

    def test_mean_merge_balances_quality(self, overlapping_pair):
        ds, left, right = overlapping_pair
        result = JointCompressor(merge="mean").compress(
            left.pixels, right.pixels
        )
        assert result is not None
        # Mean merge spreads the error over both sides (Table 2's shape).
        assert result.quality_left_db < 300.0
        assert result.quality_right_db >= 24.0

    def test_storage_shrinks(self, overlapping_pair):
        ds, left, right = overlapping_pair
        result = JointCompressor().compress(left.pixels, right.pixels)
        assert result.stored_pixels < result.source_pixels

    def test_duplicate_detection(self, overlapping_pair):
        ds, left, _ = overlapping_pair
        result = JointCompressor().compress(left.pixels, left.pixels.copy())
        assert result is not None
        assert result.duplicate
        assert result.quality_right_db >= 40.0
        assert result.overlap_frames.shape[2] == 0

    def test_non_overlapping_rejected(self):
        rng = np.random.default_rng(0)
        from scipy.ndimage import gaussian_filter

        a = gaussian_filter(rng.uniform(0, 255, (4, 54, 96, 3)), (0, 2, 2, 0)).astype(np.uint8)
        b = gaussian_filter(rng.uniform(0, 255, (4, 54, 96, 3)), (0, 2, 2, 0)).astype(np.uint8)
        assert JointCompressor().compress(a, b) is None

    def test_mixed_resolution_upscaled(self, overlapping_pair):
        ds, left, right = overlapping_pair
        from repro.video.resample import resize_segment

        small_right = resize_segment(right, right.width // 2, right.height // 2)
        result = JointCompressor().compress(left.pixels, small_right.pixels)
        # Either admitted (after upscale) or rejected on quality; never an
        # exception, and if admitted the geometry matches the larger input.
        if result is not None and not result.duplicate:
            total_width = result.left_frames.shape[2] + result.overlap_frames.shape[2]
            assert total_width == left.width

    def test_invalid_merge_rejected(self):
        with pytest.raises(ValueError):
            JointCompressor(merge="median")

    def test_right_frame_recovery_from_pieces(self, overlapping_pair):
        ds, left, right = overlapping_pair
        result = JointCompressor(merge="mean").compress(
            left.pixels, right.pixels
        )
        recovered = recover_right_frame(
            result.overlap_frames[0],
            result.right_frames[0],
            result.homography,
            result.x_f,
            result.x_g,
            right.height,
            right.width,
        )
        from repro.video.metrics import psnr

        assert psnr(right.frame(0), recovered) >= 24.0


class TestSelection:
    def test_finds_overlapping_pair(self, overlapping_pair):
        ds, left, right = overlapping_pair
        selector = JointCandidateSelector()
        selector.add(("left", 0), left.frame(0))
        selector.add(("right", 0), right.frame(0))
        # A visually distinct decoy.
        decoy = np.full((108, 192, 3), 250, dtype=np.uint8)
        selector.add(("decoy", 0), decoy)
        candidates = selector.candidates()
        keys = {frozenset((c.key_a[0], c.key_b[0])) for c in candidates}
        assert frozenset(("left", "right")) in keys
        assert all("decoy" not in k for k in keys)

    def test_match_threshold_respected(self, overlapping_pair):
        ds, left, right = overlapping_pair
        selector = JointCandidateSelector(min_matches=10_000)
        selector.add(("left", 0), left.frame(0))
        selector.add(("right", 0), right.frame(0))
        assert selector.candidates() == []

    def test_random_pairs_shape(self):
        pairs = random_pairs(["a", "b", "c", "d"], count=5, seed=1)
        assert len(pairs) == 5
        for a, b in pairs:
            assert a != b


class TestManagerEndToEnd:
    @pytest.fixture()
    def joint_store(self, tmp_path, calibration):
        ds = visualroad("1K", overlap=0.5, num_frames=10)
        left, right = ds.videos(0, 10)
        with VSSEngine(tmp_path / "store", calibration=calibration,
                       cache_reads=False) as engine:
            session = engine.session()
            session.write("left", left, codec="h264", qp=10, gop_size=5)
            session.write("right", right, codec="h264", qp=10, gop_size=5)
            yield engine, left, right

    def test_optimize_reduces_storage(self, joint_store):
        engine, left, right = joint_store
        before = (
            engine.video_stats("left").total_bytes
            + engine.video_stats("right").total_bytes
        )
        report = JointCompressionManager(engine, merge="mean").optimize()
        assert report.pairs_compressed >= 1
        after = (
            engine.video_stats("left").total_bytes
            + engine.video_stats("right").total_bytes
        )
        assert after < before
        assert report.savings_fraction > 0.0

    def test_reads_transparent_after_joint_compression(self, joint_store):
        engine, left, right = joint_store
        JointCompressionManager(engine, merge="mean").optimize()
        duration = 10 / 30
        session = engine.session()
        got_left = session.read("left", 0.0, duration, codec="raw").segment
        got_right = session.read("right", 0.0, duration, codec="raw").segment
        assert segment_psnr(left, got_left) >= 26.0
        assert segment_psnr(right, got_right) >= 26.0

    def test_same_video_pairs_skipped(self, joint_store):
        engine, _, _ = joint_store
        report = JointCompressionManager(engine, merge="mean").optimize(
            names=["left"]
        )
        assert report.pairs_compressed == 0

    def test_report_quality_recorded(self, joint_store):
        engine, _, _ = joint_store
        report = JointCompressionManager(engine, merge="unprojected").optimize()
        if report.pairs_compressed:
            assert all(q >= 250.0 for q in report.quality_left_db)
