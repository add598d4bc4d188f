"""Tests for joint compression: Algorithm 1, selection, recovery, manager."""

import hashlib
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import VSSEngine
from repro.jointcomp import (
    JointCandidateSelector,
    JointCompressionManager,
    JointCompressor,
)
from repro.jointcomp.algorithm import recover_right_frame, recovery_plan
from repro.jointcomp.selection import random_pairs
from repro.synthetic import visualroad
from repro.video.metrics import segment_psnr
from tests import kernel_oracles as oracle


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
            result.overlap_frames[:1],
            result.right_frames[:1],
            recovery_plan(
                result.homography, result.x_g, right.height, right.width
            ),
            result.x_f,
        )
        from repro.video.metrics import psnr

        assert psnr(right.frame(0), recovered[0]) >= 24.0


@lru_cache(maxsize=None)
def _rendered(pan_rate: float) -> tuple[np.ndarray, np.ndarray]:
    left, right = visualroad(
        "1K", overlap=0.5, num_frames=12, pan_rate=pan_rate
    ).videos(0, 12)
    return left.pixels, right.pixels


def _assert_same_result(got, expected):
    """Field by field: pieces, H, the split, re-estimations, qualities."""
    if expected is None:
        assert got is None
        return
    assert got is not None
    for name in ("x_f", "x_g", "reestimations", "duplicate", "swapped", "merge",
                 "quality_left_db", "quality_right_db"):
        assert getattr(got, name) == getattr(expected, name), name
    for name in ("homography", "left_frames", "overlap_frames", "right_frames"):
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name


def _compress_both(frames_f, frames_g, **options):
    got = JointCompressor(**options).compress(frames_f, frames_g)
    expected = oracle.PerFrameJointCompressor(**options).compress(
        frames_f, frames_g
    )
    _assert_same_result(got, expected)
    return got


#: Rendered pairs are slow to compress twice (about 0.3 s an example): a
#: dozen in tier-1, sixty under ``--hypothesis-profile=deep``.
COMPRESS_EXAMPLES = 12 if settings.default.max_examples <= 100 else 60


@settings(max_examples=COMPRESS_EXAMPLES, deadline=None)
@given(
    frames=st.integers(1, 12),
    pan_rate=st.sampled_from([0.0, 0.3]),
    merge=st.sampled_from(["mean", "unprojected"]),
    every=st.sampled_from([None, 1, 3, 5]),
    bad_frame=st.one_of(st.none(), st.integers(0, 11)),
    shift=st.integers(2, 8),
    swap=st.booleans(),
)
def test_stacked_compress_matches_per_frame_loop(
    frames, pan_rate, merge, every, bad_frame, shift, swap
):
    """Stacked Algorithm 1 against the per-frame loop on rendered pairs:
    static and panning cameras, both merges, fixed re-estimation
    cadences, and a right frame shifted by a few rows so that it (and the
    frame after it, once H follows it) fails verification."""
    frames_f, frames_g = (a[:frames] for a in _rendered(pan_rate))
    if bad_frame is not None and bad_frame < frames:
        frames_g = frames_g.copy()
        frames_g[bad_frame] = np.roll(frames_g[bad_frame], shift, axis=0)
    if swap:
        frames_f, frames_g = frames_g, frames_f
    _compress_both(frames_f, frames_g, merge=merge, reestimate_every=every)


@pytest.mark.parametrize("bad_frame", [0, 3])
def test_a_failing_frame_is_re_estimated_and_resumed(bad_frame):
    """A shifted right frame fails under the first H; re-estimating on
    it passes it, the next frame fails under that H and re-estimates
    back; the pass resumes and the pair is admitted, as per frame."""
    frames_f, frames_g = _rendered(0.0)
    frames_g = frames_g.copy()
    frames_g[bad_frame] = np.roll(frames_g[bad_frame], 4, axis=0)
    result = _compress_both(frames_f, frames_g, merge="mean")
    assert result is not None and result.reestimations >= 1


def test_fixed_cadence_re_estimates_at_each_boundary():
    """reestimate_every ends a pass at each multiple of the cadence."""
    frames_f, frames_g = _rendered(0.3)
    result = _compress_both(frames_f, frames_g, merge="mean", reestimate_every=3)
    assert result is not None and result.reestimations == 3


def test_an_unrecoverable_frame_aborts_the_pair():
    """A right frame that fails again after its re-estimation aborts the
    pair in both loops."""
    frames_f, frames_g = _rendered(0.0)
    frames_g = frames_g.copy()
    frames_g[5] = np.roll(frames_g[5], 37, axis=1)
    assert _compress_both(frames_f, frames_g, merge="unprojected") is None


def test_stacked_right_recovery_is_per_frame_recovery(overlapping_pair):
    """recover_right_frame on a stack equals the per-frame oracle (the
    canvas warped back by H^-1 with the scipy warp) on every frame."""
    ds, left, right = overlapping_pair
    result = JointCompressor(merge="mean").compress(left.pixels, right.pixels)
    plan = recovery_plan(result.homography, result.x_g, right.height, right.width)
    stacked = recover_right_frame(
        result.overlap_frames, result.right_frames, plan, result.x_f
    )
    for i in range(len(stacked)):
        expected = oracle.recover_right_frame(
            result.overlap_frames[i], result.right_frames[i],
            result.homography, result.x_f, result.x_g,
        )
        assert np.array_equal(stacked[i], expected)


#: sha256 of a rendered ``visualroad("1K", overlap=0.5)`` pair (10 frames
#: of each camera; the right one is warped by its perspective skew).
RENDERED_PAIR_SHA256 = (
    "82c6ddc163acff966f39d39a321516aaa89a2f97c009ce26f271f0353cfadd9b"
)


def test_rendered_pair_is_pinned():
    left, right = visualroad("1K", overlap=0.5, num_frames=10).videos(0, 10)
    digest = hashlib.sha256(left.pixels.tobytes() + right.pixels.tobytes())
    assert digest.hexdigest() == RENDERED_PAIR_SHA256


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

    #: sha256 of the joint pieces (name and bytes, in name order) and of
    #: the raw read-backs of both sides after ``optimize(merge="mean")``:
    #: the bytes the per-frame warp produced, which the warp plans, the
    #: decode-cache reuse and the executor-deflated pieces must keep.
    PIECES_SHA256 = (
        "beaa50488450cf833758527d1c4fa137f24a4ddeada105b0746cb427efe9f177"
    )
    READBACK_SHA256 = (
        "fea966ec1326564b20f830152ae66a61bd649d0f0e7830a25ca09f47ca1f529f"
    )

    @pytest.mark.parametrize("warm", [False, True])
    def test_pieces_and_read_backs_are_pinned(self, joint_store, warm):
        """``warm`` reads both videos first, so the decode cache holds
        every original GOP when ``optimize`` decodes them."""
        engine, _, _ = joint_store
        if warm:
            for name in ("left", "right"):
                engine.session().read(name, 0.0, 10 / 30, codec="raw")
        report = JointCompressionManager(engine, merge="mean").optimize()
        assert report.pairs_compressed >= 1
        pieces = hashlib.sha256()
        joint = engine.layout.root / "joint"
        for path in sorted(joint.iterdir()):
            pieces.update(path.name.encode() + b"\0" + path.read_bytes())
        session = engine.session()
        reads = hashlib.sha256()
        for name in ("left", "right"):
            answer = session.read(name, 0.0, 10 / 30, codec="raw", cache=False)
            reads.update(answer.segment.pixels.tobytes())
        assert (pieces.hexdigest(), reads.hexdigest()) == (
            self.PIECES_SHA256, self.READBACK_SHA256
        )

    def test_report_quality_recorded(self, joint_store):
        engine, _, _ = joint_store
        report = JointCompressionManager(engine, merge="unprojected").optimize()
        if report.pairs_compressed:
            assert all(q >= 250.0 for q in report.quality_left_db)
