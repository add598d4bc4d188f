"""Tests for the vision substrate: features, matching, homography,
histograms, detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HomographyError
from tests.kernel_oracles import (
    detect_vehicles_float,
    float_paint_mask,
    histogram_bins_int64,
)
from repro.synthetic import visualroad
from repro.vision.detection import (
    VEHICLE_PALETTE,
    classify_color,
    detect_vehicles,
    matches_search_color,
    paint_mask,
)
from repro.vision.features import (
    describe_keypoints,
    detect_and_describe,
    detect_keypoints,
)
from repro.vision.histogram import (
    color_distance,
    color_histogram,
    dominant_color,
    histogram_distance,
)
from repro.vision.homography import (
    apply_homography,
    estimate_homography,
    homography_identity_distance,
    perspective_skew_homography,
    ransac_homography,
    translation_homography,
    warp_perspective,
)
from repro.vision.matching import match_descriptors, matched_points


def checkerboard(h=64, w=96, square=8):
    ys, xs = np.mgrid[0:h, 0:w]
    board = (((ys // square) + (xs // square)) % 2 * 255).astype(np.uint8)
    return np.repeat(board[..., None], 3, axis=-1)


class TestFeatures:
    def test_corners_found_on_checkerboard(self):
        kps = detect_keypoints(checkerboard(), max_keypoints=100)
        assert len(kps) > 10

    def test_no_keypoints_on_flat_image(self):
        flat = np.full((64, 64, 3), 128, dtype=np.uint8)
        assert detect_keypoints(flat) == []

    def test_keypoints_respect_budget(self):
        kps = detect_keypoints(checkerboard(), max_keypoints=5)
        assert len(kps) <= 5

    def test_keypoints_avoid_borders(self):
        for kp in detect_keypoints(checkerboard()):
            assert 8 <= kp.x <= 96 - 8
            assert 8 <= kp.y <= 64 - 8

    def test_descriptor_shape_and_scale(self):
        image = checkerboard()
        kps, descs = detect_and_describe(image, max_keypoints=20)
        assert descs.shape == (len(kps), 128)
        norms = np.linalg.norm(descs, axis=1)
        assert np.all(norms <= 512.0 + 1e-3)

    def test_empty_keypoints_empty_descriptors(self):
        descs = describe_keypoints(checkerboard(), [])
        assert descs.shape == (0, 128)


class TestMatching:
    def test_self_match_is_identity(self):
        # A non-repeating texture: repeated patterns (e.g. checkerboards)
        # legitimately produce ambiguous matches, which is exactly what
        # the ratio test is for.
        rng = np.random.default_rng(3)
        from scipy.ndimage import gaussian_filter

        image = gaussian_filter(
            rng.uniform(0, 255, (64, 96, 3)), (2, 2, 0)
        ).astype(np.uint8)
        kps, descs = detect_and_describe(image, max_keypoints=30)
        matches = match_descriptors(descs, descs.copy())
        assert len(matches) > 0
        for m in matches:
            assert m.index_a == m.index_b
            assert m.distance < 1e-3

    def test_distance_threshold_filters(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0, 512, (10, 128)).astype(np.float32)
        b = rng.uniform(0, 512, (10, 128)).astype(np.float32)
        # Random descriptors land far apart; a tiny threshold kills all.
        assert match_descriptors(a, b, max_distance=1.0) == []

    def test_empty_inputs(self):
        empty = np.zeros((0, 128), dtype=np.float32)
        assert match_descriptors(empty, empty) == []

    def test_matched_points_extracts_coordinates(self):
        image = checkerboard()
        kps, descs = detect_and_describe(image, max_keypoints=10)
        matches = match_descriptors(descs, descs)
        pts_a, pts_b = matched_points(matches, kps, kps)
        assert pts_a.shape == pts_b.shape == (len(matches), 2)
        assert np.array_equal(pts_a, pts_b)


class TestHomography:
    def test_dlt_recovers_known_transform(self):
        h_true = np.array([[1.1, 0.02, 5.0], [0.01, 0.95, -3.0], [1e-4, 0, 1.0]])
        src = np.array(
            [[0, 0], [50, 5], [45, 40], [3, 38], [25, 20], [10, 30]], float
        )
        dst = apply_homography(h_true, src)
        h_est = estimate_homography(src, dst)
        assert np.allclose(h_est, h_true / h_true[2, 2], atol=1e-6)

    def test_insufficient_points_rejected(self):
        with pytest.raises(HomographyError):
            estimate_homography(np.zeros((3, 2)), np.zeros((3, 2)))

    def test_ransac_survives_outliers(self):
        rng = np.random.default_rng(1)
        h_true = translation_homography(12.0, -4.0)
        src = rng.uniform(0, 100, (40, 2))
        dst = apply_homography(h_true, src)
        # Corrupt 30% of the correspondences.
        bad = rng.choice(40, size=12, replace=False)
        dst[bad] += rng.uniform(20, 60, (12, 2))
        h_est, inliers = ransac_homography(src, dst, seed=3)
        assert inliers.sum() >= 25
        probe = np.array([[10.0, 10.0], [80.0, 60.0]])
        assert np.allclose(
            apply_homography(h_est, probe), apply_homography(h_true, probe),
            atol=0.5,
        )

    def test_ransac_needs_min_inliers(self):
        rng = np.random.default_rng(2)
        src = rng.uniform(0, 100, (10, 2))
        dst = rng.uniform(0, 100, (10, 2))  # garbage correspondences
        with pytest.raises(HomographyError):
            ransac_homography(src, dst, min_inliers=9, iterations=50)

    def test_identity_distance(self):
        assert homography_identity_distance(np.eye(3)) == pytest.approx(0.0)
        assert homography_identity_distance(2.0 * np.eye(3)) == pytest.approx(0.0)
        shifted = translation_homography(5.0, 0.0)
        assert homography_identity_distance(shifted) >= 5.0

    def test_warp_translation(self):
        image = checkerboard(32, 48)
        h = translation_homography(8.0, 0.0)
        warped, valid = warp_perspective(image, h, (32, 48))
        assert np.array_equal(warped[:, 8:], image[:, :-8])
        assert not valid[:, :8].any()
        assert valid[:, 8:].all()

    def test_warp_identity(self):
        image = checkerboard(32, 48)
        warped, valid = warp_perspective(image, np.eye(3), (32, 48))
        assert np.array_equal(warped, image)
        assert valid.all()

    def test_warp_inverse_roundtrip(self):
        image = checkerboard(48, 64, square=16).astype(np.uint8)
        h = perspective_skew_homography(64, 48, 0.03)
        warped, _ = warp_perspective(image, h, (48, 64))
        back, valid = warp_perspective(warped, np.linalg.inv(h), (48, 64))
        diff = np.abs(
            back.astype(int)[valid] - image.astype(int)[valid]
        ).mean()
        assert diff < 30.0  # interpolation blur only

    def test_skew_homography_identity_at_zero(self):
        h = perspective_skew_homography(64, 48, 0.0)
        assert np.allclose(h, np.eye(3), atol=1e-9)


class TestHistogram:
    def test_histogram_sums_to_one(self):
        hist = color_histogram(checkerboard())
        assert hist.sum() == pytest.approx(1.0)
        assert hist.shape == (64,)

    def test_identical_images_zero_distance(self):
        a = color_histogram(checkerboard())
        assert histogram_distance(a, a.copy()) == 0.0

    def test_different_images_nonzero_distance(self):
        a = color_histogram(checkerboard())
        b = color_histogram(np.full((16, 16, 3), 200, dtype=np.uint8))
        assert histogram_distance(a, b) > 0.1

    def test_dominant_color_of_solid_image(self):
        solid = np.full((16, 16, 3), (200, 30, 30), dtype=np.uint8)
        dom = dominant_color(solid)
        assert color_distance(dom, (200, 30, 30)) < 40.0

    def test_empty_image(self):
        assert dominant_color(np.zeros((0, 0, 3), dtype=np.uint8)) == (0, 0, 0)


class TestDetection:
    @pytest.fixture(scope="class")
    def scene_frame(self):
        ds = visualroad("1K", overlap=0.3, num_frames=2)
        segment = ds.video(0, 0, 1)
        truth = [
            b
            for b in ds.rig.scene.ground_truth(0)
        ]
        return segment.frame(0), truth, ds

    def test_detects_vehicles(self, scene_frame):
        frame, truth, ds = scene_frame
        detections = detect_vehicles(frame)
        assert len(detections) >= 1

    def test_detection_colors_match_palette(self, scene_frame):
        frame, truth, ds = scene_frame
        for det in detect_vehicles(frame):
            assert det.color in VEHICLE_PALETTE

    def test_classify_color_on_solid_regions(self):
        for name, rgb in VEHICLE_PALETTE.items():
            region = np.full((10, 10, 3), rgb, dtype=np.uint8)
            assert classify_color(region) == name

    def test_search_color_predicate(self):
        red = np.full((8, 8, 3), VEHICLE_PALETTE["red"], dtype=np.uint8)
        assert matches_search_color(red, VEHICLE_PALETTE["red"])
        assert not matches_search_color(red, VEHICLE_PALETTE["blue"])

    def test_rejects_non_rgb_input(self):
        with pytest.raises(ValueError):
            detect_vehicles(np.zeros((10, 10), dtype=np.uint8))

    @pytest.mark.parametrize("seed", range(6))
    def test_integer_mask_equals_the_float_distances(self, seed):
        """The squared-distance mask and the detections equal the float32
        ``sqrt`` oracle on random frames, with pixels planted at squared
        distance exactly 3600 (in) and 3601 (out) from red."""
        rng = np.random.default_rng(seed)
        height, width = [(108, 192), (37, 53), (1, 7)][seed % 3]
        frame = rng.integers(0, 256, (height, width, 3), dtype=np.uint8)
        red = np.array(VEHICLE_PALETTE["red"])
        frame[0, 0] = red - (60, 0, 0)
        frame[-1, -1] = red - (60, -1, 0)
        mask = paint_mask(frame)
        assert mask[0, 0] and not mask[-1, -1]
        assert np.array_equal(mask, float_paint_mask(frame))
        assert detect_vehicles(frame) == detect_vehicles_float(frame)

    def test_scene_detections_equal_the_float_distances(self, scene_frame):
        frame, _, _ = scene_frame
        assert np.array_equal(paint_mask(frame), float_paint_mask(frame))
        assert detect_vehicles(frame) == detect_vehicles_float(frame)


@settings(max_examples=15, deadline=None)
@given(dx=st.floats(-20, 20), dy=st.floats(-10, 10))
def test_property_translation_homography_roundtrip(dx, dy):
    h = translation_homography(dx, dy)
    pts = np.array([[0.0, 0.0], [10.0, 5.0], [3.0, 7.0]])
    mapped = apply_homography(h, pts)
    assert np.allclose(mapped - pts, [dx, dy], atol=1e-9)
    back = apply_homography(np.linalg.inv(h), mapped)
    assert np.allclose(back, pts, atol=1e-9)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 100))
def test_property_estimated_homography_maps_inputs(seed):
    """DLT output maps the input correspondences (exactly for exact
    correspondences)."""
    rng = np.random.default_rng(seed)
    h_true = np.eye(3)
    h_true[0, 2] = rng.uniform(-10, 10)
    h_true[1, 2] = rng.uniform(-10, 10)
    h_true[0, 0] = rng.uniform(0.8, 1.2)
    src = rng.uniform(0, 100, (12, 2))
    dst = apply_homography(h_true, src)
    h_est = estimate_homography(src, dst)
    assert np.allclose(apply_homography(h_est, src), dst, atol=1e-5)


# ----------------------------------------------------------------------
# frame adaptation (repro.vision.frame_to_rgb) and input hardening
# ----------------------------------------------------------------------
class TestFrameToRGB:
    def _segment(self):
        from repro.video.frame import VideoSegment

        frame = checkerboard(h=36, w=64)
        return VideoSegment(frame[None], "rgb", 36, 64, fps=30.0)

    def test_rgb_passthrough(self):
        from repro.vision import frame_to_rgb

        frame = checkerboard()
        out = frame_to_rgb(frame, "rgb")
        assert out is frame  # uint8 RGB needs no work at all

    def test_gray_becomes_three_channels(self):
        from repro.vision import frame_to_rgb

        gray = np.arange(36 * 64, dtype=np.uint8).reshape(36, 64) % 251
        out = frame_to_rgb(gray, "gray")
        assert out.shape == (36, 64, 3)
        assert (out[..., 0] == gray).all()
        assert (out[..., 1] == gray).all()

    def test_unit_range_floats_scaled(self):
        from repro.vision import frame_to_rgb

        frame = checkerboard().astype(np.float64) / 255.0
        out = frame_to_rgb(frame, "rgb")
        assert out.dtype == np.uint8
        assert np.array_equal(out, checkerboard())

    @pytest.mark.parametrize("fmt", ["yuv420", "yuv422"])
    def test_yuv_roundtrip_approximates_rgb(self, fmt):
        from repro.video.frame import convert_segment
        from repro.vision import frame_to_rgb

        segment = self._segment()
        packed = convert_segment(segment, fmt)
        out = frame_to_rgb(packed.frame(0), fmt)
        assert out.shape == (36, 64, 3)
        err = np.abs(
            out.astype(np.int16) - segment.frame(0).astype(np.int16)
        )
        # Chroma subsampling smears edges; the interior must agree.
        assert float(err.mean()) < 16.0

    @pytest.mark.parametrize("fmt", ["yuv420", "yuv422"])
    def test_yuv_geometry_mismatch_rejected(self, fmt):
        from repro.errors import FormatError
        from repro.video.frame import convert_segment
        from repro.vision import frame_to_rgb

        packed = convert_segment(self._segment(), fmt)
        with pytest.raises(FormatError):
            frame_to_rgb(packed.frame(0), fmt, height=40, width=64)

    def test_bad_shape_rejected(self):
        from repro.errors import FormatError
        from repro.vision import frame_to_rgb

        with pytest.raises(FormatError):
            frame_to_rgb(np.zeros((4, 4, 4), dtype=np.uint8), "rgb")


class TestHardenedInputs:
    def test_histogram_accepts_floats(self):
        frame = checkerboard()
        assert np.allclose(
            color_histogram(frame.astype(np.float64) / 255.0),
            color_histogram(frame),
        )

    def test_histogram_accepts_grayscale(self):
        gray = checkerboard()[..., 0]
        hist = color_histogram(gray)
        assert hist.shape == (64,)
        assert hist.sum() == pytest.approx(1.0)

    def test_classify_color_accepts_float_region(self):
        for name, rgb in VEHICLE_PALETTE.items():
            region = np.full((10, 10, 3), rgb, dtype=np.float64) / 255.0
            assert classify_color(region) == name

    def test_dominant_color_handles_nan(self):
        # NaNs coerce to 0 rather than poisoning the histogram, so the
        # dominant colour lands in the black bin.
        region = np.full((8, 8, 3), np.nan)
        assert color_distance(dominant_color(region), (0, 0, 0)) < 40.0


class TestHistogramQuantizer:
    """The uint16 bin index against the int64 formula it replaced."""

    @staticmethod
    def _images():
        rng = np.random.default_rng(7)
        rgb = rng.integers(0, 256, size=(36, 64, 3), dtype=np.uint8)
        rgb[0, :4] = [[0, 0, 0], [255, 255, 255], [63, 64, 127], [128, 191, 192]]
        unit = rng.random((20, 30, 3))
        unit[0, 0] = np.nan
        return {
            "rgb": rgb,
            "gray": rgb[..., 1],
            "unit_float": unit,
            "byte_float": rng.uniform(-20.0, 280.0, size=(20, 30, 3)),
            "rendered": visualroad("1K", overlap=0.5, num_frames=1)
            .videos(0, 1)[0]
            .frame(0),
        }

    @pytest.mark.parametrize("bins", [4, 8, 16])
    @pytest.mark.parametrize(
        "kind", ["rgb", "gray", "unit_float", "byte_float", "rendered"]
    )
    def test_equals_the_int64_formula(self, bins, kind):
        image = self._images()[kind]
        counts = histogram_bins_int64(image, bins)
        expected = counts.astype(np.float64) / counts.sum()
        assert color_histogram(image, bins).tobytes() == expected.tobytes()
        winner = int(counts.argmax())
        step, half = 256 // bins, 256 // (2 * bins)
        assert dominant_color(image, bins) == tuple(
            min(255, level * step + half)
            for level in (winner // (bins * bins), (winner // bins) % bins, winner % bins)
        )

    def test_peak_stays_near_two_uint16_planes(self):
        # Two uint16 pixel planes plus bincount's intp copy of the index
        # (12 bytes a pixel); the int64 formula peaked at ~48.
        import tracemalloc

        frame = np.random.default_rng(0).integers(
            0, 256, size=(108, 192, 3), dtype=np.uint8
        )
        for call in (color_histogram, dominant_color):
            call(frame)
            tracemalloc.start()
            try:
                call(frame)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 12 * 108 * 192 + 4096, (call.__name__, peak)


# ----------------------------------------------------------------------
# property tests: the invariants search extraction relies on
# ----------------------------------------------------------------------
_image_seeds = st.integers(0, 10_000)


def _random_image(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(24, 32, 3), dtype=np.uint8)


@settings(max_examples=20, deadline=None)
@given(a=_image_seeds, b=_image_seeds)
def test_property_histogram_distance_symmetric(a, b):
    ha = color_histogram(_random_image(a))
    hb = color_histogram(_random_image(b))
    assert histogram_distance(ha, hb) == pytest.approx(
        histogram_distance(hb, ha)
    )
    assert histogram_distance(ha, hb) >= 0.0


@settings(max_examples=20, deadline=None)
@given(seed=_image_seeds)
def test_property_histogram_self_distance_zero(seed):
    hist = color_histogram(_random_image(seed))
    assert histogram_distance(hist, hist.copy()) == 0.0


@settings(max_examples=10, deadline=None)
@given(seed=_image_seeds)
def test_property_descriptors_deterministic(seed):
    """Extraction runs at ingest and at reindex: the embedding a frame
    produces must be identical both times."""
    frame = _random_image(seed)
    kp1, d1 = detect_and_describe(frame, max_keypoints=32)
    kp2, d2 = detect_and_describe(frame, max_keypoints=32)
    assert np.array_equal(kp1, kp2)
    assert np.array_equal(d1, d2)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1000))
def test_property_detection_boxes_inside_frame(seed):
    from repro.synthetic.scene import RoadScene

    scene = RoadScene(world_width=96, height=36, seed=seed, num_vehicles=5)
    frame = scene.render_world(0)[:, :64]
    for det in detect_vehicles(frame):
        assert 0 <= det.x0 < det.x1 <= 64
        assert 0 <= det.y0 < det.y1 <= 36
