"""Unit tests for spatial/temporal resampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.video import frame as frame_module
from repro.video import resample as resample_module
from repro.video.frame import VideoSegment, blank_segment
from repro.video.resample import crop_roi, resample_fps, resize_segment
from tests.test_frame import make_segment


class TestResize:
    def test_downscale_shape(self):
        seg = make_segment(h=24, w=32)
        out = resize_segment(seg, 16, 12)
        assert out.resolution == (16, 12)
        assert out.num_frames == seg.num_frames

    def test_upscale_shape(self):
        out = resize_segment(make_segment(h=12, w=16), 32, 24)
        assert out.resolution == (32, 24)

    def test_identity_resize_is_noop(self):
        seg = make_segment()
        assert resize_segment(seg, seg.width, seg.height) is seg

    def test_constant_content_preserved(self):
        seg = blank_segment(2, 12, 16, 30.0, fill=123)
        out = resize_segment(seg, 8, 6)
        assert np.all(out.pixels == 123)

    @staticmethod
    def _frame_elements(seg, target) -> int:
        """Float32 elements of scratch one frame of ``seg`` -> ``target``
        needs: three RGB stacks of the gathered rows (the source's own
        when it must become RGB first) at the wider width."""
        width, height = target
        rows = height if seg.pixel_format == "rgb" else max(height, seg.height)
        return 3 * 3 * rows * max(width, seg.width)

    @staticmethod
    def _scratch_sizes(monkeypatch) -> list[int]:
        """Record, per ``_lerp_axis`` call, the float32 elements of the
        block's scratch (three rows of ``out.size``)."""
        sizes: list[int] = []
        lerp_axis = resample_module._lerp_axis

        def recording(pixels, new_size, axis, out, tap):
            sizes.append(3 * out.size)
            return lerp_axis(pixels, new_size, axis, out, tap)

        monkeypatch.setattr(resample_module, "_lerp_axis", recording)
        return sizes

    @pytest.mark.parametrize("fmt", ["rgb", "gray", "yuv420"])
    @pytest.mark.parametrize("target", [(24, 12), (80, 40), (50, 12)])
    def test_blocked_resize_equals_whole_segment(self, fmt, target, monkeypatch):
        # The resize runs in bounded blocks of frames; per frame the
        # filter is independent, so several blocks plus a remainder must
        # give the bytes of one block spanning the whole window.
        seg = make_segment(n=11, h=26, w=50, fmt=fmt)
        whole = resize_segment(seg, *target)
        monkeypatch.setattr(
            frame_module, "_BLOCK_ELEMENTS", 3 * self._frame_elements(seg, target)
        )
        passes = self._scratch_sizes(monkeypatch)
        blocked = resize_segment(seg, *target)
        assert len(passes) == 2 * 4  # both axes of 3 + 3 + 3 + 2 frames
        assert blocked.pixels.shape == whole.pixels.shape
        assert np.array_equal(blocked.pixels, whole.pixels)

    @pytest.mark.parametrize("fmt", ["rgb", "yuv420"])
    @pytest.mark.parametrize("target", [(24, 12), (100, 52), (200, 26), (50, 104)])
    def test_block_temporaries_stay_inside_the_bound(self, fmt, target, monkeypatch):
        # Blocks used to be sized by the source alone, so a 2x upscale ran
        # float32 temporaries four times the bound.  All of a block's
        # scratch together now fits ``_BLOCK_ELEMENTS`` whichever way the
        # resize goes -- and is no smaller than it has to be.
        seg = make_segment(n=11, h=26, w=50, fmt=fmt)
        bound = 4 * self._frame_elements(seg, target) + 17
        monkeypatch.setattr(frame_module, "_BLOCK_ELEMENTS", bound)
        sizes = self._scratch_sizes(monkeypatch)
        resize_segment(seg, *target)
        width, height = target
        assert max(sizes) <= bound
        assert max(sizes) == 4 * 9 * height * max(width, seg.width)

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError):
            resize_segment(make_segment(), 0, 10)

    def test_down_up_roundtrip_close_on_smooth_content(self):
        grad = np.linspace(0, 255, 32, dtype=np.uint8)
        frame = np.stack([np.tile(grad, (24, 1))] * 3, axis=-1)
        seg = VideoSegment(frame[None], "rgb", 24, 32, 30.0)
        down = resize_segment(seg, 16, 12)
        up = resize_segment(down, 32, 24)
        assert np.abs(up.pixels.astype(int) - seg.pixels.astype(int)).mean() < 6


class TestCrop:
    def test_rgb_crop(self):
        seg = make_segment(h=24, w=32)
        out = crop_roi(seg, 4, 20, 6, 18)
        assert out.resolution == (16, 12)
        assert np.array_equal(out.pixels, seg.pixels[:, 6:18, 4:20])

    def test_crop_out_of_bounds(self):
        with pytest.raises(ValueError, match="out of bounds"):
            crop_roi(make_segment(), 0, 100, 0, 10)

    def test_crop_empty(self):
        with pytest.raises(ValueError):
            crop_roi(make_segment(), 5, 5, 0, 10)

    def test_yuv420_aligned_crop_matches_rgb_path(self):
        seg = make_segment(h=24, w=32, fmt="rgb")
        from repro.video.frame import convert_segment

        yuv = convert_segment(seg, "yuv420")
        cropped = crop_roi(yuv, 4, 20, 6, 18)
        assert cropped.resolution == (16, 12)
        reference = convert_segment(crop_roi(seg, 4, 20, 6, 18), "yuv420")
        assert (
            np.abs(cropped.pixels.astype(int) - reference.pixels.astype(int)).mean()
            < 2.0
        )

    def test_yuv420_unaligned_crop_works(self):
        from repro.video.frame import convert_segment

        yuv = convert_segment(make_segment(h=24, w=32), "yuv420")
        out = crop_roi(yuv, 3, 19, 5, 17)
        assert out.resolution == (16, 12)
        assert out.pixel_format == "yuv420"


class TestFpsResample:
    def test_downsample_halves_frames(self):
        seg = make_segment(n=30, fps=30.0)
        out = resample_fps(seg, 15.0)
        assert out.num_frames == 15
        assert out.fps == 15.0
        assert out.duration == pytest.approx(seg.duration)

    def test_upsample_duplicates_frames(self):
        seg = make_segment(n=10, fps=10.0)
        out = resample_fps(seg, 30.0)
        assert out.num_frames == 30
        # Every output frame must be an exact copy of some input frame.
        for i in range(out.num_frames):
            assert any(
                np.array_equal(out.pixels[i], seg.pixels[j])
                for j in range(seg.num_frames)
            )

    def test_identity_fps_is_noop(self):
        seg = make_segment()
        assert resample_fps(seg, seg.fps) is seg

    def test_invalid_fps(self):
        with pytest.raises(ValueError):
            resample_fps(make_segment(), -1.0)


@settings(max_examples=20, deadline=None)
@given(factor=st.sampled_from([2, 3, 5]), n=st.integers(2, 20))
def test_property_fps_down_up_preserves_duration(factor, n):
    seg = make_segment(n=n * factor, fps=30.0)
    down = resample_fps(seg, 30.0 / factor)
    assert down.duration == pytest.approx(seg.duration, rel=0.25)
    assert down.num_frames == pytest.approx(n, abs=1)


@settings(max_examples=20, deadline=None)
@given(
    w=st.sampled_from([8, 16, 24, 40]),
    h=st.sampled_from([8, 12, 20]),
)
def test_property_resize_bounds_preserved(w, h):
    """Resizing never produces values outside the input range."""
    seg = make_segment(n=2, h=24, w=32)
    out = resize_segment(seg, w, h)
    assert int(out.pixels.min()) >= int(seg.pixels.min()) - 1
    assert int(out.pixels.max()) <= int(seg.pixels.max()) + 1
