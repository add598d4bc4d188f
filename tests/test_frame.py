"""Unit tests for frames, pixel formats, and conversions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.video import frame as frame_module
from repro.video.frame import (
    PIXEL_FORMATS,
    VideoSegment,
    blank_segment,
    convert_segment,
    frame_planes,
    frames_plane_views,
    pixel_format,
    planes_to_frame,
)


def make_segment(n=4, h=12, w=16, fmt="rgb", fps=30.0):
    spec = pixel_format(fmt)
    shape = (n, *spec.frame_shape(h, w))
    rng = np.random.default_rng(0)
    return VideoSegment(
        rng.integers(0, 256, shape, dtype=np.uint8), fmt, h, w, fps
    )


class TestPixelFormats:
    def test_registry_contents(self):
        assert set(PIXEL_FORMATS) == {"rgb", "gray", "yuv420", "yuv422"}

    def test_unknown_format_rejected(self):
        with pytest.raises(FormatError, match="unknown pixel format"):
            pixel_format("nv12")

    @pytest.mark.parametrize(
        "fmt,expected",
        [("rgb", (12, 16, 3)), ("gray", (12, 16)), ("yuv420", (18, 16)),
         ("yuv422", (24, 16))],
    )
    def test_frame_shapes(self, fmt, expected):
        assert pixel_format(fmt).frame_shape(12, 16) == expected

    @pytest.mark.parametrize(
        "fmt,bytes_", [("rgb", 576), ("gray", 192), ("yuv420", 288),
                       ("yuv422", 384)]
    )
    def test_frame_bytes(self, fmt, bytes_):
        assert pixel_format(fmt).frame_bytes(12, 16) == bytes_

    def test_subsampled_formats_require_even_dims(self):
        with pytest.raises(FormatError, match="even"):
            pixel_format("yuv420").frame_shape(11, 16)


class TestVideoSegment:
    def test_geometry_properties(self):
        seg = make_segment(n=6, fps=30.0)
        assert seg.num_frames == 6
        assert seg.duration == pytest.approx(0.2)
        assert seg.end_time == pytest.approx(0.2)
        assert seg.resolution == (16, 12)
        assert seg.pixel_count == 6 * 12 * 16

    def test_shape_validation(self):
        with pytest.raises(FormatError, match="does not match"):
            VideoSegment(
                np.zeros((4, 10, 16, 3), dtype=np.uint8), "rgb", 12, 16, 30.0
            )

    def test_dtype_validation(self):
        with pytest.raises(FormatError, match="uint8"):
            VideoSegment(
                np.zeros((4, 12, 16, 3), dtype=np.float32), "rgb", 12, 16, 30.0
            )

    def test_fps_validation(self):
        with pytest.raises(FormatError, match="fps"):
            make_segment(fps=0.0)

    def test_slice_frames(self):
        seg = make_segment(n=8)
        sub = seg.slice_frames(2, 5)
        assert sub.num_frames == 3
        assert sub.start_time == pytest.approx(2 / 30)
        assert np.array_equal(sub.pixels, seg.pixels[2:5])

    def test_slice_frames_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            make_segment(n=4).slice_frames(0, 9)

    def test_slice_time_covers_interval(self):
        seg = make_segment(n=30)
        sub = seg.slice_time(0.25, 0.75)
        assert sub.start_time <= 0.25 + 1e-9
        assert sub.end_time >= 0.75 - 1e-9

    def test_concatenate_restores_slices(self):
        seg = make_segment(n=9)
        joined = VideoSegment.concatenate(
            [seg.slice_frames(0, 3), seg.slice_frames(3, 9)]
        )
        assert np.array_equal(joined.pixels, seg.pixels)

    def test_concatenate_rejects_mixed_formats(self):
        a = make_segment(fmt="rgb")
        b = make_segment(fmt="gray")
        with pytest.raises(FormatError, match="share"):
            VideoSegment.concatenate([a, b])

    def test_concatenate_empty(self):
        with pytest.raises(ValueError):
            VideoSegment.concatenate([])

    def test_time_of(self):
        seg = make_segment(n=4)
        assert seg.time_of(2) == pytest.approx(2 / 30)

    def test_blank_segment(self):
        seg = blank_segment(3, 12, 16, 30.0, fill=7)
        assert seg.pixels.min() == seg.pixels.max() == 7


class TestPlanes:
    @pytest.mark.parametrize("fmt", ["rgb", "gray", "yuv420", "yuv422"])
    def test_plane_roundtrip(self, fmt):
        seg = make_segment(fmt=fmt)
        frame = seg.frame(0)
        planes = frame_planes(frame, fmt, seg.height, seg.width)
        rebuilt = planes_to_frame(planes, fmt, seg.height, seg.width)
        assert np.array_equal(rebuilt, frame)

    @pytest.mark.parametrize("fmt", ["rgb", "gray", "yuv420", "yuv422"])
    def test_plane_views_alias_the_stack(self, fmt):
        # 26 rows: each yuv420 chroma plane is 13x25 = 6.5 rows of the
        # packed frame, so the U/V split falls inside a row.
        seg = make_segment(n=3, h=26, w=50, fmt=fmt)
        views = frames_plane_views(seg.pixels, fmt, 26, 50)
        for index in range(seg.num_frames):
            for view, plane in zip(views, seg.planes(index)):
                assert np.array_equal(view[index], plane)
        for view in views:
            assert np.shares_memory(view, seg.pixels)
        rebuilt = planes_to_frame(seg.planes(0), fmt, 26, 50)
        assert np.array_equal(rebuilt, seg.frame(0))

    def test_plane_counts(self):
        seg = make_segment(fmt="yuv420")
        planes = seg.planes(0)
        assert len(planes) == 3
        assert planes[0].shape == (12, 16)
        assert planes[1].shape == (6, 8)


class TestConversions:
    @pytest.mark.parametrize("fmt", ["gray", "yuv420", "yuv422"])
    def test_conversion_shapes(self, fmt):
        seg = make_segment()
        out = convert_segment(seg, fmt)
        assert out.pixel_format == fmt
        assert out.resolution == seg.resolution
        assert out.num_frames == seg.num_frames

    def test_identity_conversion_is_noop(self):
        seg = make_segment()
        assert convert_segment(seg, "rgb") is seg

    @pytest.mark.parametrize("fmt", ["gray", "yuv420", "yuv422"])
    def test_blocked_conversion_equals_whole_segment(self, fmt, monkeypatch):
        # ``convert_segment`` works through the frames in fixed blocks to
        # bound its float temporaries; the bytes must equal converting
        # the whole window at once, in both directions, when the window
        # is several blocks plus a remainder.
        seg = make_segment(n=11, h=26, w=50)
        monkeypatch.setattr(frame_module, "_BLOCK_ELEMENTS", 3 * 26 * 50)
        out = convert_segment(seg, fmt)
        whole = frame_module._from_rgb(seg.pixels, fmt, 26, 50)
        assert out.pixels.dtype == np.uint8
        assert np.array_equal(out.pixels, whole)
        back = convert_segment(out, "rgb")
        assert np.array_equal(back.pixels, frame_module._to_rgb(out))
        assert back.start_time == seg.start_time and back.fps == seg.fps

    def test_yuv420_roundtrip_near_lossless_on_smooth_content(self):
        # Chroma subsampling loses high-frequency colour; smooth gradients
        # survive nearly exactly.
        grad = np.linspace(0, 255, 16, dtype=np.uint8)
        frame = np.stack([np.tile(grad, (12, 1))] * 3, axis=-1)
        seg = VideoSegment(frame[None], "rgb", 12, 16, 30.0)
        back = convert_segment(convert_segment(seg, "yuv420"), "rgb")
        assert np.abs(
            back.pixels.astype(int) - seg.pixels.astype(int)
        ).mean() < 4.0

    def test_yuv422_preserves_more_than_yuv420(self):
        seg = make_segment(n=2)
        err420 = np.abs(
            convert_segment(convert_segment(seg, "yuv420"), "rgb").pixels.astype(int)
            - seg.pixels.astype(int)
        ).mean()
        err422 = np.abs(
            convert_segment(convert_segment(seg, "yuv422"), "rgb").pixels.astype(int)
            - seg.pixels.astype(int)
        ).mean()
        assert err422 <= err420 + 0.5

    def test_gray_conversion_is_luma(self):
        seg = make_segment(n=1)
        gray = convert_segment(seg, "gray")
        rgb = seg.pixels[0].astype(np.float64)
        luma = 0.299 * rgb[..., 0] + 0.587 * rgb[..., 1] + 0.114 * rgb[..., 2]
        assert np.abs(gray.pixels[0].astype(np.float64) - luma).max() <= 1.0


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 4),
    h=st.sampled_from([8, 12, 24]),
    w=st.sampled_from([8, 16, 32]),
    fmt=st.sampled_from(["rgb", "gray", "yuv420", "yuv422"]),
)
def test_property_conversion_roundtrip_geometry(n, h, w, fmt):
    """Converting to any format and back preserves geometry and dtype."""
    seg = make_segment(n=n, h=h, w=w)
    converted = convert_segment(seg, fmt)
    back = convert_segment(converted, "rgb")
    assert back.pixels.shape == seg.pixels.shape
    assert back.pixels.dtype == np.uint8


@settings(max_examples=25, deadline=None)
@given(start=st.integers(0, 8), length=st.integers(1, 8))
def test_property_slice_concatenate_identity(start, length):
    seg = make_segment(n=16)
    stop = min(start + length, 16)
    if start >= stop:
        return
    parts = [seg.slice_frames(0, start)] if start else []
    parts.append(seg.slice_frames(start, stop))
    if stop < 16:
        parts.append(seg.slice_frames(stop, 16))
    joined = VideoSegment.concatenate(parts)
    assert np.array_equal(joined.pixels, seg.pixels)
