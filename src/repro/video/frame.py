"""Frames, pixel formats, and in-memory video segments.

The VSS paper's physical parameter ``P`` includes a frame layout ``l``
(``rgb``, ``yuv420``, ``yuv422``, ...).  This module defines those layouts
and the conversions between them.

In-memory representation
------------------------
A :class:`VideoSegment` is a contiguous run of frames that share a pixel
format, resolution, and frame rate.  Pixels are stored in a single numpy
array whose per-frame layout depends on the format:

=========  ===========================  ==============
format     per-frame array shape        bits per pixel
=========  ===========================  ==============
rgb        ``(H, W, 3)`` uint8          24
gray       ``(H, W)`` uint8             8
yuv420     ``(3*H//2, W)`` uint8        12
yuv422     ``(2*H, W)`` uint8           16
=========  ===========================  ==============

The planar YUV layouts follow the conventional I420/I422 arrangement: the
luma plane occupies the first ``H`` rows, followed by the (subsampled)
chroma planes flattened into width-``W`` rows.  Chroma-subsampled formats
require even frame dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import FormatError

# BT.601 full-range luma weights, shared by the gray and YUV conversions.
_KR, _KG, _KB = 0.299, 0.587, 0.114


@dataclass(frozen=True)
class PixelFormatSpec:
    """Static description of a pixel format.

    ``bits_per_pixel`` is the storage density used by size accounting and by
    the MBPP/S-based compression-quality estimate (paper section 3.2).
    """

    name: str
    bits_per_pixel: int
    channels: int
    subsampled: bool

    def frame_shape(self, height: int, width: int) -> tuple[int, ...]:
        """Shape of a single frame's pixel array at ``height`` x ``width``."""
        if self.name == "rgb":
            return (height, width, 3)
        if self.name == "gray":
            return (height, width)
        if self.name == "yuv420":
            _require_even(height, width, self.name)
            return (3 * height // 2, width)
        if self.name == "yuv422":
            _require_even(height, width, self.name)
            return (2 * height, width)
        raise FormatError(f"unknown pixel format {self.name!r}")

    def frame_bytes(self, height: int, width: int) -> int:
        """Bytes required to store one uncompressed frame."""
        return height * width * self.bits_per_pixel // 8


PIXEL_FORMATS: dict[str, PixelFormatSpec] = {
    "rgb": PixelFormatSpec("rgb", 24, 3, False),
    "gray": PixelFormatSpec("gray", 8, 1, False),
    "yuv420": PixelFormatSpec("yuv420", 12, 3, True),
    "yuv422": PixelFormatSpec("yuv422", 16, 3, True),
}


def pixel_format(name: str) -> PixelFormatSpec:
    """Look up a pixel format by name, raising :class:`FormatError` if
    unknown."""
    try:
        return PIXEL_FORMATS[name]
    except KeyError:
        raise FormatError(
            f"unknown pixel format {name!r}; expected one of "
            f"{sorted(PIXEL_FORMATS)}"
        ) from None


def _require_even(height: int, width: int, name: str) -> None:
    if height % 2 or width % 2:
        raise FormatError(
            f"format {name!r} requires even dimensions, got {width}x{height}"
        )


@dataclass
class VideoSegment:
    """A run of same-format frames plus the metadata needed to interpret it.

    ``start_time`` is in seconds relative to the logical video's origin, so
    segments can be compared and concatenated on the logical timeline.
    """

    pixels: np.ndarray
    pixel_format: str
    height: int
    width: int
    fps: float
    start_time: float = 0.0

    def __post_init__(self) -> None:
        spec = pixel_format(self.pixel_format)
        expected = spec.frame_shape(self.height, self.width)
        if self.pixels.ndim != len(expected) + 1:
            raise FormatError(
                f"pixel array has {self.pixels.ndim} dims; expected frames "
                f"of shape {expected} stacked on axis 0"
            )
        if tuple(self.pixels.shape[1:]) != expected:
            raise FormatError(
                f"frame shape {tuple(self.pixels.shape[1:])} does not match "
                f"{self.pixel_format} at {self.width}x{self.height} "
                f"(expected {expected})"
            )
        if self.pixels.dtype != np.uint8:
            raise FormatError(f"pixels must be uint8, got {self.pixels.dtype}")
        if self.fps <= 0:
            raise FormatError(f"fps must be positive, got {self.fps}")

    # ------------------------------------------------------------------
    # basic geometry
    # ------------------------------------------------------------------
    @property
    def num_frames(self) -> int:
        return int(self.pixels.shape[0])

    @property
    def duration(self) -> float:
        """Seconds of video covered by this segment."""
        return self.num_frames / self.fps

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration

    @property
    def resolution(self) -> tuple[int, int]:
        """``(width, height)`` in pixels."""
        return (self.width, self.height)

    @property
    def nbytes(self) -> int:
        """Uncompressed size in bytes."""
        return int(self.pixels.nbytes)

    @property
    def pixel_count(self) -> int:
        """Total luma-resolution pixels across all frames (the ``|f|`` of the
        paper's transcode cost formula)."""
        return self.num_frames * self.height * self.width

    def frame(self, index: int) -> np.ndarray:
        """The ``index``-th frame's raw pixel array (a view, not a copy)."""
        return self.pixels[index]

    def time_of(self, index: int) -> float:
        return self.start_time + index / self.fps

    # ------------------------------------------------------------------
    # slicing and concatenation on the logical timeline
    # ------------------------------------------------------------------
    def slice_frames(self, start: int, stop: int) -> "VideoSegment":
        """Sub-segment covering frames ``[start, stop)``."""
        if not 0 <= start <= stop <= self.num_frames:
            raise ValueError(
                f"frame slice [{start}, {stop}) out of range "
                f"[0, {self.num_frames})"
            )
        return replace(
            self,
            pixels=self.pixels[start:stop],
            start_time=self.time_of(start),
        )

    def slice_time(self, start: float, end: float) -> "VideoSegment":
        """Sub-segment covering timeline interval ``[start, end)``.

        Frame boundaries are snapped outward so the result fully covers the
        requested interval.
        """
        first = int(np.floor((start - self.start_time) * self.fps + 1e-9))
        last = int(np.ceil((end - self.start_time) * self.fps - 1e-9))
        first = max(first, 0)
        last = min(last, self.num_frames)
        return self.slice_frames(first, max(first, last))

    def copy(self) -> "VideoSegment":
        return replace(self, pixels=self.pixels.copy())

    @staticmethod
    def concatenate(segments: list["VideoSegment"]) -> "VideoSegment":
        """Join temporally consecutive segments that share format/geometry."""
        if not segments:
            raise ValueError("cannot concatenate zero segments")
        head = segments[0]
        for seg in segments[1:]:
            if (seg.pixel_format, seg.resolution, seg.fps) != (
                head.pixel_format,
                head.resolution,
                head.fps,
            ):
                raise FormatError(
                    "segments must share pixel format, resolution, and fps "
                    "to concatenate"
                )
        pixels = np.concatenate([seg.pixels for seg in segments], axis=0)
        return replace(head, pixels=pixels)

    # ------------------------------------------------------------------
    # plane access (used by the block codec, which encodes per plane)
    # ------------------------------------------------------------------
    def planes(self, index: int) -> list[np.ndarray]:
        """2-D planes of frame ``index`` in encode order."""
        return frame_planes(self.frame(index), self.pixel_format, self.height, self.width)


def frame_planes(
    frame: np.ndarray, fmt: str, height: int, width: int
) -> list[np.ndarray]:
    """Split a single frame array into its 2-D planes.

    rgb yields [R, G, B]; gray yields [Y]; yuv formats yield [Y, U, V] with
    the chroma planes at their subsampled geometry.
    """
    if fmt == "rgb":
        return [frame[:, :, c] for c in range(3)]
    if fmt == "gray":
        return [frame]
    if fmt == "yuv420":
        y = frame[:height]
        chroma = frame[height:].reshape(2, height // 2, width // 2)
        return [y, chroma[0], chroma[1]]
    if fmt == "yuv422":
        y = frame[:height]
        chroma = frame[height:].reshape(2, height, width // 2)
        return [y, chroma[0], chroma[1]]
    raise FormatError(f"unknown pixel format {fmt!r}")


def planes_to_frame(
    planes: list[np.ndarray], fmt: str, height: int, width: int
) -> np.ndarray:
    """Inverse of :func:`frame_planes`."""
    if fmt == "rgb":
        return np.stack(planes, axis=-1)
    if fmt == "gray":
        return planes[0]
    if fmt in ("yuv420", "yuv422"):
        y, u, v = planes
        # U then V, packed contiguously and folded into width-W rows: one
        # plane alone need not fill whole rows (see ``_from_rgb``).
        chroma = np.concatenate([u.ravel(), v.ravel()]).reshape(-1, width)
        return np.concatenate([y, chroma], axis=0)
    raise FormatError(f"unknown pixel format {fmt!r}")


def frames_plane_views(
    frames: np.ndarray, fmt: str, height: int, width: int
) -> list[np.ndarray]:
    """Writable per-plane views over a whole ``(N, *frame_shape)`` stack.

    Each view is the ``(N, h_p, w_p)`` slice of ``frames`` that
    :func:`frame_planes` yields frame by frame; writing a decoded plane
    stack through the view assembles every frame with zero copies, which
    is why the codec's batched decode tail uses this instead of a
    stack/concatenate pass.  All views alias ``frames`` — no data moves
    until the caller writes through them.
    """
    if fmt == "rgb":
        return [frames[..., c] for c in range(3)]
    if fmt == "gray":
        return [frames]
    if fmt in ("yuv420", "yuv422"):
        n = frames.shape[0]
        # U then V fill each frame's chroma rows contiguously (see
        # planes_to_frame).  One plane need not end on a row boundary
        # (H = 26 in yuv420 gives 6.5 rows each), so split the flattened
        # chroma bytes, not the rows; each half reshapes — per frame,
        # contiguously — to the subsampled plane geometry.
        chroma = frames[:, height:].reshape(n, -1)
        half = chroma.shape[1] // 2
        half_w = width // 2
        return [
            frames[:, :height],
            chroma[:, :half].reshape(n, -1, half_w),
            chroma[:, half:].reshape(n, -1, half_w),
        ]
    raise FormatError(f"unknown pixel format {fmt!r}")


# ----------------------------------------------------------------------
# colour-space conversion (vectorized over whole segments)
# ----------------------------------------------------------------------
def _rgb_to_yuv_channels(rgb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    r = rgb[..., 0].astype(np.float32)
    g = rgb[..., 1].astype(np.float32)
    b = rgb[..., 2].astype(np.float32)
    y = _KR * r + _KG * g + _KB * b
    u = 128.0 + 0.564 * (b - y)
    v = 128.0 + 0.713 * (r - y)
    return y, u, v


def _round_into(out: np.ndarray, values: np.ndarray) -> None:
    """``out[...] = values`` rounded to nearest and clamped to uint8.

    Rounds ``values`` (a float32 temporary the caller is done with) in
    place, so the only pass that is not in cache is the store.
    """
    np.rint(values, out=values)
    np.clip(values, 0, 255, out=values)
    np.copyto(out, values, casting="unsafe")


def _yuv_to_rgb(y: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    y = y.astype(np.float32, copy=False)
    du = u.astype(np.float32, copy=False) - 128.0
    dv = v.astype(np.float32, copy=False) - 128.0
    rgb = np.empty((*y.shape, 3), dtype=np.uint8)
    _round_into(rgb[..., 0], y + 1.403 * dv)
    _round_into(rgb[..., 1], y - 0.344 * du - 0.714 * dv)
    _round_into(rgb[..., 2], y + 1.773 * du)
    return rgb


def _pool2(plane: np.ndarray, pool_h: int, pool_w: int) -> np.ndarray:
    """Mean-pool a stack of planes ``(N, H, W)`` by 1 or 2 rows and 2
    columns, as the chroma of yuv422 / yuv420 is.

    The taps are summed pairwise along a row, then across rows: the order
    ``mean`` over the reshaped window uses, a tenth of its time.
    """
    if pool_w != 2 or pool_h not in (1, 2):
        raise ValueError(f"unsupported chroma pooling {pool_h}x{pool_w}")
    top = plane[:, ::pool_h]
    pooled = top[:, :, 0::2] + top[:, :, 1::2]
    if pool_h == 2:
        bottom = plane[:, 1::2]
        pooled += bottom[:, :, 0::2] + bottom[:, :, 1::2]
    pooled /= pool_h * pool_w
    return pooled


def _unpool2(plane: np.ndarray, pool_h: int, pool_w: int) -> np.ndarray:
    """Nearest-neighbour upsample, the inverse layout of :func:`_pool2`."""
    return plane.repeat(pool_h, axis=1).repeat(pool_w, axis=2)


def _to_rgb(segment: VideoSegment) -> np.ndarray:
    """Segment pixels as an ``(N, H, W, 3)`` uint8 array."""
    fmt, h, w = segment.pixel_format, segment.height, segment.width
    px = segment.pixels
    if fmt == "rgb":
        return px
    if fmt == "gray":
        return np.repeat(px[..., None], 3, axis=-1)
    if fmt in ("yuv420", "yuv422"):
        sub_h = 2 if fmt == "yuv420" else 1
        y = px[:, :h].astype(np.float32)
        chroma = px[:, h:].reshape(px.shape[0], 2, h // sub_h, w // 2)
        u = _unpool2(chroma[:, 0].astype(np.float32), sub_h, 2)
        v = _unpool2(chroma[:, 1].astype(np.float32), sub_h, 2)
        return _yuv_to_rgb(y, u, v)
    raise FormatError(f"unknown pixel format {fmt!r}")


def _from_rgb(rgb: np.ndarray, fmt: str, height: int, width: int) -> np.ndarray:
    if fmt == "rgb":
        return rgb
    out = np.empty(
        (rgb.shape[0], *pixel_format(fmt).frame_shape(height, width)),
        dtype=np.uint8,
    )
    y, u, v = _rgb_to_yuv_channels(rgb)
    # The planes are written where they belong in each frame: U then V
    # fill the chroma rows contiguously (see ``frames_plane_views``).
    views = frames_plane_views(out, fmt, height, width)
    _round_into(views[0], y)
    if fmt != "gray":
        pool_h = 2 if fmt == "yuv420" else 1
        _round_into(views[1], _pool2(u, pool_h, 2))
        _round_into(views[2], _pool2(v, pool_h, 2))
    return out


#: Float32 elements per block of frames the whole-segment transforms
#: (:func:`convert_segment`, ``resample.resize_segment``) work through at
#: once.  The conversion runs a dozen float32 temporaries the size of its
#: input; at 2**18 elements each is 1 MiB, so they stay cache-sized and
#: inside the allocator's free lists, where whole-window temporaries
#: (10 MB each for a four-second read) are fresh page-faulted memory on
#: every call.  The resize holds its three scratch stacks for the whole
#: call and sizes its blocks so that together they are this large.
_BLOCK_ELEMENTS = 1 << 18


def frame_blocks(
    num_frames: int, height: int, width: int, channels: int = 1
) -> list[tuple[int, int]]:
    """``[lo, hi)`` frame ranges covering ``num_frames`` in blocks whose
    ``channels``-deep float32 temporaries hold ``_BLOCK_ELEMENTS``
    elements (at least one frame each)."""
    step = max(1, _BLOCK_ELEMENTS // (height * width * channels))
    return [
        (lo, min(lo + step, num_frames)) for lo in range(0, num_frames, step)
    ]


def convert_segment(segment: VideoSegment, fmt: str) -> VideoSegment:
    """Convert a segment to another pixel format.

    Conversions go through RGB; converting to the segment's own format
    returns the segment unchanged (no copy).  The work runs in fixed
    blocks of frames written into one preallocated output — every step
    is elementwise or per frame, so the bytes equal a whole-segment
    conversion's.
    """
    spec = pixel_format(fmt)  # validate early
    if fmt == segment.pixel_format:
        return segment
    height, width = segment.height, segment.width
    pixels = np.empty(
        (segment.num_frames, *spec.frame_shape(height, width)), dtype=np.uint8
    )
    for lo, hi in frame_blocks(segment.num_frames, height, width):
        piece = segment.slice_frames(lo, hi)
        pixels[lo:hi] = _from_rgb(_to_rgb(piece), fmt, height, width)
    return replace(segment, pixels=pixels, pixel_format=fmt)


def blank_segment(
    num_frames: int,
    height: int,
    width: int,
    fps: float,
    fmt: str = "rgb",
    fill: int = 0,
    start_time: float = 0.0,
) -> VideoSegment:
    """Allocate a constant-fill segment (useful for padding and tests)."""
    spec = pixel_format(fmt)
    shape = (num_frames, *spec.frame_shape(height, width))
    pixels = np.full(shape, fill, dtype=np.uint8)
    return VideoSegment(pixels, fmt, height, width, fps, start_time)
