"""Write path: GOP partitioning, streaming ingest, catalog registration.

Writes partition incoming video into independently decodable GOPs
(compressed) or small fixed-size blocks (uncompressed) — paper section 2 —
and register each GOP in the catalog as soon as its file is durable.
Because GOP rows become visible immediately, readers can query any prefix
of a video that is still being written (the paper's non-blocking streaming
writes); the physical video is marked *sealed* when the stream closes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.catalog import Catalog
from repro.core.layout import Layout
from repro.core.records import ROI, LogicalVideo, PhysicalVideo
from repro.core.specs import WriteSpec
from repro.errors import WriteError
from repro.util import LogicalClock
from repro.video.codec.container import EncodedGOP
from repro.video.codec.quant import QP_DEFAULT
from repro.video.codec.registry import codec_for
from repro.video.frame import VideoSegment


@dataclass
class WriteOutcome:
    """A completed write: the physical video and its GOP count/bytes."""

    physical: PhysicalVideo
    num_gops: int
    nbytes: int


class Writer:
    """Durably stores encoded or raw video under a logical video.

    ``executor`` (an :class:`repro.core.executor.Executor`) parallelizes
    the per-GOP encode work; None encodes serially.
    """

    def __init__(
        self,
        catalog: Catalog,
        layout: Layout,
        clock: LogicalClock,
        executor=None,
    ):
        self.catalog = catalog
        self.layout = layout
        self.clock = clock
        self.executor = executor

    # ------------------------------------------------------------------
    def write_segment(
        self,
        logical: LogicalVideo,
        segment: VideoSegment,
        codec: str = "h264",
        qp: int = QP_DEFAULT,
        gop_size: int | None = None,
        is_original: bool = False,
        mse_estimate: float = 0.0,
        roi: ROI | None = None,
        spec: WriteSpec | None = None,
        format_mse: float = 0.0,
    ) -> WriteOutcome:
        """Encode and store a segment as a new physical video.

        A :class:`WriteSpec` supplies the encode knobs (codec, qp,
        gop_size) when given; the loose kwargs remain for internal
        callers that derive parameters from stored GOPs.
        """
        if spec is not None:
            codec, qp, gop_size = spec.codec, spec.qp, spec.gop_size
        gops = codec_for(codec).encode_segment(
            segment, qp=qp, gop_size=gop_size, executor=self.executor
        )
        return self.write_gops(
            logical,
            gops,
            is_original=is_original,
            mse_estimate=mse_estimate,
            roi=roi,
            format_mse=format_mse,
        )

    def write_gops(
        self,
        logical: LogicalVideo,
        gops: list[EncodedGOP],
        is_original: bool = False,
        mse_estimate: float = 0.0,
        roi: ROI | None = None,
        tile_group_id: int | None = None,
        tile_index: int | None = None,
        format_mse: float = 0.0,
    ) -> WriteOutcome:
        """Store already-encoded GOPs (the API accepts compressed writes
        as-is, preserving ingested GOP structure)."""
        if not gops:
            raise WriteError("cannot write zero GOPs")
        head = gops[0]
        for gop in gops[1:]:
            if (gop.codec, gop.pixel_format, gop.width, gop.height, gop.fps) != (
                head.codec,
                head.pixel_format,
                head.width,
                head.height,
                head.fps,
            ):
                raise WriteError("GOPs in one write must share their format")
        stream = self.open_stream(
            logical,
            codec=head.codec,
            pixel_format=head.pixel_format,
            width=head.width,
            height=head.height,
            fps=head.fps,
            qp=head.qp,
            start_time=head.start_time,
            is_original=is_original,
            mse_estimate=mse_estimate,
            roi=roi,
            tile_group_id=tile_group_id,
            tile_index=tile_index,
            format_mse=format_mse,
        )
        stream.append_gops(gops)
        return stream.close()

    # ------------------------------------------------------------------
    def open_stream(
        self,
        logical: LogicalVideo,
        codec: str,
        pixel_format: str,
        width: int,
        height: int,
        fps: float,
        qp: int = QP_DEFAULT,
        start_time: float = 0.0,
        is_original: bool = False,
        mse_estimate: float = 0.0,
        roi: ROI | None = None,
        gop_size: int | None = None,
        tile_group_id: int | None = None,
        tile_index: int | None = None,
        format_mse: float = 0.0,
    ) -> "StreamWriter":
        """Begin a non-blocking streaming write."""
        physical = self.catalog.add_physical(
            logical_id=logical.id,
            codec=codec,
            pixel_format=pixel_format,
            width=width,
            height=height,
            fps=fps,
            qp=qp,
            roi=roi,
            start_time=start_time,
            end_time=start_time,
            mse_estimate=mse_estimate,
            is_original=is_original,
            sealed=False,
            tile_group_id=tile_group_id,
            tile_index=tile_index,
            format_mse=format_mse,
        )
        return StreamWriter(self, logical, physical, qp, gop_size)


class StreamWriter:
    """Incremental writer for one physical video.

    ``append`` encodes raw segments; ``append_gops`` takes pre-encoded
    GOPs.  Each GOP is durable and catalog-visible when the call returns.
    """

    def __init__(
        self,
        writer: Writer,
        logical: LogicalVideo,
        physical: PhysicalVideo,
        qp: int,
        gop_size: int | None,
    ):
        self._writer = writer
        self._logical = logical
        self.physical = physical
        self._qp = qp
        self._gop_size = gop_size
        self._seq = 0
        self._end_time = physical.start_time
        self._nbytes = 0
        self._closed = False

    @property
    def nbytes(self) -> int:
        return self._nbytes

    @property
    def num_gops(self) -> int:
        return self._seq

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has sealed the stream."""
        return self._closed

    @property
    def has_data(self) -> bool:
        """True when at least one GOP has been appended."""
        return self._seq > 0

    def append(self, segment: VideoSegment) -> None:
        """Encode and append a raw segment at the stream's current end."""
        self._check_open()
        codec = codec_for(self.physical.codec)
        gops = codec.encode_segment(
            segment,
            qp=self._qp,
            gop_size=self._gop_size,
            executor=self._writer.executor,
        )
        self.append_gops(gops)

    def append_gops(self, gops: list[EncodedGOP]) -> None:
        self._check_open()
        catalog = self._writer.catalog
        layout = self._writer.layout
        tick = self._writer.clock.tick()
        for gop in gops:
            # Restamp onto the stream timeline so appends are contiguous.
            placed = gop.with_start_time(self._end_time)
            relpath, nbytes = layout.write_gop(
                self._logical.name, self.physical.id, self._seq, placed
            )
            catalog.add_gop(
                physical_id=self.physical.id,
                seq=self._seq,
                start_time=placed.start_time,
                end_time=placed.end_time,
                num_frames=placed.num_frames,
                frame_types=placed.frame_types,
                nbytes=nbytes,
                path=relpath,
                last_access=tick,
            )
            self._seq += 1
            self._end_time = placed.end_time
            self._nbytes += nbytes
        catalog.update_physical_times(
            self.physical.id, self.physical.start_time, self._end_time
        )

    def close(self) -> WriteOutcome:
        """Seal the physical video; further appends are rejected."""
        self._check_open()
        self._closed = True
        if self._seq == 0:
            raise WriteError("stream closed with no data written")
        self._writer.catalog.seal_physical(self.physical.id)
        physical = self._writer.catalog.get_physical(self.physical.id)
        return WriteOutcome(physical, self._seq, self._nbytes)

    def _check_open(self) -> None:
        if self._closed:
            raise WriteError("stream is closed")

    def __enter__(self) -> "StreamWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self.closed and self.has_data:
            self.close()
