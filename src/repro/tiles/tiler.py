"""Tiled physical layouts: encode a video as independent per-tile streams.

The :class:`Tiler` cuts one *source* physical video into a
:class:`~repro.tiles.grid.TileGrid` of spatial tiles and stores each tile
as its own physical video — one mini-GOP per source GOP, codec ``raw``,
pixel format ``rgb``.  Storing decoded RGB crops is what makes the layout
*bit-exact*: the reader converts every decoded window to RGB before
pasting onto its output canvas, and pure array slicing commutes with that
conversion, so a full-frame read stitched from tiles is byte-identical to
one decoded from the untiled source — for any pixel format and any tile
boundary, with no chroma-alignment constraint.

Raw RGB is bulky, so every tile page is zstd-packed at write time (the
same on-disk form deferred compression produces), which keeps tile groups
within a small multiple of the compressed source instead of tens of
times larger.

The source physical is never removed: tiles are a cached alternative
layout.  Full-frame reads keep planning against the source (the planner
skips tile fragments when the effective ROI is the whole frame), while
ROI reads select only the tiles the request intersects.
"""

from __future__ import annotations

import numpy as np

from repro.core.catalog import Catalog
from repro.core.layout import Layout
from repro.core.reader import Reader
from repro.core.records import LogicalVideo, PhysicalVideo, TileGroupRecord
from repro.core.writer import Writer
from repro.errors import WriteError
from repro.tiles.grid import TileGrid
from repro.video.codec.registry import codec_for
from repro.video.frame import VideoSegment, convert_segment

_EPS = 1e-6

#: zstd level applied to tile pages at write time.  Matches the low end
#: of deferred compression's budget-scaled range: cheap to apply inline
#: without stalling maintenance.
TILE_ZSTD_LEVEL = 3


class Tiler:
    """Builds and replaces tiled layouts of a logical video.

    ``reader`` loads the source's pages (:meth:`Reader.load_stored`).
    """

    def __init__(
        self,
        catalog: Catalog,
        layout: Layout,
        writer: Writer,
        reader: Reader,
    ):
        self.catalog = catalog
        self.layout = layout
        self.writer = writer
        self.reader = reader

    # ------------------------------------------------------------------
    def tile(
        self,
        logical: LogicalVideo,
        source: PhysicalVideo,
        grid: TileGrid,
    ) -> TileGroupRecord:
        """Encode ``source`` as a new tile group laid out by ``grid``."""
        self._check_source(source, grid)
        gops = self.catalog.gops_of_physical(source.id)
        if not gops:
            raise WriteError(f"physical {source.id} has no GOPs to tile")
        for a, b in zip(gops, gops[1:]):
            if abs(a.end_time - b.start_time) > _EPS:
                raise WriteError(
                    f"physical {source.id} has evicted pages; cannot tile a"
                    " non-contiguous source"
                )
        for gop in gops:
            if gop.joint_pair_id is not None:
                raise WriteError(
                    "cannot tile a jointly compressed source; pages share"
                    " pixel data with their pair"
                )

        group = self.catalog.create_tile_group(logical.id, source.id, grid)
        raw = codec_for("raw")
        rects = grid.rects
        streams = [
            self.writer.open_stream(
                logical,
                codec="raw",
                pixel_format="rgb",
                width=x1 - x0,
                height=y1 - y0,
                fps=source.fps,
                qp=0,
                start_time=gops[0].start_time,
                is_original=False,
                # A tile is pixel-identical to the source's RGB decode, so
                # it inherits the source's quality bound unchanged.
                mse_estimate=source.mse_estimate,
                roi=(x0, y0, x1, y1),
                tile_group_id=group.id,
                tile_index=index,
            )
            for index, (x0, y0, x1, y1) in enumerate(rects)
        ]
        for record in gops:
            rgb = convert_segment(self.reader.load_stored(record), "rgb")
            for index, (x0, y0, x1, y1) in enumerate(rects):
                piece = VideoSegment(
                    pixels=np.ascontiguousarray(
                        rgb.pixels[:, y0:y1, x0:x1, :]
                    ),
                    pixel_format="rgb",
                    height=y1 - y0,
                    width=x1 - x0,
                    fps=rgb.fps,
                    start_time=record.start_time,
                )
                streams[index].append_gops([raw.encode_gop(piece)])
        for stream in streams:
            stream.close()
            self._pack_pages(stream.physical.id)
        return group

    def retile(
        self,
        logical: LogicalVideo,
        source: PhysicalVideo,
        grid: TileGrid,
    ) -> TileGroupRecord | None:
        """Replace the logical video's tiled layout with ``grid``.

        Drops every existing tile group (its pages, physicals and record
        in one catalog transaction, then the files it stopped naming),
        then builds the new one from ``source``.  Returns None (leaving
        the current layout in place) when an existing group already uses
        an equal grid.
        """
        existing = self.catalog.tile_groups_of_logical(logical.id)
        if any(g.grid == grid for g in existing):
            return None
        for old in existing:
            self.layout.sweep(self.catalog.delete_tile_group(old.id))
        return self.tile(logical, source, grid)

    # ------------------------------------------------------------------
    def _check_source(self, source: PhysicalVideo, grid: TileGrid) -> None:
        if not source.sealed:
            raise WriteError("cannot tile an unsealed physical video")
        if source.tile_group_id is not None:
            raise WriteError("cannot tile a tile (pick the source physical)")
        if source.roi is not None:
            raise WriteError(
                "tiling requires a full-frame source; got one cropped to"
                f" roi {source.roi}"
            )
        if (grid.width, grid.height) != (source.width, source.height):
            raise WriteError(
                f"grid covers {grid.width}x{grid.height} but the source is"
                f" {source.width}x{source.height}"
            )

    def _pack_pages(self, physical_id: int) -> None:
        """zstd-pack a tile physical's pages in place.

        Recording a nonzero ``zstd_level`` also tells deferred
        compression these pages are already handled.
        """
        for gop in self.catalog.gops_of_physical(physical_id):
            _, nbytes = self.layout.compress_gop_file(
                gop.path, TILE_ZSTD_LEVEL
            )
            self.catalog.set_gop_compression(gop.id, TILE_ZSTD_LEVEL, nbytes)
