"""Catalog record types shared across the core modules.

These mirror the paper's data model (Figure 2): a *logical video* is the
named unit applications address; each logical video owns one or more
*physical videos* (materialized views — the original write plus cached read
results); each physical video is a sequence of *GOPs*, stored one file per
GOP with a temporal index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # records must not import specs (specs imports ROI).
    from repro.core.specs import ViewSpec

#: Region of interest in original-frame coordinates: (x0, y0, x1, y1).
ROI = tuple[int, int, int, int]


@dataclass(frozen=True)
class LogicalVideo:
    """A named logical video with its storage budget."""

    id: int
    name: str
    budget_bytes: int
    created_at: float


@dataclass(frozen=True)
class ViewRecord:
    """A named derived view persisted in the catalog.

    A view is *virtual*: it owns no physical videos or GOPs, only a
    :class:`repro.core.specs.ViewSpec` describing a transformation over
    ``spec.over`` (a logical video or another view).  View names share
    one namespace with logical video names.
    """

    id: int
    name: str
    spec: "ViewSpec"
    created_at: float

    @property
    def over(self) -> str:
        return self.spec.over


@dataclass(frozen=True)
class PhysicalVideo:
    """One materialized representation of (a region of) a logical video.

    ``roi`` is the region of the *original* frame this physical video
    depicts, in original pixel coordinates (``None`` means the full frame);
    ``width``/``height`` are this video's own pixel dimensions, which may
    rescale that region.  ``mse_estimate`` is the quality model's bound on
    MSE relative to the originally written video, compared in the
    original's pixel format (0 for the original itself); ``sealed`` is False while a streaming write is in progress.
    """

    id: int
    logical_id: int
    codec: str
    pixel_format: str
    width: int
    height: int
    fps: float
    qp: int
    roi: ROI | None
    start_time: float
    end_time: float
    mse_estimate: float
    is_original: bool
    sealed: bool
    #: Tile membership (``repro.tiles``): a tiled layout stores one
    #: physical per tile, all sharing a ``tile_group_id``; ``tile_index``
    #: is this physical's row-major position in the group's grid.  Both
    #: are None for ordinary (untiled) physicals.
    tile_group_id: int | None = None
    tile_index: int | None = None
    #: The part of ``mse_estimate`` that is the loss of converting to
    #: ``pixel_format`` (chroma subsampling, or dropping colour for
    #: ``gray``); 0 for a physical in the original's format.  A read that
    #: asks for this same format pays that loss whatever serves it, so
    #: it sees only :attr:`own_format_mse`.
    format_mse: float = 0.0

    @property
    def own_format_mse(self) -> float:
        """The MSE bound as a read in this physical's own pixel format
        sees it: against the original put through the same conversion."""
        return self.mse_estimate - self.format_mse

    @property
    def resolution(self) -> tuple[int, int]:
        return (self.width, self.height)

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    def roi_or(self, full: ROI) -> ROI:
        return self.roi if self.roi is not None else full


@dataclass(frozen=True)
class GopRecord:
    """One GOP (cache page) of a physical video.

    ``path`` is relative to the store root.  ``zstd_level`` is 0 for a GOP
    stored as a plain container and the compression level for one that
    deferred compression has packed.  ``joint_pair_id``/``joint_role``
    link GOPs that participate in joint compression: their pixel data
    lives in the shared pair record instead of ``path``.
    """

    id: int
    physical_id: int
    seq: int
    start_time: float
    end_time: float
    num_frames: int
    frame_types: str
    nbytes: int
    path: str
    last_access: int = 0
    zstd_level: int = 0
    joint_pair_id: int | None = None
    joint_role: str | None = None

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


@dataclass(frozen=True)
class TileGroupRecord:
    """One tiled layout of (a time range of) a logical video.

    A tile group ties together the per-tile physical videos produced by
    :class:`repro.tiles.Tiler` from one *source* physical: ``grid`` is
    the :class:`repro.tiles.TileGrid` that cut the frame, and each
    member physical carries this record's id in its ``tile_group_id``
    plus its row-major ``tile_index``.  The source physical is kept —
    tiles are a cached alternative layout, never a replacement — so
    full-frame reads keep planning against the original untouched.
    """

    id: int
    logical_id: int
    source_physical_id: int
    grid: "object"  # repro.tiles.TileGrid (kept untyped: no core->tiles dep)
    created_at: float


@dataclass(frozen=True)
class JointPairRecord:
    """Metadata for a jointly compressed pair of GOPs (paper section 5.1).

    The pair's pixel data is stored as three encoded pieces (left,
    overlap, right) plus the homography needed to reconstruct the right
    frames.  ``x_f`` / ``x_g`` are the split columns in the two source
    frames; ``merge`` names the merge function used for overlapping
    pixels.  A ``duplicate`` pair stores only the left piece (the paper's
    pointer-to-near-identical-GOP case).
    """

    id: int
    homography: tuple[float, ...]  # row-major 3x3
    x_f: int
    x_g: int
    merge: str
    left_path: str
    overlap_path: str | None
    right_path: str | None
    nbytes: int
    duplicate: bool


@dataclass
class Fragment:
    """A maximal run of temporally contiguous GOPs within one physical
    video — the planning unit of section 3.

    Evicting a middle GOP splits a physical video into two fragments, which
    is exactly why the eviction policy's position offset exists.
    """

    physical: PhysicalVideo
    gops: list[GopRecord] = field(default_factory=list)

    @property
    def start_time(self) -> float:
        return self.gops[0].start_time

    @property
    def end_time(self) -> float:
        return self.gops[-1].end_time

    @property
    def nbytes(self) -> int:
        return sum(g.nbytes for g in self.gops)

    @property
    def num_frames(self) -> int:
        return sum(g.num_frames for g in self.gops)

    def gops_overlapping(self, start: float, end: float) -> list[GopRecord]:
        return [
            g
            for g in self.gops
            if g.end_time > start + 1e-9 and g.start_time < end - 1e-9
        ]
