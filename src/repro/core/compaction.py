"""Physical video compaction (paper section 5.3).

Caching and deferred compression create pairs of cached physical videos
with contiguous time ranges and identical spatial/physical configurations
(e.g. entries at [0, 90] and [90, 120]).  Each extra physical video
inflates read planning (which is exponential in fragment count), so VSS
periodically and non-quiescently merges contiguous pairs into one unified
representation.

The paper's prototype hard-links the second video's files into the first
and removes the copy; because this store records a path per GOP, the same
effect is achieved by reassigning the GOP rows in one transaction — no
pixel data moves, and a file lives while any row names it.
"""

from __future__ import annotations

from repro.core.catalog import Catalog
from repro.core.records import LogicalVideo, PhysicalVideo

_EPS = 1e-6


def _mergeable(a: PhysicalVideo, b: PhysicalVideo) -> bool:
    """Can ``b`` be appended to ``a``?  Requires identical configuration
    and temporal contiguity."""
    return (
        not a.is_original
        and not b.is_original
        and a.sealed
        and b.sealed
        and a.codec == b.codec
        and a.pixel_format == b.pixel_format
        and a.resolution == b.resolution
        and abs(a.fps - b.fps) < _EPS
        and a.qp == b.qp
        and a.roi == b.roi
        # Tiles only merge with their own tile's continuation: a merge
        # across tile groups (or across tile positions — their rois
        # differ anyway) would corrupt the grid's row-major indexing.
        and a.tile_group_id == b.tile_group_id
        and a.tile_index == b.tile_index
        and abs(a.end_time - b.start_time) < _EPS
    )


class Compactor:
    """Merges contiguous cached physical videos."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    def compact(self, logical: LogicalVideo) -> int:
        """Run compaction to a fixpoint; returns the number of merges."""
        merges = 0
        while self._compact_once(logical):
            merges += 1
        return merges

    def _compact_once(self, logical: LogicalVideo) -> bool:
        physicals = sorted(
            self.catalog.list_physicals(logical.id),
            key=lambda p: (p.start_time, p.id),
        )
        for i, first in enumerate(physicals):
            for second in physicals[i + 1 :]:
                if not _mergeable(first, second):
                    continue
                self._merge(first, second)
                return True
        return False

    def _merge(self, first: PhysicalVideo, second: PhysicalVideo) -> None:
        # The merged video's quality bounds are the weaker of the two, both
        # against the original and as a read in their own format sees them.
        worst = max(first.mse_estimate, second.mse_estimate)
        format_mse = worst - max(first.own_format_mse, second.own_format_mse)
        self.catalog.merge_physicals(first.id, second.id, worst, format_mse)
