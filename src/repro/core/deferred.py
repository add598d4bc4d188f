"""Deferred compression of uncompressed cache entries (paper section 5.2).

Raw (decoded) video is cached because inference workloads re-read it, but
it is enormous.  When a video's cache usage crosses a threshold (25% of
budget in the prototype), VSS starts losslessly compressing raw pages:

* each uncompressed read of such a video compresses the raw page *least
  likely to be evicted* (the last entry in eviction order — it will live
  longest, so compressing it pays off most), queued after the read, on
  the maintenance step;
* a streaming raw write compresses one page after each appended chunk;
* the compression level scales linearly with consumed budget, trading
  write throughput for space as pressure rises (Figure 13).

Both triggers run under the video's exclusive lock, and a page is
rewritten in place (:meth:`repro.core.layout.Layout.compress_gop_file`),
so no reader ever finds a page's path gone or changed.
"""

from __future__ import annotations

from repro.core.cache import CacheManager
from repro.core.catalog import Catalog
from repro.core.layout import Layout
from repro.core.records import LogicalVideo
from repro.lossless.zstd import level_for_budget

#: Budget fraction above which deferred compression activates.
DEFAULT_THRESHOLD = 0.25


class DeferredCompressionManager:
    """Chooses and losslessly compresses one video's raw pages."""

    def __init__(
        self,
        catalog: Catalog,
        layout: Layout,
        cache: CacheManager,
        threshold: float = DEFAULT_THRESHOLD,
        enabled: bool = True,
    ):
        self.catalog = catalog
        self.layout = layout
        self.cache = cache
        self.threshold = threshold
        self.enabled = enabled

    # ------------------------------------------------------------------
    def active(self, logical: LogicalVideo) -> bool:
        """Deferred compression engages above the usage threshold."""
        return (
            self.enabled
            and self.cache.usage_fraction(logical) > self.threshold
        )

    def level(self, logical: LogicalVideo) -> int:
        """Compression level scaled with remaining budget."""
        usage = self.cache.usage_fraction(logical)
        return level_for_budget(remaining_fraction=1.0 - usage)

    def compress_one(self, logical: LogicalVideo) -> int | None:
        """Compress the raw page least likely to be evicted.

        Returns the compressed GOP id, or None when no raw page is left.
        The caller holds the video's exclusive lock.
        """
        candidates = self._raw_pages(logical)
        if not candidates:
            return None
        scores = self.cache.scores(logical)
        # "Last entry in eviction order" = highest finite score; protected
        # pages (inf) are also fine to compress — they will never leave.
        target = max(candidates, key=lambda g: scores.get(g.id, 0.0))
        level = self.level(logical)
        _, nbytes = self.layout.compress_gop_file(target.path, level)
        self.catalog.set_gop_compression(target.id, level, nbytes)
        return target.id

    def _raw_pages(self, logical: LogicalVideo):
        pages = []
        for physical in self.catalog.list_physicals(logical.id):
            if physical.codec != "raw":
                continue
            for gop in self.catalog.gops_of_physical(physical.id):
                if gop.zstd_level == 0 and gop.joint_pair_id is None:
                    pages.append(gop)
        return pages
