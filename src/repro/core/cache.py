"""Caching and eviction: the LRU_VSS policy of paper section 4.

Physical videos are logically broken into GOP "pages".  Each page's
eviction sequence number is ordinary LRU offset by three corrections:

* **position** ``p(f_i) = min(i, n - i)`` — pages in the middle of a
  physical video score higher (evicting them would fragment the video and
  reads are exponential in fragment count);
* **redundancy** ``r(f_i)`` — pages with higher-quality covering variants
  score lower (they are cheap to lose);
* **baseline** ``b(f_i)`` — infinite for a page that is the *only*
  remaining >= tau-quality cover of its time range: VSS must always be able
  to reproduce the original at lossless quality.

``LRU_vss(f_i) = LRU(f_i) + gamma * p(f_i) - zeta * r(f_i) + b(f_i)`` with
the prototype's gamma = 2, zeta = 1.  Pages are evicted in ascending score
order until the logical video fits its storage budget.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter

from repro.core.catalog import Catalog
from repro.core.layout import Layout
from repro.core.quality import QualityModel
from repro.core.records import GopRecord, LogicalVideo, PhysicalVideo

#: Paper prototype weights: position is weighed above redundancy.
GAMMA = 2.0
ZETA = 1.0

_PROTECTED = float("inf")

_end_time = attrgetter("end_time")


@dataclass
class EvictionReport:
    """What an eviction pass did."""

    evicted_gop_ids: list[int]
    bytes_freed: int
    bytes_after: int
    fit: bool


class CacheManager:
    """Budget enforcement and page eviction for one store."""

    def __init__(
        self,
        catalog: Catalog,
        layout: Layout,
        quality_model: QualityModel,
        policy: str = "vss",
        gamma: float = GAMMA,
        zeta: float = ZETA,
    ):
        if policy not in ("vss", "lru"):
            raise ValueError(f"unknown cache policy {policy!r}")
        self.catalog = catalog
        self.layout = layout
        self.quality_model = quality_model
        self.policy = policy
        self.gamma = gamma
        self.zeta = zeta

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def scores(self, logical: LogicalVideo) -> dict[int, float]:
        """Eviction sequence number per GOP id (higher = keep longer)."""
        physicals = {p.id: p for p in self.catalog.list_physicals(logical.id)}
        gops_by_physical: dict[int, list[GopRecord]] = {}
        for pid in physicals:
            gops_by_physical[pid] = self.catalog.gops_of_physical(pid)
        result: dict[int, float] = {}
        for pid, gops in gops_by_physical.items():
            physical = physicals[pid]
            n = len(gops)
            for i, gop in enumerate(gops):
                alternatives = self._covering_alternatives(
                    physical, gop, physicals, gops_by_physical
                )
                base = float(gop.last_access)
                baseline = self._baseline_offset(physical, alternatives)
                if self.policy == "lru":
                    result[gop.id] = base + baseline
                    continue
                position = float(min(i, n - i))
                # Rank in the u-ordering: the number of higher-quality
                # covering variants of this page.
                redundancy = float(
                    sum(
                        1
                        for other in alternatives
                        if other.mse_estimate < physical.mse_estimate
                    )
                )
                result[gop.id] = (
                    base
                    + self.gamma * position
                    - self.zeta * redundancy
                    + baseline
                )
        return result

    def _covering_alternatives(
        self,
        physical: PhysicalVideo,
        gop: GopRecord,
        physicals: dict[int, PhysicalVideo],
        gops_by_physical: dict[int, list[GopRecord]],
    ) -> list[PhysicalVideo]:
        """Other physical videos whose pages spatiotemporally cover this
        page's extent.

        Each list in ``gops_by_physical`` is in ``seq`` order, in which a
        physical's start and end times both rise (its GOPs are laid end
        to end; compaction appends a continuation).  So the pages that
        overlap ``gop`` are one run, found by bisecting the end times;
        every page outside it would add ``max(0.0, negative) == 0.0``,
        and skipping those leaves ``covered`` the same float.
        """
        alternatives = []
        for pid, other in physicals.items():
            if pid == physical.id:
                continue
            if not self._roi_covers(other, physical):
                continue
            others = gops_by_physical[pid]
            covered = 0.0
            k = bisect_right(others, gop.start_time, key=_end_time)
            while k < len(others) and others[k].start_time < gop.end_time:
                lo = max(others[k].start_time, gop.start_time)
                hi = min(others[k].end_time, gop.end_time)
                covered += max(0.0, hi - lo)
                k += 1
            if covered >= gop.duration - 1e-6:
                alternatives.append(other)
        return alternatives

    @staticmethod
    def _roi_covers(covering: PhysicalVideo, covered: PhysicalVideo) -> bool:
        if covering.roi is None:
            return True
        if covered.roi is None:
            return False
        a, b = covering.roi, covered.roi
        return a[0] <= b[0] and a[1] <= b[1] and a[2] >= b[2] and a[3] >= b[3]

    def _baseline_offset(
        self, physical: PhysicalVideo, alternatives: list[PhysicalVideo]
    ) -> float:
        """+inf when this page is the only >= tau cover of its extent;
        ``alternatives`` are its :meth:`_covering_alternatives`.

        Pages of the originally written physical video are always part of
        the baseline cover (the prototype is no-overwrite, and keeping the
        original pinned guarantees the >= tau cover exists no matter what
        mix of cached variants eviction removes).
        """
        if physical.is_original:
            return _PROTECTED
        if not self.quality_model.meets_tau(physical):
            return 0.0
        for other in alternatives:
            if self.quality_model.meets_tau(other):
                return 0.0
        return _PROTECTED

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def enforce_budget(self, logical: LogicalVideo) -> EvictionReport:
        """Evict pages (ascending score) until the logical video fits its
        budget; protected pages are never evicted."""
        logical = self.catalog.get_logical_by_id(logical.id)  # fresh budget
        total = self.catalog.total_bytes(logical.id)
        if logical.budget_bytes <= 0 or total <= logical.budget_bytes:
            return EvictionReport([], 0, total, True)
        scores = self.scores(logical)
        gops = {g.id: g for g in self.catalog.gops_of_logical(logical.id)}
        order = sorted(
            (gid for gid in scores if scores[gid] != _PROTECTED),
            key=lambda gid: scores[gid],
        )
        # Live view used to re-check baseline protection as pages leave:
        # evicting a page can make a previously redundant page the sole
        # lossless cover of its extent, and that page must then survive
        # even if its (stale) score said otherwise.
        physicals = {p.id: p for p in self.catalog.list_physicals(logical.id)}
        live: dict[int, list[GopRecord]] = {
            pid: self.catalog.gops_of_physical(pid) for pid in physicals
        }
        evicted: list[int] = []
        unnamed: list[str] = []
        freed = 0
        for gid in order:
            if total - freed <= logical.budget_bytes:
                break
            record = gops[gid]
            if record.joint_pair_id is not None:
                # Joint pages share storage with their partner; eviction is
                # handled by the joint-compression manager.
                continue
            physical = physicals[record.physical_id]
            alternatives = self._covering_alternatives(
                physical, record, physicals, live
            )
            if self._baseline_offset(physical, alternatives) == _PROTECTED:
                continue
            unnamed += self.catalog.delete_gop(gid)
            freed += record.nbytes
            live[record.physical_id] = [
                g for g in live[record.physical_id] if g.id != gid
            ]
            evicted.append(gid)
        remaining = total - freed
        for physical in self.catalog.list_physicals(logical.id):
            if not physical.is_original and not self.catalog.gops_of_physical(
                physical.id
            ):
                unnamed += self.catalog.delete_physical(physical.id)
        self.layout.sweep(unnamed)
        return EvictionReport(
            evicted, freed, remaining, remaining <= logical.budget_bytes
        )

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def usage_fraction(self, logical: LogicalVideo) -> float:
        """Consumed fraction of the storage budget (0 when unbounded)."""
        logical = self.catalog.get_logical_by_id(logical.id)
        if logical.budget_bytes <= 0:
            return 0.0
        return self.catalog.total_bytes(logical.id) / logical.budget_bytes
