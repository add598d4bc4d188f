"""The eviction scorer finds each page's covering alternatives once, by
bisection, and must give exactly the scores and evictions of the full
scan it replaced (``tests/kernel_oracles.FullScanCacheManager``).

Bisection relies on one precondition: in ``seq`` order the GOPs of a
physical video are in time order, their start and end times both
nondecreasing.  The writer lays GOPs end to end, eviction only removes
rows, and compaction appends a continuation that starts where the first
video ends (within ``_mergeable``'s 1e-6), so it holds for every catalog
the store builds; both tests below check it on the catalogs they score.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import CacheManager
from repro.core.catalog import Catalog
from repro.core.compaction import Compactor
from repro.core.engine import VSSEngine
from repro.core.layout import Layout
from repro.core.quality import QualityModel
from repro.vbench.calibrate import Calibration
from tests.kernel_oracles import FullScanCacheManager

#: Fragment rois over the 64x36 original: none (full frame), a quadrant,
#: a centre crop, and the full frame spelled out.
_ROIS = [None, (0, 0, 32, 18), (16, 9, 48, 27), (0, 0, 64, 36)]
#: 0 is lossless; 1 and 3 meet tau (40 dB); 20 and 60 do not.
_MSES = [0.0, 1.0, 3.0, 20.0, 60.0]


def assert_gops_in_time_order(catalog: Catalog, logical_id: int) -> None:
    """The bisecting scorer's precondition (module docstring)."""
    for physical in catalog.list_physicals(logical_id):
        gops = catalog.gops_of_physical(physical.id)
        for before, after in zip(gops, gops[1:]):
            assert before.seq < after.seq
            assert before.start_time <= after.start_time
            assert before.end_time <= after.end_time


@st.composite
def catalogs(draw):
    """A description of one logical video's physicals: the original plus
    cached fragments (ROI crops, other GOP lengths and qualities), some
    with a contiguous twin that compaction will merge into them, and a
    set of pages to evict before scoring."""
    fps = draw(st.sampled_from([30.0, 25.0, 29.97]))
    original_frames = draw(st.sampled_from([15, 30]))
    original_gops = draw(st.integers(1, 8))
    physicals = [(True, None, 0.0, 0.0, [original_frames] * original_gops)]
    for _ in range(draw(st.integers(0, 5))):
        start = draw(st.integers(0, original_frames * original_gops - 1)) / fps
        roi = draw(st.sampled_from(_ROIS))
        mse = draw(st.sampled_from(_MSES))
        frames = draw(
            st.lists(st.sampled_from([5, 10, 15, 30, 45]), min_size=1, max_size=6)
        )
        physicals.append((False, roi, mse, start, frames))
        if draw(st.booleans()):
            # A continuation starting where this one ends, give or take
            # the tolerance compaction merges across.
            skew = draw(st.sampled_from([0.0, 4e-7, -4e-7]))
            more = draw(
                st.lists(st.sampled_from([10, 15, 30]), min_size=1, max_size=4)
            )
            physicals.append((False, roi, mse, ("after", skew), more))
    total = sum(len(p[4]) for p in physicals)
    evicted = draw(st.sets(st.integers(0, total - 1), max_size=total // 2))
    touches = draw(st.lists(st.integers(0, 30), min_size=total, max_size=total))
    sizes = draw(
        st.lists(st.integers(1_000, 90_000), min_size=total, max_size=total)
    )
    return fps, physicals, evicted, touches, sizes


def _build(root: Path, description) -> tuple[Catalog, object]:
    """Write ``description`` into a fresh catalog (deterministically, so
    two builds hand out the same row ids), evict its drawn pages, then
    compact."""
    fps, physicals, evicted, touches, sizes = description
    catalog = Catalog(root / "catalog.db")
    logical = catalog.create_logical("v", budget_bytes=0)
    index = 0
    end = 0.0
    for is_original, roi, mse, start, frames in physicals:
        if isinstance(start, tuple):
            start = end + start[1]
        physical = catalog.add_physical(
            logical.id, "h264", "rgb", 64, 36, fps, 14, roi, start, start,
            mse, is_original,
        )
        end = start
        for seq, count in enumerate(frames):
            began, end = end, end + count / fps
            gop = catalog.add_gop(
                physical.id, seq, began, end, count, "I" + "P" * (count - 1),
                sizes[index], f"videos/v/{physical.id}/{seq}.gop",
                last_access=touches[index],
            )
            if index in evicted:
                catalog.delete_gop(gop.id)
            index += 1
        catalog.update_physical_times(physical.id, start, end)
    Compactor(catalog).compact(logical)
    return catalog, catalog.get_logical_by_id(logical.id)


@settings(max_examples=80, deadline=None)
@given(
    description=catalogs(),
    policy=st.sampled_from(["vss", "lru"]),
    budget_fraction=st.floats(0.05, 1.0),
)
def test_bisecting_scorer_matches_the_full_scan(
    description, policy, budget_fraction
):
    quality = QualityModel(Calibration.default())
    with tempfile.TemporaryDirectory() as tmp:
        managers = []
        for name, manager_class in (
            ("fast", CacheManager),
            ("full", FullScanCacheManager),
        ):
            catalog, logical = _build(Path(tmp) / name, description)
            layout = Layout(Path(tmp) / name)
            managers.append(
                (catalog, manager_class(catalog, layout, quality, policy=policy))
            )
        try:
            (catalog, fast), (other, full) = managers
            assert_gops_in_time_order(catalog, logical.id)
            assert fast.scores(logical) == full.scores(logical)
            budget = int(catalog.total_bytes(logical.id) * budget_fraction)
            for each in (catalog, other):
                each.set_budget(logical.id, budget)
            assert fast.enforce_budget(logical) == full.enforce_budget(logical)
            assert fast.scores(logical) == full.scores(logical)
        finally:
            for each, _ in managers:
                each.close()


def test_store_keeps_gops_in_time_order(tmp_path, calibration, three_second_clip):
    # Reads admit fragments, compaction merges contiguous ones and the
    # budget evicts pages: the precondition holds after all of it, and
    # the scorer still agrees with the full scan on the result.
    with VSSEngine(
        tmp_path / "store", calibration=calibration, budget_multiple=2.0
    ) as engine:
        session = engine.session()
        session.write("v", three_second_clip, codec="h264", qp=10, gop_size=15)
        for start in (0.0, 1.0, 0.5, 2.0):
            session.read("v", start, start + 1.0, codec="hevc")
        session.read("v", 0.0, 1.5, codec="raw", roi=(0, 0, 32, 18))
        engine.drain_admissions()
        engine.compact("v")
        engine.enforce_budget("v")
        logical = engine.catalog.get_logical("v")
        assert len(engine.catalog.list_physicals(logical.id)) > 1
        assert_gops_in_time_order(engine.catalog, logical.id)
        full = FullScanCacheManager(
            engine.catalog, engine.layout, engine.quality_model
        )
        assert engine.cache.scores(logical) == full.scores(logical)
