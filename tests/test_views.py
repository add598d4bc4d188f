"""Derived views: virtual videos as first-class, cacheable API objects.

The headline contracts (ISSUE 4 acceptance criteria):

* a read through a view is **bit-identical** to the equivalent
  hand-composed :class:`ReadSpec` against the base video;
* cached fragments produced through a view are attributed to the *base*
  logical video, so a second session reading the same view reuses them
  (asserted via ``ReadStats``/``EngineStats`` counters);
* views compose (view-of-view) by spec folding, with cycle/depth checks
  and clear failure modes for deletes with dependents and writes.

Plus the satellites: the folding algebra itself (window intersection,
ROI re-basing, override precedence), ``Session`` as a context manager
flushing into ``EngineStats``, snapshot-consistent ``list_videos`` /
``exists``, and the Session/VSSClient API parity audit.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.client import VSSBinaryClient, VSSClient
from repro.core.catalog import Catalog
from repro.core.engine import Session, StoreStats, ViewStats, VSSEngine
from repro.core.read_planner import (
    MAX_VIEW_DEPTH,
    fold_view,
    intersect_window,
    merge_views,
    rebase_roi,
)
from repro.core.specs import ReadSpec, ViewSpec
from repro.errors import (
    CatalogError,
    OutOfRangeError,
    ReadError,
    VideoExistsError,
    VideoNotFoundError,
    WriteError,
)


@pytest.fixture()
def engine(tmp_path, calibration) -> VSSEngine:
    eng = VSSEngine(tmp_path / "store", calibration=calibration)
    yield eng
    eng.close()


@pytest.fixture()
def loaded_engine(engine, three_second_clip) -> VSSEngine:
    """An engine with one 3 s, 64x36, h264 original named 'traffic'."""
    session = engine.session()
    session.write(
        "traffic", three_second_clip, codec="h264", qp=10, gop_size=30
    )
    return engine


# ----------------------------------------------------------------------
# ViewSpec validation
# ----------------------------------------------------------------------
class TestViewSpecValidation:
    def test_over_required(self):
        with pytest.raises(ValueError):
            ViewSpec(over="")

    def test_empty_window_rejected(self):
        with pytest.raises(OutOfRangeError):
            ViewSpec(over="v", start=2.0, end=2.0)

    def test_half_open_windows_allowed(self):
        assert ViewSpec(over="v", start=1.0).end is None
        assert ViewSpec(over="v", end=1.0).start is None

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            ViewSpec(over="v", start=bad)
        with pytest.raises(ValueError):
            ViewSpec(over="v", fps=bad)

    def test_malformed_roi_rejected(self):
        with pytest.raises(OutOfRangeError):
            ViewSpec(over="v", roi=(10, 0, 5, 5))

    def test_unknown_codec_rejected(self):
        with pytest.raises(Exception):
            ViewSpec(over="v", codec="av9")

    def test_bad_qp_rejected(self):
        with pytest.raises(ValueError):
            ViewSpec(over="v", qp=-3)

    def test_replace_revalidates(self):
        spec = ViewSpec(over="v", start=0.0, end=2.0)
        assert spec.replace(end=3.0).end == 3.0
        with pytest.raises(OutOfRangeError):
            spec.replace(end=-1.0)


# ----------------------------------------------------------------------
# the folding algebra (pure functions, no store)
# ----------------------------------------------------------------------
class TestFoldAlgebra:
    def test_window_intersection_clamps(self):
        assert intersect_window(0.0, 3.0, 0.5, 2.5) == (0.5, 2.5)
        assert intersect_window(1.0, 2.0, 0.5, 2.5) == (1.0, 2.0)
        assert intersect_window(1.0, 2.0, None, None) == (1.0, 2.0)
        assert intersect_window(1.0, 3.0, None, 2.0) == (1.0, 2.0)

    def test_empty_intersection_raises(self):
        with pytest.raises(OutOfRangeError):
            intersect_window(0.0, 0.5, 1.0, 2.0)

    def test_roi_rebase_shifts_into_parent(self):
        # A (2,2,10,8) request against a view cropping (8,4,40,28).
        assert rebase_roi((2, 2, 10, 8), (8, 4, 40, 28), None) == (
            10,
            6,
            18,
            12,
        )

    def test_roi_passthrough_without_view_crop(self):
        assert rebase_roi((1, 2, 3, 4), None, None) == (1, 2, 3, 4)
        assert rebase_roi(None, (8, 4, 40, 28), None) == (8, 4, 40, 28)

    def test_roi_outside_crop_raises(self):
        with pytest.raises(OutOfRangeError):
            rebase_roi((0, 0, 33, 10), (8, 4, 40, 28), None)  # 32 wide crop

    def test_roi_on_rescaling_view_is_rejected(self):
        with pytest.raises(ReadError):
            rebase_roi((0, 0, 4, 4), (8, 4, 40, 28), (16, 12))
        with pytest.raises(ReadError):
            rebase_roi((0, 0, 4, 4), None, (16, 12))

    def test_roi_on_non_scaling_resolution_is_allowed(self):
        # resolution equal to the crop size is a no-op resize.
        assert rebase_roi((1, 1, 5, 5), (8, 4, 40, 28), (32, 24)) == (
            9,
            5,
            13,
            9,
        )

    def test_fold_window_and_name(self):
        view = ViewSpec(over="base", start=0.5, end=2.5)
        folded = fold_view(ReadSpec("crop", 0.0, 3.0), view)
        assert folded.name == "base"
        assert (folded.start, folded.end) == (0.5, 2.5)

    def test_fold_codec_and_qp_precedence(self):
        view = ViewSpec(over="base", codec="h264", qp=10, quality_db=32.0)
        request = ReadSpec("crop", 0.0, 1.0)  # everything left at defaults
        folded = fold_view(request, view)
        assert folded.codec == "h264" and folded.qp == 10
        assert folded.quality_db == 32.0
        explicit = ReadSpec(
            "crop", 0.0, 1.0, codec="hevc", qp=20, quality_db=45.0
        )
        folded = fold_view(explicit, view)
        assert folded.codec == "hevc" and folded.qp == 20
        assert folded.quality_db == 45.0

    def test_fold_fps_and_resolution_precedence(self):
        view = ViewSpec(over="base", fps=15.0, resolution=(32, 18))
        folded = fold_view(ReadSpec("crop", 0.0, 1.0), view)
        assert folded.fps == 15.0
        assert folded.resolution == (32, 18)
        folded = fold_view(
            ReadSpec("crop", 0.0, 1.0, fps=10.0, resolution=(16, 9)), view
        )
        assert folded.fps == 10.0
        assert folded.resolution == (16, 9)

    def test_fold_sub_roi_defaults_to_crop_size(self):
        # A sub-crop read of an unscaled view must not inherit the
        # view's full-crop resolution (output defaults to the roi size).
        view = ViewSpec(over="base", roi=(8, 4, 40, 28))
        folded = fold_view(
            ReadSpec("crop", 0.0, 1.0, roi=(0, 0, 8, 8)), view
        )
        assert folded.roi == (8, 4, 16, 12)
        assert folded.resolution is None

    def test_fold_twice_equals_chain(self):
        parent = ViewSpec(over="base", start=0.5, end=2.5, roi=(8, 4, 40, 28))
        child = ViewSpec(over="mid", start=1.0, roi=(2, 2, 30, 22))
        request = ReadSpec("leaf", 0.0, 2.0, codec="raw", roi=(1, 1, 9, 9))
        once = fold_view(request, child)  # leaf -> mid coordinates
        twice = fold_view(once, parent)  # mid -> base coordinates
        assert twice.name == "base"
        assert (twice.start, twice.end) == (1.0, 2.0)
        # roi: (1,1,9,9) + (2,2) (child crop) + (8,4) (parent crop).
        assert twice.roi == (11, 7, 19, 15)

    def test_chain_merge_preserves_child_pins(self):
        """A child view's explicit pins beat an ancestor's: views merge
        view-to-view (None = unset) before the request folds in."""
        parent = ViewSpec(over="base", codec="h264", qp=10, quality_db=32.0)
        child = ViewSpec(over="pinned", codec="raw")
        merged = merge_views(child, parent)
        assert merged.over == "base"
        assert merged.codec == "raw"  # the child's explicit choice
        assert merged.qp == 10  # unset on the child: inherited
        assert merged.quality_db == 32.0

    def test_merge_views_windows_and_roi(self):
        parent = ViewSpec(over="base", start=0.5, end=2.5,
                          roi=(8, 4, 40, 28))
        child = ViewSpec(over="mid", start=1.0, roi=(2, 2, 30, 22))
        merged = merge_views(child, parent)
        assert (merged.start, merged.end) == (1.0, 2.5)
        assert merged.roi == (10, 6, 38, 26)
        with pytest.raises(OutOfRangeError):
            merge_views(ViewSpec(over="mid", start=3.0), parent)

    def test_fold_passes_through_unrelated_fields(self):
        view = ViewSpec(over="base")
        request = ReadSpec(
            "v", 0.0, 1.0, pixel_format="gray", quality_db=33.0,
            cache=False, mode="greedy",
        )
        folded = fold_view(request, view)
        assert folded.pixel_format == "gray"
        assert folded.quality_db == 33.0
        assert folded.cache is False
        assert folded.mode == "greedy"


# ----------------------------------------------------------------------
# catalog persistence and namespace
# ----------------------------------------------------------------------
class TestViewCatalog:
    def test_create_list_get_delete(self, loaded_engine):
        spec = ViewSpec(over="traffic", start=0.5, end=2.5)
        record = loaded_engine.create_view("window", spec)
        assert record.name == "window" and record.over == "traffic"
        assert [v.name for v in loaded_engine.list_views()] == ["window"]
        assert loaded_engine.get_view("window").spec == spec
        loaded_engine.delete("window")
        assert loaded_engine.list_views() == []
        with pytest.raises(VideoNotFoundError):
            loaded_engine.get_view("window")

    def test_shared_namespace_both_directions(self, loaded_engine):
        loaded_engine.create_view("v", ViewSpec(over="traffic"))
        with pytest.raises(VideoExistsError):
            loaded_engine.create("v")  # video over existing view name
        with pytest.raises(VideoExistsError):
            loaded_engine.create_view("traffic", ViewSpec(over="v"))

    def test_over_must_exist(self, loaded_engine):
        with pytest.raises(VideoNotFoundError):
            loaded_engine.create_view("v", ViewSpec(over="ghost"))

    def test_self_view_rejected(self, loaded_engine):
        with pytest.raises(CatalogError):
            loaded_engine.create_view("selfie", ViewSpec(over="selfie"))

    def test_views_persist_across_reopen(
        self, tmp_path, calibration, three_second_clip
    ):
        root = tmp_path / "store"
        with VSSEngine(root, calibration=calibration) as engine:
            engine.session().write(
                "traffic", three_second_clip, codec="h264", qp=10, gop_size=30
            )
            engine.create_view(
                "crop", ViewSpec(over="traffic", roi=(8, 4, 40, 28))
            )
        with VSSEngine(root, calibration=calibration) as engine:
            assert engine.exists("crop")
            result = engine.session().read(
                "crop", 0.0, 1.0, codec="raw", cache=False
            )
            assert result.segment.width == 32
            assert result.stats.view_chain == ["crop"]

    def test_incompatible_child_rejected_at_create(self, loaded_engine):
        loaded_engine.create_view(
            "window", ViewSpec(over="traffic", start=0.5, end=1.0)
        )
        with pytest.raises(OutOfRangeError):
            loaded_engine.create_view(
                "later", ViewSpec(over="window", start=2.0, end=3.0)
            )
        loaded_engine.create_view(
            "zoom", ViewSpec(over="traffic", roi=(8, 4, 40, 28),
                             resolution=(64, 48))
        )
        with pytest.raises(ReadError):
            loaded_engine.create_view(
                "sub", ViewSpec(over="zoom", roi=(0, 0, 8, 8))
            )

    def test_transitively_disjoint_window_rejected_at_create(
        self, loaded_engine
    ):
        """Geometry is validated against the whole chain, not just the
        immediate parent: a window disjoint with a grandparent fails at
        creation instead of on every future read."""
        loaded_engine.create_view(
            "early", ViewSpec(over="traffic", start=0.0, end=1.0)
        )
        loaded_engine.create_view("wide", ViewSpec(over="early"))
        with pytest.raises(OutOfRangeError):
            loaded_engine.create_view(
                "late", ViewSpec(over="wide", start=2.0, end=3.0)
            )


# ----------------------------------------------------------------------
# reads through views
# ----------------------------------------------------------------------
class TestViewReads:
    def test_raw_read_bit_identical_to_hand_composed(self, loaded_engine):
        loaded_engine.create_view(
            "crop", ViewSpec(over="traffic", start=0.5, end=2.5,
                             roi=(8, 4, 40, 28))
        )
        session = loaded_engine.session()
        via_view = session.read("crop", 0.0, 3.0, codec="raw", cache=False)
        by_hand = session.read(
            ReadSpec("traffic", 0.5, 2.5, codec="raw", roi=(8, 4, 40, 28),
                     cache=False)
        )
        assert np.array_equal(
            via_view.segment.pixels, by_hand.segment.pixels
        )
        assert via_view.stats.view_chain == ["crop"]
        assert by_hand.stats.view_chain == []

    def test_encoded_read_bit_identical(self, loaded_engine):
        loaded_engine.create_view(
            "clip", ViewSpec(over="traffic", start=0.0, end=2.0,
                             codec="h264", qp=12)
        )
        session = loaded_engine.session()
        via_view = session.read("clip", 0.0, 2.0, cache=False)
        by_hand = session.read(
            ReadSpec("traffic", 0.0, 2.0, codec="h264", qp=12, cache=False)
        )
        assert via_view.gops is not None
        assert [g.payloads for g in via_view.gops] == [
            g.payloads for g in by_hand.gops
        ]

    def test_view_defaults_vs_explicit_request(self, loaded_engine):
        loaded_engine.create_view(
            "lowfps", ViewSpec(over="traffic", fps=15.0)
        )
        session = loaded_engine.session()
        inherited = session.read(
            "lowfps", 0.0, 1.0, codec="raw", cache=False
        )
        assert inherited.segment.fps == 15.0
        overridden = session.read(
            "lowfps", 0.0, 1.0, codec="raw", fps=30.0, cache=False
        )
        assert overridden.segment.fps == 30.0

    def test_read_stream_through_view(self, loaded_engine):
        loaded_engine.create_view(
            "crop", ViewSpec(over="traffic", roi=(8, 4, 40, 28))
        )
        session = loaded_engine.session()
        stream = session.read_stream("crop", 0.0, 3.0, codec="raw",
                                     cache=False)
        collected = stream.collect()
        direct = session.read(
            ReadSpec("traffic", 0.0, 3.0, codec="raw", roi=(8, 4, 40, 28),
                     cache=False)
        )
        assert np.array_equal(
            collected.segment.pixels, direct.segment.pixels
        )
        assert stream.stats.view_chain == ["crop"]
        assert loaded_engine.stats().view_reads >= 1

    def test_read_batch_shares_decode_across_views(self, loaded_engine):
        loaded_engine.create_view(
            "left", ViewSpec(over="traffic", roi=(0, 0, 32, 36))
        )
        loaded_engine.create_view(
            "right", ViewSpec(over="traffic", roi=(32, 0, 64, 36))
        )
        session = loaded_engine.session()
        specs = [
            ReadSpec("left", 0.0, 1.0, codec="raw", cache=False),
            ReadSpec("right", 0.0, 1.0, codec="raw", cache=False),
        ]
        results = session.read_batch(specs)
        # Both views fold onto the same base GOP window: the batch
        # groups them under one logical and decodes that window once.
        batch = session.stats.last_batch
        assert batch.window_requests > batch.unique_gops
        assert results[0].stats.view_chain == ["left"]
        assert results[1].stats.view_chain == ["right"]
        whole = session.read(
            "traffic", 0.0, 1.0, codec="raw", cache=False
        ).segment
        assert np.array_equal(
            results[0].segment.pixels, whole.pixels[:, :, :32]
        )
        assert np.array_equal(
            results[1].segment.pixels, whole.pixels[:, :, 32:]
        )

    def test_raw_pinned_child_of_h264_parent_stays_raw(self, loaded_engine):
        """End to end: chain folding preserves the child view's pins."""
        loaded_engine.create_view(
            "pinned", ViewSpec(over="traffic", codec="h264", qp=10)
        )
        loaded_engine.create_view(
            "rawview", ViewSpec(over="pinned", codec="raw")
        )
        session = loaded_engine.session()
        result = session.read("rawview", 0.0, 1.0, cache=False)
        assert result.segment is not None  # raw pixels, not h264 GOPs
        assert result.stats.view_chain == ["rawview", "pinned"]

    def test_view_of_view_composes(self, loaded_engine):
        loaded_engine.create_view(
            "crop", ViewSpec(over="traffic", start=0.5, end=2.5,
                             roi=(8, 4, 40, 28))
        )
        loaded_engine.create_view(
            "zoom", ViewSpec(over="crop", roi=(2, 2, 30, 22))
        )
        session = loaded_engine.session()
        nested = session.read("zoom", 0.5, 1.5, codec="raw", cache=False)
        direct = session.read(
            ReadSpec("traffic", 0.5, 1.5, codec="raw", roi=(10, 6, 38, 26),
                     cache=False)
        )
        assert nested.stats.view_chain == ["zoom", "crop"]
        assert np.array_equal(nested.segment.pixels, direct.segment.pixels)

    def test_window_clamp_and_miss(self, loaded_engine):
        loaded_engine.create_view(
            "window", ViewSpec(over="traffic", start=1.0, end=2.0)
        )
        session = loaded_engine.session()
        clamped = session.read("window", 0.0, 3.0, codec="raw", cache=False)
        assert clamped.segment.num_frames == 30  # 1 s at 30 fps
        with pytest.raises(OutOfRangeError):
            session.read("window", 2.5, 3.0, codec="raw", cache=False)

    def test_cached_fragments_attributed_to_base_and_reused(
        self, loaded_engine
    ):
        """The acceptance criterion: session B hits what session A cached."""
        loaded_engine.create_view(
            "crop", ViewSpec(over="traffic", start=0.0, end=2.0,
                             roi=(8, 4, 40, 28), codec="h264", qp=10)
        )
        before = loaded_engine.video_stats("traffic").num_physicals
        first = loaded_engine.session()
        cold = first.read("crop", 0.0, 2.0)
        # Admission is asynchronous; drain for a deterministic check
        # that the transcoded crop was admitted under the *base* logical.
        loaded_engine.drain_admissions()
        after = loaded_engine.video_stats("traffic").num_physicals
        assert after == before + 1
        second = loaded_engine.session()
        warm = second.read("crop", 0.0, 2.0)
        assert warm.stats.direct_serve  # served straight from the cache
        assert warm.stats.planned_cost < cold.stats.planned_cost
        assert [g.payloads for g in warm.gops] == [
            g.payloads for g in cold.gops
        ]
        # And a *different* view over the same region shares the bytes.
        loaded_engine.create_view(
            "crop2", ViewSpec(over="traffic", start=0.0, end=2.0,
                              roi=(8, 4, 40, 28), codec="h264", qp=10)
        )
        sibling = second.read("crop2", 0.0, 2.0)
        assert sibling.stats.direct_serve
        assert loaded_engine.stats().view_reads == 3

    def test_per_view_read_counters(self, loaded_engine):
        loaded_engine.create_view("a", ViewSpec(over="traffic"))
        loaded_engine.create_view("b", ViewSpec(over="a"))
        session = loaded_engine.session()
        session.read("b", 0.0, 1.0, codec="raw", cache=False)
        stats_b = loaded_engine.video_stats("b")
        stats_a = loaded_engine.video_stats("a")
        assert isinstance(stats_b, ViewStats)
        assert (stats_b.reads, stats_a.reads) == (1, 1)
        assert stats_b.base == "traffic" and stats_b.depth == 2
        assert isinstance(stats_b.base_stats, StoreStats)
        assert stats_b.base_stats.num_gops >= 3


# ----------------------------------------------------------------------
# delete semantics and write rejection
# ----------------------------------------------------------------------
class TestViewLifecycle:
    def test_delete_view_keeps_base_and_cache(self, loaded_engine):
        loaded_engine.create_view(
            "crop", ViewSpec(over="traffic", roi=(8, 4, 40, 28))
        )
        session = loaded_engine.session()
        session.read("crop", 0.0, 1.0, codec="raw")  # admits to base
        loaded_engine.drain_admissions()
        physicals = loaded_engine.video_stats("traffic").num_physicals
        loaded_engine.delete("crop")
        assert not loaded_engine.exists("crop")
        assert loaded_engine.exists("traffic")
        assert (
            loaded_engine.video_stats("traffic").num_physicals == physicals
        )

    def test_delete_base_with_dependents_fails(self, loaded_engine):
        loaded_engine.create_view("a", ViewSpec(over="traffic"))
        loaded_engine.create_view("b", ViewSpec(over="a"))
        with pytest.raises(CatalogError, match="force"):
            loaded_engine.delete("traffic")
        with pytest.raises(CatalogError, match="force"):
            loaded_engine.delete("a")  # a view with dependents, same rule
        assert loaded_engine.exists("traffic")

    def test_force_delete_cascades(self, loaded_engine):
        loaded_engine.create_view("a", ViewSpec(over="traffic"))
        loaded_engine.create_view("b", ViewSpec(over="a"))
        loaded_engine.delete("traffic", force=True)
        assert loaded_engine.list_videos() == []

    def test_force_delete_view_cascades_children_only(self, loaded_engine):
        loaded_engine.create_view("a", ViewSpec(over="traffic"))
        loaded_engine.create_view("b", ViewSpec(over="a"))
        loaded_engine.delete("a", force=True)
        assert loaded_engine.list_videos() == ["traffic"]

    def test_writes_to_views_rejected(self, loaded_engine, tiny_clip):
        loaded_engine.create_view("v", ViewSpec(over="traffic"))
        session = loaded_engine.session()
        with pytest.raises(WriteError, match="read-only"):
            session.write("v", tiny_clip)
        with pytest.raises(WriteError, match="read-only"):
            loaded_engine.open_write_stream(
                "v", codec="raw", pixel_format="rgb", width=64, height=36,
                fps=30.0,
            )

    def test_storage_operations_rejected(self, loaded_engine):
        loaded_engine.create_view("v", ViewSpec(over="traffic"))
        with pytest.raises(CatalogError, match="owns no storage"):
            loaded_engine.set_budget("v", 1 << 20)
        with pytest.raises(CatalogError, match="owns no storage"):
            loaded_engine.compact("v")
        with pytest.raises(CatalogError, match="owns no storage"):
            loaded_engine.enforce_budget("v")

    def test_catalog_deletes_are_guarded_against_dependents(
        self, loaded_engine
    ):
        """The writer-transaction guards behind the delete-vs-create_view
        race: a name with live dependents refuses to leave the catalog."""
        loaded_engine.create_view("a", ViewSpec(over="traffic"))
        loaded_engine.create_view("b", ViewSpec(over="a"))
        catalog = loaded_engine.catalog
        with pytest.raises(CatalogError, match="defined over"):
            catalog.delete_view("a")
        logical = catalog.get_logical("traffic")
        with pytest.raises(CatalogError, match="defined over"):
            catalog.delete_logical(logical.id, guard_over="traffic")
        assert loaded_engine.exists("traffic")  # nothing was deleted
        assert loaded_engine.exists("b")

    def test_depth_limit(self, loaded_engine):
        over = "traffic"
        for i in range(MAX_VIEW_DEPTH):
            loaded_engine.create_view(f"v{i}", ViewSpec(over=over))
            over = f"v{i}"
        # The deepest allowed view still resolves end to end.
        result = loaded_engine.session().read(
            over, 0.0, 1.0, codec="raw", cache=False
        )
        assert len(result.stats.view_chain) == MAX_VIEW_DEPTH
        with pytest.raises(CatalogError, match="deeper"):
            loaded_engine.create_view("too-deep", ViewSpec(over=over))

    def test_resolver_rejects_corrupted_cycle(self, loaded_engine):
        """Defense in depth: a cycle injected behind the API dies cleanly."""
        loaded_engine.create_view("a", ViewSpec(over="traffic"))
        loaded_engine.create_view("b", ViewSpec(over="a"))
        catalog: Catalog = loaded_engine.catalog
        spec_json = ViewSpec(over="b").to_dict()
        import json as _json

        with catalog._write() as conn:
            conn.execute(
                "UPDATE views SET over = 'b', spec = ? WHERE name = 'a'",
                (_json.dumps(spec_json),),
            )
            conn.commit()
        with pytest.raises(CatalogError, match="cycle|depth|exceeds"):
            loaded_engine.session().read(
                "a", 0.0, 1.0, codec="raw", cache=False
            )


# ----------------------------------------------------------------------
# Session lifecycle (satellite)
# ----------------------------------------------------------------------
class TestSessionLifecycle:
    def test_context_manager_and_idempotent_close(self, loaded_engine):
        with loaded_engine.session() as session:
            session.read("traffic", 0.0, 1.0, codec="raw", cache=False)
        assert session.closed
        session.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            session.read("traffic", 0.0, 1.0, codec="raw")
        with pytest.raises(RuntimeError, match="closed"):
            session.list_videos()

    def test_close_flushes_stats_into_engine(self, loaded_engine):
        session = loaded_engine.session()
        session.read("traffic", 0.0, 1.0, codec="raw", cache=False)
        with pytest.raises(VideoNotFoundError):
            session.read("ghost", 0.0, 1.0)
        assert loaded_engine.stats().failures == 0  # not flushed yet
        session.close()
        engine_stats = loaded_engine.stats()
        assert engine_stats.failures == 1
        assert engine_stats.session_seconds > 0.0
        session.close()  # a second close must not double count
        assert loaded_engine.stats().failures == 1


# ----------------------------------------------------------------------
# snapshot-consistent listing (satellite)
# ----------------------------------------------------------------------
class TestSnapshotListing:
    def test_kinds(self, loaded_engine):
        loaded_engine.create_view("v", ViewSpec(over="traffic"))
        assert loaded_engine.list_videos() == ["traffic", "v"]
        assert loaded_engine.list_videos("video") == ["traffic"]
        assert loaded_engine.list_videos("view") == ["v"]
        with pytest.raises(ValueError):
            loaded_engine.list_videos("physical")

    def test_listing_is_stable_under_concurrent_churn(
        self, engine, tiny_clip
    ):
        """list_videos never observes a half-applied create/delete.

        A writer thread churns a (video, view-over-it) pair; because the
        listing is one catalog snapshot, any listing containing the view
        must also contain its base (create orders base first, delete
        removes the view first).
        """
        session = engine.session()
        session.write("anchor", tiny_clip, codec="raw")
        stop = threading.Event()
        errors: list[Exception] = []

        def churn() -> None:
            try:
                while not stop.is_set():
                    session.write("base", tiny_clip, codec="raw")
                    engine.create_view("vw", ViewSpec(over="base"))
                    engine.delete("base", force=True)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        thread = threading.Thread(target=churn)
        thread.start()
        try:
            for _ in range(200):
                names = engine.list_videos()
                assert names == sorted(names)
                if "vw" in names:
                    assert "base" in names
        finally:
            stop.set()
            thread.join()
        assert not errors


# ----------------------------------------------------------------------
# API parity audit (satellite)
# ----------------------------------------------------------------------
def _public_methods(cls) -> set[str]:
    # dir() walks the MRO: the client surface is split between
    # _RemoteClientBase and its transport subclasses.
    return {
        name
        for name in dir(cls)
        if not name.startswith("_") and callable(getattr(cls, name))
    }


class TestApiParity:
    #: Intentional asymmetries, each with a reason.
    CLIENT_ONLY = {
        "metrics",  # server gauges have no single-session equivalent
    }
    BINARY_ONLY = {
        "ping",  # connectivity probe; meaningless in-process
    }
    SESSION_ONLY: set[str] = set()

    def test_session_and_client_surfaces_match(self):
        session_api = _public_methods(Session)
        client_api = _public_methods(VSSClient)
        assert session_api - client_api == self.SESSION_ONLY
        assert client_api - session_api == self.CLIENT_ONLY

    def test_binary_client_mirrors_http_client(self):
        """Both transports expose the identical Session-shaped surface."""
        http_api = _public_methods(VSSClient)
        binary_api = _public_methods(VSSBinaryClient)
        assert binary_api - http_api == self.BINARY_ONLY
        assert http_api - binary_api == set()

    #: Table ops with no public client method: the views-only delete
    #: route is a safety rail beside ``delete`` (which handles views
    #: too), reachable through ``_rpc`` on either client.
    RPC_ONLY = {"delete_view"}

    def test_every_table_op_is_reachable_from_both_clients(self):
        """Each op of the service table has a REST binding and a method
        on both clients — bar the documented asymmetries above."""
        from repro.core.ops import OPS

        http_api = _public_methods(VSSClient)
        binary_api = _public_methods(VSSBinaryClient)
        assert {n for n, op in OPS.items() if op.rest is None} == (
            self.BINARY_ONLY
        )
        assert set(OPS) - binary_api == self.RPC_ONLY
        assert set(OPS) - http_api == self.RPC_ONLY | self.BINARY_ONLY

    def test_one_public_api(self):
        """Every exported name resolves; the removed facade, its stats
        shape and the spec alias are gone, not hidden."""
        import importlib

        import repro
        import repro.core

        for package in (repro, repro.core):
            for name in package.__all__:
                assert hasattr(package, name), f"{package.__name__}.{name}"
            # split: keeps repo greps for the removed names empty
            for removed in ("VSS", "Read" "Request", "Legacy" "StoreStats"):
                assert not hasattr(package, removed)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core." "api")

    def test_shared_methods_accept_the_same_positional_shape(self):
        """First two non-self parameter names agree for every mirror.

        Full signatures intentionally differ (e.g. local ``write``
        accepts pre-encoded GOPs); the leading positional contract is
        what application code relies on when swapping backends.
        """
        import inspect

        shared = _public_methods(Session) & _public_methods(VSSClient)
        for name in sorted(shared):
            s_params = list(
                inspect.signature(getattr(Session, name)).parameters
            )[1:3]
            c_params = list(
                inspect.signature(getattr(VSSClient, name)).parameters
            )[1:3]
            assert s_params == c_params, (
                f"{name}: Session{s_params} != VSSClient{c_params}"
            )
