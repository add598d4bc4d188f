"""Tiled physical layout: grids, bit-identity, selective reads, re-tiling.

The load-bearing contract: for the same spec, a tiled store answers
**byte-identically** to an untiled one — full-frame reads keep planning
against the untiled source, ROI reads stitch raw RGB tile crops that
commute exactly with the reader's own RGB canvas — while the ROI path
decodes only the tiles the request intersects (visible in the new
``ReadStats`` tile counters).  Parity is asserted across every access
path: local session, HTTP service, binary service, and cluster router.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.client import VSSBinaryClient, VSSClient
from repro.cluster import VSSRouter
from repro.core.engine import VSSEngine
from repro.core.specs import ReadSpec, ViewSpec
from repro.errors import OutOfRangeError, WriteError
from repro.server.binary import VSSBinaryServer
from repro.server.http import VSSServer
from repro.tiles import RetilePolicy, TileGrid
from repro.vision.detection import Detection

#: An ROI inside the top-left tile of a 2x2 grid over 64x36 frames.
_ROI = (4, 2, 28, 16)


@pytest.fixture()
def engine(tmp_path, calibration):
    eng = VSSEngine(
        tmp_path / "store",
        calibration=calibration,
        decode_cache_bytes=0,
    )
    yield eng
    eng.close()


def _load(engine, tiny_clip, name="cam"):
    engine.create(name)
    with engine.session() as session:
        session.write(name, tiny_clip, codec="h264", qp=10, gop_size=8)


# ----------------------------------------------------------------------
# grid geometry
# ----------------------------------------------------------------------
class TestTileGrid:
    def test_uniform_partitions_exactly(self):
        grid = TileGrid.uniform(2, 3, 97, 55)
        assert grid.width == 97 and grid.height == 55
        assert grid.num_tiles == 6
        covered = np.zeros((55, 97), dtype=int)
        for x0, y0, x1, y1 in grid.rects:
            covered[y0:y1, x0:x1] += 1
        assert (covered == 1).all()  # no gaps, no overlap

    def test_rects_are_row_major(self):
        grid = TileGrid.uniform(2, 2, 64, 36)
        assert grid.rect(0) == (0, 0, 32, 18)
        assert grid.rect(1) == (32, 0, 64, 18)
        assert grid.rect(2) == (0, 18, 32, 36)
        assert grid.rect(3) == (32, 18, 64, 36)

    def test_tiles_overlapping_selects_intersections_only(self):
        grid = TileGrid.uniform(2, 2, 64, 36)
        assert grid.tiles_overlapping((0, 0, 10, 10)) == [0]
        assert grid.tiles_overlapping((30, 16, 40, 20)) == [0, 1, 2, 3]
        assert grid.tiles_overlapping((0, 0, 64, 36)) == [0, 1, 2, 3]
        # Touching a cut line from outside does not select the far tile.
        assert grid.tiles_overlapping((32, 0, 64, 18)) == [1]

    def test_around_rect_isolates_the_rect(self):
        grid = TileGrid.around_rect((10, 8, 30, 20), 64, 36)
        assert (10, 8, 30, 20) in grid.rects
        assert grid.rows == 3 and grid.cols == 3
        # Edge-hugging rects need fewer cuts.
        corner = TileGrid.around_rect((0, 0, 32, 18), 64, 36)
        assert corner.rows == 2 and corner.cols == 2

    def test_from_detections_cuts_at_box_edges(self):
        detections = [
            Detection(8, 4, 24, 12, "red", 100),
            Detection(8, 4, 24, 12, "red", 100),
            Detection(40, 20, 56, 30, "blue", 90),
        ]
        grid = TileGrid.from_detections(detections, 64, 36)
        assert 8 in grid.col_cuts and 24 in grid.col_cuts
        assert 4 in grid.row_cuts and 12 in grid.row_cuts
        # No detections: fall back to an even 2x2.
        assert TileGrid.from_detections([], 64, 36) == TileGrid.uniform(
            2, 2, 64, 36
        )

    @pytest.mark.parametrize(
        "rows, cols, row_cuts, col_cuts",
        [
            (2, 2, (0, 18, 36), (0, 32)),  # wrong col count
            (2, 2, (0, 36, 18), (0, 32, 64)),  # not increasing
            (2, 2, (2, 18, 36), (0, 32, 64)),  # must start at 0
            (2, 2, (0, 18, 18), (0, 32, 64)),  # zero-height tile
            (0, 2, (0,), (0, 32, 64)),  # no rows
            (9, 1, tuple(range(10)), (0, 64)),  # beyond 8x8
        ],
    )
    def test_invalid_grids_rejected(self, rows, cols, row_cuts, col_cuts):
        with pytest.raises(ValueError):
            TileGrid(rows, cols, row_cuts, col_cuts)


# ----------------------------------------------------------------------
# shared ROI validation (satellite)
# ----------------------------------------------------------------------
class TestRoiValidation:
    """Zero-area and out-of-bounds ROIs fail identically everywhere."""

    @pytest.mark.parametrize(
        "roi", [(0, 0, 0, 10), (0, 0, 10, 0), (5, 5, 5, 5), (-1, 0, 4, 4),
                (4, 4, 2, 8)],
    )
    def test_malformed_roi_rejected_at_construction(self, roi):
        with pytest.raises(OutOfRangeError):
            ReadSpec("v", 0.0, 1.0, roi=roi)
        with pytest.raises(OutOfRangeError):
            ViewSpec(over="v", roi=roi)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            ReadSpec("v", 0.0, 1.0, roi=(0, 0, 4))

    def test_out_of_bounds_roi_rejected_at_read(self, engine, tiny_clip):
        _load(engine, tiny_clip)
        with pytest.raises(OutOfRangeError):
            engine.read(ReadSpec("cam", 0.0, 0.5, roi=(0, 0, 65, 36)))

    def test_out_of_bounds_roi_rejected_at_view_fold(self, engine, tiny_clip):
        _load(engine, tiny_clip)
        engine.create_view("crop", ViewSpec(over="cam", roi=(0, 0, 32, 18)))
        # Inside the view's 32x18 crop: fine.  One pixel past it: the
        # same OutOfRangeError construction-time validation raises.
        engine.read(ReadSpec("crop", 0.0, 0.5, roi=(0, 0, 32, 18)))
        with pytest.raises(OutOfRangeError):
            engine.read(ReadSpec("crop", 0.0, 0.5, roi=(0, 0, 33, 18)))


# ----------------------------------------------------------------------
# tiled reads: bit-identity + selectivity
# ----------------------------------------------------------------------
class TestTiledReads:
    def test_full_frame_and_roi_bit_identical(self, engine, tiny_clip):
        _load(engine, tiny_clip)
        full_spec = ReadSpec("cam", 0.0, 0.8, cache=False)
        roi_spec = ReadSpec("cam", 0.0, 0.8, roi=_ROI, cache=False)
        full_before = engine.read(full_spec).as_segment().pixels
        roi_before = engine.read(roi_spec).as_segment().pixels

        group = engine.retile("cam", rows=2, cols=2)
        assert group is not None and group.grid.num_tiles == 4

        assert np.array_equal(
            engine.read(full_spec).as_segment().pixels, full_before
        )
        assert np.array_equal(
            engine.read(roi_spec).as_segment().pixels, roi_before
        )

    def test_compressed_roi_read_bit_identical(self, engine, tiny_clip):
        _load(engine, tiny_clip)
        spec = ReadSpec(
            "cam", 0.0, 0.8, roi=_ROI, codec="h264", qp=12, cache=False
        )
        before = engine.read(spec).as_segment().pixels
        engine.retile("cam", rows=2, cols=2)
        # Identical decoded canvas -> identical re-encode, byte for byte.
        assert np.array_equal(engine.read(spec).as_segment().pixels, before)

    def test_roi_read_decodes_only_intersecting_tiles(
        self, engine, tiny_clip
    ):
        _load(engine, tiny_clip)
        roi_spec = ReadSpec("cam", 0.0, 0.8, roi=_ROI, cache=False)
        untiled_bytes = engine.read(roi_spec).stats.bytes_read
        engine.retile("cam", rows=2, cols=2)
        stats = engine.read(roi_spec).stats
        assert stats.tiles_total == 4
        assert stats.tiles_decoded == 1  # _ROI sits inside one tile
        assert stats.tile_bytes_skipped > 0
        assert stats.bytes_read < untiled_bytes

    def test_full_frame_read_uses_untiled_source(self, engine, tiny_clip):
        _load(engine, tiny_clip)
        engine.retile("cam", rows=2, cols=2)
        stats = engine.read(ReadSpec("cam", 0.0, 0.8, cache=False)).stats
        assert stats.tiles_total == 4
        assert stats.tiles_decoded == 0

    def test_engine_counters_and_retile_replacement(self, engine, tiny_clip):
        _load(engine, tiny_clip)
        first = engine.retile("cam", rows=2, cols=2)
        # Same grid again: a no-op, not a rebuild.
        assert engine.retile("cam", rows=2, cols=2) is None
        replaced = engine.retile("cam", rows=1, cols=2)
        assert replaced is not None and replaced.grid != first.grid
        groups = engine.catalog.tile_groups_of_logical(
            engine.catalog.get_logical("cam").id
        )
        assert [g.grid for g in groups] == [replaced.grid]
        engine.read(ReadSpec("cam", 0.0, 0.8, roi=_ROI, cache=False))
        stats = engine.stats()
        assert stats.retiles == 2
        assert stats.tiles_decoded >= 1
        assert stats.tile_bytes_skipped > 0

    def test_tiling_views_is_rejected(self, engine, tiny_clip):
        _load(engine, tiny_clip)
        engine.create_view("crop", ViewSpec(over="cam", roi=(0, 0, 32, 18)))
        with pytest.raises(Exception):
            engine.retile("crop", rows=2, cols=2)

    def test_grid_must_cover_the_frame(self, engine, tiny_clip):
        _load(engine, tiny_clip)
        with pytest.raises(WriteError):
            engine.retile("cam", grid=TileGrid.uniform(2, 2, 32, 18))


# ----------------------------------------------------------------------
# access-driven re-tiling
# ----------------------------------------------------------------------
class TestRetilePolicy:
    def test_below_evidence_floor_no_proposal(self):
        policy = RetilePolicy(min_accesses=32, concentration=0.8)
        assert policy.propose(64, 36, {(0, 0, 16, 16): 31}) is None

    def test_concentrated_accesses_propose_isolating_grid(self):
        policy = RetilePolicy(min_accesses=8, concentration=0.8)
        grid = policy.propose(64, 36, {(8, 4, 24, 16): 10})
        assert grid is not None
        assert (8, 4, 24, 16) in grid.rects

    def test_scattered_accesses_stay_silent(self):
        policy = RetilePolicy(min_accesses=8, concentration=0.8)
        accesses = {
            (0, 0, 16, 16): 5,
            (40, 20, 60, 30): 5,
        }
        assert policy.propose(64, 36, accesses) is None

    def test_proposal_equal_to_current_suppressed(self):
        policy = RetilePolicy(min_accesses=4, concentration=0.5)
        accesses = {(8, 4, 24, 16): 10}
        grid = policy.propose(64, 36, accesses)
        assert policy.propose(64, 36, accesses, current=grid) is None

    def test_engine_retiles_from_observed_accesses(self, engine, tiny_clip):
        _load(engine, tiny_clip)
        engine.retile_policy = RetilePolicy(min_accesses=4, concentration=0.5)
        spec = ReadSpec("cam", 0.0, 0.8, roi=_ROI, cache=False)
        before = engine.read(spec).as_segment().pixels
        for _ in range(5):
            engine.read(spec)
        engine.drain_admissions()
        logical = engine.catalog.get_logical("cam")
        # Drive the maintenance hook directly (its periodic trigger is
        # read-count-based); it must flush the access log and retile.
        with engine._locked("cam"):
            engine._maybe_retile(logical)
        groups = engine.catalog.tile_groups_of_logical(logical.id)
        assert len(groups) == 1
        assert _ROI in groups[0].grid.rects
        assert engine.stats().retiles == 1
        # The hot read now decodes exactly its own tile — still the same
        # bytes out.
        after = engine.read(spec)
        assert np.array_equal(after.as_segment().pixels, before)
        assert after.stats.tiles_decoded == 1


# ----------------------------------------------------------------------
# transport parity
# ----------------------------------------------------------------------
class TestTransportParity:
    @pytest.fixture()
    def specs(self):
        return [
            ReadSpec("cam", 0.0, 0.8, cache=False),
            ReadSpec("cam", 0.0, 0.8, roi=_ROI, cache=False),
        ]

    def test_http_and_binary_serve_tiled_reads_identically(
        self, engine, tiny_clip, specs
    ):
        _load(engine, tiny_clip)
        baseline = [engine.read(s).as_segment().pixels for s in specs]
        engine.retile("cam", rows=2, cols=2)
        with VSSServer(engine=engine) as http_server:
            with VSSClient(*http_server.address) as http:
                for spec, expect in zip(specs, baseline):
                    result = http.read(spec)
                    assert np.array_equal(result.segment.pixels, expect)
                    if spec.roi is not None:
                        assert result.stats.tiles_decoded == 1
                metrics = http.metrics()
        assert metrics["engine"]["tiles_decoded"] >= 1
        assert metrics["engine"]["tile_bytes_skipped"] > 0
        assert metrics["engine"]["retiles"] == 1
        with VSSBinaryServer(engine=engine) as bin_server:
            with VSSBinaryClient(*bin_server.address) as binary:
                for spec, expect in zip(specs, baseline):
                    result = binary.read(spec)
                    assert np.array_equal(result.segment.pixels, expect)
                    if spec.roi is not None:
                        assert result.stats.tiles_decoded == 1

    def test_router_serves_tiled_reads_identically(
        self, tmp_path, calibration, tiny_clip, specs
    ):
        shard_engine = VSSEngine(tmp_path / "shard0", calibration=calibration)
        try:
            _load(shard_engine, tiny_clip)
            baseline = [
                shard_engine.read(s).as_segment().pixels for s in specs
            ]
            shard_engine.retile("cam", rows=2, cols=2)
            with VSSBinaryServer(engine=shard_engine) as shard:
                addr = f"{shard.address[0]}:{shard.address[1]}"
                router = VSSRouter([addr], probe_interval=30.0).start()
                try:
                    with VSSBinaryClient(*router.address) as client:
                        for spec, expect in zip(specs, baseline):
                            result = client.read(spec)
                            assert np.array_equal(
                                result.segment.pixels, expect
                            )
                    rolled = router.engine.stats()["tiles"]
                    assert rolled["tiles_decoded"] >= 1
                    assert rolled["tile_bytes_skipped"] > 0
                    assert rolled["retiles"] == 1
                finally:
                    router.close()
        finally:
            shard_engine.close()
