"""Content index & search: extraction, ranked queries, selective decode.

The headline acceptance test is selectivity: a search-then-read through
``hit.as_view()`` must decode *only* the GOPs inside the hit window —
asserted against ``ReadStats.gop_ids_touched`` / ``frames_decoded`` —
and the frames it returns must be bit-identical to the same window of a
full-scan read.  The rest of the file covers the index lifecycle
(ingest-time extraction off the write path, ``reindex`` backfill, the
delete cascade running in the catalog writer transaction) and transport
parity: the same query returns the same ranked hits through the local
``Session``, the HTTP client, the binary client, and the cluster router.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.client import VSSBinaryClient, VSSClient
from repro.cluster import VSSRouter
from repro.core.engine import VSSEngine
from repro.search.extract import extract_gop
from repro.search.query import SearchHit, merge_ranked
from repro.server.binary import VSSBinaryServer
from repro.server.http import VSSServer
from repro.synthetic.scene import RoadScene
from repro.video.frame import VideoSegment

# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------


def _clip(num_frames: int = 60, seed: int = 7) -> VideoSegment:
    """64x36 traffic clip; 60 frames @ 30 fps = 2 s = 4 GOPs of 15."""
    scene = RoadScene(world_width=96, height=36, seed=seed, num_vehicles=4)
    stack = np.empty((num_frames, 36, 64, 3), dtype=np.uint8)
    for t in range(num_frames):
        stack[t] = scene.render_world(t)[:, :64]
    return VideoSegment(stack, "rgb", 36, 64, fps=30.0)


@pytest.fixture()
def engine(tmp_path, calibration) -> VSSEngine:
    eng = VSSEngine(tmp_path / "store", calibration=calibration)
    yield eng
    eng.close()


@pytest.fixture()
def indexed_engine(engine) -> VSSEngine:
    """One 4-GOP h264 original named 'traffic', extraction drained."""
    engine.create("traffic")
    engine.session().write(
        "traffic", _clip(), codec="h264", qp=10, gop_size=15
    )
    engine.drain_admissions()
    return engine


# ----------------------------------------------------------------------
# ingest-time extraction
# ----------------------------------------------------------------------
class TestExtraction:
    def test_write_indexes_every_gop_off_the_write_path(self, engine):
        engine.create("traffic")
        engine.session().write(
            "traffic", _clip(), codec="h264", qp=10, gop_size=15
        )
        engine.drain_admissions()
        stats = engine.stats()
        assert stats.search_index_rows == 4
        assert stats.extraction_completed >= 1
        assert stats.extraction_pending == 0

    def test_session_close_leaves_rows_indexed(self, engine):
        """``Session.close`` drains the queue: the index rows a write
        scheduled are there with no explicit drain."""
        with engine.session() as session:
            session.create("cam")
            session.write("cam", _clip(30), codec="h264", qp=10, gop_size=15)
        stats = engine.stats()
        assert stats.search_index_rows == 2
        assert stats.extraction_pending == 0

    def test_streamed_write_schedules_extraction(self, engine):
        clip = _clip(30)
        stream = engine.open_write_stream(
            "live", codec="h264", pixel_format="rgb",
            width=64, height=36, fps=30.0, qp=10, gop_size=15,
        )
        stream.append(clip)
        stream.close()
        engine.drain_admissions()
        assert engine.stats().search_index_rows == 2

    def test_reindex_backfills_dropped_rows(self, indexed_engine):
        logical = indexed_engine.catalog.get_logical("traffic")
        indexed_engine._search_index.drop_logical(logical.id)
        assert indexed_engine.stats().search_index_rows == 0
        assert indexed_engine.reindex("traffic") == 4
        assert indexed_engine.stats().search_index_rows == 4

    def test_reindex_is_idempotent(self, indexed_engine):
        assert indexed_engine.reindex("traffic") == 4
        assert indexed_engine.reindex("traffic") == 4
        assert indexed_engine.stats().search_index_rows == 4


# ----------------------------------------------------------------------
# local query surface
# ----------------------------------------------------------------------
class TestLocalSearch:
    def test_text_search_returns_ranked_hits(self, indexed_engine):
        hits = indexed_engine.search(text="vehicle")
        assert hits, "synthetic traffic must index vehicle labels"
        assert all(isinstance(h, SearchHit) for h in hits)
        assert all(h.name == "traffic" and h.source == "text" for h in hits)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)
        assert all(h.end_time > h.start_time for h in hits)
        assert all("vehicle" in h.labels for h in hits)

    def test_limit_and_min_score(self, indexed_engine):
        hits = indexed_engine.search(text="vehicle", limit=2)
        assert len(hits) <= 2
        floor = indexed_engine.search(text="vehicle", min_score=1e9)
        assert floor == []

    def test_invalid_queries_rejected(self, indexed_engine):
        with pytest.raises(ValueError):
            indexed_engine.search()
        with pytest.raises(ValueError):
            indexed_engine.search(text="car", limit=0)
        with pytest.raises(ValueError):
            indexed_engine.search(text="car", min_score=float("nan"))

    def test_like_image_finds_its_own_gop(self, indexed_engine):
        clip = _clip()
        # Query with the exact frame extraction sampled for GOP 1
        # (frames 15..29, middle = 22).  The index holds features of the
        # h264-decoded frame, so similarity is near-1 rather than exact,
        # but GOP 1 must still rank first.
        hits = indexed_engine.search(like=clip.pixels[22], limit=4)
        assert hits and hits[0].gop_seq == 1
        assert hits[0].source == "embedding"
        assert hits[0].score > 0.9

    def test_like_histogram_space(self, indexed_engine):
        features = extract_gop(_clip())
        hits = indexed_engine.search(like=features.histogram)
        assert hits and all(h.source == "histogram" for h in hits)

    def test_hybrid_query_intersects_both_legs(self, indexed_engine):
        clip = _clip()
        hits = indexed_engine.search(text="vehicle", like=clip.pixels[22])
        assert hits and all(h.source == "hybrid" for h in hits)
        # Hybrid scores sum both legs, so they beat the vector leg alone.
        vector_only = indexed_engine.search(like=clip.pixels[22])
        assert hits[0].score > vector_only[0].score

    def test_search_counters(self, indexed_engine):
        before = indexed_engine.stats()
        indexed_engine.search(text="vehicle")
        after = indexed_engine.stats()
        assert after.searches_served == before.searches_served + 1
        assert after.search_seconds >= before.search_seconds

    def test_session_and_engine_surface(self, indexed_engine):
        with indexed_engine.session() as session:
            hits = session.search(text="vehicle")
            assert hits == indexed_engine.search(text="vehicle")
            assert session.reindex("traffic") == 4


# ----------------------------------------------------------------------
# the acceptance criterion: decode only matching GOPs
# ----------------------------------------------------------------------
class TestSelectiveDecode:
    def test_hit_view_decodes_only_its_gop(self, indexed_engine):
        with indexed_engine.session() as session:
            full = session.read("traffic", 0.0, 2.0, codec="raw", cache=False)
            assert full.stats.frames_decoded == 60
            assert len(full.stats.gop_ids_touched) == 4

            hit = indexed_engine.search(text="vehicle", limit=1)[0]
            view = hit.as_view(session)
            narrow = session.read(
                view.name, hit.start_time, hit.end_time,
                codec="raw", cache=False,
            )
            # Selectivity: one GOP touched, a quarter of the frames.
            assert len(narrow.stats.gop_ids_touched) == 1
            assert narrow.stats.frames_decoded <= 15
            assert narrow.stats.view_chain == [view.name]

            # Bit-identity against the same window of the full scan.
            lo = round(hit.start_time * 30.0)
            hi = lo + narrow.segment.num_frames
            np.testing.assert_array_equal(
                narrow.segment.pixels, full.segment.pixels[lo:hi]
            )

    def test_every_hit_window_is_gop_aligned(self, indexed_engine):
        with indexed_engine.session() as session:
            for hit in indexed_engine.search(text="vehicle", limit=4):
                got = session.read(
                    "traffic", hit.start_time, hit.end_time,
                    codec="raw", cache=False,
                )
                assert len(got.stats.gop_ids_touched) == 1


# ----------------------------------------------------------------------
# delete cascade
# ----------------------------------------------------------------------
class TestDeleteCascade:
    def test_delete_drops_index_rows(self, indexed_engine):
        assert indexed_engine.stats().search_index_rows == 4
        indexed_engine.delete("traffic")
        assert indexed_engine.stats().search_index_rows == 0
        assert indexed_engine.search(text="vehicle") == []

    def test_delete_recreate_search_sees_only_new_rows(self, indexed_engine):
        indexed_engine.delete("traffic")
        # Recreate under the same name: no index row of the deleted
        # generation may come back with it.
        indexed_engine.create("traffic")
        indexed_engine.session().write(
            "traffic", _clip(30, seed=99), codec="h264", qp=10, gop_size=15
        )
        indexed_engine.drain_admissions()
        assert indexed_engine.stats().search_index_rows == 2
        hits = indexed_engine.search(text="vehicle")
        assert hits and {h.gop_seq for h in hits} <= {0, 1}

    def test_delete_leaves_other_videos_indexed(self, indexed_engine):
        indexed_engine.create("other")
        indexed_engine.session().write(
            "other", _clip(30, seed=3), codec="h264", qp=10, gop_size=15
        )
        indexed_engine.drain_admissions()
        indexed_engine.delete("traffic")
        hits = indexed_engine.search(text="vehicle")
        assert hits and all(h.name == "other" for h in hits)


# ----------------------------------------------------------------------
# transport parity: HTTP, binary, router
# ----------------------------------------------------------------------
class TestTransportParity:
    def test_same_hits_local_http_binary(self, indexed_engine):
        local = indexed_engine.search(text="vehicle")
        with VSSServer(engine=indexed_engine) as http_srv:
            with VSSClient(*http_srv.address, timeout=30.0) as http:
                assert http.search(text="vehicle") == local
        with VSSBinaryServer(engine=indexed_engine) as bin_srv:
            with VSSBinaryClient(*bin_srv.address) as binary:
                assert binary.search(text="vehicle") == local

    def test_like_image_converted_client_side(self, indexed_engine):
        frame = _clip().pixels[22]
        local = indexed_engine.search(like=frame)
        with VSSBinaryServer(engine=indexed_engine) as bin_srv:
            with VSSBinaryClient(*bin_srv.address) as binary:
                assert binary.search(like=frame) == local

    def test_reindex_over_both_transports(self, indexed_engine):
        with VSSServer(engine=indexed_engine) as http_srv:
            with VSSClient(*http_srv.address, timeout=30.0) as http:
                assert http.reindex("traffic") == 4
        with VSSBinaryServer(engine=indexed_engine) as bin_srv:
            with VSSBinaryClient(*bin_srv.address) as binary:
                assert binary.reindex("traffic") == 4

    def test_router_scatter_gathers_across_shards(self, tmp_path, calibration):
        engines = [
            VSSEngine(tmp_path / f"shard{i}", calibration=calibration)
            for i in range(2)
        ]
        servers = [VSSBinaryServer(engine=e).start() for e in engines]
        addrs = [f"{s.address[0]}:{s.address[1]}" for s in servers]
        router = VSSRouter(addrs, probe_interval=30.0).start()
        try:
            with VSSBinaryClient(*router.address) as client:
                for i, name in enumerate(("cam-a", "cam-b", "cam-c")):
                    client.create(name)
                    client.write(
                        name, _clip(30, seed=i),
                        codec="h264", qp=10, gop_size=15,
                    )
                for eng in engines:
                    eng.drain_admissions()
                hits = client.search(text="vehicle", limit=6)
                # canonical merged order, hits from every shard
                assert hits == merge_ranked([hits], limit=6)
                assert {h.name for h in hits} == {"cam-a", "cam-b", "cam-c"}
                assert router.engine.counters.snapshot()["searches_routed"] == 1
                assert client.reindex("cam-a") == 2
        finally:
            router.close()
            for server in servers:
                server.close()
            for eng in engines:
                eng.close()
