"""Tests for the SQLite catalog and on-disk layout."""

import sqlite3
import sys
import threading
from pathlib import Path

import pytest

from repro.core.catalog import _SCHEMA, Catalog
from repro.core.engine import VSSEngine
from repro.core.layout import Layout
from repro.core.specs import ReadSpec, ViewSpec
from repro.errors import CatalogError, VideoExistsError, VideoNotFoundError
from repro.lossless import zstd
from repro.tiles.grid import TileGrid
from repro.video.codec.registry import encode_gop
from tests.conftest import _render_clip
from tests.test_frame import make_segment


@pytest.fixture()
def catalog(tmp_path):
    cat = Catalog(tmp_path / "catalog.db")
    yield cat
    cat.close()


@pytest.fixture()
def layout(tmp_path):
    return Layout(tmp_path / "store")


def add_physical(catalog, logical, **overrides):
    defaults = dict(
        logical_id=logical.id,
        codec="h264",
        pixel_format="rgb",
        width=64,
        height=36,
        fps=30.0,
        qp=14,
        roi=None,
        start_time=0.0,
        end_time=1.0,
        mse_estimate=0.0,
        is_original=True,
    )
    defaults.update(overrides)
    return catalog.add_physical(**defaults)


class TestLogicalVideos:
    def test_create_and_get(self, catalog):
        video = catalog.create_logical("traffic", 1000)
        assert video.name == "traffic"
        assert catalog.get_logical("traffic").id == video.id

    def test_duplicate_name_rejected(self, catalog):
        catalog.create_logical("a", 0)
        with pytest.raises(VideoExistsError):
            catalog.create_logical("a", 0)

    def test_missing_video(self, catalog):
        with pytest.raises(VideoNotFoundError):
            catalog.get_logical("ghost")

    def test_list_sorted(self, catalog):
        for name in ("zebra", "alpha"):
            catalog.create_logical(name, 0)
        assert [v.name for v in catalog.list_logical()] == ["alpha", "zebra"]

    def test_budget_update(self, catalog):
        video = catalog.create_logical("v", 0)
        catalog.set_budget(video.id, 555)
        assert catalog.get_logical("v").budget_bytes == 555

    def test_delete_cascades(self, catalog):
        video = catalog.create_logical("v", 0)
        physical = add_physical(catalog, video)
        catalog.add_gop(physical.id, 0, 0.0, 1.0, 30, "I" + "P" * 29, 100, "p")
        catalog.delete_logical(video.id)
        with pytest.raises(VideoNotFoundError):
            catalog.get_logical("v")
        assert catalog.gops_of_physical(physical.id) == []


class TestPhysicalVideos:
    def test_roundtrip_with_roi(self, catalog):
        video = catalog.create_logical("v", 0)
        physical = add_physical(catalog, video, roi=(0, 10, 32, 30))
        fetched = catalog.get_physical(physical.id)
        assert fetched.roi == (0, 10, 32, 30)
        assert fetched.is_original

    def test_original_lookup(self, catalog):
        video = catalog.create_logical("v", 0)
        add_physical(catalog, video, is_original=False)
        original = add_physical(catalog, video, is_original=True)
        assert catalog.original_physical(video.id).id == original.id

    def test_missing_physical(self, catalog):
        with pytest.raises(CatalogError):
            catalog.get_physical(999)

    def test_seal_and_times(self, catalog):
        video = catalog.create_logical("v", 0)
        physical = add_physical(catalog, video, sealed=False)
        assert not catalog.get_physical(physical.id).sealed
        catalog.update_physical_times(physical.id, 0.0, 9.0)
        catalog.seal_physical(physical.id)
        fetched = catalog.get_physical(physical.id)
        assert fetched.sealed and fetched.end_time == 9.0

    def test_mse_update(self, catalog):
        video = catalog.create_logical("v", 0)
        physical = add_physical(catalog, video)
        catalog.update_mse_estimate(physical.id, 12.5, 10.0)
        fetched = catalog.get_physical(physical.id)
        assert (fetched.mse_estimate, fetched.format_mse) == (12.5, 10.0)
        assert fetched.own_format_mse == 2.5

    def test_format_mse_column_grafted_onto_an_older_catalog(self, tmp_path):
        # A catalog created before physicals recorded their format loss:
        # its rows read back as in the original's format (0.0).
        path = tmp_path / "old.db"
        conn = sqlite3.connect(path)
        conn.executescript(
            _SCHEMA.replace(",\n    format_mse REAL NOT NULL DEFAULT 0.0", "")
        )
        conn.execute(
            "INSERT INTO physical_videos (logical_id, codec, pixel_format,"
            " width, height, fps, qp, start_time, end_time, mse_estimate,"
            " is_original, sealed) VALUES (1, 'raw', 'yuv420', 64, 36, 30.0,"
            " 0, 0.0, 1.0, 7.5, 0, 1)"
        )
        conn.commit()
        conn.close()
        catalog = Catalog(path)
        try:
            (physical,) = catalog.list_physicals(1)
            assert (physical.mse_estimate, physical.format_mse) == (7.5, 0.0)
        finally:
            catalog.close()


class TestGops:
    def test_time_range_query(self, catalog):
        video = catalog.create_logical("v", 0)
        physical = add_physical(catalog, video, end_time=3.0)
        for seq in range(3):
            catalog.add_gop(
                physical.id, seq, float(seq), float(seq + 1), 30,
                "I" + "P" * 29, 100, f"p{seq}",
            )
        hits = catalog.gops_of_physical(physical.id, start=0.5, end=1.5)
        assert [g.seq for g in hits] == [0, 1]

    def test_touch_updates_access(self, catalog):
        video = catalog.create_logical("v", 0)
        physical = add_physical(catalog, video)
        gop = catalog.add_gop(physical.id, 0, 0.0, 1.0, 30, "I", 100, "p")
        catalog.touch_gops([gop.id], 42)
        assert catalog.get_gop(gop.id).last_access == 42
        assert catalog.max_last_access() == 42

    def test_compression_update(self, catalog):
        video = catalog.create_logical("v", 0)
        physical = add_physical(catalog, video)
        gop = catalog.add_gop(physical.id, 0, 0.0, 1.0, 30, "I", 100, "p")
        catalog.set_gop_compression(gop.id, 7, 40)
        fetched = catalog.get_gop(gop.id)
        assert (fetched.zstd_level, fetched.nbytes, fetched.path) == (7, 40, "p")

    def test_total_bytes(self, catalog):
        video = catalog.create_logical("v", 0)
        physical = add_physical(catalog, video)
        catalog.add_gop(physical.id, 0, 0.0, 1.0, 30, "I", 100, "a")
        catalog.add_gop(physical.id, 1, 1.0, 2.0, 30, "I", 250, "b")
        assert catalog.total_bytes(video.id) == 350


def _page(catalog, physical, seq, start=None):
    start = float(seq) if start is None else start
    return catalog.add_gop(
        physical.id, seq, start, start + 1.0, 30, "I", 100, f"p{physical.id}.{seq}"
    ).id


class _Rows:
    """Two videos' rows: ``v`` holds an original (pages ``a0``, ``a1``),
    two contiguous cached physicals ``p2`` (page ``c0``) and ``p3``
    (page ``d0``) and a one-tile group over the original (page ``t0``);
    ``w`` holds an original with page ``b0``."""

    def __init__(self, catalog):
        self.v = catalog.create_logical("v", 0)
        self.w = catalog.create_logical("w", 0)
        self.p1 = add_physical(catalog, self.v, end_time=2.0)
        self.a0, self.a1 = (_page(catalog, self.p1, seq) for seq in (0, 1))
        cached = dict(is_original=False, mse_estimate=1.0)
        self.p2 = add_physical(catalog, self.v, **cached)
        self.c0 = _page(catalog, self.p2, 0)
        self.p3 = add_physical(
            catalog, self.v, start_time=1.0, end_time=2.0, **cached
        )
        self.d0 = _page(catalog, self.p3, 0, start=1.0)
        self.group = catalog.create_tile_group(
            self.v.id, self.p1.id, TileGrid.uniform(1, 1, 64, 36)
        )
        tile = add_physical(
            catalog, self.v, is_original=False, codec="raw",
            tile_group_id=self.group.id, tile_index=0,
        )
        self.t0 = _page(catalog, tile, 0)
        self.q = add_physical(catalog, self.w)
        self.b0 = _page(catalog, self.q, 0)


#: name -> (change, the videos it bumps, the GOP ids it announces).
PAGE_CHANGES = {
    "add_gop": (lambda c, r: _page(c, r.p2, 1, start=1.0), "v", lambda r: []),
    "update_physical_times": (
        lambda c, r: c.update_physical_times(r.p2.id, 0.0, 1.0), "v",
        lambda r: [],
    ),
    "seal_physical": (lambda c, r: c.seal_physical(r.p2.id), "v", lambda r: []),
    "update_mse_estimate": (
        lambda c, r: c.update_mse_estimate(r.p2.id, 3.0, 1.0), "v",
        lambda r: [],
    ),
    "set_gop_compression": (
        lambda c, r: c.set_gop_compression(r.c0, 3, 50), "v",
        lambda r: [r.c0],
    ),
    "delete_gop": (lambda c, r: c.delete_gop(r.c0), "v", lambda r: [r.c0]),
    "delete_physical": (
        lambda c, r: c.delete_physical(r.p1.id), "v",
        lambda r: [r.a0, r.a1],
    ),
    "merge_physicals": (
        lambda c, r: c.merge_physicals(r.p2.id, r.p3.id, 1.0, 0.0), "v",
        lambda r: [r.d0],
    ),
    "create_tile_group": (
        lambda c, r: c.create_tile_group(r.v.id, r.p1.id, r.group.grid), "v",
        lambda r: [],
    ),
    "delete_tile_group": (
        lambda c, r: c.delete_tile_group(r.group.id), "v", lambda r: [r.t0],
    ),
    "add_joint_pair": (
        lambda c, r: c.add_joint_pair(
            r.a0, r.b0, [1.0] * 9, 10, 20, "mean", "joint/l", "joint/o",
            "joint/r", 60, 40,
        ),
        "vw",
        lambda r: [r.a0, r.b0],
    ),
    "delete_logical": (
        lambda c, r: c.delete_logical(r.v.id), "v",
        lambda r: [r.a0, r.a1, r.c0, r.d0, r.t0],
    ),
}

#: Bookkeeping that changes no page: no bump, nothing announced.
QUIET = {
    "touch_gops": lambda c, r: c.touch_gops([r.a0, r.c0], 7),
    "record_roi_accesses": lambda c, r: c.record_roi_accesses(
        r.v.id, {(0, 0, 32, 18): 3}, 7
    ),
    "set_budget": lambda c, r: c.set_budget(r.v.id, 10**6),
    "create_view": lambda c, r: c.create_view("crop", ViewSpec(over="v")),
}


class TestPageChangeAnnouncements:
    """Every catalog method that changes a row the planner reads bumps
    that video's data version itself, and passes exactly the GOP ids
    whose rows it deleted, moved or rewrote to the one listener."""

    @pytest.fixture()
    def announced(self, tmp_path):
        heard: list[list[int]] = []
        catalog = Catalog(
            tmp_path / "catalog.db",
            on_pages_changed=lambda ids: heard.append(list(ids)),
        )
        rows = _Rows(catalog)
        heard.clear()
        yield catalog, rows, heard
        catalog.close()

    @staticmethod
    def versions(catalog, rows):
        return {
            name: catalog.data_version(video.id)
            for name, video in (("v", rows.v), ("w", rows.w))
        }

    @pytest.mark.parametrize("name", sorted(PAGE_CHANGES))
    def test_a_page_change_bumps_and_announces(self, announced, name):
        catalog, rows, heard = announced
        change, bumped, gop_ids = PAGE_CHANGES[name]
        before = self.versions(catalog, rows)
        change(catalog, rows)
        after = self.versions(catalog, rows)
        assert {v for v in before if after[v] != before[v]} == set(bumped)
        assert sorted(i for ids in heard for i in ids) == sorted(gop_ids(rows))

    @pytest.mark.parametrize("name", sorted(QUIET))
    def test_bookkeeping_neither_bumps_nor_announces(self, announced, name):
        catalog, rows, heard = announced
        before = self.versions(catalog, rows)
        QUIET[name](catalog, rows)
        assert self.versions(catalog, rows) == before
        assert heard == []


def traced_statements(monkeypatch) -> list[str]:
    """Every SQL statement run on a connection a catalog opens from now
    on, in order."""
    statements: list[str] = []
    connect = Catalog._connect

    def traced(catalog):
        conn, wal = connect(catalog)
        conn.set_trace_callback(statements.append)
        return conn, wal

    monkeypatch.setattr(Catalog, "_connect", traced)
    return statements


class TestStampsAndMemo:
    """LRU stamps wait in memory until something reads ``last_access``;
    row lookups are kept until the next writer transaction ends."""

    @staticmethod
    def stamp_on_disk(catalog, gop_id):
        fresh = Catalog(catalog.path)
        try:
            return fresh.get_gop(gop_id).last_access
        finally:
            fresh.close()

    def test_stamps_are_written_when_read_or_closed(self, tmp_path):
        catalog = Catalog(tmp_path / "catalog.db")
        video = catalog.create_logical("v", 0)
        physical = add_physical(catalog, video)
        a, b = (
            catalog.add_gop(physical.id, seq, seq, seq + 1.0, 30, "I", 100, f"p{seq}")
            for seq in (0, 1)
        )
        catalog.touch_gops([a.id, b.id, a.id], 42)
        catalog.touch_gops([a.id], 7)  # an older tick loses
        assert self.stamp_on_disk(catalog, a.id) == 0  # still buffered
        assert catalog.get_gop(a.id).last_access == 42
        assert self.stamp_on_disk(catalog, b.id) == 42
        catalog.touch_gops([b.id], 43)
        catalog.close()
        reopened = Catalog(tmp_path / "catalog.db")
        assert [g.last_access for g in reopened.gops_of_logical(video.id)] == [42, 43]
        reopened.close()

    def test_lookups_are_kept_until_the_next_commit(self, tmp_path, monkeypatch):
        statements = traced_statements(monkeypatch)
        catalog = Catalog(tmp_path / "catalog.db")
        video = catalog.create_logical("v", 0)
        physical = add_physical(catalog, video)
        catalog.add_gop(physical.id, 0, 0.0, 1.0, 30, "I", 100, "p")

        def lookups():
            return (
                catalog.get_logical("v"),
                catalog.get_logical_by_id(video.id),
                catalog.original_physical(video.id),
                catalog.total_bytes(video.id),
            )

        statements.clear()
        answers = lookups()
        assert len(statements) == 4
        assert lookups() == answers and len(statements) == 4
        catalog.set_budget(video.id, 5)
        statements.clear()
        assert catalog.get_logical("v").budget_bytes == 5
        assert len(statements) == 1
        catalog.close()

    def test_a_lookup_a_commit_overtook_is_not_kept(self, catalog, monkeypatch):
        video = catalog.create_logical("v", 0)
        first = Catalog._first

        def overtaken(self, *args, **kwargs):
            row = first(self, *args, **kwargs)
            monkeypatch.undo()
            catalog.set_budget(video.id, 5)  # commits after the row was read
            return row

        monkeypatch.setattr(Catalog, "_first", overtaken)
        assert catalog.get_logical("v").budget_bytes == 0  # its own answer
        assert catalog.get_logical("v").budget_bytes == 5  # not kept

    def test_a_lookup_inside_a_write_is_not_kept(self, catalog):
        """Without WAL a lookup inside a writer transaction reads its
        uncommitted rows; none is kept for other threads to see."""
        video = catalog.create_logical("v", 0)
        catalog._wal = False  # the locked-connection fallback
        seen = []

        def hook(conn, logical_id):
            conn.execute("UPDATE logical_videos SET budget_bytes = 9")
            seen.append((catalog.get_logical("v").budget_bytes, dict(catalog._memo)))
            raise CatalogError("refused")  # rolls the update back

        catalog.add_delete_hook(hook)
        with pytest.raises(CatalogError):
            catalog.delete_logical(video.id)
        assert seen == [(9, {})]
        assert catalog.get_logical("v").budget_bytes == 0

    def test_touches_lookups_and_commits_race_without_loss(self, catalog):
        """Touchers, readers of stamped rows and memoized lookups, and a
        writer, on more threads than cores: every GOP ends at its
        highest tick, and a lookup after each commit sees that commit
        (a reader's answer read before it was never kept)."""
        video = catalog.create_logical("v", 0)
        physical = add_physical(catalog, video)
        gops = [
            catalog.add_gop(physical.id, seq, seq, seq + 1.0, 30, "I", 100, f"p{seq}").id
            for seq in range(4)
        ]
        stale: list[int] = []

        def touch(worker):
            for tick in range(worker, 2000, 4):
                catalog.touch_gops([gops[tick % 4], gops[(tick + 1) % 4]], tick)

        def read():
            for _ in range(100):
                catalog.gops_of_logical(video.id)
                catalog.get_logical("v")
                catalog.total_bytes(video.id)

        def write():
            for budget in range(1, 101):
                catalog.set_budget(video.id, budget)
                if catalog.get_logical("v").budget_bytes != budget:
                    stale.append(budget)

        threads = [
            threading.Thread(target=touch, args=(w,)) for w in range(4)
        ] + [threading.Thread(target=read) for _ in range(2)] + [
            threading.Thread(target=write)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force preemption inside the locks
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert stale == []
        assert [g.last_access for g in catalog.gops_of_logical(video.id)] == [
            1999, 1997, 1998, 1999,
        ]

    def test_errors_are_not_kept(self, catalog):
        with pytest.raises(VideoNotFoundError):
            catalog.get_logical("v")
        other = Catalog(catalog.path)  # a commit this catalog cannot see
        try:
            made = other.create_logical("v", 0)
        finally:
            other.close()
        assert catalog.get_logical("v") == made


class TestWarmReadsRunNoSQL:
    """After a warm-up, a plan-cached read, a drained stream and a batch
    run no SQL statement on any catalog connection; a write, a budget
    change and a delete + re-create each send the next lookup to SQL."""

    @pytest.fixture()
    def traced(self, tmp_path, calibration, monkeypatch):
        statements = traced_statements(monkeypatch)
        with VSSEngine(tmp_path / "s", calibration=calibration) as engine:
            yield engine, statements

    def test_warm_reads_run_no_sql(self, traced, tiny_clip):
        engine, statements = traced
        session = engine.session()
        session.write("v", tiny_clip, codec="h264", qp=14, gop_size=12)
        whole = ReadSpec("v", 0.0, 0.8, codec="raw", cache=False)
        half = whole.replace(end=0.4, resolution=(32, 18))
        for spec in (whole, half):
            engine.read(spec)  # plans, and fills the decode cache
        engine.drain_admissions()  # the write's extraction commits
        engine.read(whole)  # looks the rows up again

        statements.clear()
        assert engine.read(whole).stats.plan_cached
        assert statements == []
        stream = engine.read_stream(whole)
        assert len(list(stream)) == 2 and stream.stats.plan_cached
        assert statements == []
        results, _ = engine.read_batch([whole, half])
        assert [r.stats.plan_cached for r in results] == [True, True]
        assert statements == []

    def test_commits_send_the_next_lookup_to_sql(self, traced, tiny_clip):
        engine, statements = traced
        catalog, session = engine.catalog, engine.session()
        v = session.create("v")
        assert catalog.original_physical(v.id) is None

        def looked_up(lookup):
            engine.drain_admissions()  # no background statement counts
            statements.clear()
            answer = lookup()
            assert statements, "answered from a stale memo"
            return answer

        session.write("v", tiny_clip, codec="h264", qp=14, gop_size=12)
        assert looked_up(lambda: catalog.original_physical(v.id)) is not None
        assert looked_up(lambda: catalog.total_bytes(v.id)) > 0
        engine.set_budget("v", 10**9)
        assert looked_up(lambda: catalog.get_logical("v")).budget_bytes == 10**9
        assert looked_up(lambda: catalog.get_logical_by_id(v.id)).budget_bytes == 10**9
        session.delete("v")
        session.create("v")
        again = looked_up(lambda: catalog.get_logical("v"))
        assert again.id != v.id
        assert looked_up(lambda: catalog.original_physical(again.id)) is None
        assert looked_up(lambda: catalog.total_bytes(again.id)) == 0


def test_lru_order_is_unchanged(tmp_path, calibration):
    """The reads' stamps, buffered in memory, order an LRU eviction as
    they did when each read wrote its own: the cached physical's two
    pages touched last (seconds 3, then 0) stay."""
    with VSSEngine(
        tmp_path / "s", calibration=calibration, cache_policy="lru"
    ) as engine:
        session = engine.session()
        session.write("v", _render_clip(120), codec="h264", qp=14, gop_size=30)
        session.read("v", 0.0, 4.0, codec="hevc")  # admits GOPs 5-8
        engine.drain_admissions()
        session.read("v", 3.0, 4.0, codec="hevc")
        session.read("v", 0.0, 1.0, codec="hevc")
        catalog = engine.catalog
        logical = catalog.get_logical("v")
        original, cached = catalog.list_physicals(logical.id)
        pages = catalog.gops_of_physical(cached.id)
        engine.set_budget("v", sum(
            g.nbytes for g in catalog.gops_of_physical(original.id)
        ) + pages[0].nbytes + pages[3].nbytes)
        report = engine.enforce_budget("v")
        assert report.evicted_gop_ids == [6, 7] and report.fit
        assert {
            g.id: g.last_access for g in catalog.gops_of_physical(cached.id)
        } == {5: 5, 8: 4}


class TestFragments:
    def test_contiguous_gops_form_one_fragment(self, catalog):
        video = catalog.create_logical("v", 0)
        physical = add_physical(catalog, video, end_time=3.0)
        for seq in range(3):
            catalog.add_gop(
                physical.id, seq, float(seq), float(seq + 1), 30, "I", 100, f"p{seq}"
            )
        fragments = catalog.fragments_of_logical(video.id)
        assert len(fragments) == 1
        assert fragments[0].start_time == 0.0
        assert fragments[0].end_time == 3.0
        assert fragments[0].num_frames == 90

    def test_eviction_hole_splits_fragment(self, catalog):
        video = catalog.create_logical("v", 0)
        physical = add_physical(catalog, video, end_time=3.0)
        gops = [
            catalog.add_gop(
                physical.id, seq, float(seq), float(seq + 1), 30, "I", 100, f"p{seq}"
            )
            for seq in range(3)
        ]
        catalog.delete_gop(gops[1].id)
        fragments = catalog.fragments_of_logical(video.id)
        assert len(fragments) == 2
        assert [f.start_time for f in fragments] == [0.0, 2.0]

    def test_sealed_only_filter(self, catalog):
        video = catalog.create_logical("v", 0)
        physical = add_physical(catalog, video, sealed=False)
        catalog.add_gop(physical.id, 0, 0.0, 1.0, 30, "I", 100, "p")
        assert catalog.fragments_of_logical(video.id, sealed_only=True) == []
        assert len(catalog.fragments_of_logical(video.id)) == 1

    def test_gops_overlapping(self, catalog):
        video = catalog.create_logical("v", 0)
        physical = add_physical(catalog, video, end_time=3.0)
        for seq in range(3):
            catalog.add_gop(
                physical.id, seq, float(seq), float(seq + 1), 30, "I", 100, f"p{seq}"
            )
        fragment = catalog.fragments_of_logical(video.id)[0]
        assert [g.seq for g in fragment.gops_overlapping(1.2, 1.8)] == [1]


class TestLayout:
    def test_gop_file_roundtrip(self, layout):
        seg = make_segment(n=6, h=16, w=24)
        gop = encode_gop("h264", seg, qp=14, gop_size=6)[0]
        relpath, nbytes = layout.write_gop("v", 1, 0, gop)
        assert nbytes > 0
        back = layout.read_gop(relpath)
        assert back.frame_types == gop.frame_types
        assert back.payloads == gop.payloads

    def test_deferred_compression_file(self, layout):
        seg = make_segment(n=4, h=16, w=24)
        gop = encode_gop("raw", seg, gop_size=4)[0]
        relpath, nbytes = layout.write_gop("v", 1, 0, gop)
        new_rel, new_bytes = layout.compress_gop_file(relpath, 5)
        # Rewritten in place: same path, no staging file left behind.
        assert new_rel == relpath
        assert new_bytes == layout.file_size(relpath)
        assert [p.name for p in (layout.root / relpath).parent.iterdir()] == [
            "0.gop"
        ]
        back = layout.read_gop(relpath)
        assert back.payloads == gop.payloads

    def test_old_z_twin_reads_by_its_header(self, layout):
        """Older stores moved a compressed page to ``<seq>.gop.z``; the
        header, not the name or the catalog's level, says how to read."""
        seg = make_segment(n=4, h=16, w=24)
        gop = encode_gop("raw", seg, gop_size=4)[0]
        relpath, _ = layout.write_gop("v", 1, 0, gop)
        source = layout.root / relpath
        (layout.root / (relpath + ".z")).write_bytes(
            zstd.compress(source.read_bytes(), 5)
        )
        source.unlink()
        assert layout.read_gop(relpath + ".z").payloads == gop.payloads

    def test_delete_prunes_empty_dirs(self, layout):
        seg = make_segment(n=2, h=16, w=24)
        gop = encode_gop("raw", seg)[0]
        relpath, _ = layout.write_gop("v", 1, 0, gop)
        kept, _ = layout.write_gop("v", 2, 0, gop)
        layout.sweep([relpath])
        assert not (layout.root / "videos/v/1").exists()
        assert layout.stored_files() == {kept}

    def test_delete_logical_files(self, layout):
        seg = make_segment(n=2, h=16, w=24)
        gop = encode_gop("raw", seg)[0]
        written = [layout.write_gop("v", pid, 0, gop)[0] for pid in (1, 2)]
        layout.sweep(written)
        assert not (layout.root / "videos/v").exists()
        # The top-level directories stay; missing paths are no error.
        assert (layout.root / "videos").is_dir()
        layout.sweep(written)

    def test_joint_piece_roundtrip(self, layout):
        seg = make_segment(n=2, h=16, w=24)
        gop = encode_gop("h264", seg, qp=14)[0]
        relpath, _ = layout.write_joint_piece(7, 9, "left", gop)
        assert relpath == "joint/7-9.left.gop"
        assert layout.read_gop(relpath).payloads == gop.payloads
        layout.sweep([relpath])
        assert layout.stored_files() == set()
        assert (layout.root / "joint").is_dir()

    def test_a_directory_is_made_once_not_per_file(self, layout, monkeypatch):
        gop = encode_gop("raw", make_segment(n=2, h=16, w=24))[0]
        made = []
        mkdir = Path.mkdir
        def counted(path, *args, **kwargs):
            made.append(path)
            return mkdir(path, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", counted)
        written = [layout.write_gop("v", 1, 0, gop)[0]]
        first = len(made)  # the directory and its parents, once
        assert layout.root / "videos/v/1" in made
        written += [layout.write_gop("v", 1, seq, gop)[0] for seq in (1, 2)]
        assert len(made) == first
        layout.sweep(written)  # removes the emptied directory too
        layout.write_gop("v", 1, 3, gop)
        assert len(made) > first

    def test_files_are_never_overwritten(self, layout):
        seg = make_segment(n=2, h=16, w=24)
        gop = encode_gop("raw", seg)[0]
        relpath, _ = layout.write_gop("v", 1, 0, gop)
        before = (layout.root / relpath).read_bytes()
        with pytest.raises(FileExistsError):
            layout.write_gop("v", 1, 0, encode_gop("raw", make_segment(n=3))[0])
        layout.write_joint_piece(1, 2, "left", gop)
        with pytest.raises(FileExistsError):
            layout.write_joint_piece(1, 2, "left", gop)
        assert (layout.root / relpath).read_bytes() == before
