"""The file lifecycle: ids are never recycled, a file is written before
the rows that name it, and it is removed only after them, by one sweep.

Each probe below drives the public engine API the way an application
would and then compares pixels; ``engine.check()`` diffs the catalog
against the files at the end.
"""

import json
import os
import re
import sqlite3
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.catalog import Catalog
from repro.core.engine import VSSEngine
from repro.errors import CatalogError, StoreLockedError
from repro.jointcomp import JointCompressionManager
from repro.server.__main__ import check_offline
from repro.synthetic import visualroad
from repro.video.metrics import segment_psnr

CLEAN = {"orphans": [], "dangling": [], "mismatched": [], "pending": []}


class Crash(Exception):
    """A catalog commit that never happened."""


def crash(*args, **kwargs):
    raise Crash("the process died before this commit")


# ----------------------------------------------------------------------
# the compaction probe
# ----------------------------------------------------------------------
def probe_store(root, calibration, clip, compact=True) -> VSSEngine:
    """A 3-s h264 original with [0,1) and [1,2) cached as hevc (the
    budget raised so nothing is evicted), compacted into one physical."""
    engine = VSSEngine(root, calibration=calibration)
    session = engine.session()
    session.write("traffic", clip, codec="h264", qp=10, gop_size=30)
    engine.set_budget("traffic", 10**9)
    for lo in (0.0, 1.0):
        session.read("traffic", lo, lo + 1.0, codec="hevc")
    engine.drain_admissions()
    if compact:
        assert engine.compact("traffic") == 1
    return engine


def hevc_first_two_seconds(engine) -> np.ndarray:
    result = engine.session().read(
        "traffic", 0.0, 2.0, codec="hevc", cache=False
    )
    return result.as_segment().pixels


def cache_third_second(engine) -> None:
    engine.session().read("traffic", 2.0, 3.0, codec="hevc")
    engine.drain_admissions()


def test_compaction_never_lends_a_file_name_to_a_new_physical(
    tmp_path, calibration, three_second_clip
):
    with probe_store(
        tmp_path / "store", calibration, three_second_clip
    ) as engine:
        before = hevc_first_two_seconds(engine)
        cache_third_second(engine)
        assert np.array_equal(hevc_first_two_seconds(engine), before)
        paths = [
            g.path
            for g in engine.catalog.gops_of_logical(
                engine.catalog.get_logical("traffic").id
            )
        ]
        assert len(paths) == len(set(paths))
        assert engine.check() == CLEAN


def downgrade(db) -> None:
    """Rewrite a catalog as releases before the schema version wrote it:
    rowids without ``AUTOINCREMENT`` and no ``schema_version`` row."""
    conn = sqlite3.connect(db)
    conn.execute("PRAGMA legacy_alter_table = ON")
    for table in (
        "logical_videos", "physical_videos", "tile_groups", "gops",
        "joint_pairs",
    ):
        (sql,) = conn.execute(
            "SELECT sql FROM sqlite_master WHERE name = ?", (table,)
        ).fetchone()
        conn.execute(f"ALTER TABLE {table} RENAME TO old")
        conn.execute(sql.replace(" AUTOINCREMENT", ""))
        conn.execute(f"INSERT INTO {table} SELECT * FROM old")
        conn.execute("DROP TABLE old")
    if conn.execute(
        "SELECT 1 FROM sqlite_master WHERE name = 'sqlite_sequence'"
    ).fetchone():
        conn.execute("DELETE FROM sqlite_sequence")
    conn.execute("DELETE FROM meta")
    conn.commit()
    conn.close()


def test_migrated_store_never_reuses_a_compacted_physicals_name(
    tmp_path, calibration, three_second_clip
):
    root = tmp_path / "store"
    with probe_store(root, calibration, three_second_clip) as engine:
        before = hevc_first_two_seconds(engine)
    downgrade(root / "catalog.db")
    with VSSEngine(root, calibration=calibration) as engine:
        cache_third_second(engine)
        assert np.array_equal(hevc_first_two_seconds(engine), before)
        assert engine.check() == CLEAN


# ----------------------------------------------------------------------
# joint compression
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def cameras():
    return visualroad("1K", overlap=0.5, num_frames=10).videos(0, 10)


def joint_store(root, calibration, cameras) -> VSSEngine:
    engine = VSSEngine(root, calibration=calibration, cache_reads=False)
    session = engine.session()
    for name, clip in zip(("left", "right"), cameras):
        session.write(name, clip, codec="h264", qp=10, gop_size=5)
    return engine


def test_joint_pieces_leave_with_the_last_gop_naming_them(
    tmp_path, calibration, cameras
):
    root = tmp_path / "store"
    with joint_store(root, calibration, cameras) as engine:
        report = JointCompressionManager(engine, merge="mean").optimize()
        assert report.pairs_compressed >= 1
        pieces = sorted(p.name for p in (root / "joint").iterdir())
        engine.delete("left")
        # The pairs still hold the right camera's pixels.
        assert sorted(p.name for p in (root / "joint").iterdir()) == pieces
        got = engine.session().read("right", 0.0, 1 / 3, codec="raw")
        assert segment_psnr(cameras[1], got.segment) >= 26.0
        engine.delete("right")
        assert list((root / "joint").iterdir()) == []
        with engine.catalog._read() as conn:
            assert conn.execute(
                "SELECT COUNT(*) FROM joint_pairs"
            ).fetchone()[0] == 0
        assert engine.check() == CLEAN


def test_a_pair_refused_by_its_transaction_leaves_no_piece(
    tmp_path, calibration, cameras
):
    root = tmp_path / "store"
    with joint_store(root, calibration, cameras) as engine:
        add = Catalog.add_joint_pair

        def evicted_meanwhile(catalog, gop_a, *args):
            engine.layout.sweep(catalog.delete_gop(gop_a))
            return add(catalog, gop_a, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Catalog, "add_joint_pair", evicted_meanwhile)
            report = JointCompressionManager(engine, merge="mean").optimize(
                max_pairs=1
            )
        assert (report.candidates_considered, report.pairs_compressed) == (1, 0)
        assert list((root / "joint").iterdir()) == []
        assert engine.check() == CLEAN


def test_a_video_deleted_before_the_pair_decode_skips_the_pair(
    tmp_path, calibration, cameras
):
    """A video deleted between optimize's scan and its decode of the
    pair: the pages are swept, so the pair is skipped, not raised."""
    root = tmp_path / "store"
    with joint_store(root, calibration, cameras) as engine:
        manager = JointCompressionManager(engine, merge="mean")
        candidates = manager.selector.candidates

        def deleted_meanwhile():
            found = candidates()
            engine.delete("left")
            return found

        manager.selector.candidates = deleted_meanwhile
        report = manager.optimize()
        assert report.candidates_considered >= 1
        assert (report.pairs_compressed, report.pairs_rejected) == (0, 0)
        assert list((root / "joint").iterdir()) == []
        assert engine.check() == CLEAN


def test_a_repeated_read_after_optimize_replans(
    tmp_path, calibration, cameras
):
    with joint_store(tmp_path / "store", calibration, cameras) as engine:
        session = engine.session()
        session.read("left", 0.0, 1 / 3, codec="raw")
        JointCompressionManager(engine, merge="mean").optimize()
        again = session.read("left", 0.0, 1 / 3, codec="raw").segment
        assert segment_psnr(cameras[0], again) >= 26.0


# ----------------------------------------------------------------------
# one transaction per mutation
# ----------------------------------------------------------------------
def rows(catalog) -> dict:
    with catalog._read() as conn:
        return {
            table: [tuple(r) for r in conn.execute(
                f"SELECT * FROM {table} ORDER BY id"
            )]
            for table in ("physical_videos", "gops")
        }


def test_a_merge_that_fails_midway_changes_no_row(
    tmp_path, calibration, three_second_clip
):
    with probe_store(
        tmp_path / "store", calibration, three_second_clip, compact=False
    ) as engine:
        before = rows(engine.catalog)
        # Fails the merge's last statement, after its GOP updates.
        engine.catalog._conn.execute(
            "CREATE TEMP TRIGGER fail_merge BEFORE DELETE ON physical_videos"
            " BEGIN SELECT RAISE(ABORT, 'injected'); END"
        )
        with pytest.raises(sqlite3.DatabaseError, match="injected"):
            engine.compact("traffic")
        assert rows(engine.catalog) == before
        engine.catalog._conn.execute("DROP TRIGGER fail_merge")
        assert engine.compact("traffic") == 1


# ----------------------------------------------------------------------
# crashes between a file write and its rows
# ----------------------------------------------------------------------
def traffic_pixels(engine) -> np.ndarray:
    return engine.session().read(
        "traffic", 0.0, 3.0, codec="raw", cache=False
    ).segment.pixels


def crash_and_reopen(root, calibration, engine, point, operation):
    """Run ``operation`` with ``point``'s commit failing, check that the
    file it wrote is an orphan, and reopen the store."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Catalog, point, crash)
        operation()
    assert engine.check()["orphans"]
    engine.close()
    return VSSEngine(root, calibration=calibration)


@pytest.mark.parametrize("point", ["write", "admission"])
def test_crash_before_a_gop_row_leaves_only_an_orphan(
    tmp_path, calibration, three_second_clip, point
):
    root = tmp_path / "store"
    engine = VSSEngine(root, calibration=calibration)
    session = engine.session()
    session.write("traffic", three_second_clip, codec="h264", gop_size=30)
    before = traffic_pixels(engine)

    def write():
        with pytest.raises(Crash):
            session.write("traffic", three_second_clip, codec="hevc")

    def admission():
        session.read("traffic", 0.0, 1.0, codec="hevc")
        engine.drain_admissions()
        assert engine._admissions.stats.failures == 1

    operation = write if point == "write" else admission
    with crash_and_reopen(root, calibration, engine, "add_gop", operation) as engine:
        assert engine.check() == CLEAN
        assert np.array_equal(traffic_pixels(engine), before)


def test_crash_before_the_joint_transaction_leaves_only_orphans(
    tmp_path, calibration, cameras
):
    root = tmp_path / "store"
    engine = joint_store(root, calibration, cameras)
    session = engine.session()
    before = [
        session.read(name, 0.0, 1 / 3, codec="raw").segment.pixels
        for name in ("left", "right")
    ]

    def optimize():
        with pytest.raises(Crash):
            JointCompressionManager(engine, merge="mean").optimize()

    with crash_and_reopen(
        root, calibration, engine, "add_joint_pair", optimize
    ) as engine:
        assert engine.check() == CLEAN
        assert list((root / "joint").iterdir()) == []
        after = [
            engine.session().read(name, 0.0, 1 / 3, codec="raw").segment.pixels
            for name in ("left", "right")
        ]
        assert all(np.array_equal(a, b) for a, b in zip(after, before))


# ----------------------------------------------------------------------
# the sweep at open, check(), the schema version
# ----------------------------------------------------------------------
def test_open_sweeps_unnamed_files_but_not_a_new_catalogs_store(
    tmp_path, calibration, tiny_clip
):
    root = tmp_path / "store"
    with VSSEngine(root, calibration=calibration) as engine:
        engine.session().write("v", tiny_clip, codec="h264")
        (page,) = engine.layout.stored_files()
    planted = [f"{page}.tmp", "videos/v/99/0.gop", "joint/1-2.left.gop"]
    for relpath in planted:
        (root / relpath).parent.mkdir(parents=True, exist_ok=True)
        (root / relpath).write_bytes(b"partial")
    with VSSEngine(root, calibration=calibration) as engine:
        assert engine.check() == CLEAN
        assert engine.layout.stored_files() == {page}
        assert not (root / "videos/v/99").exists()
    # Without its catalog a store's files are all unnamed; they stay.
    for db in root.glob("catalog.db*"):
        db.unlink()
    with VSSEngine(root, calibration=calibration) as engine:
        assert engine.layout.stored_files() == {page}
        assert engine.check()["orphans"] == [page]


def test_check_reports_without_repairing(tmp_path, calibration, tiny_clip):
    root = tmp_path / "store"
    with VSSEngine(root, calibration=calibration) as engine:
        session = engine.session()
        session.write("a", tiny_clip, codec="h264", gop_size=12)
        session.write("b", tiny_clip, codec="raw", gop_size=12)
        first, second = (
            g.path
            for g in engine.catalog.gops_of_logical(
                engine.catalog.get_logical("a").id
            )
        )
        (root / first).unlink()
        (root / second).write_bytes(_raw_page(engine, "b"))
        (root / "videos/a/77").mkdir()
        (root / "videos/a/77/0.gop").write_bytes(b"stray")
        expected = {
            "orphans": ["videos/a/77/0.gop"],
            "dangling": [first],
            "mismatched": [second],
            "pending": [],
        }
        assert engine.check() == expected
        assert engine.check("a") == expected
        assert engine.check("b") == CLEAN
        assert engine.check() == expected  # nothing was repaired


def test_check_cli_prints_the_report_and_exits_on_findings(
    tmp_path, calibration, tiny_clip
):
    """``python -m repro.server <root> --check`` in its own process: a
    clean store exits 0; a planted orphan is reported, exit 1, and is
    still there afterwards (the command opens no engine, so nothing is
    swept); with a deleted page both are reported; a store whose catalog
    is lost reports every file as an orphan and is not given a new
    catalog."""
    root = tmp_path / "store"
    with VSSEngine(root, calibration=calibration) as engine:
        engine.session().write("v", tiny_clip, codec="h264", gop_size=12)
        files = engine.layout.stored_files()
    page = sorted(files)[0]
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))

    def check_cli() -> tuple[int, dict]:
        done = subprocess.run(
            [sys.executable, "-m", "repro.server", str(root), "--check"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        return done.returncode, json.loads(done.stdout)

    assert check_cli() == (0, CLEAN)
    orphan = "videos/v/99/0.gop"
    (root / "videos/v/99").mkdir()
    (root / orphan).write_bytes(b"stray")
    assert check_cli() == (1, {**CLEAN, "orphans": [orphan]})
    assert (root / orphan).read_bytes() == b"stray"
    (root / page).unlink()
    assert check_cli() == (1, {**CLEAN, "orphans": [orphan], "dangling": [page]})
    for db in root.glob("catalog.db*"):
        db.unlink()
    lost = sorted({*files, orphan} - {page})
    assert check_cli() == (1, {**CLEAN, "orphans": lost})
    assert not (root / "catalog.db").exists()


#: A process that opens an engine on ``argv[1]`` and holds it until a
#: line arrives on stdin.
HOLDER = """
import sys
from repro.core.engine import VSSEngine
engine = VSSEngine(sys.argv[1])
print("open", flush=True)
sys.stdin.readline()
engine.close()
"""


def test_a_store_open_in_another_process_is_refused_before_its_sweep(
    tmp_path, calibration, tiny_clip
):
    """While another process holds the store, an open raises
    ``StoreLockedError`` naming the root, and removes nothing: a page the
    holder wrote ahead of its row is still there.  The offline check
    takes no lock and still runs.  Once the holder closes, the store
    opens and its sweep removes the page no row names."""
    root = tmp_path / "store"
    with VSSEngine(root, calibration=calibration) as engine:
        engine.session().write("v", tiny_clip, codec="h264", gop_size=12)
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    holder = subprocess.Popen(
        [sys.executable, "-c", HOLDER, str(root)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
    )
    inflight = "videos/v/99/0.gop"
    try:
        assert holder.stdout.readline() == "open\n"
        (root / "videos/v/99").mkdir()
        (root / inflight).write_bytes(b"written before its row")
        with pytest.raises(StoreLockedError, match=re.escape(str(root))):
            VSSEngine(root, calibration=calibration)
        assert (root / inflight).exists()
        assert check_offline(root) == {**CLEAN, "orphans": [inflight]}
    finally:
        holder.communicate("\n", timeout=120)
    assert holder.returncode == 0
    with VSSEngine(root, calibration=calibration) as engine:
        assert not (root / inflight).exists()
        assert engine.check() == CLEAN


def test_one_engine_per_store_in_one_process_too(tmp_path, calibration):
    root = tmp_path / "store"
    with VSSEngine(root, calibration=calibration):
        with pytest.raises(StoreLockedError):
            VSSEngine(root, calibration=calibration)
    VSSEngine(root, calibration=calibration).close()  # released at close


def _raw_page(engine, name) -> bytes:
    (gop, *_) = engine.catalog.gops_of_logical(
        engine.catalog.get_logical(name).id
    )
    return (engine.layout.root / gop.path).read_bytes()


def test_schema_version_migrates_old_stores_and_refuses_newer(tmp_path):
    path = tmp_path / "catalog.db"
    Catalog(path).close()
    conn = sqlite3.connect(path)
    assert conn.execute(
        "SELECT value FROM meta WHERE key = 'schema_version'"
    ).fetchone() == ("1",)
    conn.execute(
        "UPDATE meta SET value = '2' WHERE key = 'schema_version'"
    )
    conn.commit()
    conn.close()
    with pytest.raises(CatalogError, match="newer"):
        Catalog(path)


def test_migration_starts_physical_ids_above_every_named_directory(
    tmp_path,
):
    path = tmp_path / "catalog.db"
    catalog = Catalog(path)
    video = catalog.create_logical("v", 0)
    physical = catalog.add_physical(
        video.id, "h264", "rgb", 64, 36, 30.0, 14, None, 0.0, 1.0, 0.0, True
    )
    catalog.add_gop(
        physical.id, 0, 0.0, 1.0, 30, "I" * 30, 10, "videos/v/7/0.gop.z"
    )
    catalog.close()
    downgrade(path)
    catalog = Catalog(path)
    try:
        (gop,) = catalog.gops_of_physical(physical.id)
        assert gop.path == "videos/v/7/0.gop.z"
        fresh = catalog.add_physical(
            video.id, "hevc", "rgb", 64, 36, 30.0, 14, None, 0.0, 1.0, 0.0,
            False,
        )
        assert fresh.id == 8
        catalog.delete_physical(fresh.id)
        assert catalog.create_logical("w", 0).id == video.id + 1
        catalog.delete_logical(video.id)
        assert catalog.create_logical("v", 0).id > video.id + 1
    finally:
        catalog.close()
