"""SQLite-backed catalog of logical videos, physical videos, and GOPs.

The paper's prototype keeps its metadata in SQLite [44]; so does this one.
Concurrency model (the engine API serves many sessions at once):

* **Writes** funnel through one connection guarded by a re-entrant lock —
  SQLite allows a single writer anyway, and taking our own lock avoids
  ``SQLITE_BUSY`` churn between the read path, the deferred-compression
  background thread, and concurrent sessions.
* **Reads** use a connection per thread when WAL mode is available, so
  concurrent sessions reading the catalog never serialize on the writer
  lock (WAL readers see the last committed snapshot and never block).
  Where WAL is unavailable (e.g. network filesystems without
  shared-memory maps) every operation falls back to the single locked
  connection, the pre-engine behaviour.

Cross-statement consistency for one logical video (e.g. the two queries
inside :meth:`fragments_of_logical`) is provided by the engine's
per-logical locks, not by the catalog.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
import weakref
from contextlib import contextmanager
from pathlib import Path

from repro.errors import CatalogError, VideoExistsError, VideoNotFoundError
from repro.core.records import (
    Fragment,
    GopRecord,
    JointPairRecord,
    LogicalVideo,
    PhysicalVideo,
    TileGroupRecord,
    ViewRecord,
)
from repro.core.specs import ViewSpec

_SCHEMA = """
CREATE TABLE IF NOT EXISTS logical_videos (
    id INTEGER PRIMARY KEY,
    name TEXT NOT NULL UNIQUE,
    budget_bytes INTEGER NOT NULL,
    created_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS physical_videos (
    id INTEGER PRIMARY KEY,
    logical_id INTEGER NOT NULL REFERENCES logical_videos(id),
    codec TEXT NOT NULL,
    pixel_format TEXT NOT NULL,
    width INTEGER NOT NULL,
    height INTEGER NOT NULL,
    fps REAL NOT NULL,
    qp INTEGER NOT NULL,
    roi TEXT,
    start_time REAL NOT NULL,
    end_time REAL NOT NULL,
    mse_estimate REAL NOT NULL,
    is_original INTEGER NOT NULL,
    sealed INTEGER NOT NULL,
    tile_group_id INTEGER,
    tile_index INTEGER,
    format_mse REAL NOT NULL DEFAULT 0.0
);
CREATE INDEX IF NOT EXISTS physical_by_logical
    ON physical_videos(logical_id);
CREATE TABLE IF NOT EXISTS tile_groups (
    id INTEGER PRIMARY KEY,
    logical_id INTEGER NOT NULL REFERENCES logical_videos(id),
    source_physical_id INTEGER NOT NULL,
    grid TEXT NOT NULL,
    created_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS tile_groups_by_logical
    ON tile_groups(logical_id);
CREATE TABLE IF NOT EXISTS roi_accesses (
    logical_id INTEGER NOT NULL,
    x0 INTEGER NOT NULL,
    y0 INTEGER NOT NULL,
    x1 INTEGER NOT NULL,
    y1 INTEGER NOT NULL,
    count INTEGER NOT NULL DEFAULT 0,
    last_tick INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (logical_id, x0, y0, x1, y1)
);
CREATE TABLE IF NOT EXISTS gops (
    id INTEGER PRIMARY KEY,
    physical_id INTEGER NOT NULL REFERENCES physical_videos(id),
    seq INTEGER NOT NULL,
    start_time REAL NOT NULL,
    end_time REAL NOT NULL,
    num_frames INTEGER NOT NULL,
    frame_types TEXT NOT NULL,
    nbytes INTEGER NOT NULL,
    path TEXT NOT NULL,
    last_access INTEGER NOT NULL DEFAULT 0,
    zstd_level INTEGER NOT NULL DEFAULT 0,
    joint_pair_id INTEGER,
    joint_role TEXT
);
CREATE INDEX IF NOT EXISTS gops_by_physical ON gops(physical_id, seq);
CREATE INDEX IF NOT EXISTS gops_by_time ON gops(physical_id, start_time);
CREATE INDEX IF NOT EXISTS gops_by_last_access ON gops(last_access);
CREATE TABLE IF NOT EXISTS joint_pairs (
    id INTEGER PRIMARY KEY,
    homography TEXT NOT NULL,
    x_f INTEGER NOT NULL,
    x_g INTEGER NOT NULL,
    merge TEXT NOT NULL,
    left_path TEXT NOT NULL,
    overlap_path TEXT,
    right_path TEXT,
    nbytes INTEGER NOT NULL,
    duplicate INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS views (
    id INTEGER PRIMARY KEY,
    name TEXT NOT NULL UNIQUE,
    over TEXT NOT NULL,
    spec TEXT NOT NULL,
    created_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS views_by_over ON views(over);
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


def _roi_to_text(roi) -> str | None:
    return None if roi is None else json.dumps(list(roi))


def _roi_from_text(text) -> tuple[int, int, int, int] | None:
    return None if text is None else tuple(json.loads(text))


class _ReaderConn:
    """Weakref-able wrapper for one thread's reader connection.

    ``sqlite3.Connection`` itself cannot be weak-referenced, so the
    catalog keeps a weakref to this holder: the holder lives in the
    owning thread's local storage, and when that thread dies the holder
    is dropped, the connection's last strong reference goes with it, and
    SQLite closes the handle — no per-dead-thread leak.
    """

    __slots__ = ("conn", "__weakref__")

    def __init__(self, conn: sqlite3.Connection):
        self.conn = conn


class Catalog:
    """All metadata operations for one VSS store."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()  # guards the writer connection
        self._readers_lock = threading.Lock()
        # Per-logical mutation counters backing the engine's versioned
        # plan cache: every page-affecting mutation (write, evict,
        # compact, deferred compression rewrite, refinement, delete)
        # bumps its logical's version, so a memoized read plan is valid
        # exactly while the version it was keyed under still holds.
        # In-memory (one engine per store, like the per-logical locks);
        # entries are never removed — SQLite reuses rowids, and a
        # recreated logical resuming from the old counter (instead of 0)
        # is what keeps stale plan-cache entries unreachable.
        self._versions_lock = threading.Lock()
        self._versions: dict[int, int] = {}
        # Callables run inside delete_logical's writer transaction, so
        # subsystems keeping sidecar tables in this database (the search
        # index) cascade atomically with the catalog rows — SQLite
        # reuses rowids, so an orphaned sidecar row would silently
        # attach to a recreated video.
        self._delete_hooks: list = []
        self._readers: list[weakref.ref[_ReaderConn]] = []
        self._tls = threading.local()
        self._closed = False
        self._conn, self._wal = self._connect()
        with self._lock:
            self._conn.executescript(_SCHEMA)
            self._migrate(self._conn)
            self._conn.commit()

    @staticmethod
    def _migrate(conn: sqlite3.Connection) -> None:
        """Bring a pre-existing database up to the current schema.

        ``CREATE TABLE IF NOT EXISTS`` never alters an existing table,
        so columns added after a store was created must be grafted on
        here (nullable or defaulted, so old rows read back with the
        field's default).
        """
        columns = {
            row[1]
            for row in conn.execute("PRAGMA table_info(physical_videos)")
        }
        for column, kind in (
            ("tile_group_id", "INTEGER"),
            ("tile_index", "INTEGER"),
            ("format_mse", "REAL NOT NULL DEFAULT 0.0"),
        ):
            if column not in columns:
                conn.execute(
                    f"ALTER TABLE physical_videos ADD COLUMN {column} {kind}"
                )

    def _connect(self) -> tuple[sqlite3.Connection, bool]:
        conn = sqlite3.connect(
            str(self.path), check_same_thread=False, timeout=30.0
        )
        conn.row_factory = sqlite3.Row
        wal = False
        try:
            # WAL gives cheaper commits (appends instead of journal
            # rewrites) and lets reader connections proceed without ever
            # blocking on the writer; NORMAL drops the per-commit fsync
            # (durability still holds across application crashes, the bar
            # a cache needs).
            row = conn.execute("PRAGMA journal_mode=WAL").fetchone()
            wal = row is not None and str(row[0]).lower() == "wal"
            conn.execute("PRAGMA synchronous=NORMAL")
        except sqlite3.OperationalError:
            pass  # e.g. network filesystems without shared-memory maps
        return conn, wal

    @contextmanager
    def _read(self):
        """A connection for a read-only statement.

        Per-thread (lock-free) under WAL; the locked writer connection
        otherwise.  Every thread — including the one that opened the
        catalog — gets its own reader connection: reusing the writer
        connection for reads would let an unlocked read interleave with
        another thread's in-progress write transaction.
        """
        if not self._wal:
            with self._lock:
                yield self._conn
            return
        holder = getattr(self._tls, "reader", None)
        if holder is None:
            conn, _ = self._connect()
            holder = _ReaderConn(conn)
            self._tls.reader = holder
            with self._readers_lock:
                self._readers = [r for r in self._readers if r() is not None]
                self._readers.append(weakref.ref(holder))
                if self._closed:
                    conn.close()  # lost the race against close()
                    raise sqlite3.ProgrammingError("catalog is closed")
        yield holder.conn

    @contextmanager
    def _write(self):
        """The single writer connection, exclusively held."""
        with self._lock:
            yield self._conn

    def close(self) -> None:
        with self._readers_lock:
            self._closed = True
            readers, self._readers = self._readers, []
        for ref in readers:
            holder = ref()
            if holder is not None:
                try:
                    holder.conn.close()
                except sqlite3.Error:
                    pass
        with self._lock:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass

    # ------------------------------------------------------------------
    # data versions (plan-cache invalidation)
    # ------------------------------------------------------------------
    def data_version(self, logical_id: int) -> int:
        """The logical video's mutation counter (see ``__init__``)."""
        with self._versions_lock:
            return self._versions.get(logical_id, 0)

    def bump_data_version(self, logical_id: int) -> None:
        """Record a page-affecting mutation of ``logical_id``."""
        with self._versions_lock:
            self._versions[logical_id] = self._versions.get(logical_id, 0) + 1

    # ------------------------------------------------------------------
    # logical videos
    # ------------------------------------------------------------------
    def create_logical(self, name: str, budget_bytes: int) -> LogicalVideo:
        with self._write() as conn:
            # Logical videos and views share one namespace (a view must
            # resolve everywhere a video name is accepted); both checks
            # run under the single writer lock, so there is no race.
            if conn.execute(
                "SELECT 1 FROM views WHERE name = ?", (name,)
            ).fetchone():
                raise VideoExistsError(name)
            try:
                cursor = conn.execute(
                    "INSERT INTO logical_videos (name, budget_bytes, created_at)"
                    " VALUES (?, ?, ?)",
                    (name, budget_bytes, time.time()),
                )
            except sqlite3.IntegrityError:
                raise VideoExistsError(name) from None
            conn.commit()
            return self.get_logical_by_id(cursor.lastrowid)

    def get_logical(self, name: str) -> LogicalVideo:
        with self._read() as conn:
            row = conn.execute(
                "SELECT * FROM logical_videos WHERE name = ?", (name,)
            ).fetchone()
        if row is None:
            raise VideoNotFoundError(name)
        return self._logical_from_row(row)

    def get_logical_by_id(self, logical_id: int) -> LogicalVideo:
        with self._read() as conn:
            row = conn.execute(
                "SELECT * FROM logical_videos WHERE id = ?", (logical_id,)
            ).fetchone()
        if row is None:
            raise CatalogError(f"no logical video with id {logical_id}")
        return self._logical_from_row(row)

    def list_logical(self) -> list[LogicalVideo]:
        with self._read() as conn:
            rows = conn.execute(
                "SELECT * FROM logical_videos ORDER BY name"
            ).fetchall()
        return [self._logical_from_row(r) for r in rows]

    def set_budget(self, logical_id: int, budget_bytes: int) -> None:
        with self._write() as conn:
            conn.execute(
                "UPDATE logical_videos SET budget_bytes = ? WHERE id = ?",
                (budget_bytes, logical_id),
            )
            conn.commit()

    def delete_logical(self, logical_id: int, force: bool = False) -> list[str]:
        """Delete a logical video's rows and return the views cascaded.

        Views transitively defined over the video refuse the delete
        unless ``force``, which deletes them too.  The dependents check,
        the cascade and the delete are one writer transaction, so a
        concurrent ``create_view`` either lands first (and is cascaded
        or refuses the delete) or finds its base gone.
        """
        with self._write() as conn:
            row = conn.execute(
                "SELECT name FROM logical_videos WHERE id = ?", (logical_id,)
            ).fetchone()
            cascaded = (
                [] if row is None
                else self._delete_dependents(conn, row["name"], force)
            )
            for hook in self._delete_hooks:
                hook(conn, logical_id)
            conn.execute(
                "DELETE FROM gops WHERE physical_id IN "
                "(SELECT id FROM physical_videos WHERE logical_id = ?)",
                (logical_id,),
            )
            conn.execute(
                "DELETE FROM physical_videos WHERE logical_id = ?", (logical_id,)
            )
            conn.execute(
                "DELETE FROM tile_groups WHERE logical_id = ?", (logical_id,)
            )
            conn.execute(
                "DELETE FROM roi_accesses WHERE logical_id = ?", (logical_id,)
            )
            conn.execute(
                "DELETE FROM logical_videos WHERE id = ?", (logical_id,)
            )
            conn.commit()
        self.bump_data_version(logical_id)
        return cascaded

    def add_delete_hook(self, hook) -> None:
        """Register ``hook(conn, logical_id)`` to run inside the
        :meth:`delete_logical` writer transaction, before the catalog
        rows go."""
        self._delete_hooks.append(hook)

    @staticmethod
    def _logical_from_row(row: sqlite3.Row) -> LogicalVideo:
        return LogicalVideo(
            id=row["id"],
            name=row["name"],
            budget_bytes=row["budget_bytes"],
            created_at=row["created_at"],
        )

    # ------------------------------------------------------------------
    # names (videos + views as one namespace)
    # ------------------------------------------------------------------
    def name_kind(self, name: str) -> str | None:
        """``"video"``, ``"view"``, or None — resolved atomically.

        One SQL statement over both tables, so a concurrent create or
        delete can never make a name look like both (or neither) kinds
        mid-probe.
        """
        with self._read() as conn:
            row = conn.execute(
                "SELECT 'video' AS kind FROM logical_videos WHERE name = ?"
                " UNION ALL SELECT 'view' FROM views WHERE name = ?",
                (name, name),
            ).fetchone()
        return None if row is None else row["kind"]

    def list_names(self, kind: str = "all") -> list[str]:
        """All names of ``kind`` ("all", "video", or "view"), sorted.

        Each call is a single SQL statement, so the listing is one
        consistent catalog snapshot: a delete or create landing
        concurrently is either entirely visible or entirely absent,
        never half-applied across the two tables.
        """
        if kind == "video":
            query = "SELECT name FROM logical_videos ORDER BY name"
        elif kind == "view":
            query = "SELECT name FROM views ORDER BY name"
        elif kind == "all":
            query = (
                "SELECT name FROM logical_videos"
                " UNION SELECT name FROM views ORDER BY name"
            )
        else:
            raise ValueError(
                f"unknown kind {kind!r}; expected 'all', 'video', or 'view'"
            )
        with self._read() as conn:
            rows = conn.execute(query).fetchall()
        return [r["name"] for r in rows]

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def create_view(self, name: str, spec: ViewSpec) -> ViewRecord:
        """Persist a derived view named ``name`` defined by ``spec``.

        The name must be free in the shared video/view namespace and
        ``spec.over`` must exist (as either kind); both are checked
        inside the writer lock, so creation cannot race another create
        into a dangling or duplicated definition.
        """
        with self._write() as conn:
            if conn.execute(
                "SELECT 1 FROM logical_videos WHERE name = ?", (name,)
            ).fetchone():
                raise VideoExistsError(name)
            if not conn.execute(
                "SELECT 1 FROM logical_videos WHERE name = ?"
                " UNION ALL SELECT 1 FROM views WHERE name = ?",
                (spec.over, spec.over),
            ).fetchone():
                raise VideoNotFoundError(spec.over)
            try:
                cursor = conn.execute(
                    "INSERT INTO views (name, over, spec, created_at)"
                    " VALUES (?, ?, ?, ?)",
                    (name, spec.over, json.dumps(spec.to_dict()), time.time()),
                )
            except sqlite3.IntegrityError:
                raise VideoExistsError(name) from None
            conn.commit()
            row = conn.execute(
                "SELECT * FROM views WHERE id = ?", (cursor.lastrowid,)
            ).fetchone()
        return self._view_from_row(row)

    def get_view(self, name: str) -> ViewRecord:
        view = self.find_view(name)
        if view is None:
            raise VideoNotFoundError(name)
        return view

    def find_view(self, name: str) -> ViewRecord | None:
        """The view named ``name``, or None (no exception probe)."""
        with self._read() as conn:
            row = conn.execute(
                "SELECT * FROM views WHERE name = ?", (name,)
            ).fetchone()
        return None if row is None else self._view_from_row(row)

    def list_views(self) -> list[ViewRecord]:
        with self._read() as conn:
            rows = conn.execute("SELECT * FROM views ORDER BY name").fetchall()
        return [self._view_from_row(r) for r in rows]

    def count_views(self) -> int:
        with self._read() as conn:
            value = conn.execute("SELECT COUNT(*) FROM views").fetchone()[0]
        return int(value)

    def delete_view(self, name: str, force: bool = False) -> list[str]:
        """Delete one view definition and return every view deleted.

        Like :meth:`delete_logical`: dependents refuse the delete unless
        ``force`` cascades them, all in one writer transaction.  A name
        that is not a view raises :class:`VideoNotFoundError`.
        """
        with self._write() as conn:
            if not conn.execute(
                "SELECT 1 FROM views WHERE name = ?", (name,)
            ).fetchone():
                raise VideoNotFoundError(name)
            cascaded = self._delete_dependents(conn, name, force)
            conn.execute("DELETE FROM views WHERE name = ?", (name,))
            conn.commit()
        return sorted([name, *cascaded])

    @staticmethod
    def _delete_dependents(
        conn: sqlite3.Connection, name: str, force: bool
    ) -> list[str]:
        """Delete the views transitively defined over ``name`` inside the
        caller's writer transaction; without ``force`` any dependent
        raises before a row changes.  ``UNION`` drops rows already found,
        so a cycle written behind the API still terminates."""
        dependents = [
            row["name"]
            for row in conn.execute(
                "WITH RECURSIVE dependents(name) AS ("
                " SELECT name FROM views WHERE over = ?"
                " UNION SELECT views.name FROM views"
                " JOIN dependents ON views.over = dependents.name)"
                " SELECT name FROM dependents WHERE name != ? ORDER BY name",
                (name, name),
            )
        ]
        if dependents and not force:
            raise CatalogError(
                f"cannot delete {name!r}: view(s) {dependents} are defined "
                f"over it; delete them first or pass force=True to cascade"
            )
        conn.executemany(
            "DELETE FROM views WHERE name = ?", [(n,) for n in dependents]
        )
        return dependents

    @staticmethod
    def _view_from_row(row: sqlite3.Row) -> ViewRecord:
        try:
            spec = ViewSpec.from_dict(json.loads(row["spec"]))
        except Exception as exc:
            raise CatalogError(
                f"corrupt view definition for {row['name']!r}: {exc}"
            ) from exc
        return ViewRecord(
            id=row["id"],
            name=row["name"],
            spec=spec,
            created_at=row["created_at"],
        )

    # ------------------------------------------------------------------
    # physical videos
    # ------------------------------------------------------------------
    def add_physical(
        self,
        logical_id: int,
        codec: str,
        pixel_format: str,
        width: int,
        height: int,
        fps: float,
        qp: int,
        roi,
        start_time: float,
        end_time: float,
        mse_estimate: float,
        is_original: bool,
        sealed: bool = True,
        tile_group_id: int | None = None,
        tile_index: int | None = None,
        format_mse: float = 0.0,
    ) -> PhysicalVideo:
        with self._write() as conn:
            cursor = conn.execute(
                "INSERT INTO physical_videos (logical_id, codec, pixel_format,"
                " width, height, fps, qp, roi, start_time, end_time,"
                " mse_estimate, is_original, sealed, tile_group_id,"
                " tile_index, format_mse)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    logical_id,
                    codec,
                    pixel_format,
                    width,
                    height,
                    fps,
                    qp,
                    _roi_to_text(roi),
                    start_time,
                    end_time,
                    mse_estimate,
                    int(is_original),
                    int(sealed),
                    tile_group_id,
                    tile_index,
                    format_mse,
                ),
            )
            conn.commit()
            return self.get_physical(cursor.lastrowid)

    def get_physical(self, physical_id: int) -> PhysicalVideo:
        with self._read() as conn:
            row = conn.execute(
                "SELECT * FROM physical_videos WHERE id = ?", (physical_id,)
            ).fetchone()
        if row is None:
            raise CatalogError(f"no physical video with id {physical_id}")
        return self._physical_from_row(row)

    def list_physicals(self, logical_id: int) -> list[PhysicalVideo]:
        with self._read() as conn:
            rows = conn.execute(
                "SELECT * FROM physical_videos WHERE logical_id = ?"
                " ORDER BY id",
                (logical_id,),
            ).fetchall()
        return [self._physical_from_row(r) for r in rows]

    def original_physical(self, logical_id: int) -> PhysicalVideo | None:
        with self._read() as conn:
            row = conn.execute(
                "SELECT * FROM physical_videos WHERE logical_id = ?"
                " AND is_original = 1 ORDER BY id LIMIT 1",
                (logical_id,),
            ).fetchone()
        return None if row is None else self._physical_from_row(row)

    def update_physical_times(
        self, physical_id: int, start_time: float, end_time: float
    ) -> None:
        with self._write() as conn:
            conn.execute(
                "UPDATE physical_videos SET start_time = ?, end_time = ?"
                " WHERE id = ?",
                (start_time, end_time, physical_id),
            )
            conn.commit()

    def seal_physical(self, physical_id: int) -> None:
        with self._write() as conn:
            conn.execute(
                "UPDATE physical_videos SET sealed = 1 WHERE id = ?",
                (physical_id,),
            )
            conn.commit()

    def update_mse_estimate(
        self, physical_id: int, mse_estimate: float, format_mse: float
    ) -> None:
        with self._write() as conn:
            conn.execute(
                "UPDATE physical_videos SET mse_estimate = ?, format_mse = ?"
                " WHERE id = ?",
                (mse_estimate, format_mse, physical_id),
            )
            conn.commit()

    def delete_physical(self, physical_id: int) -> None:
        with self._write() as conn:
            conn.execute(
                "DELETE FROM gops WHERE physical_id = ?", (physical_id,)
            )
            conn.execute(
                "DELETE FROM physical_videos WHERE id = ?", (physical_id,)
            )
            conn.commit()

    @staticmethod
    def _physical_from_row(row: sqlite3.Row) -> PhysicalVideo:
        return PhysicalVideo(
            id=row["id"],
            logical_id=row["logical_id"],
            codec=row["codec"],
            pixel_format=row["pixel_format"],
            width=row["width"],
            height=row["height"],
            fps=row["fps"],
            qp=row["qp"],
            roi=_roi_from_text(row["roi"]),
            start_time=row["start_time"],
            end_time=row["end_time"],
            mse_estimate=row["mse_estimate"],
            is_original=bool(row["is_original"]),
            sealed=bool(row["sealed"]),
            tile_group_id=row["tile_group_id"],
            tile_index=row["tile_index"],
            format_mse=row["format_mse"],
        )

    # ------------------------------------------------------------------
    # tile groups (repro.tiles: spatially tiled physical layouts)
    # ------------------------------------------------------------------
    def create_tile_group(
        self, logical_id: int, source_physical_id: int, grid
    ) -> TileGroupRecord:
        """Register a tiled layout of ``source_physical_id``.

        ``grid`` is a :class:`repro.tiles.TileGrid` (anything with a
        lossless ``to_dict``); member physicals are linked afterwards
        via :meth:`add_physical`'s ``tile_group_id``/``tile_index``.
        """
        with self._write() as conn:
            cursor = conn.execute(
                "INSERT INTO tile_groups (logical_id, source_physical_id,"
                " grid, created_at) VALUES (?, ?, ?, ?)",
                (
                    logical_id,
                    source_physical_id,
                    json.dumps(grid.to_dict()),
                    time.time(),
                ),
            )
            conn.commit()
            return self.get_tile_group(cursor.lastrowid)

    def get_tile_group(self, group_id: int) -> TileGroupRecord:
        with self._read() as conn:
            row = conn.execute(
                "SELECT * FROM tile_groups WHERE id = ?", (group_id,)
            ).fetchone()
        if row is None:
            raise CatalogError(f"no tile group with id {group_id}")
        return self._tile_group_from_row(row)

    def tile_groups_of_logical(self, logical_id: int) -> list[TileGroupRecord]:
        with self._read() as conn:
            rows = conn.execute(
                "SELECT * FROM tile_groups WHERE logical_id = ? ORDER BY id",
                (logical_id,),
            ).fetchall()
        return [self._tile_group_from_row(r) for r in rows]

    def delete_tile_group(self, group_id: int) -> None:
        """Remove a tile-group row (members are deleted by the caller
        via :meth:`delete_physical`, which owns the page files too)."""
        with self._write() as conn:
            conn.execute(
                "DELETE FROM tile_groups WHERE id = ?", (group_id,)
            )
            conn.commit()

    def tile_members(self, group_id: int) -> list[PhysicalVideo]:
        """The group's per-tile physicals, in ``tile_index`` order."""
        with self._read() as conn:
            rows = conn.execute(
                "SELECT * FROM physical_videos WHERE tile_group_id = ?"
                " ORDER BY tile_index",
                (group_id,),
            ).fetchall()
        return [self._physical_from_row(r) for r in rows]

    @staticmethod
    def _tile_group_from_row(row: sqlite3.Row) -> TileGroupRecord:
        from repro.tiles.grid import TileGrid  # no import cycle: grid is leaf

        try:
            grid = TileGrid.from_dict(json.loads(row["grid"]))
        except Exception as exc:
            raise CatalogError(
                f"corrupt tile grid for group {row['id']}: {exc}"
            ) from exc
        return TileGroupRecord(
            id=row["id"],
            logical_id=row["logical_id"],
            source_physical_id=row["source_physical_id"],
            grid=grid,
            created_at=row["created_at"],
        )

    # ------------------------------------------------------------------
    # ROI access tracking (feeds the access-driven re-tiling policy)
    # ------------------------------------------------------------------
    def record_roi_accesses(
        self, logical_id: int, counts: dict, tick: int
    ) -> None:
        """Fold per-ROI read counts into the persistent access log.

        ``counts`` maps ``(x0, y0, x1, y1)`` to the number of reads since
        the last flush; the engine batches in memory and flushes during
        maintenance, so this never runs on the read critical path.
        """
        if not counts:
            return
        with self._write() as conn:
            for roi, count in counts.items():
                x0, y0, x1, y1 = (int(v) for v in roi)
                conn.execute(
                    "INSERT INTO roi_accesses"
                    " (logical_id, x0, y0, x1, y1, count, last_tick)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?)"
                    " ON CONFLICT(logical_id, x0, y0, x1, y1) DO UPDATE SET"
                    " count = count + excluded.count,"
                    " last_tick = excluded.last_tick",
                    (logical_id, x0, y0, x1, y1, int(count), tick),
                )
            conn.commit()

    def roi_accesses(self, logical_id: int) -> dict:
        """Accumulated ROI read counts: ``{(x0, y0, x1, y1): count}``."""
        with self._read() as conn:
            rows = conn.execute(
                "SELECT x0, y0, x1, y1, count FROM roi_accesses"
                " WHERE logical_id = ?",
                (logical_id,),
            ).fetchall()
        return {
            (r["x0"], r["y0"], r["x1"], r["y1"]): r["count"] for r in rows
        }

    def clear_roi_accesses(self, logical_id: int) -> None:
        with self._write() as conn:
            conn.execute(
                "DELETE FROM roi_accesses WHERE logical_id = ?", (logical_id,)
            )
            conn.commit()

    # ------------------------------------------------------------------
    # GOPs
    # ------------------------------------------------------------------
    def add_gop(
        self,
        physical_id: int,
        seq: int,
        start_time: float,
        end_time: float,
        num_frames: int,
        frame_types: str,
        nbytes: int,
        path: str,
        last_access: int = 0,
    ) -> GopRecord:
        with self._write() as conn:
            cursor = conn.execute(
                "INSERT INTO gops (physical_id, seq, start_time, end_time,"
                " num_frames, frame_types, nbytes, path, last_access)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    physical_id,
                    seq,
                    start_time,
                    end_time,
                    num_frames,
                    frame_types,
                    nbytes,
                    path,
                    last_access,
                ),
            )
            conn.commit()
            return self.get_gop(cursor.lastrowid)

    def get_gop(self, gop_id: int) -> GopRecord:
        with self._read() as conn:
            row = conn.execute(
                "SELECT * FROM gops WHERE id = ?", (gop_id,)
            ).fetchone()
        if row is None:
            raise CatalogError(f"no GOP with id {gop_id}")
        return self._gop_from_row(row)

    def gops_of_physical(
        self,
        physical_id: int,
        start: float | None = None,
        end: float | None = None,
    ) -> list[GopRecord]:
        query = "SELECT * FROM gops WHERE physical_id = ?"
        params: list = [physical_id]
        if start is not None:
            query += " AND end_time > ?"
            params.append(start + 1e-9)
        if end is not None:
            query += " AND start_time < ?"
            params.append(end - 1e-9)
        query += " ORDER BY seq"
        with self._read() as conn:
            rows = conn.execute(query, params).fetchall()
        return [self._gop_from_row(r) for r in rows]

    def gops_of_logical(self, logical_id: int) -> list[GopRecord]:
        with self._read() as conn:
            rows = conn.execute(
                "SELECT gops.* FROM gops JOIN physical_videos p"
                " ON gops.physical_id = p.id WHERE p.logical_id = ?"
                " ORDER BY gops.physical_id, gops.seq",
                (logical_id,),
            ).fetchall()
        return [self._gop_from_row(r) for r in rows]

    #: Stay safely under SQLite's default host-parameter limit.
    _TOUCH_BATCH = 500

    def touch_gops(self, gop_ids: list[int], tick: int) -> None:
        """Record an access (LRU bookkeeping).

        Batched into one ``IN (...)`` statement per chunk — every read
        touches every GOP it used, so this runs on the hot path.
        """
        if not gop_ids:
            return
        unique = list(dict.fromkeys(gop_ids))
        with self._write() as conn:
            for i in range(0, len(unique), self._TOUCH_BATCH):
                chunk = unique[i : i + self._TOUCH_BATCH]
                placeholders = ",".join("?" * len(chunk))
                conn.execute(
                    f"UPDATE gops SET last_access = ?"
                    f" WHERE id IN ({placeholders})",
                    [tick, *chunk],
                )
            conn.commit()

    def delete_gop(self, gop_id: int) -> None:
        with self._write() as conn:
            conn.execute("DELETE FROM gops WHERE id = ?", (gop_id,))
            conn.commit()

    def set_gop_compression(
        self, gop_id: int, zstd_level: int, nbytes: int
    ) -> None:
        """Record an in-place page rewrite (its path is unchanged)."""
        with self._write() as conn:
            conn.execute(
                "UPDATE gops SET zstd_level = ?, nbytes = ? WHERE id = ?",
                (zstd_level, nbytes, gop_id),
            )
            conn.commit()

    def reassign_gop(self, gop_id: int, physical_id: int, seq: int) -> None:
        """Move a GOP to another physical video (compaction)."""
        with self._write() as conn:
            conn.execute(
                "UPDATE gops SET physical_id = ?, seq = ? WHERE id = ?",
                (physical_id, seq, gop_id),
            )
            conn.commit()

    def set_gop_joint(
        self, gop_id: int, joint_pair_id: int, role: str, nbytes: int
    ) -> None:
        with self._write() as conn:
            conn.execute(
                "UPDATE gops SET joint_pair_id = ?, joint_role = ?, nbytes = ?"
                " WHERE id = ?",
                (joint_pair_id, role, nbytes, gop_id),
            )
            conn.commit()

    @staticmethod
    def _gop_from_row(row: sqlite3.Row) -> GopRecord:
        return GopRecord(
            id=row["id"],
            physical_id=row["physical_id"],
            seq=row["seq"],
            start_time=row["start_time"],
            end_time=row["end_time"],
            num_frames=row["num_frames"],
            frame_types=row["frame_types"],
            nbytes=row["nbytes"],
            path=row["path"],
            last_access=row["last_access"],
            zstd_level=row["zstd_level"],
            joint_pair_id=row["joint_pair_id"],
            joint_role=row["joint_role"],
        )

    # ------------------------------------------------------------------
    # joint pairs
    # ------------------------------------------------------------------
    def add_joint_pair(
        self,
        homography,
        x_f: int,
        x_g: int,
        merge: str,
        left_path: str,
        overlap_path: str | None,
        right_path: str | None,
        nbytes: int,
        duplicate: bool = False,
    ) -> JointPairRecord:
        with self._write() as conn:
            cursor = conn.execute(
                "INSERT INTO joint_pairs (homography, x_f, x_g, merge,"
                " left_path, overlap_path, right_path, nbytes, duplicate)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    json.dumps([float(v) for v in homography]),
                    x_f,
                    x_g,
                    merge,
                    left_path,
                    overlap_path,
                    right_path,
                    nbytes,
                    int(duplicate),
                ),
            )
            conn.commit()
            return self.get_joint_pair(cursor.lastrowid)

    def update_joint_pair_paths(
        self,
        pair_id: int,
        left_path: str,
        overlap_path: str | None,
        right_path: str | None,
        nbytes: int,
    ) -> None:
        with self._write() as conn:
            conn.execute(
                "UPDATE joint_pairs SET left_path = ?, overlap_path = ?,"
                " right_path = ?, nbytes = ? WHERE id = ?",
                (left_path, overlap_path, right_path, nbytes, pair_id),
            )
            conn.commit()

    def get_joint_pair(self, pair_id: int) -> JointPairRecord:
        with self._read() as conn:
            row = conn.execute(
                "SELECT * FROM joint_pairs WHERE id = ?", (pair_id,)
            ).fetchone()
        if row is None:
            raise CatalogError(f"no joint pair with id {pair_id}")
        return JointPairRecord(
            id=row["id"],
            homography=tuple(json.loads(row["homography"])),
            x_f=row["x_f"],
            x_g=row["x_g"],
            merge=row["merge"],
            left_path=row["left_path"],
            overlap_path=row["overlap_path"],
            right_path=row["right_path"],
            nbytes=row["nbytes"],
            duplicate=bool(row["duplicate"]),
        )

    # ------------------------------------------------------------------
    # accounting and fragments
    # ------------------------------------------------------------------
    def total_bytes(self, logical_id: int) -> int:
        """Total stored bytes for a logical video.

        Jointly compressed GOPs share the pair's storage; each side is
        accounted half the pair to avoid double counting.
        """
        with self._read() as conn:
            plain = conn.execute(
                "SELECT COALESCE(SUM(gops.nbytes), 0) FROM gops"
                " JOIN physical_videos p ON gops.physical_id = p.id"
                " WHERE p.logical_id = ?",
                (logical_id,),
            ).fetchone()[0]
        return int(plain)

    def max_last_access(self) -> int:
        with self._read() as conn:
            value = conn.execute(
                "SELECT COALESCE(MAX(last_access), 0) FROM gops"
            ).fetchone()[0]
        return int(value)

    def fragments_of_logical(
        self, logical_id: int, sealed_only: bool = False
    ) -> list[Fragment]:
        """Maximal contiguous GOP runs per physical video (plan units).

        Runs on every read (the planner's input), so the GOPs of all
        physical videos come back from one JOIN instead of a query per
        physical (the former N+1 pattern).
        """
        physicals = {p.id: p for p in self.list_physicals(logical_id)}
        fragments: list[Fragment] = []
        run: list[GopRecord] = []
        for gop in self.gops_of_logical(logical_id):
            physical = physicals.get(gop.physical_id)
            if physical is None:
                # A physical committed between the two snapshot queries by
                # a writer on another logical's thread; skip its GOPs —
                # the engine's per-logical lock guarantees this cannot
                # happen for the logical being planned.
                continue
            if sealed_only and not physical.sealed:
                continue
            if run and (
                gop.physical_id != run[-1].physical_id
                or gop.seq != run[-1].seq + 1
                or abs(gop.start_time - run[-1].end_time) > 1e-6
            ):
                fragments.append(Fragment(physicals[run[-1].physical_id], run))
                run = []
            run.append(gop)
        if run:
            fragments.append(Fragment(physicals[run[-1].physical_id], run))
        return fragments
