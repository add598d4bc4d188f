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

A warm read runs no SQL at all:

* **LRU stamps stay in memory.**  :meth:`touch_gops` records
  ``gop id -> tick`` in a locked dict; the pending stamps are written in
  one transaction before any answer that carries ``last_access``
  (:meth:`_gop_rows`) and on :meth:`close`, so eviction scoring sees
  every earlier touch.  A crash loses at most the stamps since the last
  such write: LRU order shifts, but no row names a missing page.
* **Row lookups are memoized per write generation.**
  :meth:`get_logical`, :meth:`get_logical_by_id`,
  :meth:`original_physical` and :meth:`total_bytes` answer from a memo
  that every outermost :meth:`_write` drops whole after it commits or
  rolls back.  An in-process memo is valid because this catalog is the
  store's only writer: an engine holds ``store.lock`` from open to
  close, one engine per store, and every write it makes goes through
  :meth:`_write`.
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

#: Each table's columns are in its record's field order: rows are
#: unpacked positionally, and a migration rebuilds old tables in this order.
_SCHEMA = """
CREATE TABLE IF NOT EXISTS logical_videos (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    name TEXT NOT NULL UNIQUE,
    budget_bytes INTEGER NOT NULL,
    created_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS physical_videos (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
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
    id INTEGER PRIMARY KEY AUTOINCREMENT,
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
    id INTEGER PRIMARY KEY AUTOINCREMENT,
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
CREATE INDEX IF NOT EXISTS gops_by_path ON gops(path);
CREATE TABLE IF NOT EXISTS joint_pairs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
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

#: The ``meta.schema_version`` this release writes; see
#: :meth:`Catalog._open_schema`.
SCHEMA_VERSION = 1

#: The physical video of the GOP whose id is the parameter (a
#: :meth:`Catalog._page_change` clause).
_OF_GOP = "id IN (SELECT physical_id FROM gops WHERE id = ?)"

#: Tables whose ids became ``AUTOINCREMENT`` at version 1.
_REBUILT = (
    "logical_videos", "physical_videos", "tile_groups", "gops", "joint_pairs",
)


def _roi_to_text(roi) -> str | None:
    return None if roi is None else json.dumps(list(roi))


def _physical(row: sqlite3.Row) -> PhysicalVideo:
    roi, (start, end, mse, original, sealed) = row[8], row[9:14]
    return PhysicalVideo(
        *row[:8], None if roi is None else tuple(json.loads(roi)), start,
        end, mse, bool(original), bool(sealed), *row[14:],
    )


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

    def __init__(self, path: str | Path, on_pages_changed=None):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()  # guards the writer connection
        self._readers_lock = threading.Lock()
        # Per-logical mutation counters backing the engine's versioned
        # plan cache.  Every method that changes a row the planner reads
        # (a GOP, a physical, a tile group) is one _page_change: after
        # its transaction commits, the video's version bumps, so a
        # memoized read plan is valid exactly while the version it was
        # keyed under still holds, and the ids of the GOP rows it
        # deleted, moved or rewrote go to ``on_pages_changed`` (the
        # engine's decode cache drops them).  Versions are opaque: only
        # compared for equality.  In-memory (one engine per store, like
        # the per-logical locks); a deleted logical's entry goes with
        # it, since its id never comes back.
        self._versions_lock = threading.Lock()
        self._versions: dict[int, int] = {}
        self._on_pages_changed = on_pages_changed
        # Callables run inside delete_logical's writer transaction, so
        # subsystems keeping sidecar tables in this database (the search
        # index) cascade atomically with the catalog rows, and a delete
        # leaves no sidecar row behind.
        self._delete_hooks: list = []
        # Pending LRU stamps, gop id -> tick (see the module docs).
        self._stamps_lock = threading.Lock()
        self._stamps: dict[int, int] = {}
        # Memoized lookups, replaced whole by every outermost _write (see
        # _memoized for which answers are kept).
        self._memo: dict[tuple, object] = {}
        self._write_depth = 0  # _write nesting, under self._lock
        self._readers: list[weakref.ref[_ReaderConn]] = []
        self._tls = threading.local()
        self._closed = False
        self._conn, self._wal = self._connect()
        try:
            with self._write() as conn:
                self._open_schema(conn)
        except BaseException:
            self._conn.close()  # e.g. a store newer than this release
            raise

    @staticmethod
    def _open_schema(conn: sqlite3.Connection) -> None:
        """Create a fresh schema, or migrate an older one, in one
        transaction keyed by ``meta.schema_version``.

        A store older than the version row (version 0) named files by
        rowids SQLite recycles.  Each id-bearing table is rebuilt from
        :data:`_SCHEMA` with ``AUTOINCREMENT``, keeping every row and its
        stored path; a column the old table lacks takes its default.
        Compaction in such a store left rows pointing into the
        directories of deleted physicals, so the physical id sequence
        starts above every id a stored path names.  A newer store is
        refused rather than misread.
        """
        conn.execute("BEGIN")
        tables = {r[0] for r in conn.execute("SELECT name FROM sqlite_master")}
        version = None  # a fresh database
        if "logical_videos" in tables:
            row = "meta" in tables and conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            version = int(row[0]) if row else 0
        if version == SCHEMA_VERSION:
            return conn.commit()
        if version is not None and version > SCHEMA_VERSION:
            raise CatalogError(
                f"catalog schema version {version} is newer than this"
                f" release's {SCHEMA_VERSION}; open it with a newer release"
            )
        old = [t for t in _REBUILT if t in tables]
        for table in old:
            conn.execute(f"ALTER TABLE {table} RENAME TO {table}_v0")
        for statement in _SCHEMA.split(";"):
            conn.execute(statement)
        for table in old:
            have = {d[0] for d in conn.execute(f"SELECT * FROM {table}_v0").description}
            columns = ", ".join(
                d[0]
                for d in conn.execute(f"SELECT * FROM {table}").description
                if d[0] in have
            )
            conn.execute(
                f"INSERT INTO {table} ({columns})"
                f" SELECT {columns} FROM {table}_v0"
            )
            conn.execute(f"DROP TABLE {table}_v0")
        # Each old index moved with its table, and went with it: now the
        # new one can take its name.
        for statement in _SCHEMA.split(";"):
            conn.execute(statement)
        floor = max(
            (
                int(path.split("/")[-2])
                for (path,) in conn.execute("SELECT path FROM gops")
                if path.startswith("videos/")
            ),
            default=0,
        )
        conn.execute("DELETE FROM sqlite_sequence WHERE name = 'physical_videos'")
        conn.execute(
            "INSERT INTO sqlite_sequence (name, seq) SELECT 'physical_videos',"
            " MAX(?, COALESCE(MAX(id), 0)) FROM physical_videos",
            (floor,),
        )
        conn.execute(
            "INSERT OR REPLACE INTO meta (key, value)"
            " VALUES ('schema_version', ?)",
            (str(SCHEMA_VERSION),),
        )
        conn.commit()

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
        """The single writer connection, exclusively held; a transaction
        that raises is rolled back whole.  The outermost one drops the
        lookup memo as it ends, committed or not."""
        with self._lock:
            self._write_depth += 1
            try:
                yield self._conn
            except BaseException:
                self._conn.rollback()
                raise
            finally:
                self._write_depth -= 1
                if not self._write_depth:
                    self._memo = {}

    def _memoized(self, key: tuple, lookup):
        """``lookup()``'s answer, kept until the next outermost
        :meth:`_write` ends.  One that raises is not kept, nor one that
        ends inside a writer transaction (without WAL, it may have read
        that transaction's uncommitted rows); one that a whole write
        overtook goes into the memo that write dropped."""
        memo = self._memo
        try:
            return memo[key]
        except KeyError:
            pass
        value = lookup()
        if not self._write_depth:
            memo[key] = value
        return value

    def close(self) -> None:
        """Write the pending stamps, then close every connection (the
        connections close even if that write fails)."""
        try:
            if not self._closed:
                self._flush_stamps()
        finally:
            self._close_connections()

    def _close_connections(self) -> None:
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
    # statement helpers
    # ------------------------------------------------------------------
    def _rows(self, sql: str, params=()) -> list[sqlite3.Row]:
        """Every row of one read-only statement."""
        with self._read() as conn:
            return conn.execute(sql, params).fetchall()

    def _first(self, sql: str, params=(), missing: Exception | None = None):
        """The first row of one read-only statement, or None; when there
        is none and ``missing`` is given, that is raised instead."""
        with self._read() as conn:
            row = conn.execute(sql, params).fetchone()
        if row is None and missing is not None:
            raise missing
        return row

    @staticmethod
    def _insert(conn: sqlite3.Connection, table: str, **values) -> int:
        """Insert one row inside the caller's transaction; returns its id."""
        return conn.execute(
            f"INSERT INTO {table} ({', '.join(values)})"
            f" VALUES ({', '.join('?' * len(values))})",
            tuple(values.values()),
        ).lastrowid

    def _set(self, table: str, row_id: int, **values) -> None:
        """Update one physical's or GOP's ``values``: a page change of
        its own (a GOP's row is rewritten)."""
        of_row = _OF_GOP if table == "gops" else "id = ?"
        with self._page_change(of_row, (row_id,)) as (conn, gop_ids):
            conn.execute(
                f"UPDATE {table} SET {', '.join(f'{k} = ?' for k in values)}"
                " WHERE id = ?",
                (*values.values(), row_id),
            )
            if table == "gops":
                gop_ids.append(row_id)

    @contextmanager
    def _page_change(self, physicals: str, params: tuple):
        """A writer transaction changing pages of the physical videos
        matching ``physicals`` (a ``WHERE`` clause on ``physical_videos``,
        read before the body runs).

        Yields the connection and a list for the ids of the GOP rows the
        body deletes, moves or rewrites.  After the commit the owning
        videos' data versions bump and the ids go to the listener (see
        ``__init__``); a body that raises rolls back and announces
        nothing.
        """
        with self._write() as conn:
            owners = [
                logical_id
                for (logical_id,) in conn.execute(
                    "SELECT DISTINCT logical_id FROM physical_videos"
                    f" WHERE {physicals}",
                    params,
                )
            ]
            gop_ids: list[int] = []
            yield conn, gop_ids
            conn.commit()
        with self._versions_lock:
            for logical_id in owners:
                self._versions[logical_id] = self._versions.get(logical_id, 0) + 1
        if gop_ids and self._on_pages_changed is not None:
            self._on_pages_changed(gop_ids)

    # ------------------------------------------------------------------
    # data versions (plan-cache invalidation)
    # ------------------------------------------------------------------
    def data_version(self, logical_id: int) -> int:
        """The logical video's mutation counter (see ``__init__``)."""
        with self._versions_lock:
            return self._versions.get(logical_id, 0)

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
                logical_id = self._insert(
                    conn, "logical_videos", name=name,
                    budget_bytes=budget_bytes, created_at=time.time(),
                )
            except sqlite3.IntegrityError:
                raise VideoExistsError(name) from None
            conn.commit()
            return self.get_logical_by_id(logical_id)

    def get_logical(self, name: str) -> LogicalVideo:
        return self._memoized(("name", name), lambda: LogicalVideo(*self._first(
            "SELECT * FROM logical_videos WHERE name = ?", (name,),
            VideoNotFoundError(name),
        )))

    def get_logical_by_id(self, logical_id: int) -> LogicalVideo:
        return self._memoized(("id", logical_id), lambda: LogicalVideo(*self._first(
            "SELECT * FROM logical_videos WHERE id = ?", (logical_id,),
            CatalogError(f"no logical video with id {logical_id}"),
        )))

    def list_logical(self) -> list[LogicalVideo]:
        return [
            LogicalVideo(*r)
            for r in self._rows("SELECT * FROM logical_videos ORDER BY name")
        ]

    def set_budget(self, logical_id: int, budget_bytes: int) -> None:
        with self._write() as conn:
            conn.execute(
                "UPDATE logical_videos SET budget_bytes = ? WHERE id = ?",
                (budget_bytes, logical_id),
            )
            conn.commit()

    def delete_logical(
        self, logical_id: int, force: bool = False
    ) -> tuple[list[str], list[str]]:
        """Delete a logical video's rows; returns the views cascaded and
        the files no remaining row names (for :meth:`Layout.sweep`).
        Its GOP ids are announced, and its data version goes (the id
        never comes back).

        Views transitively defined over the video refuse the delete
        unless ``force``, which deletes them too.  The dependents check,
        the cascade and the delete are one writer transaction, so a
        concurrent ``create_view`` either lands first (and is cascaded
        or refuses the delete) or finds its base gone.  Joint pairs no
        remaining GOP names go in the same transaction.
        """
        with self._page_change(
            "logical_id = ?", (logical_id,)
        ) as (conn, gop_ids):
            row = conn.execute(
                "SELECT name FROM logical_videos WHERE id = ?", (logical_id,)
            ).fetchone()
            cascaded = (
                [] if row is None
                else self._delete_dependents(conn, row["name"], force)
            )
            for hook in self._delete_hooks:
                hook(conn, logical_id)
            paths = self._drop_gops(
                conn,
                gop_ids,
                "physical_id IN (SELECT id FROM physical_videos"
                " WHERE logical_id = ?)",
                (logical_id,),
            )
            unnamed_pairs = (
                "FROM joint_pairs WHERE id NOT IN (SELECT joint_pair_id"
                " FROM gops WHERE joint_pair_id IS NOT NULL)"
            )
            paths += [
                path
                for row in conn.execute(
                    f"SELECT left_path, overlap_path, right_path {unnamed_pairs}"
                )
                for path in row
                if path
            ]
            conn.execute(f"DELETE {unnamed_pairs}")
            for table, column in (
                ("physical_videos", "logical_id"),
                ("tile_groups", "logical_id"),
                ("roi_accesses", "logical_id"),
                ("logical_videos", "id"),
            ):
                conn.execute(
                    f"DELETE FROM {table} WHERE {column} = ?", (logical_id,)
                )
        with self._versions_lock:
            self._versions.pop(logical_id, None)
        return cascaded, paths

    def add_delete_hook(self, hook) -> None:
        """Register ``hook(conn, logical_id)`` to run inside the
        :meth:`delete_logical` writer transaction, before the catalog
        rows go."""
        self._delete_hooks.append(hook)

    # ------------------------------------------------------------------
    # names (videos + views as one namespace)
    # ------------------------------------------------------------------
    def name_kind(self, name: str) -> str | None:
        """``"video"``, ``"view"``, or None — resolved atomically.

        One SQL statement over both tables, so a concurrent create or
        delete can never make a name look like both (or neither) kinds
        mid-probe.
        """
        row = self._first(
            "SELECT 'video' AS kind FROM logical_videos WHERE name = ?"
            " UNION ALL SELECT 'view' FROM views WHERE name = ?",
            (name, name),
        )
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
        return [r["name"] for r in self._rows(query)]

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
                view_id = self._insert(
                    conn, "views", name=name, over=spec.over,
                    spec=json.dumps(spec.to_dict()), created_at=time.time(),
                )
            except sqlite3.IntegrityError:
                raise VideoExistsError(name) from None
            conn.commit()
            row = conn.execute(
                "SELECT * FROM views WHERE id = ?", (view_id,)
            ).fetchone()
        return self._view_from_row(row)

    def get_view(self, name: str) -> ViewRecord:
        view = self.find_view(name)
        if view is None:
            raise VideoNotFoundError(name)
        return view

    def find_view(self, name: str) -> ViewRecord | None:
        """The view named ``name``, or None (no exception probe)."""
        row = self._first("SELECT * FROM views WHERE name = ?", (name,))
        return None if row is None else self._view_from_row(row)

    def list_views(self) -> list[ViewRecord]:
        return [
            self._view_from_row(r)
            for r in self._rows("SELECT * FROM views ORDER BY name")
        ]

    def count_views(self) -> int:
        return int(self._first("SELECT COUNT(*) FROM views")[0])

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
        return ViewRecord(row["id"], row["name"], spec, row["created_at"])

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
            physical_id = self._insert(
                conn,
                "physical_videos",
                logical_id=logical_id,
                codec=codec,
                pixel_format=pixel_format,
                width=width,
                height=height,
                fps=fps,
                qp=qp,
                roi=_roi_to_text(roi),
                start_time=start_time,
                end_time=end_time,
                mse_estimate=mse_estimate,
                is_original=int(is_original),
                sealed=int(sealed),
                tile_group_id=tile_group_id,
                tile_index=tile_index,
                format_mse=format_mse,
            )
            conn.commit()
            return self.get_physical(physical_id)

    def get_physical(self, physical_id: int) -> PhysicalVideo:
        return _physical(self._first(
            "SELECT * FROM physical_videos WHERE id = ?", (physical_id,),
            CatalogError(f"no physical video with id {physical_id}"),
        ))

    def list_physicals(self, logical_id: int) -> list[PhysicalVideo]:
        return [
            _physical(r)
            for r in self._rows(
                "SELECT * FROM physical_videos WHERE logical_id = ?"
                " ORDER BY id",
                (logical_id,),
            )
        ]

    def original_physical(self, logical_id: int) -> PhysicalVideo | None:
        def lookup():
            row = self._first(
                "SELECT * FROM physical_videos WHERE logical_id = ?"
                " AND is_original = 1 ORDER BY id LIMIT 1",
                (logical_id,),
            )
            return None if row is None else _physical(row)

        return self._memoized(("original", logical_id), lookup)

    def update_physical_times(
        self, physical_id: int, start_time: float, end_time: float
    ) -> None:
        self._set(
            "physical_videos", physical_id,
            start_time=start_time, end_time=end_time,
        )

    def seal_physical(self, physical_id: int) -> None:
        self._set("physical_videos", physical_id, sealed=1)

    def update_mse_estimate(
        self, physical_id: int, mse_estimate: float, format_mse: float
    ) -> None:
        self._set(
            "physical_videos", physical_id,
            mse_estimate=mse_estimate, format_mse=format_mse,
        )

    def delete_physical(self, physical_id: int) -> list[str]:
        """Delete a physical video and its GOPs; returns the files no
        remaining row names (for :meth:`Layout.sweep`)."""
        with self._page_change("id = ?", (physical_id,)) as (conn, gop_ids):
            paths = self._drop_gops(
                conn, gop_ids, "physical_id = ?", (physical_id,)
            )
            conn.execute(
                "DELETE FROM physical_videos WHERE id = ?", (physical_id,)
            )
        return paths

    def merge_physicals(
        self, first: int, second: int, mse_estimate: float, format_mse: float
    ) -> list[int]:
        """Append physical ``second``'s GOPs to ``first`` and delete
        ``second``, in one transaction (compaction); returns the GOP ids
        moved.  The GOPs keep their files, so nothing is left to sweep.
        """
        with self._page_change("id = ?", (first,)) as (conn, moved):
            (next_seq,) = conn.execute(
                "SELECT COALESCE(MAX(seq) + 1, 0) FROM gops"
                " WHERE physical_id = ?",
                (first,),
            ).fetchone()
            moved += [
                gop_id
                for (gop_id,) in conn.execute(
                    "SELECT id FROM gops WHERE physical_id = ? ORDER BY seq",
                    (second,),
                )
            ]
            conn.executemany(
                "UPDATE gops SET physical_id = ?, seq = ? WHERE id = ?",
                [(first, next_seq + i, gid) for i, gid in enumerate(moved)],
            )
            conn.execute(
                "UPDATE physical_videos SET end_time = (SELECT end_time"
                " FROM physical_videos WHERE id = ?), mse_estimate = ?,"
                " format_mse = ? WHERE id = ?",
                (second, mse_estimate, format_mse, first),
            )
            conn.execute("DELETE FROM physical_videos WHERE id = ?", (second,))
        return moved

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
        with self._page_change("logical_id = ?", (logical_id,)) as (conn, _):
            group_id = self._insert(
                conn, "tile_groups", logical_id=logical_id,
                source_physical_id=source_physical_id,
                grid=json.dumps(grid.to_dict()), created_at=time.time(),
            )
        return self._tile_group_from_row(self._first(
            "SELECT * FROM tile_groups WHERE id = ?", (group_id,)
        ))

    def tile_groups_of_logical(self, logical_id: int) -> list[TileGroupRecord]:
        return [
            self._tile_group_from_row(r)
            for r in self._rows(
                "SELECT * FROM tile_groups WHERE logical_id = ? ORDER BY id",
                (logical_id,),
            )
        ]

    def delete_tile_group(self, group_id: int) -> list[str]:
        """Delete a tile group, its member physicals and their GOPs in
        one transaction; returns the files no remaining row names."""
        with self._page_change(
            "tile_group_id = ?", (group_id,)
        ) as (conn, gop_ids):
            paths = self._drop_gops(
                conn,
                gop_ids,
                "physical_id IN (SELECT id FROM physical_videos"
                " WHERE tile_group_id = ?)",
                (group_id,),
            )
            conn.execute(
                "DELETE FROM physical_videos WHERE tile_group_id = ?",
                (group_id,),
            )
            conn.execute("DELETE FROM tile_groups WHERE id = ?", (group_id,))
        return paths

    @staticmethod
    def _tile_group_from_row(row: sqlite3.Row) -> TileGroupRecord:
        from repro.tiles.grid import TileGrid  # no import cycle: grid is leaf

        try:
            grid = TileGrid.from_dict(json.loads(row["grid"]))
        except Exception as exc:
            raise CatalogError(
                f"corrupt tile grid for group {row['id']}: {exc}"
            ) from exc
        return TileGroupRecord(**{**row, "grid": grid})

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
        return {
            (r["x0"], r["y0"], r["x1"], r["y1"]): r["count"]
            for r in self._rows(
                "SELECT x0, y0, x1, y1, count FROM roi_accesses"
                " WHERE logical_id = ?",
                (logical_id,),
            )
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
        with self._page_change("id = ?", (physical_id,)) as (conn, _):
            gop_id = self._insert(
                conn,
                "gops",
                physical_id=physical_id,
                seq=seq,
                start_time=start_time,
                end_time=end_time,
                num_frames=num_frames,
                frame_types=frame_types,
                nbytes=nbytes,
                path=path,
                last_access=last_access,
            )
        return self.get_gop(gop_id)

    def _gop_rows(self, sql: str, params=()) -> list[sqlite3.Row]:
        """Every row of one read-only statement over ``gops``, every
        pending LRU stamp written first: the one read that sees
        ``last_access``."""
        self._flush_stamps()
        return self._rows(sql, params)

    def get_gop(self, gop_id: int) -> GopRecord:
        rows = self._gop_rows("SELECT * FROM gops WHERE id = ?", (gop_id,))
        if not rows:
            raise CatalogError(f"no GOP with id {gop_id}")
        return GopRecord(*rows[0])

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
        return [
            GopRecord(*r) for r in self._gop_rows(query + " ORDER BY seq", params)
        ]

    def gops_of_logical(self, logical_id: int) -> list[GopRecord]:
        return [
            GopRecord(*r)
            for r in self._gop_rows(
                "SELECT gops.* FROM gops JOIN physical_videos p"
                " ON gops.physical_id = p.id WHERE p.logical_id = ?"
                " ORDER BY gops.physical_id, gops.seq",
                (logical_id,),
            )
        ]

    def touch_gops(self, gop_ids: list[int], tick: int) -> None:
        """Record an access (LRU bookkeeping) in memory: every read
        touches every GOP it used, so this runs on the hot path.  Each
        GOP keeps its highest tick, here and when :meth:`_flush_stamps`
        writes it (a touch can arrive after a later tick's flush)."""
        with self._stamps_lock:
            stamps = self._stamps
            for gop_id in gop_ids:
                if stamps.get(gop_id, -1) < tick:
                    stamps[gop_id] = tick

    def _flush_stamps(self) -> None:
        """Write the pending stamps in one transaction.  Touches wait
        while it runs, so a reader that finds none pending reads SQL
        that holds every earlier touch."""
        if not self._stamps:
            return
        with self._write() as conn, self._stamps_lock:
            conn.executemany(
                "UPDATE gops SET last_access = MAX(last_access, ?) WHERE id = ?",
                [(tick, gop_id) for gop_id, tick in self._stamps.items()],
            )
            conn.commit()
            self._stamps.clear()

    def delete_gop(self, gop_id: int) -> list[str]:
        """Delete one GOP row (eviction); returns its file unless another
        row still names it."""
        with self._page_change(_OF_GOP, (gop_id,)) as (conn, gop_ids):
            return self._drop_gops(conn, gop_ids, "id = ?", (gop_id,))

    @classmethod
    def _drop_gops(
        cls, conn: sqlite3.Connection, gop_ids: list[int], where: str,
        params: tuple,
    ) -> list[str]:
        """Delete the GOP rows matching ``where`` inside the caller's
        :meth:`_page_change`, adding their ids to its ``gop_ids``;
        returns the files no remaining row names."""
        rows = conn.execute(
            f"SELECT id, path, joint_pair_id FROM gops WHERE {where}", params
        ).fetchall()
        conn.execute(f"DELETE FROM gops WHERE {where}", params)
        gop_ids += [row["id"] for row in rows]
        return cls._unnamed(
            conn, [row["path"] for row in rows if row["joint_pair_id"] is None]
        )

    @staticmethod
    def _unnamed(conn: sqlite3.Connection, paths: list[str]) -> list[str]:
        """The ``paths`` no row names, seen from the caller's transaction.

        A file is named by a GOP that is not joint, or as a piece of a
        joint pair; a joint GOP's own ``path`` names nothing.
        """
        return [
            path
            for path in dict.fromkeys(paths)
            if not conn.execute(
                "SELECT 1 FROM gops WHERE path = ? AND joint_pair_id IS NULL"
                " UNION ALL SELECT 1 FROM joint_pairs"
                " WHERE ? IN (left_path, overlap_path, right_path)",
                (path, path),
            ).fetchone()
        ]

    def live_paths(self) -> set[str]:
        """Every file a row names (see :meth:`_unnamed`)."""
        return {
            path
            for row in self._rows(
                "SELECT path, NULL, NULL FROM gops WHERE joint_pair_id IS NULL"
                " UNION ALL SELECT left_path, overlap_path, right_path"
                " FROM joint_pairs"
            )
            for path in row
            if path
        }

    def set_gop_compression(
        self, gop_id: int, zstd_level: int, nbytes: int
    ) -> None:
        """Record an in-place page rewrite (its path is unchanged)."""
        self._set("gops", gop_id, zstd_level=zstd_level, nbytes=nbytes)

    # ------------------------------------------------------------------
    # joint pairs
    # ------------------------------------------------------------------
    def add_joint_pair(
        self,
        gop_a: int,
        gop_b: int,
        homography,
        x_f: int,
        x_g: int,
        merge: str,
        left_path: str,
        overlap_path: str | None,
        right_path: str | None,
        share_a: int,
        share_b: int,
        duplicate: bool = False,
    ) -> list[str]:
        """Record a joint pair whose pieces are already written, and
        repoint GOPs ``gop_a`` (role ``a``, ``share_a`` bytes) and
        ``gop_b`` at it, in one transaction.

        Refuses (:class:`CatalogError`) when either GOP is gone or
        already joint.  Announces both GOPs, so no memoized plan names
        the old pages, and returns those pages for the sweep.
        """
        with self._page_change(
            "id IN (SELECT physical_id FROM gops WHERE id IN (?, ?))",
            (gop_a, gop_b),
        ) as (conn, gop_ids):
            rows = conn.execute(
                "SELECT path, joint_pair_id FROM gops WHERE id IN (?, ?)",
                (gop_a, gop_b),
            ).fetchall()
            if len(rows) != 2 or any(r["joint_pair_id"] for r in rows):
                raise CatalogError(
                    f"GOPs {gop_a} and {gop_b} are no longer both present"
                    " and unpaired"
                )
            pair_id = self._insert(
                conn,
                "joint_pairs",
                homography=json.dumps([float(v) for v in homography]),
                x_f=x_f,
                x_g=x_g,
                merge=merge,
                left_path=left_path,
                overlap_path=overlap_path,
                right_path=right_path,
                nbytes=share_a + share_b,
                duplicate=int(duplicate),
            )
            conn.executemany(
                "UPDATE gops SET joint_pair_id = ?, joint_role = ?, nbytes = ?"
                " WHERE id = ?",
                [(pair_id, "a", share_a, gop_a), (pair_id, "b", share_b, gop_b)],
            )
            gop_ids += (gop_a, gop_b)
            return self._unnamed(conn, [r["path"] for r in rows])

    def get_joint_pair(self, pair_id: int) -> JointPairRecord:
        row = self._first(
            "SELECT * FROM joint_pairs WHERE id = ?", (pair_id,),
            CatalogError(f"no joint pair with id {pair_id}"),
        )
        return JointPairRecord(**{
            **row,
            "homography": tuple(json.loads(row["homography"])),
            "duplicate": bool(row["duplicate"]),
        })

    # ------------------------------------------------------------------
    # accounting and fragments
    # ------------------------------------------------------------------
    def total_bytes(self, logical_id: int) -> int:
        """Total stored bytes for a logical video.

        Jointly compressed GOPs share the pair's storage; each side is
        accounted half the pair to avoid double counting.
        """
        return self._memoized(("bytes", logical_id), lambda: int(self._first(
            "SELECT COALESCE(SUM(gops.nbytes), 0) FROM gops"
            " JOIN physical_videos p ON gops.physical_id = p.id"
            " WHERE p.logical_id = ?",
            (logical_id,),
        )[0]))

    def max_last_access(self) -> int:
        return int(self._gop_rows(
            "SELECT COALESCE(MAX(last_access), 0) FROM gops"
        )[0][0])

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
