"""The content index: FTS5 keywords + vectors inside the catalog DB.

The catalog is already SQLite, so the search index lives in the same
database file and rides the catalog's connection discipline (single
locked writer, per-thread WAL readers).  Two tables:

* ``search_gops`` — one row per indexed GOP of a logical video's
  *original* physical, keyed ``(logical_id, gop_seq)``.  Originals are
  never evicted, compacted, or rewritten (cache-tier physicals are), so
  a row's ``(gop_seq, start_time, end_time)`` stays valid across every
  background mutation; only delete needs a cascade.  The row carries the
  extracted keyword labels, a 64-dim colour histogram, and a 128-dim
  pooled descriptor embedding as little-endian float32 BLOBs.
* ``search_fts`` — an FTS5 table over the labels, rowid-linked to
  ``search_gops.id``, serving keyword queries ranked by BM25.

Vector queries brute-force cosine similarity over the BLOB columns in
numpy — exact, and fast enough for per-GOP row counts.

Consistency: :class:`SearchIndex` registers a
:meth:`~repro.core.catalog.Catalog.add_delete_hook` so a logical's index
rows are dropped inside the *same writer transaction* as its catalog
rows, so a delete leaves no index row behind for a dead video id.  Upserts stamp the logical's
``data_version`` (the plan cache's mutation counter) at extraction time,
which makes stale rows identifiable after a refinement rewrites pixels
in place.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass

import numpy as np

#: Dimensions of the two vector spaces (see repro.search.extract).
HISTOGRAM_DIM = 64
EMBEDDING_DIM = 128

_VECTOR_DIMS = {"histogram": HISTOGRAM_DIM, "embedding": EMBEDDING_DIM}

_SEARCH_SCHEMA = """
CREATE TABLE IF NOT EXISTS search_gops (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    logical_id INTEGER NOT NULL,
    gop_seq INTEGER NOT NULL,
    start_time REAL NOT NULL,
    end_time REAL NOT NULL,
    labels TEXT NOT NULL DEFAULT '',
    num_detections INTEGER NOT NULL DEFAULT 0,
    histogram BLOB NOT NULL,
    embedding BLOB NOT NULL,
    data_version INTEGER NOT NULL DEFAULT 0,
    UNIQUE (logical_id, gop_seq)
);
CREATE INDEX IF NOT EXISTS idx_search_gops_logical
    ON search_gops (logical_id);
CREATE VIRTUAL TABLE IF NOT EXISTS search_fts USING fts5(labels);
"""


def pack_vector(vector: np.ndarray) -> bytes:
    """A vector as the little-endian float32 BLOB the index stores."""
    return np.ascontiguousarray(
        np.asarray(vector, dtype="<f4").ravel()
    ).tobytes()


def unpack_vector(blob: bytes) -> np.ndarray:
    return np.frombuffer(blob, dtype="<f4")


def fts_query(text: str) -> str:
    """User text as a safe FTS5 query: quoted terms, all required.

    Raw user input can contain FTS5 operators (``-``, ``*``, ``"``);
    quoting each alphanumeric token and joining with AND makes every
    query syntactically valid and means "GOPs containing all the words".
    """
    tokens = [
        "".join(c for c in token if c.isalnum())
        for token in text.split()
    ]
    tokens = [t for t in tokens if t]
    if not tokens:
        raise ValueError(f"unsearchable query text {text!r}")
    return " AND ".join(f'"{t}"' for t in tokens)


@dataclass(frozen=True)
class IndexRow:
    """One indexed GOP as returned by the query paths."""

    logical_id: int
    gop_seq: int
    start_time: float
    end_time: float
    labels: str
    num_detections: int
    score: float


class SearchIndex:
    """The content index over one catalog database (module docs)."""

    def __init__(self, catalog):
        self.catalog = catalog
        with catalog._write() as conn:
            conn.executescript(_SEARCH_SCHEMA)
            conn.commit()
        catalog.add_delete_hook(self._on_delete_logical)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def upsert(
        self,
        logical_id: int,
        gop_seq: int,
        start_time: float,
        end_time: float,
        labels: list[str],
        num_detections: int,
        histogram: np.ndarray,
        embedding: np.ndarray,
        data_version: int = 0,
    ) -> None:
        """Insert or replace one GOP's row (and its FTS document)."""
        doc = " ".join(labels)
        with self.catalog._write() as conn:
            self._delete_rows(
                conn,
                "SELECT id FROM search_gops "
                "WHERE logical_id = ? AND gop_seq = ?",
                (logical_id, gop_seq),
            )
            cursor = conn.execute(
                "INSERT INTO search_gops (logical_id, gop_seq, start_time,"
                " end_time, labels, num_detections, histogram, embedding,"
                " data_version) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    logical_id,
                    gop_seq,
                    start_time,
                    end_time,
                    doc,
                    num_detections,
                    pack_vector(histogram),
                    pack_vector(embedding),
                    data_version,
                ),
            )
            conn.execute(
                "INSERT INTO search_fts (rowid, labels) VALUES (?, ?)",
                (cursor.lastrowid, doc),
            )
            conn.commit()

    def _delete_rows(
        self, conn: sqlite3.Connection, id_query: str, params: tuple
    ) -> None:
        """Drop search_gops rows (and FTS docs) selected by ``id_query``.

        Runs on the caller's connection without committing, so it
        composes into a larger transaction (the delete-cascade hook).
        """
        ids = [row[0] for row in conn.execute(id_query, params)]
        if not ids:
            return
        marks = ",".join("?" * len(ids))
        conn.execute(f"DELETE FROM search_fts WHERE rowid IN ({marks})", ids)
        conn.execute(f"DELETE FROM search_gops WHERE id IN ({marks})", ids)

    def _on_delete_logical(
        self, conn: sqlite3.Connection, logical_id: int
    ) -> None:
        """Catalog delete hook: cascade inside the writer transaction."""
        self._delete_rows(
            conn,
            "SELECT id FROM search_gops WHERE logical_id = ?",
            (logical_id,),
        )

    def drop_logical(self, logical_id: int) -> None:
        """Drop a logical's rows in a standalone transaction (reindex)."""
        with self.catalog._write() as conn:
            self._on_delete_logical(conn, logical_id)
            conn.commit()

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def count_rows(self) -> int:
        with self.catalog._read() as conn:
            return int(
                conn.execute("SELECT COUNT(*) FROM search_gops").fetchone()[0]
            )

    def indexed_seqs(self, logical_id: int) -> set[int]:
        """GOP sequence numbers already indexed for a logical video."""
        with self.catalog._read() as conn:
            rows = conn.execute(
                "SELECT gop_seq FROM search_gops WHERE logical_id = ?",
                (logical_id,),
            ).fetchall()
        return {row[0] for row in rows}

    def text_search(self, text: str, limit: int) -> list[IndexRow]:
        """Keyword search, BM25-ranked (higher score = better match)."""
        query = fts_query(text)
        with self.catalog._read() as conn:
            rows = conn.execute(
                "SELECT g.logical_id, g.gop_seq, g.start_time, g.end_time,"
                " g.labels, g.num_detections, bm25(search_fts) AS rank"
                " FROM search_fts JOIN search_gops g"
                " ON g.id = search_fts.rowid"
                " WHERE search_fts MATCH ? ORDER BY rank LIMIT ?",
                (query, limit),
            ).fetchall()
        # SQLite's bm25() is smaller-is-better (negative for matches);
        # negate so every score in the subsystem is higher-is-better.
        return [
            IndexRow(
                logical_id=row["logical_id"],
                gop_seq=row["gop_seq"],
                start_time=row["start_time"],
                end_time=row["end_time"],
                labels=row["labels"],
                num_detections=row["num_detections"],
                score=-float(row["rank"]),
            )
            for row in rows
        ]

    def vector_search(
        self, space: str, vector: np.ndarray, limit: int
    ) -> list[IndexRow]:
        """Cosine-similarity top-k over one vector space.

        ``space`` is ``"histogram"`` or ``"embedding"``.  Scores are
        cosine similarity (both spaces are non-negative, so [0, 1]).
        """
        dim = _VECTOR_DIMS.get(space)
        if dim is None:
            raise ValueError(
                f"unknown vector space {space!r}; expected one of "
                f"{sorted(_VECTOR_DIMS)}"
            )
        query = np.asarray(vector, dtype=np.float32).ravel()
        if query.shape != (dim,):
            raise ValueError(
                f"{space} query must have {dim} dims, got {query.shape}"
            )
        with self.catalog._read() as conn:
            rows = conn.execute(
                f"SELECT logical_id, gop_seq, start_time, end_time,"
                f" labels, num_detections, {space} AS vec FROM search_gops"
            ).fetchall()
        if not rows:
            return []
        matrix = np.stack([unpack_vector(row["vec"]) for row in rows])
        norms = np.linalg.norm(matrix, axis=1) * np.linalg.norm(query)
        with np.errstate(invalid="ignore", divide="ignore"):
            scores = np.where(norms > 0, matrix @ query / norms, 0.0)
        order = np.argsort(-scores)[:limit]
        return [
            IndexRow(
                logical_id=rows[i]["logical_id"],
                gop_seq=rows[i]["gop_seq"],
                start_time=rows[i]["start_time"],
                end_time=rows[i]["end_time"],
                labels=rows[i]["labels"],
                num_detections=rows[i]["num_detections"],
                score=float(scores[i]),
            )
            for i in order
        ]
