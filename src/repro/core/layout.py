"""On-disk layout: one file per GOP under the store root (paper Figure 2).

Layout::

    <root>/
      catalog.db             SQLite catalog
      calibration.json       vbench-style calibration
      store.lock             held (flock) by the one engine open here
      videos/
        <logical name>/
          <physical id>/
            <seq>.gop        encoded-GOP container, or one VZST-wrapped
                             by deferred compression
      joint/
        <gop a id>-<gop b id>.{left,overlap,right}.gop

Paths stored in the catalog are relative to the root so a store directory
can be moved wholesale.  A page's path never changes: deferred
compression rewrites the file in place, and :meth:`Layout.read_gop`
recognises the ``VZST`` header whatever the catalog row says.  Only
stores written by older versions hold ``<seq>.gop.z`` files, or joint
pieces named ``<pair id>.<piece>.gop`` (their rows point at them, so
they read the same way).

A file's lifetime follows one rule.  Ids in file names are never
recycled, so a name is never reused.  A new file is created under its
fresh name (an existing one makes the write fail) before the rows that
name it commit.  A file is removed only by :meth:`Layout.sweep`, and
only after the transaction that stopped naming it has committed; the
catalog's removals return exactly those paths.  A joint piece's name
exists before its pair's row does, since a GOP joins at most one pair.
When the engine opens an existing catalog it sweeps every file under
``videos/`` and ``joint/`` that no row names (staging ``.tmp`` files
included), so a crash at any point leaves at worst an orphan until the
next open; the open that creates the catalog sweeps nothing.

A read stream keeps the pages it planned (:meth:`Layout.lease`): a
sweep defers each leased path and unlinks it when its last lease is
released, so eviction, re-tiling, joint compression or a delete never
pull a page out from under an open stream.  Leases live in memory only;
a crash drops them, and the next open's sweep removes what they held.

That open-time sweep is safe only while no other engine writes the
store: a file another engine has just written, whose row has not
committed yet, would look like an orphan.  So an engine holds
:meth:`Layout.lock` (an exclusive ``flock`` on ``store.lock``, outside
``videos/`` and ``joint/`` so no sweep sees it) from before its sweep
until it closes, and a second open fails with
:class:`~repro.errors.StoreLockedError`.  The offline check
(``python -m repro.server <root> --check``) removes nothing and takes no
lock.
"""

from __future__ import annotations

import fcntl
import itertools
import os
import threading
from pathlib import Path

from repro.errors import ContainerError, StoreLockedError
from repro.lossless import zstd
from repro.video.codec.container import EncodedGOP, decode_container, encode_container


class Layout:
    """File placement and raw byte IO for one store."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._root = os.fspath(self.root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "videos").mkdir(exist_ok=True)
        (self.root / "joint").mkdir(exist_ok=True)
        # Leases (lease / release / sweep): token -> its paths, the open
        # leases per path, and the swept paths waiting for their last.
        self._lease_lock = threading.Lock()
        self._lease_ids = itertools.count()
        self._leases: dict[int, tuple[str, ...]] = {}
        self._leased: dict[str, int] = {}
        self._deferred: set[str] = set()

    @property
    def catalog_path(self) -> Path:
        return self.root / "catalog.db"

    @property
    def calibration_path(self) -> Path:
        return self.root / "calibration.json"

    def lock(self):
        """Take the store's exclusive lock; it is held until the returned
        file is closed.  Raises :class:`StoreLockedError` at once when an
        engine (in any process) holds it."""
        handle = open(self.root / "store.lock", "ab")
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            handle.close()
            raise StoreLockedError(
                f"store {self.root} is already open in another engine"
            ) from None
        return handle

    # ------------------------------------------------------------------
    # GOP files
    # ------------------------------------------------------------------
    def write_gop(
        self, logical_name: str, physical_id: int, seq: int, gop: EncodedGOP
    ) -> tuple[str, int]:
        """Write a GOP container; returns (relative path, bytes written)."""
        relpath = f"videos/{logical_name}/{physical_id}/{seq}.gop"
        return relpath, self._create(relpath, encode_container(gop))

    def _create(self, relpath: str, data: bytes) -> int:
        """Write a new file; raises :class:`FileExistsError` rather than
        overwrite one."""
        target = self.root / relpath
        try:
            handle = open(target, "xb")
        except FileNotFoundError:
            # The first file of its directory: one mkdir per directory,
            # not one per file.
            target.parent.mkdir(parents=True, exist_ok=True)
            handle = open(target, "xb")
        with handle:
            handle.write(data)
        return len(data)

    def read_gop(self, relpath: str) -> EncodedGOP:
        """Read a GOP container, transparently undoing deferred
        compression (recognised by its header, not by the catalog).

        A page packed again after a crash left its row unpacked carries
        two headers; both come off.  One unbuffered ``open`` and
        ``readall`` read the page: no ``Path`` is built per page.
        """
        with open(os.path.join(self._root, relpath), "rb", buffering=0) as page:
            data = page.readall()
        while zstd.is_packed(data):
            data = zstd.decompress(data)
        try:
            return decode_container(data)
        except ContainerError as exc:
            raise ContainerError(f"{relpath}: {exc}") from exc

    def compress_gop_file(self, relpath: str, level: int) -> tuple[str, int]:
        """Apply deferred compression to a stored GOP file, in place.

        Returns the (unchanged) relative path and the new size.  The
        packed bytes go to a temporary file that atomically replaces the
        page, so a concurrent or later reader sees either version whole.
        """
        target = self.root / relpath
        packed = zstd.compress(target.read_bytes(), level)
        staging = target.with_name(target.name + ".tmp")
        staging.write_bytes(packed)
        os.replace(staging, target)
        return relpath, len(packed)

    def sweep(self, relpaths) -> None:
        """Remove files no catalog row names any more, then the
        directories that leaves empty (up to ``videos/`` or ``joint/``).

        The one place the store deletes files: callers pass what a
        committed catalog transaction returned, or the diff of
        :meth:`stored_files` against the catalog's live paths.  A leased
        path is deferred instead (:attr:`pending`) and goes when its
        last lease is released.
        """
        with self._lease_lock:
            now = []
            for relpath in relpaths:
                if relpath in self._leased:
                    self._deferred.add(relpath)
                else:
                    now.append(relpath)
        self._remove(now)

    def lease(self, relpaths) -> int:
        """Keep ``relpaths`` on disk until :meth:`release` of the returned
        token: a sweep meanwhile defers them.  The caller takes the lease
        while no sweep of those paths can run (a read stream: under its
        video's shared lock, right after planning)."""
        paths = tuple(relpaths)
        with self._lease_lock:
            token = next(self._lease_ids)
            self._leases[token] = paths
            for path in paths:
                self._leased[path] = self._leased.get(path, 0) + 1
        return token

    def release(self, token: int) -> None:
        """Drop one lease (a second release of it does nothing),
        unlinking each deferred path it was the last to hold."""
        with self._lease_lock:
            free = []
            for path in self._leases.pop(token, ()):
                left = self._leased[path] - 1
                if left:
                    self._leased[path] = left
                    continue
                del self._leased[path]
                if path in self._deferred:
                    self._deferred.discard(path)
                    free.append(path)
        self._remove(free)

    def release_all(self) -> None:
        """Drop every lease, as the engine does when it closes."""
        with self._lease_lock:
            tokens = list(self._leases)
        for token in tokens:
            self.release(token)

    @property
    def pending(self) -> frozenset[str]:
        """Swept paths a lease still keeps on disk."""
        with self._lease_lock:
            return frozenset(self._deferred)

    def _remove(self, relpaths) -> None:
        for relpath in relpaths:
            path = self.root / relpath
            path.unlink(missing_ok=True)
            for parent in path.parents:
                if parent.parent == self.root:
                    break
                try:
                    parent.rmdir()
                except OSError:
                    break  # not empty (or already gone)

    def stored_files(self, under: str | None = None) -> set[str]:
        """Relative paths of the files under ``under`` (default: all of
        ``videos/`` and ``joint/``)."""
        return {
            path.relative_to(self.root).as_posix()
            for top in ([under] if under else ["videos", "joint"])
            for path in (self.root / top).rglob("*")
            if path.is_file()
        }

    # ------------------------------------------------------------------
    # joint-compression pieces
    # ------------------------------------------------------------------
    def write_joint_piece(
        self, gop_a: int, gop_b: int, piece: str, gop: EncodedGOP
    ) -> tuple[str, int]:
        """Write one piece of the pair GOPs ``gop_a`` and ``gop_b`` are
        about to join; returns (relative path, bytes written)."""
        relpath = f"joint/{gop_a}-{gop_b}.{piece}.gop"
        return relpath, self._create(relpath, encode_container(gop))

    def file_size(self, relpath: str) -> int:
        return (self.root / relpath).stat().st_size
