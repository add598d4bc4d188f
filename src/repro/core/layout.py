"""On-disk layout: one file per GOP under the store root (paper Figure 2).

Layout::

    <root>/
      catalog.db             SQLite catalog
      calibration.json       vbench-style calibration
      videos/
        <logical name>/
          <physical id>/
            <seq>.gop        encoded-GOP container, or one VZST-wrapped
                             by deferred compression
      joint/
        <pair id>.{left,overlap,right}.gop

Paths stored in the catalog are relative to the root so a store directory
can be moved wholesale.  A page's path never changes: deferred
compression rewrites the file in place, and :meth:`Layout.read_gop`
recognises the ``VZST`` header whatever the catalog row says.  Only
stores written by older versions hold ``<seq>.gop.z`` files (their rows
point at them, so they read the same way).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.errors import ContainerError
from repro.lossless import zstd
from repro.video.codec.container import EncodedGOP, decode_container, encode_container


class Layout:
    """File placement and raw byte IO for one store."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "videos").mkdir(exist_ok=True)
        (self.root / "joint").mkdir(exist_ok=True)

    @property
    def catalog_path(self) -> Path:
        return self.root / "catalog.db"

    @property
    def calibration_path(self) -> Path:
        return self.root / "calibration.json"

    # ------------------------------------------------------------------
    # GOP files
    # ------------------------------------------------------------------
    def gop_relpath(self, logical_name: str, physical_id: int, seq: int) -> str:
        return f"videos/{logical_name}/{physical_id}/{seq}.gop"

    def write_gop(
        self, logical_name: str, physical_id: int, seq: int, gop: EncodedGOP
    ) -> tuple[str, int]:
        """Write a GOP container; returns (relative path, bytes written)."""
        relpath = self.gop_relpath(logical_name, physical_id, seq)
        target = self.root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        data = encode_container(gop)
        target.write_bytes(data)
        return relpath, len(data)

    def read_gop(self, relpath: str) -> EncodedGOP:
        """Read a GOP container, transparently undoing deferred
        compression (recognised by its header, not by the catalog).

        A page packed again after a crash left its row unpacked carries
        two headers; both come off.
        """
        data = (self.root / relpath).read_bytes()
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

    def delete_gop_file(self, relpath: str) -> None:
        path = self.root / relpath
        if path.exists():
            path.unlink()
            # Prune empty physical-video directories.
            parent = path.parent
            try:
                next(parent.iterdir())
            except StopIteration:
                parent.rmdir()

    def delete_logical_files(self, logical_name: str) -> None:
        base = self.root / "videos" / logical_name
        if not base.exists():
            return
        for path in sorted(base.rglob("*"), reverse=True):
            if path.is_file():
                path.unlink()
            else:
                path.rmdir()
        base.rmdir()

    # ------------------------------------------------------------------
    # joint-compression pieces
    # ------------------------------------------------------------------
    def joint_relpath(self, pair_id: int, piece: str) -> str:
        return f"joint/{pair_id}.{piece}.gop"

    def write_joint_piece(
        self, pair_id: int, piece: str, gop: EncodedGOP
    ) -> tuple[str, int]:
        relpath = self.joint_relpath(pair_id, piece)
        data = encode_container(gop)
        (self.root / relpath).write_bytes(data)
        return relpath, len(data)

    def read_joint_piece(self, relpath: str) -> EncodedGOP:
        return self.read_gop(relpath)

    def file_size(self, relpath: str) -> int:
        return (self.root / relpath).stat().st_size
