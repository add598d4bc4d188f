"""Orchestration of joint compression inside a VSS store.

``JointCompressionManager.optimize`` walks the original physical videos of
the store's logical videos, finds candidate GOP pairs (section 5.1.3),
applies Algorithm 1 to each, and — for admitted pairs — writes the shared
left/overlap/right pieces, then repoints the two GOPs at them in one
catalog transaction, and sweeps the two pages that no longer have a name.
Reads reconstruct either side transparently (see
:mod:`repro.jointcomp.recovery`), so applications never observe the
rewrite; only the storage accounting changes.

The originals' GOPs are decoded in the background, usually just after
the tail reads that follow ingest decoded them, through the engine's
:meth:`~repro.core.reader.Reader.load_stored`: a GOP the decode cache
holds far enough is taken from it without counting anything, any other
is decoded from its page file, and nothing is put in the cache.  The
catalog's joint transaction announces both GOPs, so the engine drops
their decoded prefixes and memoized plans itself.  The pieces are
encoded inline on the calling thread: a 30-frame piece is too small for
the executor's deflate hand-off to pay for itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.records import GopRecord
from repro.errors import CatalogError, ReadError
from repro.jointcomp.algorithm import JointCompressor, JointResult
from repro.jointcomp.selection import JointCandidateSelector
from repro.video.codec.quant import QP_DEFAULT
from repro.video.codec.registry import codec_for
from repro.video.frame import VideoSegment, convert_segment

#: Codec the shared left/overlap/right pieces are encoded with.
JOINT_CODEC = "h264"


@dataclass
class JointReport:
    """Outcome of one optimization pass."""

    candidates_considered: int = 0
    pairs_compressed: int = 0
    duplicates_found: int = 0
    pairs_rejected: int = 0
    bytes_before: int = 0
    bytes_after: int = 0
    quality_left_db: list[float] = field(default_factory=list)
    quality_right_db: list[float] = field(default_factory=list)

    @property
    def savings_fraction(self) -> float:
        if self.bytes_before == 0:
            return 0.0
        return 1.0 - self.bytes_after / self.bytes_before


class JointCompressionManager:
    """Applies joint compression across a VSS store's logical videos."""

    def __init__(
        self,
        vss,
        merge: str = "unprojected",
    ):
        self.vss = vss
        self.compressor = JointCompressor(merge=merge)
        # Stateful (it accumulates candidate frames): one per manager.
        self.selector = JointCandidateSelector()

    # ------------------------------------------------------------------
    def optimize(
        self,
        names: list[str] | None = None,
        max_pairs: int | None = None,
    ) -> JointReport:
        """Find and jointly compress overlapping GOP pairs.

        ``names`` restricts the search to specific logical videos (default:
        every video in the store).  Pairs within the same logical video are
        skipped — the paper targets redundancy *across* cameras.
        """
        report = JointReport()
        catalog = self.vss.catalog
        names = names if names is not None else self.vss.list_videos()
        gop_index: dict[tuple[str, int], GopRecord] = {}
        for name in names:
            logical = catalog.get_logical(name)
            original = catalog.original_physical(logical.id)
            if original is None:
                continue
            for gop in catalog.gops_of_physical(original.id):
                if gop.joint_pair_id is not None:
                    continue
                key = (name, gop.id)
                gop_index[key] = gop
                frame = self._decode_rgb(gop, 1).frame(0)
                self.selector.add(key, frame)

        candidates = [
            pair
            for pair in self.selector.candidates()
            if pair.key_a[0] != pair.key_b[0]  # different logical videos
        ]
        if max_pairs is not None:
            candidates = candidates[:max_pairs]
        used: set[int] = set()
        for pair in candidates:
            report.candidates_considered += 1
            gop_a = gop_index[pair.key_a]
            gop_b = gop_index[pair.key_b]
            if gop_a.id in used or gop_b.id in used:
                continue
            if self._apply_pair(gop_a, gop_b, report):
                used.add(gop_a.id)
                used.add(gop_b.id)
        return report

    # ------------------------------------------------------------------
    def _decode_rgb(
        self, gop: GopRecord, stop: int | None = None
    ) -> VideoSegment:
        """Frames ``[0, stop)`` of an original GOP (default: all), in rgb."""
        return convert_segment(self.vss.reader.load_stored(gop, stop), "rgb")

    def _apply_pair(
        self, gop_a: GopRecord, gop_b: GopRecord, report: JointReport
    ) -> bool:
        try:
            seg_a = self._decode_rgb(gop_a)
            seg_b = self._decode_rgb(gop_b)
        except ReadError:
            # A page swept since the scan (its video was deleted, or the
            # GOP paired): the pair is gone, as on a CatalogError in
            # _persist_pair.  Leases do not cover this: optimize holds
            # no video lock between its scan and this decode, so nothing
            # can lease the page before a sweep (ROADMAP item 6).
            return False
        frames = min(seg_a.num_frames, seg_b.num_frames)
        if frames < 1:
            return False
        result = self.compressor.compress(
            seg_a.pixels[:frames], seg_b.pixels[:frames]
        )
        if result is None:
            report.pairs_rejected += 1
            return False
        if result.swapped:
            gop_a, gop_b = gop_b, gop_a
            seg_a, seg_b = seg_b, seg_a
        return self._persist_pair(gop_a, gop_b, seg_a, result, report)

    def _persist_pair(
        self,
        gop_a: GopRecord,
        gop_b: GopRecord,
        seg_a: VideoSegment,
        result: JointResult,
        report: JointReport,
    ) -> bool:
        catalog = self.vss.catalog
        layout = self.vss.layout
        codec = codec_for(JOINT_CODEC)
        bytes_before = gop_a.nbytes + gop_b.nbytes

        def encode_piece(stack: np.ndarray, piece: str) -> tuple[str, int]:
            segment = VideoSegment(
                np.ascontiguousarray(stack),
                "rgb",
                stack.shape[1],
                stack.shape[2],
                seg_a.fps,
                seg_a.start_time,
            )
            (encoded,) = codec.encode_segment(
                segment,
                qp=QP_DEFAULT,
                gop_size=segment.num_frames,
            )
            return layout.write_joint_piece(gop_a.id, gop_b.id, piece, encoded)

        left_path, left_bytes = encode_piece(result.left_frames, "left")
        overlap_path = right_path = None
        overlap_bytes = right_bytes = 0
        if not result.duplicate:
            overlap_path, overlap_bytes = encode_piece(
                result.overlap_frames, "overlap"
            )
            right_path, right_bytes = encode_piece(result.right_frames, "right")
        total = left_bytes + overlap_bytes + right_bytes
        share_a = left_bytes + overlap_bytes // 2
        share_b = right_bytes + overlap_bytes - overlap_bytes // 2
        if result.duplicate:
            share_a, share_b = left_bytes, 0
        try:
            pages = catalog.add_joint_pair(
                gop_a.id, gop_b.id, result.homography.ravel(), result.x_f,
                result.x_g, result.merge, left_path, overlap_path, right_path,
                share_a, share_b, result.duplicate,
            )
        except CatalogError:
            # A GOP was deleted or paired meanwhile; no row names the
            # pieces, so they go at once.
            layout.sweep(p for p in (left_path, overlap_path, right_path) if p)
            return False
        layout.sweep(pages)

        report.pairs_compressed += 1
        if result.duplicate:
            report.duplicates_found += 1
        report.bytes_before += bytes_before
        report.bytes_after += total
        report.quality_left_db.append(result.quality_left_db)
        report.quality_right_db.append(result.quality_right_db)
        return True
