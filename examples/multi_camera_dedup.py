"""Joint compression across overlapping cameras (paper section 5.1).

Two cameras watch the same intersection with 50% horizontal overlap.  VSS
finds the redundancy without any metadata — histogram clustering, feature
matching, homography estimation — and stores the overlap once.  Reads of
either camera reconstruct transparently.

Run:  python examples/multi_camera_dedup.py
"""

from __future__ import annotations

import tempfile

from repro import VSSEngine
from repro.jointcomp import JointCompressionManager
from repro.synthetic import visualroad
from repro.video.metrics import segment_psnr

FRAMES = 20


def main() -> None:
    dataset = visualroad("1K", overlap=0.5, num_frames=FRAMES)
    left, right = dataset.videos(0, FRAMES)
    print(
        f"two cameras, {dataset.overlap:.0%} overlap, "
        f"{FRAMES} frames at {left.resolution}"
    )

    with tempfile.TemporaryDirectory() as root:
        with VSSEngine(root, cache_reads=False) as engine:
            store = engine.session()
            store.write("cam-left", left, codec="h264", qp=10, gop_size=5)
            store.write("cam-right", right, codec="h264", qp=10, gop_size=5)
            # Ingest-time indexing reads the GOPs joint compression is
            # about to rewrite: let it finish first.
            engine.drain_admissions()
            before = (
                store.video_stats("cam-left").total_bytes
                + store.video_stats("cam-right").total_bytes
            )
            print(f"stored separately: {before / 1024:.0f} KB")

            # Find and compress overlapping GOP pairs.  'mean' merge
            # balances recovered quality across both cameras; use
            # 'unprojected' to keep the left camera bit-exact.
            manager = JointCompressionManager(engine, merge="mean")
            report = manager.optimize()
            after = (
                store.video_stats("cam-left").total_bytes
                + store.video_stats("cam-right").total_bytes
            )
            print(
                f"jointly compressed {report.pairs_compressed} GOP pairs "
                f"({report.pairs_rejected} rejected by the quality model)"
            )
            print(
                f"stored jointly: {after / 1024:.0f} KB "
                f"({100 * (1 - after / before):.0f}% smaller)"
            )

            # Reads are unchanged: both cameras reconstruct transparently.
            duration = FRAMES / 30
            got_left = store.read("cam-left", 0, duration, codec="raw").segment
            got_right = store.read("cam-right", 0, duration, codec="raw").segment
            print(
                f"recovered quality: left {segment_psnr(left, got_left):.1f} dB, "
                f"right {segment_psnr(right, got_right):.1f} dB "
                f"(>= 30 dB is near-lossless)"
            )


if __name__ == "__main__":
    main()
