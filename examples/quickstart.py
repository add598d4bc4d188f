"""Quickstart: create a store, write video, read it back in other formats.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import tempfile

from repro import VSSEngine
from repro.synthetic import visualroad
from repro.video.metrics import segment_psnr


def main() -> None:
    # 1. Render three seconds of synthetic traffic video (a stand-in for a
    #    camera feed; any (N, H, W, 3) uint8 stack wrapped in a
    #    VideoSegment works).
    dataset = visualroad("1K", overlap=0.3, num_frames=90)
    clip = dataset.video(camera=0, start=0, stop=90)
    print(f"rendered {clip.num_frames} frames at {clip.resolution}")

    with tempfile.TemporaryDirectory() as root:
        # 2. Open a store, take a session (a cheap per-caller handle)
        #    and write the clip as h264.  The first write becomes the
        #    video's lossless reference; the storage budget defaults to
        #    10x its size.
        with VSSEngine(root) as engine:
            store = engine.session()
            store.create("traffic")
            store.write("traffic", clip, codec="h264", qp=10, gop_size=30)
            print("after write:", store.video_stats("traffic"))

            # 3. Read one second as decoded RGB (e.g. for ML inference).
            #    VSS transparently decodes and caches the result.
            result = store.read("traffic", start=0.0, end=1.0, codec="raw")
            reference = clip.slice_time(0.0, 1.0)
            print(
                f"raw read: {result.segment.num_frames} frames, "
                f"{segment_psnr(reference, result.segment):.1f} dB vs source"
            )

            # 4. Read the same second again: the cached raw fragment now
            #    serves it at a fraction of the planned cost.  Caching
            #    happens after a read returns, on the engine's background
            #    worker; drain it so the effect is there to see.
            engine.drain_admissions()
            again = store.read("traffic", start=0.0, end=1.0, codec="raw")
            print(
                f"repeat read planned cost: {again.plan.estimated_cost:.5f}s "
                f"(first: {result.plan.estimated_cost:.5f}s)"
            )

            # 5. Cross-format read: hevc output for an archival consumer.
            #    The planner picks the least-cost mix of cached fragments.
            hevc = store.read("traffic", start=0.5, end=2.5, codec="hevc")
            print(
                f"hevc read: {len(hevc.gops)} GOPs via "
                f"{hevc.stats.fragments_used} fragment(s), "
                f"mode={hevc.plan.mode}"
            )

            # 6. Spatial parameters: a region of interest at phone
            #    resolution, 15 fps.
            roi = store.read(
                "traffic", 0.0, 1.0, codec="raw",
                roi=(0, 54, 96, 108), resolution=(48, 28), fps=15,
            )
            print(f"ROI read: {roi.segment.resolution} @ {roi.segment.fps} fps")

            engine.drain_admissions()
            print("final state:", store.video_stats("traffic"))


if __name__ == "__main__":
    main()
