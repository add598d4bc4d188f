"""Figure 19: joint-compression overhead decomposition.

(a) by resolution: feature detection / homography estimation /
compression+verification seconds per fragment at 1K/2K/4K; paper shape:
compression dominates at every resolution.

(b) by camera dynamicism: static, slow (re-estimate every 15 frames), and
fast (every 5 frames) rotation; paper shape: non-compression costs scale
with the re-estimation period.

The seconds are printed, never compared: two stages' wall-clock times
swap places on a loaded host.  The shapes are asserted in the work each
stage does, from the compressor's own counters: feature detection runs
once per homography estimate (one frame pair each), while compression
and verification take every frame of the fragment.
"""

from __future__ import annotations


from repro.bench.harness import Table, print_table
from repro.jointcomp import JointCompressor
from repro.synthetic import visualroad

FRAMES = 10


def _breakdown(resolution="1K", pan_rate=0.0, reestimate_every=None):
    ds = visualroad(resolution, overlap=0.5, num_frames=FRAMES,
                    pan_rate=pan_rate)
    left, right = ds.videos(0, FRAMES)
    compressor = JointCompressor(merge="mean",
                                 reestimate_every=reestimate_every)
    result = compressor.compress(left.pixels, right.pixels)
    if result is None:
        return None
    t = result.timers.as_dict()
    return {
        "feature detection": t.get("feature_detection", 0.0),
        "homography estimation": t.get("homography_estimation", 0.0),
        "compression": t.get("compression", 0.0) + t.get("verification", 0.0),
        # Frame pairs through each stage (the timers count estimates).
        "frames detected": result.timers["feature_detection"].count,
        "frames compressed": result.left_frames.shape[0],
    }


def test_fig19_joint_compression_overhead(benchmark):
    by_resolution = Table(
        "Figure 19a: joint compression overhead by resolution (seconds/fragment)",
        ["resolution", "feature detection", "homography estimation",
         "compression"],
    )
    resolution_rows = {}
    for resolution in ("1K", "2K", "4K"):
        parts = _breakdown(resolution=resolution)
        if parts is None:
            by_resolution.add_row(resolution, "rejected", "-", "-")
            continue
        resolution_rows[resolution] = parts
        by_resolution.add_row(
            resolution, parts["feature detection"],
            parts["homography estimation"], parts["compression"],
        )
    print_table(by_resolution)

    by_dynamicism = Table(
        "Figure 19b: overhead by camera dynamicism (seconds/fragment)",
        ["scenario", "feature detection", "homography estimation",
         "compression"],
    )
    scenarios = (
        ("static", 0.0, None),
        ("slow (re-est/15)", 0.3, 15),
        ("fast (re-est/5)", 0.3, 5),
    )
    dyn_rows = {}
    for label, pan, every in scenarios:
        parts = _breakdown(pan_rate=pan, reestimate_every=every)
        if parts is None:
            by_dynamicism.add_row(label, "rejected", "-", "-")
            continue
        dyn_rows[label] = parts
        by_dynamicism.add_row(
            label, parts["feature detection"],
            parts["homography estimation"], parts["compression"],
        )
    print_table(by_dynamicism)

    benchmark.pedantic(_breakdown, rounds=1, iterations=1)
    # Shape: compression dominates at every resolution (paper Figure 19a):
    # it takes every frame, detection one pair per estimate.
    assert resolution_rows
    for parts in resolution_rows.values():
        assert parts["frames compressed"] > parts["frames detected"] >= 1
    # Shape: more dynamic cameras pay for more estimates.
    if "static" in dyn_rows and "fast (re-est/5)" in dyn_rows:
        assert (dyn_rows["fast (re-est/5)"]["frames detected"]
                > dyn_rows["static"]["frames detected"])
