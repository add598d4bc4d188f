"""Figure 18: read/write throughput with and without joint compression.

(a) reads h264 -> {h264, raw, hevc} from a jointly compressed store vs a
separately compressed one; (b) writes raw -> {h264, hevc} jointly vs
separately.  Paper shape: joint-compression overhead on reads is modest;
joint writes land close to separate writes.
"""

from __future__ import annotations

import time


from benchmarks.conftest import make_store
from repro.bench.harness import Table, print_table
from repro.jointcomp import JointCompressionManager, JointCompressor
from repro.synthetic import visualroad
from repro.video.codec.registry import encode_gop

FRAMES = 30
DURATION = FRAMES / 30.0


def _fps(fn) -> float:
    start = time.perf_counter()
    fn()
    return FRAMES / (time.perf_counter() - start)


def test_fig18_joint_throughput(tmp_path, calibration, benchmark):
    ds = visualroad("1K", overlap=0.5, num_frames=FRAMES)
    left, right = ds.videos(0, FRAMES)

    joint_engine = make_store(tmp_path / "joint", calibration,
                              cache_reads=False)
    joint_store = joint_engine.session()
    joint_store.write("left", left, codec="h264", qp=10, gop_size=10)
    joint_store.write("right", right, codec="h264", qp=10, gop_size=10)
    # Joint compression rewrites the GOPs the queued index extraction reads.
    joint_engine.drain_admissions()
    report = JointCompressionManager(joint_engine, merge="mean").optimize()

    separate_engine = make_store(tmp_path / "separate", calibration,
                                 cache_reads=False)
    separate_store = separate_engine.session()
    separate_store.write("left", left, codec="h264", qp=10, gop_size=10)
    separate_store.write("right", right, codec="h264", qp=10, gop_size=10)
    separate_engine.drain_admissions()  # no background work under the timers

    read_table = Table(
        "Figure 18a: read throughput (FPS)",
        ["case", "joint compression", "separate compression"],
    )
    results = {}
    for dst in ("h264", "raw", "hevc"):
        joint_fps = _fps(
            lambda: joint_store.read("left", 0.0, DURATION, codec=dst,
                                     cache=False)
        )
        separate_fps = _fps(
            lambda: separate_store.read("left", 0.0, DURATION, codec=dst,
                                        cache=False)
        )
        results[dst] = (joint_fps, separate_fps)
        read_table.add_row(f"h264->{dst}", f"{joint_fps:,.1f}",
                           f"{separate_fps:,.1f}")
    print_table(read_table)

    write_table = Table(
        "Figure 18b: write throughput (FPS)",
        ["case", "joint compression", "separate compression"],
    )
    compressor = JointCompressor(merge="mean")
    for dst in ("h264", "hevc"):
        start = time.perf_counter()
        compressor.compress(left.pixels, right.pixels)
        joint_write = 2 * FRAMES / (time.perf_counter() - start)
        start = time.perf_counter()
        encode_gop(dst, left, qp=14, gop_size=FRAMES)
        encode_gop(dst, right, qp=14, gop_size=FRAMES)
        separate_write = 2 * FRAMES / (time.perf_counter() - start)
        write_table.add_row(f"raw->{dst}", f"{joint_write:,.1f}",
                            f"{separate_write:,.1f}")
    print_table(write_table)
    print(f"fig18: joint pairs compressed: {report.pairs_compressed}")

    benchmark.pedantic(
        lambda: joint_store.read("left", 0.0, 1.0, codec="raw", cache=False),
        rounds=1, iterations=1,
    )
    # Shape: joint reads stay within an order of magnitude of separate.
    assert results["raw"][0] > results["raw"][1] / 20
    joint_engine.close()
    separate_engine.close()
