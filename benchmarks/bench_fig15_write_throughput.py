"""Figure 15: write throughput (uncompressed and compressed) per system.

Writes each dataset to VSS, Local FS, and VStore in raw and h264 form and
reports FPS.  Paper shape: all systems land in the same band (writes are
dominated by encode/IO, not the storage manager); VStore cannot accept
datasets past its frame limit, and only VSS moderates huge raw writes with
deferred compression.
"""

from __future__ import annotations

import time


from benchmarks.conftest import make_store
from repro.baselines import LocalFSStore, VStoreBaseline
from repro.baselines.vstore import StagedFormat
from repro.bench.harness import Table, print_table
from repro.errors import WriteError
from repro.synthetic import build_dataset

DATASETS = ("robotcar", "waymo", "visualroad-1k-30", "visualroad-2k-30",
            "visualroad-4k-30")
FRAMES = 30


def _fps(fn, frames) -> float:
    start = time.perf_counter()
    fn()
    return frames / (time.perf_counter() - start)


def test_fig15_write_throughput(tmp_path, calibration, benchmark):
    raw_table = Table(
        "Figure 15a: uncompressed write throughput (FPS)",
        ["dataset", "VSS", "Local FS", "VStore"],
    )
    compressed_table = Table(
        "Figure 15b: compressed (h264) write throughput (FPS)",
        ["dataset", "VSS", "Local FS", "VStore"],
    )
    vss_raw_fps = {}
    for name in DATASETS:
        clip = build_dataset(name, num_frames=FRAMES).video(0, 0, FRAMES)
        base = tmp_path / name
        engine = make_store(base, calibration, budget_multiple=100.0)
        session = engine.session()

        def vss_write(video, **how):
            session.write(video, clip, **how)
            # The index extraction a write queues is part of its cost,
            # and must not run into the next system's timing.
            engine.drain_admissions()

        fs = LocalFSStore(base / "fs")
        vstore = VStoreBaseline(
            base / "vstore",
            [StagedFormat("h264", "rgb", 14), StagedFormat("raw", "rgb")],
        )
        from repro.video.codec.registry import encode_gop

        raw_vss = _fps(lambda: vss_write(f"{name}-raw", codec="raw"), FRAMES)
        raw_fs = _fps(lambda: fs.write_gops("raw", encode_gop("raw", clip)),
                      FRAMES)
        vss_raw_fps[name] = raw_vss
        try:
            raw_vstore = _fps(lambda: vstore.write(name, clip), FRAMES)
        except WriteError:
            raw_vstore = None
        raw_table.add_row(
            name, f"{raw_vss:,.0f}", f"{raw_fs:,.0f}",
            f"{raw_vstore:,.0f}" if raw_vstore else "x",
        )

        comp_vss = _fps(
            lambda: vss_write(f"{name}-h264", codec="h264", qp=14), FRAMES
        )
        comp_fs = _fps(lambda: fs.write("h264", clip, codec="h264", qp=14),
                       FRAMES)
        compressed_table.add_row(
            name, f"{comp_vss:,.1f}", f"{comp_fs:,.1f}", f"{comp_fs:,.1f}*"
        )
        engine.close()

    print_table(raw_table)
    print_table(compressed_table)
    print("(*) VStore compressed writes share the Local-FS encode path.")

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    # Shape: higher resolutions write fewer frames per second.
    assert vss_raw_fps["visualroad-4k-30"] < vss_raw_fps["visualroad-1k-30"]
