"""Figure 14: read throughput by input/output format across systems.

Writes visualroad-1K-30% in compressed and raw form to VSS, Local FS, and
VStore, then reads in same-format and cross-format configurations,
reporting FPS.  'x' marks configurations a system cannot serve (the file
system cannot transcode; VStore only serves pre-staged formats).  Paper
shape: same-format VSS reads are modestly slower than Local FS; only VSS
covers every cell.
"""

from __future__ import annotations

import time


from benchmarks.conftest import make_store
from repro.baselines import LocalFSStore, VStoreBaseline
from repro.baselines.vstore import StagedFormat
from repro.bench.harness import Table, print_table
from repro.video.codec.registry import encode_gop

DURATION = 3.0
FRAMES = int(DURATION * 30)

CASES = [
    ("h264->h264", "h264", "h264"),
    ("raw->raw", "raw", "raw"),
    ("raw->h264", "raw", "h264"),
    ("h264->raw", "h264", "raw"),
    ("h264->hevc", "h264", "hevc"),
]


def _fps(fn) -> float:
    start = time.perf_counter()
    fn()
    return FRAMES / (time.perf_counter() - start)


def test_fig14_read_format_flexibility(tmp_path, calibration, vroad_clip, benchmark):
    clip = vroad_clip.slice_frames(0, FRAMES)

    engine = make_store(tmp_path, calibration, budget_multiple=100.0,
                        cache_reads=False)
    session = engine.session()
    session.write("compressed", clip, codec="h264", qp=10, gop_size=30)
    session.write("raw", clip, codec="raw")

    fs = LocalFSStore(tmp_path / "fs")
    fs.write("compressed", clip, codec="h264", qp=10, gop_size=30)
    fs.write_gops("raw", encode_gop("raw", clip))

    vstore = VStoreBaseline(
        tmp_path / "vstore",
        [StagedFormat("h264", "rgb", 10), StagedFormat("raw", "rgb")],
    )
    vstore.write("video", clip)

    table = Table(
        "Figure 14: read throughput (FPS); x = unsupported",
        ["case", "VSS", "Local FS", "VStore"],
    )
    vss_results = {}
    for label, src, dst in CASES:
        vss_name = "compressed" if src == "h264" else "raw"
        vss_fps = _fps(
            lambda: session.read(
                vss_name, 0.0, DURATION, codec=dst, cache=False
            )
        )
        vss_results[label] = vss_fps
        if src == dst:
            fs_fps = _fps(lambda: fs.read(vss_name, 0.0, DURATION))
        else:
            fs_fps = None  # no automatic transcoding on a bare file system
        if vstore.supports(dst):
            vstore_fps = _fps(
                lambda: vstore.read("video", 0.0, DURATION, codec=dst)
            )
        else:
            vstore_fps = None
        fmt = lambda v: f"{v:,.0f}" if v is not None else "x"  # noqa: E731
        table.add_row(label, fmt(vss_fps), fmt(fs_fps), fmt(vstore_fps))
    print_table(table)

    benchmark.pedantic(
        lambda: session.read(
            "compressed", 0.0, 1.0, codec="h264", cache=False
        ),
        rounds=1, iterations=1,
    )
    # Shape: same-format reads are far faster than transcoding reads.
    assert vss_results["h264->h264"] > vss_results["h264->hevc"]
    engine.close()
