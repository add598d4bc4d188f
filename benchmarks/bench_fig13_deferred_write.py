"""Figure 13: deferred compression during a long uncompressed write.

Streams raw video into a budget-limited store and tracks, per chunk:
budget consumed (%), the deferred-compression level, and write throughput
relative to the first chunk.  Paper shape: the budget curve's slope drops
when deferred compression activates; the level climbs as budget empties;
throughput falls when compression engages.
"""

from __future__ import annotations

import time


from benchmarks.conftest import make_store
from repro.bench.harness import Series, print_series

CHUNKS = 10
FRAMES_PER_CHUNK = 15


def test_fig13_deferred_compression_write(tmp_path, calibration, vroad_clip, benchmark):
    engine = make_store(tmp_path, calibration, budget_multiple=1.0)
    # Pre-set an explicit budget so the raw stream has a fixed ceiling:
    # half the clip's raw size, forcing mid-write activation.
    engine.create("video", budget_bytes=vroad_clip.nbytes // 2)

    budget_series = Series("Fig13 budget consumed", "write progress %", "% of budget")
    level_series = Series("Fig13 compression level", "write progress %", "level")
    throughput_series = Series(
        "Fig13 relative throughput", "write progress %", "relative"
    )

    stream = engine.open_write_stream(
        "video", codec="raw", pixel_format="rgb",
        width=vroad_clip.width, height=vroad_clip.height, fps=30.0,
    )
    logical = engine.catalog.get_logical("video")
    first_chunk_time = None
    for chunk in range(CHUNKS):
        lo = chunk * FRAMES_PER_CHUNK
        hi = lo + FRAMES_PER_CHUNK
        start = time.perf_counter()
        stream.append(vroad_clip.slice_frames(lo, hi))
        elapsed = time.perf_counter() - start
        if first_chunk_time is None:
            first_chunk_time = elapsed
        progress = 100.0 * (chunk + 1) / CHUNKS
        usage = 100.0 * engine.cache.usage_fraction(logical)
        budget_series.add(progress, usage)
        level_series.add(progress, engine.deferred.level(logical))
        throughput_series.add(progress, first_chunk_time / max(elapsed, 1e-9))
    stream.close()

    print_series(budget_series, level_series, throughput_series)
    activated = engine.deferred.active(logical)
    compressed = sum(
        1 for g in engine.catalog.gops_of_logical(logical.id) if g.zstd_level > 0
    )
    print(
        f"fig13: deferred compression active={activated}, "
        f"compressed pages={compressed}"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    # Shape: compression engaged during the write and moderated usage.
    assert compressed > 0
    # Levels never decrease as the budget fills.
    levels = [y for _x, y in level_series.points]
    assert levels == sorted(levels)
    engine.close()
