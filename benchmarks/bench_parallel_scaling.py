"""Parallel GOP pipeline scaling: throughput vs ``parallelism``, the
decoded-GOP cache's effect on repeated look-back-heavy reads, and the
batched session read path's decode sharing.

Set ``VSS_BENCH_QUICK=1`` for the CI smoke configuration (fewer
parallelism points and reads).  Timings and their ratios are printed,
never asserted; what is asserted is the decode work each experiment
claims to save, counted in frames and GOPs, which holds on any host.

Three experiments:

* **Core scaling** — write the workhorse clip and replay the Figure 12
  short-read workload at ``parallelism`` 1/2/4 with the decode cache off,
  so every configuration performs identical decode work and the only
  variable is thread fan-out across GOPs.
* **Decode cache** — repeat identical mid-GOP (look-back-heavy) reads and
  compare a cold pass against a warm pass served from the cache.  The
  warm pass skips both disk and the codec: it decodes no frame.
* **Batched reads** — ``session.read_batch`` of overlapping look-back
  reads on a cache-disabled store vs the same reads issued sequentially.
  The batch decodes each shared GOP window once (``gops_decoded ==
  unique_gops < window_requests``), fewer frames than the sequential
  reads decode between them.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import make_store
from repro.bench.harness import Series, print_series
from repro.bench.workloads import RandomReadWorkload
from repro.core.specs import ReadSpec

DURATION = 5.0
RESOLUTION = (192, 108)

#: Quick mode (VSS_BENCH_QUICK=1): the CI smoke configuration — fewer
#: parallelism points and reads, same assertions where hardware allows.
QUICK = os.environ.get("VSS_BENCH_QUICK", "") not in ("", "0")
PARALLELISMS = (1, 2) if QUICK else (1, 2, 4)
MEASURE_READS = 3 if QUICK else 6
LOOKBACK_READS = 4 if QUICK else 6
SEED = 17
#: Frames per stored GOP (the clip is written with ``gop_size=30``).
GOP_FRAMES = 30


def _read_throughput(session, seed: int) -> float:
    """Reads/second over the Figure 12 short-read workload."""
    workload = RandomReadWorkload(DURATION, RESOLUTION, seed=seed)
    start = time.perf_counter()
    for _ in range(MEASURE_READS):
        session.read("video", cache=False, **workload.short_read())
    elapsed = time.perf_counter() - start
    return MEASURE_READS / elapsed


def _lookback_reads(session) -> tuple[float, int]:
    """(seconds, frames decoded) for a pass of identical mid-GOP 0.4 s
    reads.

    Each read starts mid-GOP (GOPs are 1 s), so the serial path decodes
    the look-back prefix every time; a warm decode cache serves the whole
    prefix from memory.
    """
    start = time.perf_counter()
    decoded = 0
    for i in range(LOOKBACK_READS):
        offset = 0.5 + (i % 3)  # three distinct windows, repeated
        result = session.read("video", offset, offset + 0.4, cache=False)
        decoded += result.stats.frames_decoded
    return time.perf_counter() - start, decoded


def test_parallel_scaling(tmp_path, calibration, vroad_clip, benchmark):
    # ------------------------------------------------------------------
    # core scaling: decode cache off, identical workload per parallelism
    # ------------------------------------------------------------------
    write_series = Series(
        "Write throughput vs parallelism", "parallelism", "frames/s"
    )
    read_series = Series(
        "Fig12 short-read throughput vs parallelism", "parallelism", "reads/s"
    )
    read_tp = {}
    for par in PARALLELISMS:
        engine = make_store(
            tmp_path / f"par{par}",
            calibration,
            parallelism=par,
            decode_cache_bytes=0,
        )
        session = engine.session()
        start = time.perf_counter()
        session.write("video", vroad_clip, codec="h264", qp=10, gop_size=30)
        # The index extraction the write queued fans out over the same
        # pool: it is write work, and must not run under the read timer.
        engine.drain_admissions()
        write_seconds = time.perf_counter() - start
        write_series.add(par, vroad_clip.num_frames / write_seconds)
        read_tp[par] = _read_throughput(session, seed=SEED)
        read_series.add(par, read_tp[par])
        print(
            f"parallel_scaling: parallelism={par}: "
            f"write {vroad_clip.num_frames / write_seconds:.1f} frames/s, "
            f"read {read_tp[par]:.2f} reads/s"
        )
        engine.close()
    print_series(write_series)
    print_series(read_series)
    top = PARALLELISMS[-1]
    print(
        f"parallel_scaling: reads at parallelism={top} "
        f"{read_tp[top] / read_tp[1]:.2f}x parallelism=1"
    )

    # ------------------------------------------------------------------
    # decode cache: cold vs warm pass of look-back-heavy reads
    # ------------------------------------------------------------------
    engine = make_store(tmp_path / "cache", calibration, parallelism=1)
    session = engine.session()
    session.write("video", vroad_clip, codec="h264", qp=10, gop_size=30)
    engine.drain_admissions()
    cold, cold_decoded = _lookback_reads(session)
    warm, warm_decoded = _lookback_reads(session)
    stats = engine.stats()
    cache_series = Series(
        "Lookback-heavy read pass", "pass (0=cold, 1=warm)", "seconds"
    )
    cache_series.add(0, cold)
    cache_series.add(1, warm)
    print_series(cache_series)
    print(
        f"parallel_scaling: decode cache cold {cold:.3f}s, warm {warm:.3f}s "
        f"({cold / warm:.1f}x), hit rate {stats.decode_cache_hit_rate:.2f} "
        f"({stats.decode_cache_hits} hits / {stats.decode_cache_misses} misses); "
        f"decoded {cold_decoded} frames cold, {warm_decoded} warm"
    )

    benchmark.pedantic(_lookback_reads, args=(session,), rounds=1, iterations=1)
    engine.close()

    # ------------------------------------------------------------------
    # batched reads: shared decode work vs sequential execution
    # ------------------------------------------------------------------
    engine = make_store(
        tmp_path / "batch", calibration, parallelism=1, decode_cache_bytes=0
    )
    session = engine.session()
    session.write("video", vroad_clip, codec="h264", qp=10, gop_size=30)
    engine.drain_admissions()
    base = ReadSpec("video", 0.5, 1.4, cache=False)
    specs = [
        base.replace(start=0.5 + 0.05 * i, end=1.4 + 0.05 * i)
        for i in range(LOOKBACK_READS)
    ]
    session.read(specs[0])  # warm both code paths once
    session.read_batch(specs[:1])
    start = time.perf_counter()
    sequential_decoded = sum(
        session.read(spec).stats.frames_decoded for spec in specs
    )
    sequential = time.perf_counter() - start
    start = time.perf_counter()
    session.read_batch(specs)
    batched = time.perf_counter() - start
    shared = session.stats.last_batch
    print(
        f"parallel_scaling: read_batch of {len(specs)} overlapping reads "
        f"{batched:.3f}s vs sequential {sequential:.3f}s "
        f"({sequential / batched:.1f}x); decoded {shared.gops_decoded} of "
        f"{shared.window_requests} GOP windows ({shared.unique_gops} unique); "
        f"sequential reads decoded {sequential_decoded} frames"
    )
    engine.close()

    # Count assertions, true on any host: a warm decode cache serves the
    # whole pass without decoding, and a batch decodes each shared GOP
    # window once, so it decodes at most ``gops_decoded`` whole GOPs —
    # fewer frames than the same reads decode one by one.
    assert stats.decode_cache_hits > 0
    assert cold_decoded > 0 and warm_decoded == 0
    assert shared.gops_decoded == shared.unique_gops < shared.window_requests
    assert sequential_decoded > shared.gops_decoded * GOP_FRAMES
