"""Figure 12: short (1-second) read latency vs cache configuration.

Populates a cache with random reads under four configurations — VSS with
all optimizations, VSS without deferred compression, VSS with ordinary
LRU, and the Local-FS baseline — then measures the mean latency of random
one-second reads.  Paper shape: cached configurations beat Local FS, and
all-optimizations dominates the ablations as the cache grows.
"""

from __future__ import annotations

import time


from benchmarks.conftest import make_store
from repro.baselines import LocalFSStore
from repro.bench.harness import Series, print_series
from repro.bench.workloads import RandomReadWorkload, populate_cache

DURATION = 5.0
POPULATE_READS = 14
MEASURE_READS = 8


def _measure_vss(session, seed):
    workload = RandomReadWorkload(DURATION, (192, 108), seed=seed)
    start = time.perf_counter()
    for _ in range(MEASURE_READS):
        params = workload.short_read()
        session.read("video", cache=False, **params)
    return (time.perf_counter() - start) / MEASURE_READS


def _measure_fs(fs, seed):
    workload = RandomReadWorkload(DURATION, (192, 108), seed=seed)
    start = time.perf_counter()
    for _ in range(MEASURE_READS):
        params = workload.short_read()
        fs.read(
            "video", params["start"], params["end"], codec=params["codec"],
            pixel_format=params["pixel_format"],
        )
    return (time.perf_counter() - start) / MEASURE_READS


def test_fig12_short_read_performance(tmp_path, calibration, vroad_clip, benchmark):
    configs = {
        "VSS (all optimizations)": dict(budget_multiple=6.0),
        "VSS (no deferred compression)": dict(
            budget_multiple=6.0, deferred_compression=False
        ),
        "VSS (ordinary LRU)": dict(budget_multiple=6.0, cache_policy="lru"),
    }
    series = Series("Fig12 mean 1s-read latency", "configuration", "seconds")
    results = {}
    # Measurement repeats the populate workload's read distribution (same
    # seed): the figure's premise is that applications re-query the same
    # regions, which is what makes the cache useful (paper sections 1-2).
    for label, kwargs in configs.items():
        engine = make_store(
            tmp_path / label.replace(" ", "_"), calibration, **kwargs
        )
        session = engine.session()
        session.write("video", vroad_clip, codec="h264", qp=10, gop_size=30)
        populate_cache(
            session,
            "video",
            RandomReadWorkload(DURATION, (192, 108), seed=11),
            POPULATE_READS,
            short=True,
        )
        latency = _measure_vss(session, seed=11)
        results[label] = latency
        engine.drain_admissions()  # compaction the measured reads queued
        fragments = len(
            engine.catalog.fragments_of_logical(
                engine.catalog.get_logical("video").id
            )
        )
        print(f"fig12: {label}: {latency:.3f}s/read ({fragments} fragments)")
        engine.close()

    fs = LocalFSStore(tmp_path / "fs")
    fs.write("video", vroad_clip, codec="h264", qp=10, gop_size=30)
    results["Local FS"] = _measure_fs(fs, seed=11)
    print(f"fig12: Local FS: {results['Local FS']:.3f}s/read")

    for i, (label, latency) in enumerate(results.items()):
        series.add(i, latency)
    print_series(series)

    benchmark.pedantic(_measure_fs, args=(fs, 31), rounds=1, iterations=1)
    # Shape: a VSS cache must beat decoding from the monolithic file.
    assert results["VSS (all optimizations)"] < results["Local FS"]
