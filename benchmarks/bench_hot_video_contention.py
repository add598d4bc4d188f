"""Hot-video contention: many readers hammering ONE stored video.

Set ``VSS_BENCH_QUICK=1`` for the CI smoke configuration (fewer reads;
the hardware-independent assertions keep running).

This is the workload the reader-writer lock + versioned plan cache were
built for: ``bench_service_throughput`` deliberately gives every client
its own video, so per-logical locking scales it trivially — here all
four readers want the *same* popular camera.  Before this change the
per-logical lock fully serialized them and every read re-planned; now
warm reads take the shared lock, hit the plan cache (zero planner
invocations, zero fragment queries), and proceed in parallel.

Measurements (one video, format-matched reads → direct byte serving, so
per-read work is small and locking/planning overhead dominates):

* **serial** — one thread issuing R warm reads back to back.
* **4 readers** — four threads, R warm reads each, aggregate reads/s.

Correctness assertions (always on):

* warm reads report ``plan_cached=True`` and invoke the planner zero
  times (the planner entry point is instrumented during the measured
  phases);
* every byte served concurrently is identical to the serialized
  reference read.

In-repo we assert the hardware-independent floor (concurrency never
*loses* throughput, and clearly wins when >= 4 cores are available).
"""

from __future__ import annotations

import os
import threading
import time

import repro.core.engine as engine_mod
from repro.bench.harness import Series, print_series
from repro.core.engine import VSSEngine
from repro.core.specs import ReadSpec

QUICK = os.environ.get("VSS_BENCH_QUICK", "") not in ("", "0")
NUM_READERS = 4
READS_PER_THREAD = 6 if QUICK else 20
CLIP_FRAMES = 60 if QUICK else 150  # at 30 fps, gop_size=30


def _gop_bytes(gops) -> list:
    return [g.payloads for g in gops]


def test_hot_video_contention(
    tmp_path, calibration, vroad_clip, benchmark, monkeypatch
):
    clip = vroad_clip.slice_frames(0, CLIP_FRAMES)
    duration = CLIP_FRAMES / 30.0
    # GOP-aligned, format-matched read: served byte-for-byte from storage,
    # so the measured cost is locking + planning + page IO — the read
    # path this PR unblocks.
    spec = ReadSpec("hot", 0.0, duration, codec="h264", qp=10)

    # parallelism=1: per-read work is strictly serial, so any concurrent
    # scaling below comes from the reader-writer lock, not the executor.
    engine = VSSEngine(
        tmp_path / "store", calibration=calibration, parallelism=1
    )
    engine.session().write(
        "hot", clip, codec="h264", qp=10, gop_size=30
    )

    # Warm-up: first read plans (one plan-cache miss) and direct-serves.
    reference = engine.session().read(spec)
    assert reference.stats.direct_serve
    assert not reference.stats.plan_cached
    engine.drain_admissions()
    reference_bytes = _gop_bytes(reference.gops)

    # Instrument the planner: the measured phases must never invoke it.
    planner_calls: list[int] = []
    real_plan_read = engine_mod.plan_read
    monkeypatch.setattr(
        engine_mod,
        "plan_read",
        lambda *a, **k: planner_calls.append(1) or real_plan_read(*a, **k),
    )

    # -- serial baseline: one thread, R warm reads ----------------------
    session = engine.session()
    start = time.perf_counter()
    for _ in range(READS_PER_THREAD):
        result = session.read(spec)
        assert result.stats.plan_cached
    serial = READS_PER_THREAD / (time.perf_counter() - start)
    benchmark.pedantic(
        lambda: session.read(spec), rounds=1, iterations=1
    )

    # -- 4 concurrent readers, same video -------------------------------
    errors: list[BaseException] = []
    outputs: dict[int, list] = {}

    def worker(slot: int) -> None:
        try:
            mine = engine.session()
            last = None
            for _ in range(READS_PER_THREAD):
                last = mine.read(spec)
                assert last.stats.plan_cached
            outputs[slot] = _gop_bytes(last.gops)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(slot,))
        for slot in range(NUM_READERS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    aggregate = NUM_READERS * READS_PER_THREAD / elapsed

    assert not errors, f"concurrent readers failed: {errors!r}"
    assert planner_calls == []  # zero planner invocations while warm
    for payload in outputs.values():
        assert payload == reference_bytes  # bit-identical to serialized
    stats = engine.stats()
    engine.close()

    series = Series(
        "Hot-video warm-read throughput", "reader threads", "reads/s"
    )
    series.add(1, serial)
    series.add(NUM_READERS, aggregate)
    print_series(series)
    speedup = aggregate / serial if serial > 0 else float("inf")
    print(
        f"hot_video_contention: serial {serial:.2f} reads/s, "
        f"{NUM_READERS} readers {aggregate:.2f} reads/s aggregate "
        f"({speedup:.2f}x), plan cache {stats.plan_cache_hits} hits / "
        f"{stats.plan_cache_misses} misses, lock acquisitions "
        f"{stats.lock_shared_acquisitions} shared / "
        f"{stats.lock_exclusive_acquisitions} exclusive"
    )

    # Hardware-independent floors.  Warm direct-served reads are sub-ms,
    # so on a single core four threads pay pure context-switch overhead
    # with nothing to overlap — only a loose collapse guard applies
    # there; with real cores concurrency must hold serial throughput and
    # clearly beat it once four are available.
    cpus = os.cpu_count() or 1
    assert aggregate >= (0.8 if cpus >= 2 else 0.4) * serial
    if cpus >= 4:
        assert aggregate >= 1.5 * serial
