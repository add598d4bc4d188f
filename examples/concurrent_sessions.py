"""Concurrent sessions: the engine/session/spec API end to end.

Demonstrates the concurrency-first API (see docs/api.md):

* one thread-safe ``VSSEngine`` shared by several threads, each with its
  own cheap ``Session`` carrying per-caller defaults;
* ``session.read_batch`` — overlapping look-back reads planned jointly,
  with each shared GOP decoded exactly once;
* ``session.read_async`` — futures over the engine's session pool.

Run:  python examples/concurrent_sessions.py
"""

from __future__ import annotations

import tempfile
import threading
import time

from repro import ReadSpec, VSSEngine
from repro.synthetic import visualroad


def ingest(engine: VSSEngine, name: str, camera: int, dataset) -> None:
    """One producer thread: write a camera's clip under its own video."""
    session = engine.session(codec="h264", qp=10, gop_size=30)
    clip = dataset.video(camera=camera, start=0, stop=90)
    session.write(name, clip)
    print(f"[{name}] ingested {clip.num_frames} frames "
          f"({session.stats.writes} write, {session.stats.wall_seconds:.2f}s)")


def main() -> None:
    dataset = visualroad("1K", overlap=0.3, num_frames=90)

    with tempfile.TemporaryDirectory() as root:
        with VSSEngine(root) as engine:
            # 1. Concurrent ingest: two cameras, two threads, one engine.
            #    Per-logical locking means the writes never serialize on a
            #    store-wide lock.
            threads = [
                threading.Thread(
                    target=ingest, args=(engine, f"cam{i}", i, dataset)
                )
                for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            # 2. A consumer session with its own defaults and stats.
            session = engine.session(quality_db=35.0, cache=False)

            # 3. Batched overlapping look-back reads: eight 1-second
            #    windows sliding over the same GOPs.  The batch decodes
            #    each shared GOP once; compare the counters.
            base = ReadSpec("cam0", 0.5, 1.5, cache=False)
            specs = [
                base.replace(start=0.5 + 0.1 * i, end=1.5 + 0.1 * i)
                for i in range(8)
            ]
            start = time.perf_counter()
            for spec in specs:
                session.read(spec)
            sequential = time.perf_counter() - start

            start = time.perf_counter()
            results = session.read_batch(specs)
            batched = time.perf_counter() - start

            batch = session.stats.last_batch
            print(
                f"read_batch: {batch.num_reads} reads needed "
                f"{batch.window_requests} GOP windows -> decoded "
                f"{batch.gops_decoded} ({batch.gops_shared} shared); "
                f"sequential {sequential:.2f}s vs batch {batched:.2f}s "
                f"({sequential / batched:.1f}x)"
            )
            assert all(r.segment.num_frames > 0 for r in results)

            # 4. Async reads across videos: futures resolve concurrently.
            futures = [
                session.read_async(cam, 0.0, 1.0, codec="raw")
                for cam in ("cam0", "cam1")
            ]
            for cam, future in zip(("cam0", "cam1"), futures):
                print(f"[{cam}] async read -> "
                      f"{future.result().segment.num_frames} frames")

            # 5. One HOT video, many readers.  Per-logical locks are
            #    reader-writer locks, so these threads read "cam0"
            #    genuinely in parallel, and the repeated spec hits the
            #    versioned plan cache (plan_cached=True — no planner
            #    run, no fragment query).  Cache admission and periodic
            #    maintenance happen on a background queue *after* each
            #    read returns; engine.drain_admissions() (also implied
            #    by Session.close and engine.close) is the
            #    deterministic sync point.  See docs/api.md,
            #    "Concurrency model & read-path lifecycle".
            hot = ReadSpec("cam0", 0.0, 2.0, codec="h264", qp=10)
            session.read(hot)  # warm the plan cache

            def hot_reader() -> None:
                result = engine.session().read(hot)
                assert result.stats.plan_cached

            readers = [
                threading.Thread(target=hot_reader) for _ in range(4)
            ]
            for t in readers:
                t.start()
            for t in readers:
                t.join()
            engine.drain_admissions()
            stats = engine.stats()
            print(
                f"hot video: plan cache {stats.plan_cache_hits} hits / "
                f"{stats.plan_cache_misses} misses, locks "
                f"{stats.lock_shared_acquisitions} shared / "
                f"{stats.lock_exclusive_acquisitions} exclusive, "
                f"admissions {stats.admissions_completed} completed "
                f"({stats.admissions_coalesced} coalesced)"
            )

            # 6. Stats at each scope.
            print("engine :", engine.stats())
            print("cam0   :", engine.video_stats("cam0"))
            print("session:", session.stats)


if __name__ == "__main__":
    main()
