"""Cluster scale-out: aggregate read throughput, 1 shard vs 2 shards.

Set ``VSS_BENCH_QUICK=1`` for the CI smoke configuration (shorter clip
and fewer reads; the hardware-independent assertions keep running).

The acceptance question for the cluster layer is whether the router
actually buys capacity: with videos placed on **disjoint** shards, a
fleet of streaming readers through one router over two shards must beat
the identical workload through a router over one shard — the router
must scatter, not serialize.

Setup keeps the comparison honest:

* every shard engine runs ``parallelism=1`` and no decode cache, so a
  shard contributes exactly one core of decode throughput and repeated
  windows cannot be served for free;
* both configurations are measured **through a router** (same
  proxy/framing overhead on both sides of the ratio — the variable is
  the shard count, nothing else);
* the two videos are chosen by the ring so the 2-shard configuration
  places one on each shard (the 1-shard configuration necessarily
  serves both from its only shard);
* reads are ``codec="raw"`` streams, so shard-side decode dominates and
  the router only relays pixels.

With two decode cores against one, the 2-shard aggregate must reach at
least 1.5x the 1-shard aggregate on a multi-core machine (the PR 7
acceptance criterion); on any machine adding a shard must never *lose*
throughput.
"""

from __future__ import annotations

import itertools
import os
import threading
import time

from repro.bench.harness import Series, print_series
from repro.client import VSSBinaryClient
from repro.cluster import VSSRouter
from repro.core.engine import VSSEngine
from repro.core.specs import ReadSpec
from repro.server import VSSBinaryServer

QUICK = os.environ.get("VSS_BENCH_QUICK", "") not in ("", "0")
READS_PER_CLIENT = 4 if QUICK else 10
CLIP_FRAMES = 60 if QUICK else 150  # at 30 fps
READ_SECONDS = 0.5


def _windows(duration: float) -> list[tuple[float, float]]:
    """Distinct half-second windows cycling through the clip."""
    spans = []
    for i in range(READS_PER_CLIENT):
        start = (i * 0.7) % max(duration - READ_SECONDS, READ_SECONDS)
        spans.append((round(start, 2), round(start + READ_SECONDS, 2)))
    return spans


def _shard_engine(path, calibration) -> VSSEngine:
    return VSSEngine(
        path, calibration=calibration, parallelism=1, decode_cache_bytes=0
    )


def _disjoint_names(ring) -> list[str]:
    """One video name homed on each shard of the ring."""
    names: list[str] = []
    for target in ring.shards:
        for i in itertools.count():
            candidate = f"cam{i}"
            if candidate not in names and ring.primary(candidate) == target:
                names.append(candidate)
                break
    return names


def _ingest(router, names, clip) -> None:
    with VSSBinaryClient(*router.address, timeout=300.0) as client:
        for name in names:
            client.create(name)
            client.write(name, clip, codec="h264", qp=10, gop_size=30)


def _measure(router, names, windows) -> float:
    """Aggregate reads/s: one streaming client thread per video."""
    errors: list[BaseException] = []

    def worker(name: str) -> None:
        try:
            client = VSSBinaryClient(*router.address, timeout=300.0)
            try:
                for start_t, end_t in windows:
                    result = client.read(
                        ReadSpec(
                            name, start_t, end_t, codec="raw", cache=False
                        )
                    )
                    assert result.segment is not None
            finally:
                client.close()
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(name,)) for name in names
    ]
    begin = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - begin
    assert not errors, f"cluster clients failed: {errors!r}"
    return len(names) * len(windows) / elapsed


def test_cluster_scaling(tmp_path, calibration, vroad_clip):
    clip = vroad_clip.slice_frames(0, CLIP_FRAMES)
    windows = _windows(clip.duration)

    # --- two shards, disjoint placement -----------------------------
    engines2 = [
        _shard_engine(tmp_path / f"two-{i}", calibration) for i in range(2)
    ]
    servers2 = [VSSBinaryServer(engine=e).start() for e in engines2]
    addrs2 = [f"{s.address[0]}:{s.address[1]}" for s in servers2]
    router2 = VSSRouter(addrs2, shard_timeout=300.0).start()
    try:
        names = _disjoint_names(router2.engine.ring)
        _ingest(router2, names, clip)
        placed = [len(e.list_videos()) for e in engines2]
        assert placed == [1, 1], f"expected disjoint placement, got {placed}"
        two_shards = _measure(router2, names, windows)
    finally:
        router2.close()
        for server in servers2:
            server.close()
        for engine in engines2:
            engine.close()

    # --- one shard, same workload, same router overhead -------------
    engine1 = _shard_engine(tmp_path / "one", calibration)
    server1 = VSSBinaryServer(engine=engine1).start()
    router1 = VSSRouter(
        [f"{server1.address[0]}:{server1.address[1]}"], shard_timeout=300.0
    ).start()
    try:
        _ingest(router1, names, clip)
        one_shard = _measure(router1, names, windows)
    finally:
        router1.close()
        server1.close()
        engine1.close()

    speedup = two_shards / one_shard
    series = Series("Cluster read scaling", "shards", "reads/s")
    series.add(1, one_shard)
    series.add(2, two_shards)
    print_series(series)
    print(
        f"cluster_scaling: 1 shard {one_shard:.2f} reads/s, "
        f"2 shards {two_shards:.2f} reads/s aggregate "
        f"({speedup:.2f}x)"
    )

    # Hardware-independent: adding a shard never costs throughput.
    assert two_shards >= 0.8 * one_shard
    if (os.cpu_count() or 1) >= 2:
        # Two decode cores against one: the scatter must actually pay
        # (the PR 7 acceptance criterion).
        assert speedup >= 1.5
