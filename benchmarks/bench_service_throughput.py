"""Service throughput: concurrent clients through the HTTP/binary servers.

Set ``VSS_BENCH_QUICK=1`` for the CI smoke configuration (shorter clips
and fewer reads; the hardware-independent assertions keep running).

The acceptance question for the service layer is whether the network
front saturates the engine rather than becoming the bottleneck.  Two
tests over one store holding one video per client (distinct videos, so
per-logical locks never serialize the workload):

``test_service_throughput`` measures the HTTP server three ways:

* **in-process** — one session issuing the read workload sequentially:
  the engine's own sequential throughput, no network.
* **1 remote client** — the same workload through the server: measures
  per-request HTTP overhead (connection, request parsing, chunking).
* **4 concurrent remote clients** — one thread per client, each
  hammering its own video.  The engine runs with ``parallelism=1`` so
  concurrency comes only from the server's thread-per-request model;
  on a multi-core machine the aggregate must clearly beat one remote
  client (the server, not the client protocol, is doing the scaling),
  and on any machine concurrency must not *lose* throughput.

``test_binary_vs_http_throughput`` races the two transports head to
head on a **direct-served** workload (reads answered from stored GOP
bytes, no decode on either side), so nearly all of each request is
transport cost: connection setup, request parsing, thread spawn.  Four
concurrent streaming clients per transport against the same engine;
both rates are printed, and what is asserted is the part that does not
depend on the host: the two transports carry the same frames, so their
answers for the same windows are byte-identical.

Every request must be served (no 429s/busy): the default admission
window is wider than the client fleet, so backpressure never rejects
this load.
"""

from __future__ import annotations

import os
import threading
import time

from repro.bench.harness import Series, print_series
from repro.client import VSSBinaryClient, VSSClient
from repro.core.engine import VSSEngine
from repro.core.specs import ReadSpec
from repro.server import VSSBinaryServer, VSSServer
from repro.video.codec.container import encode_container

QUICK = os.environ.get("VSS_BENCH_QUICK", "") not in ("", "0")
NUM_CLIENTS = 4
READS_PER_CLIENT = 4 if QUICK else 10
CLIP_FRAMES = 60 if QUICK else 150  # at 30 fps
READ_SECONDS = 0.5


def _workload(duration: float) -> list[tuple[float, float]]:
    """Distinct half-second windows cycling through the clip."""
    windows = []
    for i in range(READS_PER_CLIENT):
        start = (i * 0.7) % max(duration - READ_SECONDS, READ_SECONDS)
        windows.append((round(start, 2), round(start + READ_SECONDS, 2)))
    return windows


def _drive_client(client_read, name: str, windows) -> None:
    for start, end in windows:
        client_read(
            ReadSpec(name, start, end, codec="raw", cache=False)
        )


def test_service_throughput(tmp_path, calibration, vroad_clip, benchmark):
    clip = vroad_clip.slice_frames(0, CLIP_FRAMES)
    windows = _workload(clip.duration)
    names = [f"cam{i}" for i in range(NUM_CLIENTS)]

    # parallelism=1: each read is serial, so any scaling measured below
    # is the server's thread-per-request concurrency, not the executor.
    engine = VSSEngine(
        tmp_path / "store",
        calibration=calibration,
        parallelism=1,
        decode_cache_bytes=0,
    )
    ingest = engine.session()
    for name in names:
        ingest.write(name, clip, codec="h264", qp=10, gop_size=30)

    with VSSServer(engine=engine) as server:
        host, port = server.address

        # in-process sequential baseline
        session = engine.session()
        start = time.perf_counter()
        _drive_client(session.read, names[0], windows)
        inprocess = READS_PER_CLIENT / (time.perf_counter() - start)

        # one remote client, sequential
        solo = VSSClient(host, port, timeout=120.0)
        start = time.perf_counter()
        _drive_client(solo.read, names[0], windows)
        single_remote = READS_PER_CLIENT / (time.perf_counter() - start)
        benchmark.pedantic(
            _drive_client,
            args=(solo.read, names[0], windows),
            rounds=1,
            iterations=1,
        )

        # NUM_CLIENTS concurrent remote clients, one video each
        errors: list[BaseException] = []

        def worker(name: str) -> None:
            try:
                client = VSSClient(host, port, timeout=120.0)
                _drive_client(client.read, name, windows)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(name,)) for name in names
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        aggregate = NUM_CLIENTS * READS_PER_CLIENT / elapsed

        assert not errors, f"concurrent clients failed: {errors!r}"
        rejected = solo.metrics()["server"]["rejected"]

    engine.close()

    series = Series(
        "Service read throughput", "configuration", "reads/s"
    )
    series.add(0, inprocess)      # 0 = in-process sequential
    series.add(1, single_remote)  # 1 = one remote client
    series.add(NUM_CLIENTS, aggregate)
    print_series(series)
    print(
        f"service_throughput: in-process {inprocess:.2f} reads/s, "
        f"1 client {single_remote:.2f} reads/s, "
        f"{NUM_CLIENTS} clients {aggregate:.2f} reads/s aggregate "
        f"({aggregate / single_remote:.2f}x vs one client, "
        f"{aggregate / inprocess:.2f}x vs in-process), "
        f"rejected={rejected}"
    )

    # Hardware-independent: admission never rejected this load, and
    # concurrency never collapses throughput (the generous floor keeps
    # single-core CI noise from flaking the smoke run).
    assert rejected == 0
    assert aggregate >= 0.6 * single_remote
    if (os.cpu_count() or 1) >= 4:
        # Four cores available: concurrent clients must saturate the
        # engine well past what one client achieves through the server.
        assert aggregate >= 1.3 * single_remote


DIRECT_READS_PER_CLIENT = 10 if QUICK else 25


def _run_fleet(make_client, names, windows, spec_kwargs) -> float:
    """Aggregate reads/s for one thread per name, each on its own client."""
    errors: list[BaseException] = []

    def worker(name: str) -> None:
        try:
            client = make_client()
            try:
                for start_t, end_t in windows:
                    client.read(ReadSpec(name, start_t, end_t, **spec_kwargs))
            finally:
                client.close()
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(name,)) for name in names
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    assert not errors, f"concurrent clients failed: {errors!r}"
    return len(names) * len(windows) / elapsed


def test_binary_vs_http_throughput(
    tmp_path, calibration, vroad_clip, benchmark
):
    clip = vroad_clip.slice_frames(0, CLIP_FRAMES)
    names = [f"cam{i}" for i in range(NUM_CLIENTS)]
    # GOP-aligned half-second windows cycling through the clip (the
    # store is written with 15-frame GOPs at 30 fps): reading back the
    # stored encoding on GOP boundaries direct-serves the stored bytes
    # — no decode anywhere, so the measurement is transport, not codec.
    # Fine-grained requests amplify the per-request transport cost the
    # two paths differ on: HTTP pays connection setup, thread spawn and
    # request parsing on every read; binary reuses a pooled connection.
    # The frames themselves are the same on both.
    half_windows = max(int(clip.duration / 0.5), 1)
    windows = []
    for i in range(DIRECT_READS_PER_CLIENT):
        start = 0.5 * (i % half_windows)
        windows.append((start, start + 0.5))
    spec_kwargs = {"codec": "h264", "qp": 10, "cache": False}

    engine = VSSEngine(
        tmp_path / "store",
        calibration=calibration,
        parallelism=1,
        decode_cache_bytes=0,
    )
    ingest = engine.session()
    for name in names:
        ingest.write(name, clip, codec="h264", qp=10, gop_size=15)
    probe = engine.session().read(
        ReadSpec(names[0], *windows[0], **spec_kwargs)
    )
    assert probe.stats.direct_serve, "workload must be transport-bound"

    with VSSServer(engine=engine) as http_server, VSSBinaryServer(
        engine=engine
    ) as binary_server:
        http_host, http_port = http_server.address
        bin_host, bin_port = binary_server.address

        def http_client():
            return VSSClient(http_host, http_port, timeout=120.0)

        def binary_client():
            return VSSBinaryClient(bin_host, bin_port, timeout=120.0)

        # Interleave two rounds of each to cancel warm-up effects (the
        # first round pays page-cache and allocator warm-up for both).
        http_aggregate = max(
            _run_fleet(http_client, names, windows, spec_kwargs)
            for _ in range(2)
        )
        binary_aggregate = max(
            _run_fleet(binary_client, names, windows, spec_kwargs)
            for _ in range(2)
        )
        benchmark.pedantic(
            _run_fleet,
            args=(binary_client, names, windows, spec_kwargs),
            rounds=1,
            iterations=1,
        )
        with http_client() as over_http, binary_client() as over_binary:
            rejected_http = over_http.metrics()["server"]["rejected"]
            rejected_binary = over_binary.metrics()["server"]["rejected"]
            # Same windows, same stored bytes, whichever wire carried them.
            for window in sorted(set(windows)):
                spec = ReadSpec(names[0], *window, **spec_kwargs)
                answers = [
                    b"".join(encode_container(g) for g in client.read(spec).gops)
                    for client in (over_http, over_binary)
                ]
                assert answers[0] == answers[1], f"transports differ at {window}"

    engine.close()

    speedup = binary_aggregate / http_aggregate
    series = Series(
        "Binary vs HTTP direct-serve throughput", "transport", "reads/s"
    )
    series.add(0, http_aggregate)    # 0 = HTTP
    series.add(1, binary_aggregate)  # 1 = binary
    print_series(series)
    print(
        f"binary_vs_http: HTTP {http_aggregate:.1f} reads/s, "
        f"binary {binary_aggregate:.1f} reads/s aggregate over "
        f"{NUM_CLIENTS} concurrent clients ({speedup:.2f}x), "
        f"rejected http={rejected_http} binary={rejected_binary}"
    )

    assert rejected_http == 0 and rejected_binary == 0
