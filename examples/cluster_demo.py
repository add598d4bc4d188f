"""A three-shard cluster behind one router, in one process.

Demonstrates the cluster layer (see docs/api.md, "Cluster deployment"):

* three independent ``VSSBinaryServer`` shards, each over its own
  engine and store;
* a ``VSSRouter`` fronting them as a single endpoint speaking the
  unmodified binary and HTTP protocols — the clients below are the
  stock ``VSSBinaryClient``/``VSSClient``, pointed at the router;
* consistent-hash placement spreading videos across shards, with
  ``replication=2`` keeping every video on two of the three;
* a scatter-gather ``read_batch`` merged back in request order;
* routed streams: one closed after its first chunk, one drained with
  ``collect()`` and held against the one-shot read, and every shard's
  ``inflight`` gauge back at 0 afterwards;
* a shard killed mid-demo: replicated reads fail over to the survivor
  while the router's ``/metrics`` reports the shard down.

Run:  python examples/cluster_demo.py
"""

from __future__ import annotations

import tempfile
import time

import numpy as np

from repro import ReadSpec, VSSBinaryClient, VSSBinaryServer, VSSClient, VSSEngine
from repro.cluster import VSSRouter
from repro.synthetic import visualroad


def main() -> None:
    dataset = visualroad("1K", overlap=0.3, num_frames=90)
    clip = dataset.video(camera=0, start=0, stop=90)

    with tempfile.TemporaryDirectory() as root:
        # Three shards: independent engines, independent stores.
        engines = [VSSEngine(f"{root}/shard{i}") for i in range(3)]
        servers = [VSSBinaryServer(engine=e).start() for e in engines]
        addrs = [f"{s.address[0]}:{s.address[1]}" for s in servers]
        print(f"shards: {addrs}")

        router = VSSRouter(addrs, replication=2).start()
        print(f"router: {router.url} (binary), {router.http_url} (HTTP)")

        # Stock clients, unchanged: they think this is one server.
        client = VSSBinaryClient(*router.address, codec="h264", qp=10)
        for i in range(4):
            client.create(f"cam{i}")
            client.write(f"cam{i}", clip)

        ring = router.engine.ring
        for i in range(4):
            print(f"cam{i}: replicas {ring.replicas(f'cam{i}')}")
        per_shard = [len(e.list_videos()) for e in engines]
        print(f"videos per shard (replication=2): {per_shard}")
        assert sum(per_shard) == 8, "4 videos x 2 replicas"

        # Scatter-gather: one batch, several shards, request order kept.
        specs = [
            ReadSpec(f"cam{i}", 0.0, 1.0, codec="raw", cache=False)
            for i in range(4)
        ]
        results = client.read_batch(specs)
        print(f"read_batch: {[r.segment.num_frames for r in results]} "
              f"frames per result, stats merged: "
              f"{client.stats.last_batch}")

        # HTTP works against the same router, bit-identically.
        http = VSSClient(*router.http_address)
        direct = client.read(specs[0])
        via_http = http.read(specs[0])
        assert np.array_equal(
            direct.segment.pixels, via_http.segment.pixels
        ), "transports diverged"
        print("HTTP read through the router is bit-identical to binary")

        # Streams through the router: one closed after its first chunk,
        # one drained with collect(), which must equal the one-shot read.
        whole = ReadSpec("cam1", 0.0, 3.0, codec="raw", cache=False)
        with client.read_stream(whole) as stream:
            first = next(stream)
        streamed = client.read_stream(whole).collect()
        assert first.segment.num_frames < 90 and np.array_equal(
            streamed.segment.pixels, client.read(whole).segment.pixels
        ), "routed stream diverged from the routed read"
        # Every stream, closed or drained, gives its shard slot back.
        deadline = time.monotonic() + 5.0
        while any(
            s["inflight"] for s in client.metrics()["engine"]["shards"].values()
        ):
            assert time.monotonic() < deadline, "a shard slot was not released"
            time.sleep(0.05)
        print("routed streams: closed after one chunk, drained == read; "
              "every shard back at 0 inflight")

        # Kill a shard. Every video kept a second copy, so reads
        # fail over; /metrics shows the shard down.
        victim = addrs[0]
        servers[0].close()
        router.health.check_now()
        survivors = client.read_batch(specs)
        assert all(r.segment is not None for r in survivors)
        cluster_stats = client.metrics()["engine"]
        down = [
            name
            for name, s in cluster_stats["shards"].items()
            if not s["up"]
        ]
        print(f"killed {victim}; reads survived via replicas; "
              f"metrics reports down: {down}, "
              f"failovers={cluster_stats['router']['failovers']}")
        assert down == [victim]

        http.close()
        client.close()
        router.close()
        for server in servers[1:]:
            server.close()
        for engine in engines:
            engine.close()
    print("cluster demo OK")


if __name__ == "__main__":
    main()
