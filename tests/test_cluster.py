"""Cluster layer: ring placement, routing, replication, failover.

The routing tests run a real in-process fleet — N binary shard servers,
each over its own engine/store, fronted by a :class:`VSSRouter` — and
talk to the router through the unmodified public clients, asserting the
cluster answers bit-identically to a direct single-server deployment.
"""

from __future__ import annotations

import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import VSSBinaryClient, VSSClient
from repro.cluster import (
    HealthChecker,
    ShardRing,
    VSSRouter,
    binary_ping,
    http_healthz,
    parse_shard,
)
from repro.cluster.router import _Shard
from repro.core.engine import VSSEngine
from repro.core.specs import ReadSpec, ViewSpec
from repro.errors import (
    ServerBusyError,
    ShardUnavailableError,
    VideoNotFoundError,
    WireError,
)
from repro.server.binary import VSSBinaryServer

# ----------------------------------------------------------------------
# ring placement
# ----------------------------------------------------------------------
_SHARD_LISTS = st.lists(
    st.sampled_from([f"10.0.0.{i}:8721" for i in range(8)]),
    min_size=2,
    max_size=6,
    unique=True,
)
_NAMES = [f"video-{i}" for i in range(300)]


class TestShardRing:
    def test_rejects_bad_configs(self):
        with pytest.raises(ValueError):
            ShardRing([])
        with pytest.raises(ValueError):
            ShardRing(["a:1", "a:1"])
        with pytest.raises(ValueError):
            ShardRing(["a:1"], replication=0)

    @given(shards=_SHARD_LISTS)
    @settings(max_examples=50, deadline=None)
    def test_placement_is_deterministic_and_order_free(self, shards):
        """Same shard *set* -> same placement, in any process, any order."""
        ring_a = ShardRing(shards, replication=2)
        ring_b = ShardRing(list(reversed(shards)), replication=2)
        for name in _NAMES[:50]:
            assert ring_a.replicas(name) == ring_b.replicas(name)

    @given(shards=_SHARD_LISTS, name=st.sampled_from(_NAMES))
    @settings(max_examples=100, deadline=None)
    def test_replicas_are_distinct_and_prefix_nested(self, shards, name):
        ring = ShardRing(shards)
        full = ring.replicas(name, len(shards))
        assert len(set(full)) == len(full) == len(shards)
        for r in range(1, len(shards) + 1):
            assert ring.replicas(name, r) == full[:r]
        assert ring.primary(name) == full[0]

    @given(shards=_SHARD_LISTS)
    @settings(max_examples=30, deadline=None)
    def test_adding_a_shard_moves_names_only_onto_it(self, shards):
        """The consistent-hashing contract, exactly: every name whose
        primary changes when a shard joins must land *on* the joiner,
        and only a ~K/N fraction moves at all."""
        joiner = "10.9.9.9:8721"
        before = ShardRing(shards)
        after = ShardRing(shards + [joiner])
        moved = [
            name
            for name in _NAMES
            if before.primary(name) != after.primary(name)
        ]
        for name in moved:
            assert after.primary(name) == joiner
        # Expected fraction is 1/(N+1); 3x is a generous determinism-
        # safe bound that still rules out rehash-everything schemes.
        assert len(moved) <= 3 * len(_NAMES) // len(after.shards)

    @given(shards=_SHARD_LISTS)
    @settings(max_examples=30, deadline=None)
    def test_removing_a_shard_moves_only_its_names(self, shards):
        victim = shards[0]
        before = ShardRing(shards)
        survivors = [s for s in shards if s != victim]
        if not survivors:
            return
        after = ShardRing(survivors)
        for name in _NAMES:
            if before.primary(name) != victim:
                assert after.primary(name) == before.primary(name)

    def test_replication_overrides_and_clamping(self):
        ring = ShardRing(
            ["a:1", "b:1", "c:1"],
            replication=1,
            replication_overrides={"hot": 2, "hottest": 99},
        )
        assert ring.replication_for("cold") == 1
        assert ring.replication_for("hot") == 2
        assert ring.replication_for("hottest") == 3  # clamped to fleet
        assert len(ring.replicas("hot")) == 2

    def test_parse_shard(self):
        assert parse_shard("127.0.0.1:8721") == ("127.0.0.1", 8721)
        assert parse_shard(("h", 9)) == ("h", 9)
        with pytest.raises(ValueError):
            parse_shard("no-port")


# ----------------------------------------------------------------------
# fleet fixtures
# ----------------------------------------------------------------------
class Fleet:
    """N in-process binary shard servers over independent stores."""

    def __init__(self, root, calibration, n: int):
        self.engines = [
            VSSEngine(root / f"shard{i}", calibration=calibration)
            for i in range(n)
        ]
        self.servers = [
            VSSBinaryServer(engine=engine).start() for engine in self.engines
        ]

    @property
    def addrs(self) -> list[str]:
        return [f"{s.address[0]}:{s.address[1]}" for s in self.servers]

    def kill(self, addr: str) -> None:
        """Hard-stop the shard serving ``addr`` (store stays intact)."""
        self.servers[self.addrs.index(addr)].close()

    def close(self) -> None:
        for server in self.servers:
            server.close()
        for engine in self.engines:
            engine.close()


@pytest.fixture()
def fleet(tmp_path, calibration) -> Fleet:
    f = Fleet(tmp_path, calibration, 3)
    yield f
    f.close()


@pytest.fixture()
def router(fleet) -> VSSRouter:
    r = VSSRouter(fleet.addrs, probe_interval=30.0).start()
    yield r
    r.close()


def _load(client, name: str, clip) -> None:
    client.create(name)
    client.write(name, clip, codec="h264", qp=10, gop_size=24)


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------
class TestRouting:
    def test_routed_reads_bit_identical_both_transports(
        self, router, fleet, tmp_path, calibration, tiny_clip
    ):
        """local engine == direct single server == routed, byte for byte."""
        spec = ReadSpec("cam", 0.1, 0.7, codec="raw", cache=False)
        local = VSSEngine(tmp_path / "single", calibration=calibration)
        try:
            local.create("cam")
            local.session().write(
                "cam", tiny_clip, codec="h264", qp=10, gop_size=24
            )
            with VSSBinaryServer(engine=local) as direct_server:
                with VSSBinaryClient(*direct_server.address) as direct:
                    direct_pixels = direct.read(spec).segment.pixels
            local_pixels = local.session().read(spec).segment.pixels
        finally:
            local.close()
        assert np.array_equal(local_pixels, direct_pixels)

        with VSSBinaryClient(*router.address) as binary:
            _load(binary, "cam", tiny_clip)
            routed_binary = binary.read(spec).segment.pixels
        with VSSClient(*router.http_address) as http:
            routed_http = http.read(spec).segment.pixels
        assert np.array_equal(direct_pixels, routed_binary)
        assert np.array_equal(direct_pixels, routed_http)

    def test_videos_spread_across_shards(self, router, fleet, tiny_clip):
        with VSSBinaryClient(*router.address) as client:
            for i in range(6):
                _load(client, f"cam{i}", tiny_clip)
            assert client.list_videos() == [f"cam{i}" for i in range(6)]
        populated = sum(
            1 for engine in fleet.engines if engine.list_videos()
        )
        assert populated >= 2  # placement actually scattered
        total = sum(len(e.list_videos()) for e in fleet.engines)
        assert total == 6  # replication=1: exactly one copy each

    def test_check_fails_typed_when_a_shard_is_missing(
        self, router, fleet, tiny_clip
    ):
        """A listing degrades to the live shards; the ``check`` audit
        does not, since a skipped shard's files would read as clean: a
        shard dying mid-scatter, or one already down, fails it typed."""
        victim = fleet.addrs[0]
        with VSSBinaryClient(*router.address) as client:
            _load(client, "cam", tiny_clip)
            assert client.check() == {
                "orphans": [], "dangling": [], "mismatched": []
            }
            fleet.kill(victim)
            with pytest.raises(ShardUnavailableError, match="died") as info:
                client.check()
            assert victim in str(info.value)
            assert not router.engine._by_name[victim].up
            with pytest.raises(ShardUnavailableError, match="down") as info:
                client.check()
            assert victim in str(info.value)
            assert isinstance(client.list_videos(), list)

    def test_read_batch_scatter_gathers_in_request_order(
        self, router, tiny_clip
    ):
        with VSSBinaryClient(*router.address) as client:
            for i in range(4):
                _load(client, f"cam{i}", tiny_clip)
            # Interleave names so shard sub-batches are non-contiguous.
            names = ["cam0", "cam3", "cam1", "cam0", "cam2", "cam3"]
            specs = [
                ReadSpec(n, 0.0, 0.3 + 0.08 * i, codec="raw", cache=False)
                for i, n in enumerate(names)
            ]
            results = client.read_batch(specs)
            assert len(results) == len(specs)
            for spec, result in zip(specs, results):
                expect = client.read(spec).segment.pixels
                assert np.array_equal(result.segment.pixels, expect)
            assert client.stats.last_batch.num_reads == len(specs)

    def test_concurrent_batches_to_one_shard_keep_their_own_stats(
        self, tmp_path, calibration, tiny_clip
    ):
        """Four callers batch through a one-shard router at once: each
        gets its own answer and its own BatchStats back, and the shard
        serves their sub-batches side by side, not one at a time."""
        fleet = Fleet(tmp_path, calibration, 1)
        router = VSSRouter(fleet.addrs, probe_interval=30.0).start()
        try:
            with VSSBinaryClient(*router.address) as loader:
                _load(loader, "cam", tiny_clip)
            spec_lists = [
                [
                    ReadSpec("cam", 0.04 * i, 0.3 + 0.05 * (n + i),
                             codec="raw", cache=False)
                    for i in range(n)
                ]
                for n in (1, 2, 3, 5)
            ]
            barrier = threading.Barrier(len(spec_lists))

            def caller(specs):
                with VSSBinaryClient(*router.address) as client:
                    barrier.wait()
                    answers = []
                    for _ in range(3):
                        answers.append(client.read_batch(specs))
                        assert client.stats.last_batch.num_reads == len(specs)
                    return answers

            with ThreadPoolExecutor(max_workers=len(spec_lists)) as pool:
                outcomes = list(pool.map(caller, spec_lists))
            assert fleet.servers[0].gauges.peak_inflight >= 2
            engine = fleet.engines[0]
            for specs, answers in zip(spec_lists, outcomes):
                direct = [engine.read(s).segment.pixels for s in specs]
                for results in answers:
                    assert len(results) == len(specs)
                    for result, pixels in zip(results, direct):
                        assert np.array_equal(result.segment.pixels, pixels)
        finally:
            router.close()
            fleet.close()

    def test_views_route_to_their_base_shard(self, router, fleet, tiny_clip):
        with VSSBinaryClient(*router.address) as client:
            _load(client, "base", tiny_clip)
            client.create_view("half", ViewSpec(over="base", end=0.4))
            client.create_view("quarter", ViewSpec(over="half", end=0.2))
            assert [v.name for v in client.list_views()] == [
                "half", "quarter",
            ]
            # The nested view's chain resolves to base's shard.
            assert router.engine._root_of("quarter") == "base"
            read = client.read("quarter", 0.0, 0.2, codec="raw")
            direct = client.read("base", 0.0, 0.2, codec="raw")
            assert np.array_equal(
                read.segment.pixels, direct.segment.pixels
            )
            client.delete("quarter")
            assert [v.name for v in client.list_views()] == ["half"]

    def test_catalog_roundtrip_and_errors(self, router, tiny_clip):
        with VSSClient(*router.http_address) as client:
            assert not client.exists("ghost")
            with pytest.raises(VideoNotFoundError):
                client.video_stats("ghost")
            _load(client, "cam", tiny_clip)
            assert client.exists("cam")
            stats = client.video_stats("cam")
            assert stats.name == "cam" and stats.num_gops >= 1
            client.delete("cam")
            assert not client.exists("cam")

    def test_metrics_aggregates_per_shard(self, router, fleet, tiny_clip):
        with VSSBinaryClient(*router.address) as client:
            _load(client, "cam", tiny_clip)
            client.read("cam", 0.0, 0.5, codec="raw")
            doc = client.metrics()["engine"]
        assert doc["cluster"] is True
        assert doc["shards_up"] == 3 and doc["shards_down"] == 0
        assert set(doc["shards"]) == set(fleet.addrs)
        for shard_doc in doc["shards"].values():
            assert shard_doc["up"] is True
            assert "server" in shard_doc  # the shard's own gauges
        assert doc["router"]["reads_routed"] == 1
        assert doc["router"]["writes_routed"] == 1

    def test_metrics_sum_the_decode_cache_across_shards(
        self, router, fleet, tiny_clip
    ):
        # Two half-resolution reads of the one GOP: the second keeps the
        # GOP at that size beside its decode, and the roll-up sums both
        # gauges and the counters over the shards.
        with VSSBinaryClient(*router.address) as client:
            _load(client, "cam", tiny_clip)
            for _ in range(2):
                client.read(
                    "cam", 0.0, 0.8, codec="raw", resolution=(32, 18),
                    cache=False,
                )
            doc = client.metrics()["engine"]
        rolled = doc["decode_cache"]
        engines = [engine.stats() for engine in fleet.engines]
        for key in (
            "decode_cache_hits", "decode_cache_misses",
            "decode_cache_evictions", "decode_cache_bytes",
            "decode_cache_resized_bytes",
        ):
            assert rolled[key] == sum(getattr(s, key) for s in engines), key
        assert rolled["decode_cache_resized_bytes"] == 24 * 18 * 32 * 3
        assert rolled["decode_cache_bytes"] == 24 * 36 * 64 * 3 + (
            rolled["decode_cache_resized_bytes"]
        )
        assert (rolled["decode_cache_hits"], rolled["decode_cache_misses"]) == (
            1, 1,
        )


class TestLiveness:
    def test_router_and_shards_answer_both_probes(self, router, fleet):
        for addr in fleet.addrs + [f"{router.address[0]}:{router.address[1]}"]:
            host, port = parse_shard(addr)
            assert binary_ping(host, port)
        assert http_healthz(*router.http_address)
        with VSSBinaryClient(*router.address) as client:
            assert client.ping()

    def test_healthz_does_no_engine_work(self, router):
        conn = socket.create_connection(router.http_address, timeout=5.0)
        try:
            conn.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            reply = b""
            while b'"ok"' not in reply and len(reply) < 4096:
                piece = conn.recv(4096)
                if not piece:
                    break
                reply += piece
        finally:
            conn.close()
        assert b"200" in reply.split(b"\r\n", 1)[0]
        assert b'"ok"' in reply

    def test_probes_report_dead_endpoints(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        host, port = sock.getsockname()
        sock.close()  # nothing listens here any more
        assert not binary_ping(host, port, timeout=0.5)
        assert not http_healthz(host, port, timeout=0.5)

    def test_health_checker_marks_down_and_recovers(
        self, tmp_path, calibration
    ):
        fleet = Fleet(tmp_path, calibration, 1)
        shard = _Shard(*fleet.servers[0].address, timeout=5.0)
        checker = HealthChecker([shard], timeout=1.0, retries=0)
        try:
            checker.check_now()
            assert shard.up
            # The request path marked it down; a probe brings it back.
            shard.mark_down("simulated request failure")
            checker.check_now()
            assert shard.up and shard.times_down == 1
            fleet.kill(fleet.addrs[0])
            checker.check_now()
            assert not shard.up
        finally:
            shard.close()
            fleet.close()


# ----------------------------------------------------------------------
# replication and failover
# ----------------------------------------------------------------------
class TestReplicationFailover:
    @pytest.fixture()
    def replicated(self, fleet):
        r = VSSRouter(fleet.addrs, replication=2, probe_interval=30.0).start()
        yield r
        r.close()

    def test_writes_land_on_every_replica(self, replicated, fleet, tiny_clip):
        with VSSBinaryClient(*replicated.address) as client:
            _load(client, "hot", tiny_clip)
        holders = [
            e for e in fleet.engines if "hot" in e.list_videos()
        ]
        assert len(holders) == 2
        expected = set(replicated.engine.ring.replicas("hot"))
        actual = {
            fleet.addrs[fleet.engines.index(e)] for e in holders
        }
        assert actual == expected

    def test_replicated_read_survives_primary_death(
        self, replicated, fleet, tiny_clip
    ):
        with VSSBinaryClient(*replicated.address) as client:
            _load(client, "hot", tiny_clip)
            before = client.read("hot", 0.0, 0.6, codec="raw")
            primary = replicated.engine.ring.primary("hot")
            fleet.kill(primary)
            after = client.read("hot", 0.0, 0.6, codec="raw")
            assert np.array_equal(
                before.segment.pixels, after.segment.pixels
            )
            doc = client.metrics()["engine"]
        assert doc["shards"][primary]["up"] is False
        assert doc["shards_down"] == 1
        assert doc["router"]["failovers"] >= 1

    def test_unreplicated_read_fails_typed_not_hung(
        self, replicated, fleet, tiny_clip
    ):
        # Place a single-copy video, then kill its only holder.
        replicated.engine.ring.replication_overrides["cold"] = 1
        with VSSBinaryClient(*replicated.address) as client:
            _load(client, "cold", tiny_clip)
            owner = replicated.engine.ring.primary("cold")
            fleet.kill(owner)
            begin = time.monotonic()
            with pytest.raises(ShardUnavailableError) as info:
                client.read("cold", 0.0, 0.5, codec="raw")
            assert time.monotonic() - begin < 10.0  # typed, not a hang
        assert owner in str(info.value)

    def test_batch_fails_over_to_surviving_replica(
        self, replicated, fleet, tiny_clip
    ):
        with VSSBinaryClient(*replicated.address) as client:
            for name in ("hot-a", "hot-b"):
                _load(client, name, tiny_clip)
            fleet.kill(replicated.engine.ring.primary("hot-a"))
            specs = [
                ReadSpec(n, 0.0, 0.5, codec="raw", cache=False)
                for n in ("hot-a", "hot-b", "hot-a")
            ]
            results = client.read_batch(specs)
            assert len(results) == 3
            assert np.array_equal(
                results[0].segment.pixels, results[2].segment.pixels
            )

    def test_batch_group_splits_when_survivors_differ(
        self, replicated, fleet, tiny_clip
    ):
        """Two videos share a primary but not a second replica: when the
        primary dies under their one sub-batch, the group is grouped
        again and each half is answered by its own survivor."""
        ring = replicated.engine.ring
        by_primary: dict[str, dict[str, str]] = {}
        for i in range(1000):
            primary, second = ring.replicas(f"cam{i}")
            by_primary.setdefault(primary, {}).setdefault(second, f"cam{i}")
        primary, seconds = next(
            (p, s) for p, s in by_primary.items() if len(s) == 2
        )
        (second_a, name_a), (second_b, name_b) = sorted(seconds.items())
        specs = [
            ReadSpec(n, 0.0, 0.5, codec="raw", cache=False)
            for n in (name_a, name_b, name_a)
        ]
        with VSSBinaryClient(*replicated.address) as client:
            for name in (name_a, name_b):
                _load(client, name, tiny_clip)
            expected = [client.read(s).segment.pixels for s in specs]
            survivors = (second_a, second_b)
            engines = dict(zip(fleet.addrs, fleet.engines))
            before = {a: engines[a].stats().batches for a in survivors}
            fleet.kill(primary)
            results = client.read_batch(specs)
            assert client.stats.last_batch.num_reads == 3
        for result, pixels in zip(results, expected):
            assert np.array_equal(result.segment.pixels, pixels)
        assert {
            a: engines[a].stats().batches - before[a] for a in survivors
        } == {second_a: 1, second_b: 1}
        assert replicated.engine.counters.snapshot()["failovers"] == 1

    def test_mid_stream_death_raises_typed_error(
        self, replicated, fleet, tiny_clip
    ):
        """Once a chunk has been delivered, a shard death must surface
        as ShardUnavailableError — never a silent replica restart."""
        with VSSBinaryClient(*replicated.address) as client:
            # Small GOPs so the stream spans several chunks: the death
            # must land between deliveries, not before the first.
            client.create("hot")
            client.write("hot", tiny_clip, codec="h264", qp=10, gop_size=6)
        spec = ReadSpec("hot", 0.0, 0.75, codec="raw", cache=False)
        stream = replicated.engine.read_stream(spec)
        first = next(stream)
        assert first.segment is not None or first.gops
        # Sever the shard conversation under the stream.  (Killing the
        # server would race bytes already in socket buffers — a tiny
        # stream could finish cleanly — so fail the next frame read the
        # way a died connection does.)
        def died(nbytes):
            raise WireError("connection truncated (simulated shard death)")

        stream._stream._reply._rfile = SimpleNamespace(read=died)
        with pytest.raises(ShardUnavailableError) as info:
            next(stream)
        assert info.value.shard == stream._tried[-1]
        stream.close()

    def test_mutations_require_all_replicas(
        self, replicated, fleet, tiny_clip
    ):
        with VSSBinaryClient(*replicated.address) as client:
            _load(client, "hot", tiny_clip)
            victim = replicated.engine.ring.replicas("hot")[1]
            fleet.kill(victim)
            replicated.engine._by_name[victim].mark_down("killed")
            with pytest.raises(ShardUnavailableError):
                client.write(
                    "hot", tiny_clip, codec="h264", qp=10, gop_size=24
                )
            # Reads still work off the survivor.
            assert client.read("hot", 0.0, 0.4, codec="raw").segment is not None


# ----------------------------------------------------------------------
# busy propagation and client retry
# ----------------------------------------------------------------------
def _hold_only_slot(gauges) -> None:
    """Cap ``gauges`` at one in-flight request and take that slot.

    A server releases a request's slot only after it has sent the
    reply, so the slot of the op the client has just finished may still
    be held for a moment: wait (a few seconds at most) until it is free.
    """
    gauges.max_inflight = 1
    deadline = time.monotonic() + 5.0
    while gauges.inflight:
        assert time.monotonic() < deadline, "the server never went idle"
        time.sleep(0.001)
    assert gauges.try_enter()


class TestBusyPropagation:
    def test_shard_busy_propagates_with_retry_after(
        self, router, fleet, tiny_clip
    ):
        with VSSBinaryClient(*router.address) as client:
            _load(client, "cam", tiny_clip)
            owner = router.engine.ring.primary("cam")
            shard_server = fleet.servers[fleet.addrs.index(owner)]
            _hold_only_slot(shard_server.gauges)
            try:
                with pytest.raises(ServerBusyError) as info:
                    client.read("cam", 0.0, 0.5, codec="raw")
                assert info.value.retry_after >= 1.0
            finally:
                shard_server.gauges.leave()
            assert client.read("cam", 0.0, 0.5, codec="raw").segment is not None

    def test_client_busy_retries_honour_retry_after(
        self, tmp_path, calibration, tiny_clip
    ):
        fleet = Fleet(tmp_path, calibration, 1)
        try:
            server = fleet.servers[0]
            with VSSBinaryClient(
                *server.address, busy_retries=5
            ) as client:
                _load(client, "cam", tiny_clip)
                _hold_only_slot(server.gauges)
                timer = threading.Timer(0.5, server.gauges.leave)
                timer.start()
                try:
                    result = client.read("cam", 0.0, 0.5, codec="raw")
                finally:
                    timer.cancel()
                assert result.segment is not None
                assert client.busy_retries_used >= 1
        finally:
            fleet.close()

    def test_zero_retries_fails_fast(self, tmp_path, calibration, tiny_clip):
        fleet = Fleet(tmp_path, calibration, 1)
        try:
            server = fleet.servers[0]
            with VSSBinaryClient(*server.address) as client:
                _load(client, "cam", tiny_clip)
                _hold_only_slot(server.gauges)
                try:
                    with pytest.raises(ServerBusyError):
                        client.read("cam", 0.0, 0.5, codec="raw")
                finally:
                    server.gauges.leave()
                assert client.busy_retries_used == 0
        finally:
            fleet.close()


# ----------------------------------------------------------------------
# connection-pool hygiene
# ----------------------------------------------------------------------
class TestPoolReaping:
    def test_server_closed_pooled_socket_is_reaped(
        self, tmp_path, calibration, tiny_clip
    ):
        fleet = Fleet(tmp_path, calibration, 1)
        try:
            with VSSBinaryClient(*fleet.servers[0].address) as client:
                _load(client, "cam", tiny_clip)
                assert client.ping()
                assert len(client._conns) >= 1
                # Simulate the server (or an idle-timeout proxy) closing
                # the parked connection under us: EOF becomes readable.
                for conn in client._conns:
                    conn._sock.shutdown(socket.SHUT_RDWR)
                result = client.read("cam", 0.0, 0.5, codec="raw")
                assert result.segment is not None
                assert client.conns_reaped >= 1
        finally:
            fleet.close()

    def test_idle_pooled_socket_is_reaped(
        self, tmp_path, calibration
    ):
        fleet = Fleet(tmp_path, calibration, 1)
        try:
            with VSSBinaryClient(
                *fleet.servers[0].address, pool_max_idle=0.05
            ) as client:
                assert client.ping()
                assert len(client._conns) == 1
                time.sleep(0.1)
                assert client.ping()  # re-dials transparently
                assert client.conns_reaped == 1
        finally:
            fleet.close()

    def test_fresh_pooled_socket_is_reused(self, tmp_path, calibration):
        fleet = Fleet(tmp_path, calibration, 1)
        try:
            with VSSBinaryClient(*fleet.servers[0].address) as client:
                assert client.ping()
                conn = client._conns[-1]
                assert client.ping()
                assert client._conns[-1] is conn
                assert client.conns_reaped == 0
        finally:
            fleet.close()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestRouterCLI:
    def test_router_requires_shards(self):
        from repro.server.__main__ import main

        with pytest.raises(SystemExit):
            main(["--router"])

    def test_router_rejects_store_root(self):
        from repro.server.__main__ import main

        with pytest.raises(SystemExit):
            main(["--router", "--shards", "h:1", "/tmp/store"])

    def test_plain_mode_requires_root(self):
        from repro.server.__main__ import main

        with pytest.raises(SystemExit):
            main([])
