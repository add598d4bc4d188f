"""The VSS cluster router: one endpoint over N shard servers.

:class:`VSSRouter` scales the single-node service out without touching
the protocol: it speaks to clients as an ordinary VSS server (both the
HTTP and binary transports, byte-identical framing) and proxies every
operation to the shard that owns the named video, so existing
:class:`repro.client.VSSClient` / :class:`~repro.client.VSSBinaryClient`
code points at a router URL and runs unchanged.

The trick is the **engine facade**: :class:`ClusterEngine` stands where
a :class:`repro.core.engine.VSSEngine` would behind the existing
:class:`repro.server.VSSServer` and :class:`repro.server.VSSBinaryServer`,
backed by one pooled :class:`~repro.client.VSSBinaryClient` per shard
instead of a local store.  Its whole surface is six methods:
``session`` and ``stats``; ``run_op``, which serves every unary op of
the service table (:data:`repro.core.ops.OPS`) from the placement the
table declares for it, so a new table op needs no router code; and the
three payload paths ``write`` / ``read_batch`` / ``read_stream``, whose
routing is bespoke.  The router therefore *is* the proven server code —
framing, admission control, error envelopes, zero-copy payload paths
all come for free — and replies are the shards' own dicts, identical
to a direct single-server deployment (asserted in ``tests/test_ops.py``
and ``tests/test_cluster.py``).

Placement and replication come from :class:`repro.cluster.ring.ShardRing`
(consistent hashing — deterministic, minimal movement).  Derived views
are placed with the *root* of their base chain so a view read is always
local to its base video's shard.  With ``replication > 1`` (or a
per-name override for hot videos) writes go to every replica and reads
go to the least-loaded live replica, failing over to the next replica
when a shard dies **before any chunk was delivered**; once bytes have
flowed, a mid-stream death surfaces as a typed
:class:`~repro.errors.ShardUnavailableError` rather than a silent
restart (the chunks already delivered cannot be unsent).

Failure handling: a connection failure on the request path marks the
shard down immediately; the background
:class:`~repro.cluster.health.HealthChecker` (binary PING probes with
timeout/retry/backoff) brings it back when it answers again.  An error
a shard *answers* with is not a failure, whatever its class: a
``WireError`` for a malformed spec or a busy rejection
(:class:`~repro.errors.ServerBusyError`, ``retry_after`` hint intact)
propagates to the client exactly as if it had spoken to the shard
directly.
"""

from __future__ import annotations

import logging
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.client import VSSBinaryClient
from repro.cluster.health import HealthChecker
from repro.cluster.ring import ShardRing
from repro.core.ops import OPS
from repro.core.reader import BatchStats, decode_mb_per_s
from repro.core.records import PhysicalVideo
from repro.errors import (
    ServerBusyError,
    ShardUnavailableError,
    WireError,
)
from repro.server.binary import VSSBinaryServer
from repro.server.http import DEFAULT_MAX_INFLIGHT, VSSServer
from repro.util import Counters

_log = logging.getLogger("repro.cluster")


def _shard_died(exc: BaseException) -> bool:
    """Whether ``exc`` means the shard (or the path to it) died.

    A socket error does, and so does a ``WireError`` raised on this
    side of the connection (a frame cut short by a dying shard).  An
    error the shard *answered* with — a ``WireError`` for a malformed
    spec included — is an application error from a live shard
    (``answered``, see :func:`repro.core.wire.error_from_dict`).
    """
    if isinstance(exc, WireError):
        return not getattr(exc, "answered", False)
    return isinstance(exc, OSError)


def parse_shard(spec) -> tuple[str, int]:
    """``"host:port"`` (or a ``(host, port)`` pair) -> ``(host, port)``."""
    if isinstance(spec, (tuple, list)) and len(spec) == 2:
        return str(spec[0]), int(spec[1])
    host, sep, port = str(spec).rpartition(":")
    if not sep or not host:
        raise ValueError(f"shard {spec!r} is not host:port")
    return host, int(port)


class _Shard:
    """Router-side state for one backend server: client + liveness."""

    def __init__(self, host: str, port: int, timeout: float):
        self.host = host
        self.port = port
        self.name = f"{host}:{port}"
        self.client = VSSBinaryClient(host, port, timeout=timeout)
        self.up = True
        self.down_reason: str | None = None
        self.times_down = 0
        #: Streams/batches/writes currently running against this shard
        #: (the least-loaded-replica read policy keys on this gauge).
        self.inflight = 0
        self._lock = threading.Lock()

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    def mark_up(self) -> None:
        with self._lock:
            if not self.up:
                self.up = True
                self.down_reason = None

    def mark_down(self, reason) -> None:
        with self._lock:
            if self.up:
                self.up = False
                self.down_reason = str(reason)
                self.times_down += 1

    def enter(self) -> None:
        with self._lock:
            self.inflight += 1

    def leave(self) -> None:
        with self._lock:
            self.inflight -= 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "up": self.up,
                "down_reason": self.down_reason,
                "times_down": self.times_down,
                "inflight": self.inflight,
            }

    def close(self) -> None:
        self.client.close()


class _RoutedStream:
    """A streamed read proxied through the router, with replica failover.

    Chunks flow through one shard-side :class:`RemoteReadStream` at a
    time — the router never buffers more than the frontend server's own
    bounded pull batch, so a long read stays O(GOP window) resident in
    the router exactly as it does in a shard.

    Failover contract: while **zero** chunks have been delivered, a
    connection failure (or busy rejection, when another replica exists)
    silently reopens the read on the next live replica.  After the first
    chunk, the stream's position is unrecoverable, so a shard death
    surfaces as :class:`ShardUnavailableError` — typed and immediate,
    never a hang.  Application errors (missing video, bad spec) always
    propagate as-is.
    """

    def __init__(self, engine: "ClusterEngine", spec, shards: list[_Shard]):
        self._engine = engine
        self._spec = spec
        self._pending = list(shards)
        self._tried: list[str] = []
        self._stream = None
        self._shard: _Shard | None = None
        self._holding = False
        self._delivered = 0
        self._closed = False

    @property
    def stats(self):
        return self._stream.stats if self._stream is not None else None

    def __iter__(self) -> "_RoutedStream":
        return self

    def _ensure_open(self) -> None:
        if self._stream is not None:
            return
        while self._pending:
            shard = self._pending.pop(0)
            if not shard.up:
                self._tried.append(shard.name)
                continue
            try:
                stream = shard.client.read_stream(self._spec)
            except Exception as exc:
                if not _shard_died(exc):
                    raise
                self._engine._shard_failed(shard, exc)
                self._tried.append(shard.name)
                continue
            if self._tried:
                self._engine.counters.add(failovers=1)
            shard.enter()
            self._holding = True
            self._shard = shard
            self._stream = stream
            return
        raise ShardUnavailableError(
            f"no live replica for {self._spec.name!r} "
            f"(tried {', '.join(self._tried) or 'none'})",
            shard=self._tried[-1] if self._tried else None,
        )

    def _drop(self) -> None:
        stream, self._stream = self._stream, None
        if stream is not None:
            stream.close()
        if self._holding:
            self._holding = False
            self._shard.leave()

    def __next__(self):
        while True:
            self._ensure_open()
            try:
                chunk = next(self._stream)
            except StopIteration:
                if self._holding:
                    self._holding = False
                    self._shard.leave()
                raise
            except ServerBusyError:
                # The shard is alive but full.  With no chunk delivered
                # and another replica available, try that one; otherwise
                # forward the rejection (Retry-After hint intact).
                self._drop()
                if self._delivered == 0 and any(
                    s.up for s in self._pending
                ):
                    continue
                raise
            except Exception as exc:
                if not _shard_died(exc):
                    raise
                shard = self._shard
                self._engine._shard_failed(shard, exc)
                self._tried.append(shard.name)
                self._drop()
                if self._delivered == 0:
                    continue
                raise ShardUnavailableError(
                    f"shard {shard.name} died mid-stream for "
                    f"{self._spec.name!r} after {self._delivered} chunk(s)",
                    shard=shard.name,
                ) from exc
            self._delivered += 1
            return chunk

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._drop()

    def __enter__(self) -> "_RoutedStream":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class ClusterEngine:
    """The engine facade the router's frontends serve (module docs).

    * ``session()`` is the facade itself and ``stats()`` the cluster's
      ``/metrics`` document — the two ``local`` table ops run against
      these, on the router;
    * ``run_op(op, params)`` runs any other table op where its
      placement says: ``any`` goes to the least-loaded live replica and
      fails over; ``all`` requires **every** placement replica live and
      applies to each in ring order, keeping replicas byte-identical;
      ``scatter`` fans out to every live shard and merges (every shard,
      when the op is ``whole``);
    * ``write`` is an ``all`` mutation carrying pixels;
    * ``read_stream`` goes to the least-loaded live replica and fails
      over until the first chunk is delivered;
    * ``read_batch`` groups specs by owning shard so co-sharded reads
      still share decode work server-side, and returns results in
      request order.
    """

    def __init__(
        self,
        shards,
        replication: int = 1,
        replication_overrides: dict[str, int] | None = None,
        shard_timeout: float = 60.0,
    ):
        addresses = [parse_shard(s) for s in shards]
        if not addresses:
            raise ValueError("a cluster needs at least one shard")
        self.shards = [
            _Shard(host, port, shard_timeout) for host, port in addresses
        ]
        self._by_name = {s.name: s for s in self.shards}
        self.ring = ShardRing(
            [s.name for s in self.shards],
            replication=replication,
            replication_overrides=replication_overrides,
        )
        #: view name -> parent name, for placing view reads with the
        #: root of their base chain.  Kept current by
        #: ``_VIEW_MAP_AFTER`` and learned at startup by
        #: :meth:`sync_views`.
        self._view_over: dict[str, str] = {}
        self._views_lock = threading.Lock()
        #: The ``router`` section of :meth:`stats`.
        self.counters = Counters(
            reads_routed=0,
            batches_routed=0,
            writes_routed=0,
            catalog_ops=0,
            searches_routed=0,
            failovers=0,
            partial_mutations=0,
        )
        self._pool = ThreadPoolExecutor(
            max_workers=max(4, 2 * len(self.shards)),
            thread_name_prefix="vss-router",
        )
        self._closed = False

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def session(self) -> "ClusterEngine":
        return self

    def _root_of(self, name: str) -> str:
        """Follow the view parent chain down to the owning base name."""
        with self._views_lock:
            seen = set()
            while name in self._view_over and name not in seen:
                seen.add(name)
                name = self._view_over[name]
        return name

    def _placement(self, name: str) -> list[_Shard]:
        """All placement replicas for ``name``, primary first."""
        root = self._root_of(name)
        return [self._by_name[s] for s in self.ring.replicas(root)]

    def _read_candidates(self, name: str) -> list[_Shard]:
        """Live replicas ordered least-loaded first (ring tie-break)."""
        live = [s for s in self._placement(name) if s.up]
        return sorted(live, key=lambda s: s.inflight)

    def _require_all_up(self, shards: list[_Shard], what: str) -> None:
        down = [s.name for s in shards if not s.up]
        if down:
            raise ShardUnavailableError(
                f"cannot {what}: placement shard(s) "
                f"{', '.join(down)} down",
                shard=down[0],
            )

    def _shard_failed(self, shard: _Shard, exc: BaseException) -> None:
        shard.mark_down(exc)

    # ------------------------------------------------------------------
    # the op table's unary ops
    # ------------------------------------------------------------------
    def run_op(self, op, params: dict) -> dict:
        """Run one validated non-``local`` op of the service table.

        ``Op.__call__`` has checked and defaulted ``params``; only the
        op's declared names are forwarded.  The reply is a shard's own
        dict (the first replica's for ``all``, ``op.merge`` of every
        live shard's for ``scatter``), never rebuilt here.
        """
        name = op.key(params)
        what = op.name.replace("_", " ")
        declared = {k: params[k] for k in (*op.required, *op.optional)}

        def call(shard: _Shard) -> dict:
            return shard.client._rpc(op.name, declared)

        self.counters.add(
            **{"searches_routed" if op.name == "search" else "catalog_ops": 1}
        )
        if op.placement == "scatter":
            reply = op.merge(self._scatter(what, call, op.whole), params)
        elif op.placement == "all":
            reply = self._on_all_replicas(name, what, call)[0]
        else:
            reply = self._on_any_replica(name, what, call)
        after = self._VIEW_MAP_AFTER.get(op.name)
        if after is not None:
            after(self, params, reply)
        return reply

    def _on_any_replica(self, name: str, what: str, fn):
        """Run a read-only op on the first live replica that answers."""
        tried: list[str] = []
        for shard in self._read_candidates(name):
            try:
                return fn(shard)
            except Exception as exc:
                if not _shard_died(exc):
                    raise
                self._shard_failed(shard, exc)
                tried.append(shard.name)
        raise ShardUnavailableError(
            f"cannot {what} {name!r}: no live replica "
            f"(tried {', '.join(tried) or 'none'})",
            shard=tried[-1] if tried else None,
        )

    def _on_all_replicas(self, name: str, what: str, fn) -> list:
        """Run a mutation on every placement replica (all must be up).

        The one place a mutation can diverge the replicas: when a
        replica fails — dead or answering with an error — after an
        earlier one applied, the error still propagates as before, and
        the divergence is counted and logged with both sides named.
        """
        shards = self._placement(name)
        self._require_all_up(shards, what)
        replies = []
        for shard in shards:
            try:
                replies.append(fn(shard))
            except Exception as exc:
                applied = ", ".join(s.name for s in shards[: len(replies)])
                if applied:
                    self.counters.add(partial_mutations=1)
                    _log.warning(
                        "partial mutation: %s %r applied on %s, "
                        "failed on %s: %r",
                        what, name, applied, shard.name, exc,
                    )
                if not _shard_died(exc):
                    raise
                self._shard_failed(shard, exc)
                raise ShardUnavailableError(
                    f"shard {shard.name} died during {what}"
                    + (f" (already applied on {applied})" if applied else ""),
                    shard=shard.name,
                ) from exc
        return replies

    # -- view placement map --------------------------------------------
    def _learn_views(self, views: list[dict]) -> None:
        with self._views_lock:
            for view in views:
                self._view_over[view["name"]] = view["over"]

    def _forget_view(self, name: str) -> None:
        """Drop ``name`` and every view over it: a delete that succeeded
        either cascaded through its dependents or had none."""
        with self._views_lock:
            doomed = [name]
            while doomed:
                parent = doomed.pop()
                self._view_over.pop(parent, None)
                doomed += [
                    v for v, over in self._view_over.items() if over == parent
                ]

    #: After a table op succeeds: how it changes where view reads go.
    _VIEW_MAP_AFTER = {
        "create_view": lambda self, p, reply: self._learn_views([reply]),
        "list_views": lambda self, p, reply: self._learn_views(reply["views"]),
        "delete": lambda self, p, reply: self._forget_view(p["name"]),
        "delete_view": lambda self, p, reply: self._forget_view(p["name"]),
    }

    def sync_views(self) -> None:
        """Learn existing view chains from the shards (router startup)."""
        try:
            self.run_op(OPS["list_views"], {})
        except ShardUnavailableError:
            pass  # nothing reachable yet; health checks will recover

    # ------------------------------------------------------------------
    # write
    # ------------------------------------------------------------------
    def write(self, spec, segment=None) -> PhysicalVideo:
        """The first replica's :class:`PhysicalVideo`."""
        # A write touches the catalog on every replica, so it counts as
        # a catalog op too (test_router_counters_for_a_fixed_sequence).
        self.counters.add(writes_routed=1, catalog_ops=1)
        return self._on_all_replicas(
            spec.name, "write", lambda s: s.client.write(spec, segment)
        )[0]

    # ------------------------------------------------------------------
    # scatter
    # ------------------------------------------------------------------
    def _live_shards(self) -> list[_Shard]:
        live = [s for s in self.shards if s.up]
        if not live:
            raise ShardUnavailableError("every cluster shard is down")
        return live

    def _scatter(self, what: str, fn, whole: bool = False) -> list:
        """Run ``fn(shard)`` on every live shard; skip ones that die.

        A shard failing mid-scatter is marked down and dropped from the
        merge (listings degrade to the live subset rather than failing
        the whole cluster); only a fully dead cluster raises.  A
        ``whole`` scatter raises as soon as any shard is down or dies.
        """
        shards = self._live_shards()
        down = [s.name for s in self.shards if s not in shards]
        if whole and down:
            raise ShardUnavailableError(f"cannot {what}: {', '.join(down)} down")
        replies = []
        for shard, future in [(s, self._pool.submit(fn, s)) for s in shards]:
            try:
                replies.append(future.result())
            except Exception as exc:
                if not _shard_died(exc):
                    raise
                self._shard_failed(shard, exc)
                down.append(shard.name)
        if not replies:
            raise ShardUnavailableError(f"cannot {what}: every shard died")
        if whole and down:
            raise ShardUnavailableError(f"cannot {what}: {', '.join(down)} died")
        return replies

    def stats(self) -> dict:
        """The router's ``/metrics`` document: cluster + per-shard.

        Down shards are reported as ``{"up": false, ...}`` without
        being probed (the health checker owns recovery), so a dead
        shard can never stall a metrics scrape.
        """
        per_shard: dict[str, dict] = {}
        up = 0
        for shard in self.shards:
            doc = shard.snapshot()
            if doc["up"]:
                try:
                    doc.update(shard.client.metrics())
                except Exception as exc:
                    if not _shard_died(exc):
                        raise
                    self._shard_failed(shard, exc)
                    doc.update(shard.snapshot())
            up += 1 if doc["up"] else 0
            per_shard[shard.name] = doc

        def summed(cast, *keys: str) -> dict:
            """Engine counters and gauges (each shard's own) summed over
            the shards that are up."""
            return {
                key: sum(
                    cast(doc.get("engine", {}).get(key, 0))
                    for doc in per_shard.values()
                    if doc["up"]
                )
                for key in keys
            }

        tiles = summed(
            int, "tiles_total", "tiles_decoded", "tile_bytes_skipped", "retiles"
        )
        decode_cache = summed(
            int,
            "decode_cache_hits",
            "decode_cache_misses",
            "decode_cache_evictions",
            "decode_cache_bytes",
            "decode_cache_resized_bytes",
        )
        codec = summed(
            float,
            "codec_entropy_seconds",
            "codec_transform_seconds",
            "codec_compensate_seconds",
            "codec_encode_recurrence_seconds",
            "codec_encode_entropy_seconds",
        )
        codec.update(
            summed(
                int,
                "codec_frames_decoded",
                "codec_decoded_bytes",
                "codec_frames_encoded",
            )
        )
        # From the summed totals, not a mean of per-shard rates: shards
        # with no decode traffic would drag a mean to zero.
        codec["codec_decode_mb_per_s"] = decode_mb_per_s(codec)
        return {
            "cluster": True,
            "shards": per_shard,
            "shards_up": up,
            "shards_down": len(self.shards) - up,
            "replication": self.ring.replication,
            "router": self.counters.snapshot(),
            "tiles": tiles,
            "decode_cache": decode_cache,
            "codec": codec,
        }

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def read_stream(self, spec) -> _RoutedStream:
        self.counters.add(reads_routed=1)
        candidates = self._read_candidates(spec.name)
        if not candidates:
            raise self._no_replica(spec.name)
        stream = _RoutedStream(self, spec, candidates)
        # Open eagerly: an all-replicas-down read fails here, typed and
        # immediately, instead of surviving until the first pull.
        stream._ensure_open()
        return stream

    def read_batch(self, specs: list) -> tuple[list, BatchStats]:
        self.counters.add(batches_routed=1)
        results: list = [None] * len(specs)
        merged = BatchStats()
        self._run_groups(specs, range(len(specs)), set(), results, merged)
        return results, merged

    def _no_replica(self, name: str) -> ShardUnavailableError:
        placement = self._placement(name)
        return ShardUnavailableError(
            f"no live replica for {name!r} (placement: "
            f"{', '.join(s.name for s in placement)})",
            shard=placement[0].name,
        )

    def _pick_batch_shard(self, name: str, exclude) -> _Shard:
        candidates = [
            s for s in self._read_candidates(name) if s.name not in exclude
        ]
        if not candidates:
            raise self._no_replica(name)
        return candidates[0]

    def _run_groups(
        self, specs: list, indices, exclude: set[str], results: list,
        merged: BatchStats,
    ) -> None:
        """Answer ``specs[i]`` for each of ``indices`` into ``results``.

        The indices are grouped by :meth:`_pick_batch_shard`, so
        co-sharded reads still share decode work server-side, and the
        groups run concurrently as one sub-batch per shard.  A group
        whose shard dies under it has delivered nothing: the shard is
        marked down and excluded, and the group's indices are grouped
        again the same way (their surviving replicas may differ), so the
        recursion is bounded by the shard count.  The first error is
        raised once every group has finished.
        """
        groups: dict[_Shard, list[int]] = {}
        for i in indices:
            shard = self._pick_batch_shard(specs[i].name, exclude)
            groups.setdefault(shard, []).append(i)
        running = [
            (shard, group, self._pool.submit(
                self._read_group, shard, [specs[i] for i in group]
            ))
            for shard, group in groups.items()
        ]
        first_exc = None
        for shard, group, future in running:
            exc = future.exception()
            if exc is None:
                sub_results, sub_batch = future.result()
                for i, result in zip(group, sub_results):
                    results[i] = result
                merged.merge(sub_batch)
                continue
            if _shard_died(exc):
                self._shard_failed(shard, exc)
                self.counters.add(failovers=1)
                try:
                    self._run_groups(
                        specs, group, exclude | {shard.name}, results, merged
                    )
                    continue
                except BaseException as retry_exc:  # noqa: BLE001
                    exc = retry_exc  # re-raised below
            first_exc = first_exc or exc
        if first_exc is not None:
            raise first_exc

    @staticmethod
    def _read_group(shard: _Shard, specs: list) -> tuple[list, BatchStats]:
        """One shard's sub-batch: its results and its own BatchStats."""
        shard.enter()
        try:
            return shard.client._read_many(specs)
        finally:
            shard.leave()

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True, cancel_futures=True)
        for shard in self.shards:
            shard.close()


class VSSRouter:
    """One cluster endpoint: facade + both frontends + health checks.

    ``shards`` are the **binary** endpoints of running VSS servers
    (``"host:port"`` strings or pairs).  The router listens on its own
    binary port (``port``) and HTTP port (``http_port``), both
    ephemeral by default; clients connect to either exactly as they
    would to a single server.

    >>> router = VSSRouter(["127.0.0.1:8721", "127.0.0.1:8722"],
    ...                    replication=2).start()
    >>> client = VSSBinaryClient(*router.address)     # doctest: +SKIP
    """

    def __init__(
        self,
        shards,
        replication: int = 1,
        host: str = "127.0.0.1",
        port: int = 0,
        http_port: int = 0,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        replication_overrides: dict[str, int] | None = None,
        shard_timeout: float = 60.0,
        probe_interval: float = 1.0,
        verbose: bool = False,
    ):
        self.engine = ClusterEngine(
            shards,
            replication=replication,
            replication_overrides=replication_overrides,
            shard_timeout=shard_timeout,
        )
        self.binary = VSSBinaryServer(
            engine=self.engine,
            host=host,
            port=port,
            max_inflight=max_inflight,
            verbose=verbose,
        )
        self.http = VSSServer(
            engine=self.engine,
            host=host,
            port=http_port,
            max_inflight=max_inflight,
            verbose=verbose,
        )
        self.health = HealthChecker(
            self.engine.shards, interval=probe_interval
        )
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The router's binary endpoint."""
        return self.binary.address

    @property
    def http_address(self) -> tuple[str, int]:
        return self.http.address

    @property
    def url(self) -> str:
        return self.binary.url

    @property
    def http_url(self) -> str:
        return self.http.url

    def start(self) -> "VSSRouter":
        if not self._started:
            self._started = True
            # One synchronous sweep before serving: requests never race
            # an unprobed dead shard, and view placement is learned from
            # whatever the live shards already hold.
            self.health.check_now()
            self.engine.sync_views()
            self.health.start()
            self.binary.start()
            self.http.start()
        return self

    def serve_forever(self) -> None:
        self.start()
        self.binary.serve_forever()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.health.stop()
        self.binary.close()
        self.http.close()
        self.engine.close()

    def __enter__(self) -> "VSSRouter":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
