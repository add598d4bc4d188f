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
from types import SimpleNamespace

from repro.client import VSSBinaryClient
from repro.cluster.health import HealthChecker
from repro.cluster.ring import DEFAULT_VNODES, ShardRing
from repro.core.ops import OPS
from repro.core.reader import BatchStats
from repro.errors import (
    ServerBusyError,
    ShardUnavailableError,
    WireError,
)
from repro.server.binary import VSSBinaryServer
from repro.server.http import DEFAULT_MAX_INFLIGHT, VSSServer

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
        #: read_batch calls to one shard are serialized so the per-call
        #: BatchStats read back from the shard client cannot be clobbered
        #: by a concurrent batch on the same client.
        self.batch_lock = threading.Lock()

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
                self._engine._count("failovers")
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
      ``scatter`` fans out to every live shard and merges;
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
        vnodes: int = DEFAULT_VNODES,
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
            vnodes=vnodes,
            replication_overrides=replication_overrides,
        )
        #: view name -> parent name, for placing view reads with the
        #: root of their base chain.  Kept current by
        #: ``_VIEW_MAP_AFTER`` and learned at startup by
        #: :meth:`sync_views`.
        self._view_over: dict[str, str] = {}
        self._views_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self.counters = {
            "reads_routed": 0,
            "batches_routed": 0,
            "writes_routed": 0,
            "catalog_ops": 0,
            "searches_routed": 0,
            "failovers": 0,
            "partial_mutations": 0,
        }
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

    def _count(self, key: str, n: int = 1) -> None:
        with self._counter_lock:
            self.counters[key] += n

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

        self._count(
            "searches_routed" if op.name == "search" else "catalog_ops"
        )
        if op.placement == "scatter":
            reply = op.merge(self._scatter(what, call), params)
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
                    self._count("partial_mutations")
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
    def write(self, spec, segment=None) -> SimpleNamespace:
        self._count("writes_routed")
        # A write touches the catalog on every replica, so it counts as
        # a catalog op too (test_router_counters_for_a_fixed_sequence).
        self._count("catalog_ops")
        replies = self._on_all_replicas(
            spec.name, "write", lambda s: s.client.write(spec, segment)
        )
        first = replies[0]
        return SimpleNamespace(
            id=first["physical_id"],
            codec=first["codec"],
            width=first["width"],
            height=first["height"],
            fps=first["fps"],
            start_time=first["start_time"],
            end_time=first["end_time"],
        )

    # ------------------------------------------------------------------
    # scatter
    # ------------------------------------------------------------------
    def _live_shards(self) -> list[_Shard]:
        live = [s for s in self.shards if s.up]
        if not live:
            raise ShardUnavailableError("every cluster shard is down")
        return live

    def _scatter(self, what: str, fn) -> list:
        """Run ``fn(shard)`` on every live shard; skip ones that die.

        A shard failing mid-scatter is marked down and dropped from the
        merge (listings degrade to the live subset rather than failing
        the whole cluster); only a fully dead cluster raises.
        """
        replies = []
        for shard, future in [
            (s, self._pool.submit(fn, s)) for s in self._live_shards()
        ]:
            try:
                replies.append(future.result())
            except Exception as exc:
                if not _shard_died(exc):
                    raise
                self._shard_failed(shard, exc)
        if not replies:
            raise ShardUnavailableError(f"cannot {what}: every shard died")
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
        with self._counter_lock:
            counters = dict(self.counters)

        def summed(cast, *keys: str) -> dict:
            """Engine counters (each shard's own, monotonic) summed over
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
        codec = summed(
            float,
            "codec_entropy_seconds",
            "codec_transform_seconds",
            "codec_compensate_seconds",
            "codec_encode_recurrence_seconds",
            "codec_encode_entropy_seconds",
        )
        # The cluster-wide MB/s is derived from the summed totals rather
        # than averaging per-shard rates (shards with no decode traffic
        # would otherwise drag the mean to zero).
        stage_seconds = (
            codec["codec_entropy_seconds"]
            + codec["codec_transform_seconds"]
            + codec["codec_compensate_seconds"]
        )
        codec.update(
            summed(
                int,
                "codec_frames_decoded",
                "codec_decoded_bytes",
                "codec_frames_encoded",
            )
        )
        codec["codec_decode_mb_per_s"] = (
            codec["codec_decoded_bytes"] / 1e6 / stage_seconds
            if stage_seconds > 0
            else 0.0
        )
        return {
            "cluster": True,
            "shards": per_shard,
            "shards_up": up,
            "shards_down": len(self.shards) - up,
            "replication": self.ring.replication,
            "router": counters,
            "tiles": tiles,
            "codec": codec,
        }

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def read_stream(self, spec) -> _RoutedStream:
        self._count("reads_routed")
        candidates = self._read_candidates(spec.name)
        if not candidates:
            raise self._no_replica(spec.name)
        stream = _RoutedStream(self, spec, candidates)
        # Open eagerly: an all-replicas-down read fails here, typed and
        # immediately, instead of surviving until the first pull.
        stream._ensure_open()
        return stream

    def read_batch(self, specs: list) -> tuple[list, BatchStats]:
        self._count("batches_routed")
        if not specs:
            return [], BatchStats()
        groups: dict[str, list[int]] = {}
        for index, spec in enumerate(specs):
            shard = self._pick_batch_shard(spec.name, exclude=())
            groups.setdefault(shard.name, []).append(index)
        results: list = [None] * len(specs)
        merged = BatchStats()
        futures = [
            (
                indices,
                self._pool.submit(
                    self._run_group, self._by_name[name], indices, specs
                ),
            )
            for name, indices in groups.items()
        ]
        first_exc = None
        for indices, future in futures:
            try:
                sub_results, sub_batch = future.result()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                first_exc = first_exc or exc
                continue
            for position, result in zip(indices, sub_results):
                results[position] = result
            merged.merge(sub_batch)
        if first_exc is not None:
            raise first_exc
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

    def _run_group(
        self, shard: _Shard, indices: list[int], specs: list
    ) -> tuple[list, BatchStats]:
        """One shard's slice of a scattered batch, with replica retry.

        A group whose shard dies under it has delivered nothing, so it
        is retried wholesale on the next live replica of each spec (one
        shard per retry round; the ring guarantees co-placement of the
        group only while the dead shard's replicas overlap, so a retry
        may need the full scatter machinery — one level of recursion
        bounded by the shard count).
        """
        subset = [specs[i] for i in indices]
        exclude: set[str] = set()
        while True:
            try:
                shard.enter()
                try:
                    with shard.batch_lock:
                        sub_results = shard.client.read_batch(subset)
                        sub_batch = shard.client.stats.last_batch
                finally:
                    shard.leave()
                return sub_results, sub_batch
            except Exception as exc:
                if not _shard_died(exc):
                    raise
                self._shard_failed(shard, exc)
                exclude.add(shard.name)
                self._count("failovers")
                # All specs in a group shared a placement shard; their
                # surviving replicas may differ, so re-split the group.
                regrouped: dict[str, list[int]] = {}
                for i in indices:
                    retry_shard = self._pick_batch_shard(
                        specs[i].name, exclude=exclude
                    )
                    regrouped.setdefault(retry_shard.name, []).append(i)
                if len(regrouped) == 1:
                    shard = self._by_name[next(iter(regrouped))]
                    continue
                results: list = []
                merged = BatchStats()
                for name, sub_indices in regrouped.items():
                    sub, batch = self._run_group(
                        self._by_name[name], sub_indices, specs
                    )
                    results.extend(zip(sub_indices, sub))
                    merged.merge(batch)
                results.sort()
                ordered = [r for _, r in results]
                # Map back to this group's local order.
                local = {i: r for i, r in zip(sorted(indices), ordered)}
                return [local[i] for i in indices], merged

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
        vnodes: int = DEFAULT_VNODES,
        replication_overrides: dict[str, int] | None = None,
        shard_timeout: float = 60.0,
        probe_interval: float = 1.0,
        verbose: bool = False,
    ):
        self.engine = ClusterEngine(
            shards,
            replication=replication,
            vnodes=vnodes,
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
