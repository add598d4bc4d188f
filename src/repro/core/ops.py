"""The service-op tables: every operation, defined once.

Both servers, both clients and a local session dispatch through
:data:`OPS`, the unary control-plane ops, and the servers answer the
data plane through :data:`DATA_OPS`.  One :class:`Op` entry carries
everything they need:

* the **name** — the binary ``"op"`` value and the client's logical
  operation name;
* the **params** — ``required`` names (a request missing one fails with
  the same :class:`WireError` on either transport) and ``optional``
  names with their defaults;
* ``run(service, params) -> dict`` — parse params, make one engine
  call, build the reply dict.  ``service`` is whichever server fronts
  the engine (it exposes ``.engine`` and ``.gauges``) or a local
  session (``.engine`` only);
* ``decode(reply)`` — the reply dict as the value the engine call
  returned (below);
* ``admitted`` — whether the op takes a ``ServiceGauges`` slot (busy
  rejection when the server is full);
* the **REST binding** — ``"METHOD /path/<param>"``.  Path placeholders
  are filled from the params; the leftover params travel as the query
  string on GET/DELETE and as the JSON body on POST (``body`` names the
  one param that *is* the POST body, for ``search``).  ``ping`` has no
  REST binding: HTTP liveness is ``GET /healthz``, answered by the
  transport itself like the binary ``PING`` frame.

* the **placement** — where a cluster router runs the op
  (:data:`PLACEMENTS`): ``local`` on the router itself, ``any`` live
  replica of the key's placement, ``all`` of them, or ``scatter`` to
  every live shard with ``merge(replies, params) -> dict`` folding the
  shard reply dicts into one.  A scatter leaves a down or dying shard
  out of the merge, unless the op is ``whole`` (``check``: an audit that
  skipped a shard would read clean for data it never looked at), which
  then fails with :class:`ShardUnavailableError`.  ``key(params)`` names the video whose
  ring placement decides the replicas (default ``params["name"]``).
  Validating params is ``run``'s job, on the shard: the router hands a
  shard's error reply back as it came.

The one seam is :meth:`Op.__call__`: an engine that defines
``run_op(op, params)`` (the router's :class:`ClusterEngine`) is handed
every non-``local`` op after validation; any other engine gets
``run``.  The router forwards the declared params to the shards'
``_rpc`` and returns their reply dicts untouched.

The payload-carrying ops (``read``, ``read_batch``, ``write``) are the
entries of :data:`DATA_OPS`, each called as ``(service, header,
payload)`` with a ``REQUEST`` frame's header and payload.  An entry
first does the eager work — decode the request, then open
``service.session.read_stream``, run ``service.engine.read_batch`` or
``service.engine.write`` — so a missing video or a malformed request
raises before any frame exists.  It then returns an iterator of frames
(lists of buffers, :mod:`repro.core.wire`): a read's chunks and its
``END``, a batch's results and its ``END``, or a write's one ``REPLY``.
Closing the iterator releases what the entry holds.  Both servers send
these frames as they come, so the two transports answer alike, and a
router's frontends serve them from its cluster engine unedited.

Each entry's ``decode(reply)`` turns its reply dict back into the value
the engine method returns (a :class:`~repro.core.records.LogicalVideo`,
a ``StoreStats`` or ``ViewStats``, a
:class:`~repro.core.records.ViewRecord` or a list of them, a list of
names or of ``SearchHit`` objects, a bool, an int, or the ``check``
report).
:class:`repro.core.specs.SessionSurface` defines one method per unary
op on top of it, so a local session, both clients and a client of a
router answer each op with the same value.  The payload ops keep their
own decoders: a write's ``REPLY`` is the whole
:class:`~repro.core.records.PhysicalVideo` row
(:func:`physical_from_dict`).

Adding a unary op costs one entry in :data:`OPS` plus its engine method
and one :class:`~repro.core.specs.SessionSurface` method — the servers,
the clients and the router serve it unedited.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Callable, Iterator
from operator import itemgetter
from urllib.parse import parse_qs, quote, unquote, urlencode

from repro.core.records import LogicalVideo, PhysicalVideo, ViewRecord
from repro.core.wire import (
    FRAME_REPLY,
    batch_frames,
    chunk_frame,
    decode_read,
    decode_read_batch,
    decode_write,
    encode_frame,
    search_hit_from_dict,
    search_hit_to_dict,
    search_query_from_dict,
    stream_end_frame,
    view_spec_from_dict,
    view_spec_to_dict,
)
from repro.errors import VSSError, WireError


# ----------------------------------------------------------------------
# reply serializers (the one place each reply shape is built)
# ----------------------------------------------------------------------
def as_plain_dict(obj) -> dict:
    """``dataclasses.asdict`` that passes plain dicts through.

    The servers wrap anything engine-shaped; a cluster facade returns
    already-plain stats documents where the engine returns dataclasses.
    """
    return obj if isinstance(obj, dict) else dataclasses.asdict(obj)


def logical_to_dict(logical) -> dict:
    return {
        "name": logical.name,
        "id": logical.id,
        "budget_bytes": logical.budget_bytes,
        "created_at": logical.created_at,
    }


def view_record_to_dict(record) -> dict:
    return {
        "name": record.name,
        "id": record.id,
        "over": record.over,
        "created_at": record.created_at,
        "spec": view_spec_to_dict(record.spec),
    }


def stats_to_dict(stats) -> dict:
    """A ``StoreStats``, or a ``ViewStats`` with its spec as a wire
    dict so that it round-trips."""
    document = dataclasses.asdict(stats)
    if "spec" in document:
        document["spec"] = view_spec_to_dict(stats.spec)
    return document


# ----------------------------------------------------------------------
# reply decoders (each reply back into the value the engine returned)
# ----------------------------------------------------------------------
def view_record_from_dict(d: dict) -> ViewRecord:
    spec = view_spec_from_dict(d["spec"])
    return ViewRecord(d["id"], d["name"], spec, d["created_at"])


def physical_from_dict(d: dict) -> PhysicalVideo:
    """A write's ``REPLY``: the whole row, ``roi`` a tuple again."""
    roi = d["roi"]
    return PhysicalVideo(**{**d, "roi": None if roi is None else tuple(roi)})


def stats_from_dict(d: dict):
    # Imported here: the engine module imports this one.
    from repro.core.engine import StoreStats, ViewStats

    if "base_stats" not in d:
        return StoreStats(**d)
    spec, base = view_spec_from_dict(d["spec"]), StoreStats(**d["base_stats"])
    return ViewStats(**{**d, "spec": spec, "base_stats": base})


def _flag(value) -> bool:
    """A boolean param: JSON ``true`` in a header or body, ``1``/``true``
    in a query string."""
    return value in (True, "1", "true")


# ----------------------------------------------------------------------
# the entry type
# ----------------------------------------------------------------------
#: Where a cluster router runs an op (module docs).
PLACEMENTS = ("local", "any", "all", "scatter")


def _key_name(params: dict) -> str | None:
    return params.get("name")


@dataclasses.dataclass
class Op:
    """One unary operation (see the module docs for each field)."""

    name: str
    run: Callable[[object, dict], dict]
    placement: str
    required: tuple[str, ...] = ()
    optional: dict = dataclasses.field(default_factory=dict)
    admitted: bool = False
    rest: str | None = None
    body: str | None = None
    key: Callable[[dict], str | None] = _key_name
    merge: Callable[[list, dict], dict] | None = None
    whole: bool = False
    decode: Callable[[dict], object] = lambda reply: reply
    #: ``rest`` split once: HTTP method and the path's segments.
    method: str | None = dataclasses.field(init=False, default=None)
    segments: tuple[str, ...] = dataclasses.field(init=False, default=())

    def __post_init__(self) -> None:
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"op {self.name!r}: placement {self.placement!r} is not "
                f"one of {PLACEMENTS}"
            )
        if (self.placement == "scatter") != (self.merge is not None):
            raise ValueError(
                f"op {self.name!r}: a merge goes with scatter placement, "
                f"and only with it"
            )
        if self.whole and self.placement != "scatter":
            raise ValueError(f"op {self.name!r}: only a scatter can be whole")
        if self.rest is not None:
            self.method, path = self.rest.split(" ")
            self.segments = tuple(path.strip("/").split("/"))

    def __call__(self, service, params: dict) -> dict:
        """Validate ``params``, fill defaults, then run the op: through
        the engine's ``run_op`` when it routes ops (a cluster router)
        and this op is not ``local``, against ``service`` otherwise."""
        for key in self.required:
            if key not in params:
                raise WireError(f"op {self.name!r} requires {key!r}")
        params = {**self.optional, **params}
        run_op = getattr(service.engine, "run_op", None)
        if run_op is None or self.placement == "local":
            return self.run(service, params)
        return run_op(self, params)

    # -- REST binding, client half -------------------------------------
    def render(self, params: dict) -> tuple[str, str, bytes | None]:
        """``params`` as an HTTP request: ``(method, url, body)``."""
        if self.rest is None:
            raise VSSError(f"op {self.name!r} has no HTTP route")
        rest = dict(params)
        url = "".join(
            "/" + (
                quote(str(rest.pop(seg[1:-1])), safe="")
                if seg.startswith("<")
                else seg
            )
            for seg in self.segments
        )
        if self.method == "POST":
            document = rest[self.body] if self.body else rest
            return self.method, url, json.dumps(document).encode("utf-8")
        query = urlencode(
            {k: int(v) if isinstance(v, bool) else v for k, v in rest.items()}
        )
        return self.method, f"{url}?{query}" if query else url, None

    # -- REST binding, server half -------------------------------------
    def parse(self, path_params: dict, query: str, body: bytes) -> dict:
        """Rebuild the params :meth:`render` spread over a request."""
        # Last value wins for a repeated query key.
        params = {key: values[-1] for key, values in parse_qs(query).items()}
        if body:
            document = json.loads(body)
            if self.body:
                params[self.body] = document
            elif isinstance(document, dict):
                params.update(document)
            else:
                raise WireError(
                    f"op {self.name!r} takes a JSON object body, got "
                    f"{type(document).__name__}"
                )
        params.update(path_params)
        return params


# ----------------------------------------------------------------------
# the operations
# ----------------------------------------------------------------------
def _ping(service, p: dict) -> dict:
    return {"pong": True}


def _metrics(service, p: dict) -> dict:
    return {
        "engine": as_plain_dict(service.engine.stats()),
        "server": service.gauges.snapshot(),
    }


def _create(service, p: dict) -> dict:
    return logical_to_dict(
        service.engine.create(p["name"], budget_bytes=int(p["budget_bytes"]))
    )


def _delete(service, p: dict) -> dict:
    service.engine.delete(p["name"], force=_flag(p["force"]))
    return {"deleted": p["name"]}


def _exists(service, p: dict) -> dict:
    # One name_kind probe: existence and kind from the same catalog
    # snapshot.
    kind = service.engine.name_kind(p["name"])
    return {"name": p["name"], "exists": kind is not None, "kind": kind}


def _list_videos(service, p: dict) -> dict:
    return {"videos": service.engine.list_videos(p["kind"])}


def _video_stats(service, p: dict) -> dict:
    return stats_to_dict(service.engine.video_stats(p["name"]))


def _create_view(service, p: dict) -> dict:
    return view_record_to_dict(
        service.engine.create_view(p["name"], view_spec_from_dict(p["spec"]))
    )


def _get_view(service, p: dict) -> dict:
    return view_record_to_dict(service.engine.get_view(p["name"]))


def _list_views(service, p: dict) -> dict:
    return {
        "views": [view_record_to_dict(v) for v in service.engine.list_views()]
    }


def _delete_view(service, p: dict) -> dict:
    # Manages definitions only: delete_view can never touch stored video
    # data, even under a concurrent delete-and-recreate of the name.
    service.engine.delete_view(p["name"], force=_flag(p["force"]))
    return {"deleted": p["name"]}


def _search(service, p: dict) -> dict:
    hits = service.engine.search(**search_query_from_dict(p["query"]))
    return {"hits": [search_hit_to_dict(h) for h in hits]}


def _reindex(service, p: dict) -> dict:
    return {"name": p["name"], "indexed_gops": service.engine.reindex(p["name"])}


def _check(service, p: dict) -> dict:
    return service.engine.check()


# -- placement keys and scatter merges (router side) -------------------
def _key_view_parent(p: dict) -> str:
    # A view lives with the root of its base chain, so reads against it
    # are always shard-local: placement keys on the parent, not on the
    # view's own name.  Read off the parsed spec so that one with no
    # usable ``over`` is a WireError, not a KeyError.
    return view_spec_from_dict(p["spec"]).over


def _merge_videos(replies: list, p: dict) -> dict:
    return {"videos": sorted({name for r in replies for name in r["videos"]})}


def _merge_views(replies: list, p: dict) -> dict:
    # Replicas hold the same definition under one name: last one wins.
    views = {view["name"]: view for r in replies for view in r["views"]}
    return {"views": [views[name] for name in sorted(views)]}


def _merge_hits(replies: list, p: dict) -> dict:
    # merge_ranked drops replica-duplicated hits on (name, gop_seq) and
    # re-sorts exactly as each shard ranked, so the merged list is what
    # one shard holding the whole corpus would have returned.
    # Imported here, like wire.py's SearchHit: nothing else in the table
    # needs the search package.
    from repro.search.query import merge_ranked

    hits = merge_ranked(
        ([search_hit_from_dict(h) for h in r["hits"]] for r in replies),
        limit=int(p["query"]["limit"]),
    )
    return {"hits": [search_hit_to_dict(h) for h in hits]}


def _merge_check(replies: list, p: dict) -> dict:
    return {
        key: sorted({path for r in replies for path in r[key]})
        for key in replies[0]
    }


_NAME = ("name",)

#: Every unary op, by name.  Only ``reindex`` (it decodes every GOP of
#: the video) and ``check`` (it reads every GOP file's header) are
#: admitted; ``search`` is pure index work and skips admission like the
#: catalog ops do.
OPS: dict[str, Op] = {
    op.name: op
    for op in (
        Op("ping", _ping, "local", decode=itemgetter("pong")),
        Op("metrics", _metrics, "local", rest="GET /metrics"),
        Op("create", _create, "all", _NAME, {"budget_bytes": 0},
           rest="POST /v1/videos", decode=lambda r: LogicalVideo(**r)),
        Op("delete", _delete, "all", _NAME, {"force": False},
           rest="DELETE /v1/videos/<name>", decode=lambda r: None),
        Op("exists", _exists, "any", _NAME, rest="GET /v1/videos/<name>",
           decode=itemgetter("exists")),
        Op("list_videos", _list_videos, "scatter", (), {"kind": "all"},
           rest="GET /v1/videos", merge=_merge_videos,
           decode=itemgetter("videos")),
        Op("video_stats", _video_stats, "any", _NAME,
           rest="GET /v1/videos/<name>/stats", decode=stats_from_dict),
        Op("create_view", _create_view, "all", ("name", "spec"),
           rest="POST /v1/views", key=_key_view_parent,
           decode=view_record_from_dict),
        Op("get_view", _get_view, "any", _NAME, rest="GET /v1/views/<name>",
           decode=view_record_from_dict),
        Op("list_views", _list_views, "scatter", rest="GET /v1/views",
           merge=_merge_views,
           decode=lambda r: [view_record_from_dict(v) for v in r["views"]]),
        Op("delete_view", _delete_view, "all", _NAME, {"force": False},
           rest="DELETE /v1/views/<name>", decode=lambda r: None),
        Op("search", _search, "scatter", ("query",), rest="POST /v1/search",
           body="query", merge=_merge_hits,
           decode=lambda r: [search_hit_from_dict(h) for h in r["hits"]]),
        Op("reindex", _reindex, "all", _NAME, admitted=True,
           rest="POST /v1/reindex", decode=itemgetter("indexed_gops")),
        Op("check", _check, "scatter", admitted=True, rest="GET /v1/check",
           merge=_merge_check, whole=True),
    )
}


# ----------------------------------------------------------------------
# the data plane
# ----------------------------------------------------------------------
def reply_frames(document: dict) -> Iterator[list]:
    """A one-frame answer: ``document`` as a ``REPLY``."""
    yield encode_frame(FRAME_REPLY, document)


def _stream_frames(stream) -> Iterator[list]:
    """A read stream's answer: each chunk's frame, then the ``END``.

    :func:`_read` runs it to the first ``yield`` before handing it out,
    so ``close()`` reaches the ``finally`` (and closes the stream) even
    when no frame was ever taken.
    """
    try:
        yield []
        for chunk in stream:
            yield chunk_frame(chunk)
        yield stream_end_frame(stream.stats)
    finally:
        stream.close()


def _read(service, header: dict, payload) -> Iterator[list]:
    frames = _stream_frames(service.session.read_stream(decode_read(header)))
    next(frames)
    return frames


def _read_batch(service, header: dict, payload) -> Iterator[list]:
    results, batch = service.engine.read_batch(decode_read_batch(header))
    return batch_frames(results, batch)


def _write(service, header: dict, payload) -> Iterator[list]:
    spec, segment = decode_write(header, payload)
    return reply_frames(
        dataclasses.asdict(service.engine.write(spec, segment=segment))
    )


#: The payload-carrying ops, by name (module docs).  All three are
#: admitted.
DATA_OPS: dict[str, Callable[[object, dict, object], Iterator[list]]] = {
    "read": _read,
    "read_batch": _read_batch,
    "write": _write,
}


def match_route(method: str, path: str) -> tuple[Op, dict] | None:
    """The op bound to ``method path`` plus its path params, if any.

    Segments are compared after splitting the *quoted* path, so a video
    name containing ``/`` (sent percent-encoded) stays one segment and
    can never collide with a route suffix like ``/stats``.
    """
    parts = [unquote(part) for part in path.split("/") if part]
    for op in OPS.values():
        if op.method != method or len(op.segments) != len(parts):
            continue
        params = {}
        for segment, part in zip(op.segments, parts):
            if segment.startswith("<"):
                params[segment[1:-1]] = part
            elif segment != part:
                break
        else:
            return op, params
    return None
