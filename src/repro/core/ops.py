"""The service-op table: every unary control-plane operation, defined once.

Both servers and both clients dispatch through :data:`OPS`.  One
:class:`Op` entry carries everything the four of them need:

* the **name** — the binary ``"op"`` value and the client's logical
  operation name;
* the **params** — ``required`` names (a request missing one fails with
  the same :class:`WireError` on either transport) and ``optional``
  names with their defaults;
* ``run(service, params) -> dict`` — parse params, make one engine
  call, build the reply dict.  ``service`` is whichever server fronts
  the engine; it exposes ``.engine`` and ``.gauges``;
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
  shard reply dicts into one.  ``key(params)`` names the video whose
  ring placement decides the replicas (default ``params["name"]``).
  Validating params is ``run``'s job, on the shard: the router hands a
  shard's error reply back as it came.

The one seam is :meth:`Op.__call__`: an engine that defines
``run_op(op, params)`` (the router's :class:`ClusterEngine`) is handed
every non-``local`` op after validation; any other engine gets
``run``.  The router forwards the declared params to the shards'
``_rpc`` and returns their reply dicts untouched.

The payload-carrying ops (``read``, ``read_batch``, ``write``) stream
pixels as the binary frames of :mod:`repro.core.wire`, the same on both
transports; of this module they use only ``physical_to_dict``.  Adding
a unary op costs one entry here plus
its engine and client methods — the router serves it unedited.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Callable
from urllib.parse import parse_qs, quote, unquote, urlencode

from repro.core.wire import (
    search_hit_from_dict,
    search_hit_to_dict,
    search_query_from_dict,
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
    }


def view_record_to_dict(record) -> dict:
    return {
        "name": record.name,
        "id": record.id,
        "over": record.over,
        "created_at": record.created_at,
        "spec": view_spec_to_dict(record.spec),
    }


def physical_to_dict(physical) -> dict:
    return {
        "physical_id": physical.id,
        "codec": physical.codec,
        "width": physical.width,
        "height": physical.height,
        "fps": physical.fps,
        "start_time": physical.start_time,
        "end_time": physical.end_time,
    }


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
    return as_plain_dict(service.engine.video_stats(p["name"]))


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


_NAME = ("name",)

#: Every unary op, by name.  Only ``reindex`` is admitted (it decodes
#: every GOP of the video); ``search`` is pure index work and skips
#: admission like the catalog ops do.
OPS: dict[str, Op] = {
    op.name: op
    for op in (
        Op("ping", _ping, "local"),
        Op("metrics", _metrics, "local", rest="GET /metrics"),
        Op("create", _create, "all", _NAME, {"budget_bytes": 0},
           rest="POST /v1/videos"),
        Op("delete", _delete, "all", _NAME, {"force": False},
           rest="DELETE /v1/videos/<name>"),
        Op("exists", _exists, "any", _NAME, rest="GET /v1/videos/<name>"),
        Op("list_videos", _list_videos, "scatter", (), {"kind": "all"},
           rest="GET /v1/videos", merge=_merge_videos),
        Op("video_stats", _video_stats, "any", _NAME,
           rest="GET /v1/videos/<name>/stats"),
        Op("create_view", _create_view, "all", ("name", "spec"),
           rest="POST /v1/views", key=_key_view_parent),
        Op("get_view", _get_view, "any", _NAME, rest="GET /v1/views/<name>"),
        Op("list_views", _list_views, "scatter", rest="GET /v1/views",
           merge=_merge_views),
        Op("delete_view", _delete_view, "all", _NAME, {"force": False},
           rest="DELETE /v1/views/<name>"),
        Op("search", _search, "scatter", ("query",), rest="POST /v1/search",
           body="query", merge=_merge_hits),
        Op("reindex", _reindex, "all", _NAME, admitted=True,
           rest="POST /v1/reindex"),
    )
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
