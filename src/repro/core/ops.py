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

The payload-carrying ops (``read``, ``read_batch``, ``write``) stream
pixels and are framed by each transport itself; they only share the
reply serializers below.  Adding a unary op costs one entry here plus
its engine and client methods.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Callable
from urllib.parse import parse_qs, quote, unquote, urlencode

from repro.core.wire import (
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
@dataclasses.dataclass
class Op:
    """One unary operation (see the module docs for each field)."""

    name: str
    run: Callable[[object, dict], dict]
    required: tuple[str, ...] = ()
    optional: dict = dataclasses.field(default_factory=dict)
    admitted: bool = False
    rest: str | None = None
    body: str | None = None
    #: ``rest`` split once: HTTP method and the path's segments.
    method: str | None = dataclasses.field(init=False, default=None)
    segments: tuple[str, ...] = dataclasses.field(init=False, default=())

    def __post_init__(self) -> None:
        if self.rest is not None:
            self.method, path = self.rest.split(" ")
            self.segments = tuple(path.strip("/").split("/"))

    def __call__(self, service, params: dict) -> dict:
        """Validate ``params``, fill defaults, run against ``service``."""
        for key in self.required:
            if key not in params:
                raise WireError(f"op {self.name!r} requires {key!r}")
        return self.run(service, {**self.optional, **params})

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


_NAME = ("name",)

#: Every unary op, by name.  Only ``reindex`` is admitted (it decodes
#: every GOP of the video); ``search`` is pure index work and skips
#: admission like the catalog ops do.
OPS: dict[str, Op] = {
    op.name: op
    for op in (
        Op("ping", _ping),
        Op("metrics", _metrics, rest="GET /metrics"),
        Op("create", _create, _NAME, {"budget_bytes": 0},
           rest="POST /v1/videos"),
        Op("delete", _delete, _NAME, {"force": False},
           rest="DELETE /v1/videos/<name>"),
        Op("exists", _exists, _NAME, rest="GET /v1/videos/<name>"),
        Op("list_videos", _list_videos, (), {"kind": "all"},
           rest="GET /v1/videos"),
        Op("video_stats", _video_stats, _NAME,
           rest="GET /v1/videos/<name>/stats"),
        Op("create_view", _create_view, ("name", "spec"),
           rest="POST /v1/views"),
        Op("get_view", _get_view, _NAME, rest="GET /v1/views/<name>"),
        Op("list_views", _list_views, rest="GET /v1/views"),
        Op("delete_view", _delete_view, _NAME, {"force": False},
           rest="DELETE /v1/views/<name>"),
        Op("search", _search, ("query",), rest="POST /v1/search",
           body="query"),
        Op("reindex", _reindex, _NAME, admitted=True,
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
