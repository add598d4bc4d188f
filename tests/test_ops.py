"""The service-op table: transport parity and documentation drift.

Every entry of :data:`repro.core.ops.OPS` is driven through both
clients' ``_rpc`` against **one** engine fronted by a ``VSSServer`` and
a ``VSSBinaryServer`` at once; the two replies must be equal.  A second
test pins ``docs/api.md`` to the table, so neither can drift.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.client import VSSBinaryClient, VSSClient
from repro.core.engine import VSSEngine
from repro.core.ops import OPS
from repro.core.specs import ViewSpec
from repro.core.wire import search_query_to_dict, view_spec_to_dict
from repro.errors import VSSError
from repro.server import VSSBinaryServer, VSSServer

_VIEW = view_spec_to_dict(ViewSpec(over="traffic", start=0.5, end=2.0))

#: One request per table op, against a store holding the video
#: ``traffic`` and the view ``clip``.  Mutating ops are undone between
#: the two transports by ``_RESTORE`` so both see the same state.
EXAMPLES: dict[str, dict] = {
    "ping": {},
    "metrics": {},
    "create": {"name": "fresh", "budget_bytes": 4096},
    "delete": {"name": "scratch", "force": True},
    "exists": {"name": "clip"},
    "list_videos": {"kind": "view"},
    "video_stats": {"name": "traffic"},
    "create_view": {"name": "fresh", "spec": _VIEW},
    "get_view": {"name": "clip"},
    "list_views": {},
    "delete_view": {"name": "clip", "force": False},
    "search": {"query": search_query_to_dict(text="car", limit=5)},
    "reindex": {"name": "traffic"},
}

_RESTORE = {
    "create": lambda engine: engine.delete("fresh"),
    "create_view": lambda engine: engine.delete("fresh"),
    "delete": lambda engine: engine.create("scratch"),
    "delete_view": lambda engine: engine.create_view(
        "clip", ViewSpec(over="traffic", start=0.5, end=2.0)
    ),
}

#: Reply fields that legitimately differ between two calls: the catalog
#: row id and creation stamp of a re-created object, and the metrics
#: documents (each server's own gauges, the engine's moving counters) —
#: for those only the key sets are compared.
_VOLATILE = {
    "create": {"id"},
    "create_view": {"id", "created_at"},
    "metrics": {"engine", "server"},
}


@pytest.fixture()
def fronted(tmp_path, calibration, three_second_clip):
    engine = VSSEngine(tmp_path / "store", calibration=calibration)
    engine.session().write(
        "traffic", three_second_clip, codec="h264", qp=10, gop_size=30
    )
    engine.create_view("clip", ViewSpec(over="traffic", start=0.5, end=2.0))
    engine.create("scratch")
    with VSSServer(engine=engine) as http, VSSBinaryServer(
        engine=engine
    ) as binary:
        with VSSClient(*http.address) as over_http, VSSBinaryClient(
            *binary.address
        ) as over_binary:
            yield engine, over_http, over_binary
    engine.close()


def test_every_op_has_an_example():
    assert set(EXAMPLES) == set(OPS)


@pytest.mark.parametrize("name", sorted(OPS))
def test_both_transports_answer_alike(fronted, name):
    engine, over_http, over_binary = fronted
    params = EXAMPLES[name]
    binary_reply = over_binary._rpc(name, params)
    if OPS[name].rest is None:
        # Binary-only (liveness is GET /healthz over HTTP).
        with pytest.raises(VSSError, match="no HTTP route"):
            over_http._rpc(name, params)
        return
    if name in _RESTORE:
        _RESTORE[name](engine)
    http_reply = over_http._rpc(name, params)
    assert set(http_reply) == set(binary_reply)
    for key, value in binary_reply.items():
        if key not in _VOLATILE.get(name, ()):
            assert http_reply[key] == value, key
        elif isinstance(value, dict):
            assert set(http_reply[key]) == set(value), key


def test_docs_list_every_op_and_route():
    """docs/api.md names each table op and its REST route template."""
    docs = (Path(__file__).parent.parent / "docs" / "api.md").read_text()
    for op in OPS.values():
        assert f"`{op.name}`" in docs, f"op {op.name!r} missing from docs"
        if op.rest is not None:
            assert op.rest in docs, f"route {op.rest!r} missing from docs"
