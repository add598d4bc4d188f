"""The service-op table: transport parity, routing and documentation drift.

Every entry of :data:`repro.core.ops.OPS` is driven through both
clients' ``_rpc`` against **one** engine fronted by a ``VSSServer`` and
a ``VSSBinaryServer`` at once, and through both ports of a
``VSSRouter`` over two shards holding copies of the same store; all
four replies must be equal.  The data plane gets the same treatment:
the frames answering a ``read``, ``read_batch`` or ``write`` are the
same on all four endpoints.  Another test pins ``docs/api.md`` to the table, so
neither can drift.
"""

from __future__ import annotations

import logging
import shutil
from contextlib import ExitStack
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.client import VSSBinaryClient, VSSClient
from repro.cluster import VSSRouter
from repro.core.engine import VSSEngine
from repro.core.ops import DATA_OPS, OPS, Op
from repro.core.specs import ReadSpec, ViewSpec, WriteSpec
from repro.core.wire import (
    FRAME_END,
    FRAME_ERROR,
    FRAME_GOPS,
    FRAME_REPLY,
    FRAME_RESULT_GOPS,
    FRAME_RESULT_SEGMENT,
    FRAME_SEGMENT,
    read_spec_to_dict,
    search_query_to_dict,
    segment_payload_view,
    segment_to_meta,
    view_spec_to_dict,
    write_spec_to_dict,
)
from repro.errors import (
    CatalogError,
    ShardUnavailableError,
    VSSError,
    WireError,
)
from repro.server import VSSBinaryServer, VSSServer
from repro.video.frame import blank_segment

_VIEW = view_spec_to_dict(ViewSpec(over="traffic", start=0.5, end=2.0))

#: One request per table op, against a store holding the video
#: ``traffic`` and the view ``clip``.  Mutating ops are undone between
#: the two transports by ``_RESTORE`` (given the engine, or a client of
#: the router) so both see the same state.
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
    "check": {},
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
    """One engine behind both servers, and a router over two shards.

    The three stores are copies of one template, so catalog ids, stamps
    and index rows agree and a routed reply can be held against the
    direct one under the same ``_VOLATILE`` rules.  The router learns
    ``clip`` from its shards at start-up, as a restarted router would.
    """
    template = VSSEngine(tmp_path / "template", calibration=calibration)
    template.session().write(
        "traffic", three_second_clip, codec="h264", qp=10, gop_size=30
    )
    template.create_view("clip", ViewSpec(over="traffic", start=0.5, end=2.0))
    template.create("scratch")
    template.close()
    with ExitStack() as stack:
        engines = []
        for store in ("store", "shard0", "shard1"):
            shutil.copytree(tmp_path / "template", tmp_path / store)
            engines.append(
                VSSEngine(tmp_path / store, calibration=calibration)
            )
            stack.callback(engines[-1].close)
        engine, *shard_engines = engines
        http = stack.enter_context(VSSServer(engine=engine))
        binary = stack.enter_context(VSSBinaryServer(engine=engine))
        shards = [
            stack.enter_context(VSSBinaryServer(engine=e))
            for e in shard_engines
        ]
        router = stack.enter_context(
            VSSRouter(
                [f"{s.address[0]}:{s.address[1]}" for s in shards],
                replication=2,
                probe_interval=30.0,
            )
        )
        yield SimpleNamespace(
            engine=engine,
            shard_engines=shard_engines,
            shards=shards,
            router=router,
            over_http=stack.enter_context(VSSClient(*http.address)),
            over_binary=stack.enter_context(VSSBinaryClient(*binary.address)),
            routed_http=stack.enter_context(
                VSSClient(*router.http_address)
            ),
            routed_binary=stack.enter_context(
                VSSBinaryClient(*router.address)
            ),
        )


def test_every_op_has_an_example():
    assert set(EXAMPLES) == set(OPS)


def _assert_alike(name: str, reply: dict, reference: dict) -> None:
    assert set(reply) == set(reference)
    for key, value in reference.items():
        if key not in _VOLATILE.get(name, ()):
            assert reply[key] == value, key
        elif isinstance(value, dict):
            assert set(reply[key]) == set(value), key


@pytest.mark.parametrize("name", sorted(OPS))
def test_both_transports_answer_alike(fronted, name):
    """direct binary == direct HTTP == routed binary == routed HTTP."""
    params = EXAMPLES[name]
    direct = fronted.over_binary._rpc(name, params)
    routed = fronted.routed_binary._rpc(name, params)
    if name != "metrics":
        # The router's engine document is the cluster's, not a store's;
        # its key set is held against the routed HTTP reply below.
        _assert_alike(name, routed, direct)
    if OPS[name].rest is None:
        # Binary-only (liveness is GET /healthz over HTTP).
        for client in (fronted.over_http, fronted.routed_http):
            with pytest.raises(VSSError, match="no HTTP route"):
                client._rpc(name, params)
        return
    if name in _RESTORE:
        _RESTORE[name](fronted.engine)
        _RESTORE[name](fronted.routed_binary)
    _assert_alike(name, fronted.over_http._rpc(name, params), direct)
    _assert_alike(name, fronted.routed_http._rpc(name, params), routed)


_RAW = ReadSpec(
    "traffic", 0.2, 2.8, codec="raw", cache=False, resolution=(32, 18)
)
_STORED = ReadSpec("traffic", 0.0, 3.0, codec="h264", qp=10, cache=False)
_INGEST = blank_segment(30, 18, 32, fps=30.0, fill=90)

#: One data-plane request per case: op, params, the frame types of the
#: answer and, for a write, the request payload.  ``_STORED`` is served
#: from the stored bytes.  A write's video is deleted after each answer,
#: so every endpoint writes it afresh.
DATA_PLANE: dict[str, tuple] = {
    "raw read": (
        "read", {"spec": read_spec_to_dict(_RAW)},
        [FRAME_SEGMENT] * 3 + [FRAME_END],
    ),
    "direct-serve read": (
        "read", {"spec": read_spec_to_dict(_STORED)},
        [FRAME_GOPS] * 3 + [FRAME_END],
    ),
    "batch": (
        "read_batch",
        {
            "specs": [
                read_spec_to_dict(spec)
                for spec in (_RAW, _STORED, _RAW.replace(start=1.0, end=2.0))
            ]
        },
        [FRAME_RESULT_SEGMENT, FRAME_RESULT_GOPS, FRAME_RESULT_SEGMENT,
         FRAME_END],
    ),
    "missing-video read": (
        "read", {"spec": read_spec_to_dict(_RAW.replace(name="ghost"))},
        [FRAME_ERROR],
    ),
    "missing-video batch": (
        "read_batch",
        {"specs": [read_spec_to_dict(_RAW.replace(name="ghost"))]},
        [FRAME_ERROR],
    ),
    "write": (
        "write",
        {
            "spec": write_spec_to_dict(
                WriteSpec("ingest", codec="h264", qp=10, gop_size=15)
            ),
            "segment": segment_to_meta(_INGEST),
        },
        [FRAME_REPLY],
        bytes(segment_payload_view(_INGEST)),
    ),
    "malformed read": (
        "read",
        {
            "spec": {
                key: value
                for key, value in read_spec_to_dict(_RAW).items()
                if key != "end"
            }
        },
        [FRAME_ERROR],
    ),
}

#: Header fields that differ between two equal answers: a write's
#: physical id (ids are never recycled, so each fresh write gets a new
#: one).
_FRESH = {"physical_id"}


def _untimed(header):
    """A frame header without its wall-clock fields and fresh ids, at
    any depth."""
    if isinstance(header, dict):
        return {
            key: _untimed(value)
            for key, value in header.items()
            if not key.endswith("_seconds") and key not in _FRESH
        }
    return header


@pytest.mark.parametrize("case", sorted(DATA_PLANE))
def test_both_transports_answer_with_the_same_frames(
    fronted, raw_answer, case
):
    """The de-chunked HTTP body and the bytes on a binary connection
    parse to one frame sequence — types, headers (timings aside) and
    payload bytes — at a single server and through a router; an HTTP
    failure before the first frame carries, as its JSON body, the
    envelope the binary transport frames."""
    op, params, types, *payload = DATA_PLANE[case]

    def answer(transport: str, client) -> list:
        frames = list(
            raw_answer(
                transport, (client.host, client.port), op, params, *payload
            ).frames()
        )
        assert [frame[0] for frame in frames] == types
        if op == "write":
            client.delete(params["spec"]["name"])
        return [(t, _untimed(header), data) for t, header, data in frames]

    # Once unrecorded, so every recorded answer comes from warm caches
    # and reports the same decode-cache and plan-cache counters.
    answer("binary", fronted.over_binary)
    answer("binary", fronted.routed_binary)
    direct = answer("binary", fronted.over_binary)
    assert answer("http", fronted.over_http) == direct
    routed = answer("binary", fronted.routed_binary)
    assert answer("http", fronted.routed_http) == routed
    # The shards are copies of the direct store: same pixels and bytes.
    assert [(t, data) for t, _, data in routed] == [
        (t, data) for t, _, data in direct
    ]


def _fails_alike(fronted, name: str, params: dict) -> None:
    with pytest.raises(WireError) as at_shard:
        fronted.over_binary._rpc(name, params)
    with pytest.raises(WireError) as at_router:
        fronted.routed_binary._rpc(name, params)
    assert str(at_router.value) == str(at_shard.value)


def test_a_missing_param_fails_at_the_router_as_at_a_shard(fronted):
    """Same ``WireError`` text as a shard gives, and no shard is asked."""
    counters = fronted.router.engine.counters.snapshot()
    for op in OPS.values():
        for key in op.required:
            _fails_alike(
                fronted,
                op.name,
                {k: v for k, v in EXAMPLES[op.name].items() if k != key},
            )
    assert fronted.router.engine.counters.snapshot() == counters


@pytest.mark.parametrize(
    "name, params",
    [
        ("search", {"query": {"text": "car"}}),
        ("create_view", {"name": "bad", "spec": {"over": "traffic"}}),
        ("create_view", {"name": "bad", "spec": {"start": 0.5}}),
    ],
)
def test_a_shard_answering_wire_error_is_not_a_dead_shard(
    fronted, name, params
):
    """Malformed structured params fail with a shard's own ``WireError``
    text.  The search query is faulted by the shards' ``run`` (the view
    specs already by the placement key's parse): the answer comes back
    as it was, the shards stay up, nothing counts as a partial mutation.
    """
    _fails_alike(fronted, name, params)
    cluster = fronted.router.engine
    assert all(shard.up for shard in cluster.shards)
    assert cluster.counters.snapshot()["partial_mutations"] == 0
    assert cluster.counters.snapshot()["failovers"] == 0


def test_router_counters_for_a_fixed_sequence(fronted, three_second_clip):
    """Every table op once, plus one write, stream read and batch: the
    ``router`` counters document the parent commit produced, with
    ``partial_mutations`` the one new key."""
    client = fronted.routed_binary
    for name in sorted(OPS):
        client._rpc(name, EXAMPLES[name])
        if name in _RESTORE:
            _RESTORE[name](client)
    client.write("scratch", three_second_clip, codec="h264", qp=10, gop_size=30)
    client.read("traffic", 0.0, 1.0, codec="raw")
    client.read_batch([client.read_spec("traffic", 0.0, 1.0, codec="raw")])
    assert client.metrics()["engine"]["router"] == {
        "reads_routed": 1,
        "batches_routed": 1,
        "writes_routed": 1,
        # The start-up view sync, 11 routed table ops (search has its
        # own counter), 4 restores and the write.
        "catalog_ops": 17,
        "searches_routed": 1,
        "failovers": 0,
        "partial_mutations": 0,
    }


def test_routed_check_is_the_union_of_the_shards_reports(fronted):
    """An orphan planted on one shard, another outside every video on
    the other: the router's report is both shards' reports merged."""
    planted = ["videos/traffic/999/0.gop", "videos/gone/1/0.gop"]
    for engine, path in zip(fronted.shard_engines, planted):
        (engine.layout.root / path).parent.mkdir(parents=True)
        (engine.layout.root / path).write_bytes(b"not a gop")
    reports = [engine.check() for engine in fronted.shard_engines]
    assert [r["orphans"] for r in reports] == [[p] for p in planted]
    union = {
        key: sorted({path for r in reports for path in r[key]})
        for key in reports[0]
    }
    assert fronted.routed_binary.check() == union
    assert fronted.routed_http.check() == union
    assert union["orphans"] == sorted(planted)


def test_router_serves_a_new_table_op_unedited(fronted, monkeypatch):
    """One ``OPS`` entry is all a new unary op costs the router — its
    ``run`` validates on the shard like any other, at no shard's cost."""

    def served_by(service, p: dict) -> dict:
        if not p["name"].islower():
            raise WireError(f"name must be lower case, got {p['name']!r}")
        return {"name": p["name"], "engine": type(service.engine).__name__}

    monkeypatch.setitem(
        OPS, "served_by", Op("served_by", served_by, "any", ("name",))
    )
    reply = fronted.routed_binary._rpc("served_by", {"name": "traffic"})
    assert reply == {"name": "traffic", "engine": "VSSEngine"}
    with pytest.raises(WireError, match="name must be lower case, got 'Traffic'"):
        fronted.routed_binary._rpc("served_by", {"name": "Traffic"})
    assert all(shard.up for shard in fronted.router.engine.shards)


def test_an_op_must_say_where_it_runs():
    def run(service, params):
        return {}

    with pytest.raises(TypeError):
        Op("nowhere", run)
    with pytest.raises(ValueError, match="placement"):
        Op("elsewhere", run, "everywhere")
    with pytest.raises(ValueError, match="merge"):
        Op("unmerged", run, "scatter")
    with pytest.raises(ValueError, match="whole"):
        Op("everywhere", run, "any", whole=True)


def test_partial_mutation_is_counted_and_logged(fronted, caplog):
    """A mutation that applied on one replica and failed on the next
    raises what it always raised, and now leaves a record."""
    cluster = fronted.router.engine

    def backend(shard) -> int:
        """Which of ``fronted.shards`` a router-side shard stands for."""
        return [s.address for s in fronted.shards].index(shard.address)

    first, second = cluster._placement("x")
    fronted.shard_engines[backend(second)].create("x")
    with caplog.at_level(logging.WARNING, logger="repro.cluster"):
        with pytest.raises(CatalogError):
            fronted.routed_binary.create("x")
    assert cluster.counters.snapshot()["partial_mutations"] == 1
    (record,) = caplog.records
    message = record.getMessage()
    assert "create 'x'" in message
    assert f"applied on {first.name}" in message
    assert f"failed on {second.name}" in message

    # The same record for a replica that dies instead of answering.
    # Which shard comes second depends on the name (and on this run's
    # ephemeral ports), so ask the ring before closing it.
    applied, dying = cluster._placement("y")
    fronted.shards[backend(dying)].close()
    with pytest.raises(ShardUnavailableError, match=applied.name) as info:
        fronted.routed_binary.create("y")
    assert info.value.shard == dying.name
    assert cluster.counters.snapshot()["partial_mutations"] == 2


def test_docs_list_every_op_and_route():
    """docs/api.md names each table op, its REST route template and —
    in the "Request routing" table — its placement and merge, and lists
    each payload op's route."""
    docs = (Path(__file__).parent.parent / "docs" / "api.md").read_text()
    for op in OPS.values():
        assert f"`{op.name}`" in docs, f"op {op.name!r} missing from docs"
        if op.rest is not None:
            assert op.rest in docs, f"route {op.rest!r} missing from docs"
        merge = f"`{op.merge.__name__}`" if op.merge else "—"
        row = f"| `{op.name}` | `{op.placement}` | {merge} |"
        assert row in docs, f"routing row {row!r} missing from docs"
    for name in DATA_OPS:
        assert f"| `POST /v1/{name}` |" in docs, f"data op {name!r} missing"
