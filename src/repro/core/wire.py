"""Wire protocol: lossless JSON-dict forms of specs, stats, and errors.

Specs *are* the wire protocol of the service layer (:mod:`repro.server`,
:mod:`repro.client`): a client serializes a :class:`ReadSpec` with
:func:`read_spec_to_dict`, ships it as JSON, and the server rebuilds the
identical spec with :func:`read_spec_from_dict` — construction-time
validation runs again on the server, so a hand-crafted payload cannot
smuggle in a state no in-process caller could build.

Conversion rules, chosen so ``from_dict(json.loads(json.dumps(to_dict(s))))
== s`` holds for every constructible spec (property-tested in
``tests/test_wire.py``):

* every field is present in the dict, ``None`` included — absence is
  always an error, never a default;
* tuple fields (``resolution``, ``roi``) become JSON arrays and are
  rebuilt as tuples of ints;
* unknown keys are rejected with :class:`WireError` (a typo'd field must
  not silently fall back to a default on the other side of the wire).

The module also frames the non-spec halves of a service conversation:
:class:`ReadStats` dicts, raw :class:`VideoSegment` header/payload pairs,
and error envelopes that rebuild the *same* exception class on the
client that the engine raised on the server.

Two transports share these forms.  The unary control-plane ops travel
as JSON bodies over HTTP and as ``REQUEST``/``REPLY`` frames over the
binary service; the **data plane** (``read``, ``read_batch``, ``write``)
is the same length-prefixed **binary frames** on both — an HTTP body is
exactly the frame sequence a binary connection carries — see
:func:`encode_frame` / :func:`parse_frame`, the conversation builders at
the end of this module, and the byte-for-byte layout in ``docs/api.md``.
A frame is::

    u32  length        big-endian; bytes that follow (type + header + payload)
    u8   type          one of the FRAME_* constants
    u32  header_len    big-endian
    ...  header        header_len bytes of compact UTF-8 JSON
    ...  payload       (length - 5 - header_len) raw bytes

The same dict forms above travel in the JSON header; bulk pixel/GOP bytes
travel in the payload, untouched.  Encoding returns the payload buffer
as-is, so a sender that writes the buffer list with one vectored write
(the binary server's ``os.writev``) copies nothing.  A receiver copies
once: :func:`read_frame` reads each body off the socket into a fresh
writable array, and :func:`parse_frame` returns the payload as a
:class:`memoryview` slice of it, so ``np.frombuffer`` rebuilds writable
pixels without another copy.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import struct

import numpy as np

from repro import errors as _errors
from repro.core.reader import ReadStats
from repro.core.specs import ReadSpec, ViewSpec, WriteSpec
from repro.errors import ServerBusyError, VSSError, WireError
from repro.video.codec.container import decode_container, encode_container
from repro.video.frame import VideoSegment, pixel_format

#: Tuple-valued ReadSpec/ViewSpec fields that cross the wire as JSON arrays.
_TUPLE_FIELDS = ("resolution", "roi")

_READ_FIELDS = tuple(f.name for f in dataclasses.fields(ReadSpec))
_WRITE_FIELDS = tuple(f.name for f in dataclasses.fields(WriteSpec))
_VIEW_FIELDS = tuple(f.name for f in dataclasses.fields(ViewSpec))
_STATS_FIELDS = tuple(f.name for f in dataclasses.fields(ReadStats))


def _check_keys(data, expected: tuple[str, ...], what: str) -> None:
    if not isinstance(data, dict):
        raise WireError(f"{what} payload must be a dict, got {type(data).__name__}")
    unknown = sorted(set(data) - set(expected))
    if unknown:
        raise WireError(f"unknown {what} key(s) {unknown}")
    missing = sorted(set(expected) - set(data))
    if missing:
        raise WireError(f"missing {what} key(s) {missing}")


def _int_tuple(field_name: str, value):
    if value is None:
        return None
    if not isinstance(value, (list, tuple)):
        raise WireError(f"{field_name} must be an array or null, got {value!r}")
    try:
        return tuple(int(v) for v in value)
    except (TypeError, ValueError) as exc:
        raise WireError(f"malformed {field_name} {value!r}: {exc}") from None


# ----------------------------------------------------------------------
# specs
# ----------------------------------------------------------------------
def _spec_to_dict(spec: ReadSpec | ViewSpec) -> dict:
    """A :class:`ReadSpec` or :class:`ViewSpec` as a JSON-serializable
    dict (all fields, with ``resolution``/``roi`` as arrays and ``None``
    kept explicit)."""
    data = dataclasses.asdict(spec)
    for field_name in _TUPLE_FIELDS:
        if data[field_name] is not None:
            data[field_name] = list(data[field_name])
    return data


def _spec_from_dict(cls, fields: tuple[str, ...], what: str):
    """The inverse of :func:`_spec_to_dict` for ``cls``: unknown/missing
    keys raise :class:`WireError`, invalid values raise the spec's own
    errors."""

    def from_dict(data: dict):
        """Rebuild the spec from its dict (see :func:`_spec_from_dict`)."""
        _check_keys(data, fields, what)
        values = dict(data)
        for field_name in _TUPLE_FIELDS:
            values[field_name] = _int_tuple(field_name, values[field_name])
        return cls(**values)

    return from_dict


read_spec_to_dict = view_spec_to_dict = _spec_to_dict
read_spec_from_dict = _spec_from_dict(ReadSpec, _READ_FIELDS, "ReadSpec")
view_spec_from_dict = _spec_from_dict(ViewSpec, _VIEW_FIELDS, "ViewSpec")


def write_spec_to_dict(spec: WriteSpec) -> dict:
    """A :class:`WriteSpec` as a JSON-serializable dict."""
    return dataclasses.asdict(spec)


def write_spec_from_dict(data: dict) -> WriteSpec:
    """Rebuild a :class:`WriteSpec`; unknown/missing keys raise
    :class:`WireError`."""
    _check_keys(data, _WRITE_FIELDS, "WriteSpec")
    return WriteSpec(**data)


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------
def read_stats_to_dict(stats: ReadStats) -> dict:
    """A :class:`ReadStats` as a JSON-serializable dict.

    ``ReadStats`` is flat scalars plus two lists of scalars, so a
    shallow copy is enough; ``dataclasses.asdict``'s recursive
    deep-copy walk costs ~0.1 ms per call, which the servers pay on
    every streamed read's end-of-stream frame.
    """
    data = dict(vars(stats))
    data["gop_ids_touched"] = list(stats.gop_ids_touched)
    data["view_chain"] = list(stats.view_chain)
    return data


def read_stats_from_dict(data: dict) -> ReadStats:
    """Rebuild a :class:`ReadStats` from :func:`read_stats_to_dict`."""
    _check_keys(data, _STATS_FIELDS, "ReadStats")
    return ReadStats(**data)


# ----------------------------------------------------------------------
# tile grids
# ----------------------------------------------------------------------
_TILE_GRID_KEYS = ("rows", "cols", "row_cuts", "col_cuts")


def tile_grid_to_dict(grid) -> dict:
    """A :class:`repro.tiles.TileGrid` as a JSON-serializable dict.

    This is also the grid's persistent form in the catalog's
    ``tile_groups`` table, so it must stay lossless across releases.
    """
    return {
        "rows": grid.rows,
        "cols": grid.cols,
        "row_cuts": list(grid.row_cuts),
        "col_cuts": list(grid.col_cuts),
    }


def tile_grid_from_dict(data: dict):
    """Rebuild a :class:`TileGrid`; unknown/missing keys raise
    :class:`WireError`, invalid geometry raises the grid's own errors."""
    from repro.tiles.grid import TileGrid

    _check_keys(data, _TILE_GRID_KEYS, "TileGrid")
    for field_name in ("row_cuts", "col_cuts"):
        if not isinstance(data[field_name], (list, tuple)):
            raise WireError(
                f"{field_name} must be an array, got {data[field_name]!r}"
            )
    try:
        rows = int(data["rows"])
        cols = int(data["cols"])
        row_cuts = tuple(int(v) for v in data["row_cuts"])
        col_cuts = tuple(int(v) for v in data["col_cuts"])
    except (TypeError, ValueError) as exc:
        raise WireError(f"malformed TileGrid: {exc}") from None
    return TileGrid(
        rows=rows, cols=cols, row_cuts=row_cuts, col_cuts=col_cuts
    )


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------
_SEARCH_QUERY_KEYS = ("text", "like", "limit", "min_score")
_SEARCH_HIT_KEYS = (
    "name",
    "gop_seq",
    "start_time",
    "end_time",
    "score",
    "labels",
    "source",
)


def search_query_to_dict(
    text: str | None = None,
    like=None,
    limit: int = 10,
    min_score: float = 0.0,
) -> dict:
    """An ``engine.search`` call as a wire dict.

    ``like`` crosses the wire as a plain array of floats — clients turn
    images into query vectors *client-side*
    (:func:`repro.search.query.like_to_vector`), so the servers never
    grow an image-decoding surface and the vector's length alone names
    the search space (64 = histogram, 128 = embedding).
    """
    if like is not None:
        arr = np.asarray(like, dtype=np.float64).reshape(-1)
        like = [float(v) for v in arr]
    return {
        "text": text,
        "like": like,
        "limit": int(limit),
        "min_score": float(min_score),
    }


def search_query_from_dict(data: dict) -> dict:
    """Rebuild :func:`search_query_to_dict` output as ``search`` kwargs."""
    _check_keys(data, _SEARCH_QUERY_KEYS, "search query")
    text = data["text"]
    if text is not None and not isinstance(text, str):
        raise WireError(f"search text must be a string or null, got {text!r}")
    like = data["like"]
    if like is not None:
        if not isinstance(like, (list, tuple)) or not like:
            raise WireError(
                f"search like= must be a non-empty array or null, "
                f"got {like!r}"
            )
        try:
            like = np.asarray([float(v) for v in like], dtype=np.float32)
        except (TypeError, ValueError) as exc:
            raise WireError(f"malformed like= vector: {exc}") from None
    try:
        limit = int(data["limit"])
        min_score = float(data["min_score"])
    except (TypeError, ValueError) as exc:
        raise WireError(f"malformed search query: {exc}") from None
    return {"text": text, "like": like, "limit": limit, "min_score": min_score}


def search_hit_to_dict(hit) -> dict:
    """A :class:`repro.search.query.SearchHit` as a wire dict."""
    return {
        "name": hit.name,
        "gop_seq": hit.gop_seq,
        "start_time": hit.start_time,
        "end_time": hit.end_time,
        "score": hit.score,
        "labels": list(hit.labels),
        "source": hit.source,
    }


def search_hit_from_dict(data: dict):
    """Rebuild the :class:`SearchHit` a :func:`search_hit_to_dict` made.

    Construction re-runs the hit's own validation, so a malformed
    payload raises here rather than producing an unusable hit.
    """
    from repro.search.query import SearchHit

    _check_keys(data, _SEARCH_HIT_KEYS, "SearchHit")
    labels = data["labels"]
    if not isinstance(labels, (list, tuple)):
        raise WireError(f"hit labels must be an array, got {labels!r}")
    try:
        return SearchHit(
            name=data["name"],
            gop_seq=int(data["gop_seq"]),
            start_time=float(data["start_time"]),
            end_time=float(data["end_time"]),
            score=float(data["score"]),
            labels=tuple(str(token) for token in labels),
            source=str(data["source"]),
        )
    except (TypeError, ValueError) as exc:
        raise WireError(f"malformed SearchHit: {exc}") from None


# ----------------------------------------------------------------------
# segments
# ----------------------------------------------------------------------
def segment_to_meta(segment: VideoSegment) -> dict:
    """The header describing a raw segment payload on the wire."""
    return {
        "pixel_format": segment.pixel_format,
        "height": segment.height,
        "width": segment.width,
        "fps": segment.fps,
        "start_time": segment.start_time,
        "num_frames": segment.num_frames,
    }


def segment_payload_view(segment: VideoSegment) -> memoryview:
    """The segment's pixels as a flat byte view — **no copy** when the
    array is already C-contiguous (the common case for decoded chunks).

    The view aliases the segment's buffer: it is only valid while the
    segment is alive, which both transports guarantee by writing the
    frame before releasing the chunk.
    """
    pixels = np.ascontiguousarray(segment.pixels)
    return memoryview(pixels).cast("B")


def segment_from_payload(meta: dict, payload: bytes | memoryview) -> VideoSegment:
    """Rebuild a segment from a :func:`segment_to_meta` header plus its
    raw pixel bytes; size/shape mismatches raise :class:`WireError`."""
    _check_keys(
        meta,
        ("pixel_format", "height", "width", "fps", "start_time", "num_frames"),
        "segment",
    )
    try:
        spec = pixel_format(meta["pixel_format"])
        frame_shape = spec.frame_shape(int(meta["height"]), int(meta["width"]))
    except VSSError as exc:
        raise WireError(f"malformed segment header: {exc}") from exc
    num_frames = int(meta["num_frames"])
    shape = (num_frames, *frame_shape)
    expected = int(np.prod(shape))
    if len(payload) != expected:
        raise WireError(
            f"segment payload is {len(payload)} bytes; header promises "
            f"{expected}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(shape)
    return VideoSegment(
        pixels=pixels,
        pixel_format=meta["pixel_format"],
        height=int(meta["height"]),
        width=int(meta["width"]),
        fps=float(meta["fps"]),
        start_time=float(meta["start_time"]),
    )


# ----------------------------------------------------------------------
# error envelopes
# ----------------------------------------------------------------------
#: Exception classes a wire envelope may name, keyed by class name.
ERROR_CLASSES: dict[str, type] = {
    name: cls
    for name, cls in inspect.getmembers(_errors, inspect.isclass)
    if issubclass(cls, VSSError)
}


def error_to_dict(exc: BaseException) -> dict:
    """An exception as a wire envelope: class name plus message.

    Library errors keep their class so the client re-raises the same
    type; anything else degrades to a plain :class:`VSSError` envelope.
    Busy rejections carry their ``retry_after`` hint, and errors a
    cluster router stamps with a ``shard`` id (``host:port`` of the
    backend that failed or rejected) keep that forwarding metadata, so
    the rebuilt exception tells the caller *which* shard to blame.
    """
    name = type(exc).__name__
    if name not in ERROR_CLASSES:
        name = "VSSError"
    envelope = {"error": name, "message": str(exc)}
    video = getattr(exc, "name", None)
    if isinstance(video, str):
        envelope["name"] = video
    retry_after = getattr(exc, "retry_after", None)
    if isinstance(retry_after, (int, float)):
        envelope["retry_after"] = float(retry_after)
    shard = getattr(exc, "shard", None)
    if isinstance(shard, str):
        envelope["shard"] = shard
    return envelope


def error_from_dict(data: dict) -> VSSError:
    """Rebuild the exception an :func:`error_to_dict` envelope describes.

    The result carries ``answered = True``: the peer framed this error
    itself, so the connection it came over is healthy.  A cluster router
    tells a shard *replying* ``WireError`` from a framing failure on a
    dying shard's connection by it.
    """
    if not isinstance(data, dict) or "error" not in data:
        raise WireError(f"malformed error envelope {data!r}")
    cls = ERROR_CLASSES.get(data["error"], VSSError)
    message = data.get("message", "")
    exc: VSSError | None = None
    if cls is ServerBusyError:
        exc = ServerBusyError(
            message or "server busy",
            retry_after=float(data.get("retry_after", 1.0)),
        )
    if exc is None:
        video = data.get("name")
        if video is not None:
            try:
                exc = cls(video)
            except TypeError:
                exc = None
    if exc is None:
        try:
            exc = cls(message)
        except TypeError:
            exc = VSSError(message)
    shard = data.get("shard")
    if isinstance(shard, str):
        exc.shard = shard
    exc.answered = True
    return exc


# ----------------------------------------------------------------------
# binary frames
# ----------------------------------------------------------------------
#: Frame type bytes (the on-the-wire tags of the binary transport).
FRAME_REQUEST = 0x01        #: client -> server: one operation
FRAME_REPLY = 0x02          #: server -> client: one-shot JSON answer
FRAME_SEGMENT = 0x03        #: stream chunk: decoded pixels
FRAME_GOPS = 0x04           #: stream chunk: encoded GOP containers
FRAME_RESULT_SEGMENT = 0x05  #: batch result: decoded pixels
FRAME_RESULT_GOPS = 0x06    #: batch result: encoded GOP containers
FRAME_END = 0x07            #: stream/batch terminator carrying stats
FRAME_ERROR = 0x08          #: error envelope (in- or out-of-stream)
FRAME_PING = 0x09           #: liveness probe (answered out-of-band)
FRAME_PONG = 0x0A           #: liveness answer

FRAME_TYPES = frozenset(
    {
        FRAME_REQUEST,
        FRAME_REPLY,
        FRAME_SEGMENT,
        FRAME_GOPS,
        FRAME_RESULT_SEGMENT,
        FRAME_RESULT_GOPS,
        FRAME_END,
        FRAME_ERROR,
        FRAME_PING,
        FRAME_PONG,
    }
)

#: Hard ceiling on one frame's body (type + header + payload).  A frame
#: never carries more than one write segment or one GOP window, so 1 GiB
#: is generous; a longer length prefix is treated as garbage framing
#: rather than an instruction to buffer gigabytes.
MAX_FRAME_BYTES = 1 << 30

#: Minimum frame body: the type byte plus the header-length word.
_FRAME_FIXED = struct.Struct(">BI")
MIN_FRAME_BYTES = _FRAME_FIXED.size

_LENGTH = struct.Struct(">I")


def check_frame_length(length: int) -> int:
    """Validate a u32 length prefix before any buffering happens."""
    if length < MIN_FRAME_BYTES or length > MAX_FRAME_BYTES:
        raise WireError(
            f"bad frame length prefix {length} (must be within "
            f"[{MIN_FRAME_BYTES}, {MAX_FRAME_BYTES}])"
        )
    return length


def encode_frame(
    frame_type: int,
    header: dict,
    payload: bytes | memoryview | None = None,
    *extra_payload: bytes | memoryview,
) -> list[bytes | memoryview]:
    """One binary frame as a buffer list ready for vectored socket writes.

    The first element is the frame prelude (length prefix + type +
    header); the payload buffers follow **unmodified** — no
    concatenation, so a multi-megabyte pixel array or a run of GOP blobs
    is never copied just to be framed.  Whether the send copies is the
    writer's business: the binary server's ``os.writev`` does not (bar
    what the kernel refuses); ``writelines`` on an asyncio transport
    would join the list into one new bytes object first.
    """
    if frame_type not in FRAME_TYPES:
        raise WireError(f"unknown frame type {frame_type:#04x}")
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    payloads = [p for p in (payload, *extra_payload) if p is not None]
    payload_len = sum(
        p.nbytes if isinstance(p, memoryview) else len(p) for p in payloads
    )
    length = MIN_FRAME_BYTES + len(header_bytes) + payload_len
    if length > MAX_FRAME_BYTES:
        raise WireError(
            f"frame of {length} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    prelude = b"".join(
        (
            _LENGTH.pack(length),
            _FRAME_FIXED.pack(frame_type, len(header_bytes)),
            header_bytes,
        )
    )
    return [prelude, *payloads]


def frame_to_bytes(
    frame_type: int, header: dict, payload: bytes | memoryview | None = None
) -> bytes:
    """:func:`encode_frame` joined into one buffer (tests, tiny frames)."""
    return b"".join(
        bytes(part) if isinstance(part, memoryview) else part
        for part in encode_frame(frame_type, header, payload)
    )


def parse_frame(body: bytes | memoryview) -> tuple[int, dict, memoryview]:
    """Decode one frame body (everything after the length prefix).

    Returns ``(frame_type, header, payload)`` where ``payload`` is a
    zero-copy :class:`memoryview` slice of ``body``.  Unknown type
    bytes, short bodies, over-long header lengths, and malformed header
    JSON all raise :class:`WireError` — the caller decides whether the
    connection's framing can still be trusted.
    """
    view = memoryview(body)
    if view.nbytes < MIN_FRAME_BYTES:
        raise WireError(
            f"frame body of {view.nbytes} bytes is shorter than the "
            f"fixed {MIN_FRAME_BYTES}-byte prefix"
        )
    frame_type, header_len = _FRAME_FIXED.unpack_from(view, 0)
    if frame_type not in FRAME_TYPES:
        raise WireError(f"unknown frame type {frame_type:#04x}")
    if MIN_FRAME_BYTES + header_len > view.nbytes:
        raise WireError(
            f"frame header of {header_len} bytes overruns the "
            f"{view.nbytes}-byte frame body"
        )
    header_end = MIN_FRAME_BYTES + header_len
    try:
        header = json.loads(bytes(view[MIN_FRAME_BYTES:header_end]))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise WireError(f"malformed frame header: {exc}") from None
    if not isinstance(header, dict):
        raise WireError(
            f"frame header must be a JSON object, got "
            f"{type(header).__name__}"
        )
    return frame_type, header, view[header_end:]


def read_frame(rfile) -> tuple[int, dict, memoryview]:
    """Read one complete frame from a blocking file-like.

    ``rfile`` is a blocking file-like with ``read`` and ``readinto`` —
    a socket's ``makefile("rb")`` or an ``HTTPResponse`` (which
    de-chunks) — so both clients parse their responses here.  The body
    is read straight into a fresh writable array, looping on short
    reads, so the payload view (and pixels built on it) is the only
    copy of the bytes and the caller may write to it.  A peer hanging
    up mid-frame raises :class:`WireError`.
    """
    prefix = rfile.read(4)
    arrived = len(prefix)
    if arrived == 4:
        length = check_frame_length(int.from_bytes(prefix, "big"))
        body = memoryview(np.empty(length, dtype=np.uint8))
        got = 0
        while got < length:
            n = rfile.readinto(body[got:])
            if not n:
                break
            got += n
        if got == length:
            return parse_frame(body)
        arrived += got
    raise WireError(
        f"connection truncated mid-frame ({arrived} of its bytes arrived)"
    )


# ----------------------------------------------------------------------
# the data plane: read / read_batch / write conversations
# ----------------------------------------------------------------------
# A client sends one REQUEST frame whose header is {"op": ..., **params}.
# ``read`` is answered by SEGMENT/GOPS frames and an END frame carrying
# the ReadStats; ``read_batch`` by one RESULT_SEGMENT/RESULT_GOPS frame
# per spec and an END frame carrying the BatchStats; ``write`` by one
# REPLY frame.  An ERROR frame ends any of them early.  Both servers
# build their answers, and both clients take them apart, here.
def _param(header: dict, op: str, key: str):
    if key not in header:
        raise WireError(f"op {op!r} requires {key!r}")
    return header[key]


def decode_read(header: dict) -> ReadSpec:
    """The :class:`ReadSpec` of a ``read`` request header."""
    return read_spec_from_dict(_param(header, "read", "spec"))


def decode_read_batch(header: dict) -> list[ReadSpec]:
    """The specs of a ``read_batch`` request header, in request order."""
    specs = _param(header, "read_batch", "specs")
    if not isinstance(specs, list):
        raise WireError(f"specs must be an array, got {specs!r}")
    return [read_spec_from_dict(d) for d in specs]


def decode_write(header: dict, payload) -> tuple[WriteSpec, VideoSegment]:
    """A ``write`` request as its spec plus the segment to store.

    The segment is ``np.frombuffer`` over the received payload: the
    pixels are never copied between the socket buffer and the engine.
    """
    spec = write_spec_from_dict(_param(header, "write", "spec"))
    return spec, segment_from_payload(
        _param(header, "write", "segment"), payload
    )


def _content_frame(
    pixels_type: int, gops_type: int, index: int, segment, gops, extra: dict
) -> list:
    if segment is not None:
        header = {"index": index, "meta": segment_to_meta(segment), **extra}
        return encode_frame(pixels_type, header, segment_payload_view(segment))
    blobs = [encode_container(g) for g in gops]
    header = {"index": index, "sizes": [len(b) for b in blobs], **extra}
    return encode_frame(gops_type, header, *blobs)


def chunk_frame(chunk) -> list:
    """One :class:`ReadChunk` of a streamed read as frame buffers."""
    return _content_frame(
        FRAME_SEGMENT, FRAME_GOPS, chunk.index, chunk.segment, chunk.gops,
        {"start_time": chunk.start_time, "end_time": chunk.end_time},
    )


def stream_end_frame(stats: ReadStats) -> list:
    return encode_frame(FRAME_END, {"stats": read_stats_to_dict(stats)})


def batch_frames(results: list, batch):
    """The whole answer to a ``read_batch``, one frame at a time: each
    result (pixels or GOPs, plus its stats) in request order, then the
    END frame carrying the :class:`BatchStats`."""
    for index, result in enumerate(results):
        yield _content_frame(
            FRAME_RESULT_SEGMENT, FRAME_RESULT_GOPS, index, result.segment,
            result.gops, {"stats": read_stats_to_dict(result.stats)},
        )
    yield encode_frame(FRAME_END, {"batch": dataclasses.asdict(batch)})


def error_frame(exc: BaseException) -> list:
    return encode_frame(FRAME_ERROR, error_to_dict(exc))


def decode_content(frame_type: int, header: dict, payload: memoryview):
    """``(segment, gops)`` of a content frame — one is ``None``.

    The client half of :func:`chunk_frame` / :func:`batch_frames`.
    """
    if frame_type in (FRAME_SEGMENT, FRAME_RESULT_SEGMENT):
        return segment_from_payload(header["meta"], payload), None
    gops, offset = [], 0
    for size in header["sizes"]:
        gops.append(decode_container(bytes(payload[offset:offset + size])))
        offset += size
    if offset != payload.nbytes:
        raise WireError(
            f"GOP frame payload is {payload.nbytes} bytes; sizes sum to "
            f"{offset}"
        )
    return None, gops
