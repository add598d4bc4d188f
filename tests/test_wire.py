"""Wire protocol: lossless spec round trips, envelopes, validation.

The central contract (property-tested below):
``from_dict(json.loads(json.dumps(to_dict(spec)))) == spec`` for every
constructible spec, with unknown and missing keys rejected loudly.  The
satellite fix for non-finite floats also lives here: ``nan`` slips
through ordinary comparisons (``nan <= 0`` is False), so specs must pin
every float field to finite values at construction.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reader import ReadStats
from repro.core.specs import ReadSpec, ViewSpec, WriteSpec
from repro.core.wire import (
    FRAME_END,
    FRAME_ERROR,
    FRAME_REPLY,
    FRAME_REQUEST,
    FRAME_SEGMENT,
    FRAME_TYPES,
    MAX_FRAME_BYTES,
    MIN_FRAME_BYTES,
    check_frame_length,
    encode_frame,
    error_from_dict,
    error_to_dict,
    frame_to_bytes,
    parse_frame,
    read_spec_from_dict,
    read_stats_from_dict,
    read_stats_to_dict,
    search_hit_from_dict,
    search_hit_to_dict,
    search_query_from_dict,
    search_query_to_dict,
    segment_from_payload,
    segment_payload_view,
    segment_to_meta,
    tile_grid_from_dict,
    tile_grid_to_dict,
    write_spec_from_dict,
)
from repro.errors import (
    BudgetExceededError,
    OutOfRangeError,
    QualityError,
    ServerBusyError,
    VideoExistsError,
    VideoNotFoundError,
    VSSError,
    WireError,
)
from repro.search.query import SearchHit
from repro.tiles import TileGrid
from repro.video.codec.quant import QP_MAX, QP_MIN
from repro.video.frame import blank_segment

# ----------------------------------------------------------------------
# hypothesis strategies over constructible specs
# ----------------------------------------------------------------------
_names = st.text(
    alphabet=st.characters(
        whitelist_categories=("L", "N"), whitelist_characters="_-. "
    ),
    min_size=1,
    max_size=24,
)
_finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def read_specs(draw) -> ReadSpec:
    start = draw(_finite)
    end = start + draw(
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
    )
    resolution = draw(
        st.one_of(
            st.none(),
            st.tuples(
                st.integers(1, 4096), st.integers(1, 4096)
            ),
        )
    )
    roi = None
    if draw(st.booleans()):
        x0 = draw(st.integers(0, 100))
        y0 = draw(st.integers(0, 100))
        roi = (
            x0,
            y0,
            x0 + draw(st.integers(1, 100)),
            y0 + draw(st.integers(1, 100)),
        )
    return ReadSpec(
        name=draw(_names),
        start=start,
        end=end,
        codec=draw(st.sampled_from(["raw", "h264", "hevc"])),
        pixel_format=draw(
            st.sampled_from(["rgb", "gray", "yuv420", "yuv422"])
        ),
        resolution=resolution,
        roi=roi,
        fps=draw(
            st.one_of(
                st.none(),
                st.floats(min_value=1e-2, max_value=240.0, allow_nan=False),
            )
        ),
        quality_db=draw(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
        ),
        qp=draw(st.integers(QP_MIN, QP_MAX)),
        cache=draw(st.one_of(st.none(), st.booleans())),
        mode=draw(
            st.one_of(st.none(), st.sampled_from(["solver", "greedy", "original"]))
        ),
    )


@st.composite
def write_specs(draw) -> WriteSpec:
    return WriteSpec(
        name=draw(_names),
        codec=draw(st.sampled_from(["raw", "h264", "hevc"])),
        qp=draw(st.integers(QP_MIN, QP_MAX)),
        gop_size=draw(st.one_of(st.none(), st.integers(1, 600))),
    )


@st.composite
def view_specs(draw) -> ViewSpec:
    start = draw(st.one_of(st.none(), _finite))
    end = None
    if draw(st.booleans()):
        base = start if start is not None else 0.0
        end = base + draw(
            st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
        )
    roi = None
    if draw(st.booleans()):
        x0 = draw(st.integers(0, 100))
        y0 = draw(st.integers(0, 100))
        roi = (
            x0,
            y0,
            x0 + draw(st.integers(1, 100)),
            y0 + draw(st.integers(1, 100)),
        )
    return ViewSpec(
        over=draw(_names),
        start=start,
        end=end,
        roi=roi,
        resolution=draw(
            st.one_of(
                st.none(),
                st.tuples(st.integers(1, 4096), st.integers(1, 4096)),
            )
        ),
        fps=draw(
            st.one_of(
                st.none(),
                st.floats(min_value=1e-2, max_value=240.0, allow_nan=False),
            )
        ),
        codec=draw(
            st.one_of(st.none(), st.sampled_from(["raw", "h264", "hevc"]))
        ),
        qp=draw(st.one_of(st.none(), st.integers(QP_MIN, QP_MAX))),
        quality_db=draw(
            st.one_of(
                st.none(),
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            )
        ),
    )


class TestSpecRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(read_specs())
    def test_read_spec_json_round_trip(self, spec: ReadSpec):
        wired = json.loads(json.dumps(spec.to_dict()))
        rebuilt = ReadSpec.from_dict(wired)
        assert rebuilt == spec
        # tuples must come back as tuples, not lists
        assert rebuilt.resolution == spec.resolution
        assert rebuilt.roi == spec.roi
        assert type(rebuilt.resolution) is type(spec.resolution)

    @settings(max_examples=100, deadline=None)
    @given(write_specs())
    def test_write_spec_json_round_trip(self, spec: WriteSpec):
        wired = json.loads(json.dumps(spec.to_dict()))
        assert WriteSpec.from_dict(wired) == spec

    @settings(max_examples=200, deadline=None)
    @given(view_specs())
    def test_view_spec_json_round_trip(self, spec: ViewSpec):
        wired = json.loads(json.dumps(spec.to_dict()))
        rebuilt = ViewSpec.from_dict(wired)
        assert rebuilt == spec
        assert rebuilt.roi == spec.roi
        assert type(rebuilt.roi) is type(spec.roi)
        assert type(rebuilt.resolution) is type(spec.resolution)

    def test_view_spec_unknown_and_missing_keys_rejected(self):
        data = ViewSpec(over="base").to_dict()
        data["surprise"] = 1
        with pytest.raises(WireError, match="surprise"):
            ViewSpec.from_dict(data)
        data = ViewSpec(over="base").to_dict()
        del data["roi"]
        with pytest.raises(WireError, match="roi"):
            ViewSpec.from_dict(data)

    def test_every_field_is_explicit(self):
        spec = ReadSpec("v", 0.0, 1.0)
        data = spec.to_dict()
        assert set(data) == {
            f.name for f in dataclasses.fields(ReadSpec)
        }
        assert data["resolution"] is None  # None stays explicit

    def test_unknown_keys_rejected(self):
        data = ReadSpec("v", 0.0, 1.0).to_dict()
        data["surprise"] = 1
        with pytest.raises(WireError, match="surprise"):
            ReadSpec.from_dict(data)
        wdata = WriteSpec("v").to_dict()
        wdata["oops"] = True
        with pytest.raises(WireError, match="oops"):
            WriteSpec.from_dict(wdata)

    def test_missing_keys_rejected(self):
        data = ReadSpec("v", 0.0, 1.0).to_dict()
        del data["end"]
        with pytest.raises(WireError, match="end"):
            ReadSpec.from_dict(data)

    def test_values_revalidated_on_arrival(self):
        data = ReadSpec("v", 0.0, 1.0).to_dict()
        data["end"] = -5.0
        with pytest.raises(OutOfRangeError):
            read_spec_from_dict(data)
        data = WriteSpec("v").to_dict()
        data["qp"] = QP_MAX + 10
        with pytest.raises(ValueError):
            write_spec_from_dict(data)

    def test_malformed_tuple_fields(self):
        data = ReadSpec("v", 0.0, 1.0).to_dict()
        data["roi"] = "not-a-roi"
        with pytest.raises(WireError):
            ReadSpec.from_dict(data)

    def test_non_dict_payload(self):
        with pytest.raises(WireError):
            read_spec_from_dict([1, 2, 3])


class TestNonFiniteValidation:
    """Satellite: nan/inf must fail spec validation at construction."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_interval_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            ReadSpec("v", 0.0, bad)
        with pytest.raises(ValueError):
            ReadSpec("v", bad, 1.0)

    def test_nan_end_regression(self):
        # nan <= 0.0 is False, so this used to pass the interval check.
        with pytest.raises(ValueError, match="finite"):
            ReadSpec("v", 0.0, float("nan"))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_fps_and_quality_reject_non_finite(self, bad):
        with pytest.raises(ValueError):
            ReadSpec("v", 0.0, 1.0, fps=bad)
        with pytest.raises(ValueError):
            ReadSpec("v", 0.0, 1.0, quality_db=bad)

    def test_finite_values_still_pass(self):
        spec = ReadSpec("v", 0.0, 1.0, fps=30.0, quality_db=35.5)
        assert math.isfinite(spec.fps)


@st.composite
def tile_grids(draw) -> TileGrid:
    """Constructible tile grids: strictly increasing cuts from 0."""

    def cuts(count: int) -> tuple[int, ...]:
        steps = draw(
            st.lists(
                st.integers(1, 512), min_size=count, max_size=count
            )
        )
        out = [0]
        for step in steps:
            out.append(out[-1] + step)
        return tuple(out)

    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 8))
    return TileGrid(
        rows=rows, cols=cols, row_cuts=cuts(rows), col_cuts=cuts(cols)
    )


class TestTileGridWire:
    @settings(max_examples=200, deadline=None)
    @given(tile_grids())
    def test_json_round_trip(self, grid: TileGrid):
        wired = json.loads(json.dumps(grid.to_dict()))
        rebuilt = TileGrid.from_dict(wired)
        assert rebuilt == grid
        # cut tuples must come back as tuples of ints, not lists
        assert type(rebuilt.row_cuts) is tuple
        assert type(rebuilt.col_cuts) is tuple

    def test_unknown_and_missing_keys_rejected(self):
        data = TileGrid.uniform(2, 2, 64, 48).to_dict()
        data["surprise"] = 1
        with pytest.raises(WireError, match="surprise"):
            tile_grid_from_dict(data)
        data = TileGrid.uniform(2, 2, 64, 48).to_dict()
        del data["row_cuts"]
        with pytest.raises(WireError, match="row_cuts"):
            tile_grid_from_dict(data)

    def test_geometry_revalidated_on_arrival(self):
        data = tile_grid_to_dict(TileGrid.uniform(2, 2, 64, 48))
        data["row_cuts"] = [0, 48, 24]  # not increasing
        with pytest.raises(ValueError):
            tile_grid_from_dict(data)
        data = tile_grid_to_dict(TileGrid.uniform(2, 2, 64, 48))
        data["col_cuts"] = "not-an-array"
        with pytest.raises(WireError):
            tile_grid_from_dict(data)


class TestStatsAndSegments:
    def test_read_stats_round_trip(self):
        stats = ReadStats(
            planned_cost=1.5,
            frames_decoded=42,
            gop_ids_touched=[3, 1, 2],
            decode_cache_hits=2,
            direct_serve=True,
        )
        wired = json.loads(json.dumps(read_stats_to_dict(stats)))
        assert read_stats_from_dict(wired) == stats

    @settings(max_examples=100, deadline=None)
    @given(
        total=st.integers(0, 64),
        decoded=st.integers(0, 64),
        skipped=st.integers(0, 1 << 40),
    )
    def test_tile_stats_round_trip(self, total, decoded, skipped):
        stats = ReadStats(
            tiles_total=total,
            tiles_decoded=decoded,
            tile_bytes_skipped=skipped,
        )
        wired = json.loads(json.dumps(read_stats_to_dict(stats)))
        rebuilt = read_stats_from_dict(wired)
        assert rebuilt == stats
        assert rebuilt.tiles_total == total
        assert rebuilt.tiles_decoded == decoded
        assert rebuilt.tile_bytes_skipped == skipped

    @settings(max_examples=50, deadline=None)
    @given(
        entropy=st.floats(0, 10, allow_nan=False),
        transform=st.floats(0, 10, allow_nan=False),
        compensate=st.floats(0, 10, allow_nan=False),
        frames=st.integers(0, 1 << 20),
        decoded_bytes=st.integers(0, 1 << 40),
    )
    def test_codec_stage_stats_round_trip(
        self, entropy, transform, compensate, frames, decoded_bytes
    ):
        # The codec decode fast path's stage counters must survive the
        # wire; the derived properties are recomputed client-side from
        # the round-tripped fields, never serialized.
        stats = ReadStats(
            frames_decoded=frames,
            codec_entropy_seconds=entropy,
            codec_transform_seconds=transform,
            codec_compensate_seconds=compensate,
            codec_decoded_bytes=decoded_bytes,
        )
        wired = json.loads(json.dumps(read_stats_to_dict(stats)))
        assert "codec_decode_seconds" not in wired
        assert "decode_mb_per_s" not in wired
        rebuilt = read_stats_from_dict(wired)
        assert rebuilt == stats
        assert rebuilt.codec_decode_seconds == stats.codec_decode_seconds
        assert rebuilt.decode_mb_per_s == stats.decode_mb_per_s

    @pytest.mark.parametrize("fmt", ["rgb", "gray", "yuv420"])
    def test_segment_round_trip(self, fmt):
        segment = blank_segment(12, 36, 64, fps=30.0, fmt=fmt)
        rng = np.random.default_rng(3)
        segment.pixels[:] = rng.integers(
            0, 256, segment.pixels.shape, dtype="uint8"
        )
        meta = json.loads(json.dumps(segment_to_meta(segment)))
        rebuilt = segment_from_payload(meta, segment_payload_view(segment))
        assert rebuilt.pixel_format == fmt
        assert rebuilt.fps == segment.fps
        assert (rebuilt.pixels == segment.pixels).all()

    def test_segment_payload_size_mismatch(self):
        segment = blank_segment(4, 36, 64, fps=30.0)
        meta = segment_to_meta(segment)
        with pytest.raises(WireError, match="bytes"):
            segment_from_payload(meta, segment_payload_view(segment)[:-1])


class TestErrorEnvelopes:
    @pytest.mark.parametrize(
        "exc",
        [
            VideoNotFoundError("cam0"),
            VideoExistsError("cam0"),
            OutOfRangeError("interval [3, 2)"),
            QualityError("no fragments above 30 dB"),
            BudgetExceededError("over budget"),
            ServerBusyError(),
            VSSError("generic"),
        ],
    )
    def test_same_class_comes_back(self, exc):
        wired = json.loads(json.dumps(error_to_dict(exc)))
        rebuilt = error_from_dict(wired)
        assert type(rebuilt) is type(exc)
        assert str(rebuilt)

    def test_not_found_keeps_video_name(self):
        rebuilt = error_from_dict(error_to_dict(VideoNotFoundError("cam7")))
        assert rebuilt.name == "cam7"

    def test_unknown_class_degrades_to_vss_error(self):
        rebuilt = error_from_dict(
            {"error": "TotallyMadeUp", "message": "hm"}
        )
        assert type(rebuilt) is VSSError

    def test_foreign_exception_wrapped(self):
        wired = error_to_dict(RuntimeError("kaboom"))
        assert wired["error"] == "VSSError"
        assert "kaboom" in wired["message"]

    def test_malformed_envelope(self):
        with pytest.raises(WireError):
            error_from_dict({"message": "no class"})


# ----------------------------------------------------------------------
# binary frames
# ----------------------------------------------------------------------
class TestBinaryFrames:
    def test_round_trip_header_only(self):
        body = frame_to_bytes(FRAME_REPLY, {"pong": True})[4:]
        frame_type, header, payload = parse_frame(body)
        assert frame_type == FRAME_REPLY
        assert header == {"pong": True}
        assert payload.nbytes == 0

    def test_round_trip_with_payload(self):
        pixels = b"\x00\x01\x02\x03" * 16
        body = frame_to_bytes(FRAME_SEGMENT, {"index": 0}, pixels)[4:]
        frame_type, header, payload = parse_frame(body)
        assert frame_type == FRAME_SEGMENT
        assert header == {"index": 0}
        assert bytes(payload) == pixels

    def test_length_prefix_counts_bytes_after_itself(self):
        wire = frame_to_bytes(FRAME_REQUEST, {"op": "ping"}, b"xy")
        length = int.from_bytes(wire[:4], "big")
        assert length == len(wire) - 4

    def test_multi_payload_buffers_concatenate(self):
        buffers = encode_frame(FRAME_END, {"sizes": [2, 3]}, b"ab", b"cde")
        wire = b"".join(
            bytes(b) if isinstance(b, memoryview) else b for b in buffers
        )
        _, header, payload = parse_frame(wire[4:])
        assert bytes(payload) == b"abcde"
        assert header["sizes"] == [2, 3]

    def test_encode_is_zero_copy_for_payloads(self):
        pixels = np.arange(64, dtype=np.uint8)
        view = memoryview(pixels).cast("B")
        buffers = encode_frame(FRAME_SEGMENT, {"index": 1}, view)
        assert buffers[1] is view  # the payload buffer passes through

    def test_parse_payload_is_a_view(self):
        body = frame_to_bytes(FRAME_SEGMENT, {"i": 0}, b"payload")[4:]
        _, _, payload = parse_frame(body)
        assert isinstance(payload, memoryview)

    def test_segment_survives_frame_round_trip(self):
        segment = blank_segment(4, 8, 12, fps=10.0)
        segment.pixels[...] = np.arange(
            segment.pixels.size, dtype=np.uint64
        ).reshape(segment.pixels.shape) % 251
        body = frame_to_bytes(
            FRAME_SEGMENT,
            {"meta": segment_to_meta(segment)},
            segment_payload_view(segment),
        )[4:]
        _, header, payload = parse_frame(body)
        rebuilt = segment_from_payload(header["meta"], payload)
        np.testing.assert_array_equal(rebuilt.pixels, segment.pixels)
        assert rebuilt.fps == segment.fps
        assert rebuilt.start_time == segment.start_time

    def test_unknown_frame_type_rejected_on_encode(self):
        with pytest.raises(WireError, match="unknown frame type"):
            encode_frame(0x7F, {})

    def test_unknown_frame_type_rejected_on_parse(self):
        body = bytearray(frame_to_bytes(FRAME_REPLY, {})[4:])
        body[0] = 0x7F
        with pytest.raises(WireError, match="unknown frame type"):
            parse_frame(bytes(body))

    def test_short_body_rejected(self):
        with pytest.raises(WireError, match="shorter than"):
            parse_frame(b"\x02")

    def test_header_overrun_rejected(self):
        body = bytearray(frame_to_bytes(FRAME_REPLY, {"k": 1})[4:])
        body[1:5] = (2**32 - 1).to_bytes(4, "big")
        with pytest.raises(WireError, match="overruns"):
            parse_frame(bytes(body))

    def test_malformed_header_json_rejected(self):
        body = bytearray(frame_to_bytes(FRAME_REPLY, {"k": 1})[4:])
        body[MIN_FRAME_BYTES] = ord("!")
        with pytest.raises(WireError, match="malformed frame header"):
            parse_frame(bytes(body))

    def test_non_object_header_rejected(self):
        header_bytes = b"[1,2]"
        body = (
            bytes([FRAME_REPLY])
            + len(header_bytes).to_bytes(4, "big")
            + header_bytes
        )
        with pytest.raises(WireError, match="JSON object"):
            parse_frame(body)

    @pytest.mark.parametrize(
        "length", [0, MIN_FRAME_BYTES - 1, MAX_FRAME_BYTES + 1, 2**32 - 1]
    )
    def test_implausible_length_prefix_rejected(self, length):
        with pytest.raises(WireError, match="length prefix"):
            check_frame_length(length)

    def test_plausible_length_accepted(self):
        assert check_frame_length(MIN_FRAME_BYTES) == MIN_FRAME_BYTES
        assert check_frame_length(MAX_FRAME_BYTES) == MAX_FRAME_BYTES

    def test_frame_types_are_distinct(self):
        assert len(FRAME_TYPES) == 10

    def test_error_envelope_round_trip(self):
        body = frame_to_bytes(
            FRAME_ERROR, error_to_dict(VideoNotFoundError("cam3"))
        )[4:]
        _, header, _ = parse_frame(body)
        rebuilt = error_from_dict(header)
        assert type(rebuilt) is VideoNotFoundError
        assert rebuilt.name == "cam3"


# ----------------------------------------------------------------------
# search wire forms
# ----------------------------------------------------------------------
_labels = st.lists(
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
        min_size=1,
        max_size=8,
    ),
    max_size=6,
)

search_hits = st.builds(
    lambda name, seq, start, dur, score, labels, source: SearchHit(
        name=name,
        gop_seq=seq,
        start_time=start,
        end_time=start + dur,
        score=score,
        labels=tuple(labels),
        source=source,
    ),
    name=st.text(min_size=1, max_size=20).filter(lambda s: s.strip()),
    seq=st.integers(0, 10_000),
    start=st.floats(0, 1e5, allow_nan=False),
    dur=st.floats(0.001, 1e3, allow_nan=False),
    score=_finite,
    labels=_labels,
    source=st.sampled_from(["text", "histogram", "embedding", "hybrid"]),
)

search_queries = st.builds(
    dict,
    text=st.one_of(st.none(), st.text(min_size=1, max_size=30)),
    like=st.one_of(
        st.none(),
        st.lists(_finite, min_size=64, max_size=64),
        st.lists(_finite, min_size=128, max_size=128),
    ),
    limit=st.integers(1, 100),
    min_score=_finite,
)


class TestSearchWireForms:
    @settings(max_examples=50, deadline=None)
    @given(hit=search_hits)
    def test_hit_round_trips_through_json(self, hit):
        rebuilt = search_hit_from_dict(
            json.loads(json.dumps(search_hit_to_dict(hit)))
        )
        assert rebuilt == hit

    @settings(max_examples=50, deadline=None)
    @given(query=search_queries)
    def test_query_round_trips_through_json(self, query):
        wire = json.loads(json.dumps(search_query_to_dict(**query)))
        rebuilt = search_query_from_dict(wire)
        assert rebuilt["text"] == query["text"]
        assert rebuilt["limit"] == query["limit"]
        assert rebuilt["min_score"] == pytest.approx(query["min_score"])
        if query["like"] is None:
            assert rebuilt["like"] is None
        else:
            assert np.allclose(
                rebuilt["like"],
                np.asarray(query["like"], dtype=np.float32),
            )

    def test_query_unknown_key_rejected(self):
        wire = search_query_to_dict(text="car")
        wire["shard"] = 3
        with pytest.raises(WireError, match="unknown"):
            search_query_from_dict(wire)

    def test_query_missing_key_rejected(self):
        wire = search_query_to_dict(text="car")
        del wire["limit"]
        with pytest.raises(WireError, match="missing"):
            search_query_from_dict(wire)

    def test_hit_unknown_key_rejected(self):
        wire = {
            "name": "v",
            "gop_seq": 0,
            "start_time": 0.0,
            "end_time": 1.0,
            "score": 0.5,
            "labels": [],
            "source": "text",
            "extra": 1,
        }
        with pytest.raises(WireError, match="unknown"):
            search_hit_from_dict(wire)

    def test_malformed_like_rejected(self):
        wire = search_query_to_dict(text="car")
        wire["like"] = ["not-a-number"]
        with pytest.raises(WireError, match="like"):
            search_query_from_dict(wire)

    def test_empty_hit_window_rejected(self):
        wire = {
            "name": "v",
            "gop_seq": 0,
            "start_time": 1.0,
            "end_time": 1.0,
            "score": 0.5,
            "labels": [],
            "source": "text",
        }
        with pytest.raises((WireError, ValueError)):
            search_hit_from_dict(wire)
