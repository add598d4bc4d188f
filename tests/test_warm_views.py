"""Warm raw reads hand back the decode cache's frames.

A chunk that is one whole decoded window — one choice over the whole
chunk, its one cell the fragment's whole frame at the canvas's size, a
unit-step run of one window's frames — is a read-only view of that
window instead of a pasted canvas.  The contracts under test:

* allocation: a warm GOP-aligned full-resolution second allocates next
  to nothing, and a stream that starts mid-GOP peaks at its collected
  answer (its chunks are views);
* equivalence: whatever the read (start, length, resolution, ROI, fps,
  stored codec, call), a warm engine with the decode cache gives the
  bytes an engine without one gives, and the bytes it gives with every
  chunk pasted into a canvas; every answer is read-only.

``pytest --hypothesis-profile=deep tests/test_warm_views.py`` runs the
property at the deep profile's example count (``tests/conftest.py``).
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import reader
from repro.core.engine import VSSEngine
from repro.core.specs import ReadSpec

FPS = 30
SECONDS = 3
#: Slack over the answer itself: plans, stats, chunk and segment objects.
SLACK = 64 * 1024
#: Reads per property run: a couple of dozen in tier-1, the deep
#: profile's count under ``--hypothesis-profile=deep``.
EXAMPLES = 25 if settings.default.max_examples <= 100 else (
    settings.default.max_examples
)


def _traced_peak(call) -> int:
    """Peak bytes ``call()`` allocates, under tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAllocation:
    @pytest.fixture(scope="class")
    def warm(self, tmp_path_factory, calibration, benchmark_size_clip):
        """A 192x108 h264 clip, its background work drained."""
        engine = VSSEngine(
            tmp_path_factory.mktemp("warm"), calibration=calibration
        )
        engine.session().write(
            "v", benchmark_size_clip, codec="h264", qp=10, gop_size=FPS
        )
        engine.drain_admissions()
        yield engine
        engine.close()

    def _peak_and_answer(self, engine, start, end):
        session = engine.session()
        spec = ReadSpec("v", start, end, codec="raw", cache=False)
        for _ in range(2):
            session.read_stream(spec).collect()  # decode, plan, warm up
        answers = []
        peak = _traced_peak(
            lambda: answers.append(session.read_stream(spec).collect())
        )
        return peak, answers[0].segment

    def test_gop_aligned_second_allocates_no_canvas(self, warm):
        peak, segment = self._peak_and_answer(warm, 0.0, 1.0)
        assert segment.nbytes == FPS * 108 * 192 * 3
        assert peak < SLACK

    def test_mid_gop_stream_peaks_at_its_collected_answer(self, warm):
        # Three chunks (half a GOP, a GOP, half a GOP), each a view, so
        # only the concatenation allocates: pasting each chunk into a
        # canvas first would peak at twice the answer.
        peak, segment = self._peak_and_answer(warm, 0.5, 2.5)
        assert segment.num_frames == 2 * FPS
        assert peak <= segment.nbytes + SLACK


@pytest.fixture(scope="module")
def twins(tmp_path_factory, calibration, three_second_clip):
    """Two engines holding the same videos (``h264`` and ``raw`` copies
    of one 64x36 clip): the first keeps the default decode cache, the
    second has none."""
    engines = []
    for cache in ({}, {"decode_cache_bytes": 0}):
        engine = VSSEngine(
            tmp_path_factory.mktemp("twin"), calibration=calibration, **cache
        )
        session = engine.session()
        for codec in ("h264", "raw"):
            session.write(
                codec, three_second_clip, codec=codec, qp=10, gop_size=FPS
            )
        engine.drain_admissions()
        engines.append(engine)
    yield engines
    for engine in engines:
        engine.close()


def _answer(engine, how: str, spec: ReadSpec):
    session = engine.session()
    if how == "read":
        segment = session.read(spec).segment
    elif how == "stream":
        segment = session.read_stream(spec).collect().segment
    else:
        first, second = session.read_batch([spec, spec])
        assert second.segment.pixels.tobytes() == first.segment.pixels.tobytes()
        assert not second.segment.pixels.flags.writeable
        segment = first.segment
    assert not segment.pixels.flags.writeable
    return segment.pixel_format, segment.pixels.shape, segment.pixels.tobytes()


@st.composite
def _reads(draw):
    total = SECONDS * FPS
    if draw(st.integers(0, 2)):  # two draws in three start on a GOP
        first = FPS * draw(st.integers(0, SECONDS - 1))
    else:
        first = draw(st.integers(0, total - 1))
    frames = draw(st.integers(1, total - first))
    scale = draw(st.sampled_from((1, 2, 4)))
    return draw(st.sampled_from(("read", "stream", "batch"))), ReadSpec(
        draw(st.sampled_from(("h264", "raw"))),
        first / FPS,
        (first + frames) / FPS,
        codec="raw",
        resolution=None if scale == 1 else (64 // scale, 36 // scale),
        roi=draw(st.sampled_from((None, (0, 0, 32, 36)))),
        fps=draw(st.sampled_from((None, 15.0))),
        cache=False,
    )


@settings(max_examples=EXAMPLES, deadline=None)
@given(read=_reads())
def test_warm_views_equal_cache_off_answers(twins, read):
    how, spec = read
    cached, uncached = twins
    _answer(cached, how, spec)  # warm: the first engine's cache now holds it
    expected = _answer(uncached, how, spec)
    assert _answer(cached, how, spec) == expected
    # Both twins take the same views, so the oracle for the views
    # themselves is the canvas every chunk was pasted into before.
    with mock.patch.object(reader, "_identity_view", lambda ops, frames: None):
        assert _answer(cached, how, spec) == expected
