"""Warm raw reads hand back the decode cache's frames.

A chunk that is one whole decoded window — one choice over the whole
chunk, its one cell the fragment's whole frame, a unit-step run of one
window's frames — is a read-only view of that window instead of a
pasted canvas: of the native decode when the canvas has the fragment's
size, else of the GOP's entry at the canvas's size, which the decode
cache keeps from the GOP's second whole-GOP read at that size on.  The
contracts under test:

* allocation: a warm GOP-aligned second, at full or half resolution,
  allocates next to nothing, and a stream that starts mid-GOP peaks at
  its collected answer (its chunks are views);
* equivalence: whatever the read (start, length, resolution, ROI, fps,
  stored codec, call), a warm engine with the decode cache gives the
  bytes an engine without one gives, and the bytes it gives with every
  chunk pasted into a canvas; so does a serial engine
  (``parallelism=1``).  A warm read's windows are all cached, so it
  builds its chunks on the calling thread, while the engine without a
  cache builds every chunk on its pool: caller builds and pool builds
  are compared bit for bit.  Every answer is read-only;
* stats: a resized view reports what the pasted canvas reported (the
  resample error, decode-cache hits and misses, frames decoded), on
  ``read``, ``read_stream`` and ``read_batch``.

``pytest --hypothesis-profile=deep tests/test_warm_views.py`` runs the
property at the deep profile's example count (``tests/conftest.py``).
"""

from __future__ import annotations

import contextlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core import reader
from repro.core.decode_cache import DecodeCache
from repro.core.engine import VSSEngine
from repro.core.executor import Executor
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

    def _peak_and_answer(self, engine, start, end, resolution=None):
        session = engine.session()
        spec = ReadSpec(
            "v", start, end, codec="raw", resolution=resolution, cache=False
        )
        # Decode and plan; the second read keeps a resized GOP.
        warm = [session.read_stream(spec).collect() for _ in range(2)]
        answers = []
        peak = _traced_peak(
            lambda: answers.append(session.read_stream(spec).collect())
        )
        return peak, answers[0].segment, warm[1].segment

    def test_gop_aligned_second_allocates_no_canvas(self, warm):
        peak, segment, _ = self._peak_and_answer(warm, 0.0, 1.0)
        assert segment.nbytes == FPS * 108 * 192 * 3
        assert peak < SLACK

    def test_half_resolution_second_is_the_kept_resize(
        self, warm, tmp_path, calibration, benchmark_size_clip
    ):
        # The second read resized the GOP and kept it; the third is a
        # view of that answer: no resize, no canvas, no error sample.
        peak, segment, kept = self._peak_and_answer(
            warm, 1.0, 2.0, resolution=(96, 54)
        )
        assert segment.nbytes == FPS * 54 * 96 * 3
        assert np.shares_memory(segment.pixels, kept.pixels)
        assert peak < SLACK
        with VSSEngine(
            tmp_path, calibration=calibration, decode_cache_bytes=0
        ) as engine:
            session = engine.session()
            session.write(
                "v", benchmark_size_clip, codec="h264", qp=10, gop_size=FPS
            )
            expected = session.read(
                "v", 1.0, 2.0, codec="raw", resolution=(96, 54), cache=False
            ).segment
        assert segment.pixels.tobytes() == expected.pixels.tobytes()

    def test_mid_gop_stream_peaks_at_its_collected_answer(self, warm):
        # Three chunks (half a GOP, a GOP, half a GOP), each a view, so
        # only the concatenation allocates: pasting each chunk into a
        # canvas first would peak at twice the answer.
        peak, segment, _ = self._peak_and_answer(warm, 0.5, 2.5)
        assert segment.num_frames == 2 * FPS
        assert peak <= segment.nbytes + SLACK


class TestResizedViewStats:
    """Three whole-GOP half-resolution reads of a fresh store — a miss,
    a native hit that keeps the resize, a resized-entry hit — report on
    every path what the pasted canvas reports, and the resample error a
    store without a decode cache measures."""

    SPEC = ReadSpec(
        "v", 1.0, 2.0, codec="raw", resolution=(32, 18), cache=False
    )
    PATHS = ("read", "read_stream", "read_batch")

    def _stats(self, tmp_path, calibration, clip, path, **options):
        with VSSEngine(tmp_path, calibration=calibration, **options) as engine:
            session = engine.session()
            session.write("v", clip, codec="h264", qp=10, gop_size=FPS)
            engine.drain_admissions()
            rows, kept = [], []
            for _ in range(3):
                if path == "read":
                    stats = session.read(self.SPEC).stats
                elif path == "read_stream":
                    stream = session.read_stream(self.SPEC)
                    stream.collect()
                    stats = stream.stats
                else:
                    (result,) = session.read_batch([self.SPEC])
                    stats = result.stats
                rows.append((
                    stats.resample_mse,
                    stats.decode_cache_hits,
                    stats.decode_cache_misses,
                    stats.frames_decoded,
                ))
                kept.append(engine.decode_cache.resized_bytes)
        return rows, kept

    def test_every_path_reports_the_canvas_stats(
        self, tmp_path, calibration, three_second_clip
    ):
        def stats(path, name, **options):
            return self._stats(
                tmp_path / f"{path}-{name}", calibration, three_second_clip,
                path, **options,
            )

        uncached = stats("read", "uncached", decode_cache_bytes=0)[0]
        error = uncached[0][0]
        assert error > 0.0 and uncached == [(error, 0, 0, FPS)] * 3
        gop = FPS * 18 * 32 * 3
        for path in self.PATHS:
            views, kept = stats(path, "views")
            # The canvas path: no identity chunk, so nothing is resized
            # ahead of the paste and nothing resized is kept.
            with mock.patch.object(
                reader, "_identity_run", lambda ops, frames: None
            ):
                canvas, none_kept = stats(path, "canvas")
            assert none_kept == [0] * 3
            assert views == canvas, path
            assert [row[0] for row in views] == [error] * 3
            # A resize is kept from the GOP's second read on, when its
            # native entry hits.  A batch decodes its GOPs before its
            # reads run, and its first read counts that decode as its
            # own miss, so a batch reports what the other paths do.
            assert kept == [0, gop, gop], path
            assert views == [(error, 0, 1, FPS)] + [(error, 1, 0, 0)] * 2

    def test_a_window_inside_a_gop_is_pasted_and_never_kept(
        self, tmp_path, calibration, three_second_clip
    ):
        # Frames 15-29 of the second GOP, then the whole GOP: the first
        # read may keep no resize (it is not the GOP's from frame 0),
        # and neither answer may differ from a store without a cache.
        specs = [
            ReadSpec(
                "v", start, 2.0, codec="raw", resolution=(32, 18), cache=False
            )
            for start in (1.5, 1.0)
        ]
        answers = []
        for name, options in (("cached", {}), ("none", {"decode_cache_bytes": 0})):
            with VSSEngine(
                tmp_path / name, calibration=calibration, **options
            ) as engine:
                session = engine.session()
                session.write(
                    "v", three_second_clip, codec="h264", qp=10, gop_size=FPS
                )
                rows = []
                for spec in specs:
                    for _ in range(3):
                        result = session.read(spec)
                        rows.append(
                            (result.stats.resample_mse, result.segment.pixels.tobytes())
                        )
                    if spec is specs[0]:
                        assert engine.decode_cache.resized_bytes == 0
                answers.append(rows)
        assert answers[0] == answers[1]


@pytest.fixture(scope="module")
def twins(tmp_path_factory, calibration, three_second_clip):
    """Three engines holding the same videos (``h264`` and ``raw``
    copies of one 64x36 clip): the first keeps the default decode cache,
    the second has none, and both have a two-worker pool; the third
    keeps the cache and builds serially (``parallelism=1``)."""
    engines = []
    for options in (
        {"parallelism": 2},
        {"parallelism": 2, "decode_cache_bytes": 0},
        {"parallelism": 1},
    ):
        engine = VSSEngine(
            tmp_path_factory.mktemp("twin"), calibration=calibration, **options
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
    elif how == "twice":
        # The second read's plan, and with it its schedule, is cached
        # (unless background maintenance rewrote a page in between).
        first = session.read(spec).segment
        segment = session.read(spec).segment
        assert segment.pixels.tobytes() == first.pixels.tobytes()
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
    return draw(st.sampled_from(("read", "stream", "batch", "twice"))), ReadSpec(
        draw(st.sampled_from(("h264", "raw"))),
        first / FPS,
        (first + frames) / FPS,
        codec="raw",
        resolution=None if scale == 1 else (64 // scale, 36 // scale),
        roi=draw(st.sampled_from((None, (0, 0, 32, 36)))),
        fps=draw(st.sampled_from((None, 15.0))),
        cache=False,
    )


@contextlib.contextmanager
def _canvas_only(engine):
    """Every chunk ``engine`` reads meanwhile is pasted into a canvas: no
    identity chunk.  A plan keeps its schedule, identity chunks
    included, so the engine plans afresh on the way in and out."""
    with mock.patch.object(reader, "_identity_run", lambda ops, frames: None):
        engine._plan_cache.clear()
        try:
            yield
        finally:
            engine._plan_cache.clear()


@settings(max_examples=EXAMPLES, deadline=None)
@given(read=_reads())
def test_warm_views_equal_cache_off_answers(twins, read):
    how, spec = read
    cached, uncached, serial = twins
    _answer(cached, how, spec)  # warm: the first engine's cache now holds it
    expected = _answer(uncached, how, spec)
    get_resized = DecodeCache.get_resized
    submit = Executor.submit
    served, submitted = [], []

    def spy(self, *args):
        hit = get_resized(self, *args)
        served.append(hit is not None)
        return hit

    def submit_spy(self, *args):
        submitted.append(args)
        return submit(self, *args)

    with mock.patch.object(DecodeCache, "get_resized", spy), mock.patch.object(
        Executor, "submit", submit_spy
    ):
        assert _answer(cached, how, spec) == expected
    if any(served):
        event("a resized whole-GOP entry served a view")
    # A warm read finds every window cached and builds on the calling
    # thread, unless background maintenance (a re-tile after ROI reads)
    # changed the pages since the warm-up.
    if not submitted:
        event("the warm read built every chunk on the calling thread")
    assert _answer(serial, how, spec) == expected
    # Both twins take the same views, so the oracle for the views
    # themselves is the canvas every chunk was pasted into before.
    with _canvas_only(cached):
        assert _answer(cached, how, spec) == expected
