"""Twin stores: one random history, two engines, the same answers.

Two engines on two roots run the same hypothesis-drawn history of stream
appends, stream closes, whole writes, raw reads at full and half
resolution, hevc reads, streamed reads (drained at once), a streamed
read held open across the steps that follow, joint compression, delete
+ re-create, engine close + reopen, and the page rewrites: budget
enforcement under a small budget, compaction, deferred compression (raw
reads above its threshold, then a drain) and a re-tile followed by an
ROI read.  One keeps the default decode cache; its twin
has none (``decode_cache_bytes=0``).  The decode cache changes who
decodes a GOP (a read, search extraction, joint compression, tiling and
refinement take frames from it), and the catalog drops a rewritten
page's entry itself; it also changes where a read builds its chunks:
the read rules ask for their spec twice, and a second read whose plan
(and with it the chunk schedule) is cached finds every window in the
cached twin's decode cache and builds on the calling thread, while the
twin without a cache builds on its pool.  It must change nothing
else: after every step both engines have given the same bytes or raised
the same :class:`~repro.errors.VSSError` class, report the same storage
per video, hold byte-equal joint pieces under the same names, rank a
search alike (extraction indexed the same features), and report a clean
``engine.check()`` (a held stream's leased files aside, which both
list as ``pending``); a held stream drains to what an unraced read of
its spec gave when it opened; every answer either gave is read-only; and each
engine's catalog, whose row lookups are memoized and whose LRU stamps
wait in memory, answers as a fresh catalog on the same database does.

The data is two overlapping ``visualroad("1K")`` cameras, 3 s each.
Tier-1 runs a fixed, small number of histories; ``pytest
--hypothesis-profile=deep tests/test_store_model.py`` runs the deep
profile's (``tests/conftest.py``).
"""

from __future__ import annotations

import shutil
import tempfile
from functools import cache
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.catalog import Catalog
from repro.core.engine import VSSEngine
from repro.core.layout import Layout
from repro.core.reader import ReadResult
from repro.core.specs import ReadSpec
from repro.errors import VSSError, WriteError
from repro.jointcomp import JointCompressionManager
from repro.synthetic import visualroad
from repro.vbench.calibrate import Calibration
from repro.video.codec.container import encode_container

CAMERAS = ("left", "right")
FPS = 30
SECONDS = 3
#: One stream append: one GOP of ``gop_size`` frames (one second).
GOP = FPS
HALF = (96, 54)
#: Regions of the 192x108 frame an ROI read asks for.
ROIS = ((0, 0, 96, 54), (40, 20, 150, 90), (96, 54, 192, 108))

#: Tier-1 depth: 10-15 s on a 2-core host.
TIER1 = settings(max_examples=10, stateful_step_count=12, deadline=None)


@cache
def sources():
    return visualroad("1K", overlap=0.5, num_frames=SECONDS * FPS).videos(
        0, SECONDS * FPS
    )


def joined(first, rest):
    """A stream's first chunk and the result collecting the rest gave,
    as one result shaped like a read's."""
    if first.gops is not None:
        return ReadResult(rest.plan, None, first.gops + rest.gops, rest.stats)
    segment = first.segment
    if rest.segment is not None:
        segment = segment.concatenate([segment, rest.segment])
    return ReadResult(rest.plan, segment, None, rest.stats)


def outcome(call):
    """What a twin observed: the answer's bytes, or the error's class."""
    try:
        answer = call()
    except VSSError as exc:
        return type(exc)
    if not hasattr(answer, "gops"):
        return None  # not a read: only success counts
    if answer.gops is not None:
        return b"".join(encode_container(gop) for gop in answer.gops)
    segment = answer.segment
    return segment.pixel_format, segment.pixels.shape, segment.pixels.tobytes()


class TwinStores(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="vss-twins-"))
        self.roots = (self.dir / "cached", self.dir / "uncached")
        self.engines = [self.open(i) for i in (0, 1)]
        #: Per camera: the twins' open write streams, or None.
        self.streams: dict[str, list | None] = dict.fromkeys(CAMERAS)
        #: Seconds written to a camera's video (by a stream or a write).
        #: At 0 a stream may start or a whole write land; a video with
        #: seconds and no stream takes no more.
        self.seconds = dict.fromkeys(CAMERAS, 0)
        #: The read results of the current step, on both twins.
        self.answers: list = []
        #: A read stream held open on both twins: (streams, their first
        #: chunks, the answer an unraced read gave when they opened).
        self.held: tuple[list, list, object] | None = None

    def open(self, twin: int) -> VSSEngine:
        cache_bytes = {} if twin == 0 else {"decode_cache_bytes": 0}
        return VSSEngine(
            self.roots[twin], calibration=Calibration.default(),
            parallelism=2, **cache_bytes,
        )

    def both(self, act):
        """Run ``act(twin)`` for both twins (0, 1); they must agree."""
        first, second = (outcome(lambda: act(twin)) for twin in (0, 1))
        assert first == second
        return first

    # ------------------------------------------------------------------
    # steps, each run on both twins
    # ------------------------------------------------------------------
    def append(self, camera: str) -> None:
        """Append the camera's next GOP, opening its stream first."""
        source = sources()[CAMERAS.index(camera)]
        if self.streams[camera] is None:
            self.streams[camera] = [
                engine.open_write_stream(
                    camera, "h264", "rgb", source.width, source.height, FPS,
                    qp=14, gop_size=GOP,
                )
                for engine in self.engines
            ]
        second = self.seconds[camera]
        piece = source.slice_frames(second * FPS, (second + 1) * FPS)
        self.both(lambda twin: self.streams[camera][twin].append(piece))
        self.seconds[camera] += 1

    def close_stream(self, camera: str) -> None:
        self.both(lambda twin: self.streams[camera][twin].close())
        self.streams[camera] = None

    def write(self, camera: str, seconds: int) -> None:
        source = sources()[CAMERAS.index(camera)].slice_frames(0, seconds * FPS)
        self.both(
            lambda twin: self.engines[twin].session().write(
                camera, source, codec="h264", qp=14, gop_size=GOP
            )
        )
        self.seconds[camera] = seconds

    def read(
        self, camera: str, start: float, end: float, stream=False, **spec
    ) -> None:
        """One read on both twins; with ``stream``, a streamed read
        drained at once."""

        def answer(twin: int):
            session = self.engines[twin].session()
            if stream:
                result = session.read_stream(camera, start, end, **spec).collect()
            else:
                result = session.read(camera, start, end, **spec)
            self.answers.append(result)
            return result

        self.both(answer)

    def read_twice(self, *args, **spec) -> None:
        """A read, a drain, and the same read again.  Unless the first
        read was admitted or maintenance rewrote a page, the second's
        plan is cached.  The drain keeps the twins in step: a background
        admission or compaction landing between the two reads on one
        twin alone would change the second read's plan there."""
        self.read(*args, **spec)
        self.drain()
        self.read(*args, **spec)

    def drain(self) -> None:
        """Run both twins' queued background work, so the next step
        starts from the same background state on both."""
        for engine in self.engines:
            engine.drain_admissions()

    def each(self, act) -> list:
        """What ``act(engine)`` returned or raised (its
        :class:`~repro.errors.VSSError` class) on each twin, after a
        drain."""
        self.drain()
        results = []
        for engine in self.engines:
            try:
                results.append(act(engine))
            except VSSError as exc:
                results.append(type(exc))
        return results

    def optimize(self) -> None:
        first, second = (
            (r.pairs_compressed, r.pairs_rejected, r.bytes_before, r.bytes_after)
            for r in (
                JointCompressionManager(engine, merge="mean").optimize()
                for engine in self.engines
            )
        )
        assert first == second

    # ------------------------------------------------------------------
    # rules: draw a step's arguments
    # ------------------------------------------------------------------
    def appendable(self) -> list[str]:
        return [
            c for c in CAMERAS
            if self.seconds[c] < SECONDS
            and (self.streams[c] or not self.seconds[c])
        ]

    def empty(self) -> list[str]:
        return [c for c in CAMERAS if not self.seconds[c]]

    def window(self, data, step: float) -> tuple[str, float, float]:
        """A camera with video and a window of it on a ``step`` grid, or
        on whole seconds part of the time: GOP-aligned windows are the
        ones a warm twin serves as views of its decode cache (any camera
        and window while none has video: those reads fail alike, which a
        few steps show well enough)."""
        camera = data.draw(st.sampled_from(self.written() or CAMERAS))
        if data.draw(st.booleans()):
            step = 1.0
        cells = round(max(self.seconds[camera], 1) / step)
        first = data.draw(st.integers(0, cells - 1))
        last = data.draw(st.integers(first + 1, cells))
        return camera, first * step, last * step

    @precondition(lambda self: self.appendable())
    @rule(data=st.data())
    def append_one_gop(self, data):
        self.append(data.draw(st.sampled_from(self.appendable())))

    @precondition(lambda self: any(self.streams.values()))
    @rule(data=st.data())
    def close(self, data):
        self.close_stream(
            data.draw(st.sampled_from([c for c in CAMERAS if self.streams[c]]))
        )

    @precondition(lambda self: self.empty())
    @rule(data=st.data(), seconds=st.integers(1, SECONDS))
    def session_write(self, data, seconds):
        self.write(data.draw(st.sampled_from(self.empty())), seconds)

    @rule(data=st.data(), half=st.booleans(), cache=st.booleans())
    def read_raw(self, data, half, cache):
        self.read_twice(
            *self.window(data, 0.5), codec="raw",
            resolution=HALF if half else None, cache=cache,
        )

    @rule(data=st.data(), cache=st.booleans())
    def read_hevc(self, data, cache):
        self.read_twice(*self.window(data, 1.0), codec="hevc", cache=cache)

    @rule(
        data=st.data(), codec=st.sampled_from(("raw", "hevc")),
        half=st.booleans(),
    )
    def read_stream(self, data, codec, half):
        """A streamed read, drained before the next step: a stream held
        open across a budget eviction fails today, on both twins."""
        raw = codec == "raw"
        self.read_twice(
            *self.window(data, 0.5 if raw else 1.0), stream=True, codec=codec,
            resolution=HALF if raw and half else None,
        )

    @precondition(lambda self: self.held is None)
    @rule(data=st.data(), codec=st.sampled_from(("raw", "hevc")))
    def open_held_stream(self, data, codec):
        """Read a window, then open a stream of the same spec on both
        twins and pull it once; it stays open across the steps that
        follow, until :meth:`drain_held_stream` (none when the read
        fails)."""
        raw = codec == "raw"
        camera, start, end = self.window(data, 0.5 if raw else 1.0)
        spec = ReadSpec(camera, start, end, codec=codec, cache=False)
        expected = self.both(lambda twin: self.engines[twin].session().read(spec))
        if isinstance(expected, type):
            return
        streams = [engine.session().read_stream(spec) for engine in self.engines]
        self.held = (streams, [next(stream) for stream in streams], expected)

    @precondition(lambda self: self.held is not None)
    @rule()
    def drain_held_stream(self):
        """Whatever ran since it opened, the held stream drains to the
        unraced answer on both twins, and its leases end with it."""
        streams, firsts, expected = self.held
        self.held = None
        for stream, first in zip(streams, firsts):
            assert outcome(lambda: joined(first, stream.collect())) == expected

    @precondition(lambda self: not self.empty())
    @rule()
    def jointly_compress(self):
        self.optimize()

    def written(self) -> list[str]:
        return [c for c in CAMERAS if self.seconds[c]]

    @precondition(lambda self: self.written())
    @rule(data=st.data(), budget=st.sampled_from((1, 400_000)))
    def evict_to_budget(self, data, budget):
        camera = data.draw(st.sampled_from(self.written()))

        def evict(engine):
            engine.set_budget(camera, budget)
            report = engine.enforce_budget(camera)
            return len(report.evicted_gop_ids), report.bytes_freed, report.fit

        assert len(set(self.each(evict))) == 1

    @precondition(lambda self: max(self.seconds.values()) >= 2)
    @rule(data=st.data())
    def compact(self, data):
        """Two adjacent one-second hevc reads, each drained, admit two
        contiguous cached physicals; compaction merges them."""
        camera = data.draw(
            st.sampled_from([c for c in CAMERAS if self.seconds[c] >= 2])
        )
        split = data.draw(st.integers(1, self.seconds[camera] - 1))
        for start in (split - 1.0, float(split)):
            self.drain()
            self.read(camera, start, start + 1.0, codec="hevc")
        assert len(set(self.each(lambda engine: engine.compact(camera)))) == 1

    @precondition(lambda self: self.written())
    @rule(data=st.data())
    def compress_deferred(self, data):
        """Raw reads of one window, each drained: once the video's cache
        use is above the deferred-compression threshold, the next raw
        read queues a page's compression, and the invariant drains it."""
        camera, start, end = self.window(data, 0.5)
        for _ in range(2):
            self.drain()
            self.read(camera, start, end, codec="raw")

    @precondition(lambda self: self.written())
    @rule(data=st.data(), cols=st.integers(1, 3), roi=st.sampled_from(ROIS))
    def retile_and_read_roi(self, data, cols, roi):
        camera, start, end = self.window(data, 0.5)
        self.drain()
        self.both(
            lambda twin: self.engines[twin].retile(camera, rows=2, cols=cols)
        )
        self.read(camera, start, end, codec="raw", roi=roi)

    @rule(camera=st.sampled_from(CAMERAS))
    def delete_and_recreate(self, camera):
        self.both(lambda twin: self.engines[twin].delete(camera))
        self.both(lambda twin: self.engines[twin].create(camera))
        if self.streams[camera]:
            # The old stream outlived its video: its next append fails.
            piece = sources()[0].slice_frames(0, FPS)
            failed = self.both(lambda twin: self.streams[camera][twin].append(piece))
            assert failed is WriteError
        self.streams[camera] = None
        self.seconds[camera] = 0

    @rule()
    def close_and_reopen(self):
        for engine in self.engines:
            engine.close()
        self.engines = [self.open(i) for i in (0, 1)]
        # Open streams die with their engine; their videos keep what was
        # appended and take no more, and a held read stream's leases end
        # (the invariant finds its files gone).
        self.streams = dict.fromkeys(CAMERAS)
        self.close_held()

    def close_held(self) -> None:
        if self.held is not None:
            for stream in self.held[0]:
                stream.close()
            self.held = None

    # ------------------------------------------------------------------
    @invariant()
    def twins_agree_and_check_clean(self):
        self.drain()
        reports = [engine.check() for engine in self.engines]
        assert reports[0] == reports[1]
        pending = reports[0].pop("pending")
        assert reports[0] == {"orphans": [], "dangling": [], "mismatched": []}
        assert self.held is not None or pending == []
        pieces = [
            {p.name: p.read_bytes() for p in (root / "joint").iterdir()}
            for root in self.roots
        ]
        assert pieces[0] == pieces[1]
        # Admission, eviction, compaction and deferred compression stored
        # the same pages on both twins.
        first, second = (
            [engine.video_stats(name) for name in engine.list_videos("video")]
            for engine in self.engines
        )
        assert first == second
        # Search extraction indexed the same features on both twins.
        first, second = (
            engine.search(text="vehicle car truck", like=sources()[1].frame(0))
            for engine in self.engines
        )
        assert first == second

    @invariant()
    def answers_are_read_only(self):
        """Every in-process answer is read-only: a raw one may be a view
        of a decode-cache entry, which no caller may write through."""
        for result in self.answers:
            if result.segment is not None:
                assert not result.segment.pixels.flags.writeable
        self.answers.clear()

    @invariant()
    def catalog_answers_as_a_fresh_one(self):
        """For each live name, the engine catalog's memoized lookups and
        its GOP rows (pending stamps written first) equal what a fresh
        catalog on the same database reads."""
        self.drain()
        for engine in self.engines:
            names = engine.list_videos("video")
            answers = self.lookups(engine.catalog, names)
            fresh = Catalog(engine.catalog.path)
            try:
                assert self.lookups(fresh, names) == answers
            finally:
                fresh.close()

    @staticmethod
    def lookups(catalog: Catalog, names: list[str]) -> tuple:
        """Every name's memoized lookups, then the GOP rows that carry
        ``last_access`` (reading those writes the stamps, a commit that
        drops the memo)."""
        logicals = [catalog.get_logical(name) for name in names]
        memoized = [
            (
                logical,
                catalog.original_physical(logical.id),
                catalog.total_bytes(logical.id),
            )
            for logical in logicals
        ]
        return memoized, [catalog.gops_of_logical(v.id) for v in logicals]

    def teardown(self):
        self.close_held()
        for engine in self.engines:
            engine.close()
        shutil.rmtree(self.dir, ignore_errors=True)


TwinStores.TestCase.settings = (
    settings.default if settings.get_current_profile_name() == "deep" else TIER1
)
TestTwinStores = TwinStores.TestCase


def test_twins_agree_on_an_ingest_follow_epoch(monkeypatch):
    """The benchmark's ingest epoch in small, on both twins: each camera
    streamed a GOP at a time with a tail read of the new second after
    every append, closed, jointly compressed and read back.  The tail
    reads leave every original GOP in the cached twin's decode cache, so
    its search extraction and joint compression read no page of them;
    the twin without a cache decodes every page, to the same bytes."""
    pages_read = {}
    read_gop = Layout.read_gop

    def counted(layout, relpath):
        if relpath.startswith("videos/"):
            pages_read[layout.root] = pages_read.get(layout.root, 0) + 1
        return read_gop(layout, relpath)

    machine = TwinStores()
    try:
        for second in range(SECONDS):
            for camera in CAMERAS:
                machine.append(camera)
                machine.read(camera, second, second + 1.0, codec="raw")
        machine.twins_agree_and_check_clean()
        monkeypatch.setattr(Layout, "read_gop", counted)
        for camera in CAMERAS:
            machine.close_stream(camera)
        for engine in machine.engines:
            engine.drain_admissions()  # the extraction the closes queued
        machine.optimize()
        monkeypatch.undo()
        machine.twins_agree_and_check_clean()
        assert pages_read.get(machine.roots[0], 0) == 0
        assert pages_read[machine.roots[1]] >= 2 * len(CAMERAS) * SECONDS
        assert len(list((machine.roots[0] / "joint").iterdir())) >= 3
        for camera in CAMERAS:
            machine.read(camera, 0.0, float(SECONDS), codec="raw")
            machine.read(camera, 0.0, 2.0, codec="hevc")
        machine.answers_are_read_only()
    finally:
        machine.teardown()


class _Draws:
    """Stands in for ``st.data()``: hands out fixed draws in order."""

    def __init__(self, *values):
        self.values = list(values)

    def draw(self, strategy):
        return self.values.pop(0)


def test_a_held_stream_outlives_the_eviction_of_its_pages():
    """The history the held-stream rule first found, replayed: a raw
    read admits a cached raw copy of the first second, a stream of that
    second planned from it is held open while a budget of 1 evicts the
    copy, and the stream still drains to the unraced answer on both
    twins (it raised ``ReadError`` before streams leased their pages)."""
    machine = TwinStores()
    steps = [
        ("session_write", dict(data=_Draws("left"), seconds=1)),
        (
            "read_raw",
            dict(data=_Draws("left", True, 0, 1), half=False, cache=True),
        ),
        ("open_held_stream", dict(data=_Draws("left", True, 0, 1), codec="raw")),
        ("evict_to_budget", dict(data=_Draws("left"), budget=1)),
        ("drain_held_stream", {}),
    ]
    try:
        for name, arguments in steps:
            getattr(machine, name)(**arguments)
            machine.answers_are_read_only()
            machine.catalog_answers_as_a_fresh_one()
            machine.twins_agree_and_check_clean()
            if name == "evict_to_budget":
                pending = machine.engines[0].check()["pending"]
                assert pending == machine.engines[1].check()["pending"] != []
    finally:
        machine.teardown()
