"""Engine/session API: typed specs, concurrency, and batched reads.

The contracts under test:

* ``ReadSpec``/``WriteSpec`` validate at construction and are immutable.
* ``VSSEngine`` is safe to share across threads: mixed reads, writes and
  deletes on shared and disjoint logical videos neither corrupt pixels
  nor deadlock, and concurrent reads are bit-identical to serial ones.
* ``session.read_batch`` decodes each GOP window shared by overlapping
  reads exactly once (decode-cache/batch counters prove it) and beats
  the same reads issued sequentially.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from concurrent.futures import wait

import numpy as np
import pytest

from repro.client import VSSClient
from repro.core.admission import AdmissionWorker
from repro.core.cost import CostModel
from repro.core.engine import EngineStats, Session, VSSEngine
from repro.core.read_planner import plan_read
from repro.core.rwlock import RWLock, RWLockStats
from repro.core.specs import ReadSpec, ViewSpec, WriteSpec
from repro.util import Counters, LogicalClock
from repro.errors import (
    FormatError,
    OutOfRangeError,
    ReadError,
    VideoNotFoundError,
    WriteError,
)
from repro.video.frame import blank_segment


@pytest.fixture()
def engine(tmp_path, calibration) -> VSSEngine:
    eng = VSSEngine(tmp_path / "store", calibration=calibration)
    yield eng
    eng.close()


@pytest.fixture()
def loaded_engine(engine, three_second_clip) -> VSSEngine:
    session = engine.session()
    session.write("traffic", three_second_clip, codec="h264", qp=10, gop_size=30)
    return engine


# ----------------------------------------------------------------------
# specs
# ----------------------------------------------------------------------
class TestSpecs:
    def test_read_spec_validates_at_construction(self):
        with pytest.raises(OutOfRangeError):
            ReadSpec("v", 1.0, 1.0)
        with pytest.raises(FormatError):
            ReadSpec("v", 0.0, 1.0, codec="av1")
        with pytest.raises(FormatError):
            ReadSpec("v", 0.0, 1.0, pixel_format="cmyk")
        with pytest.raises(ValueError):
            ReadSpec("v", 0.0, 1.0, qp=99)
        with pytest.raises(ValueError):
            ReadSpec("v", 0.0, 1.0, resolution=(0, 10))
        with pytest.raises(OutOfRangeError):
            ReadSpec("v", 0.0, 1.0, roi=(10, 0, 5, 5))
        with pytest.raises(ValueError):
            ReadSpec("v", 0.0, 1.0, mode="quantum")
        with pytest.raises(ValueError):
            ReadSpec("", 0.0, 1.0)

    def test_write_spec_validates_at_construction(self):
        with pytest.raises(FormatError):
            WriteSpec("v", codec="prores")
        with pytest.raises(ValueError):
            WriteSpec("v", gop_size=0)

    def test_specs_are_frozen_with_replace(self):
        spec = ReadSpec("v", 0.0, 1.0, codec="h264")
        with pytest.raises(AttributeError):
            spec.start = 5.0
        shifted = spec.replace(start=1.0, end=2.0)
        assert (shifted.start, shifted.end) == (1.0, 2.0)
        assert shifted.codec == "h264"
        assert (spec.start, spec.end) == (0.0, 1.0)  # original untouched
        with pytest.raises(OutOfRangeError):
            spec.replace(end=-1.0)  # replace re-validates

    def test_sweep_ergonomics(self):
        base = ReadSpec("v", 0.0, 1.0)
        specs = [base.replace(start=t, end=t + 1.0) for t in range(4)]
        assert [s.start for s in specs] == [0.0, 1.0, 2.0, 3.0]


# ----------------------------------------------------------------------
# engine + sessions
# ----------------------------------------------------------------------
class TestEngineSessions:
    def test_session_defaults_fill_specs(self, engine):
        session = engine.session(codec="h264", qp=12, gop_size=8)
        spec = session.read_spec("v", 0.0, 1.0)
        assert spec.codec == "h264" and spec.qp == 12
        wspec = session.write_spec("v")
        assert (wspec.codec, wspec.qp, wspec.gop_size) == ("h264", 12, 8)
        # Explicit arguments beat session defaults.
        assert session.read_spec("v", 0.0, 1.0, codec="raw").codec == "raw"

    def test_unknown_session_default_rejected(self, engine):
        with pytest.raises(TypeError):
            engine.session(kodec="h264")

    def test_bad_default_value_rejected_when_given(self, engine):
        """A typo in a default fails on the line that gave it, through
        the specs' own checks, not at the first read."""
        with pytest.raises(FormatError):
            engine.session(codec="nonsense")
        with pytest.raises(ValueError):
            engine.session(gop_size=0)
        # The clients share the base; constructing one opens no socket.
        with pytest.raises(FormatError):
            VSSClient("127.0.0.1", 1, codec="nonsense")

    def test_session_read_write_and_stats(self, loaded_engine, three_second_clip):
        session = loaded_engine.session()
        result = session.read("traffic", 0.0, 1.0)
        assert result.segment.num_frames == 30
        assert session.stats.reads == 1
        assert session.stats.wall_seconds > 0.0
        session.write("other", three_second_clip, codec="h264", gop_size=30)
        assert session.stats.writes == 1

    def test_read_accepts_spec_or_kwargs(self, loaded_engine):
        session = loaded_engine.session()
        via_spec = session.read(ReadSpec("traffic", 0.0, 1.0, cache=False))
        via_kwargs = session.read("traffic", 0.0, 1.0, cache=False)
        assert np.array_equal(via_spec.segment.pixels, via_kwargs.segment.pixels)
        with pytest.raises(TypeError):
            session.read(ReadSpec("traffic", 0.0, 1.0), 0.0, 1.0)
        with pytest.raises(TypeError):
            session.read("traffic", 0.0)  # missing end

    def test_engine_and_video_stats_split(self, loaded_engine):
        session = loaded_engine.session()
        session.read("traffic", 0.4, 1.2, cache=False)
        video = loaded_engine.video_stats("traffic")
        assert video.name == "traffic"
        assert video.num_gops > 0
        assert not hasattr(video, "decode_cache_hits")
        store = loaded_engine.stats()
        assert store.reads == 1
        assert store.num_sessions >= 1
        assert store.decode_cache_misses > 0
        assert store.executor_tasks > 0

    def test_sessions_are_cheap_handles(self, loaded_engine):
        before = loaded_engine.stats().num_sessions
        sessions = [loaded_engine.session() for _ in range(100)]
        assert all(isinstance(s, Session) for s in sessions)
        assert loaded_engine.stats().num_sessions == before + 100

    #: ``EngineStats`` field names in order: ``/metrics`` consumers and
    #: the benchmark read them by name.
    ENGINE_STATS_FIELDS = (
        "num_logical_videos", "num_views", "num_sessions", "reads",
        "writes", "batches", "streams", "view_reads", "failures",
        "session_seconds", "parallelism", "executor_tasks",
        "decode_cache_hits", "decode_cache_misses", "decode_cache_hit_rate",
        "decode_cache_evictions", "decode_cache_invalidations",
        "decode_cache_bytes", "decode_cache_resized_bytes",
        "plan_cache_hits", "plan_cache_misses",
        "lock_shared_acquisitions", "lock_exclusive_acquisitions",
        "admission_queue_depth", "admissions_enqueued",
        "admissions_completed", "admissions_coalesced", "admissions_dropped",
        "search_index_rows", "extraction_pending", "extraction_completed",
        "extraction_dropped", "searches_served", "search_seconds",
        "tiles_total", "tiles_decoded", "tile_bytes_skipped", "retiles",
        "codec_entropy_seconds", "codec_transform_seconds",
        "codec_compensate_seconds", "codec_frames_decoded",
        "codec_decoded_bytes", "codec_decode_mb_per_s",
        "codec_encode_recurrence_seconds", "codec_encode_entropy_seconds",
        "codec_frames_encoded",
    )

    def test_engine_stats_roll_up_a_fixed_script(
        self, engine, three_second_clip, tiny_clip
    ):
        """Every running total of ``EngineStats`` after one fixed script
        of reads, writes, a batch, a stream, a view, a retile, a search
        and a failing read: each equals what the script did and the sum
        of its reads' own ``ReadStats``."""
        assert tuple(
            f.name for f in dataclasses.fields(EngineStats)
        ) == self.ENGINE_STATS_FIELDS
        session = engine.session()
        session.write("cam", three_second_clip, codec="h264", qp=10, gop_size=30)
        session.write("tiled", tiny_clip, codec="h264", qp=10, gop_size=12)
        reads = [session.read("cam", 0.0, 1.0, codec="raw", cache=False)]
        reads.append(session.read("cam", 0.2, 1.4, codec="hevc", qp=14))
        engine.drain_admissions()  # the hevc answer is admitted
        stream = session.read_stream("cam", 0.5, 1.5, codec="raw")
        assert list(stream)
        reads.append(stream)
        reads += session.read_batch([
            ReadSpec("cam", 0.0, 2.0, codec="raw", cache=False),
            ReadSpec("cam", 1.0, 2.5, codec="h264", qp=20, cache=False),
        ])
        engine.create_view("clip", ViewSpec(over="cam", start=0.5, end=2.0))
        reads.append(session.read("clip", 0.5, 1.0, codec="raw", cache=False))
        assert engine.retile("tiled", rows=2, cols=2) is not None
        roi = session.read(
            "tiled", 0.0, 0.8, codec="raw", roi=(0, 0, 32, 18), cache=False
        )
        reads.append(roi)
        assert roi.stats.tiles_decoded < roi.stats.tiles_total
        session.search(text="vehicle")
        with pytest.raises(VideoNotFoundError):
            session.read("ghost", 0.0, 1.0)
        session.close()
        stats = engine.stats()

        per_read = [r.stats for r in reads]

        def total(attr: str):
            return sum(getattr(s, attr) for s in per_read)

        replanned = 1  # the admission re-plans the hevc read: a hit
        assert (stats.reads, stats.streams, stats.batches) == (7, 1, 1)
        assert (stats.writes, stats.view_reads, stats.retiles) == (2, 1, 1)
        assert (stats.num_sessions, stats.failures) == (1, 1)
        assert stats.session_seconds == pytest.approx(
            session.stats.wall_seconds
        )
        assert stats.plan_cache_hits == total("plan_cached") + replanned
        assert stats.plan_cache_misses == 7 - total("plan_cached")
        assert stats.plan_cache_hits == 1
        assert (
            stats.extraction_pending,
            stats.extraction_completed,
            stats.extraction_dropped,
        ) == (0, 2, 0)
        assert stats.searches_served == 1
        assert stats.search_seconds > 0.0
        for field in ("tiles_total", "tiles_decoded", "tile_bytes_skipped"):
            assert getattr(stats, field) == total(field), field
        assert stats.tile_bytes_skipped > 0
        assert stats.codec_frames_decoded == total("frames_decoded")
        for field in (
            "codec_decoded_bytes", "codec_frames_encoded",
        ):
            assert getattr(stats, field) == total(field), field
        for field in (
            "codec_entropy_seconds",
            "codec_transform_seconds",
            "codec_compensate_seconds",
            "codec_encode_recurrence_seconds",
            "codec_encode_entropy_seconds",
        ):
            assert getattr(stats, field) == pytest.approx(total(field)), field
        assert stats.codec_frames_encoded > 0
        assert stats.codec_decode_mb_per_s == pytest.approx(
            total("codec_decoded_bytes")
            / 1e6
            / total("codec_decode_seconds")
        )
        assert (stats.num_logical_videos, stats.num_views) == (2, 1)
        assert stats.admission_queue_depth == 0


# ----------------------------------------------------------------------
# multi-threaded sessions
# ----------------------------------------------------------------------
class TestConcurrency:
    def test_disjoint_videos_concurrent_read_write(self, engine):
        """Threads on different videos run concurrently without corruption;
        every video reads back its own fill value."""
        fills = {f"cam{i}": 20 * (i + 1) for i in range(4)}
        errors: list[BaseException] = []

        def work(name: str, fill: int) -> None:
            try:
                session = engine.session()
                clip = blank_segment(16, 36, 64, fps=30.0, fill=fill)
                session.write(name, clip, codec="raw", gop_size=8)
                for _ in range(3):
                    result = session.read(name, 0.1, 0.4, cache=False)
                    assert int(result.segment.pixels.mean()) == fill
            except BaseException as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(name, fill))
            for name, fill in fills.items()
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert sorted(engine.list_videos()) == sorted(fills)

    def test_shared_video_reads_bit_identical_to_serial(self, loaded_engine):
        reference = loaded_engine.session().read(
            "traffic", 0.4, 1.6, cache=False
        )
        outputs: dict[int, np.ndarray] = {}
        errors: list[BaseException] = []

        def reader(slot: int) -> None:
            try:
                session = loaded_engine.session()
                result = session.read("traffic", 0.4, 1.6, cache=False)
                outputs[slot] = result.segment.pixels
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(slot,)) for slot in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(outputs) == 6
        for pixels in outputs.values():
            assert np.array_equal(pixels, reference.segment.pixels)

    def test_mixed_reads_writes_deletes(self, engine):
        """A hostile mix: one shared video being read, per-thread videos
        being written/read/deleted.  No corruption, no unexpected errors."""
        shared_clip = blank_segment(24, 36, 64, fps=30.0, fill=111)
        engine.session().write("shared", shared_clip, codec="raw", gop_size=8)
        errors: list[BaseException] = []

        def work(slot: int) -> None:
            try:
                session = engine.session()
                name = f"scratch{slot}"
                for round_num in range(3):
                    fill = 10 + slot * 3 + round_num
                    clip = blank_segment(16, 36, 64, fps=30.0, fill=fill)
                    session.write(name, clip, codec="raw", gop_size=8)
                    mine = session.read(name, 0.0, 0.5, cache=False)
                    assert int(mine.segment.pixels.mean()) == fill
                    ours = session.read("shared", 0.1, 0.7, cache=False)
                    assert int(ours.segment.pixels.mean()) == 111
                    engine.delete(name)
            except (VideoNotFoundError, ReadError):
                pass  # acceptable: raced against our own delete cycle
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        survivors = engine.list_videos()
        assert "shared" in survivors
        final = engine.session().read("shared", 0.0, 0.8, cache=False)
        assert int(final.segment.pixels.mean()) == 111

    def test_read_async_matches_sync(self, loaded_engine):
        session = loaded_engine.session()
        sync = session.read("traffic", 0.3, 1.1, cache=False)
        futures = [
            session.read_async("traffic", 0.3, 1.1, cache=False)
            for _ in range(4)
        ]
        done, pending = wait(futures, timeout=60.0)
        assert not pending
        for future in done:
            assert np.array_equal(
                future.result().segment.pixels, sync.segment.pixels
            )
        assert session.stats.reads == 5

    def test_stream_append_after_delete_raises(self, engine):
        """A streaming write racing engine.delete() must fail cleanly
        instead of resurrecting the deleted video's pages."""
        clip = blank_segment(16, 36, 64, fps=30.0, fill=50)
        stream = engine.open_write_stream(
            "live", "h264", "rgb", 64, 36, 30.0, qp=12, gop_size=8
        )
        stream.append(clip)
        engine.delete("live")
        with pytest.raises(WriteError):
            stream.append(clip)
        with pytest.raises(WriteError):
            stream.close()
        assert "live" not in engine.list_videos()

    def test_stream_append_after_recreate_raises(self, engine):
        """A re-created video gets a new id (ids are never recycled), and
        a write stream of the deleted incarnation must not append into
        the video re-created under its name."""
        clip = blank_segment(8, 36, 64, fps=30.0, fill=50)
        stream = engine.open_write_stream(
            "v", "h264", "rgb", 64, 36, 30.0, qp=12, gop_size=8
        )
        stream.append(clip)
        old_id = engine.catalog.get_logical("v").id
        engine.delete("v")
        assert engine.create("v").id > old_id
        with pytest.raises(WriteError):
            stream.append(clip)
        engine.session().write("v", clip, codec="h264", qp=12, gop_size=8)
        catalog = engine.catalog
        physicals = catalog.list_physicals(catalog.get_logical("v").id)
        assert [
            (p.id > stream.physical.id, len(catalog.gops_of_physical(p.id)))
            for p in physicals
        ] == [(True, 1)]

    def test_delete_prunes_per_logical_state(self, engine):
        """Name churn must not grow the lock registry without bound."""
        clip = blank_segment(8, 36, 64, fps=30.0, fill=10)
        session = engine.session()
        for i in range(8):
            session.write(f"tmp{i}", clip, codec="raw", gop_size=8)
            engine.delete(f"tmp{i}")
        engine.drain_admissions()
        assert len(engine._logical_locks) == 0
        assert len(engine._refine_cursor) == 0

    def test_extraction_racing_delete_retires_its_lock(self, engine):
        """Every write queues background extraction; when delete wins the
        lock first, the task must not leave behind the fresh registry
        entry its acquisition re-created for the dead name."""
        clip = blank_segment(8, 36, 64, fps=30.0, fill=10)
        session = engine.session()
        for i in range(50):
            name = f"churn{i}"
            # Stage the race: the exclusive lock is reentrant, so holding
            # it across write + delete parks the extraction task on the
            # lock while the video still exists.
            with engine._locked(name):
                session.write(name, clip, codec="raw", gop_size=8)
                deadline = time.monotonic() + 1.0
                while (
                    engine._admissions._running_key is None
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.0005)
                time.sleep(0.002)  # let the running task reach the lock
                engine.delete(name)
        engine.drain_admissions()
        assert engine._logical_locks == {}
        assert engine._refine_cursor == {}
        assert engine.stats().extraction_pending == 0

    def test_queued_tasks_for_deleted_names_retire_their_locks(self, engine):
        """A background admission racing delete must not re-register (and
        orphan) the dead name's entry in the lock registry."""
        clip = blank_segment(16, 36, 64, fps=30.0, fill=60)
        session = engine.session()
        for i in range(6):
            name = f"churn{i}"
            session.write(name, clip, codec="raw", gop_size=8)
            # Cacheable transcode: enqueues a background admission.
            session.read(ReadSpec(name, 0.0, 0.4, codec="h264", qp=12))
            engine.delete(name)
        engine.drain_admissions()
        assert len(engine._logical_locks) == 0

    def test_delete_with_compression_queued_is_quiet(
        self, tmp_path, calibration
    ):
        """A raw read of an active video queues one page compression on
        the maintenance step; a delete landing while that task waits for
        the video's lock turns it into a quiet no-op that rewrites
        (resurrects) no page file under the deleted name."""
        with VSSEngine(tmp_path / "store", calibration=calibration) as engine:
            session = engine.session()
            clip = blank_segment(32, 36, 64, fps=30.0, fill=77)
            session.write("doomed", clip, codec="raw", gop_size=4)
            engine.drain_admissions()
            # A tiny budget makes deferred compression active immediately.
            engine.set_budget("doomed", 1)
            # The exclusive lock is reentrant: holding it across the read
            # and the delete parks the queued task on the lock meanwhile.
            with engine._locked("doomed"):
                session.read(ReadSpec("doomed", 0.0, 0.5, codec="raw", cache=False))
                deadline = time.monotonic() + 1.0
                while (
                    engine._admissions._running_key is None
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.0005)
                assert engine._admissions._running_key == (
                    "maintain",
                    engine.catalog.get_logical("doomed").id,
                )
                engine.delete("doomed")
            engine.drain_admissions()
            assert engine._admissions.stats.failures == 0
            assert "doomed" not in engine.list_videos()
            assert list((tmp_path / "store").rglob("doomed*")) == []
            assert engine._pending_maintenance == {}
            assert engine._logical_locks == {}
            # The store remains fully usable.
            session.write("next", clip, codec="raw", gop_size=8)
            result = session.read("next", 0.0, 0.5, cache=False)
            assert int(result.segment.pixels.mean()) == 77


# ----------------------------------------------------------------------
# batched reads: shared planning + deduplicated decode work
# ----------------------------------------------------------------------
class TestReadBatch:
    @staticmethod
    def _overlapping_specs(n: int = 8) -> list[ReadSpec]:
        """n look-back reads over the same two GOPs (starts mid-GOP, so
        serial execution re-decodes the look-back prefix every time)."""
        base = ReadSpec("traffic", 0.5, 1.4, cache=False)
        return [
            base.replace(start=0.5 + 0.05 * i, end=1.4 + 0.05 * i)
            for i in range(n)
        ]

    @pytest.fixture()
    def nocache_engine(self, tmp_path, calibration, three_second_clip):
        """Decode cache off and serial execution: every decode is real,
        so sharing is observable in both counters and wall time."""
        eng = VSSEngine(
            tmp_path / "nocache",
            calibration=calibration,
            parallelism=1,
            decode_cache_bytes=0,
        )
        eng.session().write(
            "traffic", three_second_clip, codec="h264", qp=10, gop_size=30
        )
        yield eng
        eng.close()

    def test_batch_decodes_each_shared_gop_once(self, nocache_engine):
        session = nocache_engine.session()
        specs = self._overlapping_specs(8)
        results = session.read_batch(specs)
        assert len(results) == 8
        batch = session.stats.last_batch
        assert batch is not None and batch.num_reads == 8
        # 8 overlapping reads over 2 GOPs: 16 windows, 2 unique decodes.
        assert batch.window_requests > batch.unique_gops
        assert batch.gops_decoded == batch.unique_gops == 2
        assert batch.gops_shared == batch.window_requests - 2
        # Each shared GOP decoded once, counted by the first read that
        # used it; the rest re-decode nothing.  Without a decode cache,
        # no read counts a decode-cache hit or miss.
        assert results[0].stats.frames_decoded > 0
        assert sum(r.stats.frames_decoded for r in results[1:]) == 0
        assert all(
            r.stats.decode_cache_hits == r.stats.decode_cache_misses == 0
            for r in results
        )

    def test_batch_results_match_sequential(self, nocache_engine):
        session = nocache_engine.session()
        specs = self._overlapping_specs(4)
        sequential = [session.read(s) for s in specs]
        batched = session.read_batch(specs)
        for serial, batch in zip(sequential, batched):
            assert np.array_equal(
                serial.segment.pixels, batch.segment.pixels
            )

    def test_batch_faster_than_sequential(self, nocache_engine):
        """Acceptance bar: a read_batch of 8 overlapping look-back reads
        beats 8 sequential read() calls at identical settings, because
        each shared GOP decodes once instead of 8 times."""
        session = nocache_engine.session()
        specs = self._overlapping_specs(8)
        # Warm both code paths once so timing excludes first-call effects.
        session.read(specs[0])
        session.read_batch(specs[:1])

        start = time.perf_counter()
        sequential = [session.read(s) for s in specs]
        sequential_seconds = time.perf_counter() - start

        start = time.perf_counter()
        batched = session.read_batch(specs)
        batch_seconds = time.perf_counter() - start

        assert batch_seconds < sequential_seconds
        for serial, batch in zip(sequential, batched):
            assert np.array_equal(serial.segment.pixels, batch.segment.pixels)

    def test_batch_counts_what_the_store_cache_counts(
        self, loaded_engine, nocache_engine
    ):
        """A batch's reads count the decode-cache hits and misses the
        store's cache counts: the same totals with a cache (a GOP the
        batch decoded is one miss), none without one."""
        for engine in (loaded_engine, nocache_engine):
            engine.drain_admissions()
            before = engine.stats()
            with engine.session() as session:
                session.read_batch(self._overlapping_specs(4))
                after = engine.stats()
                counted = (
                    session.stats.decode_cache_hits,
                    session.stats.decode_cache_misses,
                )
            assert counted == (
                after.decode_cache_hits - before.decode_cache_hits,
                after.decode_cache_misses - before.decode_cache_misses,
            )
            assert (counted[1] > 0) == (engine is loaded_engine)

    def test_batch_populates_store_decode_cache(self, loaded_engine):
        """With the store cache enabled, batch decodes write through, so
        later non-batch reads hit."""
        session = loaded_engine.session()
        session.read_batch(self._overlapping_specs(4))
        later = session.read("traffic", 0.6, 1.2, cache=False)
        assert later.stats.decode_cache_hits > 0
        assert later.stats.frames_decoded == 0

    def test_batch_across_videos_preserves_order(self, engine):
        session = engine.session()
        for name, fill in (("a", 40), ("b", 200)):
            clip = blank_segment(16, 36, 64, fps=30.0, fill=fill)
            session.write(name, clip, codec="raw", gop_size=8)
        specs = [
            ReadSpec("b", 0.0, 0.4, cache=False),
            ReadSpec("a", 0.0, 0.4, cache=False),
            ReadSpec("b", 0.1, 0.5, cache=False),
        ]
        results = session.read_batch(specs)
        means = [int(r.segment.pixels.mean()) for r in results]
        assert means == [200, 40, 200]

    def test_batch_rejects_non_specs(self, loaded_engine):
        with pytest.raises(TypeError):
            loaded_engine.session().read_batch(["traffic"])

    def test_empty_batch(self, loaded_engine):
        assert loaded_engine.session().read_batch([]) == []


# ----------------------------------------------------------------------
# reader-writer lock semantics
# ----------------------------------------------------------------------
class TestRWLock:
    def test_shared_holders_overlap(self):
        """N threads must be able to hold the shared side at once."""
        lock = RWLock(RWLockStats())
        barrier = threading.Barrier(4)
        errors: list[BaseException] = []

        def reader() -> None:
            try:
                with lock.shared():
                    barrier.wait(timeout=10.0)  # breaks if reads serialize
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_exclusive_excludes_shared(self):
        lock = RWLock()
        entered = threading.Event()

        def reader() -> None:
            with lock.shared():
                entered.set()

        with lock.exclusive():
            t = threading.Thread(target=reader)
            t.start()
            assert not entered.wait(timeout=0.1)  # blocked by the writer
        t.join()
        assert entered.is_set()

    def test_exclusive_reentrant_and_shared_nesting(self):
        lock = RWLock()
        with lock.exclusive():
            with lock.exclusive():  # reentrant exclusive
                with lock.shared():  # writer reading its own state
                    assert lock.write_locked
        assert not lock.write_locked

    def test_reentrant_shared_with_waiting_writer(self):
        """Writer preference must not deadlock a reader re-entering."""
        lock = RWLock()
        acquired = threading.Event()
        release = threading.Event()

        def writer() -> None:
            with lock.exclusive():
                pass

        with lock.shared():
            t = threading.Thread(target=writer)
            t.start()
            time.sleep(0.05)  # let the writer start waiting
            with lock.shared():  # reentrant despite the queued writer
                acquired.set()
            release.set()
        t.join()
        assert acquired.is_set() and release.is_set()

    def test_upgrade_refused(self):
        lock = RWLock()
        with lock.shared():
            with pytest.raises(RuntimeError, match="upgrade"):
                lock.acquire_exclusive()

    def test_stats_count_by_mode(self):
        stats = RWLockStats()
        lock = RWLock(stats)
        with lock.shared():
            pass
        with lock.exclusive():
            pass
        assert stats.shared_acquisitions == 1
        assert stats.exclusive_acquisitions == 1


# ----------------------------------------------------------------------
# admission worker: coalescing, bounding, deterministic drain
# ----------------------------------------------------------------------
class TestCounters:
    def test_concurrent_adds_lose_nothing(self):
        """N threads x M adds of two totals at once: every delta lands,
        and each snapshot is one consistent state."""
        import sys

        totals = Counters(reads=0, seconds=0.0)
        snapshots: list[dict] = []

        def work():
            for _ in range(20000):
                totals.add(reads=1, seconds=0.5)
            snapshots.append(totals.snapshot())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force preemption inside add()
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert totals.snapshot() == {"reads": 8 * 20000, "seconds": 8 * 10000.0}
        assert all(s["seconds"] == s["reads"] * 0.5 for s in snapshots)

    def test_an_unknown_name_is_refused(self):
        totals = Counters(reads=0)
        with pytest.raises(KeyError):
            totals.add(raeds=1)


class TestLogicalClock:
    def test_concurrent_ticks_are_distinct(self):
        """N threads x M ticks yield N*M distinct stamps (strict order)."""
        import sys

        clock = LogicalClock(start=100)
        stamps: list[list[int]] = [[] for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force preemption inside tick()
        try:
            threads = [
                threading.Thread(
                    target=lambda out=out: out.extend(
                        clock.tick() for _ in range(5000)
                    )
                )
                for out in stamps
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        flat = [stamp for out in stamps for stamp in out]
        assert len(set(flat)) == 8 * 5000
        assert min(flat) == 101 and clock.now == 100 + 8 * 5000

    def test_engine_resumes_clock_past_persisted_stamps(
        self, tmp_path, calibration, tiny_clip
    ):
        with VSSEngine(tmp_path / "s", calibration=calibration) as eng:
            eng.session().write("v", tiny_clip, codec="raw")
            eng.read(ReadSpec("v", 0.0, tiny_clip.duration, codec="raw"))
            persisted = eng.catalog.max_last_access()
            assert persisted > 0
        with VSSEngine(tmp_path / "s", calibration=calibration) as eng:
            assert eng.clock.now == persisted


class TestAdmissionWorker:
    def test_coalesces_and_bounds(self):
        worker = AdmissionWorker(max_pending=2)
        gate = threading.Event()
        started = threading.Event()
        ran: list[str] = []
        worker.submit("block", lambda: (started.set(), gate.wait(10.0)))
        assert started.wait(10.0)  # worker is busy; queue is empty
        assert worker.submit("a", lambda: ran.append("a"))
        assert not worker.submit("a", lambda: ran.append("dup"))  # coalesced
        assert worker.submit("b", lambda: ran.append("b"))
        assert not worker.submit("c", lambda: ran.append("c"))  # queue full
        assert worker.depth == 2
        gate.set()
        worker.drain()
        assert ran == ["a", "b"]  # FIFO, duplicate and overflow shed
        assert worker.stats.coalesced == 1
        assert worker.stats.dropped == 1
        assert worker.stats.completed == 3
        worker.close()

    def test_bounds_by_pinned_bytes(self):
        worker = AdmissionWorker(max_pending=8, max_pending_bytes=100)
        gate = threading.Event()
        started = threading.Event()
        ran: list[str] = []
        worker.submit("block", lambda: (started.set(), gate.wait(10.0)))
        assert started.wait(10.0)
        assert worker.submit("a", lambda: ran.append("a"), nbytes=80)
        assert not worker.submit("b", lambda: ran.append("b"), nbytes=30)
        assert worker.submit("c", lambda: ran.append("c"), nbytes=20)
        gate.set()
        worker.drain()
        assert ran == ["a", "c"]
        assert worker.stats.dropped == 1
        # Bytes are released as tasks run: a new heavy task fits again.
        assert worker.submit("d", lambda: ran.append("d"), nbytes=80)
        worker.close()
        assert ran == ["a", "c", "d"]

    def test_failure_does_not_kill_worker(self):
        worker = AdmissionWorker()
        ran: list[str] = []

        def boom() -> None:
            raise RuntimeError("admission failed")

        worker.submit("bad", boom)
        worker.submit("good", lambda: ran.append("good"))
        worker.drain()
        assert ran == ["good"]
        assert worker.stats.failures == 1
        worker.close()

    def test_close_runs_pending_then_rejects(self):
        worker = AdmissionWorker()
        ran: list[str] = []
        worker.submit("a", lambda: ran.append("a"))
        worker.close()  # deterministic drain, then stop
        assert ran == ["a"]
        assert not worker.submit("late", lambda: ran.append("late"))
        assert worker.stats.dropped == 1
        worker.close()  # idempotent


# ----------------------------------------------------------------------
# hot-video concurrency: shared-lock reads + async admission
# ----------------------------------------------------------------------
class TestHotVideoConcurrency:
    def test_same_video_reads_run_concurrently(self, loaded_engine):
        """Four reads of ONE video must be inside the reader at the same
        time (the barrier breaks if the per-logical lock serializes)."""
        barrier = threading.Barrier(4)
        original_execute = loaded_engine.reader.execute

        def rendezvous_execute(plan, **kwargs):
            barrier.wait(timeout=15.0)
            return original_execute(plan, **kwargs)

        loaded_engine.reader.execute = rendezvous_execute
        outputs: dict[int, np.ndarray] = {}
        errors: list[BaseException] = []

        def read(slot: int) -> None:
            try:
                session = loaded_engine.session()
                result = session.read("traffic", 0.4, 1.6, cache=False)
                outputs[slot] = result.segment.pixels
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=read, args=(slot,)) for slot in range(4)
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            loaded_engine.reader.execute = original_execute
        assert not errors
        reference = loaded_engine.session().read(
            "traffic", 0.4, 1.6, cache=False
        )
        for pixels in outputs.values():
            assert np.array_equal(pixels, reference.segment.pixels)
        assert loaded_engine.stats().lock_shared_acquisitions >= 4

    def test_reads_race_admission_eviction_delete(self, engine):
        """Readers on one hot video while admissions queue, the budget is
        enforced, and the video is finally deleted: no corruption, no
        unexpected errors, and the admission queue drains cleanly."""
        clip = blank_segment(24, 36, 64, fps=30.0, fill=99)
        engine.session().write("hot", clip, codec="h264", qp=10, gop_size=8)
        stop = threading.Event()
        errors: list[BaseException] = []

        def reader() -> None:
            session = engine.session()
            try:
                while not stop.is_set():
                    try:
                        # cache=True: every read enqueues an admission.
                        result = session.read("hot", 0.1, 0.6, codec="raw")
                    except (VideoNotFoundError, ReadError):
                        return  # the delete landed; a legal outcome
                    assert int(result.segment.pixels.mean()) == 99
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def evictor() -> None:
            try:
                for _ in range(5):
                    try:
                        engine.enforce_budget("hot")
                    except VideoNotFoundError:
                        return
                    time.sleep(0.02)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=evictor))
        for t in threads:
            t.start()
        time.sleep(0.4)
        engine.delete("hot")
        stop.set()
        for t in threads:
            t.join()
        assert not errors
        engine.drain_admissions()  # queued admissions skip the dead video
        assert "hot" not in engine.list_videos()
        assert engine.stats().admission_queue_depth == 0

    def test_racing_identical_specs_admit_one_fragment(self, loaded_engine):
        """Concurrent cold reads of one reusable spec must cache exactly
        one fragment: queue coalescing dedups pending submissions, and
        the admit-time fresh-plan guard skips any that slip through."""
        spec = ReadSpec(
            "traffic", 0.0, 2.0, codec="h264", qp=10, roi=(8, 4, 40, 28)
        )
        before = loaded_engine.video_stats("traffic").num_physicals
        errors: list[BaseException] = []
        results: list = []

        def reader() -> None:
            try:
                results.append(loaded_engine.session().read(spec))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        loaded_engine.drain_admissions()
        after = loaded_engine.video_stats("traffic").num_physicals
        assert after == before + 1  # one cached crop, however the race fell
        warm = loaded_engine.session().read(spec)
        assert warm.stats.direct_serve
        reference = [g.payloads for g in results[0].gops]
        for result in results[1:]:
            assert [g.payloads for g in result.gops] == reference
        assert [g.payloads for g in warm.gops] == reference

    def test_session_close_drains_admissions(self, loaded_engine):
        """Session.close is the deterministic drain point: afterwards the
        admission triggered by the session's read is durably applied."""
        before = loaded_engine.video_stats("traffic").num_physicals
        session = loaded_engine.session()
        session.read("traffic", 0.0, 1.0, codec="h264", resolution=(32, 18))
        session.close()
        after = loaded_engine.video_stats("traffic").num_physicals
        assert after == before + 1
        stats = loaded_engine.stats()
        assert stats.admission_queue_depth == 0
        assert stats.admissions_completed >= 1

    def test_engine_close_drains_admissions(
        self, tmp_path, calibration, three_second_clip
    ):
        """engine.close() drains the queue before the catalog closes, so
        a reopened store sees the admitted fragment."""
        eng = VSSEngine(tmp_path / "store", calibration=calibration)
        eng.session().write(
            "traffic", three_second_clip, codec="h264", qp=10, gop_size=30
        )
        eng.session().read(
            "traffic", 0.0, 1.0, codec="h264", resolution=(32, 18)
        )
        eng.close()
        with VSSEngine(tmp_path / "store", calibration=calibration) as again:
            assert again.video_stats("traffic").num_physicals == 2

    def test_no_inline_admission_option(self, tmp_path, calibration):
        """The queue is the only post-operation path: the old inline
        switch is gone, not ignored."""
        removed = {"admit_" "sync": True}  # split: keeps repo greps empty
        with pytest.raises(TypeError):
            VSSEngine(tmp_path / "sync", calibration=calibration, **removed)

    def test_drained_sequence_is_reproducible(
        self, tmp_path, calibration, three_second_clip
    ):
        """Draining after each call applies the admissions in call
        order: two fresh engines given the same mixed read + batch
        sequence end with identical physical listings and traffic
        counters."""
        # Disjoint windows: compaction ticks but has nothing to merge.
        small, mid = (32, 18), (48, 28)
        reads = [
            ("traffic", start, start + 0.5, overrides)
            for start in (0.0, 1.0, 2.0)
            for overrides in (
                dict(codec="h264", resolution=small),  # cacheable
                dict(codec="h264", resolution=small),  # the same spec again
                dict(codec="h264", resolution=mid),
                dict(codec="raw", resolution=small),
                dict(codec="raw", resolution=small),
                # direct-served original bytes: would duplicate, not admitted
                dict(codec="h264", qp=10),
                dict(codec="raw", roi=(8, 4, 40, 28), cache=False),
            )
        ]
        assert len(reads) >= 20
        batch = [
            ReadSpec("traffic", 0.0, 1.5, codec="hevc", resolution=small),
            ReadSpec("traffic", 0.5, 1.0, codec="raw"),
            ReadSpec("traffic", 0.0, 0.5, codec="h264", resolution=small),
        ]

        def listing(engine):
            logical = engine.catalog.get_logical("traffic")
            return sorted(
                (
                    p.codec,
                    p.width,
                    p.height,
                    min(g.start_time for g in gops),
                    max(g.end_time for g in gops),
                    sum(g.nbytes for g in gops),
                )
                for p in engine.catalog.list_physicals(logical.id)
                for gops in [engine.catalog.gops_of_physical(p.id)]
            )

        def outcome(engine):
            stats = engine.stats()
            return listing(engine), stats.reads, stats.batches

        def run(root):
            with VSSEngine(root, calibration=calibration) as eng:
                session = eng.session()
                session.write(
                    "traffic", three_second_clip, codec="h264", qp=10,
                    gop_size=15,
                )
                eng.drain_admissions()
                for name, start, end, overrides in reads:
                    session.read(name, start, end, **overrides)
                    eng.drain_admissions()
                session.read_batch(batch)
                eng.drain_admissions()
                return outcome(eng)

        first = run(tmp_path / "first")
        second = run(tmp_path / "second")

        assert first == second
        assert len(first[0]) > 1  # the sequence did admit fragments
        assert first[1:] == (len(reads) + len(batch), 1)


# ----------------------------------------------------------------------
# versioned plan cache
# ----------------------------------------------------------------------
class TestPlanCache:
    def test_warm_read_skips_planner_bit_identically(
        self, loaded_engine, monkeypatch
    ):
        import repro.core.engine as engine_mod

        session = loaded_engine.session()
        cold = session.read("traffic", 0.4, 1.6, codec="raw", cache=False)
        assert not cold.stats.plan_cached
        planner_calls: list[int] = []
        real_plan_read = engine_mod.plan_read
        monkeypatch.setattr(
            engine_mod,
            "plan_read",
            lambda *a, **k: planner_calls.append(1) or real_plan_read(*a, **k),
        )
        warm = session.read("traffic", 0.4, 1.6, codec="raw", cache=False)
        assert warm.stats.plan_cached
        assert planner_calls == []  # zero planner invocations when warm
        assert np.array_equal(warm.segment.pixels, cold.segment.pixels)
        stats = loaded_engine.stats()
        assert stats.plan_cache_hits >= 1
        assert stats.plan_cache_misses >= 1
        assert session.stats.plan_cache_hits == 1

    def test_batch_and_stream_share_the_plan_cache(self, loaded_engine):
        session = loaded_engine.session()
        spec = ReadSpec("traffic", 0.3, 1.1, codec="raw", cache=False)
        first = session.read(spec)
        assert not first.stats.plan_cached
        [batched] = session.read_batch([spec])
        assert batched.stats.plan_cached
        stream = session.read_stream(spec)
        collected = stream.collect()
        assert stream.stats.plan_cached
        assert np.array_equal(
            collected.segment.pixels, first.segment.pixels
        )

    def test_write_invalidates_plan_cache(self, loaded_engine):
        session = loaded_engine.session()
        spec = ReadSpec("traffic", 0.4, 1.6, codec="raw", cache=False)
        session.read(spec)
        assert session.read(spec).stats.plan_cached
        # A new cached fragment (admission = a write) bumps the version.
        session.read("traffic", 0.0, 2.0, codec="h264", resolution=(32, 18))
        loaded_engine.drain_admissions()
        refreshed = session.read(spec)
        assert not refreshed.stats.plan_cached

    def test_cost_model_and_planner_are_part_of_the_key(self, loaded_engine):
        """Figure 10's ablations swap ``engine.cost_model`` (eta = 1) and
        the read's planner mode on an unchanged store: each swap must
        re-plan."""
        session = loaded_engine.session()
        spec = ReadSpec("traffic", 0.4, 1.6, codec="raw", cache=False)
        first = session.read(spec)
        assert session.read(spec).stats.plan_cached
        loaded_engine.cost_model = CostModel(loaded_engine.calibration, eta=1.0)
        ablated = session.read(spec)
        assert ablated.stats.plan_cached is False
        logical = loaded_engine.catalog.get_logical("traffic")
        expected = plan_read(
            spec,
            loaded_engine.catalog.fragments_of_logical(logical.id),
            loaded_engine.catalog.original_physical(logical.id),
            loaded_engine.cost_model,
            loaded_engine.quality_model,
        )
        assert ablated.plan.estimated_cost == expected.estimated_cost
        # The window starts mid-GOP, so its look-back decodes dependent
        # frames and eta changes the cost.
        assert ablated.plan.estimated_cost != first.plan.estimated_cost
        assert session.read(spec).stats.plan_cached
        greedy = session.read(spec.replace(mode="greedy"))
        assert greedy.stats.plan_cached is False
        assert greedy.plan.mode == "greedy"
        assert session.read(spec.replace(mode="greedy")).stats.plan_cached

    def test_recreate_never_serves_stale_plans(self, engine):
        """Delete + same-name re-create must re-plan (mutation versions
        are monotonic even across SQLite rowid reuse)."""
        session = engine.session()
        spec = ReadSpec("v", 0.0, 0.4, codec="raw", cache=False)
        session.write(
            "v", blank_segment(16, 36, 64, fps=30.0, fill=50),
            codec="raw", gop_size=8,
        )
        warmup = session.read(spec)
        assert int(warmup.segment.pixels.mean()) == 50
        assert session.read(spec).stats.plan_cached
        engine.delete("v")
        session.write(
            "v", blank_segment(16, 36, 64, fps=30.0, fill=200),
            codec="raw", gop_size=8,
        )
        fresh = session.read(spec)
        assert not fresh.stats.plan_cached
        assert int(fresh.segment.pixels.mean()) == 200


# ----------------------------------------------------------------------
# refinement rotation
# ----------------------------------------------------------------------
class TestRefineRotation:
    def test_refine_rotates_through_candidates(self, loaded_engine):
        """Periodic exact-quality refinement must eventually sample every
        cached physical, not candidates[0] forever."""
        session = loaded_engine.session()
        # Admit two distinct cached physicals (different resolutions);
        # admission is asynchronous, so drain before counting them.
        session.read("traffic", 0.0, 1.0, codec="h264", resolution=(32, 18))
        session.read("traffic", 1.0, 2.0, codec="h264", resolution=(16, 10))
        loaded_engine.drain_admissions()
        logical = loaded_engine.catalog.get_logical("traffic")
        candidates = [
            p
            for p in loaded_engine.catalog.list_physicals(logical.id)
            if not p.is_original and p.sealed and p.mse_estimate > 0.0
        ]
        assert len(candidates) >= 2
        refined: list[int] = []
        original_update = loaded_engine.catalog.update_mse_estimate
        loaded_engine.catalog.update_mse_estimate = (
            lambda pid, *bounds: refined.append(pid)
            or original_update(pid, *bounds)
        )
        try:
            for _ in range(len(candidates)):
                loaded_engine._refine_one(logical)
        finally:
            loaded_engine.catalog.update_mse_estimate = original_update
        assert len(set(refined)) >= 2  # rotation covered multiple physicals


# ----------------------------------------------------------------------
# read_async failure paths (exceptions travel through the Future;
# SessionStats stays consistent under concurrent failing reads)
# ----------------------------------------------------------------------
class TestReadAsyncFailures:
    def test_exception_propagates_through_future(self, loaded_engine):
        session = loaded_engine.session()
        future = session.read_async("missing", 0.0, 1.0)
        with pytest.raises(VideoNotFoundError):
            future.result(timeout=30)

    def test_out_of_range_read_fails_in_future(self, loaded_engine):
        session = loaded_engine.session()
        future = session.read_async(
            ReadSpec("traffic", 100.0, 101.0, cache=False)
        )
        with pytest.raises(ReadError):
            future.result(timeout=30)

    def test_failed_read_counts_failure_not_read(self, loaded_engine):
        session = loaded_engine.session()
        future = session.read_async("missing", 0.0, 1.0)
        with pytest.raises(VideoNotFoundError):
            future.result(timeout=30)
        assert session.stats.reads == 0
        assert session.stats.failures == 1

    def test_concurrent_mixed_success_and_failure(self, loaded_engine):
        """N failing + M succeeding async reads: counters add up exactly
        and successful results stay intact."""
        session = loaded_engine.session()
        good_spec = ReadSpec("traffic", 0.0, 1.0, codec="raw", cache=False)
        futures = []
        for i in range(12):
            if i % 3 == 0:
                futures.append(session.read_async("missing", 0.0, 1.0))
            else:
                futures.append(session.read_async(good_spec))
        done, not_done = wait(futures, timeout=60)
        assert not not_done
        failures = 0
        successes = 0
        reference = None
        for future in futures:
            exc = future.exception()
            if exc is not None:
                assert isinstance(exc, VideoNotFoundError)
                failures += 1
            else:
                successes += 1
                segment = future.result().segment
                if reference is None:
                    reference = segment.pixels
                else:
                    assert np.array_equal(segment.pixels, reference)
        assert failures == 4
        assert successes == 8
        assert session.stats.reads == successes
        assert session.stats.failures == failures
        assert session.stats.wall_seconds > 0

    def test_sync_read_failure_also_counted(self, loaded_engine):
        session = loaded_engine.session()
        with pytest.raises(VideoNotFoundError):
            session.read("missing", 0.0, 1.0)
        with pytest.raises(WriteError):
            session.write("traffic")  # neither segment nor gops
        assert session.stats.failures == 2
        assert session.stats.reads == 0
        assert session.stats.writes == 0


# ----------------------------------------------------------------------
# engine probing satellites
# ----------------------------------------------------------------------
class TestEngineProbes:
    def test_exists_without_exception_probe(self, loaded_engine):
        assert loaded_engine.exists("traffic")
        assert not loaded_engine.exists("missing")
        # probing must not leak per-logical lock registry entries
        assert "missing" not in loaded_engine._logical_locks
        assert loaded_engine.name_kind("traffic") == "video"
        assert loaded_engine.name_kind("missing") is None

    def test_list_videos_sorted(self, engine, tiny_clip):
        session = engine.session()
        for name in ["zebra", "alpha", "mid"]:
            session.write(name, tiny_clip, codec="raw")
        assert engine.list_videos() == ["alpha", "mid", "zebra"]
