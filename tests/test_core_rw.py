"""Integration tests: VSS write/read paths, planning, streaming, caching."""

import numpy as np
import pytest

from repro.core.engine import VSSEngine
from repro.core.specs import ReadSpec
from repro.errors import OutOfRangeError, WriteError
from repro.video.codec.registry import codec_for, encode_gop
from repro.video.frame import convert_segment
from repro.video.metrics import psnr_from_mse, segment_mse, segment_psnr
from tests.kernel_oracles import dense_gop


class TestWrite:
    def test_first_write_is_original(self, store, tiny_clip):
        store.create("v")
        physical = store.write("v", tiny_clip, codec="h264", qp=10)
        assert physical.is_original
        assert physical.sealed

    def test_default_budget_from_multiple(self, store, tiny_clip):
        store.create("v")
        store.write("v", tiny_clip, codec="h264", qp=10)
        stats = store.video_stats("v")
        assert stats.budget_bytes == pytest.approx(
            stats.total_bytes * store.engine.budget_multiple, rel=0.01
        )

    def test_explicit_budget_kept(self, store, tiny_clip):
        store.create("v", budget_bytes=10**9)
        store.write("v", tiny_clip, codec="h264", qp=10)
        assert store.video_stats("v").budget_bytes == 10**9

    def test_write_without_create_autocreates(self, store, tiny_clip):
        store.write("auto", tiny_clip, codec="h264")
        assert "auto" in store.list_videos()

    def test_write_rejects_both_or_neither(self, store, tiny_clip):
        store.create("v")
        with pytest.raises(WriteError):
            store.write("v")

    def test_compressed_gops_accepted_as_is(self, store, tiny_clip):
        from repro.video.codec.registry import encode_gop

        gops = encode_gop("hevc", tiny_clip, qp=12, gop_size=8)
        store.create("v")
        physical = store.write("v", gops=gops)
        assert physical.codec == "hevc"
        assert store.video_stats("v").num_gops == len(gops)

    def test_streaming_prefix_read(self, store, tiny_clip):
        """Non-blocking writes: a prefix is readable before close."""
        stream = store.engine.open_write_stream(
            "live", codec="h264", pixel_format="rgb",
            width=tiny_clip.width, height=tiny_clip.height, fps=30.0, qp=10,
        )
        stream.append(tiny_clip.slice_frames(0, 12))
        result = store.read("live", 0.0, 12 / 30, codec="raw", cache=False)
        assert result.segment.num_frames == 12
        stream.append(tiny_clip.slice_frames(12, 24))
        stream.close()
        result = store.read("live", 0.0, 24 / 30, codec="raw", cache=False)
        assert result.segment.num_frames == 24

    def test_stream_close_empty_rejected(self, store, tiny_clip):
        stream = store.engine.open_write_stream(
            "live", codec="h264", pixel_format="rgb",
            width=64, height=36, fps=30.0,
        )
        with pytest.raises(WriteError):
            stream.close()


class TestRead:
    def test_raw_read_quality(self, loaded_store, three_second_clip):
        result = loaded_store.read("traffic", 0.0, 1.0, codec="raw")
        reference = three_second_clip.slice_time(0.0, 1.0)
        assert result.segment.num_frames == 30
        assert segment_psnr(reference, result.segment) >= 40.0

    def test_read_out_of_range(self, loaded_store):
        with pytest.raises(OutOfRangeError):
            loaded_store.read("traffic", 0.0, 99.0)

    def test_empty_interval(self, loaded_store):
        with pytest.raises(OutOfRangeError):
            loaded_store.read("traffic", 1.0, 1.0)

    def test_unknown_video(self, store):
        from repro.errors import VideoNotFoundError

        with pytest.raises(VideoNotFoundError):
            store.read("ghost", 0.0, 1.0)

    def test_resolution_change(self, loaded_store):
        result = loaded_store.read(
            "traffic", 0.0, 1.0, codec="raw", resolution=(32, 18)
        )
        assert result.segment.resolution == (32, 18)

    def test_roi_read(self, loaded_store):
        result = loaded_store.read(
            "traffic", 0.0, 1.0, codec="raw", roi=(16, 9, 48, 27)
        )
        assert result.segment.resolution == (32, 18)

    def test_roi_out_of_bounds(self, loaded_store):
        with pytest.raises(OutOfRangeError):
            loaded_store.read("traffic", 0.0, 1.0, roi=(0, 0, 999, 999))

    def test_fps_resample(self, loaded_store):
        result = loaded_store.read("traffic", 0.0, 2.0, codec="raw", fps=15.0)
        assert result.segment.num_frames == 30
        assert result.segment.fps == 15.0

    def test_pixel_format_conversion(self, loaded_store):
        result = loaded_store.read(
            "traffic", 0.0, 1.0, codec="raw", pixel_format="yuv420"
        )
        assert result.segment.pixel_format == "yuv420"

    def test_compressed_output(self, loaded_store):
        result = loaded_store.read("traffic", 0.0, 2.0, codec="hevc")
        assert result.gops is not None
        assert result.gops[0].codec == "hevc"
        assert result.as_segment().num_frames == 60

    def test_same_format_direct_serve(self, loaded_store):
        result = loaded_store.read("traffic", 0.0, 1.0, codec="h264")
        assert result.stats.direct_serve
        assert sum(g.num_frames for g in result.gops) == 30

    def test_roi_read_of_a_full_frame_fragment_is_not_direct_served(
        self, store, benchmark_size_clip
    ):
        """A full-frame fragment in the requested codec, pixel format and
        resolution does not answer an ROI read as stored: shipping its
        bytes would return the whole frame, not the crop scaled up."""
        store.write("v", benchmark_size_clip, codec="h264", qp=10)
        spec = ReadSpec(
            "v", 0.0, 1.0, codec="h264", roi=(0, 0, 96, 54),
            resolution=(192, 108), cache=False,
        )
        result = store.read(spec)
        assert not result.stats.direct_serve
        assert not result.plan.is_stored_answer()
        expected = store.read(spec.replace(codec="raw")).segment
        assert segment_psnr(expected, result.as_segment()) >= spec.quality_db

    def test_unaligned_same_format_falls_back(self, loaded_store):
        result = loaded_store.read("traffic", 0.25, 1.25, codec="h264")
        assert not result.stats.direct_serve
        assert result.as_segment().num_frames == 30

    def test_quality_cutoff_rejects_bad_cache(self, loaded_store):
        # Cache a very low quality variant, then demand high quality: the
        # planner must not use the bad fragment.
        loaded_store.read("traffic", 0.0, 3.0, codec="h264", qp=44)
        loaded_store.engine.drain_admissions()
        result = loaded_store.read(
            "traffic", 0.0, 3.0, codec="raw", quality_db=40.0
        )
        for choice in result.plan.choices:
            assert choice.fragment.physical.qp != 44

    def test_quality_cutoff_accepts_when_lowered(self, loaded_store):
        loaded_store.read("traffic", 0.0, 3.0, codec="h264", qp=44)
        loaded_store.engine.drain_admissions()
        result = loaded_store.read(
            "traffic", 0.0, 3.0, codec="h264", qp=44, quality_db=15.0
        )
        assert result is not None


class TestCachingBehaviour:
    def test_read_result_cached_as_physical(self, loaded_store):
        before = loaded_store.video_stats("traffic").num_physicals
        loaded_store.read("traffic", 0.0, 1.0, codec="raw")
        loaded_store.engine.drain_admissions()
        assert loaded_store.video_stats("traffic").num_physicals == before + 1

    def test_cache_false_skips_admission(self, loaded_store):
        before = loaded_store.video_stats("traffic").num_physicals
        loaded_store.read("traffic", 0.0, 1.0, codec="raw", cache=False)
        loaded_store.engine.drain_admissions()
        assert loaded_store.video_stats("traffic").num_physicals == before

    def test_cached_fragment_reused_by_plan(self, loaded_store):
        first = loaded_store.read("traffic", 0.0, 2.0, codec="raw")
        loaded_store.engine.drain_admissions()
        second = loaded_store.read("traffic", 0.0, 2.0, codec="raw")
        assert second.plan.estimated_cost < first.plan.estimated_cost

    def test_duplicate_not_readmitted(self, loaded_store):
        loaded_store.read("traffic", 0.0, 2.0, codec="raw")
        loaded_store.engine.drain_admissions()
        count = loaded_store.video_stats("traffic").num_physicals
        loaded_store.read("traffic", 0.0, 2.0, codec="raw")
        loaded_store.engine.drain_admissions()
        assert loaded_store.video_stats("traffic").num_physicals == count

    def test_solver_beats_or_ties_greedy(self, loaded_store):
        # Build a mixed cache, then compare plan costs on a spanning read.
        loaded_store.read("traffic", 1.0, 2.0, codec="h264", cache=True)
        loaded_store.read("traffic", 0.0, 1.0, codec="raw", cache=True)
        loaded_store.engine.drain_admissions()
        solver = loaded_store.read(
            "traffic", 0.0, 3.0, codec="hevc", cache=False, mode="solver"
        )
        greedy = loaded_store.read(
            "traffic", 0.0, 3.0, codec="hevc", cache=False, mode="greedy"
        )
        original = loaded_store.read(
            "traffic", 0.0, 3.0, codec="hevc", cache=False, mode="original"
        )
        assert solver.plan.estimated_cost <= greedy.plan.estimated_cost + 1e-12
        assert solver.plan.estimated_cost <= original.plan.estimated_cost + 1e-12

    def test_reads_touch_lru(self, loaded_store):
        logical = loaded_store.engine.catalog.get_logical("traffic")
        before = max(
            g.last_access for g in loaded_store.engine.catalog.gops_of_logical(logical.id)
        )
        loaded_store.read("traffic", 0.0, 1.0, codec="raw", cache=False)
        after = max(
            g.last_access for g in loaded_store.engine.catalog.gops_of_logical(logical.id)
        )
        assert after > before


class TestDelete:
    def test_delete_removes_everything(self, loaded_store):
        loaded_store.read("traffic", 0.0, 1.0, codec="raw")
        loaded_store.engine.drain_admissions()  # a cached physical to delete
        loaded_store.delete("traffic")
        assert "traffic" not in loaded_store.list_videos()
        assert not (loaded_store.engine.layout.root / "videos" / "traffic").exists()


# ----------------------------------------------------------------------
# pixel formats: the loss of converting counts, and every output path
# converts
# ----------------------------------------------------------------------
def _answer(session, path, spec):
    """``spec`` answered through one of the three read paths."""
    if path == "read":
        return session.read(spec)
    if path == "read_batch":
        return session.read_batch([spec])[0]
    return session.read_stream(spec).collect()


class TestFormatConversionQuality:
    """rgb -> yuv420 -> rgb is not lossless: a fragment stored subsampled
    carries the error of that round trip, so it never passes for the
    original at 40 dB."""

    WINDOW = (0.0, 1.0)

    def _round_trip_mse(self, session, frames=None):
        rgb = session.read("traffic", *self.WINDOW, codec="raw", cache=False)
        segment = rgb.segment if frames is None else rgb.segment.slice_frames(*frames)
        return segment_mse(segment, convert_segment(segment, "yuv420"))

    def _admitted_yuv420(self, session):
        session.read("traffic", *self.WINDOW, codec="raw", pixel_format="yuv420")
        session.engine.drain_admissions()
        logical = session.engine.catalog.get_logical("traffic")
        (physical,) = [
            p
            for p in session.engine.catalog.list_physicals(logical.id)
            if p.pixel_format == "yuv420"
        ]
        return logical, physical

    def test_subsampled_fragment_is_admitted_with_its_loss(self, loaded_store):
        sample = self._round_trip_mse(loaded_store, frames=(0, 1))
        assert sample > 0.0
        _, physical = self._admitted_yuv420(loaded_store)
        assert physical.codec == "raw"
        assert physical.mse_estimate >= sample
        # The round trip costs well over what 40 dB allows ...
        assert psnr_from_mse(self._round_trip_mse(loaded_store)) < 40.0
        # ... so an rgb read at 40 dB plans from the original instead.
        result = loaded_store.read(
            "traffic", *self.WINDOW, codec="raw", quality_db=40.0, cache=False
        )
        assert all(
            c.fragment.physical.id != physical.id for c in result.plan.choices
        )

    def test_refinement_measures_in_the_original_format(self, loaded_store):
        logical, physical = self._admitted_yuv420(loaded_store)
        loaded_store.engine._refine_one(logical)
        refined = loaded_store.engine.catalog.get_physical(physical.id)
        # The sample is the fragment's one GOP: the whole window.
        assert refined.mse_estimate >= self._round_trip_mse(loaded_store) - 1e-9
        assert psnr_from_mse(refined.mse_estimate) < 40.0
        # A yuv420 read still sees none of it: the fragment is exactly the
        # original's conversion.
        assert refined.own_format_mse == pytest.approx(0.0, abs=1e-9)
        spec = ReadSpec("traffic", *self.WINDOW, pixel_format="yuv420")
        again = loaded_store.read(spec)
        assert [c.fragment.physical.id for c in again.plan.choices] == [
            physical.id
        ]

    @pytest.mark.parametrize("fmt", ["yuv420", "gray"])
    def test_repeat_in_the_same_format_plans_from_the_fragment(
        self, loaded_store, fmt
    ):
        # At the default 40 dB cutoff: a read asking for the fragment's own
        # format pays the conversion from the original too, so it is not
        # charged for it again.
        engine = loaded_store.engine
        logical = engine.catalog.get_logical("traffic")
        spec = ReadSpec("traffic", *self.WINDOW, pixel_format=fmt)
        first = loaded_store.read(spec)
        assert first.stats.format_mse > 0.0
        engine.drain_admissions()
        physicals = engine.catalog.list_physicals(logical.id)
        (admitted,) = [p for p in physicals if p.pixel_format == fmt]
        assert admitted.format_mse == pytest.approx(first.stats.format_mse)
        assert admitted.own_format_mse == 0.0
        again = loaded_store.read(spec)
        engine.drain_admissions()
        assert [c.fragment.physical.id for c in again.plan.choices] == [
            admitted.id
        ]
        assert np.array_equal(again.segment.pixels, first.segment.pixels)
        assert engine.catalog.list_physicals(logical.id) == physicals

    def test_same_format_descendants_carry_only_their_own_steps(
        self, loaded_store
    ):
        # A half-resolution yuv420 read planned from the full-resolution
        # yuv420 fragment: for yuv420 reads the result carries only the
        # resize, not its source's chroma loss.
        engine = loaded_store.engine
        logical = engine.catalog.get_logical("traffic")
        _, full = self._admitted_yuv420(loaded_store)
        size = dict(pixel_format="yuv420", resolution=(32, 18))
        first = loaded_store.read("traffic", *self.WINDOW, quality_db=0.0, **size)
        assert [c.fragment.physical.id for c in first.plan.choices] == [full.id]
        engine.drain_admissions()
        (half,) = [
            p
            for p in engine.catalog.list_physicals(logical.id)
            if p.resolution == (32, 18)
        ]
        assert half.own_format_mse == pytest.approx(first.stats.resample_mse)
        assert half.mse_estimate > half.own_format_mse + full.format_mse
        # A cutoff between the two bounds: yuv420 reads use it, rgb reads
        # do not.
        cutoff = psnr_from_mse(half.own_format_mse) - 0.5
        assert psnr_from_mse(half.mse_estimate) < cutoff
        again = loaded_store.read(
            "traffic", *self.WINDOW, quality_db=cutoff, **size
        )
        assert [c.fragment.physical.id for c in again.plan.choices] == [half.id]
        rgb =loaded_store.read(
            "traffic", *self.WINDOW, quality_db=cutoff, resolution=(32, 18),
            cache=False,
        )
        assert half.id not in [c.fragment.physical.id for c in rgb.plan.choices]

    @pytest.mark.parametrize("codec", ["raw", "h264"])
    def test_every_read_path_reports_the_same_format_error(
        self, loaded_store, codec
    ):
        spec = ReadSpec(
            "traffic", 0.0, 2.0, codec=codec, pixel_format="yuv420",
            cache=False,
        )
        errors = {
            path: _answer(loaded_store, path, spec).stats.format_mse
            for path in ("read", "read_batch", "read_stream")
        }
        assert errors["read"] > 0.0
        assert len(set(errors.values())) == 1, errors


class TestPixelFormatOfCompressedReads:
    SPEC = ReadSpec(
        "traffic", 0.0, 1.0, codec="h264", qp=14, pixel_format="yuv420"
    )

    @pytest.mark.parametrize("path", ["read", "read_batch", "read_stream"])
    def test_gops_carry_the_requested_format(self, loaded_store, path):
        answer = _answer(loaded_store, path, self.SPEC)
        assert not answer.stats.direct_serve
        assert [g.pixel_format for g in answer.gops] == ["yuv420"]
        assert answer.as_segment().pixel_format == "yuv420"
        # Converted first, then encoded: the bytes of encoding the rgb
        # answer's conversion.
        rgb = loaded_store.read("traffic", 0.0, 1.0, codec="raw", cache=False)
        expected = codec_for("h264").encode_segment(
            convert_segment(rgb.segment, "yuv420"), qp=14, gop_size=30
        )
        assert [g.payloads for g in answer.gops] == [
            g.payloads for g in expected
        ]

    def test_repeat_reads_direct_serve_the_admitted_fragment(self, loaded_store):
        first = loaded_store.read(self.SPEC)
        loaded_store.engine.drain_admissions()
        for path in ("read", "read_batch", "read_stream"):
            again = _answer(loaded_store, path, self.SPEC)
            assert again.stats.direct_serve, path
            assert [g.pixel_format for g in again.gops] == ["yuv420"]
            assert [g.payloads for g in again.gops] == [
                g.payloads for g in first.gops
            ]


# ----------------------------------------------------------------------
# stores written before plane payloads carried a coded-block mask
# ----------------------------------------------------------------------
class TestDensePayloadStores:
    SPECS = [
        ReadSpec("cam", 0.0, 0.8),
        ReadSpec("cam", 0.1, 0.7, resolution=(32, 18)),
        ReadSpec("cam", 0.2, 0.6, pixel_format="yuv420"),
        ReadSpec("cam", 0.1, 0.7, roi=(8, 4, 40, 28)),
        ReadSpec("cam", 0.1, 0.7, codec="hevc", qp=14),
        ReadSpec("cam", 0.0, 0.8, codec="h264", qp=10),  # direct-serve
    ]

    def test_dense_store_reads_like_a_sparse_one(
        self, tmp_path, calibration, tiny_clip
    ):
        # Same GOPs, once as the encoder writes them and once in the dense
        # layout (every block's scanned row, uppercase type bytes); each
        # store is written, closed and reopened, then read twice (the
        # second time with whatever the first admitted).
        sparse = encode_gop("h264", tiny_clip, qp=10, gop_size=8)
        stores = {
            "sparse": sparse,
            "dense": [dense_gop(gop, 8) for gop in sparse],
        }
        answers = {}
        for name, gops in stores.items():
            with VSSEngine(tmp_path / name, calibration=calibration) as engine:
                with engine.session() as session:
                    session.write("cam", gops=gops)
            with VSSEngine(tmp_path / name, calibration=calibration) as engine:
                with engine.session() as session:
                    served = session.read(self.SPECS[-1])
                    assert served.stats.direct_serve
                    assert served.gops[0].payloads[0][:1] == (
                        b"I" if name == "dense" else b"i"
                    )
                    pixels = []
                    for _ in range(2):
                        for spec in self.SPECS:
                            result = session.read(spec)
                            pixels.append(result.as_segment().pixels)
                        engine.drain_admissions()
            answers[name] = pixels
        assert len(answers["dense"]) == len(answers["sparse"])
        for dense, sparse_pixels in zip(answers["dense"], answers["sparse"]):
            assert np.array_equal(dense, sparse_pixels)
