"""Tests for the quality model (section 3.2) and cost model (section 3.1)."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import ETA, CostModel, TargetFormat
from repro.core.engine import VSSEngine
from repro.core.layout import Layout
from repro.core.quality import QualityModel, TAU_DB
from repro.core.read_planner import _Interval, _price
from repro.core.records import Fragment, GopRecord, PhysicalVideo
from repro.vbench import calibrate
from repro.vbench.calibrate import Calibration
from repro.video.metrics import mse_from_psnr


def make_physical(
    codec="h264", width=64, height=36, mse=0.0, is_original=False, fps=30.0,
    pid=1, roi=None,
):
    return PhysicalVideo(
        id=pid,
        logical_id=1,
        codec=codec,
        pixel_format="rgb",
        width=width,
        height=height,
        fps=fps,
        qp=14,
        roi=roi,
        start_time=0.0,
        end_time=3.0,
        mse_estimate=mse,
        is_original=is_original,
        sealed=True,
    )


def make_fragment(physical, gop_seconds=1.0, num_gops=3, frames_per_gop=30,
                  nbytes=1000, all_intra=False):
    gops = []
    for seq in range(num_gops):
        types = "I" * frames_per_gop if all_intra else "I" + "P" * (frames_per_gop - 1)
        gops.append(
            GopRecord(
                id=seq + 1,
                physical_id=physical.id,
                seq=seq,
                start_time=seq * gop_seconds,
                end_time=(seq + 1) * gop_seconds,
                num_frames=frames_per_gop,
                frame_types=types,
                nbytes=nbytes,
                path=f"p{seq}",
            )
        )
    return Fragment(physical, gops)


@pytest.fixture(scope="module")
def quality():
    return QualityModel(Calibration.default())


@pytest.fixture(scope="module")
def cost():
    return CostModel(Calibration.default())


class TestQualityModel:
    def test_original_is_lossless(self, quality):
        assert quality.quality_db(make_physical(mse=0.0)) == 360.0

    def test_chain_through_original_passes_step(self, quality):
        assert quality.chain(0.0, 5.0) == 5.0

    def test_chain_applies_paper_bound(self, quality):
        # MSE(f0,f2) <= 2*(MSE(f0,f1) + MSE(f1,f2))
        assert quality.chain(3.0, 5.0) == pytest.approx(16.0)

    def test_compression_mse_raw_is_zero(self, quality):
        assert quality.compression_mse("raw", 24.0) == 0.0

    def test_compression_mse_decreases_with_bpp(self, quality):
        low_bpp = quality.compression_mse("h264", 0.2)
        high_bpp = quality.compression_mse("h264", 3.0)
        assert high_bpp < low_bpp

    def test_acceptance_threshold(self, quality):
        good = make_physical(mse=mse_from_psnr(45.0))
        bad = make_physical(mse=mse_from_psnr(30.0))
        assert quality.acceptable(good, 40.0, "rgb")
        assert not quality.acceptable(bad, 40.0, "rgb")
        assert quality.acceptable(bad, 25.0, "rgb")

    def test_format_loss_charged_only_to_other_formats(self, quality):
        # 30 dB against the original, all of it chroma subsampling.
        subsampled = dataclasses.replace(
            make_physical(mse=mse_from_psnr(30.0)),
            pixel_format="yuv420",
            format_mse=mse_from_psnr(30.0),
        )
        assert quality.acceptable(subsampled, 40.0, "yuv420")
        for other in ("rgb", "yuv422", "gray"):
            assert not quality.acceptable(subsampled, 40.0, other)
        assert not quality.meets_tau(subsampled)

    def test_tau_membership(self, quality):
        assert quality.meets_tau(make_physical(mse=mse_from_psnr(TAU_DB + 1)))
        assert not quality.meets_tau(make_physical(mse=mse_from_psnr(TAU_DB - 5)))

    def test_estimate_after_transcode_combines_sources(self, quality):
        est = quality.estimate_after_transcode(
            source_mse=2.0, resample_mse=1.0, target_codec="h264",
            achieved_bpp=3.0,
        )
        step = 1.0 + quality.compression_mse("h264", 3.0)
        assert est == pytest.approx(2.0 * (2.0 + step))


class TestCostModel:
    def test_format_match_is_cheap(self, cost):
        physical = make_physical()
        fragment = make_fragment(physical)
        target = TargetFormat("h264", "rgb", 64, 36)
        match_cost = cost.transcode_cost(fragment, 1.0, target, 30.0)
        transcode = cost.transcode_cost(
            fragment, 1.0, TargetFormat("hevc", "rgb", 64, 36), 30.0
        )
        assert match_cost < transcode / 10

    def test_transcode_scales_with_duration(self, cost):
        fragment = make_fragment(make_physical())
        target = TargetFormat("hevc", "rgb", 64, 36)
        one = cost.transcode_cost(fragment, 1.0, target, 30.0)
        three = cost.transcode_cost(fragment, 3.0, target, 30.0)
        assert three == pytest.approx(3 * one)

    def test_hevc_target_costs_more_than_h264(self, cost):
        fragment = make_fragment(make_physical(codec="raw"))
        h264 = cost.transcode_cost(
            fragment, 1.0, TargetFormat("h264", "rgb", 64, 36), 30.0
        )
        hevc = cost.transcode_cost(
            fragment, 1.0, TargetFormat("hevc", "rgb", 64, 36), 30.0
        )
        assert hevc > h264

    def test_raw_source_decodes_cheaply(self, cost):
        raw = make_fragment(make_physical(codec="raw", pid=1), all_intra=True)
        compressed = make_fragment(make_physical(codec="h264", pid=2))
        target = TargetFormat("raw", "rgb", 64, 36)
        # raw -> raw at same geometry is a format match; compare decode paths
        # via a resolution change instead.
        small = TargetFormat("raw", "rgb", 32, 18)
        assert cost.transcode_cost(raw, 1.0, small, 30.0) < cost.transcode_cost(
            compressed, 1.0, small, 30.0
        )

    def test_area_fraction_scales(self, cost):
        fragment = make_fragment(make_physical())
        target = TargetFormat("hevc", "rgb", 64, 36)
        full = cost.transcode_cost(fragment, 1.0, target, 30.0, 1.0)
        half = cost.transcode_cost(fragment, 1.0, target, 30.0, 0.5)
        assert half == pytest.approx(full / 2)

    def test_lookback_zero_at_gop_start(self, cost):
        fragment = make_fragment(make_physical())
        assert cost.lookback_cost(fragment, 1.0) == 0.0

    def test_lookback_counts_dependencies(self, cost):
        fragment = make_fragment(make_physical())
        independent, dependent = cost.lookback_frames(fragment, 1.5)
        assert independent == 1  # the GOP's I frame
        assert dependent == 14  # P frames before the 0.5 s mark

    def test_lookback_waived_when_already_decoded(self, cost):
        """The planner waives ``c_l`` for a fragment also chosen for the
        interval before: its dependency frames are already decoded (the
        set Omega)."""
        fragment = make_fragment(make_physical())
        lookback = cost.lookback_cost(fragment, 1.5)
        assert lookback > 0.0
        intervals = [
            _Interval(1.5, 2.0, [fragment]), _Interval(2.0, 2.5, [fragment])
        ]
        selected = [(0,), (0,)]
        assert _price(
            intervals, selected, [[0.0], [0.0]], [[lookback], [lookback]]
        ) == lookback

    def test_lookback_raw_is_free(self, cost):
        fragment = make_fragment(make_physical(codec="raw"), all_intra=True)
        assert cost.lookback_cost(fragment, 1.5) == 0.0

    def test_eta_weighting(self, cost):
        """Mid-GOP entry cost follows |A| + eta * |D| (paper's c_l)."""
        fragment = make_fragment(make_physical())
        independent, dependent = cost.lookback_frames(fragment, 1.5)
        physical = fragment.physical
        pixels = physical.width * physical.height
        per_frame = (
            cost.calibration.decode_per_pixel(physical.codec, pixels) * pixels
        )
        expected = (independent + ETA * dependent) * per_frame
        assert cost.lookback_cost(fragment, 1.5) == pytest.approx(expected)


@settings(max_examples=20, deadline=None)
@given(source=st.floats(0.0, 50.0), step=st.floats(0.0, 50.0))
def test_property_chain_bound_monotone(source, step):
    quality = QualityModel(Calibration.default())
    chained = quality.chain(source, step)
    assert chained >= source
    assert chained >= step


class TestStoreCalibration:
    """Opening a store never times the host: it loads the saved
    calibration or falls back to the canned default."""

    @pytest.fixture(autouse=True)
    def _no_timing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("opening a store must not time the host")

        monkeypatch.setattr(calibrate, "run_calibration", refuse)

    def test_fresh_store_uses_the_default(self, tmp_path):
        with VSSEngine(tmp_path / "store") as engine:
            assert engine.calibration == Calibration.default()
            assert not engine.layout.calibration_path.exists()

    def test_saved_calibration_is_loaded(self, tmp_path):
        saved = Calibration.default()
        saved.encode_cost["h264"] = [(1.0, 5e-7), (2.0, 4e-7)]
        root = tmp_path / "store"
        saved.save(Layout(root).calibration_path)
        with VSSEngine(root) as engine:
            assert engine.calibration == saved


def test_import_repro_leaves_the_scene_renderer_unloaded():
    """The calibration record lives in ``core/cost.py``: importing the
    store no longer drags in the synthetic road-scene renderer that
    ``run_calibration`` times, while the old import path still works."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro
    import repro.core.cost

    assert Calibration is repro.core.cost.Calibration
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import repro, sys; assert 'repro.synthetic' not in sys.modules",
        ],
        check=True,
        env=env,
    )
