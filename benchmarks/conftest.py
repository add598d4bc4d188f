"""Shared benchmark fixtures.

Sizes are scaled down from the paper (see EXPERIMENTS.md): the pure-Python
codec runs ~3 orders of magnitude slower than NVENC, so each experiment
uses seconds of video rather than hours.  All content comes from the
deterministic synthetic datasets, so every run regenerates identical
workloads.
"""

from __future__ import annotations

import pytest

from repro.core.engine import VSSEngine
from repro.synthetic import visualroad
from repro.vbench.calibrate import Calibration


@pytest.fixture(scope="session")
def calibration() -> Calibration:
    return Calibration.default()


@pytest.fixture(scope="session")
def vroad_1k_30():
    """visualroad-1K-30%: 150 frames (5 s) — the workhorse dataset."""
    return visualroad("1K", overlap=0.3, num_frames=150)


@pytest.fixture(scope="session")
def vroad_clip(vroad_1k_30):
    """The left camera's 5 s of video, rendered once per session."""
    return vroad_1k_30.video(0, 0, 150)


def make_store(tmp_path, calibration, **knobs) -> VSSEngine:
    return VSSEngine(tmp_path / "vss", calibration=calibration, **knobs)
