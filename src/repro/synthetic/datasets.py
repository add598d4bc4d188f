"""Named dataset builders mirroring the paper's Table 1.

Every dataset the paper evaluates has a synthetic equivalent here, at a
resolution scaled by 1/5 (a pure-Python codec cannot push real 4K) and a
default frame count scaled accordingly.  Scale factors are recorded in
EXPERIMENTS.md; the experiments only depend on *relative* behaviour across
datasets (resolution ratios, overlap fractions), which the scaling
preserves.

=================  ================  ===============  ========  =========
paper dataset      paper resolution  ours             overlap   cameras
=================  ================  ===============  ========  =========
Robotcar           1280x960          256x192          ~80%      2 (stereo)
Waymo              1920x1280         384x256          ~15%      2
VisualRoad 1K-*    960x540           192x108          30/50/75% 2
VisualRoad 2K-30%  1920x1080         384x216          30%       2
VisualRoad 4K-30%  3840x2160         768x432          30%       2
=================  ================  ===============  ========  =========
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.synthetic.camera import CameraRig, overlapping_rig
from repro.video.frame import VideoSegment

#: Resolution classes at our 1/5 scale, (width, height).
RESOLUTIONS: dict[str, tuple[int, int]] = {
    "1K": (192, 108),
    "2K": (384, 216),
    "4K": (768, 432),
}


@dataclass
class Dataset:
    """A named synthetic dataset: a camera rig plus a frame budget."""

    name: str
    rig: CameraRig
    num_frames: int
    overlap: float

    @property
    def fps(self) -> float:
        return self.rig.fps

    @property
    def resolution(self) -> tuple[int, int]:
        cam = self.rig.cameras[0]
        return (cam.width, cam.height)

    def video(
        self, camera: int | str = 0, start: int = 0, stop: int | None = None
    ) -> VideoSegment:
        """Render one camera's video over ``[start, stop)`` frames."""
        return self.rig.render(camera, start, stop if stop is not None else self.num_frames)

    def videos(self, start: int = 0, stop: int | None = None) -> list[VideoSegment]:
        """Render all cameras (sharing world renders per frame)."""
        return self.rig.render_all(start, stop if stop is not None else self.num_frames)


def visualroad(
    resolution: str = "1K",
    overlap: float = 0.3,
    num_frames: int = 300,
    seed: int = 7,
    pan_rate: float = 0.0,
) -> Dataset:
    """A Visual-Road-style dataset at the given resolution class and
    horizontal overlap (paper's VisualRoad-<res>-<overlap>%)."""
    if resolution not in RESOLUTIONS:
        raise ValueError(
            f"unknown resolution class {resolution!r}; expected one of "
            f"{sorted(RESOLUTIONS)}"
        )
    width, height = RESOLUTIONS[resolution]
    rig = overlapping_rig(
        width, height, overlap, skew=0.04, seed=seed, pan_rate=pan_rate
    )
    percent = int(round(overlap * 100))
    return Dataset(
        name=f"visualroad-{resolution.lower()}-{percent}",
        rig=rig,
        num_frames=num_frames,
        overlap=overlap,
    )


def robotcar(num_frames: int = 300, seed: int = 11) -> Dataset:
    """RobotCar equivalent: highly overlapping vehicle-mounted stereo pair.

    The real dataset is two stereo cameras with near-total overlap; we use
    80% overlap, a small stereo skew, and a slow forward pan (vehicle
    motion)."""
    rig = overlapping_rig(
        256, 192, overlap=0.8, skew=0.02, seed=seed, pan_rate=0.4
    )
    return Dataset(name="robotcar", rig=rig, num_frames=num_frames, overlap=0.8)


def waymo(num_frames: int = 120, seed: int = 13) -> Dataset:
    """Waymo equivalent: two vehicle cameras overlapping ~15%."""
    rig = overlapping_rig(
        384, 256, overlap=0.15, skew=0.03, seed=seed, pan_rate=0.4
    )
    return Dataset(name="waymo", rig=rig, num_frames=num_frames, overlap=0.15)


#: Builders for every Table 1 dataset, keyed by the paper's names.
DATASET_BUILDERS = {
    "robotcar": lambda num_frames=300: robotcar(num_frames),
    "waymo": lambda num_frames=120: waymo(num_frames),
    "visualroad-1k-30": lambda num_frames=300: visualroad("1K", 0.30, num_frames),
    "visualroad-1k-50": lambda num_frames=300: visualroad("1K", 0.50, num_frames),
    "visualroad-1k-75": lambda num_frames=300: visualroad("1K", 0.75, num_frames),
    "visualroad-2k-30": lambda num_frames=300: visualroad("2K", 0.30, num_frames),
    "visualroad-4k-30": lambda num_frames=300: visualroad("4K", 0.30, num_frames),
}


def build_dataset(name: str, num_frames: int | None = None) -> Dataset:
    """Build a Table 1 dataset by its paper name."""
    key = name.lower()
    if key not in DATASET_BUILDERS:
        raise ValueError(
            f"unknown dataset {name!r}; expected one of {sorted(DATASET_BUILDERS)}"
        )
    builder = DATASET_BUILDERS[key]
    return builder(num_frames) if num_frames is not None else builder()
