"""Camera rig: views into a :class:`~repro.synthetic.scene.RoadScene`.

Each camera crops a window of the world and optionally applies a
perspective skew (simulating a different orientation, like the paper's
Figure 6 where the right frame "bulges" after projection) and a horizontal
pan over time (the "dynamic camera" scenarios of section 5.1.2).

Because the geometry is synthetic, the rig can report the *true* homography
between any two cameras at any time step — ground truth the paper's real
datasets cannot provide, used heavily by the joint-compression tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.synthetic.scene import RoadScene
from repro.video.frame import VideoSegment
from repro.vision.homography import (
    WarpPlan,
    perspective_skew_homography,
    translation_homography,
    warp_plan,
)


@dataclass(frozen=True)
class Camera:
    """A window into the world.

    ``x_offset`` is the left edge of the camera's crop at ``t = 0``;
    ``pan_rate`` moves it rightward by that many pixels per frame (wrapped
    so the crop stays inside the world).  ``skew`` applies the perspective
    distortion of :func:`perspective_skew_homography`.
    """

    name: str
    x_offset: int
    width: int
    height: int
    skew: float = 0.0
    pan_rate: float = 0.0

    def offset_at(self, t: int, world_width: int) -> int:
        """Crop offset at frame ``t``, clamped to the world."""
        max_offset = world_width - self.width
        offset = self.x_offset + self.pan_rate * t
        if max_offset <= 0:
            return 0
        # Bounce between the world edges rather than wrapping, so dynamic
        # cameras stay smooth (no teleporting background).
        period = 2 * max_offset
        phase = offset % period
        bounced = phase if phase <= max_offset else period - phase
        return int(round(bounced))

    def skew_matrix(self) -> np.ndarray:
        """Homography from the unskewed crop to this camera's image."""
        if self.skew == 0.0:
            return np.eye(3)
        return perspective_skew_homography(self.width, self.height, self.skew)

    @cached_property
    def skew_plan(self) -> WarpPlan:
        """The skew warp of a ``height x width`` crop, planned once per
        camera: the skew never changes, only the crop's pixels do."""
        shape = (self.height, self.width)
        return warp_plan(self.skew_matrix(), shape, shape)

    def view(self, world: np.ndarray, t: int, world_width: int) -> np.ndarray:
        """This camera's image of a rendered world frame (as tall as the
        camera)."""
        offset = self.offset_at(t, world_width)
        crop = world[:, offset : offset + self.width]
        if self.skew == 0.0:
            return np.ascontiguousarray(crop)
        return self.skew_plan.apply(crop)


@dataclass
class CameraRig:
    """A scene plus the cameras observing it."""

    scene: RoadScene
    cameras: list[Camera]
    fps: float = 30.0

    def camera(self, name_or_index: str | int) -> Camera:
        if isinstance(name_or_index, int):
            return self.cameras[name_or_index]
        for cam in self.cameras:
            if cam.name == name_or_index:
                return cam
        raise KeyError(f"no camera named {name_or_index!r}")

    def render(
        self, camera: str | int, start: int = 0, stop: int | None = None
    ) -> VideoSegment:
        """Render frames ``[start, stop)`` as seen by one camera."""
        segments = self.render_all(start, stop, cameras=[camera])
        return segments[0]

    def render_all(
        self,
        start: int = 0,
        stop: int | None = None,
        cameras: list[str | int] | None = None,
    ) -> list[VideoSegment]:
        """Render every requested camera over ``[start, stop)``.

        The world frame is rendered once per time step and sliced per
        camera, so multi-camera datasets cost barely more than one.
        """
        if stop is None:
            stop = start + 1
        if stop <= start:
            raise ValueError(f"empty frame range [{start}, {stop})")
        selected = (
            [self.camera(c) for c in cameras]
            if cameras is not None
            else list(self.cameras)
        )
        stacks = [
            np.empty((stop - start, cam.height, cam.width, 3), dtype=np.uint8)
            for cam in selected
        ]
        for t in range(start, stop):
            world = self.scene.render_world(t)
            for stack, cam in zip(stacks, selected):
                stack[t - start] = cam.view(world, t, self.scene.world_width)
        return [
            VideoSegment(
                pixels=stack,
                pixel_format="rgb",
                height=cam.height,
                width=cam.width,
                fps=self.fps,
                start_time=start / self.fps,
            )
            for stack, cam in zip(stacks, selected)
        ]

    def true_homography(
        self, from_camera: str | int, to_camera: str | int, t: int = 0
    ) -> np.ndarray:
        """Ground-truth homography mapping ``from_camera`` image coordinates
        into ``to_camera``'s image space at frame ``t``."""
        src = self.camera(from_camera)
        dst = self.camera(to_camera)
        world_w = self.scene.world_width
        dx = src.offset_at(t, world_w) - dst.offset_at(t, world_w)
        translate = translation_homography(dx, 0.0)
        h = dst.skew_matrix() @ translate @ np.linalg.inv(src.skew_matrix())
        return h / h[2, 2]

    def overlap_fraction(
        self, camera_a: str | int, camera_b: str | int, t: int = 0
    ) -> float:
        """Horizontal overlap between two cameras' crops, as a fraction of
        camera width."""
        a = self.camera(camera_a)
        b = self.camera(camera_b)
        world_w = self.scene.world_width
        a0 = a.offset_at(t, world_w)
        b0 = b.offset_at(t, world_w)
        left = max(a0, b0)
        right = min(a0 + a.width, b0 + b.width)
        return max(0.0, right - left) / float(min(a.width, b.width))


def overlapping_rig(
    width: int,
    height: int,
    overlap: float,
    skew: float = 0.04,
    num_vehicles: int = 8,
    seed: int = 7,
    fps: float = 30.0,
    pan_rate: float = 0.0,
) -> CameraRig:
    """Build the standard two-camera rig with a given horizontal overlap.

    The left camera is unskewed; the right camera gets a mild perspective
    skew so joint compression must estimate a genuine (non-translation)
    homography, as in the paper's Figure 6.
    """
    if not 0.0 <= overlap < 1.0:
        raise ValueError(f"overlap must be in [0, 1), got {overlap}")
    separation = int(round(width * (1.0 - overlap)))
    margin = int(width * 0.25) if pan_rate else 8
    world_width = width + separation + 2 * margin
    scene = RoadScene(
        world_width=world_width,
        height=height,
        num_vehicles=num_vehicles,
        seed=seed,
    )
    cameras = [
        Camera("left", margin, width, height, skew=0.0, pan_rate=pan_rate),
        Camera("right", margin + separation, width, height, skew=skew,
               pan_rate=pan_rate),
    ]
    return CameraRig(scene=scene, cameras=cameras, fps=fps)
