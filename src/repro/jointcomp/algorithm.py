"""Algorithm 1: joint compression of a pair of overlapping GOPs.

Given frame sequences F (left) and G (right):

1. estimate a homography H mapping G's coordinates into F's space from
   matched keypoints of the first frames; reverse the pair if the overlap
   is on the wrong side (H's x-translation negative);
2. if H is a near-identity (``||H - I|| <= 0.1``) the GOPs are duplicates —
   store one and a pointer;
3. otherwise split each frame pair into left / overlap / right regions at
   the columns where the frames begin and cease to overlap, merging the
   overlap with the configured merge function;
4. verify per frame that both sides can be recovered above the quality
   threshold; on failure re-estimate H once (dynamic cameras, section
   5.1.2) and abort the pair if it still fails;
5. encode the three region sequences separately.

Steps 3 and 4 run on whole frame stacks, not frame by frame.  A pass
takes all remaining frames of the pair under one H, :data:`PASS_BLOCK`
frames at a time.  Per block it warps G once, merges, recovers the right
side once, and takes each frame's PSNR.  It accepts the frames up to the
first that fails verification.  At that frame H is re-estimated exactly
as the per-frame loop does, and the next pass resumes there; a
``reestimate_every`` boundary also ends a pass.  The result (pieces, H,
split, re-estimation count, qualities) is the per-frame loop's, field by
field (``tests/kernel_oracles.PerFrameJointCompressor``).  The PSNRs
match too: a frame's squared differences are integers whose sum is
exact in float64 in any order, so :func:`_frame_psnrs` takes the same
mean that :func:`~repro.video.metrics.psnr` takes.

Each homography is planned once (:func:`repro.vision.homography.warp_plan`),
not once per frame: the forward plan keeps the columns ``[x_f, w)`` the
merge reads, and the recovery plan (:func:`recovery_plan`, H^-1 applied to
an F-sized canvas) keeps the columns ``[0, x_g)`` a recovered right frame
takes from it.  Both are rebuilt only when H is re-estimated, and the
read path's recovery builds one recovery plan per pair and applies it to
the whole right side at once.

Mixed-resolution pairs are handled by upscaling the smaller input first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import HomographyError
from repro.jointcomp.merge import MERGE_FUNCTIONS
from repro.util import StageTimers
from repro.video.metrics import psnr, psnr_from_mse
from repro.vision.features import describe_keypoints, detect_keypoints
from repro.vision.homography import (
    WarpPlan,
    apply_homography,
    homography_identity_distance,
    ransac_homography,
    warp_plan,
)
from repro.vision.matching import match_descriptors, matched_points

#: Near-identity threshold for the duplicate-GOP shortcut (paper: 0.1).
DUPLICATE_EPSILON = 0.1

#: Per-frame recovery-quality verification threshold, in dB.  The paper's
#: Table 2 admits fragments whose recovered right side lands near 24-30 dB,
#: so verification uses the near-lossless band rather than the 40 dB
#: read-quality cutoff.
VERIFY_DB = 26.0

#: Recovery quality below which the homography is re-estimated (paper:
#: 24 dB, section 5.1.2).
REESTIMATE_DB = 24.0

#: Frames one verification block merges, recovers and checks at once:
#: small enough that the block's float temporaries stay near a megabyte.
PASS_BLOCK = 4

#: Keypoint detection budget for homography estimation (tuned for the
#: scaled-down synthetic resolutions; the paper's constants assume full-HD).
MAX_KEYPOINTS = 800
KEYPOINT_QUALITY = 0.001
KEYPOINT_MIN_DISTANCE = 2


@dataclass
class JointResult:
    """Successful joint compression of one GOP pair."""

    homography: np.ndarray
    x_f: int
    x_g: int
    merge: str
    left_frames: np.ndarray  # (n, h, x_f, 3)
    overlap_frames: np.ndarray  # (n, h, w - x_f, 3)
    right_frames: np.ndarray  # (n, h, w - x_g, 3)
    duplicate: bool = False
    swapped: bool = False
    quality_left_db: float = 0.0
    quality_right_db: float = 0.0
    reestimations: int = 0
    timers: StageTimers = field(default_factory=StageTimers)

    @property
    def stored_pixels(self) -> int:
        return (
            self.left_frames.size
            + self.overlap_frames.size
            + self.right_frames.size
        ) // 3

    @property
    def source_pixels(self) -> int:
        n, h = self.left_frames.shape[:2]
        width = self.left_frames.shape[2] + self.overlap_frames.shape[2]
        return 2 * n * h * width


class JointCompressor:
    """Applies Algorithm 1 to pairs of decoded frame stacks."""

    def __init__(
        self,
        merge: str = "unprojected",
        verify_db: float = VERIFY_DB,
        reestimate_db: float = REESTIMATE_DB,
        duplicate_epsilon: float = DUPLICATE_EPSILON,
        reestimate_every: int | None = None,
    ):
        if merge not in MERGE_FUNCTIONS:
            raise ValueError(
                f"unknown merge {merge!r}; expected one of {sorted(MERGE_FUNCTIONS)}"
            )
        self.merge = merge
        self.verify_db = verify_db
        self.reestimate_db = reestimate_db
        self.duplicate_epsilon = duplicate_epsilon
        #: Optional fixed re-estimation cadence (frames); used by the
        #: Figure 19 dynamicism experiment.  None = on demand only.
        self.reestimate_every = reestimate_every

    # ------------------------------------------------------------------
    def estimate_homography(
        self, frame_f: np.ndarray, frame_g: np.ndarray, timers: StageTimers
    ) -> np.ndarray | None:
        """Feature-based homography mapping G coordinates into F space."""
        with timers.measure("feature_detection"):
            kp_f = detect_keypoints(
                frame_f,
                max_keypoints=MAX_KEYPOINTS,
                quality=KEYPOINT_QUALITY,
                min_distance=KEYPOINT_MIN_DISTANCE,
            )
            kp_g = detect_keypoints(
                frame_g,
                max_keypoints=MAX_KEYPOINTS,
                quality=KEYPOINT_QUALITY,
                min_distance=KEYPOINT_MIN_DISTANCE,
            )
            desc_f = describe_keypoints(frame_f, kp_f)
            desc_g = describe_keypoints(frame_g, kp_g)
        with timers.measure("homography_estimation"):
            matches = match_descriptors(desc_g, desc_f)
            if len(matches) < 8:
                return None
            src, dst = matched_points(matches, kp_g, kp_f)
            try:
                h, _mask = ransac_homography(src, dst)
            except HomographyError:
                return None
        return h

    # ------------------------------------------------------------------
    def compress(
        self, frames_f: np.ndarray, frames_g: np.ndarray, _swapped: bool = False
    ) -> JointResult | None:
        """Jointly compress two aligned frame stacks ``(n, h, w, 3)``.

        Returns None when the pair is not jointly compressible (no
        homography, no overlap, or unrecoverable quality).
        """
        timers = StageTimers()
        frames_f, frames_g = _match_resolution(frames_f, frames_g)
        if frames_f.shape != frames_g.shape:
            return None
        h_matrix = self.estimate_homography(frames_f[0], frames_g[0], timers)
        if h_matrix is None:
            return None
        # Duplicate check precedes the orientation check: a near-identity
        # homography can carry a tiny negative translation, which must not
        # trigger the swap path.
        if homography_identity_distance(h_matrix) <= self.duplicate_epsilon:
            return self._duplicate_result(frames_f, frames_g, h_matrix, timers)
        if h_matrix[0, 2] < 0 and not _swapped:
            # Overlap on the other side: reverse the transform direction.
            result = self.compress(frames_g, frames_f, _swapped=True)
            if result is not None:
                result.swapped = not result.swapped
            return result
        if h_matrix[0, 2] < 0:
            return None  # inconsistent orientation in both directions

        n, height, width = frames_f.shape[:3]
        x_f, x_g = _split_columns(h_matrix, width, height)
        if x_f is None:
            return None

        left = np.ascontiguousarray(frames_f[:, :, :x_f])
        overlap = np.empty((n, height, width - x_f, 3), dtype=np.uint8)
        right = np.ascontiguousarray(frames_g[:, :, x_g:])
        quality_left: list[float] = []
        quality_right: list[float] = []
        every = self.reestimate_every
        plans = _plans(h_matrix, x_f, x_g, height, width)
        reestimations = 0
        retried = False  # frame i is a retry after a failure re-estimate
        i = 0
        while i < n:
            if every and i > 0 and i % every == 0 and not retried:
                fresh = self.estimate_homography(frames_f[i], frames_g[i], timers)
                if fresh is not None and fresh[0, 2] >= 0:
                    h_matrix = fresh
                    plans = _plans(h_matrix, x_f, x_g, height, width)
                    reestimations += 1
            stop = min(n, (i // every + 1) * every) if every else n
            failed = self._pass(
                frames_f, frames_g, overlap, plans, x_f, i, stop,
                quality_left, quality_right, timers,
            )
            if failed == stop:
                i, retried = stop, False
                continue
            if retried and failed == i:
                return None  # abort joint compression (paper Figure 8)
            fresh = self.estimate_homography(
                frames_f[failed], frames_g[failed], timers
            )
            if fresh is None or fresh[0, 2] < 0:
                return None
            h_matrix = fresh
            plans = _plans(h_matrix, x_f, x_g, height, width)
            reestimations += 1
            i, retried = failed, True

        return JointResult(
            homography=h_matrix,
            x_f=x_f,
            x_g=x_g,
            merge=self.merge,
            left_frames=left,
            overlap_frames=overlap,
            right_frames=right,
            quality_left_db=float(np.mean(quality_left)),
            quality_right_db=float(np.mean(quality_right)),
            reestimations=reestimations,
            timers=timers,
        )

    # ------------------------------------------------------------------
    def _pass(
        self,
        frames_f: np.ndarray,
        frames_g: np.ndarray,
        overlap: np.ndarray,
        plans: tuple[WarpPlan, WarpPlan],
        x_f: int,
        start: int,
        stop: int,
        quality_left: list[float],
        quality_right: list[float],
        timers: StageTimers,
    ) -> int:
        """Merge frames ``[start, stop)`` into ``overlap`` by one
        homography's ``plans`` (:func:`_plans`), :data:`PASS_BLOCK`
        frames at a time, and verify that both sides are recoverable
        (Alg. 1).  Appends the qualities of the frames that pass and
        returns the first that fails (``stop`` if none does)."""
        height, width = frames_f.shape[1:3]
        merge_fn = MERGE_FUNCTIONS[self.merge]
        forward, recovery = plans
        x_g = recovery.columns[1]
        frame_values = height * width * 3
        for first in range(start, stop, PASS_BLOCK):
            last = min(stop, first + PASS_BLOCK)
            with timers.measure("compression"):
                overlap[first:last] = merge_fn(
                    frames_f[first:last, :, x_f:],
                    forward.apply(frames_g[first:last]),
                    forward.valid,
                )
            with timers.measure("verification"):
                # Left recovery is the stored left plus the overlap, and
                # right recovery keeps G's columns [x_g, w): only the
                # overlap and the recovered columns [0, x_g) can differ.
                q_left = _frame_psnrs(
                    frames_f[first:last, :, x_f:], overlap[first:last],
                    frame_values,
                )
                recovered = recover_right_frame(
                    overlap[first:last],
                    frames_g[first:last, :, x_g:],
                    recovery,
                    x_f,
                )
                q_right = _frame_psnrs(
                    frames_g[first:last, :, :x_g], recovered[:, :, :x_g],
                    frame_values,
                )
            for k in range(last - first):
                if min(q_left[k], q_right[k]) < self.verify_db:
                    return first + k
                quality_left.append(q_left[k])
                quality_right.append(q_right[k])
        return stop

    def _duplicate_result(
        self,
        frames_f: np.ndarray,
        frames_g: np.ndarray,
        h_matrix: np.ndarray,
        timers: StageTimers,
    ) -> JointResult:
        """Near-identical GOPs: store F once, point G at it (section
        5.1.1)."""
        n, height, width = frames_f.shape[:3]
        quality = float(
            np.mean([psnr(frames_f[i], frames_g[i]) for i in range(0, n, max(1, n // 4))])
        )
        return JointResult(
            homography=np.eye(3),
            x_f=width,
            x_g=width,
            merge=self.merge,
            left_frames=frames_f,
            overlap_frames=np.empty((n, height, 0, 3), dtype=np.uint8),
            right_frames=np.empty((n, height, 0, 3), dtype=np.uint8),
            duplicate=True,
            quality_left_db=360.0,
            quality_right_db=quality,
            timers=timers,
        )


def _match_resolution(
    frames_f: np.ndarray, frames_g: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Upscale the lower-resolution stack to the higher (section 5.1.2)."""
    from repro.video.frame import VideoSegment
    from repro.video.resample import resize_segment

    hf, wf = frames_f.shape[1:3]
    hg, wg = frames_g.shape[1:3]
    if (hf, wf) == (hg, wg):
        return frames_f, frames_g
    target_h, target_w = max(hf, hg), max(wf, wg)

    def upscale(stack: np.ndarray) -> np.ndarray:
        if stack.shape[1:3] == (target_h, target_w):
            return stack
        segment = VideoSegment(
            stack, "rgb", stack.shape[1], stack.shape[2], 30.0
        )
        return resize_segment(segment, target_w, target_h).pixels

    return upscale(frames_f), upscale(frames_g)


def _split_columns(
    h_matrix: np.ndarray, width: int, height: int
) -> tuple[int | None, int | None]:
    """Columns where overlap begins in F (x_f) and ends in G (x_g).

    x_f: G's left edge projected into F space; x_g: F's right edge pulled
    back into G space.  Both must fall inside the frame for the pair to
    overlap (Algorithm 1's partition guard).
    """
    mid = np.array([[0.0, height / 2.0]])
    left_edge_in_f = apply_homography(h_matrix, mid)[0, 0]
    right_edge_in_g = apply_homography(
        np.linalg.inv(h_matrix), np.array([[width - 1.0, height / 2.0]])
    )[0, 0]
    x_f = int(round(left_edge_in_f))
    x_g = int(round(right_edge_in_g))
    if not (0 < x_f <= width - 2) or not (0 < x_g <= width - 2):
        return None, None
    return x_f, x_g


def recovery_plan(
    h_matrix: np.ndarray, x_g: int, height: int, width: int
) -> WarpPlan:
    """The plan that returns a pair's overlap to G's space: H^-1 applied
    to an F-sized canvas, keeping G's columns ``[0, x_g)``."""
    return warp_plan(
        np.linalg.inv(h_matrix), (height, width), (height, width), (0, x_g)
    )


def _plans(
    h_matrix: np.ndarray, x_f: int, x_g: int, height: int, width: int
) -> tuple[WarpPlan, WarpPlan]:
    """Algorithm 1's two plans for one homography: the forward warp of G
    on F's columns ``[x_f, w)`` (the merge) and the recovery plan."""
    forward = warp_plan(h_matrix, (height, width), (height, width), (x_f, width))
    return forward, recovery_plan(h_matrix, x_g, height, width)


def recover_right_frame(
    overlap: np.ndarray, right: np.ndarray, recovery: WarpPlan, x_f: int
) -> np.ndarray:
    """Reconstruct a stack of right (G) frames from stored pieces, in one
    warp.

    The overlap lives in F's coordinate space at columns [x_f, w); placing
    it on an F-sized canvas and warping by H^-1 (``recovery``, from
    :func:`recovery_plan`) returns it to G space, where it covers columns
    [0, x_g); the stored right region supplies the rest.
    """
    frames = overlap.shape[0]
    height, width = recovery.input_shape
    x_g = recovery.columns[1]
    canvas = np.zeros((frames, height, width, 3), dtype=np.uint8)
    canvas[:, :, x_f:] = overlap
    result = np.empty((frames, height, width, 3), dtype=np.uint8)
    result[:, :, :x_g] = recovery.apply(canvas)
    result[:, :, x_g:] = right
    # Fill any invalid (out-of-projection) pixels from the nearest valid
    # column to avoid black fringes.
    invalid_cols = ~recovery.valid
    if invalid_cols.any():
        ys, xs = np.nonzero(invalid_cols)
        result[:, ys, xs] = result[:, ys, np.clip(xs + 2, 0, width - 1)]
    return result


def _frame_psnrs(
    reference: np.ndarray, recovered: np.ndarray, frame_values: int
) -> list[float]:
    """:func:`~repro.video.metrics.psnr` of each frame of two uint8
    stacks, given only the columns where they can differ; a whole frame
    holds ``frame_values`` values.

    The squared differences are integers and each frame's sum of them
    stays far below 2**53, so every partial sum is exact: the sum here
    equals the one ``psnr``'s mean takes, bit for bit.
    """
    diff = reference.astype(np.float64) - recovered
    diff = diff.reshape(len(diff), -1)
    sums = np.einsum("ij,ij->i", diff, diff)
    return [psnr_from_mse(float(total) / frame_values) for total in sums]
