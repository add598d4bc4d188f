"""Vehicle detection over the synthetic renderer's scenes.

Stands in for the paper's YOLOv4 stage in the end-to-end application
(section 6.4).  The object of study there is storage-system behaviour —
decode cost, cache reuse, transcode planning — not detector accuracy, so a
deterministic colour/connected-component detector that consumes decoded RGB
frames preserves the experiment: it reads every pixel, runs per frame, and
produces bounding boxes + colours for the downstream search phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from repro.vision.histogram import color_distance, dominant_color

#: Palette of vehicle paint colours used by the synthetic scene generator.
#: Detection matches pixels to these references.
VEHICLE_PALETTE: dict[str, tuple[int, int, int]] = {
    "red": (200, 30, 30),
    "blue": (40, 60, 200),
    "green": (40, 160, 60),
    "yellow": (220, 200, 40),
    "white": (230, 230, 230),
    "black": (25, 25, 28),
    "silver": (160, 165, 170),
    "orange": (230, 130, 30),
}

#: The paper's search phase declares a colour match when the Euclidean
#: distance between the dominant bin's colour and the query colour is <= 50.
COLOR_MATCH_THRESHOLD = 50.0

#: A pixel is vehicle paint when its Euclidean distance to a palette
#: colour is at most this, and a detection needs this many such pixels
#: connected.
COLOR_TOLERANCE = 60
MIN_AREA = 12

#: Per palette colour and channel, ``(value - reference) ** 2`` for every
#: uint8 value: a pixel's squared distance is three table lookups.
_SQUARED_DISTANCE = np.array(
    [
        [(np.arange(256) - channel) ** 2 for channel in reference]
        for reference in VEHICLE_PALETTE.values()
    ],
    dtype=np.int32,
)


@dataclass(frozen=True)
class Detection:
    """A detected vehicle: bounding box, colour label, pixel area."""

    x0: int
    y0: int
    x1: int
    y1: int
    color: str
    area: int

    @property
    def box(self) -> tuple[int, int, int, int]:
        return (self.x0, self.y0, self.x1, self.y1)

    def crop(self, frame: np.ndarray) -> np.ndarray:
        return frame[self.y0 : self.y1, self.x0 : self.x1]


def paint_mask(frame: np.ndarray) -> np.ndarray:
    """Where a uint8 RGB frame is within :data:`COLOR_TOLERANCE` of a
    palette colour, compared as squared distances in integers."""
    if frame.ndim != 3 or frame.shape[2] != 3 or frame.dtype != np.uint8:
        raise ValueError(
            f"expected an (H, W, 3) uint8 rgb frame, got {frame.shape} "
            f"{frame.dtype}"
        )
    red, green, blue = frame[..., 0], frame[..., 1], frame[..., 2]
    mask = np.zeros(frame.shape[:2], dtype=bool)
    for table in _SQUARED_DISTANCE:
        squared = table[0][red]
        squared += table[1][green]
        squared += table[2][blue]
        mask |= squared <= COLOR_TOLERANCE**2
    return mask


def detect_vehicles(frame: np.ndarray) -> list[Detection]:
    """Detect vehicles in a uint8 RGB frame.

    The pixels of :func:`paint_mask` are grouped into connected
    components; components of at least :data:`MIN_AREA` pixels become
    detections labelled by their dominant palette colour.
    """
    labels, count = ndimage.label(paint_mask(frame))
    if count == 0:
        return []
    detections = []
    slices = ndimage.find_objects(labels)
    for index, slc in enumerate(slices, start=1):
        if slc is None:
            continue
        component = labels[slc] == index
        area = int(component.sum())
        if area < MIN_AREA:
            continue
        y0, y1 = slc[0].start, slc[0].stop
        x0, x1 = slc[1].start, slc[1].stop
        region = frame[y0:y1, x0:x1]
        color = classify_color(region)
        detections.append(Detection(x0, y0, x1, y1, color, area))
    detections.sort(key=lambda d: -d.area)
    return detections


def classify_color(region: np.ndarray) -> str:
    """Label a region with the nearest palette colour to its dominant
    histogram bin.

    Accepts anything :func:`~repro.vision.histogram.dominant_color`
    accepts: uint8 RGB, grayscale, or float frames straight off the
    decode/resample paths.
    """
    dom = dominant_color(region)
    best_name = "unknown"
    best_distance = float("inf")
    for name, reference in VEHICLE_PALETTE.items():
        d = color_distance(dom, reference)
        if d < best_distance:
            best_distance = d
            best_name = name
    return best_name


def matches_search_color(
    region: np.ndarray, search_color: tuple[int, int, int]
) -> bool:
    """The paper's search predicate: dominant-bin colour within Euclidean
    distance 50 of the query colour."""
    return color_distance(dominant_color(region), search_color) <= COLOR_MATCH_THRESHOLD
