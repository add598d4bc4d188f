"""Ingest-time feature extraction: decoded GOPs -> index rows.

Extraction is *sampled*: one representative frame per GOP (the middle
frame) feeds the detectors.  A GOP spans well under a second, the
synthetic scenes change slowly, and extraction rides the engine's
single-threaded background admission worker — per-frame detection would
turn indexing into a second full decode pipeline for marginal recall.

Three features per GOP, matching the index's columns:

* **labels** — keyword tokens from :func:`detect_vehicles`: each
  detection contributes its palette colour, a size class (``truck`` for
  wide boxes, ``car`` otherwise — the synthetic renderer draws vehicles
  at aspect ratios 1.4–2.2 lane-heights wide by 0.75 high, so the box
  aspect ratio separates the population), and the literal ``vehicle``.
  Duplicates are kept: term frequency is exactly what BM25 should see
  ("two red trucks" outranks "one red truck").
* **histogram** — the 64-dim normalized joint colour histogram of the
  frame (:func:`color_histogram`).
* **embedding** — descriptors from :func:`detect_and_describe`
  mean-pooled into one 128-dim vector (all-zero when the frame yields
  no keypoints).

Every frame is adapted through :func:`repro.vision.frame_to_rgb`, so
extraction works on whatever pixel format the original was stored in.

Extraction is queued when a stream closes, just after the tail reads
that follow ingest have decoded the newest GOPs.  The engine passes
:meth:`repro.core.reader.Reader.load_stored` as the loader: a GOP whose
whole decode the engine's decode cache holds is taken from it without
counting anything, and any other is decoded from its page file without
filling the cache.  The pixels are the same either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import VSSError
from repro.search.index import EMBEDDING_DIM, SearchIndex
from repro.video.frame import VideoSegment
from repro.vision import (
    Detection,
    color_histogram,
    detect_vehicles,
    frame_to_rgb,
)
from repro.vision.features import detect_and_describe

#: Box aspect ratio (width/height) at or above which a detection is
#: labelled ``truck`` rather than ``car``.  The synthetic fleet's widths
#: are uniform in [1.4, 2.2] lane-heights at 0.75 lane-heights tall —
#: aspect 1.87 to 2.93 — so 2.4 splits it roughly down the middle.
TRUCK_ASPECT = 2.4

#: Keypoint budget per sampled frame: extraction wants a stable pooled
#: embedding, not exhaustive geometry.
MAX_KEYPOINTS = 64


@dataclass(frozen=True)
class GopFeatures:
    """What one GOP contributes to the index."""

    labels: tuple[str, ...]
    num_detections: int
    histogram: np.ndarray
    embedding: np.ndarray


def labels_for(detections: list[Detection]) -> tuple[str, ...]:
    """Keyword tokens for a frame's detections (module docs)."""
    tokens: list[str] = []
    for det in detections:
        width = det.x1 - det.x0
        height = max(1, det.y1 - det.y0)
        kind = "truck" if width / height >= TRUCK_ASPECT else "car"
        tokens += [det.color, kind, "vehicle"]
    return tuple(tokens)


def embed_image(rgb: np.ndarray) -> np.ndarray:
    """Mean-pooled keypoint descriptors as one fixed-size embedding."""
    _, descriptors = detect_and_describe(rgb, max_keypoints=MAX_KEYPOINTS)
    if descriptors.shape[0] == 0:
        return np.zeros(EMBEDDING_DIM, dtype=np.float32)
    return descriptors.mean(axis=0).astype(np.float32)


def extract_frame(rgb: np.ndarray) -> GopFeatures:
    """All three features from one uint8 RGB frame."""
    detections = detect_vehicles(rgb)
    return GopFeatures(
        labels=labels_for(detections),
        num_detections=len(detections),
        histogram=color_histogram(rgb).astype(np.float32),
        embedding=embed_image(rgb),
    )


def extract_gop(segment: VideoSegment) -> GopFeatures:
    """Features for one decoded GOP, sampled at its middle frame."""
    frame = segment.pixels[segment.num_frames // 2]
    rgb = frame_to_rgb(
        frame, segment.pixel_format, segment.height, segment.width
    )
    return extract_frame(rgb)


def extract_physical(
    index: SearchIndex,
    logical_id: int,
    gop_records,
    load,
    data_version: int = 0,
    skip_seqs: frozenset | set = frozenset(),
) -> int:
    """Index every not-yet-indexed GOP of one physical video.

    Returns the number of rows written.  ``load(record)`` decodes a GOP
    (module docstring).  Joint-stored GOPs (their bytes live in a shared
    pair file) and GOPs that fail to load or decode with a typed error
    are skipped rather than failing the pass — extraction is
    opportunistic, exactly like cache admission.
    """
    indexed = 0
    for record in gop_records:
        if record.seq in skip_seqs or record.joint_pair_id is not None:
            continue
        try:
            features = extract_gop(load(record))
        except VSSError:
            # Opportunistic, like admission.  Extraction holds the
            # video's shared lock, so no eviction, re-tile or delete
            # sweeps an original page under it; joint compression takes
            # no video lock (ROADMAP item 6) and may pair the GOP and
            # sweep its page (a ReadError), and a corrupt page fails to
            # decode (a ContainerError).
            continue
        index.upsert(
            logical_id,
            record.seq,
            record.start_time,
            record.end_time,
            list(features.labels),
            features.num_detections,
            features.histogram,
            features.embedding,
            data_version=data_version,
        )
        indexed += 1
    return indexed
