"""The intersection-monitoring application (paper sections 2 and 6.4).

Three phases over stored traffic video:

1. **Indexing** — read low-resolution decoded video, run the vehicle
   detector every ten frames (three times a second at 30 fps), and record
   which frames contain vehicles of which colour.
2. **Search** — given an alert colour, re-read the frames the index
   flagged (raw, at indexing resolution) and confirm by comparing the
   bounding-box colour histogram against the query (distance <= 50).
3. **Streaming** — retrieve contiguous h264 clips around each confirmed
   hit for delivery to a viewer device.

The app runs against either a VSS session or a Local-FS + decoder pipeline
(the paper's OpenCV variant); phase wall-times are what Figure 21 plots.
VSS wins search and streaming because the indexing phase's raw reads were
cached, and streaming re-uses the least-cost transcode plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.baselines.localfs import LocalFSStore
from repro.core.engine import Session
from repro.vision.detection import (
    VEHICLE_PALETTE,
    detect_vehicles,
    matches_search_color,
)

#: Index every tenth frame: "three times a second" at 30 fps.
INDEX_STRIDE = 10


@dataclass
class IndexEntry:
    """One indexed detection."""

    time: float
    box: tuple[int, int, int, int]
    color: str


@dataclass
class PhaseTimings:
    """Wall-clock seconds per phase (the Figure 21 metric)."""

    indexing: float = 0.0
    search: float = 0.0
    streaming: float = 0.0

    @property
    def total(self) -> float:
        return self.indexing + self.search + self.streaming


@dataclass
class MonitoringApp:
    """The end-to-end application over one stored video."""

    name: str
    index_resolution: tuple[int, int] = (96, 54)
    #: Streaming clips target a mobile-compatible reduced resolution, so
    #: the phase is a genuine transcode (the paper's scenario: convert
    #: relevant regions to a representation compatible with the viewer).
    clip_resolution: tuple[int, int] = (96, 54)
    chunk_seconds: float = 1.0
    clip_seconds: float = 1.0
    index: list[IndexEntry] = field(default_factory=list)
    timings: PhaseTimings = field(default_factory=PhaseTimings)

    # ------------------------------------------------------------------
    def run_indexing(self, store, duration: float) -> int:
        """Phase 1: detect vehicles over the whole video."""
        start_wall = time.perf_counter()
        t = 0.0
        found = 0
        while t < duration - 1e-9:
            end = min(t + self.chunk_seconds, duration)
            segment = self._read_raw(store, t, end)
            stride_frames = max(1, INDEX_STRIDE)
            for i in range(0, segment.num_frames, stride_frames):
                frame = segment.frame(i)
                for det in detect_vehicles(frame):
                    self.index.append(
                        IndexEntry(segment.time_of(i), det.box, det.color)
                    )
                    found += 1
            t = end
        self._settle(store)
        self.timings.indexing += time.perf_counter() - start_wall
        return found

    # ------------------------------------------------------------------
    def run_search(self, store, color: str, duration: float) -> list[IndexEntry]:
        """Phase 2: confirm indexed frames matching the alert colour."""
        start_wall = time.perf_counter()
        target = VEHICLE_PALETTE[color]
        hits: list[IndexEntry] = []
        for entry in self.index:
            if entry.color != color:
                continue
            frame_len = self.chunk_seconds / 2
            read_start = min(entry.time, max(duration - frame_len, 0.0))
            segment = self._read_raw(
                store, read_start, min(read_start + frame_len, duration)
            )
            frame = segment.frame(0)
            x0, y0, x1, y1 = entry.box
            region = frame[y0:y1, x0:x1]
            if region.size and matches_search_color(region, target):
                hits.append(entry)
        self._settle(store)
        self.timings.search += time.perf_counter() - start_wall
        return hits

    # ------------------------------------------------------------------
    def run_streaming(self, store, hits: list[IndexEntry], duration: float) -> int:
        """Phase 3: retrieve h264 clips around confirmed hits."""
        start_wall = time.perf_counter()
        clips = 0
        served: set[int] = set()
        for entry in hits:
            clip_start = max(0.0, entry.time - self.clip_seconds / 2)
            clip_end = min(duration, clip_start + self.clip_seconds)
            if clip_end - clip_start < 1e-6:
                continue
            bucket = int(clip_start / self.clip_seconds)
            if bucket in served:
                continue
            served.add(bucket)
            self._read_clip(store, clip_start, clip_end)
            clips += 1
        self._settle(store)
        self.timings.streaming += time.perf_counter() - start_wall
        return clips

    # ------------------------------------------------------------------
    # store adapters
    # ------------------------------------------------------------------
    def _settle(self, store) -> None:
        """End of a phase: the next one reads what this one's reads
        cached, and the cache admissions they queued are this phase's
        work, so they finish inside its wall time."""
        if isinstance(store, Session):
            store.engine.drain_admissions()

    def _read_raw(self, store, start: float, end: float):
        if isinstance(store, Session):
            result = store.read(
                self.name,
                start,
                end,
                codec="raw",
                resolution=self.index_resolution,
            )
            return result.segment
        if isinstance(store, LocalFSStore):
            segment = store.read(self.name, start, end, codec="raw")
            from repro.video.resample import resize_segment

            return resize_segment(segment.slice_time(start, end), *self.index_resolution)
        raise TypeError(f"unsupported store {type(store).__name__}")

    def _read_clip(self, store, start: float, end: float):
        if isinstance(store, Session):
            return store.read(
                self.name,
                start,
                end,
                codec="h264",
                resolution=self.clip_resolution,
            ).gops
        if isinstance(store, LocalFSStore):
            # The file system offers no transcoding: decode, rescale, and
            # re-encode in application code.
            from repro.video.codec.registry import codec_for
            from repro.video.resample import resize_segment

            segment = store.read(self.name, start, end, codec="raw")
            segment = resize_segment(
                segment.slice_time(start, end), *self.clip_resolution
            )
            return codec_for("h264").encode_segment(segment)
        raise TypeError(f"unsupported store {type(store).__name__}")
