"""Candidate selection for joint compression (paper section 5.1.3, Fig. 9).

Evaluating all O(n^2) GOP pairs is prohibitive, so VSS narrows the search
in stages:

1. cluster every fragment's colour histogram with BIRCH (cheap, and
   incrementally updatable as GOPs arrive);
2. within a cluster (smallest radius first), detect keypoint features and
   search for fragments sharing many *unambiguous* correspondences
   (Lowe-ratio-disambiguated, within distance d);
3. pairs with at least ``m`` such correspondences proceed to homography
   estimation and Algorithm 1 (which aborts on low recovered quality).

The prototype's constants are m = 20 and d = 400.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clustering import Birch
from repro.util import StageTimers
from repro.vision.features import describe_keypoints, detect_keypoints
from repro.vision.histogram import color_histogram
from repro.vision.matching import match_descriptors

#: Paper constants (section 5.1.3).
MIN_MATCHES = 20
MAX_FEATURE_DISTANCE = 400.0

#: Keypoint budget per representative frame (matches algorithm.py tuning).
MAX_KEYPOINTS = 800


@dataclass(frozen=True)
class CandidatePair:
    """Two GOP keys judged likely to overlap, with their match count."""

    key_a: object
    key_b: object
    matches: int


@dataclass
class _Entry:
    key: object
    frame: np.ndarray
    descriptors: np.ndarray | None = None


class JointCandidateSelector:
    """Incremental candidate search over representative GOP frames.

    Feed one representative (first) frame per GOP via :meth:`add`; read
    likely pairs with :meth:`candidates`.  Features are computed lazily and
    only for members of clusters under consideration, mirroring the
    paper's staging.
    """

    def __init__(
        self,
        min_matches: int = MIN_MATCHES,
        max_distance: float = MAX_FEATURE_DISTANCE,
        birch_threshold: float = 0.08,
        max_clusters: int | None = None,
    ):
        self.min_matches = min_matches
        self.max_distance = max_distance
        self.max_clusters = max_clusters
        self._birch = Birch(threshold=birch_threshold, branching=16)
        self._entries: dict[int, _Entry] = {}
        self._next_id = 0
        self.timers = StageTimers()

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def add(self, key: object, frame: np.ndarray) -> None:
        """Register a GOP's representative frame."""
        with self.timers.measure("histogram"):
            histogram = color_histogram(frame)
        member_id = self._next_id
        self._next_id += 1
        self._entries[member_id] = _Entry(key, frame)
        self._birch.insert(histogram, member_id)

    # ------------------------------------------------------------------
    def candidates(self) -> list[CandidatePair]:
        """Likely-overlapping pairs, best clusters first."""
        pairs: list[CandidatePair] = []
        seen: set[tuple[object, object]] = set()
        clusters = self._birch.clusters()
        if self.max_clusters is not None:
            clusters = clusters[: self.max_clusters]
        for cluster in clusters:
            if cluster.size < 2:
                continue
            members = [self._entries[mid] for mid in cluster.members]
            self._describe(members)
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    if a.key == b.key:
                        continue
                    pair_key = (a.key, b.key)
                    if pair_key in seen or (b.key, a.key) in seen:
                        continue
                    count = self._match_count(a, b)
                    if count >= self.min_matches:
                        seen.add(pair_key)
                        pairs.append(CandidatePair(a.key, b.key, count))
        pairs.sort(key=lambda p: -p.matches)
        return pairs

    def _describe(self, members: list[_Entry]) -> None:
        with self.timers.measure("feature_detection"):
            for entry in members:
                if entry.descriptors is not None:
                    continue
                keypoints = detect_keypoints(
                    entry.frame,
                    max_keypoints=MAX_KEYPOINTS,
                    quality=0.001,
                    min_distance=2,
                )
                entry.descriptors = describe_keypoints(entry.frame, keypoints)

    def _match_count(self, a: _Entry, b: _Entry) -> int:
        with self.timers.measure("feature_matching"):
            matches = match_descriptors(
                a.descriptors,
                b.descriptors,
                max_distance=self.max_distance,
            )
        return len(matches)


def random_pairs(
    keys: list[object], count: int, seed: int = 0
) -> list[tuple[object, object]]:
    """The Figure 11 random baseline: uniformly sampled key pairs."""
    rng = np.random.default_rng(seed)
    keys = list(keys)
    pairs = []
    for _ in range(count):
        i, j = rng.choice(len(keys), size=2, replace=False)
        pairs.append((keys[int(i)], keys[int(j)]))
    return pairs
