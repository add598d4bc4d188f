"""In-memory LRU cache of decoded GOP prefixes.

Decoding a compressed GOP to frame ``k`` necessarily decodes frames
``0..k-1`` first (the look-back chain), so a cached decode to ``k`` can
serve *any* later request that stops at or before ``k`` by slicing.  The
cache therefore keeps one entry per GOP — the longest prefix decoded so
far — and repeated reads over the same region stop paying the look-back
decode the paper's cost model charges on every access.

Entries are keyed by catalog GOP id and must be invalidated whenever the
underlying page changes hands or disappears: cache eviction deletes the
page, compaction reassigns it, and deferred compression rewrites its
file.  :class:`CacheManager`, :class:`Compactor`, and
:class:`DeferredCompressionManager` all hold a reference and call
:meth:`DecodeCache.invalidate` at those points.

The cache is bounded by decoded bytes and evicts least-recently-used
entries; all operations are thread-safe (reader worker threads populate
it concurrently).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.video.frame import VideoSegment

#: Default decoded-pixel budget: enough for a few seconds of scaled-down
#: video, small next to the store's on-disk budget.
DEFAULT_DECODE_CACHE_BYTES = 64 * 1024 * 1024


@dataclass
class DecodeCacheStats:
    """Counters exposed through ``engine.stats()``."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class DecodeCache:
    """Bounded LRU of decoded GOP prefixes with prefix reuse."""

    def __init__(self, capacity_bytes: int = DEFAULT_DECODE_CACHE_BYTES):
        self.capacity_bytes = int(capacity_bytes)
        self._lock = threading.Lock()
        # gop_id -> (stop_frame, decoded prefix [0, stop_frame))
        self._entries: OrderedDict[int, tuple[int, VideoSegment]] = (
            OrderedDict()
        )
        self._bytes = 0
        self.stats = DecodeCacheStats()

    @property
    def enabled(self) -> bool:
        return self.capacity_bytes > 0

    @property
    def current_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, gop_id: int) -> bool:
        with self._lock:
            return gop_id in self._entries

    # ------------------------------------------------------------------
    def get(self, gop_id: int, stop: int) -> VideoSegment | None:
        """The decoded prefix ``[0, stop)`` of a GOP, or None on miss.

        A cached decode to frame ``k`` serves any request with
        ``stop <= k`` (sliced view — callers never mutate cached pixels).
        """
        if not self.enabled:
            return None
        with self._lock:
            entry = self._entries.get(gop_id)
            if entry is None or entry[0] < stop:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(gop_id)
            self.stats.hits += 1
            cached_stop, segment = entry
        if cached_stop == stop:
            return segment
        return segment.slice_frames(0, stop)

    def peek(self, gop_id: int, stop: int) -> bool:
        """True when a prefix covering ``[0, stop)`` is cached.

        Unlike :meth:`get` this neither counts a hit/miss nor refreshes
        LRU order — it exists so batch planning can test coverage without
        skewing the store-wide counters.
        """
        if not self.enabled:
            return False
        with self._lock:
            entry = self._entries.get(gop_id)
            return entry is not None and entry[0] >= stop

    def put(self, gop_id: int, stop: int, segment: VideoSegment) -> None:
        """Remember ``segment`` as the decoded prefix ``[0, stop)``.

        A shorter prefix never replaces a longer one; oversized segments
        are ignored rather than flushing the whole cache.
        """
        if not self.enabled:
            return
        nbytes = segment.nbytes
        if nbytes > self.capacity_bytes:
            return
        with self._lock:
            existing = self._entries.get(gop_id)
            if existing is not None:
                if existing[0] >= stop:
                    self._entries.move_to_end(gop_id)
                    return
                self._bytes -= existing[1].nbytes
                del self._entries[gop_id]
            self._entries[gop_id] = (stop, segment)
            self._bytes += nbytes
            while self._bytes > self.capacity_bytes and self._entries:
                _, (_, evicted) = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self.stats.evictions += 1

    # ------------------------------------------------------------------
    def invalidate(self, gop_id: int) -> None:
        """Drop a GOP's entry (page evicted, reassigned, or rewritten)."""
        with self._lock:
            entry = self._entries.pop(gop_id, None)
            if entry is not None:
                self._bytes -= entry[1].nbytes
                self.stats.invalidations += 1

    def invalidate_many(self, gop_ids) -> None:
        """Atomically drop a batch of entries (one lock acquisition)."""
        with self._lock:
            for gop_id in gop_ids:
                entry = self._entries.pop(gop_id, None)
                if entry is not None:
                    self._bytes -= entry[1].nbytes
                    self.stats.invalidations += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0


class BatchDecodeCache:
    """Batch-local decoded-GOP store layered over the shared cache.

    ``Reader.execute_batch`` decodes each GOP needed by a batch exactly
    once and parks the result here; every read in the batch then hits.
    The overlay is unbounded but lives only for one batch, so its high
    -water mark is the batch's unique decoded GOPs.  When the store's
    :class:`DecodeCache` is enabled, puts are written through to it (so
    later non-batch reads benefit) and gets consult it first (so its
    hit/miss counters keep describing store-wide behaviour); when the
    store cache is disabled the overlay still guarantees single-decode
    semantics within the batch.
    """

    def __init__(self, base: DecodeCache | None):
        self.base = base if (base is not None and base.enabled) else None
        self._lock = threading.Lock()
        # gop_id -> (stop_frame, decoded prefix [0, stop_frame))
        self._local: dict[int, tuple[int, VideoSegment]] = {}

    @property
    def enabled(self) -> bool:
        return True

    def peek(self, gop_id: int, stop: int) -> bool:
        """True when the overlay or the base already covers ``[0, stop)``."""
        with self._lock:
            entry = self._local.get(gop_id)
        if entry is not None and entry[0] >= stop:
            return True
        return self.base is not None and self.base.peek(gop_id, stop)

    def get(self, gop_id: int, stop: int) -> VideoSegment | None:
        if self.base is not None:
            segment = self.base.get(gop_id, stop)
            if segment is not None:
                return segment
        with self._lock:
            entry = self._local.get(gop_id)
        if entry is None or entry[0] < stop:
            return None
        cached_stop, segment = entry
        if cached_stop == stop:
            return segment
        return segment.slice_frames(0, stop)

    def put(self, gop_id: int, stop: int, segment: VideoSegment) -> None:
        with self._lock:
            entry = self._local.get(gop_id)
            if entry is None or entry[0] < stop:
                self._local[gop_id] = (stop, segment)
        if self.base is not None:
            self.base.put(gop_id, stop, segment)
