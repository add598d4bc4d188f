"""In-memory LRU cache of decoded GOP prefixes.

Decoding a compressed GOP to frame ``k`` necessarily decodes frames
``0..k-1`` first (the look-back chain), so a cached decode to ``k`` can
serve *any* later request that stops at or before ``k`` by slicing.  The
cache therefore keeps one entry per GOP — the longest prefix decoded so
far — and repeated reads over the same region stop paying the look-back
decode the paper's cost model charges on every access.

Entries are keyed by catalog GOP id and must be invalidated whenever the
underlying page changes hands or disappears: cache eviction deletes the
page, compaction reassigns it, deferred compression rewrites its file,
a re-tile drops the old tiles, joint compression repoints it at a pair
and a delete drops the video.  No subsystem does that itself: the
:class:`~repro.core.catalog.Catalog` passes the ids of every GOP row it
deletes, moves or rewrites to one listener, which the engine sets to
:meth:`DecodeCache.invalidate_many`.

The cache is bounded by decoded bytes and evicts least-recently-used
entries; all operations are thread-safe (reader worker threads populate
it concurrently).

What goes in is frozen: :meth:`DecodeCache.put` and
:meth:`BatchDecodeCache.put` make the stored pixels read-only, so a
slice the cache hands out — and a raw answer that is a view of one
(``repro.core.reader``) — cannot be written through, and a caller that
tries gets a ``ValueError`` rather than corrupting later reads.
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


def _prefix(
    entry: tuple[int, VideoSegment] | None, stop: int
) -> VideoSegment | None:
    """Frames ``[0, stop)`` of a cached ``(stop, prefix)`` entry, or None
    when there is no entry or it is shorter."""
    if entry is None or entry[0] < stop:
        return None
    cached_stop, segment = entry
    return segment if cached_stop == stop else segment.slice_frames(0, stop)


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
        ``stop <= k`` (a read-only view: :meth:`put` froze it).
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
        return _prefix(entry, stop)

    def peek(self, gop_id: int, stop: int) -> VideoSegment | None:
        """The cached prefix ``[0, stop)`` of a GOP, or None.

        Unlike :meth:`get` this neither counts a hit/miss nor refreshes
        LRU order.  Batch planning tests coverage with it, and the
        ingest-side background decoders (search extraction, joint
        compression) take a GOP a read has just decoded from it; they
        decode the page file on a miss and never :meth:`put`, so the
        counters keep describing the read path alone and background work
        never evicts what reads cached.
        """
        if not self.enabled:
            return None
        with self._lock:
            entry = self._entries.get(gop_id)
        return _prefix(entry, stop)

    def put(self, gop_id: int, stop: int, segment: VideoSegment) -> None:
        """Remember ``segment`` as the decoded prefix ``[0, stop)``.

        A shorter prefix never replaces a longer one; oversized segments
        are ignored rather than flushing the whole cache.  What is stored
        is frozen (its pixels made read-only) first.
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
            segment.pixels.flags.writeable = False
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

    def peek(self, gop_id: int, stop: int) -> VideoSegment | None:
        """The prefix ``[0, stop)`` when the overlay or the base already
        covers it (counting nothing), else None."""
        with self._lock:
            entry = self._local.get(gop_id)
        segment = _prefix(entry, stop)
        if segment is None and self.base is not None:
            return self.base.peek(gop_id, stop)
        return segment

    def get(self, gop_id: int, stop: int) -> VideoSegment | None:
        if self.base is not None:
            segment = self.base.get(gop_id, stop)
            if segment is not None:
                return segment
        with self._lock:
            entry = self._local.get(gop_id)
        return _prefix(entry, stop)

    def put(self, gop_id: int, stop: int, segment: VideoSegment) -> None:
        with self._lock:
            entry = self._local.get(gop_id)
            if entry is None or entry[0] < stop:
                segment.pixels.flags.writeable = False
                self._local[gop_id] = (stop, segment)
        if self.base is not None:
            self.base.put(gop_id, stop, segment)
