"""In-memory LRU cache of decoded GOP prefixes, at each size they are read.

Decoding a compressed GOP to frame ``k`` necessarily decodes frames
``0..k-1`` first (the look-back chain), so a cached decode to ``k`` can
serve *any* later request that stops at or before ``k`` by slicing.  The
cache therefore keeps, per GOP and size, the longest prefix decoded so
far, and repeated reads over the same region stop paying the look-back
decode the paper's cost model charges on every access.

Entries are keyed by GOP id and size.  A GOP's *native* entry is its
decode at the fragment's own size: reads, batches and the background
decoders take it.  A *resized* entry, keyed by ``(GOP id, (width,
height))``, is an RGB whole-frame resize of a prefix of the GOP, kept
with the measured resample error of its first frame, so a warm read at
that size is a view of it, neither resized nor re-measured (paper §4:
cache regions in the format they are asked for).

Resized entries yield to decodes.  One is kept only in room the budget
has free, a decode that needs room evicts resized entries (least
recently used first) before any native one, and a hit on a resized
entry also refreshes its GOP's native entry, as the read it serves would
have.  So the native entries — and with them every decode, hit and miss
a read counts — are what they would be without resized entries.

Entries must be invalidated whenever the underlying page changes hands
or disappears: cache eviction deletes the page, compaction reassigns it,
deferred compression rewrites its file, a re-tile drops the old tiles,
joint compression repoints it at a pair and a delete drops the video.
No subsystem does that itself: the :class:`~repro.core.catalog.Catalog`
passes the ids of every GOP row it deletes, moves or rewrites to one
listener, which the engine sets to :meth:`DecodeCache.invalidate_many`;
it drops every entry of each GOP, at every size.

A read that holds its video's shared lock while it decodes cannot see
an invalidation of its own GOPs; a read stream, which pulls without it,
can.  So a stream reads the cache through a :class:`Snapshot` taken
when it planned: every invalidation starts a new epoch, and while a
snapshot is open each invalidated GOP remembers its epoch, so the
snapshot neither takes an entry of a GOP invalidated after it (a new
decode of a rewritten page) nor puts one (its old decode) under it.

The cache is bounded by the bytes of all its entries, native and
resized; all operations are thread-safe (reader worker threads populate
it concurrently).

What goes in is frozen: :meth:`DecodeCache.put`,
:meth:`DecodeCache.put_resized` and :meth:`BatchDecodeCache.put` make
the stored pixels read-only, so a slice the cache hands out — and a raw
answer that is a view of one (``repro.core.reader``) — cannot be written
through, and a caller that tries gets a ``ValueError`` rather than
corrupting later reads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

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


class Entry(NamedTuple):
    """A cached prefix: frames ``[0, stop)`` of a GOP at one size, and
    for a resized entry the measured resample error of frame 0."""

    stop: int
    segment: VideoSegment
    resample_mse: float = 0.0


def _prefix(entry: Entry | None, stop: int) -> VideoSegment | None:
    """Frames ``[0, stop)`` of a cached entry, or None when there is no
    entry or it is shorter."""
    if entry is None or entry.stop < stop:
        return None
    if entry.stop == stop:
        return entry.segment
    return entry.segment.slice_frames(0, stop)


class DecodeCache:
    """Bounded LRU of decoded GOP prefixes with prefix reuse."""

    #: A read's hit or miss here is a decode-cache hit or miss.
    counted = True

    def __init__(self, capacity_bytes: int = DEFAULT_DECODE_CACHE_BYTES):
        self.capacity_bytes = int(capacity_bytes)
        self._lock = threading.Lock()
        # gop_id -> native entry, least recently used first
        self._native: OrderedDict[int, Entry] = OrderedDict()
        # (gop_id, (width, height)) -> resized entry, likewise
        self._resized: OrderedDict[tuple, Entry] = OrderedDict()
        self._bytes = 0
        self._resized_bytes = 0
        self.stats = DecodeCacheStats()
        # Snapshots: one epoch per invalidate_many; open snapshots per
        # epoch; and, while any is open, each GOP invalidated since the
        # oldest of them -> the epoch of its last invalidation.
        self._epoch = 0
        self._snapshots: dict[int, int] = {}
        self._dropped: dict[int, int] = {}

    @property
    def enabled(self) -> bool:
        return self.capacity_bytes > 0

    @property
    def current_bytes(self) -> int:
        """Bytes held by every entry, native and resized."""
        return self._bytes

    @property
    def resized_bytes(self) -> int:
        """Bytes held by resized entries (part of :attr:`current_bytes`)."""
        return self._resized_bytes

    def __len__(self) -> int:
        return len(self._native) + len(self._resized)

    def __contains__(self, gop_id: int) -> bool:
        """Whether the GOP has an entry at any size."""
        with self._lock:
            return gop_id in self._native or any(
                key[0] == gop_id for key in self._resized
            )

    # ------------------------------------------------------------------
    def get(
        self, gop_id: int, stop: int, since: int | None = None
    ) -> VideoSegment | None:
        """The decoded prefix ``[0, stop)`` of a GOP, or None on miss.

        A cached decode to frame ``k`` serves any request with
        ``stop <= k`` (a read-only view: :meth:`put` froze it).  Every
        method taking ``since`` treats a GOP invalidated after that
        snapshot epoch (:meth:`snapshot`) as absent.
        """
        if not self.enabled:
            return None
        with self._lock:
            entry = self._native.get(gop_id)
            if entry is None or entry.stop < stop or self._stale(gop_id, since):
                self.stats.misses += 1
                return None
            self._native.move_to_end(gop_id)
            self.stats.hits += 1
        return _prefix(entry, stop)

    def get_resized(
        self,
        gop_id: int,
        stop: int,
        size: tuple[int, int],
        since: int | None = None,
    ) -> tuple[VideoSegment, float] | None:
        """Frames ``[0, stop)`` of the GOP resized to ``size`` and their
        first frame's resample error, or None.

        A hit counts as a decode-cache hit and refreshes this entry and
        the GOP's native one; a miss counts nothing, since the read then
        asks for the native prefix with :meth:`get`, which counts it.
        """
        if not self.enabled:
            return None
        key = (gop_id, size)
        with self._lock:
            entry = self._resized.get(key)
            if entry is None or entry.stop < stop or self._stale(gop_id, since):
                return None
            self._resized.move_to_end(key)
            if gop_id in self._native:
                self._native.move_to_end(gop_id)
            self.stats.hits += 1
        return _prefix(entry, stop), entry.resample_mse

    def peek(
        self, gop_id: int, stop: int, since: int | None = None
    ) -> VideoSegment | None:
        """The cached native prefix ``[0, stop)`` of a GOP, or None.

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
            if self._stale(gop_id, since):
                return None
            entry = self._native.get(gop_id)
        return _prefix(entry, stop)

    def take(self, gop_id: int) -> None:
        """Nothing: only a batch decodes ahead of its reads
        (:meth:`BatchDecodeCache.take`)."""
        return None

    def put(
        self,
        gop_id: int,
        stop: int,
        segment: VideoSegment,
        since: int | None = None,
    ) -> None:
        """Remember ``segment`` as the native decoded prefix ``[0, stop)``.

        A shorter prefix never replaces a longer one; oversized segments
        are ignored rather than flushing the whole cache.  What is stored
        is frozen (its pixels made read-only) first.  A decode made under
        snapshot epoch ``since`` is not stored once its GOP was
        invalidated after it, nor once no snapshot of that epoch is open
        (the record of what was invalidated since is gone).
        """
        self._store(self._native, gop_id, Entry(stop, segment), since)

    def put_resized(
        self,
        gop_id: int,
        stop: int,
        segment: VideoSegment,
        resample_mse: float,
        since: int | None = None,
    ) -> None:
        """Remember ``segment`` — the GOP's frames ``[0, stop)`` resized
        to its own size — with its first frame's resample error, under
        the rules of :meth:`put`, and only in room the budget has free:
        it evicts nothing."""
        key = (gop_id, (segment.width, segment.height))
        self._store(
            self._resized, key, Entry(stop, segment, resample_mse), since
        )

    def _store(
        self, entries: OrderedDict, key, entry: Entry, since: int | None
    ) -> None:
        if not self.enabled:
            return
        nbytes = entry.segment.nbytes
        if nbytes > self.capacity_bytes:
            return
        resized = entries is self._resized
        gop_id = key[0] if resized else key
        with self._lock:
            if since is not None and (
                since not in self._snapshots or self._stale(gop_id, since)
            ):
                return
            existing = entries.get(key)
            if existing is not None and existing.stop >= entry.stop:
                entries.move_to_end(key)
                return
            freed = 0 if existing is None else existing.segment.nbytes
            if resized and self._bytes - freed + nbytes > self.capacity_bytes:
                return
            if existing is not None:
                self._drop(entries, key)
            entry.segment.pixels.flags.writeable = False
            entries[key] = entry
            self._bytes += nbytes
            self._resized_bytes += nbytes if resized else 0
            while self._bytes > self.capacity_bytes:
                victims = self._resized or self._native
                self._drop(victims, next(iter(victims)))
                self.stats.evictions += 1

    def _drop(self, entries: OrderedDict, key) -> None:
        """Remove one entry and its bytes (the lock is held)."""
        nbytes = entries.pop(key).segment.nbytes
        self._bytes -= nbytes
        if entries is self._resized:
            self._resized_bytes -= nbytes

    # ------------------------------------------------------------------
    def invalidate(self, gop_id: int) -> None:
        """Drop a GOP's entries at every size (page evicted, reassigned,
        or rewritten)."""
        self.invalidate_many((gop_id,))

    def invalidate_many(self, gop_ids) -> None:
        """Atomically drop every entry of a batch of GOPs (one lock
        acquisition); each GOP that had any counts one invalidation.
        Starts a new snapshot epoch."""
        doomed = set(gop_ids)
        with self._lock:
            self._epoch += 1
            if self._snapshots:
                self._dropped.update(dict.fromkeys(doomed, self._epoch))
            dropped = set()
            for key in [k for k in self._resized if k[0] in doomed]:
                self._drop(self._resized, key)
                dropped.add(key[0])
            for gop_id in doomed & self._native.keys():
                self._drop(self._native, gop_id)
                dropped.add(gop_id)
            self.stats.invalidations += len(dropped)

    # ------------------------------------------------------------------
    def snapshot(self) -> "Snapshot":
        """The cache as it is now, for a read that decodes without its
        video's lock; :meth:`Snapshot.release` it when the read ends."""
        with self._lock:
            epoch = self._epoch
            self._snapshots[epoch] = self._snapshots.get(epoch, 0) + 1
        return Snapshot(self, epoch)

    def _release(self, epoch: int) -> None:
        with self._lock:
            left = self._snapshots.pop(epoch) - 1
            if left:
                self._snapshots[epoch] = left
            elif not self._snapshots:
                self._dropped.clear()
            elif epoch < (oldest := min(self._snapshots)):
                self._dropped = {
                    gop_id: dropped
                    for gop_id, dropped in self._dropped.items()
                    if dropped > oldest
                }

    def _stale(self, gop_id: int, since: int | None) -> bool:
        """Whether ``gop_id`` was invalidated after epoch ``since`` (the
        lock is held)."""
        return since is not None and self._dropped.get(gop_id, -1) > since

    def clear(self) -> None:
        with self._lock:
            self._native.clear()
            self._resized.clear()
            self._bytes = 0
            self._resized_bytes = 0


class Snapshot:
    """A :class:`DecodeCache` as a read planned at one epoch sees it.

    It answers the cache's read-path calls, passing its epoch: a GOP
    invalidated since is a miss and takes no put.  A read stream decodes
    through one from its plan to its end (``repro.core.engine``).
    """

    counted = True

    def __init__(self, cache: DecodeCache, epoch: int):
        self._cache = cache
        self.epoch = epoch
        self._released = False

    @property
    def enabled(self) -> bool:
        return self._cache.enabled

    def get(self, gop_id: int, stop: int) -> VideoSegment | None:
        return self._cache.get(gop_id, stop, self.epoch)

    def get_resized(
        self, gop_id: int, stop: int, size: tuple[int, int]
    ) -> tuple[VideoSegment, float] | None:
        return self._cache.get_resized(gop_id, stop, size, self.epoch)

    def peek(self, gop_id: int, stop: int) -> VideoSegment | None:
        return self._cache.peek(gop_id, stop, self.epoch)

    def take(self, gop_id: int) -> None:
        return None

    def put(self, gop_id: int, stop: int, segment: VideoSegment) -> None:
        if not self._released:
            self._cache.put(gop_id, stop, segment, self.epoch)

    def put_resized(
        self,
        gop_id: int,
        stop: int,
        segment: VideoSegment,
        resample_mse: float,
    ) -> None:
        if not self._released:
            self._cache.put_resized(
                gop_id, stop, segment, resample_mse, self.epoch
            )

    def release(self) -> None:
        """End the snapshot (a second release does nothing): later puts
        through it store nothing."""
        if not self._released:
            self._released = True
            self._cache._release(self.epoch)


class BatchDecodeCache:
    """Batch-local decoded-GOP store layered over the shared cache.

    ``Reader.execute_batch`` decodes each GOP needed by a batch exactly
    once, ahead of the batch's reads, and parks the result here
    (:meth:`put_ahead`).  The first read that asks for such a GOP misses
    and takes that decode as its own (:meth:`take`): it counts one miss
    and the frames decoded, as a read that decoded the GOP itself would;
    later reads hit.  The overlay is unbounded but lives only for one
    batch, so its high-water mark is the batch's unique decoded GOPs.
    When the store's :class:`DecodeCache` is enabled, gets consult it
    first and a GOP goes into it when a read takes or decodes it, so its
    hit/miss counters count what the batch's reads count, and later
    non-batch reads benefit.  When the store cache is disabled the
    overlay still guarantees single-decode semantics within the batch,
    and its hits and misses are not decode-cache ones (:attr:`counted`
    is False).  Resized entries live in the store cache alone: without
    one, a batch resizes what it reads and keeps nothing.
    """

    def __init__(self, base: DecodeCache | None):
        self.base = base if (base is not None and base.enabled) else None
        #: Whether a read's hit or miss here is a decode-cache one: only
        #: when the store has a decode cache.
        self.counted = self.base is not None
        self._lock = threading.Lock()
        self._local: dict[int, Entry] = {}
        #: GOP id -> ``(segment, codec timings)`` of a GOP decoded ahead
        #: of the batch's reads, until a read takes it.
        self._ahead: dict[int, tuple] = {}

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

    def put_ahead(self, gop_id: int, segment: VideoSegment, timings) -> None:
        """Park a GOP the batch decoded before its reads ran, with the
        decode's codec timings (None for a raw GOP): reads miss it until
        one takes it."""
        with self._lock:
            self._ahead[gop_id] = segment, timings

    def take(self, gop_id: int) -> tuple | None:
        """``(segment, timings)`` of a GOP decoded ahead, for the first
        read that misses it (then None); it is :meth:`put` now, as that
        read's own decode would be."""
        with self._lock:
            ahead = self._ahead.pop(gop_id, None)
        if ahead is not None:
            self.put(gop_id, ahead[0].num_frames, ahead[0])
        return ahead

    def get_resized(
        self, gop_id: int, stop: int, size: tuple[int, int]
    ) -> tuple[VideoSegment, float] | None:
        if self.base is None:
            return None
        return self.base.get_resized(gop_id, stop, size)

    def put(self, gop_id: int, stop: int, segment: VideoSegment) -> None:
        with self._lock:
            entry = self._local.get(gop_id)
            if entry is None or entry.stop < stop:
                segment.pixels.flags.writeable = False
                self._local[gop_id] = Entry(stop, segment)
        if self.base is not None:
            self.base.put(gop_id, stop, segment)

    def put_resized(
        self,
        gop_id: int,
        stop: int,
        segment: VideoSegment,
        resample_mse: float,
    ) -> None:
        if self.base is not None:
            self.base.put_resized(gop_id, stop, segment, resample_mse)
