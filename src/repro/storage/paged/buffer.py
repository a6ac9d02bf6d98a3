"""The buffer pool: a bounded set of in-memory page frames.

All page traffic of the paged backend goes through one
:class:`BufferPool`.  The pool holds at most ``capacity`` frames, keyed
by ``(relation, page_id)``; a :meth:`~BufferPool.fetch` that finds its
frame resident is a **hit**, otherwise the pool calls its reader to pull
the page off disk (**miss**), evicting the least-recently-used unpinned
frame first when full (**eviction**), writing it back through the
writer if dirty (**write-back**).

Fetching pins the frame; callers must :meth:`~BufferPool.unpin` when
done (``dirty=True`` after mutating the page image).  A pinned frame is
never evicted, so the scan loops of the backend pin exactly one page at
a time — that, plus the capacity bound, is the whole out-of-core
argument: peak resident data is ``capacity × page_size`` bytes no
matter how large the extension.

:class:`PoolStats` counts hits, misses, evictions, and write-backs;
the backend snapshots it into the ``PrimitiveEvent`` telemetry stream
so ``repro profile`` and ``repro trace diff`` can attribute a
regression to pool thrash.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import StorageError
from repro.storage.paged.page import Page

__all__ = ["BufferPool", "PoolStats"]

#: (relation name, page id)
FrameKey = Tuple[str, int]


@dataclass
class PoolStats:
    """Cumulative buffer-pool counters (monotonic; never reset)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    write_backs: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of fetches served from memory (0.0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, int]:
        return {
            "pool_hits": self.hits,
            "pool_misses": self.misses,
            "pool_evictions": self.evictions,
            "pool_write_backs": self.write_backs,
        }


class _Frame:
    """One resident page plus its bookkeeping."""

    __slots__ = ("page", "pins", "dirty")

    def __init__(self, page: Page) -> None:
        self.page = page
        self.pins = 0
        self.dirty = False


class BufferPool:
    """Fixed-capacity page cache with LRU eviction and pin discipline."""

    def __init__(
        self,
        capacity: int,
        reader: Callable[[str, int], Page],
        writer: Callable[[str, Page], None],
    ) -> None:
        if capacity < 1:
            raise StorageError(
                f"buffer pool needs at least one frame, got {capacity}"
            )
        self.capacity = capacity
        self._reader = reader
        self._writer = writer
        #: LRU order: least recently used first, most recent last
        self._frames: "OrderedDict[FrameKey, _Frame]" = OrderedDict()
        self.stats = PoolStats()

    def __len__(self) -> int:
        return len(self._frames)

    def resident_keys(self) -> List[FrameKey]:
        """The resident frames in LRU order (tests and diagnostics)."""
        return list(self._frames)

    # ------------------------------------------------------------------
    # fetch / unpin
    # ------------------------------------------------------------------
    def fetch(self, relation: str, page_id: int) -> Page:
        """The page, resident and pinned; always pair with ``unpin``."""
        key = (relation, page_id)
        frame = self._frames.get(key)
        if frame is not None:
            self.stats.hits += 1
            self._frames.move_to_end(key)
        else:
            self.stats.misses += 1
            if len(self._frames) >= self.capacity:
                self._evict_one()
            frame = _Frame(self._reader(relation, page_id))
            self._frames[key] = frame
        frame.pins += 1
        return frame.page

    def unpin(self, relation: str, page_id: int, dirty: bool = False) -> None:
        """Release one pin; ``dirty=True`` marks the image as modified."""
        key = (relation, page_id)
        frame = self._frames.get(key)
        if frame is None or frame.pins <= 0:
            raise StorageError(
                f"unpin of {relation} page {page_id} without a "
                f"matching fetch"
            )
        frame.pins -= 1
        if dirty:
            frame.dirty = True

    def _evict_one(self) -> None:
        """Drop the least-recently-used unpinned frame (write back first)."""
        for key, frame in self._frames.items():
            if frame.pins == 0:
                if frame.dirty:
                    self._writer(key[0], frame.page)
                    self.stats.write_backs += 1
                del self._frames[key]
                self.stats.evictions += 1
                return
        raise StorageError(
            f"buffer pool exhausted: all {self.capacity} frames are "
            f"pinned; raise --pool-pages"
        )

    def resident(self, relation: str, page_id: int) -> Optional[Page]:
        """The page's in-memory image, or None when it is not resident.

        Neither pins nor counts a hit nor moves the frame in LRU order:
        for reading a file as the pool sees it (dirty frames included)
        without disturbing the pool.
        """
        frame = self._frames.get((relation, page_id))
        return None if frame is None else frame.page

    # ------------------------------------------------------------------
    # flush / invalidate
    # ------------------------------------------------------------------
    def flush_all(self) -> None:
        """Write every dirty frame back; frames stay resident."""
        for key, frame in self._frames.items():
            if frame.dirty:
                self._writer(key[0], frame.page)
                frame.dirty = False
                self.stats.write_backs += 1

    def invalidate(self, relation: str) -> None:
        """Forget every frame of *relation* without writing back.

        Used when the relation's file is dropped or swapped out from
        under the pool — the frames describe pages that no longer
        exist, so write-back would be wrong, not just wasteful.
        """
        stale = [key for key in self._frames if key[0] == relation]
        for key in stale:
            del self._frames[key]

    def __repr__(self) -> str:
        return (
            f"BufferPool({len(self._frames)}/{self.capacity} frames, "
            f"hits={self.stats.hits}, misses={self.stats.misses}, "
            f"evictions={self.stats.evictions})"
        )
