"""Per-node buffer pool: an explicit memory tier over the simulated disks.

The paper's Figure 7 regime is IOPS-bound — every dereference pays a random
read — but real lake nodes have RAM, and caching layers are the dominant
lever for lake query latency (Weintraub, "Optimizing Data Lakes' Queries";
the data-lake survey lists tiered storage as a core lake function).  This
module supplies the missing tier:

* :class:`PageId` — identity of one on-disk page: ``(file, partition,
  page_kind, page_no)``.  Page kinds are ``"interior"`` / ``"leaf"`` for
  B-tree nodes and ``"heap"`` for base-file pages; the split is what lets
  :class:`CacheStats` report per-kind hit rates (B-tree interiors are tiny
  and hot; heap pages are large and often scanned once).
* :class:`BufferPool` — a byte-budgeted page cache with pluggable eviction:
  ``"lru"`` (classic stack) and ``"2q"`` (a segmented-LRU variant of the
  2Q policy: new pages enter a small probationary FIFO and must be
  re-referenced to earn a slot in the protected LRU, which is what makes
  one-shot scans unable to flush the hot set).
* :class:`CacheStats` — an aggregatable snapshot (hits, misses, evictions,
  resident bytes, per-kind hit rate).

Layering: this module is synchronous, time-free, and import-leaf — it knows
nothing about the simulator or about who owns the pool.  A pool *instance*
lives on each :class:`~repro.cluster.node.Node` (RAM is hardware), and the
time accounting for hits and misses happens in ``engine/access.py``, which
is the only layer allowed to charge virtual time.
"""

from __future__ import annotations

import zlib
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

from repro.errors import StorageError

__all__ = ["PageId", "page_checksum", "CacheStats", "BufferPool",
           "CACHE_POLICIES", "CACHE_HIT_TIME"]

#: Recognised eviction policies, in documentation order.
CACHE_POLICIES = ("lru", "2q")

#: RAM service time (simulated seconds) the engines charge per buffer-pool
#: hit — non-zero, so a fully cached dereference still yields.
CACHE_HIT_TIME = 25e-6

#: Fraction of the byte budget the 2Q policy reserves for its probationary
#: FIFO (the 2Q paper's ``Kin``); one-shot pages live and die here.
_2Q_PROBATION_FRACTION = 0.25


class PageId(NamedTuple):
    """Identity of one cacheable page.

    ``page_kind`` is ``"interior"`` / ``"leaf"`` (B-tree nodes) or
    ``"heap"`` (base-file pages); ``page_no`` is stable for the lifetime of
    the owning structure (B-tree nodes are numbered on first traversal,
    heap pages by byte offset).
    """

    file: str
    partition: int
    page_kind: str
    page_no: int


def page_checksum(page: PageId) -> int:
    """Expected CRC-32 of one page, derived from its identity.

    The simulator stores no page bytes, so a checksum over content would be
    vacuous; instead each page's *expected* checksum is a pure function of
    its identity, and corruption is modeled as the stored checksum failing
    to match it (the injector's per-page verdict decides which pages fail).
    The value is stable across processes — ``zlib.crc32``, not ``hash()``
    — so scrub digests and error messages are reproducible.
    """
    return zlib.crc32(
        f"{page.file}:{page.partition}:{page.page_kind}:{page.page_no}"
        .encode())


@dataclass
class CacheStats:
    """Aggregatable snapshot of one or more buffer pools."""

    capacity_bytes: int = 0
    resident_bytes: int = 0
    resident_pages: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    hits_by_kind: Counter = field(default_factory=Counter)
    misses_by_kind: Counter = field(default_factory=Counter)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Overall hit rate in [0, 1]; 0.0 with no lookups."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def hit_rate_for(self, kind: str) -> float:
        """Hit rate of one page kind (``interior`` / ``leaf`` / ``heap``)."""
        total = self.hits_by_kind[kind] + self.misses_by_kind[kind]
        return self.hits_by_kind[kind] / total if total else 0.0

    def merged(self, other: "CacheStats") -> "CacheStats":
        """This snapshot combined with another (cluster-level rollup)."""
        return CacheStats(
            capacity_bytes=self.capacity_bytes + other.capacity_bytes,
            resident_bytes=self.resident_bytes + other.resident_bytes,
            resident_pages=self.resident_pages + other.resident_pages,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            invalidations=self.invalidations + other.invalidations,
            hits_by_kind=self.hits_by_kind + other.hits_by_kind,
            misses_by_kind=self.misses_by_kind + other.misses_by_kind,
        )

    @classmethod
    def aggregate(cls, snapshots: Iterable["CacheStats"]) -> "CacheStats":
        total = cls()
        for snapshot in snapshots:
            total = total.merged(snapshot)
        return total

    def summary(self) -> dict:
        """Flat dict view for reports and benchmark tables."""
        out = {
            "capacity_bytes": self.capacity_bytes,
            "resident_bytes": self.resident_bytes,
            "resident_pages": self.resident_pages,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }
        for kind in ("interior", "leaf", "heap"):
            out[f"hit_rate_{kind}"] = self.hit_rate_for(kind)
        return out


# -- eviction policies -----------------------------------------------------
#
# A policy only orders pages; residency, byte accounting, and statistics
# stay in the pool.  Contract: every resident page is known to the policy;
# ``evict()`` removes and returns the victim; ``discard`` forgets a page
# removed for non-capacity reasons (invalidation).


class _LruPolicy:
    """Classic LRU: hits move to the tail, victims come from the head."""

    def __init__(self) -> None:
        self._order: OrderedDict[PageId, None] = OrderedDict()

    def admit(self, page: PageId) -> None:
        self._order[page] = None

    def touch(self, page: PageId) -> None:
        self._order.move_to_end(page)

    def evict(self) -> PageId:
        page, __ = self._order.popitem(last=False)
        return page

    def discard(self, page: PageId) -> None:
        self._order.pop(page, None)


class _TwoQPolicy:
    """Scan-resistant 2Q (segmented-LRU flavour).

    New pages enter a probationary FIFO capped at a quarter of the byte
    budget; a hit while on probation promotes the page to the protected
    LRU.  Victims come from probation whenever it is over its target (or
    the protected segment is empty), so a one-shot scan churns only the
    probationary quarter and the hot set survives in the protected LRU.
    """

    def __init__(self, capacity_bytes: int) -> None:
        self._probation_target = int(capacity_bytes
                                     * _2Q_PROBATION_FRACTION)
        self._probation: OrderedDict[PageId, int] = OrderedDict()
        self._protected: OrderedDict[PageId, int] = OrderedDict()
        self._probation_bytes = 0

    def admit(self, page: PageId, nbytes: int = 0) -> None:
        self._probation[page] = nbytes
        self._probation_bytes += nbytes

    def touch(self, page: PageId) -> None:
        if page in self._protected:
            self._protected.move_to_end(page)
            return
        nbytes = self._probation.pop(page)
        self._probation_bytes -= nbytes
        self._protected[page] = nbytes

    def evict(self) -> PageId:
        if self._probation and (not self._protected
                                or self._probation_bytes
                                > self._probation_target):
            page, nbytes = self._probation.popitem(last=False)
            self._probation_bytes -= nbytes
            return page
        page, __ = self._protected.popitem(last=False)
        return page

    def discard(self, page: PageId) -> None:
        if page in self._probation:
            self._probation_bytes -= self._probation.pop(page)
        else:
            self._protected.pop(page, None)


def _make_policy(policy: str, capacity_bytes: int):
    if policy == "lru":
        return _LruPolicy()
    if policy == "2q":
        return _TwoQPolicy(capacity_bytes)
    raise StorageError(
        f"unknown cache policy {policy!r}; expected one of {CACHE_POLICIES}")


class BufferPool:
    """A byte-budgeted page cache for one node.

    The pool is pure bookkeeping: ``lookup`` answers "is this page
    resident?" (and records the hit or miss), ``insert`` makes it resident,
    evicting under the configured policy until the byte budget holds.
    Charging virtual time for the answer is the engine's job.
    """

    def __init__(self, capacity_bytes: int, policy: str = "lru",
                 name: str = "") -> None:
        if capacity_bytes < 0:
            raise StorageError(
                f"cache capacity must be >= 0, got {capacity_bytes}")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.policy = policy
        self._policy = _make_policy(policy, capacity_bytes)
        self._pages: dict[PageId, int] = {}
        self.resident_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.hits_by_kind: Counter = Counter()
        self.misses_by_kind: Counter = Counter()

    @property
    def enabled(self) -> bool:
        return self.capacity_bytes > 0

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, page: PageId) -> bool:
        return page in self._pages

    # -- the hot path ----------------------------------------------------

    def lookup(self, page: PageId) -> bool:
        """True when ``page`` is resident; records the hit or miss."""
        if page in self._pages:
            self.hits += 1
            self.hits_by_kind[page.page_kind] += 1
            self._policy.touch(page)
            return True
        self.misses += 1
        self.misses_by_kind[page.page_kind] += 1
        return False

    def insert(self, page: PageId, nbytes: int) -> None:
        """Make ``page`` resident, evicting until the budget holds.

        A page larger than the whole budget is never cached; re-inserting a
        resident page (two simulated threads missing on it concurrently)
        just refreshes its recency.
        """
        if nbytes <= 0:
            raise StorageError(f"page bytes must be positive, got {nbytes}")
        if nbytes > self.capacity_bytes:
            return
        if page in self._pages:
            self._policy.touch(page)
            return
        while self.resident_bytes + nbytes > self.capacity_bytes:
            victim = self._policy.evict()
            self.resident_bytes -= self._pages.pop(victim)
            self.evictions += 1
        self._pages[page] = nbytes
        self.resident_bytes += nbytes
        if isinstance(self._policy, _TwoQPolicy):
            self._policy.admit(page, nbytes)
        else:
            self._policy.admit(page)

    # -- invalidation ----------------------------------------------------

    def invalidate_file(self, file_name: str,
                        partition: Optional[int] = None) -> int:
        """Drop every resident page of ``file_name`` (optionally one
        partition); returns how many pages were dropped.

        Used when a structure is rebuilt: its old pages no longer describe
        anything on disk, so serving hits from them would be lying.
        """
        stale = [page for page in self._pages
                 if page.file == file_name
                 and (partition is None or page.partition == partition)]
        for page in stale:
            self.resident_bytes -= self._pages.pop(page)
            self._policy.discard(page)
        self.invalidations += len(stale)
        return len(stale)

    def drop_all(self) -> int:
        """Empty the pool without counting evictions (node crash: the RAM
        is simply gone).  Statistics survive for post-mortem reporting."""
        dropped = len(self._pages)
        self._pages.clear()
        self.resident_bytes = 0
        self._policy = _make_policy(self.policy, self.capacity_bytes)
        return dropped

    # -- reporting -------------------------------------------------------

    def stats(self) -> CacheStats:
        """Point-in-time snapshot (counters are copied, not shared)."""
        return CacheStats(
            capacity_bytes=self.capacity_bytes,
            resident_bytes=self.resident_bytes,
            resident_pages=len(self._pages),
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            invalidations=self.invalidations,
            hits_by_kind=Counter(self.hits_by_kind),
            misses_by_kind=Counter(self.misses_by_kind),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BufferPool({self.name!r}, {self.policy}, "
                f"{self.resident_bytes}/{self.capacity_bytes}B, "
                f"{len(self._pages)} pages)")
