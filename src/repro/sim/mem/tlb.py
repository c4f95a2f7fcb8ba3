"""TLB and page-walk-cache models.

Each core has split I/D TLBs.  A TLB miss triggers a page-table walk whose
cost is softened by an 8 KB page-walk cache (Table 4.1): walks whose
upper-level entries are cached pay a short latency, others pay full
memory-access latencies supplied by the hierarchy.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim.mem.cache import _CounterView
from repro.sim.statistics import StatGroup

PAGE_SHIFT = 12  # 4 KB pages on both simulated platforms
PAGE_SIZE = 1 << PAGE_SHIFT


class Tlb:
    """Fully-associative LRU TLB with a page-walk cache."""

    def __init__(
        self,
        name: str,
        entries: int = 64,
        walk_cache_entries: int = 128,  # 8 KB / 64B per cached PTE line
        cached_walk_cycles: int = 8,
        stats_parent: Optional[StatGroup] = None,
    ):
        if entries <= 0:
            raise ValueError("TLB must have at least one entry")
        self.name = name
        self.entries = entries
        self.walk_cache_entries = walk_cache_entries
        self.cached_walk_cycles = cached_walk_cycles

        self._tlb: Dict[int, None] = {}
        self._walk_cache: Dict[int, None] = {}

        # Hot-path counters are plain ints; the registered stats are
        # views over them (same treatment as the cache counters).
        self.accesses = 0
        self.misses = 0
        self.walks = 0

        stats = (stats_parent or StatGroup("orphan")).group(name)
        self.stat_accesses = stats.add(_CounterView(
            "accesses", self, "accesses", "translations requested"))
        self.stat_misses = stats.add(_CounterView(
            "misses", self, "misses", "TLB misses"))
        self.stat_walks = stats.add(_CounterView(
            "walks", self, "walks", "full page-table walks"))

        #: Optional :class:`repro.obs.TlbProfiler`.
        self.profiler = None

    def translate(self, addr: int) -> int:
        """Translate; returns extra cycles spent on TLB handling (0 on hit)."""
        page = addr >> PAGE_SHIFT
        tlb = self._tlb
        self.accesses += 1
        if page in tlb:
            del tlb[page]
            tlb[page] = None  # refresh LRU position
            return 0
        return self.miss(page)

    def miss(self, page: int) -> int:
        """Install ``page`` after a miss; returns the walk's cycles.

        The caller has counted the access.  The hierarchy's fused access
        path does the hit check inline and calls this on a miss.
        """
        self.misses += 1
        profiler = self.profiler
        if profiler is not None:
            profiler.on_miss(page)
        # Upper-level directory entry covers a 2 MB region (512 pages).
        directory = page >> 9
        walk_cache = self._walk_cache
        if directory in walk_cache:
            del walk_cache[directory]
            walk_cache[directory] = None
            penalty = self.cached_walk_cycles
        else:
            self.walks += 1
            if profiler is not None:
                profiler.on_walk(directory)
            if len(walk_cache) >= self.walk_cache_entries:
                del walk_cache[next(iter(walk_cache))]
            walk_cache[directory] = None
            # Full walk: a handful of dependent memory accesses; the
            # hierarchy charges these as roughly two L2-latency lookups.
            penalty = self.cached_walk_cycles * 6
        tlb = self._tlb
        if len(tlb) >= self.entries:
            del tlb[next(iter(tlb))]
        tlb[page] = None
        return penalty

    def flush(self) -> None:
        self._tlb.clear()
        self._walk_cache.clear()

    def state_dict(self) -> Dict:
        return {"tlb": list(self._tlb), "walk": list(self._walk_cache)}

    def load_state(self, state: Dict) -> None:
        self._tlb = {page: None for page in state["tlb"]}
        self._walk_cache = {entry: None for entry in state["walk"]}

    def resident(self) -> List[int]:
        return list(self._tlb)

    def __repr__(self) -> str:
        return "Tlb(%s: %d entries)" % (self.name, self.entries)
