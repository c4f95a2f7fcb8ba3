"""Set-associative cache model.

Tag-only (the simulator keeps data in the functional layer), write-back
write-allocate, with pluggable replacement.  Every access is counted in
the attached :class:`~repro.sim.statistics.StatGroup`, so the harness's
stat-reset/stat-dump protocol sees exactly the counters the thesis
reports: accesses, hits, misses, and writebacks.

State is flat: each set is one insertion-ordered ``dict`` mapping line
-> dirty bit, kept in the replacement policy's victim order (see
:mod:`repro.sim.mem.replacement`).  A hit is one dict lookup, an LRU
promotion one re-insert, and a deterministic eviction one
``next(iter(set))``.  :meth:`Cache.access_line` and :meth:`Cache.fill_line`
are the single-level operations; the per-core hierarchy
(:mod:`repro.sim.mem.hierarchy`) inlines the same steps on its timed
path.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.sim.mem.replacement import make_policy
from repro.sim.statistics import Stat, StatGroup


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


class _CounterView(Stat):
    """A gem5-protocol stat backed by a plain attribute on its owner.

    The access path increments ``owner.<attr>`` as a bare integer (no
    bound-method call per access); this view keeps the reset/dump
    protocol working by remembering the attribute's value at the last
    reset and reporting the delta.  Used by the cache, TLB, DRAM and
    prefetch counters.
    """

    def __init__(self, name: str, owner: object, attr: str, desc: str = ""):
        super().__init__(name, desc)
        self._owner = owner
        self._attr = attr
        self._base = 0

    def inc(self, amount: int = 1) -> None:
        setattr(self._owner, self._attr, getattr(self._owner, self._attr) + amount)

    def reset(self) -> None:
        self._base = getattr(self._owner, self._attr)

    def value(self) -> int:
        return getattr(self._owner, self._attr) - self._base

    def __repr__(self) -> str:
        return "_CounterView(%s=%s)" % (self.name, self.value())


def geometry_error(size_bytes: int, assoc: int, line_size: int) -> Optional[str]:
    """Why ``size_bytes``/``assoc``/``line_size`` is no valid cache, or
    ``None``.  :class:`Cache` raises on it; experiment specs check the
    caches their knobs derive with it before anything runs."""
    if not _is_pow2(line_size):
        return "line size must be a power of two, got %d" % line_size
    if size_bytes % (assoc * line_size) != 0:
        return ("size %d not divisible by assoc*line (%d*%d)"
                % (size_bytes, assoc, line_size))
    num_sets = size_bytes // (assoc * line_size)
    if not _is_pow2(num_sets):
        return "set count %d must be a power of two" % num_sets
    return None


class Cache:
    """One level of tag-only set-associative cache."""

    def __init__(
        self,
        name: str,
        size_bytes: int,
        assoc: int,
        line_size: int = 64,
        policy: str = "lru",
        stats_parent: Optional[StatGroup] = None,
        policy_kwargs: Optional[Dict] = None,
    ):
        error = geometry_error(size_bytes, assoc, line_size)
        if error is not None:
            raise ValueError("cache %s: %s" % (name, error))
        num_sets = size_bytes // (assoc * line_size)

        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_size = line_size
        self.num_sets = num_sets
        self._set_mask = num_sets - 1
        self._line_shift = line_size.bit_length() - 1
        self.policy_name = policy
        #: One policy object for every set (see repro.sim.mem.replacement);
        #: ``_promotes``/``_draw`` are its rules, hoisted for the access
        #: paths.  ``_draw`` is ``None`` when a full set evicts its first
        #: line.
        self.policy = make_policy(policy, **(policy_kwargs or {}))
        self._promotes = self.policy.promotes
        self._draw = self.policy.victim if self.policy.draws else None

        #: line -> dirty bit per set, in victim order.
        self._sets: List[Dict[int, bool]] = [{} for _ in range(num_sets)]

        # Hot-path counters are plain ints; the registered stats are
        # views over them so reset/dump still work (see _CounterView).
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

        #: Optional :class:`repro.obs.CacheProfiler`; when attached, the
        #: demand stream feeds its shadow miss classifier.
        self.profiler = None

        stats = (stats_parent or StatGroup("orphan")).group(name)
        self.stats = stats
        self.stat_accesses = stats.add(_CounterView(
            "accesses", self, "accesses", "total demand accesses"))
        self.stat_hits = stats.add(_CounterView(
            "hits", self, "hits", "demand hits"))
        self.stat_misses = stats.add(_CounterView(
            "misses", self, "misses", "demand misses"))
        self.stat_writebacks = stats.add(_CounterView(
            "writebacks", self, "writebacks", "dirty lines evicted"))
        stats.formula(
            "missRate",
            lambda: (self.stat_misses.value() / self.stat_accesses.value())
            if self.stat_accesses.value()
            else 0.0,
            "misses / accesses",
        )

    # -- core access path ---------------------------------------------------

    def line_of(self, addr: int) -> int:
        return addr >> self._line_shift

    def access_line(self, line: int, write: bool = False) -> bool:
        """Access one cache line; returns True on hit.

        On a miss the line is allocated (write-allocate) and a victim
        evicted if the set is full; a dirty victim counts a writeback.
        """
        resident = self._sets[line & self._set_mask]
        self.accesses += 1
        profiler = self.profiler
        dirty = resident.get(line)
        if dirty is not None:
            self.hits += 1
            if profiler is not None:
                profiler.on_hit(line)
            if self._promotes:
                del resident[line]
                resident[line] = dirty or write
            elif write:
                resident[line] = True
            return True
        self.misses += 1
        if profiler is not None:
            profiler.on_miss(line)
        if len(resident) >= self.assoc:
            draw = self._draw
            if resident.pop(next(iter(resident)) if draw is None
                            else draw(line & self._set_mask, resident)):
                self.writebacks += 1
        resident[line] = write
        return False

    def access(self, addr: int, write: bool = False) -> bool:
        """Byte-address convenience wrapper around :meth:`access_line`."""
        return self.access_line(self.line_of(addr), write)

    def fill_lines(self, lines: Iterable[int]) -> None:
        """Install lines, in order, without counting demand accesses
        (prefetch fills).  A line already resident is left where it is."""
        sets = self._sets
        mask = self._set_mask
        assoc = self.assoc
        draw = self._draw
        for line in lines:
            resident = sets[line & mask]
            if line in resident:
                continue
            if len(resident) >= assoc:
                if resident.pop(next(iter(resident)) if draw is None
                                else draw(line & mask, resident)):
                    self.writebacks += 1
            resident[line] = False

    def fill_line(self, line: int) -> None:
        """Install one line without counting a demand access."""
        self.fill_lines((line,))

    def contains_line(self, line: int) -> bool:
        return line in self._sets[line & self._set_mask]

    # -- maintenance ---------------------------------------------------------

    def flush(self) -> int:
        """Invalidate everything; returns the number of dirty writebacks."""
        writebacks = 0
        for resident in self._sets:
            writebacks += sum(resident.values())
            resident.clear()
        self.policy.reset()
        self.writebacks += writebacks
        return writebacks

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    # -- checkpoint support ---------------------------------------------------

    def state_dict(self) -> Dict:
        """Microarchitectural state for checkpointing (tags + dirty bits).

        ``sets`` lists each set's lines in victim order, ``dirty`` each
        set's dirty lines sorted.
        """
        return {
            "geometry": (self.size_bytes, self.assoc, self.line_size),
            "sets": [list(resident) for resident in self._sets],
            "dirty": [sorted(line for line, dirty in resident.items() if dirty)
                      for resident in self._sets],
        }

    def load_state(self, state: Dict) -> None:
        geometry = state.get("geometry")
        if geometry is not None and tuple(geometry) != (
            self.size_bytes, self.assoc, self.line_size
        ):
            raise ValueError(
                "checkpoint geometry %s does not match cache %s "
                "(%dB %d-way, %dB lines): checkpoints only restore onto "
                "the configuration they were taken from"
                % (tuple(geometry), self.name, self.size_bytes, self.assoc,
                   self.line_size)
            )
        for index, (tags, dirty) in enumerate(zip(state["sets"], state["dirty"])):
            dirty = set(dirty)
            self._sets[index] = {tag: tag in dirty for tag in tags}
        self.policy.reset()

    def __repr__(self) -> str:
        return "Cache(%s: %dB %d-way, %d sets, %s)" % (
            self.name, self.size_bytes, self.assoc, self.num_sets, self.policy_name,
        )
