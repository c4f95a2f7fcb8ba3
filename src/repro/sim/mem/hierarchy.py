"""Per-core memory hierarchy: L1I + L1D + I/D TLBs over L2 over DRAM.

Mirrors Fig 4.3 of the thesis: each core owns split L1 caches and a
private L2; both cores share the DRAM controller.  The hierarchy exposes
three timed operations to the CPU models:

* :meth:`CoreMemSystem.ifetch` — fetch one instruction cache line,
* :meth:`CoreMemSystem.data_access` — one load/store,
* :meth:`CoreMemSystem.data_run` — a run of loads or stores, exactly
  the ``data_access`` loop over it, in one call,

each updating cache state and statistics and returning latency in cycles
(``data_run``: the cycle count after the run).  All three go through one
access kernel that inlines the TLB, cache and prefetch steps over the
caches' flat per-set state (see :mod:`repro.sim.mem.cache`).  A fourth,
:meth:`warm_touch`, updates state without timing — used for the
functional fast-forward between the cold (1st) and warm (10th) requests
of the experiment protocol.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sim.mem.cache import Cache, _CounterView
from repro.sim.mem.dram import DramModel
from repro.sim.mem.prefetcher import make_prefetcher
from repro.sim.mem.tlb import PAGE_SHIFT, Tlb
from repro.sim.statistics import StatGroup


class MemoryHierarchyConfig:
    """Geometry and latency knobs (defaults = Table 4.1)."""

    def __init__(
        self,
        l1i_size: int = 32 * 1024,
        l1i_assoc: int = 8,
        l1d_size: int = 32 * 1024,
        l1d_assoc: int = 8,
        l2_size: int = 512 * 1024,
        l2_assoc: int = 4,
        line_size: int = 64,
        l1_latency: int = 2,
        l2_latency: int = 18,
        replacement: str = "lru",
        itlb_entries: int = 64,
        dtlb_entries: int = 64,
        prefetch_i_degree: int = 0,
        prefetch_d_degree: int = 2,
        prefetch_i_kind: str = "nextline",
        prefetch_d_kind: str = "nextline",
    ):
        self.l1i_size = l1i_size
        self.l1i_assoc = l1i_assoc
        self.l1d_size = l1d_size
        self.l1d_assoc = l1d_assoc
        self.l2_size = l2_size
        self.l2_assoc = l2_assoc
        self.line_size = line_size
        self.l1_latency = l1_latency
        self.l2_latency = l2_latency
        self.replacement = replacement
        self.itlb_entries = itlb_entries
        self.dtlb_entries = dtlb_entries
        self.prefetch_i_degree = prefetch_i_degree
        self.prefetch_d_degree = prefetch_d_degree
        self.prefetch_i_kind = prefetch_i_kind
        self.prefetch_d_kind = prefetch_d_kind

    def scaled(self, space_scale: int) -> "MemoryHierarchyConfig":
        """Shrink capacities by ``space_scale`` (see repro.core.scale).

        Latencies and associativities are preserved; only capacities shrink,
        keeping footprint-to-capacity ratios — and therefore miss behaviour —
        faithful to the full-size machine.
        """
        if space_scale <= 0:
            raise ValueError("space_scale must be positive")

        def shrink(size: int, floor: int) -> int:
            scaled_size = max(floor, size // space_scale)
            # Round down to a power-of-two multiple of assoc*line handled
            # by the caller; here just keep byte counts sane.
            return scaled_size

        return MemoryHierarchyConfig(
            l1i_size=shrink(self.l1i_size, self.l1i_assoc * self.line_size),
            l1i_assoc=self.l1i_assoc,
            l1d_size=shrink(self.l1d_size, self.l1d_assoc * self.line_size),
            l1d_assoc=self.l1d_assoc,
            l2_size=shrink(self.l2_size, self.l2_assoc * self.line_size * 2),
            l2_assoc=self.l2_assoc,
            line_size=self.line_size,
            l1_latency=self.l1_latency,
            l2_latency=self.l2_latency,
            replacement=self.replacement,
            itlb_entries=max(8, self.itlb_entries // max(1, space_scale // 4)),
            dtlb_entries=max(8, self.dtlb_entries // max(1, space_scale // 4)),
            prefetch_i_degree=self.prefetch_i_degree,
            prefetch_d_degree=self.prefetch_d_degree,
            prefetch_i_kind=self.prefetch_i_kind,
            prefetch_d_kind=self.prefetch_d_kind,
        )


class CoreMemSystem:
    """One core's view of the memory system."""

    def __init__(
        self,
        core_id: int,
        config: MemoryHierarchyConfig,
        dram: DramModel,
        stats_parent: Optional[StatGroup] = None,
    ):
        self.core_id = core_id
        self.config = config
        self.dram = dram
        stats = (stats_parent or StatGroup("orphan")).group("core%d" % core_id)
        self.stats = stats
        cfg = config
        self.l1i = Cache("l1i", cfg.l1i_size, cfg.l1i_assoc, cfg.line_size,
                         cfg.replacement, stats)
        self.l1d = Cache("l1d", cfg.l1d_size, cfg.l1d_assoc, cfg.line_size,
                         cfg.replacement, stats)
        self.l2 = Cache("l2", cfg.l2_size, cfg.l2_assoc, cfg.line_size,
                        cfg.replacement, stats)
        self.itlb = Tlb("itlb", cfg.itlb_entries, stats_parent=stats)
        self.dtlb = Tlb("dtlb", cfg.dtlb_entries, stats_parent=stats)
        self._line_shift = cfg.line_size.bit_length() - 1
        # Latencies as plain ints: the access paths below run once per
        # simulated memory instruction, so the config-attribute chain is
        # worth hoisting out of them.
        self._l1_latency = cfg.l1_latency
        self._l2_latency = cfg.l2_latency
        self._now = 0
        self._iprefetcher = make_prefetcher(cfg.prefetch_i_kind,
                                            cfg.prefetch_i_degree)
        self._dprefetcher = make_prefetcher(cfg.prefetch_d_kind,
                                            cfg.prefetch_d_degree)
        self.prefetch_fills = 0
        self.stat_prefetches = stats.add(_CounterView(
            "prefetchFills", self, "prefetch_fills",
            "lines installed by prefetch"))

    # -- timed access paths ---------------------------------------------------
    #
    # One kernel, :meth:`_access`, does a whole timed access in one call:
    # the TLB hit check (``Tlb.miss`` on a miss), the L1 hit or
    # allocation, the prefetch fills (one ``fill_lines`` per level), the
    # L2, then DRAM.  The cache steps are Cache.access_line's, inlined
    # over the flat per-set dicts; a level with a profiler attached goes
    # through access_line itself so the profiler sees every demand
    # access.  ``ifetch``/``data_access`` pick the I- or D-side units, and
    # ``data_run`` replays a whole memory run with the TLB-hit/L1-hit case
    # inline, handing every other access to the kernel.

    def ifetch(self, addr: int, now_cycle: int = 0) -> int:
        """Fetch the line containing ``addr``; returns latency in cycles."""
        return self._access(self.itlb, self.l1i, self._iprefetcher, addr,
                            addr, False, now_cycle)

    def data_access(self, addr: int, write: bool = False, now_cycle: int = 0,
                    pc: int = 0) -> int:
        """One load or store; returns latency in cycles.

        ``pc`` identifies the accessing instruction for PC-indexed
        prefetchers; timing is unaffected by it otherwise.
        """
        return self._access(self.dtlb, self.l1d, self._dprefetcher, pc,
                            addr, write, now_cycle)

    def data_run(self, pairs, write: bool, cycles: int) -> int:
        """A run of loads or stores; returns the cycle count after it.

        Exactly ``for pc, addr in pairs: cycles += 1; cycles +=
        self.data_access(addr, write, cycles, pc)``, in one call.
        """
        dtlb = self.dtlb
        l1d = self.l1d
        access = self._access
        prefetcher = self._dprefetcher
        if l1d.profiler is not None:
            for pc, addr in pairs:
                cycles += 1
                cycles += access(dtlb, l1d, prefetcher, pc, addr, write,
                                 cycles)
            return cycles
        entries = dtlb._tlb
        sets = l1d._sets
        mask = l1d._set_mask
        shift = self._line_shift
        promotes = l1d._promotes
        hit_cycles = 1 + self._l1_latency
        # The most recently translated page is always resident and most
        # recently used, so a repeat needs no TLB update.
        last_page = -1
        hits = 0
        for pc, addr in pairs:
            page = addr >> PAGE_SHIFT
            if page == last_page or page in entries:
                line = addr >> shift
                resident = sets[line & mask]
                dirty = resident.get(line)
                if dirty is not None:
                    if page != last_page:
                        del entries[page]
                        entries[page] = None
                        last_page = page
                    if promotes:
                        del resident[line]
                        resident[line] = dirty or write
                    elif write:
                        resident[line] = True
                    hits += 1
                    cycles += hit_cycles
                    continue
            cycles += 1
            cycles += access(dtlb, l1d, prefetcher, pc, addr, write, cycles)
            last_page = page
        dtlb.accesses += hits
        l1d.accesses += hits
        l1d.hits += hits
        return cycles

    def _access(self, tlb: Tlb, l1: Cache, prefetcher, key: int, addr: int,
                write: bool, now_cycle: int) -> int:
        """The timed access kernel; ``key`` feeds the prefetcher."""
        page = addr >> PAGE_SHIFT
        entries = tlb._tlb
        tlb.accesses += 1
        if page in entries:
            del entries[page]
            entries[page] = None
            latency = self._l1_latency
        else:
            latency = self._l1_latency + tlb.miss(page)
        line = addr >> self._line_shift

        if l1.profiler is None:
            resident = l1._sets[line & l1._set_mask]
            l1.accesses += 1
            dirty = resident.get(line)
            if dirty is not None:
                l1.hits += 1
                if l1._promotes:
                    del resident[line]
                    resident[line] = dirty or write
                elif write:
                    resident[line] = True
                return latency
            l1.misses += 1
            if len(resident) >= l1.assoc:
                draw = l1._draw
                if resident.pop(next(iter(resident)) if draw is None
                                else draw(line & l1._set_mask, resident)):
                    l1.writebacks += 1
            resident[line] = write
        elif l1.access_line(line, write):
            return latency

        l2 = self.l2
        fills = prefetcher.on_miss(key, line)
        if fills:
            l1.fill_lines(fills)
            l2.fill_lines(fills)
            self.prefetch_fills += len(fills)
        latency += self._l2_latency

        if l2.profiler is None:
            resident = l2._sets[line & l2._set_mask]
            l2.accesses += 1
            dirty = resident.get(line)
            if dirty is not None:
                l2.hits += 1
                if l2._promotes:
                    del resident[line]
                    resident[line] = dirty or write
                elif write:
                    resident[line] = True
                return latency
            l2.misses += 1
            if len(resident) >= l2.assoc:
                draw = l2._draw
                if resident.pop(next(iter(resident)) if draw is None
                                else draw(line & l2._set_mask, resident)):
                    l2.writebacks += 1
            resident[line] = write
        elif l2.access_line(line, write):
            return latency
        return latency + self.dram.access(addr, now_cycle)

    # -- functional (untimed) path ---------------------------------------------

    def warm_touch(self, addr: int, is_ifetch: bool, write: bool = False,
                   pc: int = 0) -> None:
        """Update cache/TLB state without producing a latency.

        Statistics still accumulate (prefetch fills excepted); the
        harness discards them with a stat reset before each measured
        region, matching the m5-ops protocol.
        """
        line = addr >> self._line_shift
        if is_ifetch:
            self.itlb.translate(addr)
            if not self.l1i.access_line(line):
                fills = self._iprefetcher.on_miss(addr, line)
                self.l1i.fill_lines(fills)
                self.l2.fill_lines(fills)
                self.l2.access_line(line)
        else:
            self.dtlb.translate(addr)
            if not self.l1d.access_line(line, write):
                fills = self._dprefetcher.on_miss(pc, line)
                self.l1d.fill_lines(fills)
                self.l2.fill_lines(fills)
                self.l2.access_line(line, write)

    # -- maintenance -------------------------------------------------------------

    def flush_all(self) -> None:
        """Cold microarchitectural state: empty caches, TLBs, prefetchers."""
        self.l1i.flush()
        self.l1d.flush()
        self.l2.flush()
        self.itlb.flush()
        self.dtlb.flush()
        self._iprefetcher.flush()
        self._dprefetcher.flush()

    def state_dict(self) -> Dict:
        return {
            "l1i": self.l1i.state_dict(),
            "l1d": self.l1d.state_dict(),
            "l2": self.l2.state_dict(),
            "itlb": self.itlb.state_dict(),
            "dtlb": self.dtlb.state_dict(),
            "iprefetcher": self._iprefetcher.state_dict(),
            "dprefetcher": self._dprefetcher.state_dict(),
        }

    def load_state(self, state: Dict) -> None:
        self.l1i.load_state(state["l1i"])
        self.l1d.load_state(state["l1d"])
        self.l2.load_state(state["l2"])
        self.itlb.load_state(state["itlb"])
        self.dtlb.load_state(state["dtlb"])
        # Checkpoints taken before prefetchers joined the state dict
        # restore them as cold rather than erroring out.
        if "iprefetcher" in state:
            self._iprefetcher.load_state(state["iprefetcher"])
        else:
            self._iprefetcher.flush()
        if "dprefetcher" in state:
            self._dprefetcher.load_state(state["dprefetcher"])
        else:
            self._dprefetcher.flush()

    def __repr__(self) -> str:
        return "CoreMemSystem(core%d)" % self.core_id
