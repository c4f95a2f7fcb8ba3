"""The fused memory-access kernel against a level-by-level oracle.

``CoreMemSystem.data_access``/``ifetch``/``data_run`` inline the TLB,
cache and prefetch steps over the flat per-set state.  The oracle here
composes the single-level operations instead — ``Tlb.translate``, then
``Cache.access_line``, then the prefetcher's fills one line at a time,
then ``DramModel.access`` — and both sides must agree exactly: every
latency, every ``state_dict()``, every stat dump and every profiler
counter, under each replacement policy and prefetcher, with and without
profilers, across a checkpoint round trip in the middle of the stream.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.attribution import CacheProfiler, TlbProfiler
from repro.sim.mem.dram import DramModel
from repro.sim.mem.hierarchy import CoreMemSystem, MemoryHierarchyConfig
from repro.sim.statistics import StatGroup


def build(replacement, prefetch_kind, degree, profiled):
    """A small core (few sets, few TLB entries) so streams evict often."""
    config = MemoryHierarchyConfig(
        l1i_size=512, l1i_assoc=2, l1d_size=512, l1d_assoc=2,
        l2_size=2048, l2_assoc=4, replacement=replacement,
        itlb_entries=4, dtlb_entries=4,
        prefetch_i_degree=degree, prefetch_d_degree=degree,
        prefetch_i_kind=prefetch_kind, prefetch_d_kind=prefetch_kind,
    )
    root = StatGroup("system")
    mem = CoreMemSystem(0, config, DramModel(stats_parent=root), root)
    if profiled:
        for cache in (mem.l1i, mem.l1d, mem.l2):
            cache.profiler = CacheProfiler.for_cache(cache)
        for tlb in (mem.itlb, mem.dtlb):
            tlb.profiler = TlbProfiler(tlb.name)
    return mem, root


def oracle_access(mem, is_ifetch, addr, write, now_cycle, pc):
    """One timed access composed from the single-level operations."""
    tlb, l1 = (mem.itlb, mem.l1i) if is_ifetch else (mem.dtlb, mem.l1d)
    prefetcher = mem._iprefetcher if is_ifetch else mem._dprefetcher
    latency = mem.config.l1_latency + tlb.translate(addr)
    line = addr >> mem._line_shift
    if l1.access_line(line, write):
        return latency
    for fill in prefetcher.on_miss(addr if is_ifetch else pc, line):
        l1.fill_line(fill)
        mem.l2.fill_line(fill)
        mem.stat_prefetches.inc()
    latency += mem.config.l2_latency
    if mem.l2.access_line(line, write):
        return latency
    return latency + mem.dram.access(addr, now_cycle)


def oracle_warm(mem, is_ifetch, addr, write, pc):
    """warm_touch composed from the single-level operations."""
    tlb, l1 = (mem.itlb, mem.l1i) if is_ifetch else (mem.dtlb, mem.l1d)
    prefetcher = mem._iprefetcher if is_ifetch else mem._dprefetcher
    tlb.translate(addr)
    line = addr >> mem._line_shift
    if not l1.access_line(line, write):
        for fill in prefetcher.on_miss(addr if is_ifetch else pc, line):
            l1.fill_line(fill)
            mem.l2.fill_line(fill)
        mem.l2.access_line(line, write)


def snapshot(mem, root):
    profilers = {}
    for unit in (mem.l1i, mem.l1d, mem.l2, mem.itlb, mem.dtlb):
        if unit.profiler is not None:
            profilers[unit.name] = unit.profiler.snapshot()
    return (mem.state_dict(), mem.dram.state_dict(), root.dump(), profilers)


def round_trip(mem):
    """Checkpoint and restore in place; the restored state must equal
    the saved one, and a fresh core loaded from it must agree too."""
    state = copy.deepcopy(mem.state_dict())
    mem.load_state(copy.deepcopy(state))
    assert mem.state_dict() == state
    twin, _ = build(mem.config.replacement, mem.config.prefetch_d_kind,
                    mem.config.prefetch_d_degree, False)
    twin.load_state(copy.deepcopy(state))
    assert twin.state_dict() == state


# Addresses cluster in a few 2 MB regions so TLB hits, page walks, cache
# hits and evictions all happen within short streams.
addresses = st.builds(
    lambda region, offset: (region << 21) + offset,
    st.integers(0, 5), st.integers(0, 1 << 14))
pcs = st.integers(0, 7).map(lambda slot: 0x400000 + 4 * slot)
# Memory runs: scattered accesses, or strided streams like the boot's,
# which walk into the lines the prefetchers just filled.
runs = st.one_of(
    st.lists(st.tuples(pcs, addresses), max_size=12),
    st.builds(
        lambda start, stride, count, pc: [
            (pc, max(0, start + index * stride)) for index in range(count)],
        addresses, st.sampled_from([8, 64, 128, -64, 4096]),
        st.integers(1, 24), pcs),
)
operations = st.one_of(
    st.tuples(st.just("ifetch"), addresses),
    st.tuples(st.just("data"), addresses, st.booleans(), pcs),
    st.tuples(st.just("run"), runs, st.booleans()),
    st.tuples(st.just("warm"), addresses, st.booleans(), st.booleans(),
              pcs),
)


@settings(max_examples=150, deadline=None)
@given(
    replacement=st.sampled_from(["lru", "fifo", "random"]),
    prefetcher=st.sampled_from([("none", 0), ("nextline", 1),
                                ("nextline", 3), ("stride", 2)]),
    profiled=st.booleans(),
    stream=st.lists(operations, max_size=60),
    split=st.integers(0, 60),
)
def test_kernel_matches_the_level_by_level_oracle(replacement, prefetcher,
                                                  profiled, stream, split):
    kind, degree = prefetcher
    kernel, kernel_stats = build(replacement, kind, degree, profiled)
    oracle, oracle_stats = build(replacement, kind, degree, profiled)
    cycles = expected = 0
    for step, op in enumerate(stream):
        if step == split:
            round_trip(kernel)
            round_trip(oracle)
        if op[0] == "ifetch":
            cycles += kernel.ifetch(op[1], cycles)
            expected += oracle_access(oracle, True, op[1], False, expected, 0)
        elif op[0] == "data":
            _, addr, write, pc = op
            cycles += kernel.data_access(addr, write, cycles, pc)
            expected += oracle_access(oracle, False, addr, write, expected,
                                      pc)
        elif op[0] == "run":
            _, pairs, write = op
            cycles = kernel.data_run(pairs, write, cycles)
            for pc, addr in pairs:
                expected += 1
                expected += oracle_access(oracle, False, addr, write,
                                          expected, pc)
        else:
            _, addr, is_ifetch, write, pc = op
            write = write and not is_ifetch
            kernel.warm_touch(addr, is_ifetch, write, pc)
            oracle_warm(oracle, is_ifetch, addr, write, pc)
        assert cycles == expected
        assert snapshot(kernel, kernel_stats) == snapshot(oracle,
                                                          oracle_stats)


@settings(max_examples=60, deadline=None)
@given(
    replacement=st.sampled_from(["lru", "fifo", "random"]),
    pairs=runs,
    write=st.booleans(),
)
def test_data_run_is_its_per_access_loop(replacement, pairs, write):
    """data_run(pairs) is exactly the data_access loop it replaces."""
    run, run_stats = build(replacement, "nextline", 2, False)
    loop, loop_stats = build(replacement, "nextline", 2, False)
    cycles = run.data_run(pairs, write, 7)
    expected = 7
    for pc, addr in pairs:
        expected += 1
        expected += loop.data_access(addr, write, expected, pc)
    assert cycles == expected
    assert snapshot(run, run_stats) == snapshot(loop, loop_stats)


@pytest.mark.parametrize("seed", range(10))
def test_restore_reseeds_random_victims(seed):
    """A restored random-policy cache draws victims like a fresh cache
    loaded from the same checkpoint: restore reseeds every set's rng."""
    import random

    from repro.sim.mem.cache import Cache

    def make():
        return Cache("l2", 1024, 4, 64, "random", StatGroup("s"))

    stream = random.Random(seed)
    lines = [stream.randrange(256) for _ in range(200)]
    cache = make()
    for line in lines[:100]:  # evicts in every set, advancing its rng
        cache.access_line(line, write=line % 3 == 0)
    state = copy.deepcopy(cache.state_dict())
    cache.load_state(copy.deepcopy(state))
    fresh = make()
    fresh.load_state(state)
    for line in lines[100:]:
        assert (cache.access_line(line, write=line % 3 == 0)
                == fresh.access_line(line, write=line % 3 == 0))
    assert cache.state_dict() == fresh.state_dict()
