"""Ablation benches: the design choices DESIGN.md calls out, plus the
thesis's §6 future-work directions (design-space exploration, more ISAs,
alternative databases, lukewarm execution).
"""

import pytest
from conftest import BENCH_SCALE, run_once, write_output

from repro.core.harness import ExperimentHarness
from repro.core.parallel import run_measurement_matrix
from repro.core.results import MeasurementTable
from repro.db import CassandraStore, MariaDbStore, RedisStore
from repro.experiments import ExperimentSpec
from repro.workloads.catalog import get_function
from repro.workloads.hotel import HotelSuite


def sweep(function, knob, values, **base):
    """One microarchitecture axis as a measure-kind experiment: returns
    the cycle table and ``{value: FunctionMeasurement}``."""
    spec = ExperimentSpec(
        name="ablation", kind="measure", axes=[(knob, values)],
        base=dict(function=function, time_scale=BENCH_SCALE.time,
                  space_scale=BENCH_SCALE.space, **base))
    measured = run_measurement_matrix(
        [point.measurement_spec() for point in spec.expand()])
    lines = ["DSE sweep: %s on riscv%s" % (function, "".join(
                 ", %s=%s" % item for item in base.items())),
             "%-18s  %12s  %12s" % (knob, "cold_cycles", "warm_cycles")]
    lines += ["%-18s  %12d  %12d" % (value, measurement.cold.cycles,
                                     measurement.warm.cycles)
              for value, measurement in zip(values, measured)]
    return "\n".join(lines), dict(zip(values, measured))


def test_ablation_instruction_prefetcher(benchmark):
    """Cold starts are front-end bound; a next-line I-prefetcher is the
    Schall-style remedy (lukewarm-serverless / Ignite motivation)."""
    table, points = run_once(benchmark, lambda: sweep(
        "fibonacci-python", "prefetch_i_degree", [0, 1, 2, 4, 8]))
    write_output("ablation_prefetcher.txt", table)
    # Monotone cold improvement with degree; degree 4 at least 1.5x over none.
    colds = [points[degree].cold.cycles for degree in sorted(points)]
    assert colds == sorted(colds, reverse=True)
    assert points[0].cold.cycles > 1.5 * points[4].cold.cycles
    # The warm path barely cares (already cache-resident).
    assert points[0].warm.cycles < 1.6 * points[8].warm.cycles


def test_ablation_replacement_policy(benchmark):
    """LRU vs FIFO vs random under the python cold-start footprint."""
    table, by_policy = run_once(benchmark, lambda: sweep(
        "fibonacci-python", "replacement", ["lru", "fifo", "random"]))
    write_output("ablation_replacement.txt", table)
    # A cold start is compulsory-miss dominated: policies land close.
    colds = [point.cold.cycles for point in by_policy.values()]
    assert max(colds) < 1.5 * min(colds)
    # Warm locality is where LRU should not lose badly.
    assert by_policy["lru"].warm.cycles <= 1.3 * min(
        point.warm.cycles for point in by_policy.values()
    )


def test_ablation_hotel_database_choice(benchmark):
    """The §3.3.3 decision replayed: Cassandra vs the rejected MariaDB and
    Redis alternatives, on the same geo workload."""

    def build():
        table = MeasurementTable(
            "Hotel geo on RISC-V by backing database (cycles)",
            ["cold_cycles", "warm_cycles", "riscv_friendly"],
        )
        results = {}
        for store_cls in (CassandraStore, MariaDbStore, RedisStore):
            suite = HotelSuite(store_cls())
            function = suite.functions[0]  # geo
            harness = ExperimentHarness(isa="riscv", scale=BENCH_SCALE)
            measurement = harness.measure_function(
                function, services=suite.services_for(function))
            results[suite.db.name] = measurement
            table.add_row(suite.db.name, measurement.cold.cycles,
                          measurement.warm.cycles,
                          "yes" if suite.db.riscv_friendly else "no")
        return results, table

    results, table = run_once(benchmark, lambda: build())
    write_output("ablation_databases.txt", table.render())
    # Every backend completes the protocol with the cold/warm cliff intact.
    for name, measurement in results.items():
        assert measurement.cold.cycles > 2 * measurement.warm.cycles, name
    # Redis (an in-memory cache pressed into primary duty) has the
    # lightest engine work.
    assert results["redis"].warm.cycles <= results["cassandra"].warm.cycles


def test_ablation_lukewarm(benchmark):
    """Lukewarm execution: warm software state on a thrashed core."""

    def build():
        harness = ExperimentHarness(isa="riscv", scale=BENCH_SCALE)
        return harness.measure_lukewarm(
            function=get_function("aes-go"),
            intruder=get_function("fibonacci-python"),
        )

    measurement = run_once(benchmark, build)
    lines = [
        "Lukewarm ablation: aes-go thrashed by fibonacci-python (RISC-V)",
        "cold:     %8d cycles" % measurement.cold.cycles,
        "warm:     %8d cycles" % measurement.warm.cycles,
        "lukewarm: %8d cycles (%.1fx warm)" % (
            measurement.lukewarm.cycles, measurement.lukewarm_slowdown),
    ]
    write_output("ablation_lukewarm.txt", "\n".join(lines))
    assert measurement.warm.cycles < measurement.lukewarm.cycles \
        < measurement.cold.cycles
    assert measurement.lukewarm.instructions == measurement.warm.instructions


def test_ablation_three_isa_comparison(benchmark):
    """The future-work ISA axis: RISC-V vs Arm vs x86 on one function."""

    def build():
        table = MeasurementTable(
            "fibonacci-go across ISAs (cycles / instructions)",
            ["cold_cycles", "warm_cycles", "cold_insts"],
        )
        results = {}
        for isa in ("riscv", "arm", "x86"):
            harness = ExperimentHarness(isa=isa, scale=BENCH_SCALE)
            measurement = harness.measure_function(get_function("fibonacci-go"))
            results[isa] = measurement
            table.add_row(isa, measurement.cold.cycles, measurement.warm.cycles,
                          measurement.cold.instructions)
        return results, table

    results, table = run_once(benchmark, lambda: build())
    write_output("ablation_three_isa.txt", table.render())
    # Arm sits between the lean RISC-V port and the heavyweight x86 stack.
    assert results["riscv"].cold.instructions \
        < results["arm"].cold.instructions \
        < results["x86"].cold.instructions
    assert results["riscv"].cold.cycles < results["arm"].cold.cycles \
        < results["x86"].cold.cycles


def test_ablation_kvm_setup_instability(benchmark):
    """gem5's KVM core vs the Atomic workaround (§3.4.1): quantify how
    often the KVM checkpoint path freezes across seeds."""

    def build():
        from repro.core.harness import clear_boot_checkpoint_cache

        outcomes = {"kvm_ok": 0, "fell_back": 0}
        for seed in range(12):
            clear_boot_checkpoint_cache()
            harness = ExperimentHarness(isa="riscv", scale=BENCH_SCALE,
                                        setup_cpu="kvm", seed=seed)
            harness.prepare()
            if harness.setup_cpu == "atomic":
                outcomes["fell_back"] += 1
            else:
                outcomes["kvm_ok"] += 1
        clear_boot_checkpoint_cache()
        return outcomes

    outcomes = run_once(benchmark, build)
    write_output("ablation_kvm.txt",
                 "KVM setup outcomes over 12 seeds: %s" % outcomes)
    # "A lot of times, the gem5 simulator was freezing when a magic M5
    # instruction was executed" — a material fraction must fail.
    assert outcomes["fell_back"] >= 2
    assert outcomes["kvm_ok"] >= 1  # but not always


def test_ablation_scale_invariance(benchmark):
    """The scaled-machine methodology's core promise: the paper's shapes
    are stable across scale choices."""

    def build():
        from repro.core.scale import SimScale

        shapes = {}
        for time_scale in (256, 1024):
            scale = SimScale(time=time_scale, space=16)
            ratios = {}
            for name in ("fibonacci-go", "fibonacci-python"):
                harness = ExperimentHarness(isa="riscv", scale=scale)
                measurement = harness.measure_function(get_function(name))
                ratios[name] = measurement.cold_warm_cycle_ratio
            shapes[time_scale] = ratios
        return shapes

    shapes = run_once(benchmark, build)
    write_output("ablation_scale.txt", repr(shapes))
    for time_scale, ratios in shapes.items():
        # Python's cold/warm cliff dwarfs Go's at every scale.
        assert ratios["fibonacci-python"] > 1.5 * ratios["fibonacci-go"], time_scale


def test_ablation_prefetcher_kinds(benchmark):
    """The third §6 axis: none vs next-line vs PC-stride data prefetch, on
    the strided database-scan workload where they differ (hotel geo,
    backed by its default Cassandra store)."""
    table, by_kind = run_once(benchmark, lambda: sweep(
        "hotel-geo-go", "prefetch_d_kind", ["none", "nextline", "stride"],
        prefetch_d_degree=4))
    write_output("ablation_prefetcher_kinds.txt", table)
    # Any prefetching beats none on the scan-heavy cold path.
    assert by_kind["nextline"].cold.cycles <= by_kind["none"].cold.cycles
    assert by_kind["stride"].cold.cycles <= by_kind["none"].cold.cycles


def test_ablation_branch_predictors(benchmark):
    """Branch-predictor axis on the branchy Python cold path."""
    table, by_kind = run_once(benchmark, lambda: sweep(
        "fibonacci-python", "branch_predictor",
        ["tournament", "gshare", "bimodal", "static-taken"]))
    write_output("ablation_bpred.txt", table)
    # Cold code is one-shot: predictors cannot train and BTB misses cost
    # squashes, so always-taken is competitive there (the front-end-state
    # insight behind the Ignite line of work).  Keep the cold gap bounded.
    for kind in ("tournament", "gshare", "bimodal"):
        assert by_kind[kind].cold.cycles <= \
            by_kind["static-taken"].cold.cycles * 1.25, kind
    # Warm requests re-execute trained branches: real predictors win.
    for kind in ("tournament", "gshare", "bimodal"):
        assert by_kind[kind].warm.cycles <= \
            by_kind["static-taken"].warm.cycles * 1.02, kind
    warm_mispredicts = {
        kind: measurement.warm.branch_mispredicts
        for kind, measurement in by_kind.items()
    }
    assert warm_mispredicts["tournament"] <= warm_mispredicts["static-taken"]
