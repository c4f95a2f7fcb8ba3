"""Design-space exploration: the thesis's future-work direction (§6).

"Another interesting direction ... is to perform a detailed design space
exploration with respect to various microarchitectural characteristics,
such as caches, branch predictors, and prefetchers."  The infrastructure
supports it directly: every such characteristic is a knob of a
measure-kind experiment, so each sweep below is one ``ExperimentSpec``
axis over L2 capacity, prefetchers, branch predictors or ROB size, and
shows which resources cold starts actually want.

    python examples/design_space.py
"""

from repro.core.parallel import run_measurement_matrix
from repro.experiments import ExperimentSpec

FUNCTION = "fibonacci-python"  # the worst cold starter


def sweep(knob, values, **base):
    """Measure FUNCTION at each value of one microarchitecture knob;
    yields ``(value, FunctionMeasurement)`` pairs."""
    spec = ExperimentSpec(
        name="design-space", kind="measure", axes=[(knob, values)],
        base=dict(function=FUNCTION, time_scale=512, space_scale=16, **base))
    tasks = [point.measurement_spec() for point in spec.expand()]
    return zip(values, run_measurement_matrix(tasks))


def sweep_l2() -> None:
    print("L2 capacity sweep (cold %s):" % FUNCTION)
    print("%-12s %12s %10s" % ("L2 size", "cold cycles", "L2 misses"))
    for l2_size, measurement in sweep(
            "l2_size", [kb * 1024 for kb in (128, 256, 512, 1024, 2048)]):
        print("%-12s %12d %10d" % ("%dKB" % (l2_size // 1024),
                                   measurement.cold.cycles,
                                   measurement.cold.l2_misses))
    print()


def sweep_prefetcher() -> None:
    print("Next-line I-prefetch degree sweep (cold %s):" % FUNCTION)
    print("%-12s %12s %10s" % ("degree", "cold cycles", "L1I misses"))
    for degree, measurement in sweep("prefetch_i_degree", [0, 1, 2, 4, 8]):
        print("%-12d %12d %10d" % (degree, measurement.cold.cycles,
                                   measurement.cold.l1i_misses))
    print("(cold starts are front-end bound: an instruction prefetcher is "
          "the Schall-style fix)")
    print()


def sweep_branch_predictor() -> None:
    print("Branch predictor sweep (cold %s):" % FUNCTION)
    print("%-14s %12s %12s" % ("predictor", "cold cycles", "mispredicts"))
    for kind, measurement in sweep(
            "branch_predictor",
            ["tournament", "gshare", "bimodal", "static-taken"]):
        print("%-14s %12d %12d" % (kind, measurement.cold.cycles,
                                   measurement.cold.branch_mispredicts))
    print()


def sweep_prefetcher_kind() -> None:
    print("Data-prefetcher kind sweep (cold %s):" % FUNCTION)
    print("%-10s %12s %10s" % ("kind", "cold cycles", "L1D misses"))
    for kind, measurement in sweep("prefetch_d_kind",
                                   ["none", "nextline", "stride"],
                                   prefetch_d_degree=4):
        print("%-10s %12d %10d" % (kind, measurement.cold.cycles,
                                   measurement.cold.l1d_misses))
    print()


def sweep_rob() -> None:
    print("ROB size sweep (cold %s):" % FUNCTION)
    print("%-12s %12s %12s" % ("ROB", "cold cycles", "warm cycles"))
    for rob, measurement in sweep("rob_entries", [32, 64, 128, 192, 384]):
        print("%-12d %12d %12d" % (rob, measurement.cold.cycles,
                                   measurement.warm.cycles))
    print()


if __name__ == "__main__":
    sweep_l2()
    sweep_prefetcher()
    sweep_branch_predictor()
    sweep_prefetcher_kind()
    sweep_rob()
