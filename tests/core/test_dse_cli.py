"""Tests for design-space sweeps, the lukewarm protocol, and the CLI."""

import pytest

from repro.cli import main
from repro.core.harness import ExperimentHarness, clear_boot_checkpoint_cache
from repro.core.scale import SimScale
from repro.experiments import MICROARCH_KNOBS, ExperimentSpec, run_experiment
from repro.workloads.catalog import get_function

SCALE = SimScale(time=2048, space=32)


@pytest.fixture(autouse=True)
def _isolated_checkpoints():
    clear_boot_checkpoint_cache()
    yield
    clear_boot_checkpoint_cache()


def sweep(function, *axes):
    """Measure a microarchitecture sweep as a measure-kind experiment."""
    spec = ExperimentSpec(
        name="dse", kind="measure", axes=axes,
        base={"function": function, "time_scale": SCALE.time,
              "space_scale": SCALE.space})
    return run_experiment(spec).rows


def cold(row):
    return row["detail"]["cold_cycles"]


def dse(capsys, function, *axes):
    """Run the ``dse`` verb; returns its stdout lines."""
    argv = ["dse", function, "--time-scale", str(SCALE.time),
            "--space-scale", str(SCALE.space)]
    for axis in axes:
        argv += ["--axis", axis]
    assert main(argv) == 0
    return capsys.readouterr().out.splitlines()


class TestDesignSpace:
    def test_cartesian_product_size(self):
        rows = sweep("fibonacci-go", ("l2_size", [128 * 1024, 512 * 1024]),
                     ("rob_entries", [64, 192]))
        assert len(rows) == 4
        settings = {(row["l2_size"], row["rob_entries"]) for row in rows}
        assert len(settings) == 4

    def test_bigger_l2_never_slower_cold(self):
        small, big = sweep("fibonacci-python",
                           ("l2_size", [64 * 1024, 1024 * 1024]))
        assert cold(big) <= cold(small)

    def test_prefetcher_helps_cold_start(self):
        off, on = sweep("fibonacci-python", ("prefetch_i_degree", [0, 4]))
        assert cold(on) < cold(off)

    def test_sensitivity_identifies_the_live_knob(self, capsys):
        lines = dse(capsys, "fibonacci-python", "prefetch_i_degree=0,4",
                    "sq_entries=32,33")  # sq_entries is inert here
        ranking = lines[lines.index(
            "sensitivity (max/min cold-cycle swing per axis):") + 1:]
        assert ranking[0].split()[0] == "prefetch_i_degree"
        assert ranking[1].split() == ["sq_entries", "1.00x"]

    def test_best_and_worst(self, capsys):
        lines = dse(capsys, "aes-go", "l2_size=65536,524288")
        rows = [line.split() for line in lines[2:4]]
        best = min(rows, key=lambda row: int(row[1]))
        assert lines[-1] == "best point: {'l2_size': %s}" % best[0]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="btb_rainbows"):
            ExperimentSpec(name="dse", kind="measure",
                           axes=[("btb_rainbows", [1])])
        with pytest.raises(SystemExit):
            main(["dse", "aes-go", "--axis", "btb_rainbows=1"])

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ExperimentSpec(name="dse", kind="measure", axes=[("l2_size", [])])

    def test_sweep_without_axes_rejected(self):
        with pytest.raises(SystemExit):
            main(["dse", "aes-go"])

    def test_render_mentions_axes(self, capsys):
        lines = dse(capsys, "aes-go", "replacement=lru,fifo")
        assert lines[1].split() == ["replacement", "cold_cycles",
                                    "warm_cycles"]
        assert [line.split()[0] for line in lines[2:4]] == ["lru", "fifo"]

    def test_axes_cover_caches_pipeline_and_prefetchers(self):
        # The §6 wishlist: caches, branch predictors, prefetchers.
        for knob in ("l2_size", "mispredict_penalty", "branch_predictor",
                     "prefetch_i_degree", "prefetch_d_kind"):
            assert knob in MICROARCH_KNOBS


class TestLukewarm:
    def test_lukewarm_between_warm_and_cold(self):
        harness = ExperimentHarness(isa="riscv", scale=SimScale(time=512, space=16))
        measurement = harness.measure_lukewarm(
            function=get_function("aes-go"),
            intruder=get_function("fibonacci-python"),
        )
        assert measurement.warm.cycles < measurement.lukewarm.cycles
        assert measurement.lukewarm.cycles < measurement.cold.cycles
        assert measurement.lukewarm_slowdown > 1.2

    def test_lukewarm_instruction_count_matches_warm(self):
        # Lukewarm is a microarchitectural effect: same software work.
        harness = ExperimentHarness(isa="riscv", scale=SimScale(time=512, space=16))
        measurement = harness.measure_lukewarm(
            function=get_function("auth-go"),
            intruder=get_function("fibonacci-nodejs"),
        )
        assert measurement.lukewarm.instructions == measurement.warm.instructions


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fibonacci-go" in out
        assert "hotel-profile-go" in out

    def test_measure(self, capsys):
        assert main(["measure", "fibonacci-go", "--time-scale", "2048",
                     "--space-scale", "32"]) == 0
        out = capsys.readouterr().out
        assert "cold (request 1)" in out
        assert "cold/warm cycle ratio" in out

    def test_compare_two_isas(self, capsys):
        assert main(["compare", "aes-go", "--isas", "riscv,x86",
                     "--time-scale", "2048", "--space-scale", "32"]) == 0
        out = capsys.readouterr().out
        assert "riscv_cold_cyc" in out

    def test_sizes_all_arches(self, capsys):
        assert main(["sizes"]) == 0
        out = capsys.readouterr().out
        assert "n/a" not in out.split("\n")[1]  # fibonacci-go exists everywhere

    def test_sizes_single_arch(self, capsys):
        assert main(["sizes", "--arch", "riscv"]) == 0
        out = capsys.readouterr().out
        assert "132.62MB" in out

    def test_dse(self, capsys):
        assert main(["dse", "fibonacci-go", "--axis",
                     "prefetch_i_degree=0,4", "--time-scale", "2048",
                     "--space-scale", "32"]) == 0
        out = capsys.readouterr().out
        assert "sensitivity" in out
        assert "best point" in out

    def test_dse_bad_axis_spec(self):
        with pytest.raises(SystemExit):
            main(["dse", "fibonacci-go", "--axis", "l2_size"])

    def test_unknown_function_errors(self):
        with pytest.raises(KeyError):
            main(["measure", "no-such-function"])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
