"""Branch-predictor variants (the §6 design-space axis)."""

import pytest

from repro.core.harness import clear_boot_checkpoint_cache
from repro.sim.cpu.bpred import (
    BimodalPredictor,
    GSharePredictor,
    PREDICTORS,
    StaticTakenPredictor,
    TournamentPredictor,
    make_predictor,
)
from repro.sim.isa import ir
from repro.sim.system import SimulatedSystem


@pytest.fixture(autouse=True)
def _fresh_checkpoints():
    clear_boot_checkpoint_cache()
    yield
    clear_boot_checkpoint_cache()


def accuracy(predictor, outcomes, pc=0x400000):
    correct = sum(
        1 for taken in outcomes if predictor.predict_and_update(pc, taken)
    )
    return correct / len(outcomes)


class TestPredictorVariants:
    def test_registry(self):
        assert set(PREDICTORS) == {"tournament", "gshare", "bimodal",
                                   "static-taken"}
        for kind in PREDICTORS:
            assert make_predictor(kind).kind == kind
        with pytest.raises(ValueError):
            make_predictor("perceptron")

    def test_static_taken_baseline(self):
        predictor = StaticTakenPredictor()
        assert accuracy(predictor, [True] * 100) == 1.0
        assert accuracy(predictor, [False] * 100) == 0.0

    def test_bimodal_learns_bias(self):
        predictor = BimodalPredictor()
        assert accuracy(predictor, [True] * 400) > 0.95
        # Alternating pattern defeats 2-bit counters.
        alternating = BimodalPredictor()
        assert accuracy(alternating, [True, False] * 200) < 0.6

    def test_gshare_learns_alternation(self):
        predictor = GSharePredictor()
        assert accuracy(predictor, [True, False] * 400) > 0.8

    def test_tournament_at_least_as_good_on_patterns(self):
        patterns = {
            "biased": [True] * 400,
            "alternating": [True, False] * 200,
            "period3": [True, True, False] * 150,
        }
        for name, outcomes in patterns.items():
            tournament = accuracy(TournamentPredictor(), outcomes)
            static = accuracy(StaticTakenPredictor(), outcomes)
            assert tournament >= static - 0.15, name
            assert tournament > 0.6, name

    def test_state_roundtrip_all_kinds(self):
        for kind in PREDICTORS:
            predictor = make_predictor(kind)
            for index in range(100):
                predictor.predict_and_update(0x1000 + index * 4, index % 3 == 0)
            clone = make_predictor(kind)
            clone.load_state(predictor.state_dict())
            assert clone.state_dict() == predictor.state_dict()


class TestPredictorInO3:
    def make_branchy_program(self):
        program = ir.Program("branchy", seed=6)
        block = ir.Block([
            ir.IROp(ir.OP_IALU, count=2),
            ir.IROp(ir.OP_BRANCH, count=1, taken_probability=0.85),
        ])
        program.add_routine(ir.Routine("main", ir.Loop(block, trips=3000)),
                            entry=True)
        return program

    def test_predictor_choice_changes_cycles(self):
        from repro.sim.cpu.o3 import O3Config

        program = self.make_branchy_program()
        cycles = {}
        for kind in ("tournament", "static-taken"):
            system = SimulatedSystem("s", "riscv",
                                     o3_config=O3Config(branch_predictor=kind))
            cycles[kind] = system.run(1, program, model="o3").cycles
        # A real predictor beats always-taken on an 85%-taken stream? No —
        # static-taken is right 85% here; the tournament should at least
        # match it after warm-up.
        assert cycles["tournament"] <= cycles["static-taken"] * 1.1
