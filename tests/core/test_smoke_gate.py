"""Phase-gate semantics for the bench-smoke trajectory: the gate must
fail closed on broken baselines and surface (not hide) brand-new phases."""

import pytest

from repro.core.smoke import (
    GATED_PHASES,
    phase_gate_skips,
    phase_regressions,
    wall_regression,
)


def entry(**phases):
    """A minimal trajectory entry with the given phase wall-clocks."""
    data = {"wall_s": 10.0}
    for name, wall in phases.items():
        data[name] = {"wall_s": wall}
    return data


class TestPhaseRegressions:
    def test_normal_ratio(self):
        previous = entry(sampled=2.0, ml_infer=1.0)
        current = entry(sampled=3.0, ml_infer=1.0)
        changes = phase_regressions(previous, current)
        assert changes["sampled"] == pytest.approx(0.5)
        assert changes["ml_infer"] == pytest.approx(0.0)

    def test_new_phase_is_skipped_not_gated(self):
        """First append after a phase lands: no baseline, no gate — the
        canonical case is ml_infer's first appearance."""
        previous = entry(sampled=2.0)
        current = entry(sampled=2.0, ml_infer=1.0)
        changes = phase_regressions(previous, current)
        assert "ml_infer" not in changes
        assert phase_gate_skips(previous, current) == ["ml_infer"]

    def test_no_previous_entry_gates_nothing(self):
        current = entry(sampled=2.0, ml_infer=1.0)
        assert phase_regressions(None, current) == {}
        assert set(phase_gate_skips(None, current)) == {"sampled", "ml_infer"}

    def test_zero_baseline_wall_fails_closed(self):
        previous = entry(sampled=0.0)
        current = entry(sampled=2.0)
        with pytest.raises(ValueError, match="baseline wall_s"):
            phase_regressions(previous, current)

    def test_missing_baseline_wall_fails_closed(self):
        previous = {"wall_s": 10.0, "sampled": {"note": "no wall recorded"}}
        current = entry(sampled=2.0)
        with pytest.raises(ValueError, match="baseline wall_s"):
            phase_regressions(previous, current)

    def test_vanished_phase_fails_closed(self):
        previous = entry(ml_infer=1.0)
        current = entry()
        with pytest.raises(ValueError, match="vanished"):
            phase_regressions(previous, current)

    def test_zero_current_wall_fails_closed(self):
        previous = entry(jit=1.0)
        current = entry(jit=0.0)
        with pytest.raises(ValueError, match="failing closed"):
            phase_regressions(previous, current)

    def test_ml_infer_is_gated(self):
        assert "ml_infer" in GATED_PHASES


class TestWallRegression:
    def test_missing_walls_are_uncomparable(self):
        assert wall_regression(None, {"wall_s": 1.0}) is None
        assert wall_regression({"wall_s": 0.0}, {"wall_s": 1.0}) is None

    def test_ratio(self):
        assert wall_regression({"wall_s": 2.0},
                               {"wall_s": 3.0}) == pytest.approx(0.5)


class TestPhaseJobs:
    """The same-process phases must run in this process, not in pool
    workers, whatever ``jobs`` the full-detail phase used."""

    @staticmethod
    def phases(monkeypatch, jobs):
        from repro.core import smoke
        from repro.sim.isa import blockjit, predecode

        calls = []

        def fake_run_batches(jobs, cache, sampling=None):
            calls.append((jobs, None if sampling is None else "sampled"))
            return {}, 0, 1.0

        monkeypatch.setattr(smoke, "_run_batches", fake_run_batches)
        monkeypatch.setattr(smoke, "_run_cluster_serve", lambda: {})
        monkeypatch.setattr(smoke, "_run_ml_infer", lambda: {})
        monkeypatch.setattr(blockjit, "_ENABLED", True)
        monkeypatch.setattr(predecode, "_ENABLED", True)
        report = smoke.run_smoke(jobs=jobs)
        assert "sampled" in report and "jit" in report
        return calls

    def test_pool_full_detail_then_in_process_phases(self, monkeypatch):
        assert self.phases(monkeypatch, jobs=2) == [
            (2, None),          # full detail, in pool workers
            (1, "sampled"),     # sampled warmup
            (1, "sampled"),     # sampled, timed
            (1, None),          # jit warmup: compiles in this process
            (1, None),          # jit, timed
        ]

    def test_in_process_full_detail_needs_no_jit_warmup(self, monkeypatch):
        assert self.phases(monkeypatch, jobs=1) == [
            (1, None), (1, "sampled"), (1, "sampled"), (1, None),
        ]
