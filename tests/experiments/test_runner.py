"""Runner + artifacts: determinism, row shapes, the results contract."""

import json

import pytest

from repro.core.rescache import ResultCache
from repro.experiments import (
    RESULT_SCHEMA,
    ExperimentSpec,
    instance_ticks,
    load_result,
    render_markdown,
    run_experiment,
)

MEASURE_SPEC = ExperimentSpec(
    name="mini-measure", kind="measure",
    base={"function": "fibonacci-go", "time_scale": 2048,
          "space_scale": 32},
    axes=[("memory_mb", [256, 512])])

SERVE_SPEC = ExperimentSpec(
    name="mini-serve", kind="serve",
    base={"function": "fibonacci-python", "profile": "burst", "rps": 100.0,
          "arrivals": 80},
    axes=[("target_concurrency", [1, 2])])


class TestByteIdentity:
    def test_measure_artifact_identical_cold_then_warm_cache(self, tmp_path):
        # Run 1 populates a fresh cache; run 2 is all cache hits.  The
        # dict->pickle->dict roundtrip must not perturb a single byte.
        cache = ResultCache(tmp_path / "rescache")
        first = run_experiment(MEASURE_SPEC, cache=cache)
        second = run_experiment(MEASURE_SPEC, cache=cache)
        assert cache.hits > 0
        assert first.to_json() == second.to_json()
        assert first.render_markdown() == second.render_markdown()

    def test_serve_artifact_identical_across_runs(self):
        first = run_experiment(SERVE_SPEC)
        second = run_experiment(SERVE_SPEC)
        assert first.to_json() == second.to_json()

    def test_written_files_roundtrip(self, tmp_path):
        result = run_experiment(SERVE_SPEC)
        json_path, md_path = result.write(tmp_path / "out")
        assert json_path.name == "mini-serve.json"
        assert md_path.read_text() == result.render_markdown()
        document = load_result(json_path)
        assert document["schema"] == RESULT_SCHEMA
        assert document["fingerprint"] == SERVE_SPEC.fingerprint()
        assert render_markdown(document) == result.render_markdown()

    def test_load_result_refuses_unknown_schema(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"schema": "someone.elses/v7"}))
        with pytest.raises(ValueError, match="unsupported result schema"):
            load_result(bogus)


class TestMeasureRows:
    def test_row_shape_and_cost_columns(self, tmp_path):
        result = run_experiment(MEASURE_SPEC,
                                cache=ResultCache(tmp_path / "c"))
        assert result.columns[:1] == ["memory_mb"]
        assert "p99_ms" in result.columns and "usd_per_1m" in result.columns
        assert len(result.rows) == 2
        for row in result.rows:
            assert row["cold_ms"] > row["warm_ms"] > 0
            assert row["p99_ms"] >= row["p50_ms"] > 0
            assert row["usd_per_1m"] > 0
            detail = row["detail"]
            assert detail["cold_cycles"] > detail["warm_cycles"]
            assert detail["warm_cost"]["total_usd"] > 0
        # Bigger grant => bigger CPU share => lower latency.
        assert result.rows[0]["warm_ms"] > result.rows[1]["warm_ms"]

    def test_progress_reports_every_point(self, tmp_path):
        lines = []
        run_experiment(MEASURE_SPEC, cache=ResultCache(tmp_path / "c"),
                       progress=lines.append)
        assert len(lines) == 2
        assert "memory_mb=256" in lines[0]


class TestMicroarchSweep:
    def test_pinned_cold_warm_cycles(self):
        # A two-axis microarchitecture sweep, pinned point by point: the
        # (524288, tournament) point is the canonical platform.
        spec = ExperimentSpec(
            name="bpred-l2", kind="measure",
            base={"function": "fibonacci-go", "time_scale": 2048,
                  "space_scale": 32},
            axes=[("l2_size", [131072, 524288]),
                  ("branch_predictor", ["tournament", "static-taken"])])
        rows = run_experiment(spec, cache=False).rows
        assert [(row["l2_size"], row["branch_predictor"],
                 row["detail"]["cold_cycles"], row["detail"]["warm_cycles"])
                for row in rows] == [
            (131072, "tournament", 4038, 1598),
            (131072, "static-taken", 3920, 1694),
            (524288, "tournament", 3897, 993),
            (524288, "static-taken", 3779, 1089),
        ]


class TestServeRows:
    def test_row_shape_and_tail_latency(self):
        result = run_experiment(SERVE_SPEC)
        assert result.columns[0] == "target_concurrency"
        assert "node_failures" not in result.columns  # single-host study
        for row in result.rows:
            assert row["served"] + row["rejected"] == 80
            assert row["p99_ms"] >= row["p50_ms"]
            assert row["instance_gb_s"] > 0
            assert row["usd_per_1m"] > 0

    def test_cluster_studies_grow_cluster_columns(self):
        spec = ExperimentSpec(
            name="mini-cluster", kind="serve",
            base={"function": "fibonacci-python", "rps": 100.0,
                  "arrivals": 60, "nodes": 2, "node_fail": 0.1},
            axes=[("placement", ["binpack", "spread"])])
        result = run_experiment(spec)
        assert result.columns[-2:] == ["node_failures", "cross_node"]
        assert all("node_failures" in row for row in result.rows)


class TestInstanceTicks:
    class FakeResult:
        def __init__(self, samples, finished_at):
            self.samples = samples
            self.finished_at = finished_at

    def test_integrates_stepwise(self):
        # 1 instance over [0,10), 3 over [10,30), 2 until tick 50.
        fake = self.FakeResult(
            samples=[(0, 0, 0, 1), (10, 0, 0, 3), (30, 0, 0, 2)],
            finished_at=50)
        assert instance_ticks(fake) == 1 * 10 + 3 * 20 + 2 * 20

    def test_empty_timeline(self):
        assert instance_ticks(self.FakeResult([], 100)) == 0
