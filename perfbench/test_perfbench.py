"""Tests of the benchmark's own code (no simulation runs).

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
from summary import (  # noqa: E402
    INVALID,
    count_failures,
    median,
    quartiles,
    spread,
    valid_name,
    valid_unit,
)
from workloads import WORKLOADS, digest, hotel_detail_outputs  # noqa: E402


# -- self time -------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    tree = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],      # child of root
        ["a.x", 2.0, 3.0, 1, None],    # grandchild: not subtracted from root
        ["b", 5.0, 9.0, 0, None],
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once_and_clips():
    tree = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 5.0, 0, None],
        ["b", 3.0, 7.0, 0, None],      # overlaps a: union is 1..7
        ["c", 9.0, 12.0, 0, None],     # runs past the parent: clipped at 10
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_from_a_synthetic_pass():
    tree = [
        [spans.PASS, 0.0, 20.0, -1, None],
        ["core.execute_task", 0.0, 12.0, 0, 1],
        ["core.prepare", 0.0, 6.0, 1, 1],
        ["sim.atomic", 0.5, 5.5, 2, 1],
        ["sim.o3", 6.0, 10.0, 1, 1],
        ["sim.isa.assemble", 6.0, 7.0, 4, 1],
        ["db.op", 10.0, 11.0, 1, 1],
        ["db.op", 10.2, 10.4, 6, 1],   # nested store call: one op
        ["serverless.serve", 12.0, 19.0, 0, 2],
        ["serverless.scaler", 13.0, 14.0, 8, 2],
        ["workloads.handler", 15.0, 17.0, 8, 2],
        [spans.PASS, 30.0, 31.0, -1, None],   # another pass: ignored
        ["sim.o3", 30.0, 31.0, 11, None],
    ]
    counts = [["sim.o3_insts", 2000, 0], ["jit.compiled_calls", 3, 0],
              ["jit.interpreted_calls", 1, 0], ["sim.o3_insts", 7, 11]]
    got = spans.layer_metrics(tree, counts, 0)
    assert got["core.prepare_s"] == pytest.approx(1.0)
    assert got["core.boots"] == 1
    assert got["sim.atomic_s"] == pytest.approx(5.0)
    assert got["sim.o3_s"] == pytest.approx(3.0)
    assert got["sim.o3_ns_per_insn"] == pytest.approx(3.0e9 / 2000)
    assert got["sim.isa.assemble_calls"] == 1
    assert got["sim.isa.jit_call_ratio"] == pytest.approx(0.75)
    assert got["db.ops"] == 1
    assert got["db.busy_s"] == pytest.approx(1.0)
    assert got["serverless.serve_s"] == pytest.approx(7.0)
    assert got["serverless.router_self_s"] == pytest.approx(4.0)
    assert got["serverless.scaler_calls"] == 1
    assert got["workloads.handler_calls"] == 1
    assert got["trace.pass_s"] == pytest.approx(20.0)
    assert got["trace.unattributed_s"] == pytest.approx(1.0)
    assert set(got) == set(spans.UNITS)


def test_recorder_links_parents_and_operations():
    recorder = spans.Recorder()
    inner = recorder.wrap(lambda: recorder.count("n", 2), "db.op")
    outer = recorder.wrap(lambda: inner(), "core.execute_task")
    root = recorder.begin(spans.PASS)
    outer()
    outer()
    recorder.end(root)
    names = [(s[0], s[3], s[4]) for s in recorder.spans]
    assert names == [(spans.PASS, -1, None), ("core.execute_task", 0, 1),
                     ("db.op", 1, 1), ("core.execute_task", 0, 2),
                     ("db.op", 3, 2)]
    assert recorder.counts == [["n", 2, 0], ["n", 2, 0]]


def test_install_then_uninstall_restores_every_entry_point():
    from repro.core import harness
    from repro.db.cassandra import CassandraStore
    from repro.serverless.router import Router

    before = (harness.ExperimentHarness.prepare, harness.restore_checkpoint,
              CassandraStore.get, Router.deploy)
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert harness.ExperimentHarness.prepare is not before[0]
        assert CassandraStore.get is not before[2]
    finally:
        recorder.uninstall()
    after = (harness.ExperimentHarness.prepare, harness.restore_checkpoint,
             CassandraStore.get, Router.deploy)
    assert after == before


# -- output checks ---------------------------------------------------------


class _Stats:
    def __init__(self, cycles):
        self.cycles = cycles


class _Measurement:
    """The parts of a FunctionMeasurement the output check reads."""

    def __init__(self, function, cycles, dump):
        self.function = function
        self.cold = _Stats(cycles)
        self.warm = _Stats(cycles // 2)
        self.records = [{}] * 10
        self.dump = dump

    def as_dict(self, full=False):
        return {"function": self.function,
                "cold": {"raw_dump": dict(self.dump)},
                "warm": {"raw_dump": {}}}


def _batch(l2_misses):
    return {name: _Measurement(name, 1000, {"l2_misses": l2_misses})
            for name in ("hotel-geo-go", "hotel-profile-go")}


def test_a_corrupted_output_counts_as_failed():
    good = hotel_detail_outputs(_batch(17))
    batch = _batch(17)
    batch["hotel-profile-go"].dump["l2_misses"] = 18
    corrupted = hotel_detail_outputs(batch)
    assert corrupted.digests[0] == good.digests[0]
    assert count_failures(good.digests, corrupted.digests, 2) == 1
    passes = [{"digests": good.digests}, {"digests": corrupted.digests},
              {"error": "Traceback ..."}]
    # Without a pinned reference the first pass is the reference.
    assert run.check_passes(2, None, passes) == (6, 1 + 2)
    # A pinned reference fails the first pass too when it differs.
    assert run.check_passes(2, corrupted.digests, passes) == (6, 1 + 0 + 2)


def test_broken_invariants_and_wrong_shapes_fail():
    batch = _batch(1)
    batch["hotel-geo-go"].cold.cycles = 0
    digests = hotel_detail_outputs(batch).digests
    assert digests[0].startswith(INVALID)
    assert count_failures(None, digests, 2) == 1
    assert count_failures(None, None, 2) == 2
    assert count_failures(["a", "b"], ["a"], 2) == 2
    assert count_failures(["a", "b"], ["a", "b"], 2) == 0


def test_digest_is_canonical():
    assert digest({"b": 1, "a": [1, 2]}) == digest({"a": [1, 2], "b": 1})
    assert digest({"a": 1}) != digest({"a": 2})


def test_listed_and_absent_zero_counters_digest_alike():
    listed = _batch(5)
    listed["hotel-geo-go"].dump["sys.cpu1.atomic.committedInsts"] = 0
    assert (hotel_detail_outputs(listed).digests
            == hotel_detail_outputs(_batch(5)).digests)
    changed = _batch(5)
    changed["hotel-geo-go"].dump["sys.cpu1.atomic.committedInsts"] = 1
    assert (hotel_detail_outputs(changed).digests[0]
            != hotel_detail_outputs(_batch(5)).digests[0])


def test_pinned_digests_cover_every_workload_and_shape():
    pinned = json.loads((HERE / "digests.json").read_text())
    assert set(pinned) == set(WORKLOADS)
    for name, seeds in pinned.items():
        assert "0" in seeds
        for digests in seeds.values():
            assert len(digests) == WORKLOADS[name].ops
            assert not any(d.startswith(INVALID) for d in digests)


# -- names and order statistics ---------------------------------------------


def test_metric_names_and_units_are_legal():
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    for entry in benchmark["end_to_end"] + benchmark["per_layer"]:
        names.append(entry["name"])
        assert valid_unit(entry["unit"])
    assert all(valid_name(name) for name in names)
    assert len(names) == len(set(names))
    per_layer = {entry["name"] for entry in benchmark["per_layer"]}
    assert per_layer == set(run.traced_metric_names())
    # Every declared workload is runnable; hotel-detail is run by hand only.
    assert {w["name"] for w in benchmark["workloads"]} < set(WORKLOADS)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "x" * 65,
                                  "é"])
def test_illegal_names_are_rejected(name):
    assert not valid_name(name)


def test_median_and_quartiles_match_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    assert median(values) == 4.0
    assert median([1.0, 2.0]) == 1.5
    assert quartiles(values) == statistics.quantiles(values, n=4)
    assert quartiles([3.0]) == [3.0, 3.0, 3.0]
    q1, mid, q3 = quartiles(values)
    assert spread(values) == pytest.approx((q3 - q1) / mid)
    assert spread([2.0]) == 0.0
    with pytest.raises(ValueError):
        median([])
    with pytest.raises(ValueError):
        spread([0.0, 0.0])


def test_a_run_reports_the_slow_quartile_of_its_steady_passes():
    class Done:
        setup_s = 9.0
        result = {"peak_rss_mb": 100.0}

    seconds = [2.0, 1.0, 2.2, 1.2, 2.1, 2.4, 1.1]
    passes = [{"kind": "setup", "seconds": 9.0, "requests": 10},
              {"kind": "settle", "seconds": 5.0, "requests": 10}]
    passes += [{"kind": "steady", "seconds": s, "requests": 10}
               for s in seconds]
    got = run.untraced_metrics(Done(), passes)
    assert got["pass_s"]["value"] == statistics.quantiles(seconds, n=4)[2]
    rates = [10 / s for s in seconds]
    assert got["serve_rps"]["value"] == statistics.quantiles(rates, n=4)[0]
    assert got["setup_s"]["value"] == 9.0
