"""The benchmark's workloads: what one pass runs and what it outputs.

Each workload is one call into the program's public API with ``jobs=1``
and the result cache off, so a pass always simulates.  The workload seed
is a benchmark argument; the program only sees the inputs built from it.

A pass's output becomes one digest per *operation* (one function
measurement, one experiment point, or one serve call) plus headline
numbers a reader can sanity-check.  ``perfbench/digests.json`` pins the
digests per seed; see ``run.py`` for how they are compared.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, List, NamedTuple

from summary import INVALID

#: Requests in one serve-cluster pass.  The autoscaler rescans its
#: history, so cost per request grows with the count: a different count
#: measures a different program.  Never change it without re-pinning.
SERVE_REQUESTS = 2000


class Outputs(NamedTuple):
    """What one pass produced, reduced to what the benchmark checks."""

    digests: List[str]      # one per operation, in a fixed order
    requests: int           # simulated requests completed
    headline: Dict[str, Any]


class Workload(NamedTuple):
    """One named workload."""

    run: Callable[[int], Any]           # seed -> program output
    outputs: Callable[[Any], Outputs]
    ops: int                            # operations per pass
    settle: int                         # untimed passes after the first


def digest(document: Any) -> str:
    """SHA-256 of a JSON document in canonical form."""
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- hotel-detail --------------------------------------------------------


def run_hotel_detail(seed: int):
    """Fig 4.5's batch: 6 hotel functions, cold + warm at full O3 detail."""
    from repro.core import BENCH, MeasurementSpec, measure

    return measure(MeasurementSpec(function="hotel", isa="riscv",
                                   db="cassandra", scale=BENCH, seed=seed),
                   jobs=1, cache=False)


def nonzero_stats(dump: Dict[str, Any]) -> Dict[str, Any]:
    """A stat dump without its zero counters.

    Which zero counters a dump lists depends on process history, not on
    the simulation: a harness that boots on the Atomic core instantiates
    it, and its dump then lists ``sys.cpu1.atomic.*`` as 0; a harness
    that restores a boot checkpoint cached earlier in the process never
    instantiates it, and those keys are absent.
    """
    return {key: value for key, value in dump.items() if value != 0}


def hotel_detail_outputs(measurements) -> Outputs:
    """One digest per function over its full cold/warm stat dumps and
    invocation records."""
    digests = []
    for measurement in measurements.values():
        document = measurement.as_dict(full=True)
        for phase in ("cold", "warm"):
            dump = document[phase].get("raw_dump")
            if dump is not None:
                document[phase]["raw_dump"] = nonzero_stats(dump)
        if measurement.cold.cycles <= 0 or measurement.warm.cycles <= 0:
            digests.append(INVALID + "zero cycles in " + measurement.function)
        else:
            digests.append(digest(document))
    values = list(measurements.values())
    return Outputs(
        digests=digests,
        requests=sum(len(m.records) for m in values),
        headline={
            "functions": len(values),
            "cold_cycles": sum(m.cold.cycles for m in values),
            "warm_cycles": sum(m.warm.cycles for m in values),
        })


# -- perf-cost -----------------------------------------------------------


def run_perf_cost(seed: int):
    """The catalog's perf-cost sweep: 5 memory sizes x riscv/x86."""
    from repro.experiments import get_experiment
    from repro.experiments import runner

    spec = get_experiment("perf-cost").with_base(seed=seed)
    return runner.run_experiment(spec, jobs=1, cache=False)


def perf_cost_outputs(result) -> Outputs:
    """One digest per experiment point: the point's row plus everything
    in the artifact but the rows, so a change to the artifact's header
    fails every point."""
    document = json.loads(result.to_json())
    rows = document.pop("rows")
    digests = []
    for row in rows:
        if not row.get("usd_per_1m"):
            digests.append(INVALID + "unpriced point %s/%s" % (
                row.get("memory_mb"), row.get("isa")))
        else:
            digests.append(digest([document, row]))
    by_point = {(row["memory_mb"], row["isa"]): row for row in rows}
    ratios = {}
    for (memory_mb, isa), row in sorted(by_point.items()):
        x86 = by_point.get((memory_mb, "x86"))
        if isa == "riscv" and x86 and x86["usd_per_1m"]:
            ratios["%dMB" % memory_mb] = round(
                row["usd_per_1m"] / x86["usd_per_1m"], 4)
    return Outputs(
        digests=digests,
        requests=sum(point.knobs["requests"]
                     for point in result.spec.expand()),
        headline={"points": len(rows), "riscv_over_x86_usd": ratios})


# -- serve-cluster -------------------------------------------------------


def run_serve_cluster(seed: int):
    """Poisson traffic through an autoscaled 3-node cluster."""
    from repro.serverless.loadgen import arrival_ticks
    from repro.serverless.platform import ClusterConfig, make_platform
    from repro.serverless.scaler import ScalingConfig
    from repro.workloads.catalog import get_function

    function = get_function("fibonacci-python")
    platform = make_platform(
        "riscv", cluster=ClusterConfig(nodes=3, placement="spread"),
        seed=seed)
    platform.registry.push(function.image("riscv"))
    platform.deploy(function.name, function.name, function.runtime_name,
                    function.handler,
                    scaling=ScalingConfig(target_concurrency=2,
                                          max_instances=8))
    arrivals = arrival_ticks("poisson", rps=100, requests=SERVE_REQUESTS,
                             seed=seed)
    return platform.serve(function.name, arrivals,
                          payload_factory=function.default_payload)


def serve_cluster_outputs(result) -> Outputs:
    """One digest over the scaling-event log and the full artifact."""
    admitted = len(result.admitted)
    if len(result.records) != SERVE_REQUESTS:
        check = INVALID + "%d of %d requests recorded" % (
            len(result.records), SERVE_REQUESTS)
    else:
        check = digest([result.event_log(), result.as_dict()])
    return Outputs(
        digests=[check],
        requests=admitted,
        headline={"served": admitted, "rejected": result.rejected,
                  "cold_starts": result.cold_starts,
                  "p99_sojourn_ticks": result.sojourn_percentile(0.99)})


WORKLOADS: Dict[str, Workload] = {
    "hotel-detail": Workload(run_hotel_detail, hotel_detail_outputs,
                             ops=6, settle=1),
    "perf-cost": Workload(run_perf_cost, perf_cost_outputs, ops=10,
                          settle=1),
    "serve-cluster": Workload(run_serve_cluster, serve_cluster_outputs,
                              ops=1, settle=0),
}
