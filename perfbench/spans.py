"""Traced runs: spans around each layer's public entry points.

:class:`Recorder` patches the program's public calls from outside (the
program itself is not edited) so every call records a span
``[name, start, end, parent, op]``: host ``perf_counter`` seconds, the
index of the enclosing span (-1 at the root) and the operation id (one
function measurement, experiment point or serve call).  Counters are
recorded at the same boundaries.  Everything stays in memory until the
worker writes it out at exit; :func:`layer_metrics` derives the
per-layer numbers from that output alone.

A layer's time is its spans' *self* time: duration minus the part of
the interval that child spans cover (:func:`self_times`), so nested
layers are never counted twice.  ``serverless.serve_s`` is the one
inclusive figure: the whole serve call, whose self part is
``serverless.router_self_s``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: The root span the benchmark opens around each pass.
PASS = "bench.pass"

#: Span names that start a new operation.
OP_SPANS = ("core.execute_task", "serverless.serve")


def _sim_run_name(args, kwargs) -> str:
    """``SimulatedSystem.run(core_id, program, model=None, ...)``."""
    system, core_id = args[0], args[1]
    model = kwargs.get("model", args[3] if len(args) > 3 else None)
    if model is None:
        model = system.active_model(core_id)
    return "sim.o3" if model == "o3" else "sim.atomic"


def _count_measurement(recorder: "Recorder", measurement) -> None:
    """Counters from one cold/warm measurement's stat dumps."""
    for stats in (measurement.cold, measurement.warm):
        recorder.count("sim.o3_insts", stats.instructions)
        recorder.count("sim.mem.l1i_misses", stats.l1i_misses)
        recorder.count("sim.mem.l1d_misses", stats.l1d_misses)
        recorder.count("sim.mem.l2_misses", stats.l2_misses)


def _count_points(recorder: "Recorder", result) -> None:
    recorder.count("experiments.points", len(result.rows))


#: (module, owner attribute or None for the module, attribute, span name
#: or namer, counter hook).  Module-level functions are patched where
#: their callers look them up.
TARGETS: Tuple[Tuple[str, Optional[str], str, Any, Any], ...] = (
    ("repro.core.parallel", None, "execute_task", "core.execute_task", None),
    ("repro.core.harness", "ExperimentHarness", "prepare", "core.prepare",
     None),
    ("repro.core.harness", "ExperimentHarness", "measure_function",
     "core.measure_function", _count_measurement),
    ("repro.core.harness", None, "restore_checkpoint", "core.restore", None),
    ("repro.sim.system", "SimulatedSystem", "run", _sim_run_name, None),
    ("repro.sim.system", "SimulatedSystem", "warm", "sim.warm", None),
    ("repro.sim.isa.base", "ISA", "assemble", "sim.isa.assemble", None),
    ("repro.workloads.hotel", "HotelSuite", "__init__", "workloads.dataset",
     None),
    ("repro.workloads.function", "VSwarmFunction", "invocation_program",
     "workloads.program", None),
    ("repro.serverless.faas", "FaasPlatform", "invoke", "serverless.invoke",
     None),
    ("repro.serverless.router", "Router", "serve", "serverless.serve", None),
    ("repro.serverless.scaler", "ConcurrencyAutoscaler", "observe",
     "serverless.scaler", None),
    ("repro.serverless.scaler", "ConcurrencyAutoscaler", "desired",
     "serverless.scaler", None),
    ("repro.serverless.engine", "ContainerEngine", "create",
     "serverless.create", None),
    ("repro.serverless.engine", "ContainerEngine", "start",
     "serverless.start", None),
    ("repro.experiments.runner", None, "run_experiment", "experiments.run",
     _count_points),
    ("repro.experiments.runner", None, "run_measurement_matrix",
     "experiments.matrix", None),
)

#: Datastore methods traced as ``db.op`` on every store class.
DB_METHODS = ("get", "put", "delete", "scan", "query")

#: Platforms whose ``deploy`` gets the handler wrapped as
#: ``workloads.handler``.  ``ClusterPlatform`` and ``SingleHostPlatform``
#: deploy through ``Router.deploy``, so wrapping there covers them once.
DEPLOY_TARGETS = (("repro.serverless.faas", "FaasPlatform"),
                  ("repro.serverless.router", "Router"))


class Recorder:
    """In-memory spans and counters, plus the patches that feed them."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: List[list] = []   # [name, value, root span index]
        self._stack: List[int] = []
        self._next_op = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def begin(self, name: str) -> int:
        """Open a span; returns its index."""
        spans = self.spans
        stack = self._stack
        index = len(spans)
        parent = stack[-1] if stack else -1
        if name in OP_SPANS:
            self._next_op += 1
            op = self._next_op
        else:
            op = spans[parent][4] if parent >= 0 else None
        spans.append([name, time.perf_counter(), 0.0, parent, op])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the innermost span, which must be ``index``."""
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        assert popped == index, "spans closed out of order"

    def count(self, name: str, value: float) -> None:
        """Add to a counter of the current pass."""
        root = self._stack[0] if self._stack else -1
        self.counts.append([name, value, root])

    def wrap(self, fn: Callable, name, hook=None) -> Callable:
        """``fn`` recording a span named ``name`` (or ``name(args,
        kwargs)``) per call; ``hook(recorder, result)`` adds counters."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = recorder.begin(name if isinstance(name, str)
                                   else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.end(index)
            if hook is not None:
                hook(recorder, result)
            return result

        return traced

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Patch every traced entry point (idempotent per install)."""
        if self._patches:
            return
        for module_name, owner_name, attribute, name, hook in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module,
                                                              owner_name)
            self._patch(owner, attribute,
                        self.wrap(getattr(owner, attribute), name, hook))
        for owner in _datastore_classes():
            for attribute in DB_METHODS:
                if attribute in owner.__dict__:
                    self._patch(owner, attribute, self.wrap(
                        owner.__dict__[attribute], "db.op"))
        for module_name, class_name in DEPLOY_TARGETS:
            owner = getattr(importlib.import_module(module_name), class_name)
            self._patch(owner, "deploy",
                        self._wrap_deploy(owner.__dict__["deploy"]))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _wrap_deploy(self, deploy: Callable) -> Callable:
        recorder = self

        @functools.wraps(deploy)
        def traced_deploy(platform, name, image_name, runtime, handler,
                          *args, **kwargs):
            return deploy(platform, name, image_name, runtime,
                          recorder.wrap(handler, "workloads.handler"),
                          *args, **kwargs)

        return traced_deploy

    def dump(self, path) -> None:
        """Write spans and counters out as JSON."""
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


def _datastore_classes() -> List[type]:
    from repro.db.engine import Datastore

    importlib.import_module("repro.db")   # registers every store class
    found, todo = [], [Datastore]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


# -- analysis --------------------------------------------------------------


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Per span: duration minus the union of its children's intervals
    (clipped to the span), so overlapping children count once."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append((end - start) - covered)
    return result


def _roots(spans: Sequence[Sequence]) -> List[int]:
    """Root span index of every span."""
    roots: List[int] = []
    for index, span in enumerate(spans):
        roots.append(index if span[3] < 0 else roots[span[3]])
    return roots


def layer_metrics(spans: Sequence[Sequence], counts: Sequence[Sequence],
                  root: int) -> Dict[str, float]:
    """Every per-layer metric of one traced pass (root span ``root``)."""
    own = self_times(spans)
    roots = _roots(spans)
    busy: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    boots = db_ops = 0
    serve_s = 0.0
    for index, span in enumerate(spans):
        if roots[index] != root:
            continue
        name = span[0]
        busy[name] += own[index]
        calls[name] += 1
        parent = span[3]
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "sim.atomic" and parent_name == "core.prepare":
            boots += 1
        elif name == "db.op" and parent_name != "db.op":
            db_ops += 1
        elif name == "serverless.serve":
            serve_s += span[2] - span[1]
    counter: Dict[str, float] = defaultdict(float)
    for name, value, owner in counts:
        if owner == root:
            counter[name] += value
    insts = counter["sim.o3_insts"]
    jit_calls = counter["jit.compiled_calls"] + counter["jit.interpreted_calls"]
    return {
        "core.prepare_s": busy["core.prepare"],
        "core.boots": boots,
        "core.restore_s": busy["core.restore"],
        "sim.atomic_s": busy["sim.atomic"],
        "sim.o3_s": busy["sim.o3"],
        "sim.warm_s": busy["sim.warm"],
        "sim.o3_ns_per_insn": busy["sim.o3"] * 1e9 / insts if insts else 0.0,
        "sim.o3_insts": insts,
        "sim.isa.assemble_s": busy["sim.isa.assemble"],
        "sim.isa.assemble_calls": calls["sim.isa.assemble"],
        "sim.isa.decoded_blocks": counter["predecode.decoded_blocks"],
        "sim.isa.block_replays": counter["predecode.block_replays"],
        "sim.isa.jit_compile_s": counter["jit.compile_s"],
        "sim.isa.jit_units": counter["jit.compiled_units"],
        "sim.isa.jit_declined": counter["jit.declined"],
        "sim.isa.jit_call_ratio": (counter["jit.compiled_calls"] / jit_calls
                                   if jit_calls else 0.0),
        "sim.mem.l1i_misses": counter["sim.mem.l1i_misses"],
        "sim.mem.l1d_misses": counter["sim.mem.l1d_misses"],
        "sim.mem.l2_misses": counter["sim.mem.l2_misses"],
        "workloads.dataset_s": busy["workloads.dataset"],
        "workloads.program_s": busy["workloads.program"],
        "workloads.handler_s": busy["workloads.handler"],
        "workloads.handler_calls": calls["workloads.handler"],
        "db.ops": db_ops,
        "db.busy_s": busy["db.op"],
        "serverless.invoke_s": busy["serverless.invoke"],
        "serverless.serve_s": serve_s,
        "serverless.router_self_s": busy["serverless.serve"],
        "serverless.scaler_s": busy["serverless.scaler"],
        "serverless.scaler_calls": calls["serverless.scaler"],
        "serverless.cold_boots": calls["serverless.create"],
        "serverless.boot_s": (busy["serverless.create"]
                              + busy["serverless.start"]),
        "experiments.self_s": busy["experiments.run"],
        "experiments.points": counter["experiments.points"],
        "trace.unattributed_s": busy[PASS],
        "trace.pass_s": spans[root][2] - spans[root][1],
    }


#: Unit of each per-layer metric (the keys :func:`layer_metrics` returns).
UNITS: Dict[str, str] = {}
for _name in layer_metrics([[PASS, 0.0, 1.0, -1, None]], [], 0):
    if _name.endswith("_s"):
        UNITS[_name] = "s"
    elif _name.endswith("_ratio"):
        UNITS[_name] = "ratio"
    elif _name == "sim.o3_ns_per_insn":
        UNITS[_name] = "ns"
    else:
        UNITS[_name] = "count"
