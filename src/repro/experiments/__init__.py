"""Declarative experiments: named, fingerprinted, reproducible studies.

The layer ROADMAP item 4 asks for, modeled on how SeBS evaluates
commercial clouds: instead of ad hoc CLI invocations, a *study* is a
value — an immutable :class:`~repro.experiments.spec.ExperimentSpec`
that names a base scenario and the axes to sweep — and running it
yields a versioned, byte-reproducible artifact
(:class:`~repro.experiments.artifact.ExperimentResult`) with latency
**and dollar-cost** columns (:class:`~repro.experiments.cost.CostModel`).

Quick tour::

    from repro.experiments import get_experiment, run_experiment

    spec = get_experiment("perf-cost")      # from the named catalog
    result = run_experiment(spec)           # warm + parallel via rescache
    result.write("benchmarks/output/experiments")

or from the command line: ``python -m repro experiment run perf-cost``.
See ``docs/EXPERIMENT_CATALOG.md`` for every named study and the
results contract.
"""

from repro.experiments.artifact import (
    RESULT_SCHEMA,
    ExperimentResult,
    load_result,
    render_markdown,
)
from repro.experiments.catalog import (
    CATALOG,
    experiment_names,
    get_experiment,
    iter_experiments,
)
from repro.experiments.cost import (
    COST_RATE_FIELDS,
    CostBreakdown,
    CostModel,
    cpu_share,
)
from repro.experiments.runner import instance_ticks, run_experiment
from repro.experiments.spec import (
    KINDS,
    MICROARCH_KNOBS,
    SPEC_SCHEMA,
    ExperimentPoint,
    ExperimentSpec,
    platform_override,
)

__all__ = [
    "CATALOG",
    "COST_RATE_FIELDS",
    "CostBreakdown",
    "CostModel",
    "ExperimentPoint",
    "ExperimentResult",
    "ExperimentSpec",
    "KINDS",
    "MICROARCH_KNOBS",
    "RESULT_SCHEMA",
    "SPEC_SCHEMA",
    "cpu_share",
    "experiment_names",
    "get_experiment",
    "instance_ticks",
    "iter_experiments",
    "load_result",
    "platform_override",
    "render_markdown",
    "run_experiment",
]
