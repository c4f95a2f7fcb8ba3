"""Declarative experiment specs: one immutable object names a study.

An :class:`ExperimentSpec` is to a *study* what
:class:`~repro.core.spec.MeasurementSpec` is to a single matrix point: a
picklable value object that states everything the run depends on.  It
holds a **base** scenario (one knob dict, shared by every point — the
same shape as the ``common_scenario`` YAML anchor pattern in
SNIPPETS.md) and an ordered list of **axes**; :meth:`ExperimentSpec.expand`
takes the cartesian product of the axes over the base and yields one
:class:`ExperimentPoint` per combination, in declared order.

Two kinds of study exist:

* ``kind="measure"`` — each point lowers to a
  :class:`~repro.core.spec.MeasurementSpec` and runs the ten-request
  cycle-accurate protocol through the parallel engine and the result
  cache (reruns are warm).
* ``kind="serve"`` — each point drives a seeded arrival trace through
  the autoscaled router (:mod:`repro.serverless`), the service-level
  path (queueing, cold starts, eviction, cluster placement).

Both kinds expose a ``memory_mb`` knob, the serverless *instance size*.
On the measure path it buys microarchitecture: the platform's LLC slice
scales linearly with the memory grant (512 MB ⇔ the canonical 512 KB
L2), the same resource-isolation model Lambda uses for CPU shares.  The
cost model (:mod:`repro.experiments.cost`) completes the story by
scaling CPU time share with the same grant, so the classic perf-cost
memory sweep has a real knee.

Measure studies also take the microarchitecture knobs of
:data:`MICROARCH_KNOBS` (cache geometry, replacement, prefetchers,
pipeline widths, branch predictor), so a design-space exploration is
just a measure study with those axes.  They are only-when-set, and
``l2_size`` may not meet a non-reference ``memory_mb``: both set the L2.

Like every config object in this repo (kw-only, ``__slots__``,
``fingerprint()``, ``as_dict``/``from_dict``), the spec is hand-rolled
rather than a dataclass: CI runs Python 3.9, which lacks
``dataclass(kw_only=True)``.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.config import PlatformConfig, platform_for
from repro.core.scale import SimScale
from repro.core.spec import MeasurementSpec
from repro.serverless.loadgen import ARRIVAL_PROFILES
from repro.serverless.platform import PLACEMENT_POLICIES
from repro.sim.cpu.bpred import PREDICTORS
from repro.sim.mem.prefetcher import PREFETCHER_KINDS
from repro.sim.mem.replacement import policy_names

#: Version tag embedded in every serialized spec (and, transitively, in
#: every result artifact).  Bump on any incompatible shape change.
SPEC_SCHEMA = "repro.experiments.spec/v1"

#: The two study kinds (see module docstring).
KINDS = ("measure", "serve")

#: ``memory_mb`` grant that maps to the canonical platform (Table 4.1's
#: 512 KB L2).  Other grants scale the LLC slice linearly.
MEMORY_REFERENCE_MB = 512

#: LLC-slice clamp: no grant shrinks the L2 below 64 KB or grows it
#: past 4 MB, keeping every swept platform inside the simulator's
#: validated geometry range.
MIN_L2_BYTES = 64 * 1024
MAX_L2_BYTES = 4 * 1024 * 1024

#: Base-scenario knobs for ``kind="measure"`` studies, with defaults.
#: Any knob may also appear as an axis.
MEASURE_KNOBS: Dict[str, Any] = {
    "function": "fibonacci-python",
    "isa": "riscv",
    "db": None,
    "seed": 0,
    "requests": 10,
    "time_scale": 2048,
    "space_scale": 32,
    "memory_mb": MEMORY_REFERENCE_MB,
    "sampling": None,
    "vector": None,
}

#: Microarchitecture knobs of ``kind="measure"`` studies, the paper's
#: future-work design space (caches, branch predictors, prefetchers).
#: Each sets the field of the same name on the point's
#: :class:`~repro.sim.mem.hierarchy.MemoryHierarchyConfig` (``MEM_KNOBS``)
#: or :class:`~repro.sim.cpu.o3.O3Config` (``O3_KNOBS``).  They are
#: *only-when-set*: they have no default in :data:`MEASURE_KNOBS`, and a
#: knob nobody set stays out of the base scenario, of
#: :meth:`ExperimentSpec.as_dict` and so of every fingerprint.
MEM_KNOBS = ("l1i_size", "l1d_size", "l2_size", "l2_assoc", "replacement",
             "prefetch_i_degree", "prefetch_d_degree", "prefetch_i_kind",
             "prefetch_d_kind", "l2_latency")
O3_KNOBS = ("rob_entries", "lq_entries", "sq_entries", "dispatch_width",
            "commit_width", "mispredict_penalty", "branch_predictor")
MICROARCH_KNOBS = MEM_KNOBS + O3_KNOBS

#: The legal values of the name-valued microarchitecture knobs.  Every
#: other microarchitecture knob takes a positive int (a prefetch degree
#: may be 0: prefetching off).
MICROARCH_CHOICES: Dict[str, Tuple[str, ...]] = {
    "replacement": tuple(policy_names()),
    "prefetch_i_kind": PREFETCHER_KINDS,
    "prefetch_d_kind": PREFETCHER_KINDS,
    "branch_predictor": tuple(sorted(PREDICTORS)),
}

#: Base-scenario knobs for ``kind="serve"`` studies, with defaults.
SERVE_KNOBS: Dict[str, Any] = {
    "function": "fibonacci-python",
    "isa": "riscv",
    "db": None,
    "seed": 0,
    "profile": "poisson",
    "rps": 100.0,
    "arrivals": 200,
    "memory_mb": MEMORY_REFERENCE_MB,
    "target_concurrency": 1,
    "min_instances": 0,
    "max_instances": 8,
    "queue_capacity": 64,
    "scale_to_zero_after": 1200,
    "nodes": 0,
    "placement": "binpack",
    "node_capacity": None,
    "node_fail": 0.0,
}

_KNOBS_BY_KIND = {"measure": MEASURE_KNOBS, "serve": SERVE_KNOBS}

_SCALAR_TYPES = (str, int, float, bool, type(None))


def platform_override(isa: str, memory_mb: int = MEMORY_REFERENCE_MB,
                      **microarch: Any) -> Optional[PlatformConfig]:
    """The platform one measure point runs on: ``isa``'s canonical one
    with the point's instance grant and microarchitecture knobs applied.

    Models FaaS resource isolation: the instance's last-level-cache
    slice scales linearly with its ``memory_mb`` grant
    (:data:`MEMORY_REFERENCE_MB` ⇔ the canonical 512 KB L2), clamped to
    [:data:`MIN_L2_BYTES`, :data:`MAX_L2_BYTES`].  ``microarch`` sets
    :data:`MICROARCH_KNOBS` fields by name.  Returns ``None`` when the
    result is the canonical geometry, so such points keep byte-identical
    measurement digests with plain ``repro measure`` runs.
    """
    if memory_mb <= 0:
        raise ValueError("memory_mb must be positive, got %r" % (memory_mb,))
    base = platform_for(isa)
    changes: Dict[str, Dict[str, Any]] = {"mem": {}, "o3": {}}
    if memory_mb != MEMORY_REFERENCE_MB:
        l2_size = int(base.mem_config.l2_size * memory_mb / MEMORY_REFERENCE_MB)
        changes["mem"]["l2_size"] = max(MIN_L2_BYTES,
                                        min(l2_size, MAX_L2_BYTES))
    for knob, value in microarch.items():
        changes["mem" if knob in MEM_KNOBS else "o3"][knob] = value
    mem = _with_fields(base.mem_config, changes["mem"])
    o3 = _with_fields(base.o3_config, changes["o3"])
    if mem is base.mem_config and o3 is base.o3_config:
        return None
    platform = copy.copy(base)
    platform.mem_config = mem
    platform.o3_config = o3
    return platform


def _with_fields(config: Any, changes: Dict[str, Any]) -> Any:
    """``config`` itself if ``changes`` change nothing, else a copy with
    them applied."""
    if all(getattr(config, key) == value for key, value in changes.items()):
        return config
    return type(config)(**dict(vars(config), **changes))


def _require_scalar(context: str, value: Any) -> None:
    if not isinstance(value, _SCALAR_TYPES):
        raise ValueError("%s must be a JSON scalar, got %r" % (context, value))


class ExperimentPoint:
    """One cell of an expanded experiment matrix.

    ``settings`` holds just the axis assignment (what varies);
    ``knobs`` is the fully resolved scenario (base merged with
    settings).  Points are produced by :meth:`ExperimentSpec.expand` in
    deterministic declared-axis order.
    """

    __slots__ = ("kind", "settings", "knobs")

    def __init__(self, kind: str, settings: Dict[str, Any],
                 knobs: Dict[str, Any]):
        self.kind = kind
        self.settings = dict(settings)
        self.knobs = dict(knobs)

    def label(self) -> str:
        """Human-readable axis assignment, e.g. ``memory_mb=256 isa=riscv``."""
        if not self.settings:
            return "(single point)"
        return " ".join("%s=%s" % (key, value)
                        for key, value in self.settings.items())

    def resolved_db(self) -> Optional[str]:
        """The datastore this point binds: the ``db`` knob, defaulting to
        cassandra for hotel-suite functions (mirroring
        :func:`repro.core.reproduce.measure`) and ``None`` elsewhere."""
        from repro.workloads.catalog import get_function

        function = get_function(self.knobs["function"])
        if function.suite == "hotel":
            return self.knobs["db"] or "cassandra"
        return None

    def measurement_spec(self) -> MeasurementSpec:
        """Lower a measure-kind point to the core measurement spec.

        The ``memory_mb`` knob and any set microarchitecture knob
        become one platform override (see :func:`platform_override`),
        which the result cache already keys on via the platform
        fingerprint — so experiment reruns are warm and bit-identical
        per seed.
        """
        if self.kind != "measure":
            raise ValueError("only measure-kind points lower to "
                             "MeasurementSpec (kind=%r)" % self.kind)
        knobs = self.knobs
        sampling = vector = None
        if knobs["sampling"]:
            from repro.sim.sampling import SamplingConfig

            sampling = SamplingConfig.parse(knobs["sampling"])
        if knobs["vector"]:
            from repro.sim.isa.vector import VectorConfig

            vector = VectorConfig.parse(knobs["vector"])
        return MeasurementSpec(
            function=knobs["function"],
            isa=knobs["isa"],
            scale=SimScale(time=knobs["time_scale"],
                           space=knobs["space_scale"]),
            seed=knobs["seed"],
            db=self.resolved_db(),
            requests=knobs["requests"],
            platform=platform_override(
                knobs["isa"], knobs["memory_mb"],
                **{knob: knobs[knob] for knob in MICROARCH_KNOBS
                   if knob in knobs}),
            sampling=sampling,
            vector=vector,
        )

    def __repr__(self) -> str:
        return "ExperimentPoint(%s, %s)" % (self.kind, self.label())


class ExperimentSpec:
    """An immutable, fingerprinted description of one named study.

    Keyword-only.  ``base`` overrides the kind's default scenario
    (:data:`MEASURE_KNOBS` / :data:`SERVE_KNOBS`); ``axes`` is an
    ordered sequence of ``(knob, values)`` pairs whose cartesian product
    defines the matrix; ``cost`` overrides
    :class:`~repro.experiments.cost.CostModel` rates.  Unknown knobs,
    axes or cost keys are errors — a spec either describes a runnable
    study or refuses to construct.

    Value semantics: equality and hashing go through
    :meth:`fingerprint`, a digest of the canonical serialized form, so
    two specs that would run the same study compare equal regardless of
    how their dicts were spelled.
    """

    __slots__ = ("name", "title", "kind", "_base", "_axes", "_cost")

    def __init__(self, *, name: str, kind: str, title: str = "",
                 base: Optional[Dict[str, Any]] = None,
                 axes: Optional[Iterable[Tuple[str, Iterable[Any]]]] = None,
                 cost: Optional[Dict[str, float]] = None):
        from repro.experiments.cost import COST_RATE_FIELDS

        if not name or not isinstance(name, str):
            raise ValueError("experiment name must be a non-empty string")
        if any(ch.isspace() for ch in name):
            raise ValueError("experiment name must not contain whitespace: "
                             "%r" % name)
        if kind not in KINDS:
            raise ValueError("kind must be one of %s, got %r"
                             % ("/".join(KINDS), kind))
        defaults = _KNOBS_BY_KIND[kind]
        legal = set(defaults)
        if kind == "measure":
            legal.update(MICROARCH_KNOBS)
        merged = dict(defaults)
        for key, value in (base or {}).items():
            if key not in legal:
                raise ValueError("unknown %s knob %r (known: %s)"
                                 % (kind, key, ", ".join(sorted(legal))))
            _require_scalar("base knob %r" % key, value)
            merged[key] = value
        normalized_axes: List[Tuple[str, Tuple[Any, ...]]] = []
        seen = set()
        for axis_name, values in (axes or ()):
            if axis_name not in legal:
                raise ValueError("unknown %s axis %r (known: %s)"
                                 % (kind, axis_name,
                                    ", ".join(sorted(legal))))
            if axis_name in seen:
                raise ValueError("duplicate axis %r" % axis_name)
            seen.add(axis_name)
            values = tuple(values)
            if not values:
                raise ValueError("axis %r needs at least one value"
                                 % axis_name)
            for value in values:
                _require_scalar("axis %r value" % axis_name, value)
            normalized_axes.append((axis_name, values))
        cost_overrides = {}
        for key, value in (cost or {}).items():
            if key not in COST_RATE_FIELDS:
                raise ValueError("unknown cost rate %r (known: %s)"
                                 % (key, ", ".join(COST_RATE_FIELDS)))
            cost_overrides[key] = float(value)
        self._set("name", name)
        self._set("title", title or name)
        self._set("kind", kind)
        self._set("_base", merged)
        self._set("_axes", tuple(normalized_axes))
        self._set("_cost", cost_overrides)
        self._validate_scenario()

    def _set(self, attribute: str, value: Any) -> None:
        object.__setattr__(self, attribute, value)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("ExperimentSpec is immutable; build a new one")

    def _validate_scenario(self) -> None:
        """Cross-knob checks over every value a knob can take."""
        def candidates(knob: str) -> Tuple[Any, ...]:
            for axis_name, values in self._axes:
                if axis_name == knob:
                    return values
            return (self._base[knob],) if knob in self._base else ()

        for memory_mb in candidates("memory_mb"):
            if not isinstance(memory_mb, int) or memory_mb <= 0:
                raise ValueError("memory_mb must be a positive int, got %r"
                                 % (memory_mb,))
        for knob in MICROARCH_KNOBS:
            choices = MICROARCH_CHOICES.get(knob)
            floor = 0 if knob.endswith("_degree") else 1
            for value in candidates(knob):
                if choices is not None and value not in choices:
                    raise ValueError("unknown %s %r (known: %s)"
                                     % (knob, value, ", ".join(choices)))
                if choices is None and (not isinstance(value, int)
                                        or isinstance(value, bool)
                                        or value < floor):
                    raise ValueError("%s must be an int >= %d, got %r"
                                     % (knob, floor, value))
        if candidates("l2_size") and any(
                memory_mb != MEMORY_REFERENCE_MB
                for memory_mb in candidates("memory_mb")):
            raise ValueError(
                "l2_size and a memory_mb other than %d both set the L2; "
                "sweep one of them" % MEMORY_REFERENCE_MB)
        if self.kind == "serve":
            for profile in candidates("profile"):
                if profile not in ARRIVAL_PROFILES:
                    raise ValueError("unknown arrival profile %r (known: %s)"
                                     % (profile,
                                        ", ".join(ARRIVAL_PROFILES)))
            for placement in candidates("placement"):
                if placement not in PLACEMENT_POLICIES:
                    raise ValueError("unknown placement %r (known: %s)"
                                     % (placement,
                                        ", ".join(PLACEMENT_POLICIES)))

    # -- accessors ----------------------------------------------------

    @property
    def base(self) -> Dict[str, Any]:
        """The fully resolved base scenario (a defensive copy)."""
        return dict(self._base)

    @property
    def axes(self) -> Tuple[Tuple[str, Tuple[Any, ...]], ...]:
        """The declared axes, in declared order."""
        return self._axes

    @property
    def cost_overrides(self) -> Dict[str, float]:
        """Cost-model rate overrides (a defensive copy)."""
        return dict(self._cost)

    @property
    def seed(self) -> int:
        """The base scenario's seed."""
        return self._base["seed"]

    def point_count(self) -> int:
        """Matrix size: the product of the axis lengths."""
        count = 1
        for _, values in self._axes:
            count *= len(values)
        return count

    # -- serialization ------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """Canonical plain-data form; ``from_dict`` roundtrips it."""
        return {
            "schema": SPEC_SCHEMA,
            "name": self.name,
            "title": self.title,
            "kind": self.kind,
            "base": dict(self._base),
            "axes": [[name, list(values)] for name, values in self._axes],
            "cost": dict(self._cost),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentSpec":
        """Build a spec from plain data (the YAML/JSON wire form).

        ``schema`` is optional on input but must match
        :data:`SPEC_SCHEMA` when present; missing base knobs take the
        kind's defaults; unknown top-level keys are errors.
        """
        if not isinstance(data, dict):
            raise ValueError("experiment spec must be a mapping, got %r"
                             % type(data).__name__)
        data = dict(data)
        schema = data.pop("schema", SPEC_SCHEMA)
        if schema != SPEC_SCHEMA:
            raise ValueError("unsupported spec schema %r (expected %r)"
                             % (schema, SPEC_SCHEMA))
        known = {"name", "title", "kind", "base", "axes", "cost"}
        unknown = set(data) - known
        if unknown:
            raise ValueError("unknown spec keys: %s"
                             % ", ".join(sorted(unknown)))
        axes = data.get("axes") or []
        return cls(
            name=data.get("name", ""),
            title=data.get("title", ""),
            kind=data.get("kind", ""),
            base=data.get("base") or {},
            axes=[(axis[0], axis[1]) for axis in axes],
            cost=data.get("cost") or {},
        )

    @classmethod
    def from_yaml(cls, text: str) -> "ExperimentSpec":
        """Parse a YAML document into a spec (shared-scenario style).

        PyYAML is an optional dependency — the CI image installs only
        the test toolchain — so the import is gated and the error says
        what to do.  JSON being a YAML subset, ``from_dict`` +
        ``json.loads`` always works without it.
        """
        try:
            import yaml
        except ImportError:  # pragma: no cover - depends on environment
            raise RuntimeError(
                "PyYAML is not installed; pass a JSON spec (json.loads + "
                "ExperimentSpec.from_dict) or install pyyaml")
        return cls.from_dict(yaml.safe_load(text))

    def fingerprint(self) -> str:
        """Stable content digest of the canonical form (16 hex chars).

        Two specs that describe the same study — same kind, resolved
        base, axes, and cost rates — share a fingerprint, however their
        input dicts were spelled.  The fingerprint is embedded in every
        result artifact, so an artifact names exactly the study that
        produced it.
        """
        blob = json.dumps(self.as_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def with_base(self, **overrides: Any) -> "ExperimentSpec":
        """A copy with base knobs replaced (e.g. a CLI ``--seed``)."""
        merged = dict(self._base)
        merged.update(overrides)
        return ExperimentSpec(name=self.name, title=self.title,
                              kind=self.kind, base=merged,
                              axes=self._axes, cost=self._cost)

    # -- expansion ----------------------------------------------------

    def expand(self) -> List[ExperimentPoint]:
        """The matrix: one point per cartesian-product combination.

        Axes iterate in declared order with the last axis fastest —
        ``axes=[("a", [1, 2]), ("b", [x, y])]`` yields
        ``(1,x), (1,y), (2,x), (2,y)`` — so row order in rendered tables
        matches the declaration.
        """
        names = [name for name, _ in self._axes]
        points = []
        for combo in itertools.product(*[values for _, values in self._axes]):
            settings = dict(zip(names, combo))
            knobs = dict(self._base)
            knobs.update(settings)
            points.append(ExperimentPoint(self.kind, settings, knobs))
        return points

    # -- value semantics ----------------------------------------------

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, ExperimentSpec):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    def __repr__(self) -> str:
        return ("ExperimentSpec(name=%r, kind=%r, %d axes, %d points)"
                % (self.name, self.kind, len(self._axes),
                   self.point_count()))
