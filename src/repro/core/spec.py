"""The unified measurement spec: one keyword-only type for every entry point.

Historically the repo grew three divergent measurement signatures
(``measure_functions`` / ``measure_hotel`` / ``measure_standalone_shop``)
plus a separate task type for the parallel engine, each spelling the same
(function, isa, scale, seed, db, requests) tuple slightly differently.
:class:`MeasurementSpec` collapses them: the CLI, the parallel engine,
the experiment engine and the result-cache keying all consume this
one type, and :func:`repro.core.reproduce.measure` dispatches on it.

The class is deliberately *not* a ``dataclass``: CI runs Python 3.9,
which lacks ``dataclass(kw_only=True)``, so keyword-only construction is
hand-rolled.  Instances are immutable (use :meth:`replace`), hashable,
and picklable — they cross process boundaries in
:func:`repro.core.parallel.run_measurement_matrix`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.scale import BENCH, SimScale

_FIELDS = ("function", "isa", "time", "space", "seed", "db", "requests",
           "platform", "trace", "faults", "scaling", "sampling", "cluster",
           "vector")


class MeasurementSpec:
    """One point of the measurement matrix, keyword-only and immutable.

    ``function``
        Catalog name of the vSwarm function (objects with a ``.name``
        attribute are accepted and reduced to their name, so specs stay
        picklable by construction).
    ``isa``
        Platform ISA (``riscv`` / ``x86`` / ``arm``).
    ``scale`` or ``time``/``space``
        The scaled-machine divisors, either as a
        :class:`~repro.core.scale.SimScale` or as the two integers;
        defaults to :data:`~repro.core.scale.BENCH`.
    ``db``
        Datastore name for hotel functions (the worker builds a fresh
        :class:`~repro.workloads.hotel.HotelSuite` around it).
    ``platform``
        Optional :class:`~repro.core.config.PlatformConfig` override
        (an experiment's ``memory_mb`` and microarchitecture knobs, see
        :func:`repro.experiments.spec.platform_override`); ``None``
        means the canonical platform for ``isa``.
    ``trace``
        When true, the measurement runs with a
        :class:`~repro.obs.Tracer` attached and the result carries a
        frozen trace capture (``measurement.trace``).  Traced specs
        bypass the result cache: a cached measurement has no capture.
    ``faults``
        Optional :class:`~repro.faults.FaultPlan`.  The worker arms a
        fresh injector for the run, so faults and recovery are
        deterministic per (plan, spec).  Faulted specs bypass the result
        cache like traced ones — a chaos measurement is an experiment
        artifact, not a canonical result.
    ``scaling``
        Optional :class:`~repro.serverless.scaler.ScalingConfig` for
        serving experiments (`python -m repro serve`).  Part of spec
        identity and of the result-cache key: two serve runs with
        different autoscaler knobs must never share a content address.
        ``None`` — the default, and the only value measurement entry
        points produce — keeps identity and digests exactly as before.
    ``sampling``
        Optional :class:`~repro.sim.sampling.SamplingConfig`.  When set,
        detailed (O3) runs use sampled simulation — short detailed
        windows extrapolated over fast-forwarded instructions — trading
        a bounded cycle error for a large speedup.  Part of spec
        identity and of the result-cache key: sampled results are
        approximations and must never alias full-detail ones.  ``None``
        (the default) runs every detailed instruction and keeps all
        digests byte-identical to the pre-sampling implementation.
    ``cluster``
        Optional :class:`~repro.serverless.platform.ClusterConfig` for
        multi-node serving experiments (``python -m repro serve
        --nodes``).  Part of spec identity and of the result-cache key,
        extending both *only when set* — ``None`` (the default, and the
        only value measurement entry points produce) keeps identity and
        digests exactly as before, the same contract as ``scaling`` and
        ``sampling``.
    ``vector``
        Optional :class:`~repro.sim.isa.vector.VectorConfig`.  When set,
        the measurement's ISA instance carries a vector unit and vector
        IR ops lower to stripmined (RVV) or fixed-width (SSE/NEON)
        vector streams.  Part of spec identity and of the result-cache
        key, extending both *only when set* — ``None`` (the default)
        lowers vector IR element-by-element to scalar instructions and
        keeps every existing digest, stat dump and event log
        byte-identical, the same contract as ``sampling``/``cluster``.
    """

    __slots__ = _FIELDS

    def __init__(self, *, function, isa: str = "riscv",
                 scale: Optional[SimScale] = None,
                 time: Optional[int] = None, space: Optional[int] = None,
                 seed: int = 0, db: Optional[str] = None, requests: int = 10,
                 platform=None, trace: bool = False, faults=None,
                 scaling=None, sampling=None, cluster=None, vector=None):
        if scale is not None and (time is not None or space is not None):
            raise TypeError("pass scale= or time=/space=, not both")
        if scale is None:
            scale = SimScale(time=BENCH.time if time is None else time,
                             space=BENCH.space if space is None else space)
        name = getattr(function, "name", function)
        if not isinstance(name, str):
            raise TypeError("function must be a catalog name or carry "
                            ".name, got %r" % (function,))
        if requests < 1:
            raise ValueError("requests must be >= 1, got %d" % requests)
        set_field = object.__setattr__
        set_field(self, "function", name)
        set_field(self, "isa", isa)
        set_field(self, "time", scale.time)
        set_field(self, "space", scale.space)
        set_field(self, "seed", seed)
        set_field(self, "db", db)
        set_field(self, "requests", requests)
        set_field(self, "platform", platform)
        set_field(self, "trace", bool(trace))
        set_field(self, "faults", faults)
        set_field(self, "scaling", scaling)
        set_field(self, "sampling", sampling)
        set_field(self, "cluster", cluster)
        set_field(self, "vector", vector)

    # -- immutability ------------------------------------------------------

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("MeasurementSpec is immutable; use .replace()")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("MeasurementSpec is immutable; use .replace()")

    def replace(self, **changes) -> "MeasurementSpec":
        """A copy with the given fields swapped (dataclasses.replace style)."""
        fields: Dict[str, Any] = {name: getattr(self, name)
                                  for name in _FIELDS}
        if "scale" in changes:
            scale = changes.pop("scale")
            changes.setdefault("time", scale.time)
            changes.setdefault("space", scale.space)
        unknown = set(changes) - set(_FIELDS)
        if unknown:
            raise TypeError("unknown spec fields: %s" % sorted(unknown))
        fields.update(changes)
        return MeasurementSpec(**fields)

    # -- derived views -----------------------------------------------------

    @property
    def scale(self) -> SimScale:
        return SimScale(time=self.time, space=self.space)

    def _identity(self) -> tuple:
        platform = self.platform
        fingerprint = platform.fingerprint() if platform is not None else None
        faults = self.faults
        fault_fingerprint = faults.fingerprint() if faults is not None else None
        scaling = self.scaling
        scaling_fingerprint = (scaling.fingerprint()
                               if scaling is not None else None)
        sampling = self.sampling
        sampling_fingerprint = (sampling.fingerprint()
                                if sampling is not None else None)
        cluster = self.cluster
        cluster_fingerprint = (cluster.fingerprint()
                               if cluster is not None else None)
        vector = self.vector
        vector_fingerprint = (vector.fingerprint()
                              if vector is not None else None)
        return (self.function, self.isa, self.time, self.space, self.seed,
                self.db, self.requests, fingerprint, self.trace,
                fault_fingerprint, scaling_fingerprint,
                sampling_fingerprint, cluster_fingerprint,
                vector_fingerprint)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MeasurementSpec):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    def __repr__(self) -> str:
        parts = ["function=%r" % self.function, "isa=%r" % self.isa,
                 "time=%d" % self.time, "space=%d" % self.space]
        if self.seed:
            parts.append("seed=%d" % self.seed)
        if self.db:
            parts.append("db=%r" % self.db)
        if self.requests != 10:
            parts.append("requests=%d" % self.requests)
        if self.platform is not None:
            parts.append("platform=%r" % self.platform)
        if self.trace:
            parts.append("trace=True")
        if self.faults is not None:
            parts.append("faults=%r" % self.faults)
        if self.scaling is not None:
            parts.append("scaling=%r" % self.scaling)
        if self.sampling is not None:
            parts.append("sampling=%r" % self.sampling)
        if self.cluster is not None:
            parts.append("cluster=%r" % self.cluster)
        if self.vector is not None:
            parts.append("vector=%r" % self.vector)
        return "MeasurementSpec(%s)" % ", ".join(parts)

    # -- pickling (slots, no __dict__) -------------------------------------

    def __getstate__(self):
        return {name: getattr(self, name) for name in _FIELDS}

    def __setstate__(self, state):
        for name in _FIELDS:
            # .get(): states pickled before a field existed load as None.
            object.__setattr__(self, name, state.get(name))
