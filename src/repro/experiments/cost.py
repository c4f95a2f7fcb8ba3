"""A serverless $-cost model on top of the event-count energy model.

The paper benchmarks RISC-V serverless *performance*; what a deployer
actually optimizes is **dollars at a latency target**.  This module
turns measurements into money with three configurable rates (Lambda
eu-west-1 list prices as defaults) plus an energy-to-$ projection that
rides :class:`repro.sim.energy.EnergyModel` — so per-ISA event-count
differences (instruction counts, cache misses) surface as per-ISA
operating-cost differences.

Two billing shapes, matching the two experiment kinds:

* **Request-duration billing** (measure kind, Lambda-style):
  ``GB-s = memory × duration`` per invocation, where duration is the
  simulated cycle count projected to native seconds and stretched by
  the instance's fractional CPU share — small grants get a slice of a
  core (:data:`FULL_CPU_SHARE_MB` ⇔ one full vCPU, Lambda's 1769 MB).
  Together with the LLC-slice perf effect
  (:func:`repro.experiments.spec.platform_override`) this produces the
  classic U-shaped $-vs-memory curve: more memory costs more per GB-s
  but finishes sooner.
* **Instance-uptime billing** (serve kind, Knative/provisioned-style):
  GB-s integrate *provisioned instance seconds* over the serve
  timeline, idle or not — which is what makes keep-alive vs cold-start
  (the eviction study) a real cost tradeoff.

As with the energy model, absolute dollars are not the claim; relative
shapes across ISAs, memory grants and scaling policies are.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.sim.energy import CYCLES_PER_SECOND, EnergyModel

#: $/GB-s of compute (Lambda x86 eu-west-1 list price).
DEFAULT_USD_PER_GB_S = 1.6667e-05

#: $ per invocation (Lambda's $0.20 per 1M requests).
DEFAULT_USD_PER_INVOCATION = 2.0e-07

#: $/kWh for the energy-to-$ projection (EU industrial electricity).
DEFAULT_USD_PER_KWH = 0.10

#: Datacenter power usage effectiveness multiplier on IT energy.
DEFAULT_PUE = 1.35

#: Memory grant (MB) that buys one full vCPU-second per second; smaller
#: grants run on a proportional CPU share (Lambda's 1769 MB knee).
FULL_CPU_SHARE_MB = 1769.0

#: The serving layer's logical clock: 1 tick = 1 ms (see
#: :data:`repro.serverless.loadgen.TICKS_PER_SECOND`).
SECONDS_PER_TICK = 0.001

#: The configurable rates, in serialized order (also the set of legal
#: ``cost:`` override keys in an experiment spec).
COST_RATE_FIELDS = ("usd_per_gb_s", "usd_per_invocation", "usd_per_kwh",
                    "pue")


def cpu_share(memory_mb: float) -> float:
    """Fractional vCPU a memory grant buys, clamped to one full core."""
    if memory_mb <= 0:
        raise ValueError("memory_mb must be positive, got %r" % (memory_mb,))
    return min(memory_mb / FULL_CPU_SHARE_MB, 1.0)


class CostBreakdown:
    """Where one invocation's (or one request's share of) money goes."""

    __slots__ = ("duration_s", "gb_s", "compute_usd", "request_usd",
                 "energy_usd")

    def __init__(self, *, duration_s: float, gb_s: float, compute_usd: float,
                 request_usd: float, energy_usd: float):
        self.duration_s = duration_s
        self.gb_s = gb_s
        self.compute_usd = compute_usd
        self.request_usd = request_usd
        self.energy_usd = energy_usd

    @property
    def total_usd(self) -> float:
        """Billed compute + per-request fee + projected energy cost."""
        return self.compute_usd + self.request_usd + self.energy_usd

    def as_dict(self) -> Dict[str, float]:
        """Plain-data form for result artifacts."""
        return {
            "duration_s": self.duration_s,
            "gb_s": self.gb_s,
            "compute_usd": self.compute_usd,
            "request_usd": self.request_usd,
            "energy_usd": self.energy_usd,
            "total_usd": self.total_usd,
        }

    def __repr__(self) -> str:
        return "CostBreakdown($%.3g/req, %.3gs)" % (self.total_usd,
                                                    self.duration_s)


class CostModel:
    """Configurable rates applied to measurements and serve results."""

    __slots__ = ("usd_per_gb_s", "usd_per_invocation", "usd_per_kwh", "pue",
                 "energy_model")

    def __init__(self, *, usd_per_gb_s: float = DEFAULT_USD_PER_GB_S,
                 usd_per_invocation: float = DEFAULT_USD_PER_INVOCATION,
                 usd_per_kwh: float = DEFAULT_USD_PER_KWH,
                 pue: float = DEFAULT_PUE,
                 energy_model: Optional[EnergyModel] = None):
        for label, value in (("usd_per_gb_s", usd_per_gb_s),
                             ("usd_per_invocation", usd_per_invocation),
                             ("usd_per_kwh", usd_per_kwh)):
            if value < 0:
                raise ValueError("%s cannot be negative" % label)
        if pue < 1.0:
            raise ValueError("pue cannot be below 1.0 (that would mean the "
                             "datacenter creates energy)")
        self.usd_per_gb_s = usd_per_gb_s
        self.usd_per_invocation = usd_per_invocation
        self.usd_per_kwh = usd_per_kwh
        self.pue = pue
        self.energy_model = energy_model or EnergyModel()

    @classmethod
    def from_overrides(cls, overrides: Optional[Dict[str, float]] = None,
                       energy_model: Optional[EnergyModel] = None
                       ) -> "CostModel":
        """Defaults with an experiment spec's ``cost:`` dict applied."""
        overrides = dict(overrides or {})
        unknown = set(overrides) - set(COST_RATE_FIELDS)
        if unknown:
            raise ValueError("unknown cost rates: %s"
                             % ", ".join(sorted(unknown)))
        return cls(energy_model=energy_model, **overrides)

    def as_dict(self) -> Dict[str, float]:
        """The rates, for embedding in result artifacts."""
        return {field: getattr(self, field) for field in COST_RATE_FIELDS}

    def fingerprint(self) -> str:
        """Compact rate identity, e.g. ``gbs1.67e-05.inv2e-07.kwh0.1.pue1.35``."""
        return "gbs%g.inv%g.kwh%g.pue%g" % (
            self.usd_per_gb_s, self.usd_per_invocation, self.usd_per_kwh,
            self.pue)

    def _energy_usd(self, joules: float) -> float:
        """Project IT joules to dollars: J → kWh × rate × PUE."""
        return joules / 3.6e6 * self.usd_per_kwh * self.pue

    def invocation_cost(self, stats, *, memory_mb: int,
                        time_scale: int = 1) -> CostBreakdown:
        """Bill one measured request Lambda-style (request duration).

        ``stats`` is a :class:`~repro.core.harness.RequestStats`;
        ``time_scale`` projects scaled simulation cycles back to native
        cycles (see ``repro.core.scale``).  Duration is native seconds
        at the 1 GHz clock divided by the grant's CPU share — a
        128 MB instance runs the same cycles on ~7% of a core.
        """
        native_cycles = stats.cycles * time_scale
        duration_s = native_cycles / CYCLES_PER_SECOND / cpu_share(memory_mb)
        gb_s = (memory_mb / 1024.0) * duration_s
        joules = self.energy_model.estimate(stats).joules * time_scale
        return CostBreakdown(
            duration_s=duration_s,
            gb_s=gb_s,
            compute_usd=gb_s * self.usd_per_gb_s,
            request_usd=self.usd_per_invocation,
            energy_usd=self._energy_usd(joules),
        )

    def serving_cost(self, *, instance_ticks: float, admitted: int,
                     memory_mb: int) -> CostBreakdown:
        """Bill a serve run Knative-style (provisioned instance uptime).

        ``instance_ticks`` is ∫ instances dt over the serve timeline
        (idle keep-alive time included — that is the point), as
        computed by :func:`repro.experiments.runner.instance_ticks`.
        Returns the **per-admitted-request** share of the run's bill.
        """
        if admitted <= 0:
            raise ValueError("serving cost needs at least one admitted "
                             "request")
        uptime_s = instance_ticks * SECONDS_PER_TICK
        gb_s = (memory_mb / 1024.0) * uptime_s
        compute_usd = gb_s * self.usd_per_gb_s
        return CostBreakdown(
            duration_s=uptime_s / admitted,
            gb_s=gb_s / admitted,
            compute_usd=compute_usd / admitted,
            request_usd=self.usd_per_invocation,
            energy_usd=0.0,
        )

    def __repr__(self) -> str:
        return "CostModel(%s)" % self.fingerprint()
