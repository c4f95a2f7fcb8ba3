"""Concurrency autoscaling: the Knative-KPA analog for instance pools.

The single-instance measurement path (``FaasPlatform.invoke``) shows the
paper's cold/warm dichotomy one request at a time.  What it cannot show
is the *service-level* behaviour the related work (Serv-Drishti,
Vitamin-V) argues actually dominates production serverless: requests
contending for instances, queues building during bursts, and the
cold-start storms a concurrency-driven autoscaler triggers when it
reacts to that contention.  This module supplies the scaling half of
that story; :mod:`repro.serverless.router` supplies the queueing half.

The model follows Knative's KPA (pod autoscaler) shape:

* **target concurrency** — each instance serves at most
  ``target_concurrency`` requests at once (Knative's
  ``containerConcurrency``); desired instances =
  ``ceil(observed_concurrency / target_concurrency)``;
* **stable vs panic window** — observed concurrency is a time-weighted
  average over a long *stable* window, but when the short *panic*
  window's average crosses ``panic_threshold`` × current capacity the
  autoscaler enters panic mode: it scales on the short window and never
  scales down until the panic expires;
* **scale to zero** — idle instances are reaped through the existing
  :class:`~repro.serverless.faas.KeepAlivePolicy`, so a pool that sees
  no traffic for ``scale_to_zero_after`` ticks shrinks back to
  ``min_instances`` (and the next burst pays cold starts again — the
  amplification loop the paper's cold/warm numbers predict).

Everything is deterministic: decisions depend only on the logical tick
clock and the observed sample history, never on wall clock, so two serve
runs with the same seed produce byte-identical scaling-event logs
(asserted by ``tests/serverless/test_router.py``).

Cost: the autoscaler stores the demand signal with its prefix integrals
(the exact integer area up to each sample), so a window average is two
bisects and a subtraction — O(log history) per evaluation — and history
is trimmed, amortised O(1) per sample, to what the stable window covers.
An integer area below 2**53 converts to a float exactly, so the average
is the same double a segment-by-segment float sum would give.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Any, Dict, List, Optional, Tuple

_CONFIG_FIELDS = (
    "target_concurrency", "max_instances", "min_instances",
    "queue_capacity", "stable_window", "panic_window", "panic_threshold",
    "scale_to_zero_after", "evaluate_every", "cold_start_ticks",
)


class ScalingConfig:
    """Autoscaler + router knobs, keyword-only and immutable.

    Instances are hashable and picklable and expose :meth:`fingerprint`
    so a scaling configuration can ride on a
    :class:`~repro.core.spec.MeasurementSpec` and participate in result
    cache identity — two serve experiments with different scaling knobs
    must never share a content address.

    ``target_concurrency``
        Requests one instance serves concurrently (Knative's
        ``containerConcurrency``).  The router enforces this as a hard
        bound; a property test asserts it is never exceeded.
    ``max_instances`` / ``min_instances``
        Pool size clamp.  ``min_instances=0`` enables scale-to-zero.
    ``queue_capacity``
        Bounded per-function queue; arrivals beyond it are rejected
        (admission control — the 429/overflow path, metered as
        ``serve.rejected`` on the record).
    ``stable_window`` / ``panic_window`` / ``panic_threshold``
        KPA windowing (ticks).  Panic triggers when the panic-window
        average demands ``panic_threshold`` × current ready capacity.
    ``scale_to_zero_after``
        Idle ticks before the keep-alive policy reaps instances.
    ``evaluate_every``
        Autoscaler evaluation period in ticks.
    ``cold_start_ticks``
        Runtime-initialisation ticks a new instance pays on top of the
        container engine's create+start costs before it can serve.
    """

    __slots__ = _CONFIG_FIELDS

    def __init__(self, *, target_concurrency: int = 1, max_instances: int = 8,
                 min_instances: int = 0, queue_capacity: int = 64,
                 stable_window: int = 600, panic_window: int = 60,
                 panic_threshold: float = 2.0, scale_to_zero_after: int = 1200,
                 evaluate_every: int = 20, cold_start_ticks: int = 64):
        if target_concurrency < 1:
            raise ValueError("target_concurrency must be >= 1")
        if max_instances < 1:
            raise ValueError("max_instances must be >= 1")
        if not 0 <= min_instances <= max_instances:
            raise ValueError("need 0 <= min_instances <= max_instances")
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if stable_window < 1 or panic_window < 1 or evaluate_every < 1:
            raise ValueError("windows and evaluate_every must be >= 1 tick")
        if panic_window > stable_window:
            raise ValueError("panic_window must not exceed stable_window")
        if panic_threshold <= 1.0:
            raise ValueError("panic_threshold must be > 1.0")
        if scale_to_zero_after < 1:
            raise ValueError("scale_to_zero_after must be >= 1 tick")
        if cold_start_ticks < 0:
            raise ValueError("cold_start_ticks must be >= 0")
        set_field = object.__setattr__
        set_field(self, "target_concurrency", int(target_concurrency))
        set_field(self, "max_instances", int(max_instances))
        set_field(self, "min_instances", int(min_instances))
        set_field(self, "queue_capacity", int(queue_capacity))
        set_field(self, "stable_window", int(stable_window))
        set_field(self, "panic_window", int(panic_window))
        set_field(self, "panic_threshold", float(panic_threshold))
        set_field(self, "scale_to_zero_after", int(scale_to_zero_after))
        set_field(self, "evaluate_every", int(evaluate_every))
        set_field(self, "cold_start_ticks", int(cold_start_ticks))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("ScalingConfig is immutable; use replace()")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("ScalingConfig is immutable; use replace()")

    def replace(self, **changes) -> "ScalingConfig":
        """A copy with the given knobs swapped (dataclasses.replace style)."""
        fields: Dict[str, Any] = {name: getattr(self, name)
                                  for name in _CONFIG_FIELDS}
        unknown = set(changes) - set(_CONFIG_FIELDS)
        if unknown:
            raise TypeError("unknown scaling fields: %s" % sorted(unknown))
        fields.update(changes)
        return ScalingConfig(**fields)

    @classmethod
    def pinned(cls, instances: int = 1, **overrides) -> "ScalingConfig":
        """Autoscaling effectively off: a fixed pool of ``instances``.

        ``min_instances == max_instances`` means the evaluator can never
        add or remove capacity, so the router degenerates to a static
        pool — with ``instances=1`` that is the single-instance world of
        the measurement pipeline, just with an explicit queue.
        """
        overrides.setdefault("target_concurrency", 1)
        return cls(min_instances=instances, max_instances=instances,
                   **overrides)

    def fingerprint(self) -> Tuple:
        """Identity tuple for result-cache keying and spec equality."""
        return tuple(getattr(self, name) for name in _CONFIG_FIELDS)

    def as_dict(self) -> Dict[str, Any]:
        """Round-trippable view (JSON exporters, `from_dict`)."""
        return {name: getattr(self, name) for name in _CONFIG_FIELDS}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScalingConfig":
        """Inverse of :meth:`as_dict`."""
        return cls(**{name: data[name] for name in _CONFIG_FIELDS})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScalingConfig):
            return NotImplemented
        return self.fingerprint() == other.fingerprint()

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    def __repr__(self) -> str:
        return "ScalingConfig(target=%d, instances=%d..%d, queue=%d)" % (
            self.target_concurrency, self.min_instances, self.max_instances,
            self.queue_capacity,
        )

    # -- pickling (slots, no __dict__) -------------------------------------

    def __getstate__(self):
        return {name: getattr(self, name) for name in _CONFIG_FIELDS}

    def __setstate__(self, state):
        for name in _CONFIG_FIELDS:
            object.__setattr__(self, name, state[name])


class ScalingEvent:
    """One autoscaler decision, stamped with the logical tick it fired.

    The serve report prints these via :meth:`format`; the determinism
    smoke test diffs the whole formatted log between two runs.
    """

    __slots__ = ("tick", "function", "kind", "from_instances",
                 "to_instances", "reason")

    #: Event kinds, in the vocabulary the report prints.
    UP = "scale-up"
    DOWN = "scale-down"
    TO_ZERO = "to-zero"
    PANIC_ENTER = "panic-enter"
    PANIC_EXIT = "panic-exit"
    BOOT_FAILED = "boot-failed"
    RECYCLE = "recycle"
    NODE_DOWN = "node-down"
    NODE_UP = "node-up"

    def __init__(self, tick: int, function: str, kind: str,
                 from_instances: int, to_instances: int, reason: str):
        self.tick = tick
        self.function = function
        self.kind = kind
        self.from_instances = from_instances
        self.to_instances = to_instances
        self.reason = reason

    def format(self) -> str:
        """Canonical single-line rendering (byte-stable across runs)."""
        return "[tick %8d] %-12s %-28s %d -> %d  (%s)" % (
            self.tick, self.kind, self.function,
            self.from_instances, self.to_instances, self.reason,
        )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready view for the ``serve --out`` artifact."""
        return {"tick": self.tick, "function": self.function,
                "kind": self.kind, "from": self.from_instances,
                "to": self.to_instances, "reason": self.reason}

    def __repr__(self) -> str:
        return "ScalingEvent(%s @ %d: %d -> %d)" % (
            self.kind, self.tick, self.from_instances, self.to_instances,
        )


def _integrals(ticks: List[int], values: List[int]) -> List[int]:
    """Prefix integrals of a step signal: entry ``i`` is the exact integer
    area from ``ticks[0]`` up to ``ticks[i]``."""
    integral = [0] * len(ticks)
    for index in range(1, len(ticks)):
        integral[index] = (integral[index - 1] + values[index - 1]
                           * (ticks[index] - ticks[index - 1]))
    return integral


def _average(ticks: List[int], values: List[int], integral: List[int],
             first: int, now: int, window: int) -> float:
    """Time-weighted mean of the step signal ``ticks[first:]`` /
    ``values[first:]`` over ``[now - window, now]``.

    The area under the signal up to ``x`` is ``integral[i] + values[i] *
    (x - ticks[i])`` for the last sample ``i`` at or before ``x`` (one
    bisect), and ``integral[first]`` before the first sample: the signal
    is zero there.  The window's area is the difference of its two
    endpoints' areas, an exact integer; dividing it by the window length
    gives the same double a segment-by-segment float sum would, because
    every partial sum below 2**53 is exact in a float.
    """
    if len(ticks) == first:
        return 0.0
    start = now - window
    if start < 0:
        start = 0
    if now <= start:
        return float(values[-1])

    def area(x: int) -> int:
        index = bisect_right(ticks, x, first) - 1
        if index < first:
            return integral[first]
        return integral[index] + values[index] * (x - ticks[index])

    return (area(now) - area(start)) / float(now - start)


def windowed_average(samples: List[Tuple[int, int]], now: int,
                     window: int) -> float:
    """Time-weighted average of a step signal over ``[now - window, now]``.

    ``samples`` is an ordered list of ``(tick, value)`` pairs: the signal
    holds ``value`` from ``tick`` until the next sample.  Ticks before
    the first sample count as zero — a pool that has only just seen
    traffic is mostly-idle over a long window, which is exactly the
    damping the stable window exists to provide.  The autoscaler keeps
    the prefix integrals incrementally; this one-shot form builds them.
    """
    ticks = [tick for tick, _ in samples]
    values = [value for _, value in samples]
    return _average(ticks, values, _integrals(ticks, values), 0, now,
                    window)


class ConcurrencyAutoscaler:
    """KPA-style desired-instance calculator over observed concurrency.

    The router feeds it ``observe(tick, in_flight)`` on every state
    change (``in_flight`` = requests executing + requests queued) and
    asks :meth:`desired` at each evaluation tick.  Pure arithmetic over
    the sample history — no randomness, no wall clock — so the decision
    stream is a deterministic function of the arrival trace.
    """

    def __init__(self, config: ScalingConfig, function: str):
        self.config = config
        self.function = function
        #: The step signal of in-flight demand as parallel lists: the
        #: signal holds ``values[i]`` from ``ticks[i]`` to the next tick,
        #: and ``integral[i]`` is its exact area up to ``ticks[i]``.
        #: Samples before ``first`` have expired out of the stable window.
        self.ticks: List[int] = []
        self.values: List[int] = []
        self.integral: List[int] = []
        self.first = 0
        #: Tick until which panic mode holds (0 = not panicking).
        self.panic_until = 0

    def observe(self, tick: int, in_flight: int) -> None:
        """Record the demand signal at ``tick`` (never earlier than the
        previous sample's tick)."""
        ticks, values, integral = self.ticks, self.values, self.integral
        if not ticks:
            ticks.append(tick)
            values.append(in_flight)
            integral.append(0)
        elif tick > ticks[-1]:
            integral.append(integral[-1] + values[-1] * (tick - ticks[-1]))
            ticks.append(tick)
            values.append(in_flight)
        elif tick == ticks[-1]:
            values[-1] = in_flight
        else:
            raise ValueError("%s: observed tick %d is earlier than the last "
                             "sample's tick %d" % (self.function, tick,
                                                   ticks[-1]))
        # Keep just enough history to cover the stable window: the last
        # sample at or before its start, and everything after it.
        horizon = tick - self.config.stable_window
        first = self.first
        last = len(ticks) - 2
        while first < last and ticks[first + 1] <= horizon:
            first += 1
        if 2 * first >= len(ticks):
            # Expired samples are half the lists: drop them in one go,
            # amortised O(1) per sample.
            del ticks[:first], values[:first], integral[:first]
            first = 0
        self.first = first

    @property
    def retained(self) -> int:
        """Samples the stable window still needs."""
        return len(self.ticks) - self.first

    def average(self, now: int, window: int) -> float:
        """Time-weighted demand over ``[now - window, now]``, O(log
        history); exact for ``now`` at or after the last sample and
        ``window`` up to ``stable_window``."""
        return _average(self.ticks, self.values, self.integral, self.first,
                        now, window)

    @property
    def panicking(self) -> bool:
        return self.panic_until > 0

    def desired(self, now: int, ready: int) -> Tuple[int, Optional[str]]:
        """Desired instance count at ``now`` given ``ready`` capacity.

        Returns ``(count, transition)`` where ``transition`` is
        ``"panic-enter"`` / ``"panic-exit"`` when this evaluation crossed
        a panic boundary (the router turns those into scaling events).
        """
        config = self.config
        stable_avg = self.average(now, config.stable_window)
        panic_avg = self.average(now, config.panic_window)
        want_stable = int(math.ceil(stable_avg / config.target_concurrency))
        want_panic = int(math.ceil(panic_avg / config.target_concurrency))

        transition: Optional[str] = None
        capacity = ready * config.target_concurrency
        if ready > 0 and panic_avg >= config.panic_threshold * capacity:
            if not self.panicking:
                transition = "panic-enter"
            self.panic_until = now + config.stable_window
        elif self.panicking and now >= self.panic_until:
            self.panic_until = 0
            transition = "panic-exit"

        if self.panicking:
            # Panic mode: scale on the short window, never down.
            want = max(want_panic, ready)
        else:
            want = want_stable
        if want < config.min_instances:
            want = config.min_instances
        if want > config.max_instances:
            want = config.max_instances
        return want, transition

    def __repr__(self) -> str:
        return "ConcurrencyAutoscaler(%s, %d samples%s)" % (
            self.function, self.retained,
            ", PANIC" if self.panicking else "",
        )
