"""The experiment harness: Fig 4.1's protocol, end to end.

For each benchmark function on each simulated platform:

* **setup mode** — boot the system (OpenSBI where applicable, kernel,
  userspace, dockerd) plus any service containers (the database boot that
  took the thesis ~a week of simulation for Cassandra/RISC-V) on the
  Atomic core, then take a checkpoint right before the first request;
* **evaluation mode** — restore the checkpoint, switch the server core to
  the O3 model, stat-reset, measure request 1 (**cold**), functionally
  execute requests 2–9 (microarchitectural warming without detailed
  timing), stat-reset, measure request 10 (**warm**), stat-dump.

The KVM core can be selected for setup mode, but — as in the thesis
(§3.4.1) — its m5 ops freeze sporadically; the harness then falls back to
the Atomic core and records that it did.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.core.config import PlatformConfig, platform_for
from repro.core.scale import BENCH, SimScale
from repro.obs.attribution import snapshot_delta
from repro.obs.tracer import TRACK_CACHE, TRACK_INVOCATION, TRACK_TLB
from repro.serverless.engine import install_docker
from repro.serverless.faas import FaasPlatform, InvocationRecord
from repro.sim.checkpoint import Checkpoint, restore_checkpoint, take_checkpoint
from repro.sim.cpu.kvm import KvmInstabilityError
from repro.sim.system import SimulatedSystem

if False:  # pragma: no cover - import cycle guard; used in annotations only
    from repro.workloads.function import VSwarmFunction

SERVER_CORE = 1
CLIENT_CORE = 0

#: Post-boot checkpoints, shared across harnesses exactly as the thesis
#: reuses one boot checkpoint for every experiment on a platform
#: (§2.4.3): keyed by (isa, scale, seed, service stores).
_BOOT_CHECKPOINT_CACHE: Dict[tuple, Checkpoint] = {}


def clear_boot_checkpoint_cache() -> None:
    """Drop cached post-boot checkpoints (tests use this for isolation)."""
    _BOOT_CHECKPOINT_CACHE.clear()


class RequestStats:
    """The per-request counters the thesis collects (§4.1.2.3)."""

    FIELDS = (
        "cycles", "instructions", "l1i_misses", "l1d_misses", "l2_misses",
        "l1i_accesses", "l1d_accesses", "l2_accesses", "branch_mispredicts",
    )

    def __init__(self, cycles: int, instructions: int, dump: Dict[str, float],
                 system_name: str):
        prefix = "%s.core%d" % (system_name, SERVER_CORE)
        self.cycles = cycles
        self.instructions = instructions
        self.l1i_misses = int(dump["%s.l1i.misses" % prefix])
        self.l1d_misses = int(dump["%s.l1d.misses" % prefix])
        self.l2_misses = int(dump["%s.l2.misses" % prefix])
        self.l1i_accesses = int(dump["%s.l1i.accesses" % prefix])
        self.l1d_accesses = int(dump["%s.l1d.accesses" % prefix])
        self.l2_accesses = int(dump["%s.l2.accesses" % prefix])
        self.branch_mispredicts = int(dump.get(
            "%s.cpu%d.o3.bpred.mispredicts" % (system_name, SERVER_CORE), 0))
        self.raw_dump = dump

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def l1_misses(self) -> int:
        return self.l1i_misses + self.l1d_misses

    @property
    def l1_data_miss_share(self) -> float:
        total = self.l1_misses
        return self.l1d_misses / total if total else 0.0

    def as_dict(self, full: bool = False) -> Dict[str, Any]:
        """The measured counters; ``full=True`` adds the derived CPI and
        the raw stat dump so :meth:`from_dict` can round-trip losslessly
        (the result cache and JSON exporters rely on this)."""
        out: Dict[str, Any] = {field: getattr(self, field)
                               for field in self.FIELDS}
        if full:
            out["cpi"] = self.cpi
            out["raw_dump"] = dict(self.raw_dump)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RequestStats":
        """Inverse of ``as_dict(full=True)`` (tolerates the slim form)."""
        stats = cls.__new__(cls)
        for field in cls.FIELDS:
            setattr(stats, field, data[field])
        stats.raw_dump = dict(data.get("raw_dump", {}))
        return stats

    def __repr__(self) -> str:
        return "RequestStats(cycles=%d, insts=%d, cpi=%.2f)" % (
            self.cycles, self.instructions, self.cpi,
        )


class FunctionMeasurement:
    """Cold + warm measurements for one function on one platform."""

    def __init__(self, function: str, isa: str, cold: RequestStats, warm: RequestStats,
                 records: List[InvocationRecord], setup_notes: Optional[List[str]] = None):
        self.function = function
        self.isa = isa
        self.cold = cold
        self.warm = warm
        self.records = records
        self.setup_notes = setup_notes or []
        #: Frozen trace capture (``Tracer.freeze()``) when the
        #: measurement ran traced; None otherwise.
        self.trace: Optional[Dict[str, Any]] = None

    @property
    def cold_warm_cycle_ratio(self) -> float:
        return self.cold.cycles / self.warm.cycles if self.warm.cycles else 0.0

    def as_dict(self, full: bool = False) -> Dict[str, Any]:
        """Round-trippable view; ``full=True`` keeps raw dumps, records
        and the trace capture so :meth:`from_dict` restores everything
        the tier-1 identity tests compare."""
        out: Dict[str, Any] = {
            "function": self.function,
            "isa": self.isa,
            "cold": self.cold.as_dict(full=full),
            "warm": self.warm.as_dict(full=full),
            "setup_notes": list(self.setup_notes),
        }
        if full:
            out["records"] = [record.as_dict() for record in self.records]
            out["trace"] = self.trace
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FunctionMeasurement":
        measurement = cls(
            function=data["function"],
            isa=data["isa"],
            cold=RequestStats.from_dict(data["cold"]),
            warm=RequestStats.from_dict(data["warm"]),
            records=[InvocationRecord.from_dict(record)
                     for record in data.get("records", [])],
            setup_notes=list(data.get("setup_notes", [])),
        )
        measurement.trace = data.get("trace")
        return measurement

    def __repr__(self) -> str:
        return "FunctionMeasurement(%s/%s: cold=%d, warm=%d)" % (
            self.function, self.isa, self.cold.cycles, self.warm.cycles,
        )


class LukewarmMeasurement:
    """Cold / warm / lukewarm triple for one function."""

    def __init__(self, base: FunctionMeasurement, lukewarm: RequestStats,
                 intruder: str):
        self.base = base
        self.lukewarm = lukewarm
        self.intruder = intruder

    @property
    def cold(self) -> RequestStats:
        return self.base.cold

    @property
    def warm(self) -> RequestStats:
        return self.base.warm

    @property
    def lukewarm_slowdown(self) -> float:
        """Lukewarm cycles over warm cycles (1.0 = no thrashing effect)."""
        return self.lukewarm.cycles / self.warm.cycles if self.warm.cycles else 0.0

    def __repr__(self) -> str:
        return "LukewarmMeasurement(%s vs %s: cold=%d warm=%d lukewarm=%d)" % (
            self.base.function, self.intruder, self.cold.cycles,
            self.warm.cycles, self.lukewarm.cycles,
        )


class ExperimentHarness:
    """Drives the setup/evaluation protocol for one simulated platform."""

    def __init__(
        self,
        isa: str = "riscv",
        scale: SimScale = BENCH,
        platform_config: Optional[PlatformConfig] = None,
        setup_cpu: str = "atomic",
        seed: int = 0,
        tracer=None,
        faults=None,
        sampling=None,
        vector=None,
    ):
        self.isa = isa
        self.scale = scale
        self.config = platform_config or platform_for(isa)
        self.setup_cpu = setup_cpu
        self.seed = seed
        #: Optional :class:`~repro.sim.sampling.SamplingConfig`.  When
        #: set, the measured (O3) runs use sampled simulation; setup-mode
        #: work (boot, warming) is unaffected — it is already functional.
        #: ``None`` runs every detailed instruction exactly as before.
        self.sampling = sampling
        #: Optional :class:`~repro.sim.isa.vector.VectorConfig`.  When
        #: set, the system's ISA instance carries a vector unit and
        #: vector IR lowers to vector streams; ``None`` keeps the
        #: scalar-only lowering (vector IR degrades element-by-element).
        self.vector = vector
        #: Optional :class:`repro.obs.Tracer`.  Attached to the system
        #: only once measurement starts (after checkpoint restore), so a
        #: fresh-boot run and a cached-checkpoint run trace the same
        #: measured region and produce byte-identical captures.
        self.tracer = tracer
        #: Optional :class:`repro.faults.FaultInjector` (an *armed* plan).
        #: Threaded into the container engine, the FaaS platform and the
        #: memcached wrapper during measurement; ``None`` keeps every
        #: layer on its exact pre-fault path.
        self.faults = faults
        if faults is not None and tracer is not None:
            faults.tracer = tracer
        self.system = SimulatedSystem(
            name="sys",
            isa_name=isa,
            mem_config=self.config.mem_config.scaled(scale.space),
            o3_config=self.config.o3_config,
            num_cores=self.config.num_cores,
            frequency=self.config.frequency,
            seed=seed,
            vector=vector,
        )
        self._boot_checkpoint: Optional[Checkpoint] = None
        self.setup_notes: List[str] = []

    # -- setup mode -----------------------------------------------------------

    def prepare(self, service_stores: Iterable[Any] = ()) -> Checkpoint:
        """Boot the platform (and service containers), take the checkpoint.

        Boot checkpoints are cached per (platform, scale, seed, services)
        so the multi-hour setup phase is paid once, as in the thesis's
        workflow.  Atomic-setup boots are additionally layered: a
        checkpoint is cached after the base boot and after each service
        boot, so two service sets sharing a prefix (say ``(cassandra,)``
        and ``(cassandra, memcached)``) replay the expensive database
        boot once per process, not once per distinct set.  Restoring a
        layer and continuing is state-identical to booting straight
        through — a checkpoint is a lossless snapshot of exactly the
        state the continued boot would have seen.
        """
        from repro.workloads.boot import build_boot_program, build_db_boot_program

        # Instantiate the setup core on every path, booted or restored
        # from cache, so a stat dump lists the same keys whatever this
        # process measured before.
        self.system.cpu(SERVER_CORE, self.setup_cpu)
        stores = list(service_stores)
        base_key = (
            self.isa, self.scale.time, self.scale.space, self.seed,
            self.setup_cpu, self.config.fingerprint(),
            self.vector.fingerprint() if self.vector is not None else None,
        )
        names = tuple(store.name for store in stores)
        full_key = base_key + (tuple(sorted(names)),)
        cached = _BOOT_CHECKPOINT_CACHE.get(full_key)
        if cached is not None:
            self._boot_checkpoint = cached
            return cached

        if self.setup_cpu == "kvm":
            # KVM setup keeps the legacy straight-through path: its
            # checkpoint op can fail mid-way and downgrade the setup CPU,
            # which layered continuation would have to unwind.
            boot = build_boot_program(self.isa, self.scale, seed=self.seed)
            self._run_setup_program(boot)
            for store in stores:
                db_boot = build_db_boot_program(store, self.isa, self.scale,
                                                seed=self.seed)
                self._run_setup_program(db_boot)
            self._boot_checkpoint = self._take_setup_checkpoint()
            _BOOT_CHECKPOINT_CACHE[full_key] = self._boot_checkpoint
            return self._boot_checkpoint

        layer_key = lambda i: base_key + ("layer", names[:i])
        booted = 0
        checkpoint = None
        for i in range(len(names), -1, -1):
            checkpoint = _BOOT_CHECKPOINT_CACHE.get(layer_key(i))
            if checkpoint is not None:
                booted = i
                break
        if checkpoint is None:
            boot = build_boot_program(self.isa, self.scale, seed=self.seed)
            self._run_setup_program(boot)
            checkpoint = self._take_setup_checkpoint()
            _BOOT_CHECKPOINT_CACHE[layer_key(0)] = checkpoint
        elif booted < len(names):
            restore_checkpoint(self.system, checkpoint)
        for i in range(booted, len(names)):
            db_boot = build_db_boot_program(stores[i], self.isa, self.scale,
                                            seed=self.seed)
            self._run_setup_program(db_boot)
            checkpoint = self._take_setup_checkpoint()
            _BOOT_CHECKPOINT_CACHE[layer_key(i + 1)] = checkpoint
        self._boot_checkpoint = checkpoint
        _BOOT_CHECKPOINT_CACHE[full_key] = checkpoint
        return self._boot_checkpoint

    def _run_setup_program(self, program) -> None:
        if self.setup_cpu == "kvm":
            self.system.run(SERVER_CORE, program, model="kvm", seed=self.seed)
        else:
            self.system.run(SERVER_CORE, program, model="atomic", seed=self.seed)

    def _take_setup_checkpoint(self) -> Checkpoint:
        if self.setup_cpu == "kvm":
            kvm = self.system.cpu(SERVER_CORE, "kvm")
            try:
                kvm.execute_m5_op("checkpoint")
            except KvmInstabilityError as error:
                # The documented workaround: redo setup with the Atomic core.
                self.setup_notes.append(
                    "KVM froze on checkpoint (%s); fell back to Atomic setup" % error
                )
                self.setup_cpu = "atomic"
        return take_checkpoint(self.system, payload={"phase": "post-boot"},
                               label="post-boot")

    @property
    def prepared(self) -> bool:
        return self._boot_checkpoint is not None

    # -- observability --------------------------------------------------------

    def _attach_observability(self):
        """Wire the tracer and miss profilers in; returns the profilers.

        Called after checkpoint restore (never during setup) so traced
        runs see exactly the measured region regardless of whether the
        boot checkpoint came from this harness or the shared cache.
        """
        if self.tracer is None:
            return None
        self.system.attach_tracer(self.tracer)
        return self.system.attach_profilers(SERVER_CORE)

    def _emit_request_spans(self, profilers, before, sequence: int,
                            requests: int, start: int) -> None:
        """Close out one protocol request: per-unit miss-attribution
        spans (snapshot deltas) plus the request wrap span."""
        tracer = self.tracer
        now = tracer.now
        dur = now - start if now > start else 1
        for name, profiler in profilers.items():
            delta = snapshot_delta(profiler.snapshot(), before[name])
            if not any(delta.values()):
                continue
            is_tlb = name in ("itlb", "dtlb")
            tracer.complete(name, "tlb" if is_tlb else "cache", start, dur,
                            TRACK_TLB if is_tlb else TRACK_CACHE,
                            args=delta)
        if sequence == 0:
            phase = "cold"
        elif sequence == requests - 1:
            phase = "warm"
        else:
            phase = "warming"
        tracer.complete("request#%d" % (sequence + 1), "protocol", start,
                        dur, TRACK_INVOCATION, args={"phase": phase})

    # -- evaluation mode ----------------------------------------------------------

    def measure_function(
        self,
        function: "VSwarmFunction",
        services: Optional[Dict[str, Any]] = None,
        requests: int = 10,
        payload_factory=None,
    ) -> FunctionMeasurement:
        """Run the 10-request protocol; returns cold + warm measurements."""
        if requests < 2:
            raise ValueError("the protocol needs at least 2 requests (cold + warm)")
        if not self.prepared:
            self.prepare(service_stores=self._stores_of(services))
        restore_checkpoint(self.system, self._boot_checkpoint)
        self.system.switch_cpu(SERVER_CORE, "o3")
        tracer = self.tracer
        profilers = self._attach_observability()

        services = self._wrap_services(services or {})
        engine = install_docker(self.isa, tracer=tracer, faults=self.faults)
        engine.registry.push(function.image(self.isa))
        platform = FaasPlatform(engine, server_core=SERVER_CORE,
                                tracer=tracer, faults=self.faults)
        platform.deploy(function.name, function.name, function.runtime_name,
                        function.handler, services=services)

        records: List[InvocationRecord] = []
        cold_stats: Optional[RequestStats] = None
        warm_stats: Optional[RequestStats] = None
        for sequence in range(requests):
            if tracer is not None:
                request_start = tracer.now
                before = {name: profiler.snapshot()
                          for name, profiler in profilers.items()}
            if payload_factory is not None:
                payload = payload_factory(sequence)
            else:
                payload = function.default_payload(sequence)
            # Under an armed fault plan, injected crashes become error
            # records (the production-FaaS 500) instead of aborting the
            # protocol; fault-less runs keep the strict pre-fault path.
            record = platform.invoke(function.name, payload,
                                     raise_errors=self.faults is None)
            records.append(record)
            program = function.invocation_program(record, services, self.scale,
                                                  seed=self.seed)
            measured = sequence == 0 or sequence == requests - 1
            if measured:
                self.system.reset_stats()  # m5 reset
                result = self.system.run(SERVER_CORE, program, model="o3",
                                         seed=self.seed,
                                         sampling=self.sampling)
                dump = self.system.dump_stats()  # m5 dump
                stats = RequestStats(result.cycles, result.instructions, dump,
                                     self.system.name)
                if sequence == 0:
                    cold_stats = stats
                else:
                    warm_stats = stats
            else:
                warmed = self.system.warm(SERVER_CORE, program, seed=self.seed)
                if tracer is not None:
                    # Functional fast-forward: one tick per instruction.
                    tracer.advance(warmed)
            if tracer is not None:
                self._emit_request_spans(profilers, before, sequence,
                                         requests, request_start)
        assert cold_stats is not None and warm_stats is not None
        return FunctionMeasurement(function.name, self.isa, cold_stats, warm_stats,
                                   records, setup_notes=list(self.setup_notes))

    def measure_pipeline(
        self,
        deploy,
        requests: int = 10,
        payload_factory=None,
    ) -> FunctionMeasurement:
        """Measure a chained multi-function benchmark.

        ``deploy(platform, isa)`` deploys every stage onto the given FaaS
        platform and returns the driver function.  The driver's measured
        request includes the composed work of every downstream stage it
        invoked — cold starts of cold stages included.
        """
        if requests < 2:
            raise ValueError("the protocol needs at least 2 requests")
        if not self.prepared:
            self.prepare()
        restore_checkpoint(self.system, self._boot_checkpoint)
        self.system.switch_cpu(SERVER_CORE, "o3")
        tracer = self.tracer
        profilers = self._attach_observability()

        engine = install_docker(self.isa, tracer=tracer, faults=self.faults)
        platform = FaasPlatform(engine, server_core=SERVER_CORE,
                                tracer=tracer, faults=self.faults)
        function = deploy(platform, self.isa)
        services = platform.function(function.name).services

        records: List[InvocationRecord] = []
        cold_stats: Optional[RequestStats] = None
        warm_stats: Optional[RequestStats] = None
        for sequence in range(requests):
            if tracer is not None:
                request_start = tracer.now
                before = {name: profiler.snapshot()
                          for name, profiler in profilers.items()}
            if payload_factory is not None:
                payload = payload_factory(sequence)
            else:
                payload = function.default_payload(sequence)
            # Under an armed fault plan, injected crashes become error
            # records (the production-FaaS 500) instead of aborting the
            # protocol; fault-less runs keep the strict pre-fault path.
            record = platform.invoke(function.name, payload,
                                     raise_errors=self.faults is None)
            records.append(record)
            program = function.invocation_program(record, services, self.scale,
                                                  seed=self.seed)
            if sequence == 0 or sequence == requests - 1:
                self.system.reset_stats()
                result = self.system.run(SERVER_CORE, program, model="o3",
                                         seed=self.seed,
                                         sampling=self.sampling)
                dump = self.system.dump_stats()
                stats = RequestStats(result.cycles, result.instructions, dump,
                                     self.system.name)
                if sequence == 0:
                    cold_stats = stats
                else:
                    warm_stats = stats
            else:
                warmed = self.system.warm(SERVER_CORE, program, seed=self.seed)
                if tracer is not None:
                    tracer.advance(warmed)
            if tracer is not None:
                self._emit_request_spans(profilers, before, sequence,
                                         requests, request_start)
        assert cold_stats is not None and warm_stats is not None
        return FunctionMeasurement(function.name, self.isa, cold_stats,
                                   warm_stats, records,
                                   setup_notes=list(self.setup_notes))

    def measure_lukewarm(
        self,
        function: "VSwarmFunction",
        intruder: "VSwarmFunction",
        services: Optional[Dict[str, Any]] = None,
        intruder_services: Optional[Dict[str, Any]] = None,
        requests: int = 10,
    ) -> "LukewarmMeasurement":
        """Quantify the lukewarm effect (§2.1): warm software, cold core.

        Runs the standard protocol for ``function``, then executes one
        cold pass of ``intruder`` on the same core — thrashing its caches
        and predictor — and re-measures the victim's software-warm
        request.  "The execution of other functions in between cause the
        thrashing of caches and the microarchitectural state, leading
        every invocation to lukewarm execution."
        """
        base = self.measure_function(function, services=services,
                                     requests=requests)
        intruder_services = intruder_services or {}
        intruder_record = InvocationRecord(
            function=intruder.name, runtime=intruder.runtime_name,
            cold=True, request_bytes=64, sequence=1,
        )
        # The intruder's real handler runs so its receipts are genuine.
        from repro.serverless.faas import InvocationContext

        context = InvocationContext(intruder_record, intruder_services, {})
        for service in intruder_services.values():
            if hasattr(service, "take_receipt"):
                service.take_receipt()
        intruder_record.result = intruder.handler(
            intruder.default_payload(0), context)
        for name, service in intruder_services.items():
            if hasattr(service, "take_receipt"):
                intruder_record.attach_receipt(name, service.take_receipt())
        intruder_program = intruder.invocation_program(
            intruder_record, intruder_services, self.scale, seed=self.seed)
        warmed = self.system.warm(SERVER_CORE, intruder_program, seed=self.seed)
        if self.tracer is not None:
            self.tracer.advance(warmed)

        victim_program = function.invocation_program(
            base.records[-1], services or {}, self.scale, seed=self.seed)
        self.system.reset_stats()
        result = self.system.run(SERVER_CORE, victim_program, model="o3",
                                 seed=self.seed, sampling=self.sampling)
        dump = self.system.dump_stats()
        lukewarm = RequestStats(result.cycles, result.instructions, dump,
                                self.system.name)
        return LukewarmMeasurement(base, lukewarm, intruder.name)

    def _wrap_services(self, services: Dict[str, Any]) -> Dict[str, Any]:
        """Under an armed fault plan, put memcached behind the breaker.

        The :class:`~repro.faults.ResilientCache` degrades injected
        ``db.timeout`` fires to cache misses, so cached handlers fall
        through to the backing DB with no handler changes.  With no
        faults the services pass through untouched.
        """
        if self.faults is None:
            return services
        from repro.faults.policy import ResilientCache

        wrapped = dict(services)
        cache = wrapped.get("memcached")
        if cache is not None and not isinstance(cache, ResilientCache):
            wrapped["memcached"] = ResilientCache(cache, injector=self.faults)
        return wrapped

    @staticmethod
    def _stores_of(services: Optional[Dict[str, Any]]) -> List[Any]:
        if not services:
            return []
        return [service for service in services.values()
                if hasattr(service, "boot_profile")]


def run_suite(
    functions: Iterable["VSwarmFunction"],
    isa: str,
    scale: SimScale = BENCH,
    services_for=None,
    seed: int = 0,
) -> Dict[str, FunctionMeasurement]:
    """Measure a batch of functions on one platform.

    ``services_for(function)`` supplies the bound services (database,
    memcached) per function; each function gets a fresh harness so one
    benchmark's microarchitectural state never leaks into another — the
    per-function checkpoint discipline of the thesis's workflow.
    """
    measurements: Dict[str, FunctionMeasurement] = {}
    for function in functions:
        harness = ExperimentHarness(isa=isa, scale=scale, seed=seed)
        services = services_for(function) if services_for else {}
        measurements[function.name] = harness.measure_function(function,
                                                               services=services)
    return measurements
