"""ExperimentSpec: roundtrip, fingerprints, matrix expansion, validation."""

import json

import pytest

from repro.experiments import (
    MICROARCH_KNOBS,
    ExperimentSpec,
    platform_override,
)
from repro.experiments.spec import (
    MAX_L2_BYTES,
    MEASURE_KNOBS,
    MEMORY_REFERENCE_MB,
    MIN_L2_BYTES,
    SPEC_SCHEMA,
)


def sweep_spec(**overrides):
    document = {
        "name": "sweep",
        "kind": "measure",
        "base": {"function": "hotel-profile-go", "db": "cassandra",
                 "time_scale": 2048, "space_scale": 32},
        "axes": [["memory_mb", [256, 512]], ["isa", ["riscv", "x86"]]],
        "cost": {"usd_per_kwh": 0.25},
    }
    document.update(overrides)
    return ExperimentSpec.from_dict(document)


class TestRoundtrip:
    def test_dict_roundtrip_is_identity(self):
        spec = sweep_spec()
        document = spec.as_dict()
        again = ExperimentSpec.from_dict(document)
        assert again == spec
        assert again.as_dict() == document
        assert again.fingerprint() == spec.fingerprint()

    def test_as_dict_resolves_defaults(self):
        spec = ExperimentSpec.from_dict({"name": "mini", "kind": "measure"})
        document = spec.as_dict()
        assert document["schema"] == SPEC_SCHEMA
        assert document["base"] == dict(MEASURE_KNOBS)
        assert document["axes"] == []
        assert document["cost"] == {}

    def test_json_wire_form_roundtrips(self):
        spec = sweep_spec()
        wire = json.dumps(spec.as_dict())
        assert ExperimentSpec.from_dict(json.loads(wire)) == spec

    def test_yaml_roundtrip(self):
        yaml = pytest.importorskip("yaml")
        spec = sweep_spec()
        again = ExperimentSpec.from_yaml(yaml.safe_dump(spec.as_dict()))
        assert again == spec

    def test_schema_mismatch_rejected(self):
        document = sweep_spec().as_dict()
        document["schema"] = "repro.experiments.spec/v99"
        with pytest.raises(ValueError, match="schema"):
            ExperimentSpec.from_dict(document)

    def test_unknown_top_level_key_rejected(self):
        document = sweep_spec().as_dict()
        document["extra"] = 1
        with pytest.raises(ValueError, match="unknown spec keys"):
            ExperimentSpec.from_dict(document)


class TestFingerprint:
    def test_stable_across_spellings(self):
        via_dict = sweep_spec()
        via_ctor = ExperimentSpec(
            name="sweep", kind="measure",
            base={"function": "hotel-profile-go", "db": "cassandra",
                  "time_scale": 2048, "space_scale": 32},
            axes=(("memory_mb", (256, 512)), ("isa", ("riscv", "x86"))),
            cost={"usd_per_kwh": 0.25})
        assert via_ctor.fingerprint() == via_dict.fingerprint()
        assert via_ctor == via_dict

    def test_sensitive_to_every_part(self):
        spec = sweep_spec()
        assert spec.with_base(seed=1).fingerprint() != spec.fingerprint()
        assert sweep_spec(name="other").fingerprint() != spec.fingerprint()
        assert sweep_spec(cost={}).fingerprint() != spec.fingerprint()
        reordered = sweep_spec(axes=[["isa", ["riscv", "x86"]],
                                     ["memory_mb", [256, 512]]])
        assert reordered.fingerprint() != spec.fingerprint()

    def test_catalog_perf_cost_pin(self):
        # The committed artifact embeds this digest; a spec change must
        # consciously regenerate benchmarks/output/experiments/.
        from repro.experiments import get_experiment

        assert get_experiment("perf-cost").fingerprint() == \
            "22aa675dcd208d85"


class TestExpansion:
    def test_declared_order_last_axis_fastest(self):
        points = sweep_spec().expand()
        assert len(points) == 4
        assert [p.settings for p in points] == [
            {"memory_mb": 256, "isa": "riscv"},
            {"memory_mb": 256, "isa": "x86"},
            {"memory_mb": 512, "isa": "riscv"},
            {"memory_mb": 512, "isa": "x86"},
        ]
        assert points[0].knobs["function"] == "hotel-profile-go"
        assert points[0].label() == "memory_mb=256 isa=riscv"

    def test_no_axes_is_a_single_point(self):
        spec = ExperimentSpec(name="solo", kind="measure")
        points = spec.expand()
        assert len(points) == 1 == spec.point_count()
        assert points[0].settings == {}

    def test_measurement_spec_lowering(self):
        points = sweep_spec().expand()
        lowered = points[0].measurement_spec()
        assert lowered.function == "hotel-profile-go"
        assert lowered.isa == "riscv"
        assert lowered.db == "cassandra"
        assert lowered.scale.time == 2048 and lowered.scale.space == 32
        # 256 MB buys half the canonical L2 slice; 512 MB is canonical
        # (platform None keeps measurement digests byte-identical).
        assert lowered.platform.mem_config.l2_size == 256 * 1024
        assert points[2].measurement_spec().platform is None

    def test_hotel_db_defaults_to_cassandra(self):
        spec = ExperimentSpec(name="h", kind="measure",
                              base={"function": "hotel-geo-go"})
        assert spec.expand()[0].measurement_spec().db == "cassandra"
        plain = ExperimentSpec(name="p", kind="measure",
                               base={"function": "fibonacci-go",
                                     "db": "mongodb"})
        assert plain.expand()[0].measurement_spec().db is None

    def test_serve_points_do_not_lower(self):
        spec = ExperimentSpec(name="s", kind="serve")
        with pytest.raises(ValueError, match="measure-kind"):
            spec.expand()[0].measurement_spec()


class TestMicroarchKnobs:
    def test_only_when_set(self):
        # Unset knobs stay out of the canonical form, so adding them
        # moved no existing fingerprint; a set knob is part of it.
        plain = ExperimentSpec(name="m", kind="measure")
        assert not set(plain.as_dict()["base"]) & set(MICROARCH_KNOBS)
        tuned = ExperimentSpec(name="m", kind="measure",
                               base={"branch_predictor": "gshare"})
        assert tuned.as_dict()["base"]["branch_predictor"] == "gshare"
        assert tuned.fingerprint() != plain.fingerprint()
        assert ExperimentSpec.from_dict(tuned.as_dict()) == tuned

    def test_knobs_lower_to_one_platform_override(self):
        spec = ExperimentSpec(
            name="m", kind="measure", base={"rob_entries": 64},
            axes=[("l2_size", [131072, 524288]),
                  ("prefetch_d_kind", ["stride"])])
        small, canonical_l2 = [point.measurement_spec().platform
                               for point in spec.expand()]
        assert small.mem_config.l2_size == 131072
        assert canonical_l2.mem_config.l2_size == 524288
        for platform in (small, canonical_l2):
            assert platform.mem_config.prefetch_d_kind == "stride"
            assert platform.o3_config.rob_entries == 64

    def test_canonical_settings_lower_to_no_platform(self):
        # Knobs set to the canonical geometry keep plain-measure digests.
        spec = ExperimentSpec(
            name="m", kind="measure",
            base={"l2_size": 512 * 1024, "branch_predictor": "tournament"})
        assert spec.expand()[0].measurement_spec().platform is None
        assert platform_override("riscv", l2_size=512 * 1024) is None


class TestMemoryPlatform:
    def test_reference_grant_is_canonical(self):
        assert platform_override("riscv", MEMORY_REFERENCE_MB) is None

    def test_slice_scales_and_clamps(self):
        assert platform_override("riscv", 256).mem_config.l2_size \
            == 256 * 1024
        assert platform_override("x86", 2048).mem_config.l2_size \
            == 2048 * 1024
        assert platform_override("riscv", 16).mem_config.l2_size \
            == MIN_L2_BYTES
        assert platform_override("riscv", 65536).mem_config.l2_size \
            == MAX_L2_BYTES

    def test_only_l2_differs_from_canonical(self):
        from repro.core.config import platform_for

        base = platform_for("riscv")
        override = platform_override("riscv", 1024)
        assert override.isa == base.isa
        assert override.o3_config is base.o3_config
        assert override.mem_config.l1d_size == base.mem_config.l1d_size

    def test_digest_sees_platform_config(self):
        from repro.core.config import platform_for
        from repro.core.parallel import task_digest
        from repro.core.spec import MeasurementSpec

        base = MeasurementSpec(function="aes-go", time=4096, space=32)
        tweaked = base.replace(
            platform=platform_override("riscv", l2_size=64 * 1024))
        stock = base.replace(platform=platform_for("riscv"))
        assert task_digest(base) == task_digest(stock)
        assert task_digest(base) != task_digest(tweaked)


class TestValidation:
    def test_rejects_bad_inputs(self):
        cases = [
            (dict(name="", kind="measure"), "name"),
            (dict(name="two words", kind="measure"), "whitespace"),
            (dict(name="x", kind="drive"), "kind"),
            (dict(name="x", kind="measure", base={"rps": 9.0}), "knob"),
            (dict(name="x", kind="measure",
                  axes=[("nope", [1])]), "axis"),
            (dict(name="x", kind="measure",
                  axes=[("isa", [])]), "at least one"),
            (dict(name="x", kind="measure",
                  axes=[("isa", ["riscv"]), ("isa", ["x86"])]), "duplicate"),
            (dict(name="x", kind="measure",
                  cost={"usd_per_lightyear": 1.0}), "cost rate"),
            (dict(name="x", kind="measure",
                  base={"memory_mb": 0}), "memory_mb"),
            (dict(name="x", kind="measure", base={"memory_mb": 384}),
             "memory_mb 384 buys a 393216-byte L2 slice.*set count 1536"),
            (dict(name="x", kind="measure",
                  axes=[("memory_mb", [512, 1536])]), "memory_mb 1536"),
            (dict(name="x", kind="measure",
                  axes=[("isa", ["riscv", "x86"]),
                        ("memory_mb", [128, 3008])]), "memory_mb 3008"),
            (dict(name="x", kind="measure", base={"memory_mb": 100}),
             "memory_mb 100 .*set count 400"),
            (dict(name="x", kind="serve",
                  base={"profile": "tsunami"}), "profile"),
            (dict(name="x", kind="serve",
                  base={"placement": "everywhere"}), "placement"),
            (dict(name="x", kind="measure",
                  axes=[("memory_mb", [[128]])]), "scalar"),
            (dict(name="x", kind="measure", base={"replacement": "plru"}),
             "replacement 'plru' .known: fifo, lru, random"),
            (dict(name="x", kind="measure",
                  axes=[("branch_predictor", ["gshare", "oracle"])]),
             "known: bimodal, gshare, static-taken, tournament"),
            (dict(name="x", kind="measure",
                  base={"prefetch_i_kind": "markov"}),
             "known: none, nextline, stride"),
            (dict(name="x", kind="measure",
                  axes=[("prefetch_d_kind", ["stride", "markov"])]),
             "prefetch_d_kind 'markov'"),
            (dict(name="x", kind="measure", base={"l2_size": 0}),
             "l2_size must be an int >= 1"),
            (dict(name="x", kind="measure",
                  axes=[("rob_entries", [64, -1])]), "rob_entries"),
            (dict(name="x", kind="measure",
                  base={"dispatch_width": 0}), "dispatch_width"),
            (dict(name="x", kind="measure",
                  base={"prefetch_i_degree": -1}), "int >= 0"),
            (dict(name="x", kind="measure", base={"l2_size": 65536},
                  axes=[("memory_mb", [256, 512])]), "both set the L2"),
            (dict(name="x", kind="measure", base={"memory_mb": 1024},
                  axes=[("l2_size", [65536])]), "both set the L2"),
            (dict(name="x", kind="serve",
                  base={"branch_predictor": "gshare"}), "knob"),
        ]
        for kwargs, fragment in cases:
            with pytest.raises(ValueError, match=fragment):
                ExperimentSpec(**kwargs)

    def test_clamped_and_serve_grants_are_accepted(self):
        # Clamped grants buy a valid L2 whatever their size; serve
        # studies only price memory_mb, so any positive grant is fine.
        for memory_mb in (16, 5000):
            ExperimentSpec(name="x", kind="measure",
                           base={"memory_mb": memory_mb})
        ExperimentSpec(name="x", kind="serve", base={"memory_mb": 384})

    def test_immutable(self):
        spec = sweep_spec()
        with pytest.raises(AttributeError):
            spec.name = "renamed"
        base = spec.base
        base["seed"] = 99
        assert spec.base["seed"] == 0  # accessor returns a copy

    def test_with_base_override(self):
        spec = sweep_spec()
        reseeded = spec.with_base(seed=7)
        assert reseeded.seed == 7
        assert reseeded.name == spec.name
        assert reseeded.axes == spec.axes
        assert spec.seed == 0
