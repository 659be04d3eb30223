"""Fault-plan construction, validation, and the CLI spec grammar."""

import pytest

from repro.errors import ConfigError
from repro.faults.plan import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    parse_fault_plan,
    parse_fault_spec,
)


class TestFaultSpec:
    def test_valid_spec(self):
        spec = FaultSpec(kind="crash", variant=1, at=3)
        assert spec.param == 1
        assert spec.thread is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault kind"):
            FaultSpec(kind="meltdown", variant=0, at=0)

    def test_negative_variant_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec(kind="crash", variant=-1, at=0)

    def test_negative_trigger_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec(kind="stall", variant=0, at=-2)

    def test_describe_roundtrips_through_parser(self):
        spec = FaultSpec(kind="drop_wake", variant=2, at=5, param=3)
        assert parse_fault_spec(spec.describe()) == spec


class TestFaultPlan:
    def test_rejects_non_spec_entries(self):
        with pytest.raises(ConfigError, match="must be FaultSpec"):
            FaultPlan(("crash@v0:1",))

    def test_len_and_iter(self):
        specs = (FaultSpec(kind="crash", variant=0, at=1),
                 FaultSpec(kind="stall", variant=1, at=2))
        plan = FaultPlan(specs)
        assert len(plan) == 2
        assert tuple(plan) == specs

    def test_empty_plan_describe(self):
        assert FaultPlan().describe() == "<empty>"

    def test_random_plans_deterministic(self):
        for seed in range(8):
            first = FaultPlan.random(seed, n_variants=3)
            second = FaultPlan.random(seed, n_variants=3)
            assert first.describe() == second.describe()

    def test_random_plans_respect_kind_pinning(self):
        for seed in range(20):
            for spec in FaultPlan.random(seed, n_variants=3):
                assert spec.kind in FAULT_KINDS
                if spec.kind == "corrupt_sync":
                    assert spec.variant == 0
                if spec.kind == "clock_skew":
                    assert spec.variant >= 1
                assert 0 <= spec.variant < 3


class TestParser:
    def test_parse_single_spec(self):
        spec = parse_fault_spec("crash@v1:4")
        assert (spec.kind, spec.variant, spec.at, spec.param) == \
            ("crash", 1, 4, 1)

    def test_parse_spec_with_param(self):
        spec = parse_fault_spec("clock_skew@v2:6:1024")
        assert (spec.variant, spec.at, spec.param) == (2, 6, 1024)

    @pytest.mark.parametrize("bad", [
        "crash", "crash@1:2", "crash@v1", "crash@vX:2",
        "@v1:2", "crash@v1:two",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ConfigError):
            parse_fault_spec(bad)

    def test_parse_plan_list(self):
        plan = parse_fault_plan("crash@v1:3, stall@v2:5")
        assert [spec.kind for spec in plan] == ["crash", "stall"]

    def test_parse_plan_random_is_seeded(self):
        first = parse_fault_plan("random", seed=3, n_variants=3)
        second = parse_fault_plan("random", seed=3, n_variants=3)
        assert first.describe() == second.describe()
        assert len(first) >= 1
