"""The one report contract (repro.prof.regress)."""

import copy
import json

import pytest

from repro.errors import ReproError
from repro.prof.regress import (
    check,
    exit_code,
    load_report,
    render_findings,
    trajectory_entry,
)


def make_report(**overrides):
    report = {
        "kind": "repro-bench",
        "format_version": 2,
        "generated_unix": 1700000000,
        "jobs": 1,
        "quick": True,
        "matrix": {"benchmarks": ["fft", "dedup"],
                   "agents": ["wall_of_clocks"],
                   "variant_counts": [2], "scale": 0.05, "seed": 1,
                   "cells": 2},
        "serial": {"wall_s": 10.0, "ok": 2, "failed": 0,
                   "cell_wall_s": [4.0, 6.0]},
        "parallel": None,
        "speedup": None,
        "identical": None,
        "digest": "sha256:abc",
        "profile": {"benchmark": "fft", "agent": "wall_of_clocks",
                    "variants": 2,
                    "per_category": {"guest-compute": 800.0,
                                     "agent-wait": 200.0},
                    "total_cycles": 1000.0,
                    "machine_cycles": 500.0},
        "trajectory": [],
    }
    report.update(overrides)
    return report


def levels(findings):
    return {f.code: f.level for f in findings}


class TestLoadReport:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            load_report(str(tmp_path / "nope.json"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(ReproError, match="empty"):
            load_report(str(path))

    def test_truncated_json(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text(json.dumps(make_report())[:40])
        with pytest.raises(ReproError, match="not valid JSON"):
            load_report(str(path))

    def test_wrong_kind(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(ReproError, match="repro-bench"):
            load_report(str(path))

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(make_report()))
        assert load_report(str(path))["digest"] == "sha256:abc"


class TestCompare:
    def test_identical_reports_pass(self):
        findings = check(make_report(), make_report())
        assert exit_code(findings) == 0
        assert all(f.level == "info" for f in findings)

    def test_matrix_mismatch_fails_early(self):
        other = make_report()
        other["matrix"] = dict(other["matrix"], scale=0.1)
        findings = check(make_report(), other)
        assert levels(findings) == {"matrix-mismatch": "fail"}
        assert exit_code(findings) == 1

    def test_digest_divergence_fails(self):
        findings = check(make_report(digest="sha256:def"),
                                   make_report())
        assert levels(findings)["digest-divergence"] == "fail"
        assert exit_code(findings) == 1

    def test_wall_regression_warns_by_default(self):
        slow = make_report()
        slow["serial"] = dict(slow["serial"], wall_s=20.0)
        findings = check(slow, make_report())
        assert levels(findings)["serial-wall"] == "warn"
        assert exit_code(findings) == 0

    def test_wall_within_tolerance_is_info(self):
        near = make_report()
        near["serial"] = dict(near["serial"], wall_s=11.0)
        findings = check(near, make_report())
        assert levels(findings)["serial-wall"] == "info"

    def test_cell_wall_offenders_reported(self):
        slow = make_report()
        slow["serial"] = dict(slow["serial"],
                              cell_wall_s=[4.0, 12.0])
        findings = check(slow, make_report())
        assert levels(findings)["cell-wall"] == "warn"
        assert "cell 1" in next(f for f in findings
                                if f.code == "cell-wall").message

    def test_profile_shift_fails(self):
        shifted = make_report()
        shifted["profile"] = dict(
            shifted["profile"],
            per_category={"guest-compute": 700.0,
                          "agent-wait": 300.0})
        findings = check(shifted, make_report())
        assert levels(findings)["profile-shift"] == "fail"
        assert exit_code(findings) == 1

    def test_failed_cells_fail(self):
        broken = make_report()
        broken["serial"] = dict(broken["serial"], failed=1, ok=1)
        findings = check(broken, make_report())
        assert levels(findings)["failed-cells"] == "fail"

    def test_pre_v2_reference_skips_profile_check(self):
        old = make_report(format_version=1)
        del old["profile"]
        findings = check(make_report(), old)
        assert levels(findings)["profile"] == "info"
        assert exit_code(findings) == 0

    def test_render_findings_mentions_verdict(self):
        good = render_findings(check(make_report(), make_report()))
        assert "ok" in good
        bad = render_findings(
            check(make_report(digest="sha256:def"), make_report()))
        assert "REGRESSION" in bad


def make_overhead(**overrides):
    block = {
        "repeats": 3,
        "cell": {"sweep_id": "bench", "index": 0},
        "bare_wall_s": 1.0,
        "traced_wall_s": 1.02,
        "overhead_frac": 0.02,
        "spans_recorded": 3,
        "digest_identical": True,
    }
    block.update(overrides)
    return block


class TestOverheadGate:
    """The telemetry self-measurement: its overhead figure is reported,
    not compared; output perturbation hard-fails."""

    def test_matching_overhead_is_info(self):
        findings = check(
            make_report(observability_overhead=make_overhead()),
            make_report(observability_overhead=make_overhead()))
        assert all(f.level == "info" for f in findings)
        assert exit_code(findings) == 0

    def test_tolerance_scales_with_noisy_reference(self):
        # A quick-matrix reference with a huge (tiny-cell) overhead
        # fraction: jitter stays info, it does not warn.
        findings = check(
            make_report(
                observability_overhead=make_overhead(
                    overhead_frac=13.5)),
            make_report(
                observability_overhead=make_overhead(
                    overhead_frac=12.8)))
        assert all(f.level == "info" for f in findings)
        assert "observability-overhead" not in levels(findings)

    def test_digest_perturbation_hard_fails(self):
        broken = make_report(
            observability_overhead=make_overhead(
                digest_identical=False))
        findings = check(
            broken,
            make_report(observability_overhead=make_overhead()))
        assert levels(findings)["telemetry-perturbation"] == "fail"
        assert exit_code(findings) == 1

    def test_reference_without_block_is_info(self):
        findings = check(
            make_report(observability_overhead=make_overhead()),
            make_report())
        assert all(f.level == "info" for f in findings)
        assert exit_code(findings) == 0

    def test_new_report_without_block_stays_silent(self):
        findings = check(
            make_report(),
            make_report(observability_overhead=make_overhead()))
        assert "observability-overhead" not in levels(findings)
        assert "telemetry-perturbation" not in levels(findings)
        assert exit_code(findings) == 0


class TestHostGuard:
    """Wall figures only compare across hosts with one ``cpu_count``."""

    def test_differing_cpu_count_skips_wall_findings(self):
        slow = make_report(host={"cpu_count": 2},
                           serial={"wall_s": 99.0, "ok": 2, "failed": 0,
                                   "cell_wall_s": [40.0, 59.0]})
        findings = check(slow, make_report(host={"cpu_count": 1}))
        found = levels(findings)
        assert found["host-mismatch"] == "info"
        assert "serial-wall" not in found and "cell-wall" not in found
        assert exit_code(findings) == 0

    def test_same_cpu_count_still_compares_walls(self):
        slow = make_report(host={"cpu_count": 2},
                           serial={"wall_s": 99.0, "ok": 2, "failed": 0,
                                   "cell_wall_s": [40.0, 59.0]})
        findings = check(slow, make_report(host={"cpu_count": 2}))
        assert levels(findings)["serial-wall"] == "warn"
        assert "host-mismatch" not in levels(findings)

    def test_trajectory_entry_carries_cpu_count(self):
        entry = trajectory_entry(make_report(host={"cpu_count": 4}))
        assert entry["cpu_count"] == 4


class TestTrajectory:
    def test_entry_is_compact(self):
        entry = trajectory_entry(make_report())
        assert entry == {
            "generated_unix": 1700000000,
            "format_version": 2,
            "digest": "sha256:abc",
            "cells": 2,
            "jobs": 1,
            "serial_wall_s": 10.0,
        }

    def test_entry_records_environment(self):
        report = make_report(
            environment="process",
            parallel={"wall_s": 5.0, "ok": 2, "failed": 0})
        entry = trajectory_entry(report)
        assert entry["environment"] == "process"
        # Pre-environment references keep the historical entry shape.
        assert "environment" not in trajectory_entry(make_report())

    def test_comparison_does_not_mutate_inputs(self):
        new, ref = make_report(), make_report()
        before = copy.deepcopy((new, ref))
        check(new, ref)
        assert (new, ref) == before


def make_serve_report(**overrides):
    report = {
        "kind": "repro-serve-bench",
        "format_version": 2,
        "generated_unix": 1700000000,
        "config": {"sessions": 24, "concurrency": 12, "max_sessions": 8,
                   "jobs": 1, "env": None, "workload": "nginx",
                   "agent": "wall_of_clocks", "variants": 2,
                   "base_seed": 1, "mode": "batch"},
        "totals": {"completed": 24, "verdicts": {"clean": 24},
                   "rejected": 4, "failures": [], "peak_active": 8,
                   "recovered": {}},
        "wall_s": 1.0,
        "throughput_sps": 24.0,
        "digest": "sha256:abc",
        "verified_single_shot": True,
        "trajectory": [],
    }
    report.update(overrides)
    return report


def edited(report, path, value):
    """A deep copy of ``report`` with the dotted ``path`` set."""
    report = copy.deepcopy(report)
    *parents, key = path.split(".")
    block = report
    for parent in parents:
        block = block.setdefault(parent, {})
    block[key] = value
    return report


#: Per report kind: a fresh report, an identity edit and the finding it
#: gives, the edits each hard check catches, and a soft metric's edit.
CONTRACT_CASES = {
    "repro-bench": dict(
        make=lambda: make_report(
            host={"cpu_count": 2},
            observability_overhead=make_overhead()),
        identity=("matrix.scale", 0.1, "matrix-mismatch"),
        hard={"failed-cells": ("serial.failed", 1),
              "parallel-divergence": ("identical", False),
              "telemetry-perturbation": (
                  "observability_overhead.digest_identical", False)},
        soft=("serial.wall_s", 20.0, "serial-wall")),
    "repro-serve-bench": dict(
        make=lambda: make_serve_report(host={"cpu_count": 2}),
        identity=("config.workload", "fft", "config-mismatch"),
        hard={"failures": ("totals.failures", ["session 3: boom"]),
              "completed": ("totals.completed", 23),
              "single-shot-divergence": ("verified_single_shot", False),
              "quota-not-engaged": ("totals.rejected", 3)},
        soft=("throughput_sps", 12.0, "throughput")),
}

HARD_CASES = [(kind, code) for kind, case in CONTRACT_CASES.items()
              for code in case["hard"]]


@pytest.mark.parametrize("kind", CONTRACT_CASES)
class TestContract:
    """Both report kinds honour one contract."""

    def test_fresh_report_passes_alone_and_against_itself(self, kind):
        report = CONTRACT_CASES[kind]["make"]()
        assert check(report) == []
        findings = check(report, report)
        assert exit_code(findings) == 0
        assert levels(findings)["digest"] == "info"

    def test_identity_mismatch_fails(self, kind):
        case = CONTRACT_CASES[kind]
        path, value, code = case["identity"]
        report = case["make"]()
        findings = check(report, edited(report, path, value))
        assert levels(findings) == {code: "fail"}

    def test_digest_divergence_fails(self, kind):
        report = CONTRACT_CASES[kind]["make"]()
        findings = check(edited(report, "digest", "sha256:def"), report)
        assert levels(findings)["digest-divergence"] == "fail"
        assert exit_code(findings) == 1

    def test_soft_metric_warns_and_is_info_across_hosts(self, kind):
        case = CONTRACT_CASES[kind]
        path, value, code = case["soft"]
        report = case["make"]()
        slow = edited(report, path, value)
        findings = check(slow, report)
        assert levels(findings)[code] == "warn"
        assert exit_code(findings) == 0
        findings = check(slow, edited(report, "host.cpu_count", 1))
        assert levels(findings)["host-mismatch"] == "info"
        assert all(f.level == "info" for f in findings)

    def test_trajectory_entry_carries_digest_and_host(self, kind):
        entry = trajectory_entry(CONTRACT_CASES[kind]["make"]())
        assert entry["digest"] == "sha256:abc"
        assert entry["cpu_count"] == 2


@pytest.mark.parametrize("kind,code", HARD_CASES)
def test_hard_check_fires_without_reference(kind, code):
    case = CONTRACT_CASES[kind]
    path, value = case["hard"][code]
    findings = check(edited(case["make"](), path, value))
    assert levels(findings) == {code: "fail"}
    assert exit_code(findings) == 1
