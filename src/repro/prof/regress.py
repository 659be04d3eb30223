"""The perf-regression gate: canonically compare two bench reports.

``repro bench --compare REF`` (and ``repro bench diff OLD NEW``) turn
the committed ``BENCH_par.json`` into a machine-checked contract, the
way the gem5 reproducibility effort keeps a growing simulator honest:

* **digest identity** (hard): the sha256 over canonical cells covers
  only simulated quantities, so two runs of the same matrix on *any*
  host must agree — a mismatch means somebody moved a simulated cycle;
* **cycle-profile category shifts** (hard): the reference's profiled
  cell is re-profiled and its per-category shares compared — catches
  accounting regressions that leave end-to-end cycle totals intact;
* **wall-clock deltas** (soft by default): serial wall and per-cell
  walls beyond ``wall_tolerance`` raise warnings (``fail_on_wall=True``
  promotes them) — host measurements are honest but machine-dependent,
  so CI treats them as advisories.  Reports from hosts with different
  ``host.cpu_count`` get one ``info`` finding instead: their wall and
  speedup figures do not transfer between the hosts.

Reports comparing different matrices (benchmarks, agents, variant
counts, scale, or seed) fail outright: their digests measure different
things, and a "pass" would be vacuous.

Comparisons also feed the *trajectory*: ``--compare`` appends a compact
entry for the reference into the new report's ``trajectory`` list, so a
BENCH file regenerated against its predecessor accumulates the repo's
performance history.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.errors import ReproError

#: Matrix fields that must match for two reports to be comparable.
MATRIX_IDENTITY = ("benchmarks", "agents", "variant_counts", "scale",
                   "seed")

#: Default relative wall-clock tolerance (25% — forked CI runners jitter).
DEFAULT_WALL_TOLERANCE = 0.25

#: Max absolute drift allowed in a profile category's share of total.
DEFAULT_PROFILE_TOLERANCE = 0.001

#: Per-cell wall deltas below this floor (seconds) are never flagged.
CELL_WALL_FLOOR_S = 0.05

#: Max absolute growth (fraction of cell wall) tolerated in telemetry's
#: self-measured overhead before the warn-only finding fires.  On quick
#: matrices the measured cell is tiny and the overhead fraction itself
#: is large and jittery, so the effective threshold also scales with
#: the reference: ``max(0.05, 0.25 * ref_frac)``.
DEFAULT_OVERHEAD_TOLERANCE = 0.05


@dataclass
class Finding:
    """One comparison verdict line."""

    level: str   # "fail" | "warn" | "info"
    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.level.upper():4s}] {self.code}: {self.message}"


def load_report(path: str, expected_kind: str = "repro-bench") -> dict:
    """Load a bench report, raising :class:`ReproError` on anything a
    user can plausibly hand us: missing, empty, truncated, wrong kind."""
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ReproError(f"cannot read bench report {path!r}: "
                         f"{exc.strerror or exc}") from exc
    if not text.strip():
        raise ReproError(f"bench report {path!r} is empty")
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReproError(f"bench report {path!r} is not valid JSON "
                         f"(truncated?): {exc}") from exc
    if not isinstance(report, dict) or report.get("kind") != expected_kind:
        raise ReproError(f"{path!r} is not a {expected_kind} report "
                         f"(missing kind == {expected_kind!r})")
    return report


def compare_reports(new: dict, ref: dict,
                    wall_tolerance: float = DEFAULT_WALL_TOLERANCE,
                    profile_tolerance: float = DEFAULT_PROFILE_TOLERANCE,
                    fail_on_wall: bool = False) -> list[Finding]:
    """Compare a fresh report against a reference; findings in order."""
    findings: list[Finding] = []
    new_matrix = new.get("matrix", {})
    ref_matrix = ref.get("matrix", {})
    mismatched = [key for key in MATRIX_IDENTITY
                  if new_matrix.get(key) != ref_matrix.get(key)]
    if mismatched:
        findings.append(Finding(
            "fail", "matrix-mismatch",
            "reports sweep different matrices "
            f"({', '.join(mismatched)} differ) — digests are not "
            "comparable"))
        return findings

    if new.get("digest") != ref.get("digest"):
        findings.append(Finding(
            "fail", "digest-divergence",
            f"canonical digest changed: {ref.get('digest')} -> "
            f"{new.get('digest')} (a simulated cycle moved)"))
    else:
        findings.append(Finding(
            "info", "digest",
            f"canonical digest identical ({new.get('digest')})"))

    failed = (new.get("serial", {}).get("failed", 0) or 0)
    parallel = new.get("parallel")
    if parallel:
        failed += parallel.get("failed", 0) or 0
    if failed:
        findings.append(Finding(
            "fail", "failed-cells",
            f"{failed} cell(s) failed in the new run"))
    if new.get("identical") is False:
        findings.append(Finding(
            "fail", "parallel-divergence",
            "parallel output differed from serial in the new run"))

    findings.extend(_compare_walls(new, ref, wall_tolerance,
                                   fail_on_wall))
    new_profile = new.get("profile")
    ref_profile = ref.get("profile")
    if new_profile and ref_profile:
        findings.extend(_compare_profiles(new_profile, ref_profile,
                                          profile_tolerance))
    elif new_profile and not ref_profile:
        findings.append(Finding(
            "info", "profile",
            "reference has no cycle profile (pre-v2 report); "
            "category-shift check skipped"))
    findings.extend(_compare_overhead(new.get("observability_overhead"),
                                      ref.get("observability_overhead")))
    return findings


def _compare_walls(new: dict, ref: dict, wall_tolerance: float,
                   fail_on_wall: bool) -> list[Finding]:
    """Serial and per-cell wall-clock deltas, between like hosts only."""
    cpus = [report.get("host", {}).get("cpu_count") for report in (ref, new)]
    if cpus[0] != cpus[1]:
        return [Finding("info", "host-mismatch",
                        f"hosts differ (cpu_count {cpus[0]} -> {cpus[1]}); "
                        "wall and speedup comparisons skipped")]
    findings: list[Finding] = []
    wall_level = "fail" if fail_on_wall else "warn"
    new_wall = new.get("serial", {}).get("wall_s")
    ref_wall = ref.get("serial", {}).get("wall_s")
    if new_wall is not None and ref_wall:
        delta = (new_wall - ref_wall) / ref_wall
        if delta > wall_tolerance:
            findings.append(Finding(
                wall_level, "serial-wall",
                f"serial wall-clock regressed {delta * 100.0:+.1f}% "
                f"({ref_wall:.2f}s -> {new_wall:.2f}s, tolerance "
                f"{wall_tolerance * 100.0:.0f}%)"))
        else:
            findings.append(Finding(
                "info", "serial-wall",
                f"serial wall-clock {delta * 100.0:+.1f}% "
                f"({ref_wall:.2f}s -> {new_wall:.2f}s)"))

    new_cells = new.get("serial", {}).get("cell_wall_s")
    ref_cells = ref.get("serial", {}).get("cell_wall_s")
    if new_cells and ref_cells and len(new_cells) == len(ref_cells):
        offenders = []
        for index, (new_s, ref_s) in enumerate(zip(new_cells,
                                                   ref_cells,
                                                   strict=True)):
            if ref_s <= 0 or (new_s - ref_s) < CELL_WALL_FLOOR_S:
                continue
            delta = (new_s - ref_s) / ref_s
            if delta > wall_tolerance:
                offenders.append((delta, index, ref_s, new_s))
        if offenders:
            offenders.sort(reverse=True)
            worst = ", ".join(
                f"cell {index} {delta * 100.0:+.0f}% "
                f"({ref_s:.2f}s->{new_s:.2f}s)"
                for delta, index, ref_s, new_s in offenders[:3])
            findings.append(Finding(
                wall_level, "cell-wall",
                f"{len(offenders)} cell(s) beyond tolerance: {worst}"))
    return findings


def _compare_overhead(new_oh: dict | None,
                      ref_oh: dict | None) -> list[Finding]:
    """Telemetry's self-measured host cost: warn-only on regression.

    Host wall jitters across runners, so overhead growth never fails a
    comparison — but a run whose outputs moved *with telemetry
    attached* broke the zero-perturbation contract, and that fails.
    """
    findings: list[Finding] = []
    if not new_oh:
        return findings
    if new_oh.get("digest_identical") is False:
        findings.append(Finding(
            "fail", "telemetry-perturbation",
            "cell output changed with telemetry attached — the "
            "zero-perturbation contract is broken"))
    new_frac = new_oh.get("overhead_frac")
    ref_frac = (ref_oh or {}).get("overhead_frac")
    if new_frac is None:
        return findings
    if ref_frac is None:
        findings.append(Finding(
            "info", "observability-overhead",
            f"telemetry overhead {new_frac * 100.0:+.1f}% of cell wall "
            "(reference has no observability_overhead block)"))
        return findings
    drift = new_frac - ref_frac
    tolerance = max(DEFAULT_OVERHEAD_TOLERANCE, 0.25 * abs(ref_frac))
    if drift > tolerance:
        findings.append(Finding(
            "warn", "observability-overhead",
            f"telemetry overhead grew {drift * 100.0:+.1f}pp "
            f"({ref_frac * 100.0:+.1f}% -> {new_frac * 100.0:+.1f}% "
            "of cell wall)"))
    else:
        findings.append(Finding(
            "info", "observability-overhead",
            f"telemetry overhead {new_frac * 100.0:+.1f}% of cell wall "
            f"({drift * 100.0:+.1f}pp vs reference)"))
    return findings


def _compare_profiles(new_profile: dict, ref_profile: dict,
                      tolerance: float) -> list[Finding]:
    new_total = new_profile.get("total_cycles") or 0.0
    ref_total = ref_profile.get("total_cycles") or 0.0
    if not new_total or not ref_total:
        return []
    shifts = []
    categories = sorted(set(new_profile.get("per_category", {}))
                        | set(ref_profile.get("per_category", {})))
    for category in categories:
        new_share = (new_profile["per_category"].get(category, 0.0)
                     / new_total)
        ref_share = (ref_profile["per_category"].get(category, 0.0)
                     / ref_total)
        drift = new_share - ref_share
        if abs(drift) > tolerance:
            shifts.append((abs(drift), category, ref_share, new_share))
    if not shifts:
        return [Finding("info", "profile",
                        "cycle-profile category shares unchanged")]
    shifts.sort(reverse=True)
    detail = ", ".join(
        f"{category} {ref_share * 100.0:.2f}%->{new_share * 100.0:.2f}%"
        for _, category, ref_share, new_share in shifts[:4])
    return [Finding(
        "fail", "profile-shift",
        f"cycle-profile category share(s) moved beyond "
        f"{tolerance * 100.0:.2f}pp: {detail}")]


def exit_code(findings: list[Finding]) -> int:
    return 1 if any(f.level == "fail" for f in findings) else 0


def render_findings(findings: list[Finding]) -> str:
    lines = ["bench comparison:"]
    lines += [f"  {finding}" for finding in findings]
    fails = sum(1 for f in findings if f.level == "fail")
    warns = sum(1 for f in findings if f.level == "warn")
    lines.append(f"  -- {fails} failure(s), {warns} warning(s): "
                 + ("REGRESSION" if fails else "ok"))
    return "\n".join(lines)


def trajectory_entry(report: dict) -> dict:
    """Compact history record for one reference report.

    ``cpu_count`` (wall figures only compare across like hosts) and
    the environment-era fields (``environment``, ``warm_wall_s``) are
    included only when the report carries them, so entries from older
    references keep their historical shape.
    """
    serial = report.get("serial", {})
    entry = {
        "generated_unix": report.get("generated_unix"),
        "format_version": report.get("format_version"),
        "digest": report.get("digest"),
        "cells": report.get("matrix", {}).get("cells"),
        "jobs": report.get("jobs"),
        "serial_wall_s": (round(serial["wall_s"], 3)
                          if serial.get("wall_s") is not None else None),
        "identical": report.get("identical"),
    }
    cpu_count = report.get("host", {}).get("cpu_count")
    if cpu_count is not None:
        entry["cpu_count"] = cpu_count
    if report.get("environment") is not None:
        entry["environment"] = report["environment"]
    parallel = report.get("parallel") or {}
    if parallel.get("warm_wall_s") is not None:
        entry["warm_wall_s"] = round(parallel["warm_wall_s"], 3)
    return entry
