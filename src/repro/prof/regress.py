"""The one benchmark-report contract: check a report, alone or against
a reference.

Two report families share it: ``repro bench`` (kind ``repro-bench``:
``BENCH_quick.json``, ``BENCH_par.json``) and ``repro serve bench``
(kind ``repro-serve-bench``: ``BENCH_serve.json``).  :data:`CONTRACTS`
declares, per ``kind``, what a report promises; :func:`check` is the
one comparer, the way the gem5 reproducibility effort keeps a growing
simulator honest:

* **hard checks** (every run, reference or not): failed cells, parallel
  output differing from serial, telemetry perturbing a cell (bench);
  client failures, incomplete load, served sessions differing from
  their single-shot runs, a quota that did not engage (serve);
* **identity** (hard, with a reference): reports of different matrices
  or loads fail outright — their digests measure different things, and
  a "pass" would be vacuous;
* **digest identity** (hard, with a reference): the sha256 over the
  canonical outcomes covers only simulated quantities, so two runs on
  *any* host must agree — a mismatch means somebody moved a simulated
  cycle.  A report carrying a cycle ``profile`` also fails when a
  category's share of the total moved;
* **host metrics** (warn-only, with a reference): wall clock and
  throughput beyond :data:`WALL_TOLERANCE` warn, never fail.  Between
  hosts with different ``host.cpu_count`` they give way to one ``info``
  finding: host figures do not transfer between hosts.

``--compare`` also appends :func:`trajectory_entry` of the reference to
the fresh report's ``trajectory`` list, so a report regenerated against
its predecessor accumulates the repo's performance history.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.errors import ReproError

#: Relative host-metric change past which a finding warns.
WALL_TOLERANCE = 0.25

#: Max absolute drift allowed in a profile category's share of total.
PROFILE_TOLERANCE = 0.001

#: Per-cell wall deltas below this floor (seconds) are never flagged.
CELL_WALL_FLOOR_S = 0.05


@dataclass
class Finding:
    """One comparison verdict line."""

    level: str   # "fail" | "warn" | "info"
    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.level.upper():4s}] {self.code}: {self.message}"


@dataclass(frozen=True)
class Contract:
    """What one report ``kind`` promises."""

    #: Report block holding what was measured, and its keys that two
    #: comparable reports share.
    block: str
    identity: tuple[str, ...]
    #: Hard checks on the report alone.
    hard: tuple[Callable[[dict], Finding | None], ...]
    #: Warn-only host metrics, each ``(new, ref) -> Finding | None``.
    soft: tuple[Callable[[dict, dict], Finding | None], ...]
    #: ``(entry key, report path)`` pairs of its trajectory entries.
    trajectory: tuple[tuple[str, str], ...]


def _get(report: dict, path: str):
    """The value at a dotted ``path`` of ``report``; ``None`` if absent."""
    value = report
    for key in path.split("."):
        if not isinstance(value, dict):
            return None
        value = value.get(key)
    return value


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


def check(new: dict, ref: dict | None = None) -> list[Finding]:
    """Check a fresh report, and against ``ref`` when given; findings
    in order."""
    contract = CONTRACTS[new["kind"]]
    findings = [finding for hard in contract.hard
                if (finding := hard(new)) is not None]
    if ref is None:
        return findings
    mismatched = [key for key in contract.identity
                  if _get(new, f"{contract.block}.{key}")
                  != _get(ref, f"{contract.block}.{key}")]
    if mismatched:
        findings.append(Finding(
            "fail", f"{contract.block}-mismatch",
            f"reports differ in {contract.block} "
            f"({', '.join(mismatched)}) — digests are not comparable"))
        return findings
    if new.get("digest") != ref.get("digest"):
        findings.append(Finding(
            "fail", "digest-divergence",
            f"canonical digest changed: {ref.get('digest')} -> "
            f"{new.get('digest')} (a simulated quantity moved)"))
    else:
        findings.append(Finding(
            "info", "digest",
            f"canonical digest identical ({new.get('digest')})"))
    if new.get("profile"):
        findings.append(_compare_profiles(new["profile"],
                                          ref.get("profile")))
    cpus = [_get(report, "host.cpu_count") for report in (ref, new)]
    if cpus[0] != cpus[1]:
        findings.append(Finding(
            "info", "host-mismatch",
            f"hosts differ (cpu_count {cpus[0]} -> {cpus[1]}); host "
            "metric comparisons skipped"))
    else:
        findings += [finding for soft in contract.soft
                     if (finding := soft(new, ref)) is not None]
    return findings


def _compare_profiles(new_profile: dict,
                      ref_profile: dict | None) -> Finding:
    if not ref_profile:
        return Finding("info", "profile",
                       "reference has no cycle profile (pre-v2 report); "
                       "category-shift check skipped")
    new_total = new_profile.get("total_cycles") or 0.0
    ref_total = ref_profile.get("total_cycles") or 0.0
    if not new_total or not ref_total:
        return Finding("info", "profile",
                       "cycle profile has no cycles; category-shift "
                       "check skipped")
    shifts = []
    categories = sorted(set(new_profile.get("per_category", {}))
                        | set(ref_profile.get("per_category", {})))
    for category in categories:
        new_share = (new_profile["per_category"].get(category, 0.0)
                     / new_total)
        ref_share = (ref_profile["per_category"].get(category, 0.0)
                     / ref_total)
        drift = new_share - ref_share
        if abs(drift) > PROFILE_TOLERANCE:
            shifts.append((abs(drift), category, ref_share, new_share))
    if not shifts:
        return Finding("info", "profile",
                       "cycle-profile category shares unchanged")
    shifts.sort(reverse=True)
    detail = ", ".join(
        f"{category} {ref_share * 100.0:.2f}%->{new_share * 100.0:.2f}%"
        for _, category, ref_share, new_share in shifts[:4])
    return Finding(
        "fail", "profile-shift",
        f"cycle-profile category share(s) moved beyond "
        f"{PROFILE_TOLERANCE * 100.0:.2f}pp: {detail}")


def _host_metric(code: str, path: str, label: str, unit: str,
                 higher_is_better: bool, new: dict,
                 ref: dict) -> Finding | None:
    """One host figure against its reference: warn past tolerance."""
    new_value, ref_value = _get(new, path), _get(ref, path)
    if new_value is None or not ref_value:
        return None
    delta = (new_value - ref_value) / ref_value
    worse = -delta if higher_is_better else delta
    span = f"{ref_value:.2f} -> {new_value:.2f} {unit}"
    if worse > WALL_TOLERANCE:
        return Finding("warn", code,
                       f"{label} regressed {worse:+.1%} ({span}, "
                       f"tolerance {WALL_TOLERANCE:.0%})")
    return Finding("info", code, f"{label} {delta:+.1%} ({span})")


def _cell_walls(new: dict, ref: dict) -> Finding | None:
    """Per-cell serial walls: warn on the cells past tolerance."""
    new_cells = _get(new, "serial.cell_wall_s")
    ref_cells = _get(ref, "serial.cell_wall_s")
    if not new_cells or not ref_cells or len(new_cells) != len(ref_cells):
        return None
    offenders = []
    for index, (new_s, ref_s) in enumerate(zip(new_cells, ref_cells,
                                               strict=True)):
        if ref_s <= 0 or (new_s - ref_s) < CELL_WALL_FLOOR_S:
            continue
        delta = (new_s - ref_s) / ref_s
        if delta > WALL_TOLERANCE:
            offenders.append((delta, index, ref_s, new_s))
    if not offenders:
        return None
    offenders.sort(reverse=True)
    worst = ", ".join(
        f"cell {index} {delta * 100.0:+.0f}% ({ref_s:.2f}s->{new_s:.2f}s)"
        for delta, index, ref_s, new_s in offenders[:3])
    return Finding("warn", "cell-wall",
                   f"{len(offenders)} cell(s) beyond tolerance: {worst}")


def _failed_cells(report: dict) -> Finding | None:
    failed = sum((report.get(phase) or {}).get("failed") or 0
                 for phase in ("serial", "parallel"))
    if failed:
        return Finding("fail", "failed-cells",
                       f"{failed} cell(s) failed in the new run")
    return None


def _parallel_divergence(report: dict) -> Finding | None:
    if report.get("identical") is False:
        return Finding("fail", "parallel-divergence",
                       "parallel output differed from serial in the new "
                       "run")
    return None


def _telemetry_perturbation(report: dict) -> Finding | None:
    if _get(report, "observability_overhead.digest_identical") is False:
        return Finding("fail", "telemetry-perturbation",
                       "cell output changed with telemetry attached — "
                       "the zero-perturbation contract is broken")
    return None


def _client_failures(report: dict) -> Finding | None:
    failures = _get(report, "totals.failures")
    if failures:
        return Finding("fail", "failures",
                       f"{len(failures)} client failure(s) in the new run "
                       f"(first: {failures[0]})")
    return None


def _incomplete_load(report: dict) -> Finding | None:
    completed = _get(report, "totals.completed")
    sessions = _get(report, "config.sessions")
    if completed != sessions:
        return Finding("fail", "completed",
                       f"{completed} of {sessions} session(s) completed")
    return None


def _single_shot_divergence(report: dict) -> Finding | None:
    if report.get("verified_single_shot") is False:
        return Finding("fail", "single-shot-divergence",
                       "served sessions diverged from the daemon-less "
                       "single-shot oracle")
    return None


def _quota_engagement(report: dict) -> Finding | None:
    """Every client's first create lands before any session is driven,
    so all but ``max_sessions`` of those first creates are rejected."""
    config = report["config"]
    first = min(config["concurrency"], config["sessions"])
    floor = first - config["max_sessions"]
    rejected = _get(report, "totals.rejected") or 0
    if rejected < floor:
        return Finding("fail", "quota-not-engaged",
                       f"{rejected} quota rejection(s); {first} first "
                       f"create(s) against a quota of "
                       f"{config['max_sessions']} must see at least "
                       f"{floor}")
    return None


#: The contract of each report ``kind``.
CONTRACTS = {
    "repro-bench": Contract(
        block="matrix",
        identity=("benchmarks", "agents", "variant_counts", "scale",
                  "seed"),
        hard=(_failed_cells, _parallel_divergence,
              _telemetry_perturbation),
        soft=(partial(_host_metric, "serial-wall", "serial.wall_s",
                      "serial wall-clock", "s", False),
              _cell_walls),
        trajectory=(("cells", "matrix.cells"), ("jobs", "jobs"),
                    ("environment", "environment"),
                    ("serial_wall_s", "serial.wall_s"),
                    ("identical", "identical"))),
    "repro-serve-bench": Contract(
        block="config",
        identity=("sessions", "workload", "agent", "variants",
                  "base_seed", "mode"),
        hard=(_client_failures, _incomplete_load,
              _single_shot_divergence, _quota_engagement),
        soft=(partial(_host_metric, "throughput", "throughput_sps",
                      "throughput", "sessions/s", True),),
        trajectory=(("sessions", "config.sessions"),
                    ("throughput_sps", "throughput_sps"),
                    ("rejected", "totals.rejected"))),
}


def exit_code(findings: list[Finding]) -> int:
    return 1 if any(f.level == "fail" for f in findings) else 0


def render_findings(findings: list[Finding]) -> str:
    lines = ["report checks:"]
    lines += [f"  {finding}" for finding in findings]
    fails = sum(1 for f in findings if f.level == "fail")
    warns = sum(1 for f in findings if f.level == "warn")
    lines.append(f"  -- {fails} failure(s), {warns} warning(s): "
                 + ("REGRESSION" if fails else "ok"))
    return "\n".join(lines)


def trajectory_entry(report: dict) -> dict:
    """Compact history record for one reference report.

    Every entry carries the report's stamp, digest and host
    ``cpu_count`` (host figures only compare across like hosts), then
    its kind's own fields.  A field the report does not carry is left
    out, so entries from older references keep their historical shape.
    """
    fields = (("generated_unix", "generated_unix"),
              ("format_version", "format_version"),
              ("digest", "digest"), ("cpu_count", "host.cpu_count"),
              *CONTRACTS[report["kind"]].trajectory)
    entry = {}
    for key, path in fields:
        value = _get(report, path)
        if isinstance(value, float):
            value = round(value, 3)
        if value is not None:
            entry[key] = value
    return entry
