"""``repro top`` — a refreshing terminal view of a live serve daemon.

One poll cycle issues two requests over a single client connection:
``status`` (session table, executor, uptime) and the id-less
``metrics`` op (host Prometheus exposition).  The exposition is run
through :func:`~repro.telemetry.prometheus.parse_prometheus` — the
live view doubles as a continuous validator of the scrape surface —
and a handful of hot families are folded into the header lines.

The view is pure text: :func:`render_top` maps the two response dicts
to a list of lines (what the tests pin), and :func:`run_top` owns the
poll loop, the ANSI clear, and the flag surface (``--interval``,
``--iterations``/``--once``).  No curses, no dependencies — it runs
anywhere the CLI runs, including CI.
"""

from __future__ import annotations

import sys
import time

from repro.telemetry.prometheus import parse_prometheus, prom_name

__all__ = ["render_top", "run_top"]

#: Clear screen + home cursor; only emitted on a tty.
_ANSI_CLEAR = "\x1b[2J\x1b[H"

#: Counter families surfaced in the pool header line
#: (registry name -> short label).
_POOL_COUNTERS = (
    ("host.pool.spawned", "spawned"),
    ("host.pool.respawns", "respawns"),
    ("host.pool.stall_kills", "stall-kills"),
)


def _family_value(families: dict, registry_name: str,
                  kind: str = "counter") -> float | None:
    """One scalar out of a parsed exposition, or None when absent."""
    base = prom_name(registry_name)
    family = base + "_total" if kind == "counter" else base
    data = families.get(family)
    if not data:
        return None
    for name, _labels, value in data["samples"]:
        if name == family:
            return value
    return None


def _counter_line(families: dict, pairs, title: str) -> str:
    parts = []
    for registry_name, label in pairs:
        value = _family_value(families, registry_name)
        if value is not None:
            parts.append(f"{label} {int(value)}")
    return f"{title:<10} " + ("  ".join(parts) if parts else "(no data)")


def _ops_line(families: dict) -> str:
    ops = _family_value(families, "host.serve.ops")
    errors = _family_value(families, "host.serve.op_errors")
    latency = families.get(prom_name("host.serve.op_latency_s"))
    parts = []
    if ops is not None:
        parts.append(f"ops {int(ops)}")
    if errors:
        parts.append(f"errors {int(errors)}")
    if latency is not None:
        total = count = 0.0
        for name, _labels, value in latency["samples"]:
            if name.endswith("_sum"):
                total = value
            elif name.endswith("_count"):
                count = value
        if count:
            parts.append(f"mean latency {total / count * 1000:.2f}ms")
    return "ops        " + ("  ".join(parts) if parts else "(no data)")


def render_top(status: dict, metrics: dict) -> list[str]:
    """The view as a list of lines, from one ``status`` response and
    one host ``metrics`` response.  Both dicts are treated as
    advisory: missing keys shorten the view, they never crash it."""
    lines: list[str] = []
    uptime = status.get("uptime_s")
    lines.append(
        "repro top — serve daemon"
        + (f"  up {uptime:.0f}s" if isinstance(uptime, (int, float))
           else ""))
    lines.append(
        f"sessions   active {status.get('active', '?')}"
        f"/{status.get('max_sessions', '?')}"
        f"  peak {status.get('peak_active', '?')}"
        f"  created {status.get('created_total', '?')}"
        f"  rejected {status.get('rejected_total', '?')}")
    executor = status.get("executor") or {}
    if executor:
        lines.append(
            f"executor   env {executor.get('env', '?')}"
            f"  jobs {executor.get('jobs', '?')}"
            f"  in-flight {executor.get('in_flight', '?')}"
            f"  queued {executor.get('queued', '?')}"
            f"  done {executor.get('completed', '?')}"
            f"/{executor.get('submitted', '?')}")
    exposition = metrics.get("exposition")
    if exposition:
        families = parse_prometheus(exposition)
        lines.append(_counter_line(families, _POOL_COUNTERS, "pool"))
        lines.append(_ops_line(families))
    rows = status.get("sessions_detail") or []
    if rows:
        lines.append("")
        lines.append(f"{'ID':<8} {'STATE':<12} {'WORKLOAD':<24} "
                     f"{'STEPS':>6}  VERDICT")
        for row in rows:
            verdict = row.get("verdict")
            lines.append(
                f"{str(row.get('id', '?')):<8} "
                f"{str(row.get('state', '?')):<12} "
                f"{str(row.get('workload', '?')):<24} "
                f"{str(row.get('steps', '?')):>6}  "
                f"{'-' if verdict is None else verdict}")
    else:
        lines.append("")
        lines.append("(no sessions)")
    return lines


def run_top(host: str = "127.0.0.1", port: int = 7333,
            interval_s: float = 2.0, iterations: int | None = None,
            out=None) -> int:
    """Poll status + host metrics and redraw until interrupted.

    ``iterations`` bounds the loop (``1`` is the ``--once`` snapshot
    CI takes); ``None`` runs until Ctrl-C.  Returns a process exit
    code (0, or 1 when the daemon is unreachable on the first poll).
    """
    from repro.errors import DaemonUnavailable
    from repro.serve.client import ServeClient

    out = sys.stdout if out is None else out
    drawn = 0
    while iterations is None or drawn < iterations:
        try:
            with ServeClient(host, port) as client:
                status = client.status()
                metrics = client.host_metrics()
        except DaemonUnavailable as exc:
            print(f"repro top: {exc}", file=out)
            return 1 if drawn == 0 else 0
        if out.isatty():
            out.write(_ANSI_CLEAR)
        for line in render_top(status, metrics):
            print(line, file=out)
        out.flush()
        drawn += 1
        if iterations is not None and drawn >= iterations:
            break
        try:
            time.sleep(interval_s)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            break
    return 0
