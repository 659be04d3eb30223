"""``repro serve bench`` — the daemon's load test.

Starts an in-process daemon, pushes the :mod:`repro.experiments.serve_load`
scenario through it from ``concurrency`` client threads (each with its
own socket), and records throughput, latency percentiles, and admission
control behaviour into ``BENCH_serve.json``.

Admission control is part of the scenario, not an accident: the client
count deliberately exceeds ``max_sessions``, so some creates are
rejected with a typed :class:`repro.errors.QuotaExceeded` and retried
with backoff.  The report counts those rejections — a healthy run has
``rejected > 0`` (the quota engaged) and ``completed == sessions``
(nobody was starved; rejection is backpressure, not loss).

Artifact schema (``format_version`` 2, same trajectory discipline as
``BENCH_par.json`` — see ``docs/SERVING.md``):

``kind``/``format_version``/``generated_unix``/``host``
    Artifact identification, as in ``repro bench``.
``config``
    ``sessions``, ``concurrency``, ``max_sessions``, ``jobs``,
    ``workload``, ``agent``, ``variants``, ``base_seed``, ``mode``.
``totals``
    ``completed``, ``verdicts`` (count per verdict), ``rejected``
    (quota rejections observed by clients), ``peak_active``,
    ``recovered``.
``wall_s``/``throughput_sps``
    End-to-end wall clock and sessions per second (host quantities).
``latency_ms``
    Per-session create→result latency: ``mean``, ``p50``, ``p95``,
    ``p99``, ``max``.
``digest``
    ``sha256:`` over the canonical per-session outcomes (simulated
    quantities only) — identical across hosts, jobs, and re-runs.
``verified_single_shot``
    When verification is on: whether sampled sessions' verdicts and obs
    digests matched the daemon-less single-shot oracle.
``trajectory``
    Accumulated history entries, oldest first (v2 discipline).
"""

from __future__ import annotations

import json
import os
import platform
import threading
import time

from repro.errors import QuotaExceeded
from repro.experiments import serve_load
from repro.serve.client import ServeClient
from repro.serve.daemon import ServeConfig, ServeDaemon

DEFAULT_OUT = "BENCH_serve.json"

FORMAT_VERSION = 2


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


def run_serve_bench(sessions: int = 256, concurrency: int = 72,
                    max_sessions: int = 64, jobs: int = 0,
                    env: str | None = None,
                    workload: str = serve_load.DEFAULT_WORKLOAD,
                    agent: str = serve_load.DEFAULT_AGENT,
                    variants: int = serve_load.DEFAULT_VARIANTS,
                    base_seed: int = 1,
                    mode: str = "batch",
                    step_events: int = 20_000,
                    verify_sample: int = 2,
                    out_path: str | None = DEFAULT_OUT,
                    trajectory: list | None = None) -> dict:
    """Run the load test and return (and optionally write) the report.

    ``mode`` is ``"batch"`` (sessions go through the shared
    CellExecutor via the ``run`` op) or ``"step"`` (each client drives
    its session in ``step_events``-sized batches) — both paths must
    produce the same digest.  ``verify_sample`` sessions (spread across
    the scenario) are re-executed without the daemon and compared
    against the served verdict + obs digest.
    """
    if mode not in ("batch", "step"):
        raise ValueError(f"unknown serve bench mode {mode!r}")
    specs = serve_load.build_load(sessions, workload=workload,
                                  agent=agent, variants=variants,
                                  base_seed=base_seed)
    daemon = ServeDaemon(ServeConfig(port=0, max_sessions=max_sessions,
                                     jobs=jobs, env=env))
    host, port = daemon.start()
    outcomes: list[dict] = []
    latencies: list[float] = []
    rejected = 0
    failures: list[str] = []
    lock = threading.Lock()
    cursor = iter(enumerate(specs))

    def _next_slot():
        with lock:
            return next(cursor, None)

    def _drive(client: ServeClient, spec: dict) -> dict:
        nonlocal rejected
        session_id = None
        while session_id is None:
            try:
                session_id = client.create(spec)
            except QuotaExceeded:
                with lock:
                    rejected += 1
                time.sleep(0.005)
        envelope = client.drive(session_id,
                                step_events if mode == "step" else None)
        client.close_session(session_id)
        return envelope["result"]

    def _client_loop() -> None:
        try:
            client = ServeClient(host, port, timeout=600.0)
        except Exception as exc:
            with lock:
                failures.append(f"connect: {exc}")
            return
        with client:
            while True:
                slot = _next_slot()
                if slot is None:
                    return
                index, spec = slot
                started = time.perf_counter()
                try:
                    result = _drive(client, spec)
                except Exception as exc:
                    with lock:
                        failures.append(
                            f"session {index}: "
                            f"{type(exc).__name__}: {exc}")
                    continue
                elapsed_ms = (time.perf_counter() - started) * 1e3
                with lock:
                    latencies.append(elapsed_ms)
                    outcomes.append({"index": index,
                                     "seed": spec["seed"],
                                     **(result or {})})

    start = time.perf_counter()
    threads = [threading.Thread(target=_client_loop,
                                name=f"load-client-{i}", daemon=True)
               for i in range(concurrency)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    status = ServeClient(host, port).status()
    daemon.stop()

    verified = None
    if verify_sample and outcomes:
        verified = True
        by_index = {o["index"]: o for o in outcomes}
        stride = max(1, sessions // verify_sample)
        for index in list(range(0, sessions, stride))[:verify_sample]:
            served = by_index.get(index)
            if served is None:
                verified = False
                continue
            oracle = serve_load.single_shot(specs[index])
            if (oracle["verdict"] != served.get("verdict")
                    or oracle["obs_digest"] != served.get("obs_digest")):
                verified = False

    latencies.sort()
    verdicts: dict[str, int] = {}
    for outcome in outcomes:
        verdict = outcome.get("verdict") or "unknown"
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
    report = {
        "kind": "repro-serve-bench",
        "format_version": FORMAT_VERSION,
        "generated_unix": int(time.time()),
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "config": {
            "sessions": sessions,
            "concurrency": concurrency,
            "max_sessions": max_sessions,
            "jobs": jobs,
            "env": daemon.executor.env,
            "workload": workload,
            "agent": agent,
            "variants": variants,
            "base_seed": base_seed,
            "mode": mode,
        },
        "totals": {
            "completed": len(outcomes),
            "verdicts": dict(sorted(verdicts.items())),
            "rejected": rejected,
            "failures": failures,
            "peak_active": status.get("peak_active"),
            "recovered": status.get("recovered"),
        },
        "wall_s": wall,
        "throughput_sps": (len(outcomes) / wall) if wall > 0 else None,
        "latency_ms": {
            "mean": (sum(latencies) / len(latencies)
                     if latencies else 0.0),
            "p50": _percentile(latencies, 0.50),
            "p95": _percentile(latencies, 0.95),
            "p99": _percentile(latencies, 0.99),
            "max": latencies[-1] if latencies else 0.0,
        },
        "digest": serve_load.load_digest(outcomes),
        "verified_single_shot": verified,
        "trajectory": list(trajectory or []),
    }
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return report


def render_serve_bench(report: dict) -> str:
    """Human-readable summary of a serve bench report."""
    config = report["config"]
    totals = report["totals"]
    latency = report["latency_ms"]
    verdicts = ", ".join(f"{k}: {v}"
                         for k, v in totals["verdicts"].items())
    lines = [
        "repro serve bench: session load through the daemon",
        f"load     : {config['sessions']} x {config['workload']} "
        f"session(s), {config['concurrency']} client(s), "
        f"quota {config['max_sessions']} active, "
        f"{config['jobs']} worker job(s)"
        + (f" [{config['env']}]" if config.get("env") else "")
        + f", mode {config['mode']}",
        f"outcome  : {totals['completed']} completed ({verdicts}), "
        f"{totals['rejected']} quota rejection(s) retried, "
        f"{len(totals['failures'])} failure(s)",
        f"peak     : {totals['peak_active']} concurrently active "
        "session(s)",
        f"wall     : {report['wall_s']:.2f}s, "
        f"{report['throughput_sps']:.1f} sessions/s",
        f"latency  : p50 {latency['p50']:.1f}ms, "
        f"p95 {latency['p95']:.1f}ms, p99 {latency['p99']:.1f}ms, "
        f"max {latency['max']:.1f}ms",
        f"digest   : {report['digest']}",
    ]
    if report.get("verified_single_shot") is not None:
        lines.append("identity : sampled sessions "
                     + ("MATCH single-shot runs"
                        if report["verified_single_shot"]
                        else "DIFFER from single-shot runs (bug!)"))
    return "\n".join(lines)


#: Config fields two serve reports must agree on to be comparable.
SERVE_IDENTITY = ("sessions", "workload", "agent", "variants",
                  "base_seed", "mode")


def compare_serve_reports(new: dict, ref: dict,
                          wall_tolerance: float | None = None
                          ) -> list:
    """Gate a fresh serve bench report against a committed reference.

    Returns :class:`repro.prof.regress.Finding` lines, same contract as
    ``repro bench --compare``: simulated quantities (digest, completion,
    single-shot identity) are hard failures, host quantities
    (throughput) are advisory warnings.
    """
    from repro.prof import regress

    if wall_tolerance is None:
        wall_tolerance = regress.DEFAULT_WALL_TOLERANCE
    findings: list[regress.Finding] = []
    new_config = new.get("config", {})
    ref_config = ref.get("config", {})
    mismatched = [key for key in SERVE_IDENTITY
                  if new_config.get(key) != ref_config.get(key)]
    if mismatched:
        findings.append(regress.Finding(
            "fail", "load-mismatch",
            "reports ran different loads "
            f"({', '.join(mismatched)} differ) — digests are not "
            "comparable"))
        return findings

    if new.get("digest") != ref.get("digest"):
        findings.append(regress.Finding(
            "fail", "digest-divergence",
            f"serve digest changed: {ref.get('digest')} -> "
            f"{new.get('digest')} (a served session's simulated "
            "outcome moved)"))
    else:
        findings.append(regress.Finding(
            "info", "digest",
            f"serve digest identical ({new.get('digest')})"))

    new_totals = new.get("totals", {})
    ref_totals = ref.get("totals", {})
    if new_totals.get("completed") != ref_totals.get("completed"):
        findings.append(regress.Finding(
            "fail", "completed",
            f"completed sessions changed: {ref_totals.get('completed')}"
            f" -> {new_totals.get('completed')}"))
    failures = new_totals.get("failures") or []
    if failures:
        findings.append(regress.Finding(
            "fail", "failures",
            f"{len(failures)} client failure(s) in the new run "
            f"(first: {failures[0]})"))
    if new.get("verified_single_shot") is False:
        findings.append(regress.Finding(
            "fail", "single-shot-divergence",
            "served sessions diverged from the daemon-less "
            "single-shot oracle"))

    new_tp = new.get("throughput_sps")
    ref_tp = ref.get("throughput_sps")
    if new_tp and ref_tp:
        delta = (ref_tp - new_tp) / ref_tp
        if delta > wall_tolerance:
            findings.append(regress.Finding(
                "warn", "throughput",
                f"throughput regressed {delta * 100.0:+.1f}% "
                f"({ref_tp:.1f} -> {new_tp:.1f} sessions/s, tolerance "
                f"{wall_tolerance * 100.0:.0f}%)"))
        else:
            findings.append(regress.Finding(
                "info", "throughput",
                f"throughput {-delta * 100.0:+.1f}% "
                f"({ref_tp:.1f} -> {new_tp:.1f} sessions/s)"))
    return findings


def serve_trajectory_entry(report: dict) -> dict:
    """Compact history record for one serve bench reference."""
    return {
        "generated_unix": report.get("generated_unix"),
        "format_version": report.get("format_version"),
        "digest": report.get("digest"),
        "sessions": report.get("config", {}).get("sessions"),
        "throughput_sps": (round(report["throughput_sps"], 2)
                           if report.get("throughput_sps") else None),
        "rejected": report.get("totals", {}).get("rejected"),
    }
