"""``repro serve bench`` — the daemon's load test.

Starts an in-process daemon, pushes the :mod:`repro.experiments.serve_load`
scenario through it from ``concurrency`` client threads (each with its
own socket), and records throughput, latency percentiles, and admission
control behaviour into ``BENCH_serve.json``.

Admission control is part of the scenario, not an accident: the client
count deliberately exceeds ``max_sessions``, and every client makes its
first create attempt before any session is driven, so at least
``min(concurrency, sessions) - max_sessions`` creates are rejected with
a typed :class:`repro.errors.QuotaExceeded` (and retried with backoff),
whatever the host's speed.  The report contract
(:mod:`repro.prof.regress`) gates that bound, ``completed == sessions``
(nobody was starved; rejection is backpressure, not loss), sampled
sessions matching the daemon-less single-shot oracle, and, under
``--compare``, the digest.

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

    # Slots below ``first`` are the clients' first create attempts: each
    # waits for the others before its session is driven (and so before
    # any session closes), which makes the quota engage on every host.
    # A client that cannot connect breaks the barrier, so no other
    # client waits for it.
    first = min(concurrency, sessions)
    first_attempts = threading.Barrier(max(1, first))

    def _create(client: ServeClient, spec: dict,
                wait: bool = False) -> str | None:
        """One create attempt; ``None`` when the quota rejected it."""
        nonlocal rejected
        try:
            return client.create(spec)
        except QuotaExceeded:
            with lock:
                rejected += 1
            return None
        finally:
            if wait:
                try:
                    first_attempts.wait()
                except threading.BrokenBarrierError:
                    pass

    def _drive(client: ServeClient, index: int, spec: dict) -> dict:
        session_id = _create(client, spec, wait=index < first)
        while session_id is None:
            time.sleep(0.005)
            session_id = _create(client, spec)
        envelope = client.drive(session_id,
                                step_events if mode == "step" else None)
        client.close_session(session_id)
        return envelope["result"]

    def _client_loop() -> None:
        try:
            client = ServeClient(host, port, timeout=600.0)
        except Exception as exc:
            first_attempts.abort()
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
                    result = _drive(client, index, spec)
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
