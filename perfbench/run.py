"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload mvee-sync --seed 1 --seconds 20 --trace 0

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  Lines before it
are a human-readable table; the full record, with the host's
``cpu_count``, python version and platform, goes to
``.perfbench_out/<workload>-seed<n>-trace<t>.json``.  The command exits
non-zero when any simulated output is wrong.  Outputs are checked
against the digest recorded for the seed in ``expected.json``; a seed
without one is checked against a reference computed serially in a fresh
interpreter, and the run says so (``expected_source`` in the record).

End-to-end metrics (``--trace 0``, an untraced run), every workload:

``setup_s``
    Median over several fresh interpreters of the time from process
    start to ready-to-time: the ``repro`` import and a warm-up, in
    process (mvee-sync), on a freshly spawned pool (sweep-syscall) or
    through a freshly started daemon and its workers (serve-open).
``wall_s``
    Median host wall time of one rep of fixed work: a pass over every
    cell (mvee-sync, sweep-syscall) or a burst of sessions submitted at
    once through the daemon (serve-open).
``sim_ops_per_s``
    Simulated sync ops plus syscalls, summed over variants, per host
    second: median over reps, or over the bursts (serve-open).
``latency_p50_ms`` / ``latency_tail_ms``
    Per ``run_mvee`` call (mvee-sync), per cell as timed in its worker
    (sweep-syscall), per session from its due time to its result at the
    nominal rate (serve-open).  The tail is the highest percentile with
    at least ten samples beyond it; the record names it.  On
    serve-open it is taken per window of 50 sessions (p80) and the
    median over the windows is reported, with the phase-wide tail in the
    record.
``max_rate_per_s``
    Calls or cells per second the closed loop completes (cells over the
    median rep wall); on serve-open, the highest offered rate that meets
    the tail-latency limit without a growing backlog, interpolated
    between the last rung of a fixed ladder that meets it and the first
    that does not.
``cpu_s`` / ``peak_rss_mb``
    CPU seconds of one rep (median over reps) or of the nominal phase
    (serve-open), and the sum of peak resident sizes, over this process,
    live pool workers and the daemon (read from ``/proc``).

Per-layer metrics (``--trace 1``) come from a separate traced run; see
``layer_metrics`` and ``perfbench/trace.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, mvee_sync, serve_open, sweep_syscall  # noqa: E402

WORKLOADS = {module.NAME: module
             for module in (mvee_sync, sweep_syscall, serve_open)}

#: Fresh interpreters timed for ``setup_s``.
SETUP_PROBES = 5

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "sim_ops_per_s": "1/s",
             "latency_p50_ms": "ms", "latency_tail_ms": "ms",
             "max_rate_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB"}

SERVE_OPS = ("create", "run", "poll", "step", "close")


def measure_setup(workload: str) -> list[float]:
    """Spawn-to-ready seconds of ``SETUP_PROBES`` fresh interpreters."""
    samples = []
    probe = Path(__file__).resolve().parent / "probe.py"
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(probe), workload],
                                stdout=subprocess.PIPE, text=True,
                                cwd=common.ROOT, env=common.child_env())
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - start)
        proc.stdout.read()
        common.wait_or_kill(proc, 60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {workload} failed")
    return samples


# -- closed-loop workloads (mvee-sync, sweep-syscall) -----------------------


def closed_loop(module, seed: int, seconds: float, traced: bool,
                trace_dir: str) -> dict:
    """Reps of one fixed cell list; every rep must re-simulate to the
    same records, all clean, matching the recorded digest."""
    specs = module.cells(seed)
    reps = module.reps_for(seconds)
    if traced:
        reps = max(2, reps // 2)
    run: dict = {}
    recorder = None
    context = module.setup()
    if traced:
        from perfbench import trace

        untraced = [module.run_rep(specs, module.NAME)
                    for _ in range(reps)]
        run["untraced_walls"] = [rep["wall_s"] for rep in untraced]
        module.teardown(context)
        recorder = trace.install(trace_dir, service="benchmark")
        # Fork and warm the pool again, now with the wrappers in, so the
        # traced reps start as warm as the untraced ones; the warm-up is
        # left out of the spans.
        recorder.paused = True
        context = module.setup()
        recorder.paused = False
    results = []
    for rep in range(reps):
        label = rep_label(module.NAME, rep)
        calls = recorder.calls(trace.ADVANCE) if traced else 0
        before = common.cpu_snapshot()
        result = module.run_rep(specs, label)
        result["cpu_s"] = common.cpu_between(before, common.cpu_snapshot())
        results.append(result)
        if traced:
            recorder.count(f"sched_calls[{label}]",
                           recorder.calls(trace.ADVANCE) - calls)
    run["peak_rss_mb"] = common.peak_rss_mb()
    module.teardown(context)
    if recorder is not None:
        recorder.dump()
    ops = [[sum(record[2] for record in result["records"]),
            sum(record[3] for record in result["records"])]
           for result in results]
    walls = [result["wall_s"] for result in results]
    run.update(
        walls=walls,
        latencies=[latency for result in results
                   for latency in result["latencies"]],
        sync_ops=sum(op[0] for op in ops), syscalls=sum(op[1] for op in ops),
        rep_ops=ops, traced_wall_s=sum(walls),
        cpu_s=common.median([result["cpu_s"] for result in results]),
        sim_ops_rate=common.median(
            [sum(op) / wall for op, wall in zip(ops, walls, strict=True)]),
        max_rate=len(specs) / common.median(walls))
    # -- correctness ----------------------------------------------------
    first = results[0]["records"]
    problems = [f"rep {rep} cell {cell}: {record}"
                for rep, result in enumerate(results)
                for cell, record in enumerate(result["records"])
                if record[0] != "clean" or record != first[cell]]
    attempted = reps * len(specs)
    run["digest"] = common.digest(first)
    problems += common.check_digest(run, module.NAME, seed)
    oracle = getattr(module, "oracle", None)
    if oracle is not None:
        attempted += len(module.ORACLE_CELLS)
        problems += oracle(specs, first)
    run.update(attempted=attempted, failed=len(problems), problems=problems)
    return run


# -- metrics ------------------------------------------------------------------


def rep_label(workload: str, rep: int) -> str:
    """Label of one rep; traced runs count simulator steps under it."""
    return f"{workload}.rep{rep}"


def e2e_metrics(run: dict, setup_samples: list[float]) -> dict:
    pct, tail_s, beyond = common.tail(run["latencies"])
    run["latency_tail"] = {"percentile": pct, "samples": len(run["latencies"]),
                           "beyond": beyond}
    window = run.get("tail_window")
    if window:
        run["latency_tail"]["whole_ms"] = tail_s * 1e3
        pct, tail_s, windows = common.window_tail(run["latencies"], window)
        run["latency_tail"].update(window=window, windows=windows,
                                   window_percentile=pct)
    values = {
        "setup_s": common.median(setup_samples),
        "wall_s": common.median(run["walls"]),
        "sim_ops_per_s": run["sim_ops_rate"],
        "latency_p50_ms": common.percentile(run["latencies"], 50.0) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "max_rate_per_s": run["max_rate"],
        "cpu_s": run["cpu_s"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    return {name: {"value": value, "unit": E2E_UNITS[name]}
            for name, value in values.items()}


def _sum(totals: dict, prefix: str, suffix: str = "") -> tuple:
    """(calls, inclusive s, self s) over span names with this prefix
    and suffix."""
    calls = incl = self_s = 0
    for name, (count, inclusive, own) in totals.items():
        if name.startswith(prefix) and name.endswith(suffix):
            calls += count
            incl += inclusive
            self_s += own
    return calls, incl, self_s


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def layer_metrics(run: dict, totals: dict, counters: dict,
                  jobs: int) -> dict:
    """Per-layer metrics of a traced run (see BENCHMARK.json)."""
    ops = run["sync_ops"] + run["syscalls"]
    sched = _sum(totals, "sched.")
    agents = _sum(totals, "agents.")
    buffers = _sum(totals, "buffers.")
    perf = _sum(totals, "perf.")
    monitor = _sum(totals, "monitor.")
    kernel = _sum(totals, "kernel.")
    obs = _sum(totals, "obs.")
    sync_ops = _sum(totals, "agents.", ".after_sync_op")[0]
    syscalls = counters.get("monitor.syscalls", 0)
    counts = run.get("counts", {})
    polls = counts.get("polls", 0)
    rtt = _sum(totals, "serve.rtt.")
    handled = _sum(totals, "serve.handle.")
    late = run.get("late") or [0.0]
    values = {
        "sched.calls": (sched[0], "count"),
        "sched.incl_s": (sched[1], "s"),
        "sched.self_s": (sched[2], "s"),
        "sched.self_us_per_op": (_per(sched[2], ops, 1e6), "us"),
        "agents.sync_ops": (sync_ops, "count"),
        "agents.self_s": (agents[2], "s"),
        "agents.self_us_per_op": (_per(agents[2], sync_ops, 1e6), "us"),
        "buffers.calls": (buffers[0], "count"),
        "buffers.self_s": (buffers[2], "s"),
        "perf.contention_calls": (perf[0], "count"),
        "perf.self_s": (perf[2], "s"),
        "monitor.syscalls": (syscalls, "count"),
        "monitor.self_s": (monitor[2], "s"),
        "monitor.self_us_per_syscall": (_per(monitor[2], syscalls, 1e6),
                                        "us"),
        "kernel.execute_calls": (_sum(totals, "kernel.", ".execute")[0],
                                 "count"),
        "kernel.replicated_calls": (
            _sum(totals, "kernel.", ".apply_replicated")[0], "count"),
        "kernel.self_s": (kernel[2], "s"),
        "obs.hook_calls": (obs[0], "count"),
        "obs.self_s": (obs[2], "s"),
        "par.cells": (counters.get("par.cells", 0), "count"),
        "par.queue_wait_s": (counters.get("par.queue_wait_s", 0.0), "s"),
        "par.execute_s": (counters.get("par.execute_s", 0.0), "s"),
        "par.worker_busy_frac": (
            _per(counters.get("par.execute_s", 0.0),
                 jobs * run["traced_wall_s"]), "frac"),
        "par.transport_s": (_sum(totals, "par.recv_result")[1], "s"),
        "par.steals": (counters.get("par.steals", 0), "count"),
        "par.cells_stolen": (counters.get("par.cells_stolen", 0), "count"),
        "par.shm_results": (counters.get("par.shm_results", 0), "count"),
        "par.respawns": (run.get("pool", {}).get(
            "respawns", counters.get("par.respawns", 0)), "count"),
        "par.failed_cells": (counters.get("par.failed_cells", 0), "count"),
    }
    for op in SERVE_OPS:
        for metric, span in (("rtt_ms", "rtt"), ("handle_ms", "handle")):
            calls, incl, _ = _sum(totals, f"serve.{span}.{op}")
            values[f"serve.{metric}.{op}"] = (_per(incl, calls, 1e3), "ms")
    values.update({
        "serve.protocol_ms": (_per(rtt[1] - handled[1], rtt[0], 1e3), "ms"),
        "serve.admit_frac": (_per(counts.get("creates", 0)
                                  - counts.get("rejected", 0),
                                  counts.get("creates", 0)), "frac"),
        "serve.rejected": (counts.get("rejected", 0), "count"),
        # Each batch session ends with exactly one poll that finds it done.
        "serve.polls_per_session": (_per(polls,
                                         counts.get("useful_polls", 0)),
                                    "count"),
        "serve.poll_useful_frac": (_per(counts.get("useful_polls", 0),
                                        polls), "frac"),
        "serve.inflight_max": (counts.get("inflight_max", 0), "count"),
        "loadgen.late_ms_p50": (common.percentile(late, 50.0) * 1e3, "ms"),
        "loadgen.late_ms_max": (max(late) * 1e3, "ms"),
        "trace.overhead_frac": (common.median(run["walls"])
                                / common.median(run["untraced_walls"]) - 1,
                                "frac"),
        "fail_frac": (_per(run["failed"], run["attempted"]), "frac"),
        "sim.sync_ops": (run["sync_ops"], "count"),
        "sim.syscalls": (run["syscalls"], "count"),
    })
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


# -- entry point ----------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float,
                 traced: bool) -> dict:
    """Run one workload; returns the full record (result line included)."""
    module = WORKLOADS[workload]
    tag = f"{workload}-seed{seed}-trace{int(traced)}"
    trace_dir = str(common.OUT_DIR / f"spans-{tag}")
    shutil.rmtree(trace_dir, ignore_errors=True)
    setup_samples = [] if traced else measure_setup(workload)
    if workload == serve_open.NAME:
        run = serve_open.run(seed, seconds, traced, trace_dir)
    else:
        run = closed_loop(module, seed, seconds, traced, trace_dir)
    if traced:
        from perfbench import trace

        totals, counters = trace.merge(
            trace_dir, str(common.OUT_DIR / f"{tag}.trace.json"))
        metrics = layer_metrics(run, totals, counters,
                                getattr(module, "JOBS", 1))
        run["span_totals"] = totals
        run["rep_sched_calls"] = [
            counters.get(f"sched_calls[{rep_label(workload, rep)}]", 0)
            for rep in range(len(run["walls"]))]
    else:
        metrics = e2e_metrics(run, setup_samples)
        run["setup_samples"] = setup_samples
    result = {"correct": run["failed"] == 0, "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(traced), "host": common.host_info(),
              "result": result, "run": run}
    common.OUT_DIR.mkdir(exist_ok=True)
    with open(common.OUT_DIR / f"{tag}.json", "w") as handle:
        json.dump(record, handle, indent=1, default=str)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.use_checkout_sources()
    os.environ.pop("REPRO_TELEMETRY_DIR", None)
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    result, run = record["result"], record["run"]
    for problem in run["problems"]:
        print(f"perfbench: WRONG OUTPUT: {problem}", file=sys.stderr)
    if run.get("late_invalid"):
        print("perfbench: invalid run: the load generator fell behind its "
              f"schedule by more than {serve_open.LATE_BOUND_MS} ms",
              file=sys.stderr)
        return 3
    if run["expected_source"] != "recorded":
        print(f"perfbench: seed {args.seed} has no recorded digest; "
              "outputs were checked against a reference computed serially "
              "in a fresh interpreter", file=sys.stderr)
    host = record["host"]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} cpu_count={host['cpu_count']} "
          f"python={host['python']} digest={run['digest']} "
          f"({run['expected_source']} reference)")
    for name, metric in result["metrics"].items():
        print(f"  {name:<28} {metric['value']:>16.6g} {metric['unit']}")
    if "latency_tail" in run:
        tail = run["latency_tail"]
        if "window" in tail:
            print(f"  latency_tail_ms is the median over {tail['windows']} "
                  f"windows of {tail['window']} sessions of each window's "
                  f"p{tail['window_percentile']:g}; over all "
                  f"{tail['samples']} it is p{tail['percentile']:g} = "
                  f"{tail['whole_ms']:.6g} ms ({tail['beyond']} beyond)")
        else:
            print(f"  latency_tail_ms is p{tail['percentile']:g} of "
                  f"{tail['samples']} samples ({tail['beyond']} beyond)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
