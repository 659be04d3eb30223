"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table {1,2,3}``
    Regenerate a paper table.
``fig5 [--benchmarks a,b,c]``
    Regenerate (a subset of) Figure 5.
``run BENCH [--agent A] [--variants N] [...]``
    Run one benchmark twin under the MVEE and report the verdict and
    slowdown (``--record LOG`` also writes its decision log).
``list``
    List the available benchmark twins with their Table 2 rates.
``nginx``
    Run the §5.5 demo (divergence, instrumented run, attack).
``obs {summarize,convert} BUNDLE``
    Inspect a divergence forensics bundle (``summarize``) or convert its
    event tails to Chrome ``trace_event`` JSON for Perfetto (``convert``).
``fault-matrix``
    Survival table: inject each fault kind under each degradation policy
    and report the verdicts (see ``docs/RESILIENCE.md``).
``races {lint,check,bench}``
    Two-sided race detection (see ``docs/RACES.md``): ``lint [--analysis
    A] [--treat-volatile-as-sync] [--corpus] [--json]`` runs the
    Eraser-style lockset lint over the demo modules (optionally the full
    corpus), ``check [--analysis A] [--treat-volatile-as-sync] [--seed
    S]`` runs the §5.5 coverage cross-check (dynamic races vs statically
    identified sites), ``bench [--benchmarks B] [--no-nginx] [--scale X]
    [--seed S] [--jobs N]`` prints the races + detector-overhead
    experiment table.
``deadlock {lint,check,bench}``
    Two-sided deadlock detection (see ``docs/DEADLOCK.md``): ``lint
    [--analysis A] [--json]`` runs the RacerX-style static lock-order
    analysis over the deadlock corpus, ``check [--analysis A] [--seed
    S]`` classifies every static candidate against dynamic
    dining-philosophers evidence (confirmed / unexercised /
    refuted-by-guard), ``bench [--seed S] [--jobs N]`` prints the
    diagnosis-latency sweep (watchdog deadline vs detection at cycle
    formation).  Like ``serve`` and ``telemetry``, each action owns its
    flags: another action's flag is a usage error.
``bench [run|diff] [--compare REF]``
    Performance harness: run the benchmark matrix serially and through
    the parallel engine, measure the speedup, and write
    ``BENCH_par.json`` (``BENCH_quick.json`` for the ``--quick``
    matrix; see ``docs/PERFORMANCE.md``).  Every run is
    checked against the report contract of :mod:`repro.prof.regress`;
    ``--compare REF`` also checks it against a committed reference
    (digest identity and profile category shifts hard-fail, wall-clock
    deltas warn); ``bench diff OLD NEW`` compares two existing reports
    without re-running anything.
``profile BENCH [--agent A|all] [--flame-out F] [--lag-out L]``
    Cycle-accounting profile of one workload (``docs/PROFILING.md``):
    per-category cycle attribution, cross-variant lag series, collapsed
    flamegraph stacks, and a markdown comparison report.
``serve {start,status,bench}``
    MVEE-as-a-service (``docs/SERVING.md``).  Each action owns its
    flags: ``start [--host H] [--port P] [--state-dir D] [--bundle-dir
    D] [--checkpoint-every C] [--telemetry-dir D] [--max-sessions N]
    [--max-cycles C] [--jobs N]`` runs the session daemon in the
    foreground; ``status [--host H] [--port P]`` queries a running
    daemon; ``bench [--sessions N] [--concurrency N] [--max-sessions N]
    [--workload W] [--mode M] [--seed S] [--compare REF] [-o PATH]
    [--jobs N]`` load-tests an in-process daemon and writes
    ``BENCH_serve.json``, checked against the same report contract.
``telemetry {dump,merge}`` / ``top``
    Host-level observability (``docs/TELEMETRY.md``): ``dump [--host H]
    [--port P]`` scrapes a running daemon's host metrics as Prometheus
    text, ``merge DIR [-o OUT] [--guest TRACE]`` folds multi-process
    span logs (and a guest Chrome trace) into one Chrome trace, and
    ``top`` is a refreshing terminal view of a live daemon.  Exporting
    ``REPRO_TELEMETRY_DIR`` makes every command record host spans and
    open a trace that serve requests carry into the daemon.
``run BENCH --record LOG`` / ``replay LOG`` / ``checkpoint PATH``
    Decision-stream record/replay (``docs/REPLAY.md``): ``run --record``
    captures the master's decision stream into a replayable JSONL log,
    ``replay`` re-drives a run from a log bit-identically
    (``--to-step N`` fast-forwards then single-steps for time-travel
    forensics), and ``checkpoint`` inspects a checkpoint store or
    decision log.

Every subcommand maps a :class:`repro.errors.ReproError` to exit code 2
with a one-line message on stderr (no tracebacks for expected failures);
see :func:`_run_guarded`.

``run``, ``trace``, ``profile`` and ``fault-matrix`` take the run-spec
flags (``--agent``, ``--variants``, ``--seed``, ``--scale``; ``run`` all
of :class:`repro.run.RunSpec`) from one declaration, and
:meth:`RunSpec.validate` checks them as the serve daemon does: a spec it
refuses exits 2.  ``run`` and ``trace`` also accept ``--trace-out PATH``
(write a Perfetto-loadable Chrome trace of the run), ``--metrics``
(print the metrics snapshot), and ``--bundle-out PATH`` (write a
forensics bundle if the run diverges).  All sweeps accept ``--scale``
(event-budget multiplier, default 0.25) and ``--jobs N`` (shard sweep
cells across N worker processes via :mod:`repro.par`; output is
identical to serial).
"""

from __future__ import annotations

import argparse
import sys


def _make_hub(args):
    """Build an ObsHub when any observability flag is set (else None)."""
    if not (args.trace_out or args.metrics or args.bundle_out):
        return None
    from repro.obs import ObsHub

    return ObsHub()


def _emit_obs(args, hub, outcome=None) -> None:
    """Write/print the observability artifacts the flags asked for."""
    if hub is None:
        return
    if args.trace_out:
        hub.tracer.write_chrome(args.trace_out)
        print(f"trace     : wrote {len(hub.tracer.events)} events to "
              f"{args.trace_out}")
    if args.bundle_out:
        bundle = getattr(outcome, "obs_bundle", None)
        if bundle is not None:
            bundle.save(args.bundle_out)
            print(f"bundle    : wrote forensics bundle to "
                  f"{args.bundle_out}")
        else:
            print("bundle    : run did not diverge; no bundle written")
    if args.metrics:
        print("-- metrics --")
        print(hub.metrics.render_text())


def _cmd_table(args) -> int:
    from repro.experiments import tables

    if args.number == 1:
        print(tables.table1(scale=args.scale, jobs=args.jobs,
                            env=args.env))
    elif args.number == 2:
        print(tables.table2(scale=args.scale, jobs=args.jobs,
                            env=args.env))
    else:
        print(tables.table3(
            analysis=args.analysis,
            treat_volatile_as_sync=args.treat_volatile_as_sync))
    return 0


def _cmd_fig5(args) -> int:
    from repro.experiments.runner import run_benchmark_grid
    from repro.experiments.tables import figure5_series

    benchmarks = (args.benchmarks.split(",") if args.benchmarks
                  else None)
    results = run_benchmark_grid(benchmarks=benchmarks,
                                 scale=args.scale, jobs=args.jobs,
                                 env=args.env)
    print(figure5_series(results, scale=args.scale))
    return 0


def _spec_from_args(args):
    """The :class:`repro.run.RunSpec` the given spec flags describe,
    checked by :meth:`RunSpec.validate` as the serve daemon checks it
    (a refused spec is a :class:`repro.errors.BadRequest`: exit 2)."""
    from repro.run import RunSpec

    given = {name: getattr(args, name) for name in _SPEC_FLAGS
             if hasattr(args, name)}
    if "faults" in given:
        given["faults"] = given["faults"] or None
    return RunSpec(args.benchmark, **given).validate()


def _cmd_run(args) -> int:
    from repro.run import build_mvee

    spec = _spec_from_args(args)
    if args.record:
        return _run_recorded(args, spec)
    hub = _make_hub(args)
    mvee, native = build_mvee(spec, obs=hub,
                              checkpoints=args.checkpoint_every)
    outcome = mvee.run()
    print(f"benchmark : {spec.workload}")
    print(f"agent     : {spec.agent}, variants: {spec.variants}, "
          f"diversity: {'ASLR+DCL' if spec.diversity else 'off'}")
    if mvee.fault_injector is not None:
        print(f"faults    : planned {len(mvee.fault_injector.plan)}, "
              f"injected {len(outcome.faults)} "
              f"(policy: {spec.policy}"
              + (f", watchdog: {spec.watchdog:.0f} cycles"
                 if spec.watchdog is not None else "") + ")")
    print(f"verdict   : {outcome.verdict}")
    print(f"cycles    : {outcome.cycles}")
    if mvee.checkpointer is not None and len(mvee.checkpointer.store):
        store = mvee.checkpointer.store
        if args.checkpoint_out:
            store.path = args.checkpoint_out
            store.persist()
        print(f"checkpoint: {len(store)} snapshot(s)"
              + (f" in {store.path}" if store.path else ""))
    if outcome.races is not None:
        print(f"races     : {outcome.races.summary()}")
        for race in outcome.races.races:
            print(f"            {race}")
    if outcome.deadlocks is not None:
        print(f"deadlocks : {outcome.deadlocks.summary()}")
        for record in outcome.deadlocks.records:
            print(f"            {record}")
    for event in outcome.quarantines:
        print(f"quarantine: {event.summary()}")
    if outcome.divergence is not None:
        print(outcome.divergence.explain())
    if native is not None:
        print(f"slowdown  : {outcome.cycles / native:.2f}x vs native")
    _emit_obs(args, hub, outcome)
    return 0 if outcome.verdict in ("clean", "degraded") else 1


def _cmd_trace(args) -> int:
    from repro.perf.timeline import (VariantTraces, render_timeline,
                                     summarize_trace)
    from repro.run import build_mvee

    hub = _make_hub(args)
    traces = VariantTraces()
    mvee, _ = build_mvee(_spec_from_args(args), obs=hub,
                         consumers=(traces,))
    outcome = mvee.run()
    print(f"verdict: {outcome.verdict}\n")
    for vm in outcome.vms:
        role = "master" if vm.index == 0 else f"slave {vm.index}"
        calls = traces.per_thread_syscalls(vm)
        print(f"-- variant {vm.index} ({role}): "
              f"{sum(len(c) for c in calls.values())} monitored "
              f"syscalls across {len(calls)} threads")
        sync_ops = traces.sync_ops(vm)
        if sync_ops:
            print(render_timeline(sync_ops,
                                  label=f"sync-op replay, v{vm.index}"))
            for thread, stat in sorted(summarize_trace(sync_ops).items()):
                print(f"   {thread}: {stat['ops']} ops, mean gap "
                      f"{stat['mean_gap']:.0f} cycles")
        print()
    if outcome.divergence is not None:
        print(outcome.divergence.explain())
    _emit_obs(args, hub, outcome)
    return 0 if outcome.verdict == "clean" else 1


def _cmd_obs(args) -> int:
    from repro.obs.forensics import (
        DivergenceBundle,
        bundle_to_chrome,
        summarize_bundle,
    )

    bundle = DivergenceBundle.load(args.bundle)
    if args.action == "summarize":
        print(summarize_bundle(bundle))
        return 0
    import json

    out = args.out or (args.bundle + ".trace.json")
    with open(out, "w") as handle:
        json.dump(bundle_to_chrome(bundle), handle, sort_keys=True)
    print(f"wrote Chrome trace to {out}")
    return 0


def _cmd_fault_matrix(args) -> int:
    from repro.experiments.runner import (
        fault_matrix_table,
        run_fault_matrix,
    )

    spec = _spec_from_args(args)
    kinds = args.kinds.split(",") if args.kinds else None
    policies = args.policies.split(",") if args.policies else None
    cells = run_fault_matrix(benchmark=spec.workload, kinds=kinds,
                             policies=policies, variants=spec.variants,
                             agent=spec.agent, scale=spec.scale,
                             seed=spec.seed, jobs=args.jobs,
                             env=args.env,
                             resync_mode=spec.resync_mode,
                             checkpoint_every=args.checkpoint_every)
    print(fault_matrix_table(cells))
    return 0


def _run_recorded(args, spec) -> int:
    """``repro run --record OUT``: the run, with its decision log."""
    from repro.replay.driver import record_run

    recorded = record_run(
        spec, out_path=args.record,
        checkpoint_every=args.checkpoint_every,
        checkpoint_path=args.checkpoint_out, hub=_make_hub(args))
    outcome = recorded.outcome
    footer = recorded.footer or {}
    print(f"recorded  : {spec.workload} x{spec.variants} "
          f"({spec.agent}, seed {spec.seed})")
    print(f"verdict   : {outcome.verdict}")
    print(f"cycles    : {outcome.cycles}")
    print(f"log       : {args.record} ({len(recorded.log.records)} "
          f"decision(s), {footer.get('steps')} step(s))")
    print(f"digest    : {recorded.log.digest()}")
    if recorded.checkpointer is not None:
        store = recorded.checkpointer.store
        print(f"checkpoint: {len(store)} snapshot(s)"
              + (f" in {store.path}" if store.path else " (in-memory)"))
    _emit_obs(args, recorded.hub, outcome)
    return 0 if outcome.verdict in ("clean", "degraded") else 1


def _cmd_replay(args) -> int:
    import json

    from repro.replay.driver import replay_run
    from repro.replay.checkpoint import machine_fingerprint

    replayed = replay_run(args.log, to_step=args.to_step)
    log = replayed.log
    spec = log.spec or {}
    print(f"replaying : {args.log} "
          f"({spec.get('workload')} x{spec.get('variants')}, "
          f"{len(log.records)} decision(s))")
    divergence = replayed.replayer.first_divergence
    if args.to_step is not None and replayed.outcome is None:
        print(f"stopped   : step {replayed.stopped_at_step} "
              + ("at first divergence" if divergence is not None
                 else f"(asked for {args.to_step})"))
    if divergence is not None:
        print(f"divergence: {divergence.describe()}")
    if replayed.outcome is not None:
        matches = replayed.matches()
        for key in ("verdict", "cycles", "obs_digest"):
            entry = matches.get(key)
            if entry is None:
                continue
            mark = "match" if entry["match"] else "MISMATCH"
            print(f"{key:10s}: {entry['replayed']} ({mark})")
        if "log_digest_match" in matches:
            print("log digest: "
                  + ("stable" if matches["log_digest_match"]
                     else "MOVED (re-serialization changed the log)"))
    if args.bundle_out:
        bundle = {
            "kind": "repro-replay-forensics",
            "log": args.log,
            "header": log.header_dict(),
            "recorded": log.footer,
            "stopped_at_step": replayed.stopped_at_step,
            "divergence": (divergence.describe()
                           if divergence is not None else None),
            "machine": (machine_fingerprint(replayed.mvee)
                        if replayed.mvee is not None else None),
        }
        with open(args.bundle_out, "w") as handle:
            json.dump(bundle, handle, indent=1, sort_keys=True,
                      default=repr)
            handle.write("\n")
        print(f"bundle    : wrote replay forensics to "
              f"{args.bundle_out}")
    if divergence is not None:
        return 1
    if replayed.outcome is not None:
        matches = replayed.matches()
        checks = [entry["match"] for entry in matches.values()
                  if isinstance(entry, dict) and "match" in entry]
        if not all(checks) or matches.get("log_digest_match") is False:
            return 1
    return 0


def _cmd_checkpoint(args) -> int:
    import json

    from repro.errors import ReplayError
    from repro.replay.checkpoint import CheckpointStore
    from repro.replay.log import DecisionLog

    try:
        store = CheckpointStore.load(args.path)
    except ReplayError:
        store = None
    if store is not None:
        if args.json:
            print(json.dumps(store.to_dict(), indent=1, sort_keys=True))
            return 0
        print(f"checkpoint store: {args.path} "
              f"({len(store)} snapshot(s))")
        for ckpt in store.checkpoints:
            print(f"  #{ckpt.index}: at {ckpt.at_cycles:.0f} cycles, "
                  f"step {ckpt.steps}, decision {ckpt.decision_index}, "
                  f"{len(ckpt.master_seq)} master thread(s)")
        return 0
    log = DecisionLog.load(args.path)  # raises typed ReplayError
    if args.json:
        print(json.dumps({"header": log.header_dict(),
                          "records": len(log.records),
                          "footer": log.footer,
                          "digest": log.digest()},
                         indent=1, sort_keys=True))
        return 0
    spec = log.spec or {}
    print(f"decision log: {args.path}")
    print(f"  spec    : {spec.get('workload')} x{spec.get('variants')} "
          f"({spec.get('agent')}, seed {spec.get('seed')})")
    print(f"  records : {len(log.records)}")
    print(f"  digest  : {log.digest()}")
    if log.footer is not None:
        print(f"  sealed  : verdict {log.footer.get('verdict')}, "
              f"{log.footer.get('steps')} step(s), "
              f"cycles {log.footer.get('cycles')}")
    else:
        print("  sealed  : no (torn or in-flight log)")
    return 0


def _races_lint(args) -> int:
    from repro.analysis.corpus import (
        guarded_counter_module,
        nginx_module,
        paper_corpus,
        racy_counter_module,
        spinlock_module,
        volatile_flag_module,
    )
    from repro.races.lockset import lint_module

    modules = [spinlock_module(), volatile_flag_module(),
               racy_counter_module(), guarded_counter_module(),
               nginx_module()]
    if args.corpus:
        modules.extend(paper_corpus())
    lints = [lint_module(
        module, analysis=args.analysis,
        treat_volatile_as_sync=args.treat_volatile_as_sync)
        for module in modules]
    flagged = sum(len(lint.candidates) for lint in lints)
    if args.json:
        import json

        payload = [{
            "module": lint.module,
            "analysis": lint.analysis,
            "objects_seen": lint.objects_seen,
            "accesses_recorded": lint.accesses_recorded,
            "candidates": [{
                "object": candidate.obj,
                "writes": candidate.writes,
                "functions": sorted(candidate.functions()),
                "sites": sorted(candidate.sites()),
                "source_lines": [list(line) for line in
                                 sorted(candidate.source_lines())],
            } for candidate in lint.candidates],
        } for lint in lints]
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 1 if flagged else 0
    for lint in lints:
        print(lint.summary())
        for candidate in lint.candidates:
            print(f"  {candidate}")
    print(f"-- {flagged} candidate(s) across {len(modules)} module(s) "
          f"({args.analysis}, treat_volatile_as_sync="
          f"{'on' if args.treat_volatile_as_sync else 'off'})")
    return 1 if flagged else 0


def _races_check(args) -> int:
    from repro.analysis.corpus import nginx_module
    from repro.experiments.runner import nginx_identified_sites
    from repro.races.coverage import corroborate, cross_check
    from repro.races.lockset import lint_module
    from repro.run import NGINX_PAPER_SIZING, RunSpec, run_spec_cell
    from repro.workloads.nginx import pthread_only_sites

    spec = RunSpec("nginx", seed=args.seed, race_detect=True,
                   params=NGINX_PAPER_SIZING)

    print("condition 1: nginx with corpus-only identification "
          "(custom primitives un-instrumented)")
    bare = run_spec_cell(spec, instrument=pthread_only_sites)
    coverage = cross_check(bare.races,
                           nginx_identified_sites(after_refactor=False),
                           workload="nginx/bare")
    lint = lint_module(
        nginx_module(), analysis=args.analysis,
        treat_volatile_as_sync=args.treat_volatile_as_sync)
    coverage = corroborate(coverage, lint)
    print(f"  verdict : {bare.verdict}")
    print(f"  dynamic : {bare.races.summary()}")
    print(f"  static  : {lint.summary()}")
    print(f"  {coverage.summary()}")
    for gap in coverage.gaps:
        print(f"  {gap}")

    print("condition 2: nginx after the §5.5 refactor "
          "(every site identified)")
    full = run_spec_cell(spec)
    coverage_full = cross_check(
        full.races, nginx_identified_sites(after_refactor=True),
        workload="nginx/full")
    print(f"  verdict : {full.verdict}")
    print(f"  dynamic : {full.races.summary()}")
    print(f"  {coverage_full.summary()}")

    closed = (not coverage.clean and coverage_full.clean
              and not full.races.races)
    print("cross-check: " +
          ("gap detected before the refactor, closed after — "
           "the Listing-2 blind spot is visible and fixable"
           if closed else
           "UNEXPECTED — see the conditions above"))
    return 0 if closed else 1


def _races_bench(args) -> int:
    from repro.experiments.runner import race_sweep_table, run_race_sweep

    benchmarks = (tuple(args.benchmarks.split(","))
                  if args.benchmarks else ("dedup", "vips"))
    rows = run_race_sweep(benchmarks=benchmarks, scale=args.scale,
                          seed=args.seed,
                          include_nginx=not args.no_nginx,
                          jobs=args.jobs, env=args.env)
    print(race_sweep_table(rows))
    return 0


def _load_reference(path: str | None, kind: str):
    """``(ref, trajectory)`` for ``--compare PATH`` (``(None, None)``
    without one): the reference report, and the history a fresh report
    carries forward — the reference's own plus the reference itself."""
    from repro.prof import regress

    if not path:
        return None, None
    ref = regress.load_report(path, expected_kind=kind)
    return ref, (list(ref.get("trajectory") or [])
                 + [regress.trajectory_entry(ref)])


def _check_report(report: dict, ref: dict | None) -> int:
    """Print the report's contract findings; the exit code they give."""
    from repro.prof import regress

    findings = regress.check(report, ref)
    print(regress.render_findings(findings))
    return regress.exit_code(findings)


def _cmd_bench(args) -> int:
    from repro.errors import ConfigError
    from repro.par.bench import (
        DEFAULT_OUT,
        QUICK_OUT,
        render_bench,
        run_bench,
    )
    from repro.prof import regress

    if args.action == "diff":
        if len(args.reports) != 2:
            print("repro bench diff: expected exactly two report paths "
                  "(OLD NEW)", file=sys.stderr)
            return 2
        ref, new = (regress.load_report(path) for path in args.reports)
        return _check_report(new, ref)
    if args.trace_dir and args.jobs <= 1:
        raise ConfigError("--trace-dir needs --jobs > 1 (guest traces "
                          "come from the parallel pass)")
    out = args.out
    if out is None:
        out = QUICK_OUT if args.quick else DEFAULT_OUT
    ref, trajectory = _load_reference(args.compare, "repro-bench")
    report = run_bench(jobs=args.jobs, quick=args.quick,
                       scale=args.scale, seed=args.seed,
                       env=args.env,
                       out_path=out, trace_dir=args.trace_dir,
                       trajectory=trajectory)
    print(render_bench(report))
    if out:
        print(f"wrote    : {out}")
    return _check_report(report, ref)


def _cmd_profile(args) -> int:
    from repro.errors import ConfigError
    from repro.prof.analytics import (
        render_report,
        write_flamegraph,
        write_lag_series,
    )
    from repro.prof.runner import PROFILE_AGENTS, run_profiles
    from repro.workloads.spec import ALL_SPECS

    if args.benchmark != "nginx" and args.benchmark not in ALL_SPECS:
        raise ConfigError(f"unknown benchmark {args.benchmark!r} (see "
                          "`repro list`; 'nginx' profiles the §5.5 "
                          "server)")
    # 'all' is no RunSpec agent: the spec takes the other flags.
    agent = vars(args).pop("agent", None)
    spec = _spec_from_args(args)
    choices = PROFILE_AGENTS + ("all",)
    if agent not in (None, *choices):
        raise ConfigError(f"unknown agent {agent!r}; expected one of "
                          + ", ".join(choices))
    agents = PROFILE_AGENTS if agent == "all" else (agent or spec.agent,)
    results = run_profiles(spec.workload, agents, variants=spec.variants,
                           scale=spec.scale, seed=spec.seed,
                           jobs=args.jobs, env=args.env,
                           lag_sample_every=args.lag_sample_every)
    for result in results:
        profile = result["profile"]
        print(f"{result['agent']:15s} verdict={result['verdict']:9s} "
              f"machine={result['machine_cycles']:,.0f} cycles  "
              f"accounted={profile['total_cycles']:,.0f}")
    if args.flame_out:
        count = write_flamegraph(results, args.flame_out)
        print(f"flamegraph: {count} collapsed stack(s) -> "
              f"{args.flame_out}")
    if args.lag_out:
        count = write_lag_series(results, args.lag_out)
        print(f"lag series: {count} sample(s) -> {args.lag_out}")
    if args.report_out:
        with open(args.report_out, "w") as handle:
            handle.write(render_report(results))
            handle.write("\n")
        print(f"report    : {args.report_out}")
    else:
        print()
        print(render_report(results))
    return 0 if all(r["verdict"] in ("clean", "degraded")
                    for r in results) else 1


def _deadlock_lint(args) -> int:
    from repro.analysis.corpus import deadlock_corpus
    from repro.analysis.lockorder import analyze_module

    reports = [analyze_module(module, analysis=args.analysis)
               for module in deadlock_corpus()]
    flagged = sum(len(report.flagged) for report in reports)
    if args.json:
        import json

        payload = [{
            "module": report.module,
            "analysis": report.analysis,
            "functions_analyzed": report.functions_analyzed,
            "lock_objects": sorted(report.lock_objects),
            "edges": [[str(first), str(second)]
                      for first, second in sorted(
                          report.edges, key=lambda e: (str(e[0]),
                                                       str(e[1])))],
            "candidates": [{
                "cycle": candidate.name(),
                "suppressed": candidate.suppressed,
                "suppression": candidate.suppression,
                "sites": sorted(candidate.sites()),
                "source_lines": [list(line) for line in
                                 sorted(candidate.source_lines())],
                "functions": sorted(candidate.functions()),
            } for candidate in report.candidates],
        } for report in reports]
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 1 if flagged else 0
    for report in reports:
        print(report.summary())
        for candidate in report.candidates:
            status = (f"suppressed ({candidate.suppression})"
                      if candidate.suppressed else "FLAGGED")
            print(f"  {candidate.name()} [{status}]")
            print(f"    sites : {', '.join(sorted(candidate.sites()))}")
            lines = ", ".join(f"{f}:{n}" for f, n in
                              sorted(candidate.source_lines()))
            print(f"    lines : {lines}")
    print(f"-- {flagged} flagged candidate(s) across {len(reports)} "
          f"module(s) ({args.analysis})")
    return 1 if flagged else 0


def _deadlock_check(args) -> int:
    from repro.analysis.corpus import deadlock_corpus
    from repro.analysis.lockorder import (
        CONFIRMED,
        REFUTED,
        UNEXERCISED,
        analyze_module,
        cross_check,
    )
    from repro.races.deadlock import DeadlockReport
    from repro.run import RunSpec, run_spec_cell

    print("dynamic evidence: dining philosophers, blocking and "
          "trylock-guarded tables")
    wedged, clean = run_spec_cell([
        RunSpec(workload, seed=args.seed, deadlock_detect=True)
        for workload in ("philosophers/3", "philosophers/3+trylock")])
    wedging, guarded = wedged.deadlocks, clean.deadlocks
    print(f"  blocking : {wedged.verdict} ({wedging.summary()})")
    print(f"  guarded  : {clean.verdict} ({guarded.summary()})")
    evidence = DeadlockReport(
        records=wedging.records + guarded.records,
        observed_sites=wedging.observed_sites | guarded.observed_sites,
        guard_sites=wedging.guard_sites | guarded.guard_sites)

    expected = {"philosophers": CONFIRMED, "abba": UNEXERCISED,
                "trylock_guarded": REFUTED}
    all_match = (wedged.verdict == "deadlock"
                 and clean.verdict == "clean")
    print("static candidates vs dynamic evidence:")
    for module in deadlock_corpus():
        report = analyze_module(module, analysis=args.analysis)
        verdicts = cross_check(report, evidence)
        for verdict in verdicts:
            print(f"  {report.module:16s} {verdict.candidate.name():30s} "
                  f"{verdict.classification:17s} {verdict.reason}")
            if verdict.classification != expected.get(report.module):
                all_match = False
        if not verdicts:
            print(f"  {report.module:16s} (no candidates)")
            all_match = False
    print("cross-check: " +
          ("the wedging cycle is confirmed, the never-run inversion "
           "stays unexercised, and the trylock guard refutes its "
           "candidate" if all_match else
           "UNEXPECTED — see the classifications above"))
    return 0 if all_match else 1


def _deadlock_bench(args) -> int:
    from repro.experiments.runner import (
        deadlock_sweep_table,
        run_deadlock_sweep,
    )

    rows = run_deadlock_sweep(seed=args.seed, jobs=args.jobs,
                              env=args.env)
    print(deadlock_sweep_table(rows))
    return 0


def _cmd_list(args) -> int:
    from repro.workloads.spec import ALL_SPECS, catalog

    if args.json:
        import json

        print(json.dumps(catalog(), indent=1, sort_keys=True))
        return 0
    print(f"{'benchmark':18s} {'suite':9s} {'topology':14s} "
          f"{'syscalls K/s':>12s} {'sync K/s':>10s}")
    for name, spec in ALL_SPECS.items():
        print(f"{name:18s} {spec.suite:9s} {spec.topology:14s} "
              f"{spec.syscall_rate_k:12.2f} {spec.sync_rate_k:10.2f}")
    return 0


def _serve_start(args) -> int:
    from repro.serve.daemon import ServeConfig, ServeDaemon

    daemon = ServeDaemon(ServeConfig(
        host=args.host, port=args.port, state_dir=args.state_dir,
        max_sessions=args.max_sessions,
        max_cycles_per_session=args.max_cycles,
        jobs=args.jobs, env=args.env, bundle_dir=args.bundle_dir,
        checkpoint_every=args.checkpoint_every,
        telemetry_dir=args.telemetry_dir))
    if daemon.registry.recovered:
        for sid, state in sorted(daemon.registry.recovered.items()):
            print(f"recovered : {sid} -> {state}")
    host, port = daemon.start()
    print(f"serving   : {host}:{port} "
          f"(quota {args.max_sessions} sessions, "
          f"{args.jobs} worker job(s) [{daemon.executor.env}]"
          + (f", state in {args.state_dir}" if args.state_dir else "")
          + ")", flush=True)
    try:
        daemon.join()
    except KeyboardInterrupt:
        print("stopping")
    finally:
        daemon.stop()
    return 0


def _serve_status(args) -> int:
    import json

    from repro.serve.client import ServeClient

    with ServeClient(args.host, args.port) as client:
        status = client.status()
    status.pop("ok", None)
    status.pop("op", None)
    status.pop("status", None)
    print(json.dumps(status, indent=1, sort_keys=True))
    return 0


def _serve_bench(args) -> int:
    from repro.serve.bench import render_serve_bench, run_serve_bench

    ref, trajectory = _load_reference(args.compare, "repro-serve-bench")
    report = run_serve_bench(
        sessions=args.sessions, concurrency=args.concurrency,
        max_sessions=args.max_sessions, jobs=args.jobs, env=args.env,
        workload=args.workload, base_seed=args.seed, mode=args.mode,
        out_path=args.out or None, trajectory=trajectory)
    print(render_serve_bench(report))
    if args.out:
        print(f"wrote    : {args.out}")
    return _check_report(report, ref)


def _telemetry_dump(args) -> int:
    from repro.serve.client import ServeClient

    with ServeClient(args.host, args.port) as client:
        response = client.host_metrics()
    sys.stdout.write(response.get("exposition") or "")
    return 0


def _telemetry_merge(args) -> int:
    from repro.telemetry.spans import merge_host_trace

    out = args.out or (args.dir.rstrip("/") + ".trace.json")
    guests = [("guest", args.guest)] if args.guest else []
    merged = merge_host_trace(args.dir, out, guests=guests)
    print(f"merged    : {merged['spans']} span(s) across "
          f"{merged['tracks']} track(s) -> {merged['out']} "
          f"({merged['events']} trace event(s))")
    if merged["spans"] == 0:
        print(f"            (no spans-*.jsonl under {args.dir}; was "
              "the daemon started with --telemetry-dir, or "
              "REPRO_TELEMETRY_DIR exported?)")
    return 0


def _cmd_top(args) -> int:
    from repro.telemetry.top import run_top

    iterations = 1 if args.once else args.iterations
    return run_top(args.host, args.port, interval_s=args.interval,
                   iterations=iterations)


def _cmd_nginx(args) -> int:
    import runpy
    import pathlib

    demo = (pathlib.Path(__file__).resolve().parent.parent.parent
            / "examples" / "nginx_attack_demo.py")
    if demo.exists():
        runpy.run_path(str(demo), run_name="__main__")
        return 0
    print("examples/nginx_attack_demo.py not found in this install; "
          "see the repository checkout.")
    return 1


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    from repro.par.cells import ENVIRONMENT_NAMES

    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="shard sweep cells across N workers "
                             "(default 1 = serial; output is identical "
                             "either way — see docs/PERFORMANCE.md)")
    parser.add_argument("--env", default=None,
                        choices=ENVIRONMENT_NAMES,
                        help="execution environment for the workers: "
                             "serial in-process or a persistent "
                             "process pool "
                             "(default: process when --jobs > 1; "
                             "output is digest-identical in both "
                             "environments — see docs/PERFORMANCE.md)")


#: The run-spec flags, declared once: ``{RunSpec field: add_argument
#: keywords}``.  Defaults and choices belong to
#: :class:`repro.run.RunSpec` and its validator (building the parser
#: must not load the simulator), so each flag defaults to ``SUPPRESS``
#: and only the given ones reach :func:`_spec_from_args`.
_SPEC_FLAGS = {
    "agent": {"help": "sync agent (default: wall_of_clocks; an unknown "
                      "name lists the others)"},
    "variants": {"type": int},
    "seed": {"type": int},
    "scale": {"type": float},
    "diversity": {"action": "store_true", "help": "enable ASLR + DCL"},
    "faults": {"metavar": "PLAN",
               "help": "fault plan: 'random' (seeded by --fault-seed) "
                       "or comma-separated KIND@vN:AT[:PARAM] specs; "
                       "kinds: crash, stall, corrupt_sync, drop_wake, "
                       "clock_skew"},
    "fault_seed": {"type": int,
                   "help": "seed for '--faults random' (default 0)"},
    "policy": {"help": "degradation policy when a variant is condemned: "
                       "kill-all (the default, the paper's behaviour), "
                       "quarantine or restart"},
    "race_detect": {"action": "store_true",
                    "help": "attach the happens-before race detector "
                            "(see docs/RACES.md); zero simulated-cycle "
                            "cost, reports races after the run"},
    "deadlock_detect": {"action": "store_true",
                        "help": "attach the wait-for-graph deadlock "
                                "detector (see docs/DEADLOCK.md); a "
                                "guest lock cycle ends the run with a "
                                "'deadlock' verdict at cycle formation"},
    "watchdog": {"type": float, "metavar": "CYCLES",
                 "help": "lockstep rendezvous deadline in simulated "
                         "cycles; a variant missing the deadline is "
                         "diagnosed (WATCHDOG_TIMEOUT) instead of "
                         "hanging the run (default: off)"},
    "resync_mode": {"metavar": "MODE",
                    "help": "restart-policy resync strategy: 'history' "
                            "(the default) replays full master history "
                            "at cost, 'checkpoint' fast-forwards to the "
                            "latest checkpoint frontier "
                            "(docs/REPLAY.md)"},
}

#: The spec flags of the commands that sweep or trace a run rather than
#: take the whole spec (``run`` does).
_CORE_SPEC_FLAGS = ("agent", "variants", "seed", "scale")


def _add_spec_flags(parser: argparse.ArgumentParser, *fields) -> None:
    """Add the run-spec flags named by ``fields`` (default: all)."""
    for name in fields or _SPEC_FLAGS:
        parser.add_argument("--" + name.replace("_", "-"),
                            default=argparse.SUPPRESS,
                            **_SPEC_FLAGS[name])


def _add_checkpoint_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--checkpoint-every", type=float, default=None,
                        metavar="CYCLES",
                        help="machine checkpoint cadence in simulated "
                             "cycles (default: off; under --resync-mode "
                             "checkpoint a benchmark twin checkpoints "
                             "every native/64 cycles, the cadence "
                             "replay rebuilds with)")


def _add_daemon_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1",
                        help="daemon host (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=7333,
                        help="daemon port (default 7333; for 'serve "
                             "start', 0 picks an ephemeral port)")


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write a Chrome trace_event JSON of the run "
                             "(open in https://ui.perfetto.dev)")
    parser.add_argument("--metrics", action="store_true",
                        help="print the metrics snapshot after the run")
    parser.add_argument("--bundle-out", default=None, metavar="PATH",
                        help="write a divergence forensics bundle here "
                             "if the run diverges")


def _add_serve_parser(sub) -> None:
    p_serve = sub.add_parser(
        "serve",
        help="MVEE-as-a-service: session daemon, status client, and "
             "load test (see docs/SERVING.md)")
    actions = p_serve.add_subparsers(dest="action", required=True)

    p_start = actions.add_parser(
        "start", help="run the session daemon in the foreground")
    _add_daemon_flags(p_start)
    p_start.add_argument("--state-dir", default=None, metavar="DIR",
                         help="journal the session registry here so it "
                              "survives daemon restarts (default: "
                              "in-memory only)")
    p_start.add_argument("--bundle-dir", default=None, metavar="DIR",
                         help="write divergence forensics bundles for "
                              "served sessions here")
    p_start.add_argument("--checkpoint-every", type=float, default=None,
                         metavar="CYCLES",
                         help="record stepped sessions' decision "
                              "streams and checkpoint them every CYCLES "
                              "simulated cycles (needs --state-dir); "
                              "interrupted restart-policy sessions then "
                              "resume in-flight work after a daemon "
                              "crash (docs/REPLAY.md)")
    p_start.add_argument("--telemetry-dir", default=None, metavar="DIR",
                         help="record host-time spans (daemon ops, "
                              "sessions, pool workers) as JSONL under "
                              "DIR; merge them with 'repro telemetry "
                              "merge DIR' (docs/TELEMETRY.md)")
    p_start.add_argument("--max-cycles", type=float, default=None,
                         metavar="CYCLES",
                         help="per-session simulated-cycle quota; a "
                              "session exceeding it is killed "
                              "(default: unlimited)")
    p_start.set_defaults(func=_serve_start)

    p_status = actions.add_parser(
        "status", help="query a running daemon's status")
    _add_daemon_flags(p_status)
    p_status.set_defaults(func=_serve_status)

    p_bench = actions.add_parser(
        "bench",
        help="load-test an in-process daemon with many short sessions "
             "and write BENCH_serve.json")
    p_bench.add_argument("--sessions", type=int, default=256,
                         help="total sessions to push (default 256)")
    p_bench.add_argument("--concurrency", type=int, default=72,
                         help="concurrent client threads (default 72, "
                              "above the default quota so admission "
                              "control engages)")
    p_bench.add_argument("--workload", default="nginx",
                         help="workload for every session "
                              "(default nginx)")
    p_bench.add_argument("--mode", default="batch",
                         choices=("batch", "step"),
                         help="drive sessions through the worker pool "
                              "('batch') or in step batches ('step'); "
                              "digests are identical")
    p_bench.add_argument("--seed", type=int, default=1,
                         help="base seed for per-session seed "
                              "derivation")
    p_bench.add_argument("--compare", default=None, metavar="REF",
                         help="gate the fresh report against REF "
                              "(digest/completion hard-fail, throughput "
                              "warns) and carry REF's trajectory "
                              "forward")
    p_bench.add_argument("-o", "--out", default="BENCH_serve.json",
                         metavar="PATH",
                         help="artifact path (default: BENCH_serve.json;"
                              " empty string to skip)")
    p_bench.set_defaults(func=_serve_bench)

    for parser in (p_start, p_bench):
        parser.add_argument("--max-sessions", type=int, default=64,
                            help="admission control: max concurrently "
                                 "active sessions (default 64)")
        _add_jobs_flag(parser)


def _add_telemetry_parser(sub) -> None:
    p_tel = sub.add_parser(
        "telemetry",
        help="host-level observability: dump a daemon's Prometheus "
             "exposition, or merge span logs into one Chrome trace "
             "(see docs/TELEMETRY.md)")
    actions = p_tel.add_subparsers(dest="action", required=True)

    p_dump = actions.add_parser(
        "dump",
        help="scrape a running daemon's host metrics as Prometheus text")
    _add_daemon_flags(p_dump)
    p_dump.set_defaults(func=_telemetry_dump)

    p_merge = actions.add_parser(
        "merge",
        help="fold every spans-*.jsonl under DIR into one trace_event "
             "file")
    p_merge.add_argument("dir",
                         help="the span-log directory (the "
                              "--telemetry-dir the daemon/CLI wrote to)")
    p_merge.add_argument("-o", "--out", default=None, metavar="PATH",
                         help="output path (default: DIR.trace.json)")
    p_merge.add_argument("--guest", default=None, metavar="TRACE",
                         help="also fold this guest Chrome trace (from "
                              "--trace-out) into the merged view")
    p_merge.set_defaults(func=_telemetry_merge)


#: The flags of the static/dynamic analysis commands (``races``,
#: ``deadlock``), declared once: ``{flag: add_argument keywords}``.
_ANALYSIS_FLAGS = {
    "--analysis": {"default": "andersen",
                   "choices": ("andersen", "steensgaard"),
                   "help": "points-to analysis (default: andersen)"},
    "--treat-volatile-as-sync": {
        "action": "store_true", "help": "treat volatile globals as sync "
                                        "primitives (the Listing-2 fix)"},
    "--corpus": {"action": "store_true",
                 "help": "also lint the full paper corpus"},
    "--json": {"action": "store_true",
               "help": "machine-readable candidate dump"},
    "--benchmarks": {"help": "comma-separated lockstep benchmarks "
                             "(default: dedup,vips)"},
    "--no-nginx": {"action": "store_true",
                   "help": "skip the nginx conditions"},
    "--scale": {"type": float, "default": 0.1},
    "--seed": {"type": int, "default": 1},
}


def _add_analysis_parser(sub, command: str, summary: str,
                         actions) -> None:
    """Add ``command`` with one subparser per action; ``actions`` maps
    each action to its handler and the :data:`_ANALYSIS_FLAGS` it owns
    (``--jobs`` adds :func:`_add_jobs_flag`'s pair)."""
    parsers = sub.add_parser(command, help=summary).add_subparsers(
        dest="action", required=True)
    for action, (func, flags) in actions.items():
        parser = parsers.add_parser(action)
        for flag in flags:
            if flag == "--jobs":
                _add_jobs_flag(parser)
            else:
                parser.add_argument(flag, **_ANALYSIS_FLAGS[flag])
        parser.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Taming Parallelism in a "
                    "Multi-Variant Execution Environment' (EuroSys'17)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="regenerate a paper table")
    p_table.add_argument("number", type=int, choices=(1, 2, 3))
    p_table.add_argument("--scale", type=float, default=0.25)
    p_table.add_argument("--analysis", default="andersen",
                         choices=("andersen", "steensgaard"),
                         help="table 3: points-to analysis for stage 2 "
                              "(default: andersen)")
    p_table.add_argument("--treat-volatile-as-sync", action="store_true",
                         help="table 3: treat volatile globals as sync "
                              "primitives (closes the Listing-2 gap; "
                              "see docs/RACES.md)")
    _add_jobs_flag(p_table)
    p_table.set_defaults(func=_cmd_table)

    p_fig = sub.add_parser("fig5", help="regenerate Figure 5")
    p_fig.add_argument("--benchmarks", default=None,
                       help="comma-separated subset")
    p_fig.add_argument("--scale", type=float, default=0.25)
    _add_jobs_flag(p_fig)
    p_fig.set_defaults(func=_cmd_fig5)

    p_bench = sub.add_parser(
        "bench",
        help="run the benchmark matrix serially and sharded, measure "
             "the speedup, and write BENCH_par.json")
    p_bench.add_argument("action", nargs="?", default="run",
                         choices=("run", "diff"),
                         help="'run' (default) executes the matrix; "
                              "'diff OLD NEW' compares two existing "
                              "reports without running anything")
    p_bench.add_argument("reports", nargs="*", metavar="REPORT",
                         help="for diff: the two report paths (OLD NEW)")
    p_bench.add_argument("--compare", default=None, metavar="REF",
                         help="after the run, gate the fresh report "
                              "against this reference report "
                              "(non-zero exit on regression)")
    p_bench.add_argument("--quick", action="store_true",
                         help="small matrix (2 cells) for smoke runs")
    p_bench.add_argument("--scale", type=float, default=None,
                         help="event-budget multiplier (default 0.1, "
                              "or 0.05 with --quick)")
    p_bench.add_argument("--seed", type=int, default=1)
    p_bench.add_argument("-o", "--out", default=None, metavar="PATH",
                         help="report path (default: BENCH_par.json, or "
                              "BENCH_quick.json with --quick; empty "
                              "string to skip writing)")
    p_bench.add_argument("--trace-dir", default=None, metavar="DIR",
                         help="collect the parallel pass's per-cell obs "
                              "traces here and merge them into "
                              "DIR/merged.trace.json (needs --jobs > 1)")
    _add_jobs_flag(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_prof = sub.add_parser(
        "profile",
        help="cycle-accounting profile: per-category attribution, "
             "cross-variant lag, flamegraph; '--agent all' compares the "
             "three main agents (see docs/PROFILING.md)")
    p_prof.add_argument("benchmark", help="benchmark twin or 'nginx'")
    _add_spec_flags(p_prof, *_CORE_SPEC_FLAGS)
    p_prof.add_argument("--lag-sample-every", type=int, default=1,
                        metavar="K",
                        help="keep every K-th lag sample in the series "
                             "(default 1 = all; summaries always see "
                             "every event)")
    p_prof.add_argument("--flame-out", default=None, metavar="PATH",
                        help="write collapsed stacks here (flamegraph.pl"
                             " / speedscope format)")
    p_prof.add_argument("--lag-out", default=None, metavar="PATH",
                        help="write the lag series here (JSONL)")
    p_prof.add_argument("--report-out", default=None, metavar="PATH",
                        help="write the markdown report here "
                             "(default: print to stdout)")
    _add_jobs_flag(p_prof)
    p_prof.set_defaults(func=_cmd_profile)

    p_run = sub.add_parser("run", help="run one benchmark under the MVEE")
    p_run.add_argument("benchmark")
    _add_spec_flags(p_run)
    _add_checkpoint_flag(p_run)
    p_run.add_argument("--checkpoint-out", default=None, metavar="PATH",
                       help="persist checkpoints to PATH "
                            "(.ckpt.json; default: in-memory only)")
    p_run.add_argument("--record", default=None, metavar="OUT",
                       help="record the master's decision stream to "
                            "OUT (a JSONL decision log replayable with "
                            "'repro replay'; see docs/REPLAY.md)")
    _add_obs_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_replay = sub.add_parser(
        "replay",
        help="re-drive a recorded run from its decision log "
             "(docs/REPLAY.md)")
    p_replay.add_argument("log", help="decision-log path")
    p_replay.add_argument("--to-step", type=int, default=None,
                          metavar="N",
                          help="fast-forward to machine step N, then "
                               "single-step (stops early at the first "
                               "divergence from the log)")
    p_replay.add_argument("--bundle-out", default=None, metavar="PATH",
                          help="write a replay-forensics JSON bundle "
                               "(log header, divergence, machine "
                               "fingerprint at the stop point)")
    p_replay.set_defaults(func=_cmd_replay)

    p_ckpt = sub.add_parser(
        "checkpoint",
        help="inspect a checkpoint store or decision log")
    p_ckpt.add_argument("path",
                        help="checkpoint store (.ckpt.json) or "
                             "decision log (.decisions.jsonl)")
    p_ckpt.add_argument("--json", action="store_true",
                        help="machine-readable dump")
    p_ckpt.set_defaults(func=_cmd_checkpoint)

    p_trace = sub.add_parser(
        "trace", help="run a benchmark and show lockstep/replay traces")
    p_trace.add_argument("benchmark")
    _add_spec_flags(p_trace, *_CORE_SPEC_FLAGS)
    _add_obs_flags(p_trace)
    p_trace.set_defaults(func=_cmd_trace, scale=0.05)

    p_obs = sub.add_parser(
        "obs", help="inspect observability artifacts (forensics bundles)")
    p_obs.add_argument("action", choices=("summarize", "convert"),
                       help="summarize a bundle, or convert its event "
                            "tails to a Chrome trace")
    p_obs.add_argument("bundle", help="path to a forensics bundle JSON")
    p_obs.add_argument("-o", "--out", default=None,
                       help="output path for convert "
                            "(default: BUNDLE.trace.json)")
    p_obs.set_defaults(func=_cmd_obs)

    p_fm = sub.add_parser(
        "fault-matrix",
        help="survival table: degradation policy x injected fault kind")
    p_fm.add_argument("--benchmark", default="dedup")
    p_fm.add_argument("--kinds", default=None,
                      help="comma-separated fault kinds (default: all)")
    p_fm.add_argument("--policies", default=None,
                      help="comma-separated policies "
                           "(default: kill-all,quarantine,restart)")
    _add_spec_flags(p_fm, *_CORE_SPEC_FLAGS, "resync_mode")
    _add_checkpoint_flag(p_fm)
    _add_jobs_flag(p_fm)
    p_fm.set_defaults(func=_cmd_fault_matrix, variants=3, scale=0.1)

    _add_analysis_parser(sub, "races", (
        "two-sided race detection: lockset lint, §5.5 coverage "
        "cross-check, detector-overhead sweep"), {
        "lint": (_races_lint, ("--analysis", "--treat-volatile-as-sync",
                               "--corpus", "--json")),
        "check": (_races_check, ("--analysis", "--treat-volatile-as-sync",
                                 "--seed")),
        "bench": (_races_bench, ("--benchmarks", "--no-nginx", "--scale",
                                 "--seed", "--jobs"))})
    _add_analysis_parser(sub, "deadlock", (
        "two-sided deadlock detection: static lock-order lint, "
        "cross-check vs the runtime wait-for graph, latency sweep "
        "(see docs/DEADLOCK.md)"), {
        "lint": (_deadlock_lint, ("--analysis", "--json")),
        "check": (_deadlock_check, ("--analysis", "--seed")),
        "bench": (_deadlock_bench, ("--seed", "--jobs"))})

    p_list = sub.add_parser("list", help="list benchmark twins")
    p_list.add_argument("--json", action="store_true",
                        help="machine-readable workload catalog (the "
                             "same structure the serve daemon's "
                             "'workloads' op returns)")
    p_list.set_defaults(func=_cmd_list)

    _add_serve_parser(sub)
    _add_telemetry_parser(sub)

    p_top = sub.add_parser(
        "top",
        help="live operations view of a serve daemon: sessions, "
             "executor, pool counters, op latency")
    _add_daemon_flags(p_top)
    p_top.add_argument("--interval", type=float, default=2.0,
                       metavar="SECONDS",
                       help="refresh interval (default 2s)")
    p_top.add_argument("--iterations", type=int, default=None,
                       metavar="N",
                       help="draw N frames then exit "
                            "(default: run until Ctrl-C)")
    p_top.add_argument("--once", action="store_true",
                       help="one snapshot and exit "
                            "(same as --iterations 1)")
    p_top.set_defaults(func=_cmd_top)

    p_nginx = sub.add_parser("nginx", help="run the §5.5 demo")
    p_nginx.set_defaults(func=_cmd_nginx)
    return parser


def _run_guarded(func, args) -> int:
    """Run one subcommand under the CLI error contract: any
    :class:`repro.errors.ReproError` becomes exit code 2 with a
    one-line message on stderr — expected failures (bad inputs,
    missing artifacts, unreachable daemon, quota rejections) never
    print tracebacks.  Unexpected exceptions still propagate loudly.
    """
    from repro.errors import ReproError

    try:
        return func(args)
    except ReproError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    import os

    telemetry_dir = os.environ.get("REPRO_TELEMETRY_DIR")
    if telemetry_dir:
        # Root of the distributed trace: every serve request this
        # command issues inherits this context, so the merged view
        # shows CLI -> daemon -> session -> worker as one trace.
        from repro.telemetry.spans import configure, span

        configure(telemetry_dir, service="cli")
        with span(f"cli.{args.command}", track="cli",
                  command=args.command):
            return _run_guarded(args.func, args)
    return _run_guarded(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
