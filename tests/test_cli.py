"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _spec_from_args, build_parser, main
from repro.run import RunSpec

#: ``repro deadlock check`` at the default seed, byte for byte.
PINNED_DEADLOCK_CHECK = (
    'dynamic evidence: dining philosophers, blocking and trylock-guarded tables\n'
    '  blocking : deadlock (1 deadlock cycle(s); first: phil0 -> phil1 -> phil2 -> phil0 in v0)\n'
    '  guarded  : clean (no deadlock (16 acquire(s), 16 release(s), 3 futex wait(s), 4 trylock refusal(s)))\n'
    'static candidates vs dynamic evidence:\n'
    '  abba             lock_a -> lock_b -> lock_a     unexercised       no run exercised these sites\n'
    '  trylock_guarded  lock_a -> lock_b -> lock_a     refuted-by-guard  statically suppressed (trylock)\n'
    '  philosophers     fork_0 -> fork_1 -> fork_2 -> fork_0 confirmed         runtime wait-for cycle hit the same site(s): libpthread.mutex.lock.cmpxchg\n'
    'cross-check: the wedging cycle is confirmed, the never-run inversion stays unexercised, and the trylock guard refutes its candidate\n'
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "7"])

    def test_run_defaults(self):
        # The parser adds no defaults of its own: RunSpec owns them.
        spec = _spec_from_args(build_parser().parse_args(["run", "fft"]))
        assert spec == RunSpec("fft")
        assert spec.agent == "wall_of_clocks"
        assert spec.variants == 2
        assert not spec.diversity

    @pytest.mark.parametrize("argv,scale", [
        (["trace", "fft"], 0.05),
        (["profile", "fft"], 0.25),
        (["fault-matrix"], 0.1),
    ], ids=["trace", "profile", "fault-matrix"])
    def test_spec_flag_command_defaults(self, argv, scale):
        args = build_parser().parse_args(argv)
        assert _spec_from_args(args).scale == scale


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "radiosity" in out and "pipeline" in out

    def test_table3(self, capsys):
        assert main(["table", "3"]) == 0
        assert "libc-2.19.so" in capsys.readouterr().out

    def test_run_clean_exits_zero(self, capsys):
        code = main(["run", "fft", "--agent", "wall_of_clocks",
                     "--scale", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict   : clean" in out

    def test_run_divergence_exits_nonzero(self, capsys):
        code = main(["run", "radiosity", "--agent", "none",
                     "--scale", "0.1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "divergence" in out

    def test_fig5_subset(self, capsys):
        assert main(["fig5", "--benchmarks", "fft",
                     "--scale", "0.1"]) == 0
        assert "fft" in capsys.readouterr().out

    def test_trace_command(self, capsys):
        code = main(["trace", "volrend", "--scale", "0.05"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: clean" in out
        assert "sync-op replay, v1" in out


class TestObservabilityFlags:
    def test_run_with_trace_out_and_metrics(self, capsys, tmp_path):
        trace = tmp_path / "run.trace.json"
        code = main(["run", "fft", "--scale", "0.05",
                     "--trace-out", str(trace), "--metrics"])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace     : wrote" in out
        assert "-- metrics --" in out
        assert "monitor.calls" in out
        data = json.loads(trace.read_text())
        assert data["traceEvents"]

    def test_trace_command_with_obs_flags(self, capsys, tmp_path):
        trace = tmp_path / "trace.trace.json"
        code = main(["trace", "volrend", "--scale", "0.05",
                     "--trace-out", str(trace), "--metrics"])
        out = capsys.readouterr().out
        assert code == 0
        assert "-- metrics --" in out
        assert json.loads(trace.read_text())["traceEvents"]

    def test_clean_run_writes_no_bundle(self, capsys, tmp_path):
        bundle = tmp_path / "bundle.json"
        code = main(["run", "fft", "--scale", "0.05",
                     "--bundle-out", str(bundle)])
        out = capsys.readouterr().out
        assert code == 0
        assert "did not diverge" in out
        assert not bundle.exists()

class TestFaultFlags:
    def test_run_parser_fault_defaults(self):
        spec = _spec_from_args(build_parser().parse_args(["run", "fft"]))
        assert spec == RunSpec("fft")
        assert spec.faults is None
        assert spec.policy == "kill-all"
        assert spec.watchdog is None

    def test_injected_crash_kill_all_exits_nonzero(self, capsys):
        code = main(["run", "dedup", "--scale", "0.1", "--variants", "3",
                     "--faults", "crash@v1:3"])
        out = capsys.readouterr().out
        assert code == 1
        assert "verdict   : divergence" in out
        assert "planned 1, injected 1" in out

    def test_injected_crash_quarantine_exits_zero(self, capsys):
        code = main(["run", "dedup", "--scale", "0.1", "--variants", "3",
                     "--faults", "crash@v1:3",
                     "--policy", "quarantine"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict   : degraded" in out
        assert "quarantine: variant 1 quarantined" in out

    def test_bad_fault_spec_is_a_usage_error(self, capsys):
        code = main(["run", "dedup", "--faults", "nonsense"])
        assert code == 2
        assert "bad fault spec" in capsys.readouterr().err

    def test_fault_bundle_summarize_surfaces_faults(self, capsys,
                                                    tmp_path):
        bundle = tmp_path / "bundle.json"
        code = main(["run", "dedup", "--scale", "0.1", "--variants", "3",
                     "--faults", "crash@v1:3",
                     "--policy", "quarantine",
                     "--bundle-out", str(bundle)])
        out = capsys.readouterr().out
        assert code == 0
        assert bundle.exists()

        assert main(["obs", "summarize", str(bundle)]) == 0
        summary = capsys.readouterr().out
        assert "faults injected: 1 (crash=1)" in summary
        assert "first fault : crash in v1" in summary
        assert "recovery: quarantined v1" in summary

    def test_fault_matrix_command(self, capsys):
        code = main(["fault-matrix", "--benchmark", "fft",
                     "--scale", "0.05", "--kinds", "crash",
                     "--policies", "kill-all,quarantine"])
        out = capsys.readouterr().out
        assert code == 0
        assert "survival matrix" in out
        assert "quarantine" in out


class TestBundleLifecycle:
    def test_divergent_run_bundle_lifecycle(self, capsys, tmp_path):
        """--bundle-out writes a bundle; `obs` summarizes/converts it."""
        bundle = tmp_path / "bundle.json"
        code = main(["run", "radiosity", "--agent", "none",
                     "--scale", "0.1", "--bundle-out", str(bundle)])
        out = capsys.readouterr().out
        assert code == 1
        assert "wrote forensics bundle" in out
        assert bundle.exists()

        assert main(["obs", "summarize", str(bundle)]) == 0
        summary = capsys.readouterr().out
        assert "divergence bundle" in summary

        converted = tmp_path / "bundle.trace.json"
        assert main(["obs", "convert", str(bundle),
                     "-o", str(converted)]) == 0
        assert json.loads(converted.read_text())["traceEvents"]


class TestRacesCommand:
    def test_races_defaults(self):
        args = build_parser().parse_args(["races", "lint"])
        assert args.analysis == "andersen"
        assert not args.treat_volatile_as_sync

    def test_lint_flags_demo_modules(self, capsys):
        assert main(["races", "lint"]) == 1  # linter-style exit
        out = capsys.readouterr().out
        assert "listing2" in out
        assert "candidate" in out

    def test_lint_volatile_as_sync_clears_listing2(self, capsys):
        main(["races", "lint", "--treat-volatile-as-sync"])
        out = capsys.readouterr().out
        assert "listing2: clean" in out
        # the genuinely racy module stays flagged
        assert "racy_counter: 1 candidate" in out

    def test_lint_steensgaard_accepted(self, capsys):
        main(["races", "lint", "--analysis", "steensgaard"])
        assert "candidate" in capsys.readouterr().out

    def test_check_closes_the_gap(self, capsys):
        assert main(["races", "check"]) == 0
        out = capsys.readouterr().out
        assert "coverage gap" in out
        assert "nginx.spinlock" in out
        assert "closed after" in out

    def test_bench_renders_table(self, capsys):
        assert main(["races", "bench", "--benchmarks", "fft",
                     "--scale", "0.05", "--no-nginx"]) == 0
        out = capsys.readouterr().out
        assert "detector overhead" in out
        assert "fft" in out

    def test_run_race_detect_prints_summary(self, capsys):
        code = main(["run", "fft", "--scale", "0.1", "--race-detect"])
        out = capsys.readouterr().out
        assert code == 0
        assert "races     : no races" in out

    def test_run_without_flag_no_race_line(self, capsys):
        main(["run", "fft", "--scale", "0.1"])
        assert "races     :" not in capsys.readouterr().out

    def test_table3_volatile_flag_accepted(self, capsys):
        assert main(["table", "3", "--treat-volatile-as-sync"]) == 0
        assert "libc-2.19.so" in capsys.readouterr().out

    def test_races_lint_json(self, capsys):
        import json

        assert main(["races", "lint", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list)
        racy = next(e for e in payload if e["module"] == "racy_counter")
        assert racy["candidates"]
        assert {"object", "writes", "functions", "sites",
                "source_lines"} <= set(racy["candidates"][0])


@pytest.mark.parametrize("argv", [
    ["races", "check", "--corpus"],
    ["races", "lint", "--scale", "9"],
    ["races", "bench", "--treat-volatile-as-sync"],
    ["deadlock", "lint", "--seed", "3"],
    ["deadlock", "bench", "--analysis", "steensgaard"],
], ids=["races-check-corpus", "races-lint-scale", "races-bench-volatile",
        "deadlock-lint-seed", "deadlock-bench-analysis"])
def test_analysis_action_refuses_another_actions_flag(capsys, argv):
    """``races`` and ``deadlock`` actions own their flags, as the serve
    actions do: another action's flag is a usage error (exit 2)."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestDeadlockCommand:
    def test_deadlock_defaults(self):
        args = build_parser().parse_args(["deadlock", "lint"])
        assert args.analysis == "andersen"
        assert not args.json
        # Each action owns its flags: the seed belongs to check and
        # bench, which run the philosophers tables.
        assert not hasattr(args, "seed")
        assert build_parser().parse_args(["deadlock", "check"]).seed == 1

    def test_lint_flags_abba_and_suppresses_trylock(self, capsys):
        assert main(["deadlock", "lint"]) == 1  # linter-style exit
        out = capsys.readouterr().out
        assert "lock_a -> lock_b -> lock_a" in out
        assert "[FLAGGED]" in out
        assert "abba.c:11" in out and "abba.c:21" in out
        assert "suppressed (trylock)" in out

    def test_lint_json(self, capsys):
        import json

        assert main(["deadlock", "lint", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        by_module = {entry["module"]: entry for entry in payload}
        assert set(by_module) == {"abba", "trylock_guarded",
                                  "philosophers"}
        (candidate,) = by_module["abba"]["candidates"]
        assert not candidate["suppressed"]
        assert "abba.thread_a.lock_b.cmpxchg" in candidate["sites"]
        (guarded,) = by_module["trylock_guarded"]["candidates"]
        assert guarded["suppressed"]
        assert guarded["suppression"] == "trylock"

    def test_lint_steensgaard_accepted(self, capsys):
        assert main(["deadlock", "lint", "--analysis",
                     "steensgaard"]) == 1
        assert "candidate" in capsys.readouterr().out

    def test_check_cross_validates(self, capsys):
        assert main(["deadlock", "check"]) == 0
        out = capsys.readouterr().out
        assert "confirmed" in out
        assert "refuted-by-guard" in out
        assert "unexercised" in out

    def test_check_output_is_pinned(self, capsys):
        """The evidence runs are run specs; what ``check`` prints from
        them stays exactly what it printed from hand-built runs."""
        assert main(["deadlock", "check"]) == 0
        assert capsys.readouterr().out == PINNED_DEADLOCK_CHECK

    def test_run_deadlock_detect_prints_summary(self, capsys):
        code = main(["run", "fft", "--scale", "0.1",
                     "--deadlock-detect"])
        out = capsys.readouterr().out
        assert code == 0
        assert "deadlocks : no deadlock" in out

    def test_run_without_flag_no_deadlock_line(self, capsys):
        main(["run", "fft", "--scale", "0.1"])
        assert "deadlocks :" not in capsys.readouterr().out


class TestListJson:
    def test_list_json_is_the_machine_catalog(self, capsys):
        assert main(["list", "--json"]) == 0
        catalog = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in catalog}
        assert "nginx" in by_name and "fft" in by_name
        assert by_name["nginx"]["kind"] == "service"
        assert by_name["fft"]["kind"] == "benchmark"
        philosophers = by_name["philosophers/N"]
        assert philosophers["max_n"] == 16
        assert philosophers["flavours"] == ["+trylock"]

    def test_list_json_matches_daemon_workloads_op(self, capsys):
        from repro.workloads.spec import catalog

        main(["list", "--json"])
        assert json.loads(capsys.readouterr().out) == catalog()


class TestErrorContract:
    """Every subcommand maps ReproError to exit 2 + one stderr line."""

    def test_serve_status_dead_daemon_exits_two(self, capsys):
        # Port 1 is privileged and unbound: connection refused, fast.
        code = main(["serve", "status", "--port", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro serve: ")
        assert "cannot reach serve daemon" in lines[0]

    def test_obs_missing_bundle_exits_two(self, capsys):
        code = main(["obs", "summarize", "/no/such/bundle.json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("repro obs: ")
        assert "Traceback" not in captured.err

    def test_bench_missing_reference_exits_two(self, capsys):
        code = main(["bench", "--compare", "/no/such/ref.json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("repro bench: ")

    @pytest.mark.parametrize("argv,message", [
        (["run", "fft", "--variants", "1"], "variants must be between"),
        (["run", "fft", "--scale", "9"], "scale must be between"),
        (["trace", "fft", "--variants", "40"],
         "variants must be between"),
        (["fault-matrix", "--agent", "bogus"], "unknown agent 'bogus'"),
        (["fault-matrix", "--benchmark", "nginx"],
         "'nginx' has no native runtime"),
    ], ids=["run-variants", "run-scale", "trace-variants",
            "fault-matrix-agent", "fault-matrix-nginx"])
    def test_spec_the_daemon_refuses_exits_two(self, capsys, argv,
                                                message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"repro {argv[0]}: ")
        assert message in lines[0]


class TestBenchTraceDir:
    def test_trace_dir_needs_parallel_jobs(self, capsys, tmp_path):
        trace_dir = tmp_path / "traces"
        code = main(["bench", "--quick", "--jobs", "1", "-o", "",
                     "--trace-dir", str(trace_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.strip().splitlines() == [
            "repro bench: --trace-dir needs --jobs > 1 (guest traces "
            "come from the parallel pass)"]
        assert not trace_dir.exists()

    def test_quick_writes_the_quick_reference_path(self, capsys,
                                                   tmp_path,
                                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--quick"]) == 0
        assert "wrote    : BENCH_quick.json" in capsys.readouterr().out
        report = json.loads((tmp_path / "BENCH_quick.json").read_text())
        assert report["kind"] == "repro-bench"
        assert not (tmp_path / "BENCH_par.json").exists()

    def test_trace_dir_writes_one_merged_chrome_trace(self, capsys,
                                                      tmp_path):
        trace_dir = tmp_path / "traces"
        assert main(["bench", "--quick", "--jobs", "2", "-o", "",
                     "--trace-dir", str(trace_dir)]) == 0
        capsys.readouterr()
        trace = json.loads((trace_dir / "merged.trace.json").read_text())
        pids = {}
        for event in trace["traceEvents"]:
            if event.get("name") == "process_name":
                cell, variant = event["args"]["name"].split(": ")
                pids[(cell, variant)] = event["pid"]
        cells = {cell for cell, _ in pids}
        assert cells == {"cell 0", "cell 1"}
        assert {variant for _, variant in pids} == {
            "variant 0 (master)", "variant 1 (slave 1)"}
        assert len(set(pids.values())) == len(pids) == 4


class TestServeCommand:
    def test_serve_start_parser_defaults(self):
        args = build_parser().parse_args(["serve", "start"])
        assert args.port == 7333
        assert args.max_sessions == 64
        assert not hasattr(args, "sessions")

    def test_serve_status_parser_defaults(self):
        args = build_parser().parse_args(["serve", "status"])
        assert args.port == 7333
        assert not hasattr(args, "max_sessions")

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "bench"])
        assert args.max_sessions == 64
        assert args.sessions == 256
        assert args.concurrency == 72
        assert args.mode == "batch"
        assert not hasattr(args, "port")

    @pytest.mark.parametrize("argv", [
        ["serve", "status", "--sessions", "5"],
        ["serve", "start", "--mode", "step"],
        ["serve", "bench", "--state-dir", "d"],
    ], ids=["status-sessions", "start-mode", "bench-state-dir"])
    def test_serve_action_refuses_another_actions_flag(self, capsys,
                                                       argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_bench_writes_artifact(self, capsys, tmp_path):
        out = tmp_path / "BENCH_serve.json"
        code = main(["serve", "bench", "--sessions", "4",
                     "--concurrency", "3", "--max-sessions", "2",
                     "--workload", "fft", "--seed", "3",
                     "-o", str(out)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "4 completed" in stdout
        assert "quota rejection(s) retried" in stdout
        report = json.loads(out.read_text())
        assert report["kind"] == "repro-serve-bench"
        assert report["totals"]["completed"] == 4
        assert report["verified_single_shot"] is True

    def test_serve_bench_compare_carries_trajectory(self, capsys,
                                                    tmp_path):
        ref = tmp_path / "ref.json"
        assert main(["serve", "bench", "--sessions", "2",
                     "--concurrency", "2", "--max-sessions", "2",
                     "--workload", "fft", "-o", str(ref)]) == 0
        out = tmp_path / "next.json"
        assert main(["serve", "bench", "--sessions", "2",
                     "--concurrency", "2", "--max-sessions", "2",
                     "--workload", "fft", "--compare", str(ref),
                     "-o", str(out)]) == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert len(report["trajectory"]) == 1
        assert (report["trajectory"][0]["digest"]
                == json.loads(ref.read_text())["digest"])


class TestReplayCommands:
    """repro run --record / replay / checkpoint and the resync flags."""

    def _record(self, tmp_path, *extra):
        log = str(tmp_path / "run.decisions.jsonl")
        code = main(["run", "fft", "--record", log, "--scale", "0.05",
                     "--variants", "2", "--seed", "5", *extra])
        return code, log

    def test_record_then_replay_round_trip(self, capsys, tmp_path):
        code, log = self._record(tmp_path)
        out = capsys.readouterr().out
        assert code == 0
        assert "recorded  : fft x2" in out
        assert "digest    : sha256:" in out
        code = main(["replay", log])
        out = capsys.readouterr().out
        assert code == 0
        assert "(match)" in out
        assert "log digest: stable" in out
        assert "MISMATCH" not in out

    def test_run_record_writes_a_sealed_log(self, capsys, tmp_path):
        log = str(tmp_path / "from-run.decisions.jsonl")
        code = main(["run", "fft", "--scale", "0.05", "--seed", "5",
                     "--record", log])
        out = capsys.readouterr().out
        assert code == 0
        assert f"log       : {log}" in out
        assert main(["replay", log]) == 0
        assert "log digest: stable" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,verdict,code", [
        (["fft", "--scale", "0.05", "--diversity"], "clean", 0),
        (["philosophers/3", "--deadlock-detect"], "deadlock", 1),
    ], ids=["diversity", "deadlock-detect"])
    def test_run_record_replays_spec_flags(
            self, capsys, tmp_path, argv, verdict, code):
        # Both flags are run-spec fields, so the log header carries them
        # and replay rebuilds the same run.
        log = str(tmp_path / "run.decisions.jsonl")
        assert main(["run", *argv, "--record", log]) == code
        out = capsys.readouterr().out
        with open(log) as handle:
            header = json.loads(handle.readline())
        assert header["spec"][argv[-1][2:].replace("-", "_")] is True
        assert f"verdict   : {verdict}\n" in out
        cycles = out.split("cycles    : ", 1)[1].split("\n", 1)[0]
        assert main(["replay", log]) == 0
        out = capsys.readouterr().out
        assert f"verdict   : {verdict} (match)" in out
        assert f"cycles    : {cycles} (match)" in out
        assert "log digest: stable" in out
        assert "MISMATCH" not in out

    def test_replay_to_step_writes_forensics_bundle(self, capsys,
                                                    tmp_path):
        _, log = self._record(tmp_path)
        capsys.readouterr()
        bundle = str(tmp_path / "forensics.json")
        code = main(["replay", log, "--to-step", "40",
                     "--bundle-out", bundle])
        out = capsys.readouterr().out
        assert code == 0
        assert "stopped   : step" in out
        data = json.load(open(bundle))
        assert data["kind"] == "repro-replay-forensics"
        assert data["stopped_at_step"] >= 40
        assert data["machine"]["cycles"] > 0
        assert data["recorded"]["k"] == "end"

    def test_replay_missing_log_exits_two(self, capsys):
        code = main(["replay", "/no/such/run.decisions.jsonl"])
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro replay: ")

    def test_checkpoint_inspects_store_and_log(self, capsys, tmp_path):
        ckpt = str(tmp_path / "run.ckpt.json")
        code, log = self._record(tmp_path, "--checkpoint-every",
                                 "50000", "--checkpoint-out", ckpt)
        out = capsys.readouterr().out
        assert code == 0
        assert "checkpoint:" in out
        assert main(["checkpoint", ckpt]) == 0
        out = capsys.readouterr().out
        assert "checkpoint store:" in out
        assert "#0: at" in out
        assert main(["checkpoint", log]) == 0
        out = capsys.readouterr().out
        assert "decision log:" in out
        assert "sealed  : verdict clean" in out

    @pytest.mark.parametrize("argv", [
        ["nginx", "--variants", "3", "--seed", "7"],
        ["dedup", "--scale", "0.1", "--variants", "3", "--seed", "1",
         "--policy", "restart", "--faults", "crash@v1:3"],
    ], ids=["nginx", "dedup-restart"])
    def test_checkpoint_resync_log_replays_with_its_cadence(
            self, capsys, tmp_path, argv):
        from repro.replay.log import DecisionLog

        log = str(tmp_path / "ckpt.decisions.jsonl")
        assert main(["run", *argv, "--resync-mode", "checkpoint",
                     "--checkpoint-every", "20000", "--record", log]) == 0
        assert DecisionLog.load(log).meta["checkpoint_every"] == 20000.0
        capsys.readouterr()
        assert main(["replay", log]) == 0
        out = capsys.readouterr().out
        assert "log digest: stable" in out
        assert "(mismatch)" not in out

    def test_run_checkpoint_resync_without_cadence_exits_two(self,
                                                              capsys):
        code = main(["run", "nginx", "--resync-mode", "checkpoint"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("repro run: ")
        assert "checkpoint cadence" in captured.err

    def test_fault_matrix_reports_resync_mode(self, capsys):
        code = main(["fault-matrix", "--benchmark", "fft",
                     "--scale", "0.05", "--kinds", "crash",
                     "--policies", "restart",
                     "--resync-mode", "checkpoint"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mode=checkpoint" in out
        assert "fast-forwarded" in out


class TestTelemetryCommands:
    """`repro telemetry` and `repro top`: the host observability CLI."""

    @pytest.fixture(autouse=True)
    def dark_telemetry(self, monkeypatch):
        from repro.telemetry.hostmetrics import reset_host_metrics
        from repro.telemetry.spans import ENV_DIR, ENV_SERVICE, reset

        monkeypatch.delenv(ENV_DIR, raising=False)
        monkeypatch.delenv(ENV_SERVICE, raising=False)
        reset()
        reset_host_metrics()
        yield
        reset()
        reset_host_metrics()

    def test_parser_defaults(self):
        args = build_parser().parse_args(["telemetry", "dump"])
        assert args.port == 7333 and not hasattr(args, "dir")
        args = build_parser().parse_args(["telemetry", "merge", "d"])
        assert args.dir == "d" and args.out is None
        assert not hasattr(args, "port")
        args = build_parser().parse_args(["top", "--once"])
        assert args.once and args.interval == 2.0
        assert args.iterations is None

    def test_merge_writes_default_artifact(self, capsys, tmp_path):
        from repro.telemetry.spans import scoped, span

        directory = tmp_path / "telemetry"
        with scoped(str(directory), service="cli"):
            with span("cli.demo", track="cli"):
                pass
        assert main(["telemetry", "merge", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "merged    : 1 span(s)" in out
        trace = json.loads(
            (tmp_path / "telemetry.trace.json").read_text())
        names = [e["name"] for e in trace["traceEvents"]
                 if e.get("ph") == "X"]
        assert names == ["cli.demo"]

    def test_merge_empty_dir_hints_at_setup(self, capsys, tmp_path):
        assert main(["telemetry", "merge", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 span(s)" in out
        assert "--telemetry-dir" in out

    def test_merge_without_dir_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["telemetry", "merge"])
        assert exc.value.code == 2
        assert ("the following arguments are required: dir"
                in capsys.readouterr().err)

    def test_dump_dead_daemon_exits_two(self, capsys):
        code = main(["telemetry", "dump", "--port", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("repro telemetry: ")
        assert "Traceback" not in captured.err

    def test_top_once_dead_daemon_exits_one(self, capsys):
        assert main(["top", "--once", "--port", "1"]) == 1
        assert "cannot reach serve daemon" in capsys.readouterr().out

    def test_env_var_roots_a_cli_span(self, capsys, monkeypatch,
                                      tmp_path):
        from repro.telemetry.spans import ENV_DIR, read_spans

        directory = tmp_path / "telemetry"
        monkeypatch.setenv(ENV_DIR, str(directory))
        assert main(["list", "--json"]) == 0
        capsys.readouterr()
        records = read_spans(str(directory))
        assert [r["name"] for r in records] == ["cli.list"]
        assert records[0]["service"] == "cli"
        assert records[0]["attrs"]["command"] == "list"
