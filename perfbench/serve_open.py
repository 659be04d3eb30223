"""serve-open: open-loop nginx sessions against a ``repro serve`` daemon.

The daemon runs in its own process (``perfbench/daemon.py``) with a
two-worker process pool, so it does not share the generator's GIL.  One
generator process sends ``create`` + ``run(wait=false)`` on a schedule
and polls for results; one session in ``STEP_EVERY`` is a stepped
session instead, driven by ``step`` requests (at the daemon's default
event budget) that run ``Machine.advance`` inside the daemon while it
handles everyone else's requests.  Polls of one session are
``POLL_INTERVAL_S`` apart, the interval the repo's client uses.  Sessions
are the paper's §5.5 deployment at the daemon's default short sizing.

Phases, each on its own fixed slice of session indices (so the inputs
never depend on how a run went):

* nominal: ``NOMINAL_RATE`` sessions/s; latency from each session's due
  time to its result, CPU seconds and generator lateness.  The tail is
  taken per window of ``TAIL_WINDOW`` consecutive sessions and the
  median over the windows is reported, so a host stall that hits one
  window does not set the figure (the phase-wide tail is recorded too);
* ladder: ``rung_sessions`` at each rate of ``LADDER`` until a
  rung misses ``LIMIT_MS`` on the tail, builds a backlog, or finds the
  generator late, twice: a rung that fails is run once more on fresh
  sessions, since one host stall of a few tens of milliseconds is
  enough to fail a rung of a second or two;
* burst: ``BURST_SESSIONS`` submitted at once, ``BURSTS`` times; its
  wall time is the fixed work of ``wall_s``.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

from perfbench import common

NAME = "serve-open"
HOST = "127.0.0.1"
JOBS = 2
#: Admission quota, above any backlog a run can build: rejections are
#: counted, but this workload is not about them.
MAX_SESSIONS = 512
AGENT = "wall_of_clocks"
VARIANTS = 2
#: Every STEP_EVERY-th session is stepped; the rest are batch sessions.
#: The repo's clients use one path or the other, never a mix, so the
#: share is this benchmark's choice: a minority, enough that the daemon
#: runs ``Machine.advance`` on its handler threads throughout every
#: phase while batch sessions stay the bulk of the traffic.
STEP_EVERY = 5
#: Gap between two polls of one session, as in
#: ``ServeClient.run_to_verdict``.
POLL_INTERVAL_S = 0.010
#: Back-off after a quota rejection, as in ``repro serve bench``.
RETRY_S = 0.005
NOMINAL_RATE = 20.0
#: Share of ``--seconds`` the nominal phase is scheduled over, rounded to
#: whole tail windows: at 20 s, 400 sessions in 8 windows.
NOMINAL_SHARE = 0.95
#: Sessions per window of the nominal tail: each window's tail is its
#: p80, the highest percentile with ten sessions beyond it.  Over the
#: whole phase that tail is p95, which on a shared 2-vCPU host moved
#: by 40-50% of its median between runs of the same code: a few tens of
#: milliseconds of host stall in a run set it.
TAIL_WINDOW = 50
#: Offered rates, about 12% apart from 60/s up: latency climbs from
#: ~30 ms to ~250 ms within one 25% step at the knee, so the max rate
#: is only as fine as the rungs around it.
LADDER = (40.0, 60.0, 70.0, 80.0, 90.0, 100.0, 112.0, 125.0, 140.0, 160.0,
          180.0, 200.0, 225.0, 250.0, 280.0, 320.0, 360.0, 400.0)
#: A rung offers at least RUNG_SESSIONS sessions over at least
#: RUNG_SECONDS: ten times the tail limit, so a rate the daemon cannot
#: sustain builds a backlog that pushes the tail past the limit before
#: the rung ends.
RUNG_SESSIONS = 100
RUNG_SECONDS = 1.5
#: Tail-latency limit a ladder rung must meet: several times the tail at
#: the lowest rung (25-80 ms, as the host's speed varies), so the ladder
#: stops where queueing makes latency climb, not where a slower host
#: pushes the unloaded tail past the limit.
LIMIT_MS = 150.0
#: Generator lateness beyond which a phase is invalid, not slow.  Two
#: busy workers, the daemon and the generator share two cores, so the
#: OS alone can hold the submitter back by tens of milliseconds.
LATE_BOUND_MS = 200.0
BURST_SESSIONS = 80
BURSTS = 8
#: A phase still unfinished after this long fails its open sessions.
PHASE_TIMEOUT_S = 60.0
#: Batch sessions re-executed without the daemon, besides every stepped
#: one: one in ORACLE_EVERY.
ORACLE_EVERY = 10
#: Nominal sessions whose digest is recorded per seed in expected.json.
DIGEST_SESSIONS = 16


def spec_for(seed: int, index: int) -> dict:
    return {"workload": "nginx", "agent": AGENT, "variants": VARIANTS,
            "seed": common.derive_seed(NAME, seed, index)}


def rung_sessions(rate: float) -> int:
    return max(RUNG_SESSIONS, round(rate * RUNG_SECONDS))


#: First session index of each (attempt, rung) slot of the ladder,
#: relative to the ladder's first index; the last is the ladder's total.
_RUNG_FIRST = [0, *itertools.accumulate(rung_sessions(rate)
                                        for rate in LADDER * 2)]
LADDER_SESSIONS = _RUNG_FIRST[-1]


def nominal_sessions(seconds: float) -> int:
    return TAIL_WINDOW * max(1, round(NOMINAL_RATE * seconds * NOMINAL_SHARE
                                      / TAIL_WINDOW))


class Daemon:
    """A launcher subprocess running one ``ServeDaemon``."""

    def __init__(self, trace_dir: str | None = None):
        command = [sys.executable,
                   str(Path(__file__).resolve().parent / "daemon.py"),
                   "--jobs", str(JOBS), "--max-sessions", str(MAX_SESSIONS)]
        if trace_dir:
            command += ["--trace-dir", trace_dir]
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     cwd=common.ROOT, env=common.child_env())
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("serve daemon failed to start")
        self.port = json.loads(line)["port"]

    def stop(self) -> None:
        """Close the launcher's stdin: it stops the daemon and its pool
        (workers write their spans) and exits."""
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        common.wait_or_kill(self.proc, 60)
        self.proc.stdout.close()


class Generator:
    """Open-loop load over two connections: one submits on schedule,
    one polls and steps."""

    def __init__(self, port: int):
        from repro.serve.client import ServeClient

        self.submitter = ServeClient(HOST, port, timeout=PHASE_TIMEOUT_S)
        self.poller = ServeClient(HOST, port, timeout=PHASE_TIMEOUT_S)
        self.lock = threading.Lock()
        self.counts = {"creates": 0, "rejected": 0, "polls": 0,
                       "useful_polls": 0, "steps": 0, "inflight_max": 0}

    def close(self) -> None:
        self.submitter.close()
        self.poller.close()

    def run_phase(self, sessions: list[tuple], rate: float | None) -> dict:
        """Submit ``sessions`` ((index, spec, stepped) triples) at
        ``rate`` per second, or all at once when ``rate`` is None, and
        drive each to its result.  Returns per-session outcomes (in
        index order), lateness samples and the backlog at the last
        submission."""
        start = time.perf_counter() + 0.005
        due = [start + (position / rate if rate else 0.0)
               for position in range(len(sessions))]
        inflight: dict[str, dict] = {}
        finished: list[dict] = []
        late: list[float] = []
        phase = {"backlog": 0}
        submitting = threading.Event()
        submitting.set()
        deadline = start + PHASE_TIMEOUT_S

        def submit_all() -> None:
            from repro.errors import QuotaExceeded, ServeError

            try:
                for position, (index, spec, stepped) in enumerate(sessions):
                    entry = {"index": index, "spec": spec, "stepped": stepped,
                             "due": due[position], "last_poll": 0.0}
                    if time.perf_counter() > deadline:
                        entry["latency"] = time.perf_counter() - entry["due"]
                        entry["result"] = {"verdict": "timeout"}
                        with self.lock:
                            finished.append(entry)
                        continue
                    pause = due[position] - time.perf_counter()
                    if pause > 0:
                        time.sleep(pause)
                    late.append(max(0.0, time.perf_counter() - due[position]))
                    try:
                        while True:
                            self.counts["creates"] += 1
                            try:
                                session_id = self.submitter.create(spec)
                                break
                            except QuotaExceeded:
                                self.counts["rejected"] += 1
                                time.sleep(RETRY_S)
                        if not stepped:
                            self.submitter.run(session_id, wait=False)
                    except ServeError as exc:
                        entry["result"] = {"verdict": "error",
                                           "error": str(exc)}
                        entry["latency"] = (time.perf_counter()
                                            - due[position])
                        with self.lock:
                            finished.append(entry)
                        continue
                    with self.lock:
                        inflight[session_id] = entry
                        self.counts["inflight_max"] = max(
                            self.counts["inflight_max"], len(inflight))
                with self.lock:
                    phase["backlog"] = len(inflight)
            finally:
                submitting.clear()

        thread = threading.Thread(target=submit_all, name="perfbench-submit")
        thread.start()
        try:
            self._drive(inflight, finished, submitting, deadline)
        finally:
            thread.join()
        for entry in inflight.values():
            entry["latency"] = time.perf_counter() - entry["due"]
            entry["result"] = {"verdict": "timeout"}
            finished.append(entry)
        finished.sort(key=lambda entry: entry["index"])
        return {"sessions": finished, "late": late,
                "backlog": phase["backlog"], "start": start}

    def _drive(self, inflight: dict, finished: list,
               submitting: threading.Event, deadline: float) -> None:
        from repro.errors import ServeError

        while time.perf_counter() < deadline:
            with self.lock:
                pending = list(inflight.items())
            if not pending:
                if not submitting.is_set():
                    with self.lock:
                        if not inflight:
                            return
                # A session cannot finish within one poll interval of
                # its submission, so the first poll loses nothing.
                time.sleep(POLL_INTERVAL_S)
                continue
            worked = False
            for session_id, entry in pending:
                now = time.perf_counter()
                try:
                    if entry["stepped"]:
                        # No max_events: the daemon's own step budget.
                        self.counts["steps"] += 1
                        envelope = self.poller.step(session_id)
                    elif now - entry["last_poll"] >= POLL_INTERVAL_S:
                        entry["last_poll"] = now
                        self.counts["polls"] += 1
                        envelope = self.poller.poll(session_id)
                        if envelope["done"]:
                            self.counts["useful_polls"] += 1
                    else:
                        continue
                    worked = True
                    if not envelope["done"]:
                        continue
                    entry["latency"] = time.perf_counter() - entry["due"]
                    entry["result"] = envelope["result"]
                    self.poller.close_session(session_id)
                except ServeError as exc:
                    entry["latency"] = time.perf_counter() - entry["due"]
                    entry["result"] = {"verdict": "error", "error": str(exc)}
                with self.lock:
                    del inflight[session_id]
                    finished.append(entry)
            if not worked:
                next_poll = min(entry["last_poll"] for _, entry in pending)
                time.sleep(max(0.0002, next_poll + POLL_INTERVAL_S
                               - time.perf_counter()))


def setup(trace_dir: str | None = None) -> Daemon:
    """Start the daemon, fork and warm both pool workers, then warm the
    stepped path.

    The order matters: the daemon forks a worker lazily, from its
    dispatch thread, when a cell first finds that slot empty.  A fork
    made while a handler thread is importing a module leaves the child
    holding that module's import lock forever, so both workers are
    forked while only the already-warm create/run/poll paths run.
    """
    daemon = Daemon(trace_dir)
    try:
        generator = Generator(daemon.port)
        outcomes = []
        for count, stepped in ((1, False), (JOBS, False), (1, True)):
            warm = [(index, spec_for(-1, index), stepped)
                    for index in range(count)]
            outcomes += generator.run_phase(warm, None)["sessions"]
        generator.close()
        if any(entry["result"].get("verdict") != "clean"
               for entry in outcomes):
            raise RuntimeError("serve warm-up failed")
    except BaseException:
        daemon.stop()
        raise
    return daemon


def teardown(daemon: Daemon) -> None:
    daemon.stop()


def _slice(seed: int, first: int, count: int) -> list[tuple]:
    return [(index, spec_for(seed, index), index % STEP_EVERY == STEP_EVERY - 1)
            for index in range(first, first + count)]


def _latencies(phase: dict) -> list[float]:
    return [entry["latency"] for entry in phase["sessions"]]


def _sim_ops(phase: dict) -> int:
    return sum((entry["result"].get("sync_ops") or 0)
               + (entry["result"].get("syscalls") or 0)
               for entry in phase["sessions"])


def run_bursts(generator: Generator, seed: int, first: int) -> list[dict]:
    phases = []
    for burst in range(BURSTS):
        phases.append(generator.run_phase(
            _slice(seed, first + burst * BURST_SESSIONS, BURST_SESSIONS),
            None))
    return phases


def run_ladder(generator: Generator, seed: int, first: int) -> tuple:
    """Climb the ladder; returns (rung records, phases, max rate).

    The max rate is interpolated between the last rung that passed and
    the first that failed, so it moves smoothly with capacity instead of
    jumping a rung at a time.  It is linear in the inverse of the tail
    latency: near capacity, queueing latency grows as one over the spare
    capacity, so its inverse falls about linearly with the offered rate.
    When the failed rung's tail met the limit (it failed on backlog,
    lateness or a bad outcome), the last passing rate is the answer
    itself.
    """
    rungs, phases = [], []
    for position, rate in enumerate(LADDER):
        for attempt in range(2):
            slot = attempt * len(LADDER) + position
            phase = generator.run_phase(
                _slice(seed, first + _RUNG_FIRST[slot], rung_sessions(rate)),
                rate)
            phases.append(phase)
            pct, tail_s, _ = common.tail(_latencies(phase))
            late_ms = max(phase["late"], default=0.0) * 1e3
            rung = {"rate": rate, "attempt": attempt, "tail_pct": pct,
                    "tail_ms": tail_s * 1e3, "backlog": phase["backlog"],
                    "late_ms_max": late_ms,
                    "clean": all(entry["result"].get("verdict") == "clean"
                                 for entry in phase["sessions"])}
            rung["passed"] = (rung["clean"] and late_ms <= LATE_BOUND_MS
                              and rung["tail_ms"] <= LIMIT_MS
                              and phase["backlog"]
                              <= rate * LIMIT_MS / 1e3 + 1)
            rungs.append(rung)
            if rung["passed"]:
                break
        if not rung["passed"]:
            break
    passed = [rung for rung in rungs if rung["passed"]]
    if not passed:
        return rungs, phases, LADDER[0] * min(1.0, LIMIT_MS
                                              / rungs[-1]["tail_ms"])
    best = passed[-1]
    failed = rungs[-1]
    if (failed["passed"] or not failed["clean"]
            or failed["late_ms_max"] > LATE_BOUND_MS
            or failed["tail_ms"] <= LIMIT_MS):
        return rungs, phases, best["rate"]
    share = ((1 / best["tail_ms"] - 1 / LIMIT_MS)
             / (1 / best["tail_ms"] - 1 / failed["tail_ms"]))
    return rungs, phases, best["rate"] + share * (failed["rate"]
                                                  - best["rate"])


def oracle(phases: list[dict]) -> tuple[int, list[str]]:
    """Re-execute every stepped session and one batch session in
    ORACLE_EVERY through ``single_shot``; returns (checked, mismatches)."""
    from repro.experiments.serve_load import single_shot

    keys = ("verdict", "cycles", "sync_ops", "syscalls", "obs_digest")
    checked, mismatches = 0, []
    for phase in phases:
        for entry in phase["sessions"]:
            if not (entry["stepped"] or entry["index"] % ORACLE_EVERY == 0):
                continue
            checked += 1
            expected = single_shot(entry["spec"])
            served = entry["result"]
            if any(expected.get(key) != served.get(key) for key in keys):
                mismatches.append(
                    f"session {entry['index']}: served "
                    f"{[served.get(key) for key in keys]} != single-shot "
                    f"{[expected.get(key) for key in keys]}")
    return checked, mismatches


def record(entry: dict) -> list:
    result = entry["result"]
    return common.outcome_record(result.get("verdict"),
                                 result.get("cycles") or 0,
                                 result.get("sync_ops"),
                                 result.get("syscalls"))


def _wall(phase: dict) -> float:
    return max(entry["due"] + entry["latency"]
               for entry in phase["sessions"]) - phase["start"]


def run(seed: int, seconds: float, traced: bool, trace_dir: str) -> dict:
    """The timed phases and their checks; see the module docstring."""
    nominal_count = nominal_sessions(seconds)
    burst_first = nominal_count + LADDER_SESSIONS
    run: dict = {}
    recorder = None
    if traced:
        daemon = setup()
        try:
            generator = Generator(daemon.port)
            reference = run_bursts(generator, seed, burst_first)
            generator.close()
        finally:
            teardown(daemon)
        run["untraced_walls"] = [_wall(phase) for phase in reference]
        from perfbench import trace

        recorder = trace.install(trace_dir, service="generator")
    daemon = setup(trace_dir if traced else None)
    try:
        generator = Generator(daemon.port)
        before = common.cpu_snapshot()
        nominal = generator.run_phase(_slice(seed, 0, nominal_count),
                                      NOMINAL_RATE)
        run["cpu_s"] = common.cpu_between(before, common.cpu_snapshot())
        ladder_phases = []
        if not traced:
            run["rungs"], ladder_phases, run["max_rate"] = run_ladder(
                generator, seed, nominal_count)
        bursts = run_bursts(generator, seed, burst_first)
        run["traced_wall_s"] = time.perf_counter() - nominal["start"]
        run["peak_rss_mb"] = common.peak_rss_mb()
        run["pool"] = generator.poller.status()["executor"]["pool"]
        generator.close()
    finally:
        teardown(daemon)
    if recorder is not None:
        recorder.dump()
    run["counts"] = generator.counts
    run["late"] = nominal["late"]
    run["latencies"] = _latencies(nominal)
    run["tail_window"] = TAIL_WINDOW
    run["walls"] = [_wall(phase) for phase in bursts]
    run["sim_ops_rate"] = common.median(
        [_sim_ops(phase) / _wall(phase) for phase in bursts])
    run["sessions"] = {"nominal": len(nominal["sessions"]),
                       "ladder": sum(len(p["sessions"]) for p in ladder_phases),
                       "burst": sum(len(p["sessions"]) for p in bursts)}
    run["sync_ops"] = sum(entry["result"].get("sync_ops") or 0
                          for phase in [nominal] + bursts
                          for entry in phase["sessions"])
    run["syscalls"] = sum(entry["result"].get("syscalls") or 0
                          for phase in [nominal] + bursts
                          for entry in phase["sessions"])
    # -- correctness ----------------------------------------------------
    phases = [nominal] + ladder_phases + bursts
    problems = [f"session {entry['index']}: {entry['result']}"
                for phase in phases for entry in phase["sessions"]
                if entry["result"].get("verdict") != "clean"]
    attempted = sum(len(phase["sessions"]) for phase in phases)
    checked, mismatches = oracle(phases)
    problems += mismatches
    run["digest"] = common.digest(
        [record(entry) for entry in nominal["sessions"][:DIGEST_SESSIONS]])
    problems += common.check_digest(run, NAME, seed)
    run.update(attempted=attempted + checked, failed=len(problems),
               problems=problems, late_invalid=(
                   max(nominal["late"], default=0.0) * 1e3 > LATE_BOUND_MS))
    return run
