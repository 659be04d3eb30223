"""Span recording for the traced run, installed from outside the program.

:func:`install` replaces the public functions at each layer boundary
with wrappers that record a span (name, start, end, parent span, cell
or session id) and fold it into per-name totals of calls, inclusive
time and self time (duration minus the time covered by child spans on
the same thread).  No program file changes: the wrappers are set as
attributes on the program's classes and modules, before any worker
process forks, so pool workers inherit them.  Each process keeps its
spans in memory and writes one ``spans-<pid>.json`` file when it ends;
:func:`merge` folds every file of a run into the per-layer table and
one Chrome ``trace_event`` file.

Timestamps come from ``time.perf_counter``, which is CLOCK_MONOTONIC on
Linux, so spans and queue-wait stamps compare across processes.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time

from perfbench import common

#: Spans kept per process for the Chrome trace; totals count every span.
SPAN_CAP = 50_000

#: (layer, module, class, methods) wrapped by :func:`install`.
CLASS_TARGETS = (
    ("sched", "repro.sched.machine", "Machine", ("advance",)),
    ("agents", "repro.core.agents.total_order", "TotalOrderAgent",
     ("before_sync_op", "after_sync_op")),
    ("agents", "repro.core.agents.partial_order", "PartialOrderAgent",
     ("before_sync_op", "after_sync_op")),
    ("agents", "repro.core.agents.wall_of_clocks", "WallOfClocksAgent",
     ("before_sync_op", "after_sync_op")),
    ("buffers", "repro.core.buffers", "MultiProducerLog",
     ("append", "entry")),
    ("buffers", "repro.core.buffers", "SPSCBuffer",
     ("produce", "peek", "advance")),
    ("perf", "repro.perf.contention", "ContentionTracker", ("access",)),
    ("monitor", "repro.core.monitor", "Monitor",
     ("before_syscall", "after_syscall")),
    ("monitor", "repro.core.relaxed", "RelaxedMonitor",
     ("before_syscall", "after_syscall")),
    ("kernel", "repro.kernel.kernel", "VirtualKernel",
     ("execute", "apply_replicated")),
    ("par", "repro.par.engine", "CellExecutor", ("poll", "wait")),
)

#: Span name of the simulator's step loop.
ADVANCE = "sched.Machine.advance"

#: ObsHub methods that are not hook targets.
_OBS_NON_HOOKS = {"attach_profiler", "bind_clock", "digest", "now"}

_clock = time.perf_counter


class _ThreadState:
    __slots__ = ("tid", "stack", "totals", "spans", "ctx")

    def __init__(self):
        self.tid = threading.get_ident()
        #: Open spans: [span id, time covered by finished children].
        self.stack: list[list] = []
        #: name -> [calls, inclusive seconds, self seconds]
        self.totals: dict[str, list] = {}
        #: (id, parent id, name, start, end, context id)
        self.spans: list[tuple] = []
        #: Cell or session id of the work this thread is doing.
        self.ctx = None


class Recorder:
    """Per-process span store; one per process, shared by its threads."""

    def __init__(self, out_dir: str, service: str):
        self.out_dir = out_dir
        self.service = service
        self.reset()

    def reset(self) -> None:
        """Forget everything (a forked child starts from nothing)."""
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._kept = 0
        self._lock = threading.Lock()
        self.counters: dict[str, float] = {}
        #: While set, wrappers call through without recording.
        self.paused = False

    def state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            self._threads.append(state)
        return state

    def calls(self, name: str) -> int:
        """Spans named ``name`` finished so far in this process."""
        return sum(state.totals.get(name, (0,))[0]
                   for state in list(self._threads))

    def count(self, name: str, amount: float = 1) -> None:
        if self.paused:
            return
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn):
        """``fn`` recording one span named ``name`` per call."""
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return functools.update_wrapper(wrapper, fn)

    def call(self, name: str, fn, args, kwargs):
        if self.paused:
            return fn(*args, **kwargs)
        state = self.state()
        stack = state.stack
        frame = [next(self._ids), 0.0]
        parent = stack[-1][0] if stack else 0
        stack.append(frame)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            totals = state.totals.get(name)
            if totals is None:
                totals = state.totals[name] = [0, 0.0, 0.0]
            totals[0] += 1
            totals[1] += duration
            totals[2] += duration - frame[1]
            if self._kept < SPAN_CAP:
                self._kept += 1
                state.spans.append((frame[0], parent, name, start, end,
                                    state.ctx))

    def dump(self) -> None:
        """Write this process's spans and totals to ``out_dir``."""
        totals: dict[str, list] = {}
        spans = []
        for state in list(self._threads):
            for name, (calls, incl, self_s) in state.totals.items():
                entry = totals.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += incl
                entry[2] += self_s
            spans.extend(list(span) + [state.tid] for span in state.spans)
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump({"pid": os.getpid(), "service": self.service,
                       "totals": totals, "counters": self.counters,
                       "spans": spans}, handle)


def _patch_class(recorder: Recorder, layer: str, module: str, cls_name: str,
                 methods) -> None:
    cls = getattr(importlib.import_module(module), cls_name)
    for method in methods:
        original = cls.__dict__[method]
        setattr(cls, method,
                recorder.wrap(f"{layer}.{cls_name}.{method}", original))


def install(out_dir: str, service: str) -> Recorder:
    """Wrap every layer boundary in this process; returns the recorder.

    Call it before any pool forks: workers inherit the wrappers, forget
    the parent's spans on start and write their own when they stop.
    """
    from repro.obs import ObsHub
    from repro.par import engine, pool, transport
    from repro.par.runners.process import ProcessRunner
    from repro.serve.client import ServeClient
    from repro.serve.daemon import ServeDaemon

    recorder = Recorder(out_dir, service)
    for target in CLASS_TARGETS:
        _patch_class(recorder, *target)
    hooks = [name for name, value in vars(ObsHub).items()
             if callable(value) and not name.startswith("_")
             and name not in _OBS_NON_HOOKS]
    _patch_class(recorder, "obs", "repro.obs", "ObsHub", hooks)

    # -- monitor: count syscalls it let through (not re-asks after waits)
    from repro.core.monitor import Monitor
    from repro.core.relaxed import RelaxedMonitor
    from repro.sched.interceptor import Wait

    for cls in (Monitor, RelaxedMonitor):
        before = cls.before_syscall

        def counted(self, *args, _before=before):
            directive = _before(self, *args)
            if not isinstance(directive, Wait):
                recorder.count("monitor.syscalls")
            return directive

        cls.before_syscall = functools.update_wrapper(counted, before)

    # -- par: batches, submissions, worker-side execution, transport ----
    run_cells = engine.run_cells

    def traced_run_cells(tasks, *args, **kwargs):
        tasks = list(tasks)
        submitted = time.perf_counter()
        for task in tasks:
            task.perfbench_submitted = submitted
        return recorder.call("par.run_cells", run_cells,
                             (tasks,) + args, kwargs)

    engine.run_cells = functools.update_wrapper(traced_run_cells, run_cells)

    submit = engine.CellExecutor.submit

    def traced_submit(self, task):
        task.perfbench_submitted = time.perf_counter()
        return submit(self, task)

    engine.CellExecutor.submit = functools.update_wrapper(
        recorder.wrap("par.CellExecutor.submit", traced_submit), submit)

    execute_cell = pool.execute_cell

    def traced_execute_cell(task, trace_dir):
        if task.sweep_id == common.WARM_UP:
            recorder.paused = True
            try:
                return execute_cell(task, trace_dir)
            finally:
                recorder.paused = False
        started = time.perf_counter()
        submitted = getattr(task, "perfbench_submitted", None)
        if submitted is not None:
            recorder.count("par.queue_wait_s", started - submitted)
        state = recorder.state()
        # Serve cells carry their session id: the same id the daemon's
        # and the client's spans of that session carry.
        outer, state.ctx = state.ctx, task.kwargs.get(
            "session_id", f"{task.sweep_id}:{task.index}")
        advances = recorder.calls(ADVANCE)
        try:
            result = recorder.call("par.execute_cell", execute_cell,
                                   (task, trace_dir), {})
        finally:
            state.ctx = outer
        recorder.count(f"sched_calls[{task.sweep_id}]",
                       recorder.calls(ADVANCE) - advances)
        recorder.count("par.cells")
        recorder.count("par.execute_s", time.perf_counter() - started)
        if not result.ok:
            recorder.count("par.failed_cells")
        return result

    pool.execute_cell = functools.update_wrapper(traced_execute_cell,
                                                 execute_cell)
    engine.execute_cell = pool.execute_cell

    recv_result = transport.recv_result

    def traced_recv_result(message):
        if message[0] == "shm":
            recorder.count("par.shm_results")
        return recorder.call("par.recv_result", recv_result, (message,), {})

    transport.recv_result = functools.update_wrapper(traced_recv_result,
                                                     recv_result)

    runner_run = ProcessRunner.run

    def traced_runner_run(self, tasks, trace_dir=None):
        try:
            return runner_run(self, tasks, trace_dir)
        finally:
            stats = self.stats()
            scheduler = stats.get("scheduler", {})
            recorder.count("par.steals", scheduler.get("steals", 0))
            recorder.count("par.cells_stolen",
                           scheduler.get("cells_stolen", 0))
            recorder.counters["par.respawns"] = stats["pool"]["respawns"]

    ProcessRunner.run = functools.update_wrapper(traced_runner_run,
                                                 runner_run)

    worker_main = pool._pool_worker_main

    def traced_worker_main(conn):
        recorder.reset()
        recorder.service = "worker"
        try:
            worker_main(conn)
        finally:
            recorder.dump()

    pool._pool_worker_main = functools.update_wrapper(traced_worker_main,
                                                      worker_main)

    # -- serve: client round trips and daemon handling, per op ----------
    request = ServeClient.request

    def traced_request(self, op, **fields):
        state = recorder.state()
        outer, state.ctx = state.ctx, fields.get("id")
        try:
            return recorder.call(f"serve.rtt.{op}", request, (self, op),
                                 fields)
        finally:
            state.ctx = outer

    ServeClient.request = functools.update_wrapper(traced_request, request)

    handle = ServeDaemon.handle

    def traced_handle(self, message):
        state = recorder.state()
        outer, state.ctx = state.ctx, message.get("id")
        try:
            return recorder.call(f"serve.handle.{message.get('op')}",
                                 handle, (self, message), {})
        finally:
            state.ctx = outer

    ServeDaemon.handle = functools.update_wrapper(traced_handle, handle)
    return recorder


def merge(out_dir: str, trace_path: str) -> tuple[dict, dict]:
    """Fold every process's span file in ``out_dir`` into (totals per
    span name, counters), and write the merged Chrome trace."""
    totals: dict[str, list] = {}
    counters: dict[str, float] = {}
    events = []
    for name in sorted(os.listdir(out_dir)):
        if not (name.startswith("spans-") and name.endswith(".json")):
            continue
        with open(os.path.join(out_dir, name)) as handle:
            data = json.load(handle)
        pid = data["pid"]
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": f"{data['service']} {pid}"}})
        for span_name, (calls, incl, self_s) in data["totals"].items():
            entry = totals.setdefault(span_name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += incl
            entry[2] += self_s
        for key, value in data["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for span_id, parent, span_name, start, end, ctx, tid in data["spans"]:
            events.append({
                "name": span_name, "cat": span_name.split(".")[0],
                "ph": "X", "pid": pid, "tid": tid,
                "ts": start * 1e6, "dur": (end - start) * 1e6,
                "args": {"span": span_id, "parent": parent, "id": ctx}})
    events.sort(key=lambda event: event.get("ts", 0.0))
    with open(trace_path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return totals, counters
