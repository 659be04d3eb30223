"""The serve daemon: a long-lived TCP server multiplexing MVEE sessions.

One :class:`ServeDaemon` owns three things:

* a :class:`~repro.serve.registry.SessionRegistry` — the session table,
  admission control, and the journal that survives restarts;
* a shared :class:`~repro.par.engine.CellExecutor` — batch (``run`` op)
  sessions from *all* clients fan out across one worker pool, forked
  when the daemon is constructed (before any handler thread), so a
  daemon with ``jobs=4`` never forks more than four workers no matter
  how many clients are connected;
* a ``socketserver.ThreadingTCPServer`` speaking the JSON-lines
  protocol (:mod:`repro.serve.protocol`) — one thread per connection,
  one request per line, one response per line.

Request handling is deliberately split from transport:
:meth:`ServeDaemon.handle` takes a decoded request dict and returns a
response dict, so tests can exercise every op without a socket, and the
socket layer reduces to decode → handle → encode.  Every failure path
raises a typed :class:`repro.errors.ServeError`; nothing on the wire is
ever a traceback, and nothing blocks forever (admission control rejects
instead of queueing unboundedly, executor waits carry timeouts).
"""

from __future__ import annotations

import os
import socketserver
import threading
import time

from repro.errors import (
    BadRequest,
    DaemonUnavailable,
    SessionConflict,
    ServeError,
)
from repro.par.engine import CellExecutor
from repro.run import RunSpec
from repro.serve import protocol
from repro.serve.registry import SessionRegistry
from repro.telemetry import hostmetrics, spans
from repro.telemetry.context import TraceContext, current_context, new_context

#: Default cap on events per ``step`` request: large enough that a short
#: session finishes in a handful of steps, small enough that one step
#: cannot monopolise a handler thread.
DEFAULT_STEP_BUDGET = 20_000

#: Hard ceiling a client's ``max_events`` is clamped to.
MAX_STEP_BUDGET = 1_000_000


class ServeConfig:
    """Daemon knobs, in one picklable bag."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 state_dir: str | None = None,
                 max_sessions: int = 64,
                 max_cycles_per_session: float | None = None,
                 jobs: int = 0,
                 env: str | None = None,
                 step_budget: int = DEFAULT_STEP_BUDGET,
                 bundle_dir: str | None = None,
                 checkpoint_every: float | None = None,
                 telemetry_dir: str | None = None):
        self.host = host
        self.port = port
        self.state_dir = state_dir
        self.max_sessions = max_sessions
        self.max_cycles_per_session = max_cycles_per_session
        #: Worker processes for the batch (``run``) path; 0 executes
        #: batch sessions inline in the handler thread (fork-free).
        self.jobs = jobs
        #: Execution environment for the batch path (``inline`` or
        #: ``process``); ``None`` derives it from ``jobs``.  The process
        #: environment keeps a persistent warm worker pool for the
        #: daemon's lifetime — forks amortise across sessions.
        self.env = env
        self.step_budget = step_budget
        self.bundle_dir = bundle_dir
        #: Cycle cadence for stepped-session decision-log checkpoints
        #: (needs ``state_dir``); ``None`` disables session recording.
        self.checkpoint_every = checkpoint_every
        #: Host span-log directory (``repro.telemetry``); ``None``
        #: disables span recording (host metrics stay in-memory only).
        self.telemetry_dir = telemetry_dir


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class _Handler(socketserver.StreamRequestHandler):
    """decode → daemon.handle → encode, one line at a time."""

    def handle(self) -> None:
        daemon: ServeDaemon = self.server.serve_daemon
        while True:
            try:
                line = self.rfile.readline(protocol.MAX_LINE_BYTES + 2)
            except OSError:
                return
            if not line:
                return
            op = None
            try:
                request = protocol.decode_request(line)
                op = request["op"]
                response = daemon.handle(request)
            except ServeError as exc:
                response = protocol.error_response(exc, op=op)
            except Exception as exc:  # never leak a traceback on-wire
                response = protocol.error_response(
                    ServeError(f"internal error: "
                               f"{type(exc).__name__}: {exc}"), op=op)
            try:
                self.wfile.write(protocol.encode(response))
                self.wfile.flush()
            except OSError:
                return
            if op == "shutdown" and response.get("ok"):
                return


class ServeDaemon:
    """The MVEE-as-a-service daemon (see ``docs/SERVING.md``)."""

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        if self.config.telemetry_dir:
            # Configure before the pool exists so forked workers
            # inherit the destination (belt: module state; braces: env).
            os.environ[spans.ENV_DIR] = self.config.telemetry_dir
            spans.configure(self.config.telemetry_dir, service="daemon")
        self.registry = SessionRegistry(
            state_dir=self.config.state_dir,
            max_sessions=self.config.max_sessions,
            max_cycles_per_session=self.config.max_cycles_per_session,
            checkpoint_every=self.config.checkpoint_every)
        self.executor = CellExecutor(jobs=self.config.jobs,
                                     env=self.config.env)
        self.started_unix = time.time()
        self._server: _Server | None = None
        self._thread: threading.Thread | None = None
        self._stopping = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind and serve in a background thread; returns (host, port)."""
        self._server = _Server((self.config.host, self.config.port),
                               _Handler)
        self._server.serve_daemon = self
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="serve-daemon",
            daemon=True)
        self._thread.start()
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None:
            raise DaemonUnavailable("daemon is not started")
        host, port = self._server.server_address[:2]
        return host, port

    def join(self) -> None:
        """Foreground mode (``repro serve start``): block until the
        daemon stops — via :meth:`stop` or a client ``shutdown`` op.
        The short join timeout keeps KeyboardInterrupt deliverable."""
        if self._thread is None:
            raise DaemonUnavailable("daemon is not started")
        while self._thread.is_alive():
            self._thread.join(timeout=0.5)
        self._teardown()

    def stop(self) -> None:
        """Stop serving and release everything (idempotent)."""
        if self._stopping:
            return
        self._stopping = True
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._teardown()

    def _teardown(self) -> None:
        self.executor.shutdown()
        self.registry.shutdown()

    # -- dispatch ----------------------------------------------------------

    def handle(self, request: dict) -> dict:
        """Serve one decoded request; raises ServeError on failure.

        Every op is measured into the host metrics registry (latency
        histogram + per-op counters — in-memory, always on).  A trace
        context arriving on the request's ``trace`` field (or minted
        here when span recording is active) is installed for the
        handler, so session specs and cell tasks created downstream
        join the client's trace.
        """
        if self._stopping:
            raise DaemonUnavailable("daemon is shutting down")
        op = request["op"]
        handler = getattr(self, f"_op_{op}")
        ctx = TraceContext.from_dict(request.get(protocol.TRACE_FIELD))
        if ctx is None and spans.enabled():
            ctx = new_context()
        start = time.perf_counter()
        try:
            if ctx is None:
                return handler(request)
            with spans.span(f"serve.{op}", ctx=ctx.child(),
                            service="daemon", track="daemon", op=op):
                return handler(request)
        except Exception:
            hostmetrics.inc("host.serve.op_errors")
            raise
        finally:
            hostmetrics.inc("host.serve.ops")
            hostmetrics.inc(f"host.serve.op.{op}")
            hostmetrics.observe_seconds("host.serve.op_latency_s",
                                        time.perf_counter() - start)

    # -- ops: daemon-level -------------------------------------------------

    def _op_ping(self, request: dict) -> dict:
        return protocol.ok_response(
            "ping", version=protocol.PROTOCOL_VERSION, pid=os.getpid())

    def _op_status(self, request: dict) -> dict:
        status = self.registry.status()
        status["executor"] = self.executor.stats()
        status["sessions_detail"] = self.registry.table()
        status["uptime_s"] = round(time.time() - self.started_unix, 3)
        status["version"] = protocol.PROTOCOL_VERSION
        # The same numbers the metrics op exposes come from this one
        # source (pool/registry counters), published at read time.
        hostmetrics.publish_executor_stats(status["executor"])
        hostmetrics.publish_serve_status(status)
        return protocol.ok_response("status", **status)

    def _op_workloads(self, request: dict) -> dict:
        from repro.workloads.spec import catalog

        return protocol.ok_response("workloads", workloads=catalog())

    def _op_shutdown(self, request: dict) -> dict:
        # Respond first, then stop from a helper thread: shutdown()
        # joins serve_forever, which would deadlock the handler thread
        # that is itself inside serve_forever's accept loop.
        threading.Thread(target=self.stop, daemon=True).start()
        return protocol.ok_response("shutdown", stopping=True)

    # -- ops: session lifecycle --------------------------------------------

    def _op_create(self, request: dict) -> dict:
        spec = RunSpec.from_dict(request.get("spec")).validate()
        ctx = current_context()
        if ctx is not None and spec.trace is None:
            # The session inherits the request's trace; the spec is the
            # unit of persistence, so the journal carries it and a
            # post-crash resume keeps the original trace_id.
            import dataclasses

            spec = dataclasses.replace(spec, trace=ctx.to_dict())
        session = self.registry.create(spec,
                                       bundle_dir=self.config.bundle_dir)
        return protocol.ok_response("create", id=session.id,
                                    state=session.state)

    def _op_step(self, request: dict) -> dict:
        session = self.registry.get(request.get("id"))
        budget = request.get("max_events", self.config.step_budget)
        if not isinstance(budget, int) or budget < 1:
            raise BadRequest("max_events must be a positive integer")
        budget = min(budget, MAX_STEP_BUDGET)
        with session.lock:
            before = session.state
            envelope = session.step(budget)
            if session.state != before:
                self.registry.journal_state(session)
        return protocol.ok_response("step", id=session.id, **envelope)

    def _op_run(self, request: dict) -> dict:
        session = self.registry.get(request.get("id"))
        with session.lock:
            if session.state != "created":
                raise SessionConflict(
                    f"session {session.id} is {session.state}; run "
                    "needs a freshly created session (use step to "
                    "drive a running one)")
            session.submit(self.executor)
            self.registry.journal_state(session)
            ticket = session.ticket
        if not request.get("wait", True):
            return protocol.ok_response("run", id=session.id, done=False,
                                        state=session.state)
        timeout = request.get("timeout")
        if timeout is not None and not isinstance(timeout, (int, float)):
            raise BadRequest("timeout must be a number of seconds")
        result = self.executor.wait(ticket, timeout)
        if result is None:       # timed out; session stays queued
            return protocol.ok_response("run", id=session.id, done=False,
                                        state=session.state)
        with session.lock:
            envelope = self._settle(session, result)
        return protocol.ok_response("run", id=session.id, **envelope)

    def _op_poll(self, request: dict) -> dict:
        session = self.registry.get(request.get("id"))
        with session.lock:
            if session.state == "queued" and session.ticket is not None:
                result = self.executor.poll(session.ticket)
                if result is not None:
                    envelope = self._settle(session, result)
                    return protocol.ok_response("poll", id=session.id,
                                                **envelope)
            return protocol.ok_response(
                "poll", id=session.id,
                done=session.state in ("finished", "killed"),
                state=session.state, result=session.result)

    def _op_metrics(self, request: dict) -> dict:
        """Dual-scope metrics: with an ``id``, the session's guest
        (simulated-cycle) metrics snapshot, as always; without one,
        the daemon's *host* metrics as Prometheus text exposition."""
        if request.get("id") is None:
            from repro.telemetry.prometheus import render_prometheus

            hostmetrics.publish_serve_status(self.registry.status())
            hostmetrics.publish_executor_stats(self.executor.stats())
            return protocol.ok_response(
                "metrics", scope="host",
                exposition=render_prometheus(hostmetrics.host_registry()),
                metrics=hostmetrics.host_snapshot())
        session = self.registry.get(request.get("id"))
        return protocol.ok_response(
            "metrics", id=session.id, state=session.state,
            metrics=session.metrics_snapshot())

    def _op_resume(self, request: dict) -> dict:
        session = self.registry.resume(request.get("id"))
        return protocol.ok_response("resume", id=session.id,
                                    state=session.state)

    def _op_close(self, request: dict) -> dict:
        session = self.registry.close(request.get("id"))
        return protocol.ok_response("close", id=session.id,
                                    state=session.state)

    # -- batch-path helpers ------------------------------------------------

    def _settle(self, session, cell_result) -> dict:
        """Settle a batch session's harvested cell (single consumer: the
        executor hands each ticket's result over exactly once) and
        journal the outcome.  Caller holds ``session.lock``."""
        envelope = session.settle(cell_result.value if cell_result.ok
                                  else cell_result)
        self.registry.journal_state(session)
        return envelope
