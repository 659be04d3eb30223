"""Thin blocking client for the serve daemon.

One :class:`ServeClient` wraps one TCP connection; every method is a
single request/response exchange over the JSON-lines protocol.  Failures
come back as the *same* typed :class:`repro.errors.ServeError` subclass
the daemon raised (re-raised via :func:`repro.serve.protocol.raise_for`),
so a caller handles a quota rejection with ``except QuotaExceeded`` on
either side of the wire.  Transport-level failures (connection refused,
daemon died mid-request) raise :class:`repro.errors.DaemonUnavailable`.

The load generator (:mod:`repro.serve.bench`), the CLI (``repro serve
status``), CI smoke, and the test suite all drive the daemon through
this class — there is no second client code path to drift.
"""

from __future__ import annotations

import json
import socket
import time

from repro.errors import DaemonUnavailable
from repro.serve import protocol

#: Gap between two polls of one unfinished batch session.
POLL_INTERVAL_S = 0.010


class ServeClient:
    """One connection to a serve daemon."""

    def __init__(self, host: str = "127.0.0.1", port: int = 7333,
                 timeout: float = 60.0):
        self.host = host
        self.port = port
        try:
            self._sock = socket.create_connection((host, port),
                                                  timeout=timeout)
        except OSError as exc:
            raise DaemonUnavailable(
                f"cannot reach serve daemon at {host}:{port}: "
                f"{exc}") from None
        self._file = self._sock.makefile("rwb")

    # -- transport ---------------------------------------------------------

    def request(self, op: str, **fields) -> dict:
        """One exchange; returns the ok-response dict or re-raises the
        daemon's typed error.

        When a host trace context is current on this thread (the CLI
        installs one per command), it rides the request's ``trace``
        field and the exchange is recorded as an ``rpc.<op>`` span —
        the client half of the CLI → daemon → session → worker trace.
        """
        from repro.telemetry.context import current_context, wire_context
        from repro.telemetry.spans import enabled, span

        message = {"op": op}
        message.update(fields)
        if current_context() is None and not enabled():
            # No trace to continue and nothing recording: the wire
            # bytes stay exactly pre-telemetry.
            return self._exchange(message)
        with span(f"rpc.{op}", op=op):
            if protocol.TRACE_FIELD not in message:
                message[protocol.TRACE_FIELD] = wire_context()
            return self._exchange(message)

    def _exchange(self, message: dict) -> dict:
        try:
            self._file.write(protocol.encode(message))
            self._file.flush()
            line = self._file.readline()
        except OSError as exc:
            raise DaemonUnavailable(
                f"serve daemon connection lost: {exc}") from None
        if not line:
            raise DaemonUnavailable(
                "serve daemon closed the connection")
        return protocol.raise_for(json.loads(line))

    def close(self) -> None:
        try:
            self._file.close()
            self._sock.close()
        except OSError:  # pragma: no cover - best-effort teardown
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- ops ---------------------------------------------------------------

    def ping(self) -> dict:
        return self.request("ping")

    def status(self) -> dict:
        return self.request("status")

    def workloads(self) -> list[dict]:
        return self.request("workloads")["workloads"]

    def create(self, spec: dict) -> str:
        """Create a session from a spec dict; returns the session id."""
        return self.request("create", spec=spec)["id"]

    def step(self, session_id: str, max_events: int | None = None) -> dict:
        fields = {"id": session_id}
        if max_events is not None:
            fields["max_events"] = max_events
        return self.request("step", **fields)

    def run(self, session_id: str, wait: bool = True,
            timeout: float | None = None) -> dict:
        fields = {"id": session_id, "wait": wait}
        if timeout is not None:
            fields["timeout"] = timeout
        return self.request("run", **fields)

    def poll(self, session_id: str) -> dict:
        return self.request("poll", id=session_id)

    def metrics(self, session_id: str) -> dict:
        return self.request("metrics", id=session_id)

    def host_metrics(self) -> dict:
        """The daemon's host metrics: Prometheus text under
        ``exposition`` plus the raw snapshot under ``metrics``."""
        return self.request("metrics")

    def resume(self, session_id: str) -> dict:
        return self.request("resume", id=session_id)

    def close_session(self, session_id: str) -> dict:
        return self.request("close", id=session_id)

    def shutdown(self) -> dict:
        return self.request("shutdown")

    # -- conveniences ------------------------------------------------------

    def drive(self, session_id: str,
              step_events: int | None = None) -> dict:
        """Drive a created session to its verdict; returns the final
        envelope (its ``result`` is the session's result dict).

        ``step_events`` selects the stepped path with that event budget
        per step; ``None`` uses the batch path: one blocking ``run``,
        then polls :data:`POLL_INTERVAL_S` apart should it return
        unfinished.
        """
        if step_events is None:
            envelope = self.run(session_id, wait=True)
            while not envelope["done"]:
                time.sleep(POLL_INTERVAL_S)
                envelope = self.poll(session_id)
            return envelope
        while True:
            envelope = self.step(session_id, max_events=step_events)
            if envelope["done"] or envelope["state"] == "killed":
                return envelope

    def run_to_verdict(self, spec: dict, step_events: int | None = None,
                       close: bool = True) -> dict:
        """create → :meth:`drive` to completion → (optionally) close.
        Returns the session's final result dict."""
        session_id = self.create(spec)
        result = self.drive(session_id, step_events)["result"]
        if close:
            self.close_session(session_id)
        return result


def wait_for_daemon(host: str, port: int, deadline_s: float = 10.0,
                    interval_s: float = 0.05) -> ServeClient:
    """Poll until the daemon accepts connections; used by CI smoke and
    tests that start the daemon as a separate process."""
    last: Exception | None = None
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        try:
            client = ServeClient(host, port)
            client.ping()
            return client
        except DaemonUnavailable as exc:
            last = exc
            time.sleep(interval_s)
    raise DaemonUnavailable(
        f"serve daemon at {host}:{port} did not come up within "
        f"{deadline_s:.0f}s: {last}")
