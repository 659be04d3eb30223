"""Host telemetry through the serve stack.

Three layers are pinned here:

* the dual-scope ``metrics`` op — host Prometheus exposition without an
  ``id``, the session's guest metrics with one — and the single-source
  guarantee that its counters agree with ``serve status``;
* the end-to-end distributed trace: one CLI-rooted trace context
  crossing a real socket into the daemon, into the session cell, and
  into a pool worker, merged into one Chrome trace file;
* trace persistence across daemon death: a session resumed from disk
  keeps its original trace_id (the spec journals it) and its
  post-resume spans carry the ``resumed`` annotation.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.run import RunSpec
from repro.serve.client import ServeClient
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.registry import SessionRegistry
from repro.telemetry import reset_host_metrics
from repro.telemetry.context import new_context
from repro.telemetry.prometheus import parse_prometheus
from repro.telemetry.spans import (
    ENV_DIR,
    configure,
    merge_host_trace,
    read_spans,
    reset,
    span,
)

NGINX = {"workload": "nginx", "seed": 7}


@pytest.fixture(autouse=True)
def clean_telemetry(monkeypatch):
    monkeypatch.delenv(ENV_DIR, raising=False)
    reset()
    reset_host_metrics()
    yield
    # A daemon started with telemetry_dir exports REPRO_TELEMETRY_DIR
    # for its workers; scrub it so later tests start dark.
    os.environ.pop(ENV_DIR, None)
    reset()
    reset_host_metrics()


class TestHostMetricsOp:
    @pytest.fixture
    def daemon(self):
        instance = ServeDaemon(ServeConfig(port=0))
        instance.start()
        yield instance
        instance.stop()

    def test_idless_metrics_returns_host_exposition(self, daemon):
        with ServeClient(*daemon.address) as client:
            client.run_to_verdict(dict(NGINX))
            response = client.host_metrics()
        assert response["scope"] == "host"
        families = parse_prometheus(response["exposition"])
        assert "repro_host_serve_ops_total" in families
        assert "repro_host_serve_op_latency_s" in families
        snapshot = response["metrics"]
        assert snapshot["host.serve.ops"] >= 3  # create+run+close

    def test_metrics_with_id_still_serves_guest_metrics(self, daemon):
        with ServeClient(*daemon.address) as client:
            session_id = client.create(dict(NGINX))
            client.run(session_id, wait=True)
            response = client.metrics(session_id)
        assert response["id"] == session_id
        assert "exposition" not in response

    def test_status_and_metrics_share_one_source(self, daemon):
        with ServeClient(*daemon.address) as client:
            client.run_to_verdict(dict(NGINX))
            status = client.status()
            snapshot = client.host_metrics()["metrics"]
        assert snapshot["host.serve.sessions_created_total"] == \
            status["created_total"]
        assert snapshot["host.executor.submitted"] == \
            status["executor"]["submitted"]

    def test_op_errors_counted(self, daemon):
        from repro.errors import SessionNotFound

        with ServeClient(*daemon.address) as client:
            with pytest.raises(SessionNotFound):
                client.poll("s-404")
            snapshot = client.host_metrics()["metrics"]
        assert snapshot["host.serve.op_errors"] >= 1
        assert snapshot["host.serve.op.poll"] >= 1


class TestEndToEndTrace:
    def test_cli_daemon_session_worker_one_trace(self, tmp_path,
                                                 monkeypatch):
        telemetry_dir = str(tmp_path / "telemetry")
        daemon = ServeDaemon(ServeConfig(
            port=0, jobs=2, env="process",
            telemetry_dir=telemetry_dir))
        host, port = daemon.start()
        try:
            # The CLI half: a root span whose context rides every
            # request this client sends.
            configure(telemetry_dir, service="cli")
            with span("cli.serve", track="cli") as root:
                with ServeClient(host, port) as client:
                    result = client.run_to_verdict(dict(NGINX))
            assert result["verdict"] == "clean"
            trace_id = root.ctx.trace_id
        finally:
            daemon.stop()

        records = read_spans(telemetry_dir)
        services = {r["service"] for r in records}
        assert {"cli", "daemon", "session", "worker"} <= services
        # Every hop is one trace, rooted at the CLI span.
        assert {r["trace"] for r in records} == {trace_id}
        worker_spans = [r for r in records if r["service"] == "worker"]
        assert worker_spans and all(
            r["pid"] != os.getpid() for r in worker_spans)

        out = tmp_path / "merged.trace.json"
        merged = merge_host_trace(telemetry_dir, str(out))
        assert merged["tracks"] >= 4
        events = json.loads(out.read_text())["traceEvents"]
        tracks = {e["args"]["name"] for e in events
                  if e.get("ph") == "M"}
        assert "cli" in tracks and "daemon" in tracks
        assert any(t.startswith("session ") for t in tracks)
        assert any(t.startswith("worker ") for t in tracks)

    def test_no_trace_field_on_wire_when_telemetry_off(self):
        daemon = ServeDaemon(ServeConfig(port=0))
        daemon.start()
        try:
            with ServeClient(*daemon.address) as client:
                session_id = client.create(dict(NGINX))
                session = daemon.registry.get(session_id)
                assert session.spec.trace is None
                assert "trace" not in session.spec.to_dict()
        finally:
            daemon.stop()


class TestTraceSurvivesDaemonDeath:
    """Satellite: resumed sessions keep the original trace_id."""

    SPEC = {"workload": "nginx", "seed": 5, "policy": "restart"}
    CHECKPOINT_EVERY = 10_000.0
    STEP_EVENTS = 25

    def _drive(self, session, limit=200):
        for _ in range(limit):
            with session.lock:
                envelope = session.step(self.STEP_EVENTS)
            if envelope["done"]:
                return envelope["result"]
        raise AssertionError("session did not finish within budget")

    def test_resumed_spans_carry_original_trace(self, tmp_path):
        telemetry_dir = str(tmp_path / "telemetry")
        configure(telemetry_dir, service="daemon")
        ctx = new_context()
        spec = RunSpec.from_dict(
            {**self.SPEC, "trace": ctx.to_dict()}).validate()

        state = tmp_path / "state"
        registry = SessionRegistry(
            state_dir=str(state),
            checkpoint_every=self.CHECKPOINT_EVERY)
        session = registry.create(spec)
        session.state = "running"
        registry.journal_state(session)
        for _ in range(8):
            with session.lock:
                envelope = session.step(self.STEP_EVENTS)
            assert not envelope["done"]
        session.release_writer()   # crash: no seal, no journal update
        registry.shutdown()
        log_path = session.decision_log_path()
        with open(log_path, "rb+") as handle:
            handle.truncate(os.path.getsize(log_path) - 30)
        pre_crash = len(read_spans(telemetry_dir))
        assert pre_crash >= 8   # flushed per span: the kill lost none

        recovered = SessionRegistry(
            state_dir=str(state),
            checkpoint_every=self.CHECKPOINT_EVERY)
        survivor = recovered.get(session.id)
        # The journaled spec carried the trace across the "restart".
        assert survivor.spec.trace == ctx.to_dict()
        assert survivor.resume_from_disk
        result = self._drive(survivor)
        recovered.shutdown()
        assert result["verdict"] == "clean"

        records = read_spans(telemetry_dir)
        step_spans = [r for r in records
                      if r["name"] == "session.step"]
        assert {r["trace"] for r in step_spans} == {ctx.trace_id}
        post_resume = step_spans[pre_crash:]
        assert post_resume
        assert all((r.get("attrs") or {}).get("resumed")
                   for r in post_resume)

    def test_spec_without_trace_keeps_old_journal_shape(self, tmp_path):
        registry = SessionRegistry(state_dir=str(tmp_path / "s"))
        session = registry.create(
            RunSpec.from_dict(dict(NGINX)).validate())
        registry.shutdown()
        with open(registry.journal_path) as handle:
            entry = json.loads(handle.readline())
        assert "trace" not in entry["spec"]
        assert session.spec.trace is None
