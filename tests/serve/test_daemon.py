"""End-to-end daemon tests over real sockets.

Each test starts an in-process daemon on an ephemeral port and drives
it through :class:`repro.serve.client.ServeClient` — the same code path
CI smoke and the load bench use.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import (
    BadRequest,
    QuotaExceeded,
    SessionConflict,
    SessionNotFound,
)
from repro.experiments.serve_load import single_shot
from repro.serve.client import ServeClient, wait_for_daemon
from repro.serve.daemon import ServeConfig, ServeDaemon

NGINX = {"workload": "nginx", "seed": 7}
FAULTED = {"workload": "dedup", "scale": 0.05, "seed": 5, "variants": 3,
           "faults": "crash@v1:3", "policy": "quarantine"}


@pytest.fixture
def daemon():
    instance = ServeDaemon(ServeConfig(port=0))
    instance.start()
    yield instance
    instance.stop()


@pytest.fixture
def client(daemon):
    with ServeClient(*daemon.address) as handle:
        yield handle


class TestDaemonOps:
    def test_ping_reports_protocol_version(self, client):
        response = client.ping()
        assert response["version"] == 1
        assert response["pid"] > 0

    def test_workloads_mirrors_catalog(self, client):
        names = {entry["name"] for entry in client.workloads()}
        assert {"nginx", "fft", "dedup"} <= names

    def test_status_counts_sessions(self, client):
        client.create(dict(NGINX))
        status = client.status()
        assert status["sessions"]["created"] == 1
        assert status["active"] == 1
        assert status["executor"]["jobs"] == 0

    def test_unknown_op_is_bad_request(self, client):
        with pytest.raises(BadRequest, match="unknown op"):
            client.request("frobnicate")

    def test_malformed_id_is_bad_request(self, client):
        with pytest.raises(BadRequest):
            client.request("step", id=17)

    def test_missing_session_is_not_found(self, client):
        with pytest.raises(SessionNotFound):
            client.poll("s-404")

    def test_internal_errors_never_leak_tracebacks(self, daemon, client):
        # Force a non-ServeError inside an op handler.
        daemon._op_status = lambda request: 1 / 0
        from repro.errors import ServeError

        with pytest.raises(ServeError, match="internal error"):
            client.status()
        assert client.ping()["version"] == 1   # connection survived


class TestSessionOverTheWire:
    def test_batch_run_matches_single_shot(self, client):
        oracle = single_shot(dict(NGINX))
        result = client.run_to_verdict(dict(NGINX))
        assert result["verdict"] == oracle["verdict"] == "clean"
        assert result["obs_digest"] == oracle["obs_digest"]

    def test_stepped_run_matches_batch(self, client):
        batch = client.run_to_verdict(dict(NGINX))
        stepped = client.run_to_verdict(dict(NGINX), step_events=200)
        assert stepped["obs_digest"] == batch["obs_digest"]

    def test_nonblocking_run_then_poll(self, client):
        session_id = client.create(dict(NGINX))
        envelope = client.run(session_id, wait=False)
        assert envelope["state"] == "queued"
        while not envelope["done"]:
            envelope = client.poll(session_id)
        assert envelope["result"]["verdict"] == "clean"

    def test_metrics_expose_obs_snapshot(self, client):
        session_id = client.create(dict(NGINX))
        while not client.step(session_id, max_events=50)["done"]:
            pass
        metrics = client.metrics(session_id)
        assert metrics["state"] == "finished"
        assert metrics["metrics"]       # non-empty snapshot

    def test_run_on_stepped_session_conflicts(self, client):
        session_id = client.create(dict(NGINX))
        client.step(session_id, max_events=5)
        with pytest.raises(SessionConflict):
            client.run(session_id)

    def test_close_frees_quota_slot(self, daemon):
        small = ServeDaemon(ServeConfig(port=0, max_sessions=1))
        small.start()
        try:
            with ServeClient(*small.address) as client:
                first = client.create(dict(NGINX))
                with pytest.raises(QuotaExceeded) as info:
                    client.create(dict(NGINX))
                assert info.value.status == 429
                client.run(first, wait=True)
                client.close_session(first)
                client.create(dict(NGINX))
        finally:
            small.stop()

    def test_concurrent_clients_share_one_daemon(self, daemon):
        digests = []
        lock = threading.Lock()

        def _drive():
            with ServeClient(*daemon.address) as client:
                result = client.run_to_verdict(dict(NGINX))
            with lock:
                digests.append(result["obs_digest"])

        threads = [threading.Thread(target=_drive) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(digests)) == 1


class TestQuotaParity:
    """One spec under one cycle quota gets one verdict, whichever path
    ran it: the quota is applied where a finished run is settled."""

    SPEC = {"workload": "fft", "scale": 0.05, "seed": 5}

    def test_one_big_step_and_a_batch_run_settle_alike(self):
        daemon = ServeDaemon(ServeConfig(jobs=0,
                                         max_cycles_per_session=1.0))
        try:
            stepped = daemon.handle(
                {"op": "create", "spec": dict(self.SPEC)})["id"]
            step = daemon.handle({"op": "step", "id": stepped,
                                  "max_events": 10**9})
            batch = daemon.handle(
                {"op": "create", "spec": dict(self.SPEC)})["id"]
            run = daemon.handle({"op": "run", "id": batch})
        finally:
            daemon.stop()
        assert step["done"] and run["done"]
        assert step["state"] == run["state"] == "killed"
        assert step["result"] == run["result"]
        assert step["result"] == {
            "verdict": "killed", "reason": "cycle quota exceeded",
            "cycles": single_shot(dict(self.SPEC))["cycles"]}


class TestForkPool:
    def test_batch_sessions_share_the_worker_pool(self):
        daemon = ServeDaemon(ServeConfig(port=0, jobs=2))
        daemon.start()
        try:
            oracle = single_shot(dict(NGINX))
            with ServeClient(*daemon.address) as client:
                ids = [client.create(dict(NGINX)) for _ in range(4)]
                for session_id in ids:
                    client.run(session_id, wait=False)
                results = {}
                while len(results) < len(ids):
                    for session_id in ids:
                        if session_id in results:
                            continue
                        envelope = client.poll(session_id)
                        if envelope["done"]:
                            results[session_id] = envelope["result"]
                status = client.status()
            assert status["executor"]["jobs"] == 2
            assert status["executor"]["completed"] == 4
            for result in results.values():
                assert result["obs_digest"] == oracle["obs_digest"]
        finally:
            daemon.stop()


class TestRestartRecovery:
    def test_kill_and_restart_recovers_per_policy(self, tmp_path):
        state_dir = str(tmp_path / "state")
        first = ServeDaemon(ServeConfig(port=0, state_dir=state_dir))
        first.start()
        with ServeClient(*first.address) as client:
            quarantined = client.create(dict(FAULTED))
            killed = client.create(dict(NGINX))          # kill-all
            restarted = client.create(
                dict(NGINX, seed=8, policy="restart"))
            for session_id in (quarantined, killed, restarted):
                client.step(session_id, max_events=5)    # now running
        # Simulated crash: stop the server without closing sessions.
        first._server.shutdown()
        first._server.server_close()
        first.executor.shutdown()
        first.registry.shutdown()

        second = ServeDaemon(ServeConfig(port=0, state_dir=state_dir))
        second.start()
        try:
            with ServeClient(*second.address) as client:
                status = client.status()
                assert status["recovered"] == {
                    quarantined: "quarantined", killed: "killed",
                    restarted: "created"}
                # The quarantined session resumes and converges on the
                # uninterrupted single-shot outcome.
                oracle = single_shot(dict(FAULTED))
                client.resume(quarantined)
                envelope = client.run(quarantined, wait=True)
                assert envelope["result"]["obs_digest"] == \
                    oracle["obs_digest"]
                # The restarted one is immediately runnable.
                assert client.run(restarted, wait=True)["done"]
                # The killed one is terminal: only close works.
                with pytest.raises(SessionConflict):
                    client.step(killed)
                client.close_session(killed)
        finally:
            second.stop()


class TestShutdownOp:
    def test_client_shutdown_stops_the_daemon(self):
        daemon = ServeDaemon(ServeConfig(port=0))
        host, port = daemon.start()
        with wait_for_daemon(host, port) as client:
            assert client.shutdown()["stopping"] is True
        daemon._thread.join(timeout=10.0)
        assert not daemon._thread.is_alive()
        from repro.errors import DaemonUnavailable

        with pytest.raises(DaemonUnavailable):
            ServeClient(host, port).ping()


class TestBundles:
    def test_diverged_sessions_save_their_bundle(self, tmp_path):
        # Batch and stepped runs both save a diverged run's forensics
        # bundle as {bundle_dir}/{session id}.bundle.json.
        from repro.obs.forensics import DivergenceBundle

        daemon = ServeDaemon(ServeConfig(port=0, bundle_dir=str(tmp_path)))
        spec = {"workload": "radiosity", "agent": "none", "scale": 0.1}
        batch = daemon.handle({"op": "create", "spec": dict(spec)})["id"]
        results = {batch: daemon.handle({"op": "run", "id": batch})}
        stepped = daemon.handle({"op": "create", "spec": dict(spec)})["id"]
        envelope = {"done": False}
        while not envelope["done"]:
            envelope = daemon.handle({"op": "step", "id": stepped})
        results[stepped] = envelope
        for session_id, envelope in results.items():
            result = envelope["result"]
            assert result["verdict"] == "divergence"
            assert result["bundle"] == f"{tmp_path}/{session_id}.bundle.json"
            assert DivergenceBundle.load(result["bundle"]).report
