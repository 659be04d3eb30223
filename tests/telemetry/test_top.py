"""The ``repro top`` live view: pure rendering + the poll loop."""

import io

from repro.obs.metrics import MetricsRegistry
from repro.telemetry.prometheus import render_prometheus
from repro.telemetry.top import render_top, run_top

STATUS = {
    "uptime_s": 12.5,
    "active": 2, "max_sessions": 64, "peak_active": 3,
    "created_total": 9, "rejected_total": 1,
    "executor": {"env": "process", "jobs": 4, "in_flight": 2,
                 "queued": 1, "completed": 6, "submitted": 8},
    "sessions_detail": [
        {"id": "s-7", "state": "running", "workload": "nginx",
         "steps": 12, "verdict": None},
        {"id": "s-3", "state": "finished", "workload": "dedup",
         "steps": 4, "verdict": "clean"},
    ],
}


def _metrics_response() -> dict:
    registry = MetricsRegistry()
    registry.counter("host.pool.spawned").inc(4)
    registry.counter("host.serve.ops").inc(20)
    hist = registry.histogram("host.serve.op_latency_s", (0.01, 0.1))
    hist.observe(0.002)
    hist.observe(0.004)
    return {"exposition": render_prometheus(registry)}


class TestRenderTop:
    def test_full_view(self):
        lines = render_top(STATUS, _metrics_response())
        text = "\n".join(lines)
        assert "up 12s" in text or "up 13s" in text
        assert "active 2/64" in text
        assert "env process" in text and "done 6/8" in text
        assert "spawned 4" in text
        assert "ops 20" in text and "mean latency 3.00ms" in text
        assert "s-7" in text and "running" in text
        assert "clean" in text

    def test_missing_sections_shorten_not_crash(self):
        lines = render_top({}, {})
        text = "\n".join(lines)
        assert "repro top" in text
        assert "(no sessions)" in text

    def test_exposition_is_validated(self):
        import pytest

        with pytest.raises(ValueError):
            render_top(STATUS, {"exposition": "garbage !!!"})


class TestRunTop:
    def test_unreachable_daemon_exits_one(self):
        out = io.StringIO()
        code = run_top("127.0.0.1", 1, interval_s=0.01,
                       iterations=1, out=out)
        assert code == 1
        assert "cannot reach serve daemon" in out.getvalue()

    def test_once_against_a_live_daemon(self):
        from repro.serve.daemon import ServeConfig, ServeDaemon

        daemon = ServeDaemon(ServeConfig(port=0))
        host, port = daemon.start()
        try:
            out = io.StringIO()
            code = run_top(host, port, interval_s=0.01,
                           iterations=1, out=out)
            assert code == 0
            text = out.getvalue()
            assert "repro top" in text
            assert "ops" in text
        finally:
            daemon.stop()
