"""End-to-end properties of the observability layer.

Pins the two contracts the subsystem is built around:

* **Zero perturbation** — attaching an :class:`~repro.obs.ObsHub` must
  not change the simulated timeline by a single cycle (hooks never
  charge simulated time).
* **Determinism** — the same seed and configuration produce
  byte-identical metrics snapshots and equal event streams.

Plus the paper-facing acceptance check: a wall-of-clocks nginx run's
Chrome trace shows rendezvous, clock, and buffer-occupancy activity for
every variant.
"""

from collections import defaultdict

from repro.core.mvee import MVEE, run_mvee
from repro.obs import ObsHub
from repro.sched.hooks import EVENTS
from repro.workloads.nginx import (
    NginxConfig,
    NginxServer,
    TrafficStats,
    make_traffic,
)
from repro.workloads.synthetic import make_benchmark


def run_fft(obs=None, seed=1):
    return run_mvee(make_benchmark("fft", scale=0.05), variants=2,
                    agent="wall_of_clocks", seed=seed, obs=obs)


class TestZeroPerturbation:
    def test_observed_run_has_identical_timeline(self):
        plain = run_fft()
        hub = ObsHub()
        observed = run_fft(obs=hub)
        assert plain.verdict == observed.verdict == "clean"
        assert observed.cycles == plain.cycles  # exact, not approx
        assert len(hub.tracer.events) > 0

    def test_hooks_default_to_disabled(self):
        outcome = run_fft()
        assert outcome.obs is None and outcome.obs_bundle is None
        hooks = outcome.machine.hooks
        for event in EVENTS:
            assert getattr(hooks, event) == (), event
        assert hooks.faults is None
        # Every hook site shares that one empty table.
        assert outcome.monitor.hooks is hooks
        assert outcome.monitor.orderer.hooks is hooks
        assert outcome.agent_shared.hooks is hooks
        for buffer in outcome.agent_shared.buffers.values():
            assert buffer.hooks is hooks
        for vm in outcome.vms:
            assert vm.kernel.futexes.hooks is hooks


class TestDeterminism:
    def test_metrics_snapshot_byte_identical_per_seed(self):
        one, two = ObsHub(), ObsHub()
        run_fft(obs=one)
        run_fft(obs=two)
        assert one.metrics.to_json() == two.metrics.to_json()
        assert ([e.to_dict() for e in one.tracer.events]
                == [e.to_dict() for e in two.tracer.events])

    def test_different_seed_different_trace(self):
        one, two = ObsHub(), ObsHub()
        run_fft(obs=one, seed=1)
        run_fft(obs=two, seed=2)
        assert ([e.to_dict() for e in one.tracer.events]
                != [e.to_dict() for e in two.tracer.events])


class TestNginxTraceCoverage:
    """The §5.5 server under wall_of_clocks, fully observed."""

    def run_observed(self, fast_costs):
        config = NginxConfig(pool_threads=8, connections=6,
                             requests_per_connection=3,
                             work_cycles=20_000.0)
        stats = TrafficStats()
        hub = ObsHub()
        mvee = MVEE(NginxServer(config), variants=2,
                    agent="wall_of_clocks", seed=1, costs=fast_costs,
                    instrument=lambda site: True, with_network=True,
                    traffic=make_traffic(config, 0.0, stats), obs=hub)
        return mvee.run(), hub

    def test_trace_covers_every_variant(self, fast_costs):
        outcome, hub = self.run_observed(fast_costs)
        assert outcome.verdict == "clean"
        cats = defaultdict(set)
        names = defaultdict(set)
        for event in hub.tracer.events:
            cats[event.variant].add(event.cat)
            names[event.variant].add(event.name)
        for variant in (0, 1):
            assert "rdv" in cats[variant], "rendezvous events missing"
            assert "clock" in cats[variant], "clock events missing"
            assert "buffer" in cats[variant], "occupancy events missing"
        # the master stamps the ordering clock; slaves stall against it
        assert "clock.tick" in names[0]
        assert "clock.stall" in names[1]
        assert "rdv.wait" in names[0] and "rdv.wait" in names[1]

    def test_chrome_export_has_both_processes(self, fast_costs):
        _, hub = self.run_observed(fast_costs)
        chrome = hub.tracer.to_chrome()
        process_names = {e["args"]["name"]
                         for e in chrome["traceEvents"]
                         if e.get("name") == "process_name"}
        assert process_names == {"variant 0 (master)",
                                 "variant 1 (slave 1)"}
        counters = [e for e in chrome["traceEvents"] if e["ph"] == "C"]
        assert {e["pid"] for e in counters} == {0, 1}

    def test_metrics_capture_monitor_traffic(self, fast_costs):
        _, hub = self.run_observed(fast_costs)
        snapshot = hub.metrics.snapshot()
        assert snapshot["monitor.calls"] > 0
        assert snapshot["monitor.rendezvous.completed"] > 0
        assert snapshot["monitor.rendezvous.latency_cycles"]["count"] > 0
        assert snapshot["agent.recorded"] > 0
        assert snapshot["agent.replayed"] > 0
        # occupancy gauges carry the high-water mark per buffer
        woc_gauges = [name for name in snapshot
                      if name.startswith("agent.buffer.woc:")]
        assert woc_gauges


class TestRunnerIntegration:
    def test_observed_cell_bypasses_memo_cache(self):
        from repro.run import RunSpec, run_spec_cell

        spec = RunSpec("fft", agent="wall_of_clocks", variants=2,
                       scale=0.05)
        hub = ObsHub()
        observed = run_spec_cell(spec, obs=hub)
        assert len(hub.tracer.events) > 0
        # a second observed run records fresh events (no stale cache hit)
        again = ObsHub()
        repeat = run_spec_cell(spec, obs=again)
        assert len(again.tracer.events) == len(hub.tracer.events)
        assert repeat.cycles == observed.cycles
