"""An untraced hub observes what a traced one does.

``ObsHub(trace=False)`` — the hub of every served session, of
``run_spec_cell``'s ``obs`` extra and of record/replay runs — keeps its
own clock and has no tracer.  Its metrics, logs and digest must equal
those of a tracing ``ObsHub()`` on the same run: a result must not
depend on how it was observed.
"""

from __future__ import annotations

import pytest

from repro.obs import ObsHub
from repro.run import RunSpec, build_mvee
from repro.serve.session import Session

FAULTED = RunSpec("dedup", variants=3, scale=0.1, faults="crash@v1:5",
                  policy="quarantine")


def _nginx_races():
    from repro.run import NGINX_COSTS, NGINX_PAPER_SIZING
    from repro.workloads.nginx import pthread_only_sites

    return (RunSpec("nginx", variants=2, params=NGINX_PAPER_SIZING,
                    race_detect=True),
            {"costs": NGINX_COSTS, "instrument": pthread_only_sites})


#: name -> (spec, build keywords): the two specs the motivation was
#: measured on, plus a race-finding and a deadlocking run so every
#: log the hub keeps has entries.
CASES = {
    "nginx": lambda: (RunSpec("nginx", variants=2), {}),
    "dedup-crash-quarantine": lambda: (FAULTED, {}),
    "nginx-bare-races": _nginx_races,
    "philosophers-deadlock": lambda: (
        RunSpec("philosophers/3", deadlock_detect=True), {}),
}


def _observe(spec, keywords, trace):
    hub = ObsHub(trace=trace)
    mvee, _ = build_mvee(spec, obs=hub, **keywords)
    outcome = mvee.run()
    return hub, outcome


@pytest.fixture(scope="module", params=sorted(CASES))
def pair(request):
    spec, keywords = CASES[request.param]()
    untraced, _ = _observe(spec, keywords, trace=False)
    traced, outcome = _observe(spec, keywords, trace=True)
    return request.param, untraced, traced, outcome


class TestUntracedEqualsTraced:
    def test_untraced_hub_has_no_tracer(self, pair):
        _, untraced, traced, _ = pair
        assert untraced.tracer is None
        assert traced.tracer is not None and traced.tracer.events

    def test_metrics_snapshots_equal(self, pair):
        _, untraced, traced, _ = pair
        assert untraced.metrics.snapshot() == traced.metrics.snapshot()

    def test_logs_equal(self, pair):
        _, untraced, traced, _ = pair
        for log in ("fault_log", "recovery_log", "race_log",
                    "deadlock_log"):
            assert getattr(untraced, log) == getattr(traced, log), log

    def test_digests_equal(self, pair):
        _, untraced, traced, _ = pair
        assert untraced.digest() == traced.digest()

    def test_cycle_values_are_real(self, pair):
        """The untraced hub reads the machine clock: waits measure
        non-zero cycles and every log record is stamped off cycle 0."""
        name, untraced, _, _ = pair
        snapshot = untraced.metrics.snapshot()
        assert snapshot["machine.park_cycles"]["sum"] > 0
        if name.startswith("nginx"):
            assert snapshot["monitor.rendezvous.latency_cycles"]["sum"] > 0
        records = (untraced.fault_log + untraced.recovery_log
                   + untraced.race_log + untraced.deadlock_log)
        if name != "nginx":
            assert records
        assert all(record["at_cycles"] > 0 for record in records)

    def test_logs_have_entries_where_expected(self, pair):
        name, untraced, _, outcome = pair
        expected = {"dedup-crash-quarantine": ("fault_log",
                                               "recovery_log"),
                    "nginx-bare-races": ("race_log",),
                    "philosophers-deadlock": ("deadlock_log",)}
        for log in expected.get(name, ()):
            assert getattr(untraced, log), (name, log)
        if name == "dedup-crash-quarantine":
            assert outcome.verdict == "degraded"


def test_only_a_tracing_hub_captures_a_bundle():
    """A bundle's event tails come from the tracer, so an untraced run
    leaves no (tail-less) bundle behind."""
    _, untraced = _observe(FAULTED, {}, trace=False)
    _, traced = _observe(FAULTED, {}, trace=True)
    assert untraced.verdict == traced.verdict == "degraded"
    assert untraced.obs_bundle is None
    assert traced.obs_bundle is not None and traced.obs_bundle.tails


def test_stepped_session_streams_real_fault_cycles():
    """A served session streams the fault record the in-process run
    logs, stamped at the same non-zero cycle."""
    hub, _ = _observe(FAULTED, {}, trace=True)
    (logged,) = hub.fault_log
    assert logged["at_cycles"] > 0
    session = Session("s-at", FAULTED)
    streamed = []
    while True:
        envelope = session.step(500)
        streamed += [event["record"] for event in envelope["events"]
                     if event["type"] == "fault"]
        if envelope["done"]:
            break
    assert streamed == [logged]
    assert envelope["result"]["obs_digest"] == hub.digest()
