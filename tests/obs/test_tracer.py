"""Unit tests for the structured event tracer (repro.obs.tracer)."""

import json

from repro.obs.tracer import TraceEvent, Tracer


class FakeClock:
    """A manually-advanced simulated clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make_tracer(**kwargs):
    clock = FakeClock()
    return Tracer(clock=clock, **kwargs), clock


class TestRecording:
    def test_instant_stamps_current_clock(self):
        tracer, clock = make_tracer()
        clock.now = 42.0
        tracer.instant("open", 0, "main", cat="call", args={"seq": 7})
        (event,) = tracer.events
        assert event.ts == 42.0
        assert event.ph == "i"
        assert event.variant == 0 and event.thread == "main"
        assert event.args == {"seq": 7}

    def test_span_duration_from_clock(self):
        tracer, clock = make_tracer()
        clock.now = 100.0
        tracer.begin_span("k", "wait:rdv", 1, "main", cat="wait")
        assert tracer.events == []  # nothing recorded until the span closes
        clock.now = 350.0
        assert tracer.end_span("k") == 250.0
        (event,) = tracer.events
        assert event.ph == "X"
        assert event.ts == 100.0 and event.dur == 250.0

    def test_end_span_without_begin_is_harmless(self):
        tracer, _ = make_tracer()
        assert tracer.end_span("never-opened") == 0.0
        assert tracer.events == []

    def test_end_span_merges_extra_args(self):
        tracer, clock = make_tracer()
        tracer.begin_span("k", "wait", 0, "main", args={"a": 1})
        clock.now = 5.0
        tracer.end_span("k", extra_args={"b": 2})
        assert tracer.events[0].args == {"a": 1, "b": 2}

    def test_counter_event_shape(self):
        tracer, clock = make_tracer()
        clock.now = 9.0
        tracer.counter("buf:woc", 1, 4, series="occupancy")
        (event,) = tracer.events
        assert event.ph == "C"
        assert event.args == {"occupancy": 4}

    def test_ring_is_bounded_per_variant(self):
        tracer, _ = make_tracer(ring_size=4)
        for index in range(10):
            tracer.instant(f"e{index}", 0, "main")
        tracer.instant("other", 1, "main")
        tail = tracer.tail(0)
        assert [event.name for event in tail] == ["e6", "e7", "e8", "e9"]
        assert [event.name for event in tracer.tail(1)] == ["other"]
        assert tracer.variants() == [0, 1]
        assert len(tracer.events) == 11  # the full log is not bounded


class TestChromeExport:
    def test_golden_export(self):
        """Pin the exact Chrome trace_event output for a tiny fixed run."""
        tracer, clock = make_tracer()
        clock.now = 1000.0  # cycles == ns; 1000 cycles -> 1 us
        tracer.instant("open", 0, "main", cat="call", args={"seq": 0})
        clock.now = 3000.0
        tracer.complete("rdv.wait", 1, "main", ts=1000.0, dur=2000.0,
                        cat="rdv")
        tracer.counter("buf:woc", 0, 3, series="occupancy")
        expected = [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": "variant 0 (master)"}},
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": "main"}},
            {"name": "open", "cat": "call", "ph": "i", "ts": 1.0,
             "pid": 0, "tid": 0, "s": "t", "args": {"seq": 0}},
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "variant 1 (slave 1)"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "main"}},
            {"name": "rdv.wait", "cat": "rdv", "ph": "X", "ts": 1.0,
             "dur": 2.0, "pid": 1, "tid": 0},
            {"name": "buf:woc", "cat": "buffer", "ph": "C", "ts": 3.0,
             "pid": 0, "tid": 1, "args": {"occupancy": 3}},
        ]
        chrome = tracer.to_chrome()
        assert chrome["traceEvents"] == expected
        assert chrome["displayTimeUnit"] == "ns"

    def test_thread_ids_deterministic_per_variant(self):
        tracer, _ = make_tracer()
        tracer.instant("a", 0, "main")
        tracer.instant("b", 0, "main/1")
        tracer.instant("c", 1, "main/1")  # other variant: tids restart
        events = [e for e in tracer.to_chrome()["traceEvents"]
                  if e["ph"] != "M"]
        assert [(e["pid"], e["tid"]) for e in events] == [
            (0, 0), (0, 1), (1, 0)]

    def test_write_chrome_is_valid_json(self, tmp_path):
        tracer, _ = make_tracer()
        tracer.instant("a", 0, "main")
        path = tmp_path / "trace.json"
        tracer.write_chrome(path)
        data = json.loads(path.read_text())
        assert any(event.get("name") == "a"
                   for event in data["traceEvents"])


class TestHookEvents:
    """The tracer's hook-table callbacks: one consumer on the table."""

    def test_park_unpark_is_one_wait_span(self):
        tracer, clock = make_tracer()
        clock.now = 10.0
        tracer.park(1, "v1:main", "main", ("futex", 0x40))
        clock.now = 35.0
        tracer.unpark(1, "v1:main", "main")
        (event,) = tracer.events
        assert (event.name, event.ph, event.ts, event.dur) == (
            "wait:futex", "X", 10.0, 25.0)

    def test_rendezvous_span_starts_at_first_arrival(self):
        tracer, clock = make_tracer()
        key = ("main", 3)
        clock.now = 5.0
        tracer.rendezvous_arrive(key, 0, "main")
        clock.now = 9.0
        tracer.rendezvous_arrive(key, 1, "main")
        clock.now = 12.0
        tracer.rendezvous_complete(key, 1, "main", matched=True)
        wait = tracer.events[-1]
        assert (wait.name, wait.ts, wait.dur) == ("rdv.wait", 5.0, 7.0)
        assert wait.args == {"seq": 3, "matched": True}

    def test_report_events_are_instants(self):
        tracer, clock = make_tracer()
        clock.now = 7.0
        tracer.fault_injected("crash", 1, "main", "write", "boom")
        tracer.checkpoint_taken(0, 7.0, 12)
        tracer.replay_diverged(40, 11)
        assert [(e.name, e.cat, e.ts) for e in tracer.events] == [
            ("fault.crash", "fault", 7.0), ("checkpoint", "replay", 7.0),
            ("replay.diverged", "replay", 7.0)]

    def test_only_vocabulary_methods_are_hooks(self):
        from repro.sched.hooks import EVENTS, Hooks

        tracer, _ = make_tracer()
        hooks = Hooks()
        hooks.attach(tracer)
        attached = {event for event in EVENTS if getattr(hooks, event)}
        assert attached == {event for event in EVENTS
                            if hasattr(tracer, event)}
        assert {"park", "fault_injected", "replay_diverged"} <= attached


class TestTraceEvent:
    def test_to_dict_omits_empty_fields(self):
        event = TraceEvent(name="a", cat="call", ph="i", ts=1.0, dur=0.0,
                           variant=0, thread="main", args=None)
        data = event.to_dict()
        assert "dur" not in data and "args" not in data

    def test_to_chrome_converts_cycles_to_microseconds(self):
        event = TraceEvent(name="s", cat="wait", ph="X", ts=2_000.0,
                           dur=500.0, variant=1, thread="main", args=None)
        chrome = event.to_chrome(tid=3)
        assert chrome["ts"] == 2.0 and chrome["dur"] == 0.5
        assert chrome["pid"] == 1 and chrome["tid"] == 3
