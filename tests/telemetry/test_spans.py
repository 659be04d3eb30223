"""Span recording and the multi-process trace merger."""

import json
import os

from repro.telemetry.context import current_context, new_context
from repro.telemetry.spans import (
    GUEST_PID_BASE,
    configure,
    enabled,
    merge_host_trace,
    read_spans,
    scoped,
    span,
)


class TestSpanRecording:
    def test_disabled_by_default(self):
        assert not enabled()

    def test_disabled_span_is_a_usable_no_op(self, tmp_path):
        with span("quiet", op="x") as live:
            live.attrs["extra"] = 1
            assert current_context() is not None
        assert read_spans(str(tmp_path)) == []

    def test_span_writes_one_record(self, tmp_path):
        configure(str(tmp_path), service="testsvc")
        with span("work", track="cli", op="bench") as live:
            live.attrs["items"] = 3
        records = read_spans(str(tmp_path))
        assert len(records) == 1
        record = records[0]
        assert record["name"] == "work"
        assert record["service"] == "testsvc"
        assert record["track"] == "cli"
        assert record["pid"] == os.getpid()
        assert record["dur_ns"] >= 0
        assert record["attrs"] == {"op": "bench", "items": 3}

    def test_nested_spans_parent_correctly(self, tmp_path):
        configure(str(tmp_path))
        with span("outer"):
            with span("inner"):
                pass
        by_name = {r["name"]: r for r in read_spans(str(tmp_path))}
        outer, inner = by_name["outer"], by_name["inner"]
        assert inner["trace"] == outer["trace"]
        assert inner["parent"] == outer["span"]
        assert outer["parent"] is None

    def test_explicit_ctx_is_used_verbatim(self, tmp_path):
        configure(str(tmp_path))
        ctx = new_context().child()
        with span("hop", ctx=ctx):
            pass
        (record,) = read_spans(str(tmp_path))
        assert record["trace"] == ctx.trace_id
        assert record["span"] == ctx.span_id
        assert record["parent"] == ctx.parent_id

    def test_scoped_restores_previous_configuration(self, tmp_path):
        with scoped(str(tmp_path), service="arm"):
            assert enabled()
            with span("measured"):
                pass
        assert not enabled()
        assert len(read_spans(str(tmp_path))) == 1

    def test_spans_survive_without_flushless_loss(self, tmp_path):
        # Append+flush per span: the file is complete even while the
        # process is still alive (a killed daemon loses nothing).
        configure(str(tmp_path), service="daemon")
        for index in range(5):
            with span(f"op-{index}"):
                pass
        files = [n for n in os.listdir(tmp_path)
                 if n.startswith("spans-daemon-")]
        assert len(files) == 1
        with open(tmp_path / files[0]) as handle:
            assert len(handle.readlines()) == 5


class TestMergeHostTrace:
    def _record(self, tmp_path):
        configure(str(tmp_path), service="cli")
        with span("cli.bench", track="cli"):
            with span("serve.run", track="daemon", service="daemon"):
                with span("cell", track="worker 123",
                          service="worker"):
                    pass

    def test_merge_builds_one_process_per_track(self, tmp_path):
        self._record(tmp_path)
        out = tmp_path / "merged.trace.json"
        merged = merge_host_trace(str(tmp_path), str(out))
        assert merged["spans"] == 3
        assert merged["tracks"] == 3
        payload = json.loads(out.read_text())
        events = payload["traceEvents"]
        names = {e["args"]["name"] for e in events
                 if e.get("ph") == "M"}
        assert names == {"cli", "daemon", "worker 123"}
        slices = [e for e in events if e.get("ph") == "X"]
        assert {e["name"] for e in slices} == {"cli.bench",
                                               "serve.run", "cell"}
        # Timestamps are rebased: the earliest slice starts at ~0.
        assert min(e["ts"] for e in slices) == 0.0

    def test_merged_spans_share_one_trace_id(self, tmp_path):
        self._record(tmp_path)
        out = tmp_path / "merged.trace.json"
        merge_host_trace(str(tmp_path), str(out))
        slices = [e for e in
                  json.loads(out.read_text())["traceEvents"]
                  if e.get("ph") == "X"]
        assert len({e["args"]["trace"] for e in slices}) == 1

    def test_guest_trace_rides_along_shifted(self, tmp_path):
        self._record(tmp_path)
        guest = tmp_path / "guest.json"
        guest.write_text(json.dumps({"traceEvents": [
            {"ph": "M", "pid": 0, "name": "process_name",
             "args": {"name": "variant 0"}},
            {"ph": "X", "pid": 0, "tid": 1, "name": "sync",
             "ts": 1.0, "dur": 2.0},
        ]}))
        out = tmp_path / "merged.trace.json"
        merged = merge_host_trace(str(tmp_path), str(out),
                                  guests=[("guest", str(guest))])
        events = json.loads(out.read_text())["traceEvents"]
        guest_events = [e for e in events
                        if e.get("pid", 0) >= GUEST_PID_BASE]
        assert len(guest_events) == 2
        meta = [e for e in guest_events if e.get("ph") == "M"][0]
        assert meta["args"]["name"] == "guest: variant 0"
        assert merged["events"] == len(events)

    def test_merge_tolerates_torn_tail(self, tmp_path):
        self._record(tmp_path)
        # Simulate a span file torn mid-write by a daemon kill.
        victim = sorted(p for p in os.listdir(tmp_path)
                        if p.startswith("spans-"))[0]
        with open(tmp_path / victim, "a") as handle:
            handle.write('{"trace": "torn')
        merged = merge_host_trace(str(tmp_path),
                                  str(tmp_path / "out.json"))
        assert merged["spans"] == 3

    def test_merge_of_empty_directory(self, tmp_path):
        out = tmp_path / "empty.trace.json"
        merged = merge_host_trace(str(tmp_path), str(out))
        assert merged == {"spans": 0, "tracks": 0, "events": 0,
                          "out": str(out)}
        assert json.loads(out.read_text())["traceEvents"] == []
