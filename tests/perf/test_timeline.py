"""Tests for the Figure 4-style timeline renderer."""

from repro.perf.timeline import TraceEntry, render_timeline, summarize_trace


def entry(thread, time):
    return TraceEntry(thread=thread, kind="syncop", name="cas@x",
                      detail=(0,), time=time)


class TestRenderTimeline:
    def test_empty_trace(self):
        assert "no sync ops" in render_timeline([])

    def test_lanes_per_thread(self):
        text = render_timeline([entry("a", 0), entry("b", 100)],
                               width=10)
        lines = text.splitlines()
        assert any(line.startswith("a |") for line in lines)
        assert any(line.startswith("b |") for line in lines)

    def test_ops_marked_and_gaps_dotted(self):
        trace = [entry("t", 0), entry("t", 1000)]
        text = render_timeline(trace, width=10)
        lane = next(line for line in text.splitlines()
                    if line.startswith("t |"))
        body = lane.split("|")[1]
        assert body[0] == "#" and body[-1] == "#"
        assert "." in body

    def test_label_included(self):
        text = render_timeline([entry("t", 0)], label="slave v1")
        assert text.splitlines()[0] == "slave v1"

    def test_single_op_no_span(self):
        text = render_timeline([entry("t", 42)], width=8)
        lane = next(line for line in text.splitlines()
                    if line.startswith("t |"))
        assert lane.count("#") == 1
        assert "." not in lane.split("|")[1]


class TestSummarizeTrace:
    def test_per_thread_stats(self):
        trace = [entry("a", 0), entry("a", 100), entry("a", 200),
                 entry("b", 50)]
        stats = summarize_trace(trace)
        assert stats["a"]["ops"] == 3
        assert stats["a"]["span_cycles"] == 200
        assert stats["a"]["mean_gap"] == 100
        assert stats["b"]["ops"] == 1
        assert stats["b"]["mean_gap"] == 0.0
