"""repro.logio: the torn-tail-tolerant JSONL reader both the serve
registry journal and the decision log load through.

A crash mid-append leaves at worst one unparseable (or unterminated)
final line; that torn tail must be dropped silently by both consumers,
while interior corruption is skippable (journal) or fatal (decision
log) by the caller's choice.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ReplayError
from repro.logio import JsonlCorruption, append_jsonl, read_jsonl


def _write(path, lines, terminate_last=True):
    with open(path, "w") as handle:
        for index, line in enumerate(lines):
            handle.write(line)
            if terminate_last or index < len(lines) - 1:
                handle.write("\n")
    return str(path)


class TestReadJsonl:
    def test_reads_records_in_order(self, tmp_path):
        path = _write(tmp_path / "a.jsonl",
                      [json.dumps({"n": i}) for i in range(5)])
        page = read_jsonl(path)
        assert [r["n"] for r in page.records] == list(range(5))
        assert page.skipped == 0
        assert not page.torn_tail

    def test_missing_file_raises_typed_error(self, tmp_path):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            read_jsonl(str(tmp_path / "nope.jsonl"))

    def test_torn_final_line_dropped(self, tmp_path):
        path = _write(tmp_path / "t.jsonl",
                      [json.dumps({"n": 0}), '{"n": 1, "x"'])
        page = read_jsonl(path, on_bad="error")
        assert [r["n"] for r in page.records] == [0]
        assert page.torn_tail

    def test_unterminated_final_line_dropped(self, tmp_path):
        # Even a *parseable* final line without its newline is treated
        # as torn: the crash may have interrupted the payload itself.
        path = _write(tmp_path / "u.jsonl",
                      [json.dumps({"n": 0}), json.dumps({"n": 1})],
                      terminate_last=False)
        page = read_jsonl(path, on_bad="error")
        assert [r["n"] for r in page.records] == [0]
        assert page.torn_tail

    def test_interior_junk_skipped_or_fatal(self, tmp_path):
        path = _write(tmp_path / "j.jsonl",
                      [json.dumps({"n": 0}), "junk{{{",
                       json.dumps({"n": 2})])
        page = read_jsonl(path, on_bad="skip")
        assert [r["n"] for r in page.records] == [0, 2]
        assert page.skipped == 1
        with pytest.raises(JsonlCorruption):
            read_jsonl(path, on_bad="error")

    def test_append_round_trips(self, tmp_path):
        path = str(tmp_path / "ap.jsonl")
        with open(path, "w") as handle:
            for i in range(3):
                append_jsonl(handle, {"n": i})
        assert [r["n"] for r in read_jsonl(path).records] == [0, 1, 2]


class TestConsumers:
    """Both shared-reader consumers survive the same torn tail."""

    def test_registry_journal_survives_torn_tail(self, tmp_path):
        from repro.run import RunSpec
        from repro.serve.registry import SessionRegistry

        state = tmp_path / "state"
        registry = SessionRegistry(state_dir=str(state))
        spec = RunSpec.from_dict(
            {"workload": "nginx", "seed": 5}).validate()
        session = registry.create(spec)
        registry.shutdown()
        journal = state / "registry.jsonl"
        with open(journal, "a") as handle:
            handle.write('{"event": "state", "id": "' + session.id)
        recovered = SessionRegistry(state_dir=str(state))
        assert session.id in recovered.sessions
        assert recovered.sessions[session.id].state == "created"
        recovered.shutdown()

    def test_decision_log_survives_torn_tail(self, tmp_path):
        from repro.replay.log import DecisionLog

        log = DecisionLog(spec={"workload": "nginx", "seed": 5})
        log.append({"k": "rng", "m": "randrange", "v": 3, "i": 0})
        log.append({"k": "rng", "m": "random", "v": 0.5, "i": 1})
        path = str(tmp_path / "run.decisions.jsonl")
        log.write(path)
        with open(path, "a") as handle:
            handle.write('{"k": "sync", "t": "mai')
        loaded = DecisionLog.load(path)
        assert loaded.records == log.records
        assert loaded.digest() == log.digest()

    def test_decision_log_interior_corruption_fatal(self, tmp_path):
        from repro.replay.log import DecisionLog

        log = DecisionLog(spec={"workload": "nginx", "seed": 5})
        log.append({"k": "rng", "m": "randrange", "v": 3, "i": 0})
        path = str(tmp_path / "bad.decisions.jsonl")
        log.write(path)
        lines = open(path).read().splitlines()
        lines.insert(1, "corrupt!!!")
        _write(tmp_path / "bad.decisions.jsonl", lines)
        with pytest.raises(ReplayError):
            DecisionLog.load(path)
