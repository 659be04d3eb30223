"""The deadlock-detection experiment: sweep rows, rendered table, and
serial/parallel equivalence."""

import pytest

from repro.experiments.runner import (DeadlockSweepRow, deadlock_sweep_table,
                                      run_deadlock_sweep)


def structural(rows):
    return [(r.workload, r.mode, r.verdict, r.cycles, r.diagnosis,
             r.guard_refusals, r.cycles_identical) for r in rows]


class TestDeadlockSweep:
    def test_sweep_shape_and_semantics(self):
        rows = run_deadlock_sweep(sizes=(3,), seed=1)
        assert [(r.workload, r.mode) for r in rows] == [
            ("philosophers/3", "watchdog"),
            ("philosophers/3", "detector"),
            ("philosophers/3+trylock", "detector"),
        ]
        watchdog, detector, guarded = rows
        # Old path: the wedge burns the watchdog budget and is diagnosed
        # by the timeout cause hint.
        assert watchdog.verdict == "divergence"
        assert watchdog.diagnosis == "deadlock-suspected"
        # New path: cycle named at formation, well before the deadline.
        assert detector.verdict == "deadlock"
        assert detector.cycles < watchdog.cycles
        assert set(detector.diagnosis.split(" -> ")) == {
            "phil0", "phil1", "phil2"}
        # Guarded variant: clean, guards engaged, timeline unperturbed.
        assert guarded.verdict == "clean"
        assert guarded.guard_refusals >= 1
        assert guarded.cycles_identical is True

    def test_table_renders_speedup_line(self):
        rows = run_deadlock_sweep(sizes=(3,), seed=1)
        table = deadlock_sweep_table(rows)
        assert "diagnosis latency" in table
        assert "earlier than" in table
        assert "phil0" in table

    def test_jobs4_equals_jobs1(self):
        serial = run_deadlock_sweep(sizes=(3,), seed=2, jobs=1)
        parallel = run_deadlock_sweep(sizes=(3,), seed=2, jobs=4)
        assert structural(parallel) == structural(serial)

    def test_row_dataclass_defaults_are_explicit(self):
        row = DeadlockSweepRow(workload="w", mode="detector",
                               verdict="clean", cycles=1.0, diagnosis="-",
                               guard_refusals=0, cycles_identical=None)
        assert row.cycles_identical is None


#: ``deadlock_sweep_table(run_deadlock_sweep())`` at the default sizes
#: and seed — the text ``repro deadlock bench`` prints, pinned since the
#: sweep's cells became run specs.
PINNED_TABLE = """\
deadlock detection: diagnosis latency and quality
workload                    mode     verdict     cycles  guards  timeline  diagnosis
philosophers/3          watchdog  divergence     349591       0         -  deadlock-suspected
philosophers/3          detector    deadlock      41013       0         -  phil0 -> phil1 -> phil2 -> phil0
philosophers/4          watchdog  divergence     367494       0         -  deadlock-suspected
philosophers/4          detector    deadlock      57621       0         -  phil0 -> phil1 -> phil2 -> phil3 -> phil0
philosophers/3+trylock  detector       clean      71839       4      same  -
detector diagnoses 2 wedge(s) 6.4-8.5x earlier than the watchdog deadline, with the cycle named"""


@pytest.mark.parametrize("jobs", [1, 2])
def test_default_sweep_table_is_pinned(jobs):
    assert deadlock_sweep_table(run_deadlock_sweep(jobs=jobs)) == \
        PINNED_TABLE
