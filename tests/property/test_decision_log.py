"""Property-based tests of the DecisionLog serialization contract.

Hypothesis generates arbitrary well-formed decision streams (all four
record kinds, JSON-safe payloads including floats) and checks the two
invariants replay correctness rests on: write -> load is the identity,
and the canonical digest is stable under re-serialization — the digest
sealed into a footer still verifies after any number of load/write
round trips.
"""

from __future__ import annotations

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replay.log import DecisionLog

# JSON-safe scalars that round-trip exactly: ints within the double
# mantissa, finite floats (Python's json preserves repr round-trips),
# and printable-ish text.
_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2**53, max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=16),
)

_rng = st.fixed_dictionaries({
    "k": st.just("rng"),
    "m": st.sampled_from(["randrange", "random", "uniform"]),
    "v": _scalar,
    "i": st.integers(min_value=0, max_value=10**6),
})
_sync = st.fixed_dictionaries({
    "k": st.just("sync"),
    "t": st.integers(min_value=0, max_value=64),
    "o": st.sampled_from(["lock", "unlock", "wait", "signal"]),
    "s": st.text(max_size=12),
    "v": _scalar,
    "i": st.integers(min_value=0, max_value=10**6),
})
_sys = st.fixed_dictionaries({
    "k": st.just("sys"),
    "t": st.integers(min_value=0, max_value=64),
    "n": st.sampled_from(["read", "write", "futex", "clone"]),
    "r": st.text(max_size=24),
    "i": st.integers(min_value=0, max_value=10**6),
})
_wake = st.fixed_dictionaries({
    "k": st.just("wake"),
    "a": st.integers(min_value=0, max_value=2**32),
    "w": st.lists(st.integers(min_value=0, max_value=64), max_size=6),
    "i": st.integers(min_value=0, max_value=10**6),
})

_records = st.lists(st.one_of(_rng, _sync, _sys, _wake), max_size=40)
_spec = st.dictionaries(
    st.sampled_from(["workload", "agent", "variants", "seed", "scale"]),
    _scalar, min_size=1, max_size=5)


def _round_trip(log: DecisionLog) -> DecisionLog:
    fd, path = tempfile.mkstemp(suffix=".decisions.jsonl")
    os.close(fd)
    try:
        log.write(path)
        return DecisionLog.load(path)
    finally:
        os.unlink(path)


class TestDecisionLogRoundTrip:
    @given(spec=_spec, records=_records)
    @settings(max_examples=60, deadline=None)
    def test_write_load_is_identity(self, spec, records):
        log = DecisionLog(spec=spec)
        for record in records:
            log.append(record)
        loaded = _round_trip(log)
        assert loaded.spec == log.spec
        assert loaded.records == log.records
        assert loaded.digest() == log.digest()

    @given(spec=_spec, records=_records)
    @settings(max_examples=60, deadline=None)
    def test_digest_stable_under_reserialization(self, spec, records):
        log = DecisionLog(spec=spec)
        for record in records:
            log.append(record)
        sealed = log.seal(verdict="clean", cycles=1.0, obs_digest=None,
                          steps=len(records))
        once = _round_trip(log)
        twice = _round_trip(once)
        # The digest the footer carries still verifies after two full
        # load/write round trips, and the footer itself survives.
        assert twice.digest() == sealed["digest"]
        assert once.footer == sealed
        assert twice.footer == sealed

    @given(records=_records)
    @settings(max_examples=30, deadline=None)
    def test_sealing_does_not_move_the_digest(self, records):
        log = DecisionLog(spec={"workload": "nginx"})
        for record in records:
            log.append(record)
        before = log.digest()
        log.seal(verdict="clean", cycles=0.0)
        assert log.digest() == before
