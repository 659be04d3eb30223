"""Differential conformance across execution environments.

``test_serial_parallel_equiv`` licenses *sharding* (jobs=N equals
jobs=1); this suite licenses the *environment axis*: every name in
:data:`~repro.par.engine.ENVIRONMENT_NAMES` — inline and the persistent
process pool — must produce the same canonical digest as the serial
path for every sweep family the engine carries, across seeds and worker
counts.  If an environment ever leaks dispatch order into simulated
results, the digest moves and this file names the family, environment,
and seed that diverged.

Serial baselines are computed once per (family, seed) and cached, so
the grid costs one serial run plus one run per environment.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json

import pytest

from repro.experiments.runner import (
    reset_caches,
    run_deadlock_sweep,
    run_fault_matrix,
    run_race_sweep,
)
from repro.experiments.tables import table2
from repro.par.bench import (
    bench_tasks,
    build_matrix,
    canonical_cells,
    write_merged_trace,
)
from repro.par.engine import ENVIRONMENT_NAMES, run_cells
from repro.prof.runner import PROFILE_AGENTS, run_profiles

SEEDS = (1, 2, 7)
JOBS = 4

FM_ARGS = dict(benchmark="fft", kinds=("crash", "drop_wake"),
               policies=("kill-all", "quarantine"), scale=0.05)


def digest_of(structure) -> str:
    """Canonical digest of a structural (JSON-able) sweep result."""
    payload = json.dumps(structure, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


def _fault(seed, jobs, env):
    cells = run_fault_matrix(seed=seed, jobs=jobs, env=env, **FM_ARGS)
    return [dataclasses.asdict(cell) for cell in cells]


def _races(seed, jobs, env):
    rows = run_race_sweep(benchmarks=("fft", "dedup"), scale=0.05,
                          seed=seed, include_nginx=False, jobs=jobs,
                          env=env)
    return [{key: value
             for key, value in dataclasses.asdict(row).items()
             if key != "overhead_pct"}  # host wall-clock
            for row in rows]


def _deadlock(seed, jobs, env):
    rows = run_deadlock_sweep(sizes=(3,), seed=seed, jobs=jobs, env=env)
    return [dataclasses.asdict(row) for row in rows]


def _table2(seed, jobs, env):
    return table2(scale=0.05, seed=seed, jobs=jobs, env=env)


def _profile(seed, jobs, env):
    return run_profiles("fft", PROFILE_AGENTS, scale=0.05, seed=seed,
                        jobs=jobs, env=env)


def _bench(seed, jobs, env):
    matrix = build_matrix(quick=True, seed=seed)
    reset_caches()
    return canonical_cells(run_cells(bench_tasks(matrix), jobs=jobs,
                                     env=env))


FAMILIES = {
    "fault-matrix": _fault,
    "race-sweep": _races,
    "deadlock-sweep": _deadlock,
    "table2": _table2,
    "bench-matrix": _bench,
    "profile": _profile,
}


@functools.lru_cache(maxsize=None)
def serial_digest(family: str, seed: int) -> str:
    return digest_of(FAMILIES[family](seed, 1, None))


class TestEnvironmentDigestEquivalence:
    """The full grid: family x environment x seed at jobs=4."""

    @pytest.mark.parametrize("env", ENVIRONMENT_NAMES)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_env_digest_equals_serial(self, family, seed, env):
        run = FAMILIES[family]
        assert digest_of(run(seed, JOBS, env)) == \
            serial_digest(family, seed), \
            f"{family} diverged from serial under env={env} seed={seed}"


class TestSingleJobShortCircuit:
    """jobs=1 must hit the inline fast path and stay digest-identical
    no matter which environment was requested."""

    @pytest.mark.parametrize("env", ENVIRONMENT_NAMES)
    def test_jobs1_equals_serial(self, env):
        assert digest_of(_bench(1, 1, env)) == \
            serial_digest("bench-matrix", 1)

    @pytest.mark.parametrize("env", ENVIRONMENT_NAMES)
    def test_fault_matrix_jobs1_equals_serial(self, env):
        assert digest_of(_fault(1, 1, env)) == \
            serial_digest("fault-matrix", 1)


class TestFullMatrixGolden:
    """Acceptance pin: every environment reproduces the committed
    ``BENCH_par.json`` digest for the full 225-cell bench matrix.  The
    committed reference is serial-derived and regenerated through the
    ``--compare`` gate, so matching it *is* matching serial."""

    @pytest.fixture(scope="class")
    def golden_digest(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2]
        return json.loads((root / "BENCH_par.json").read_text())["digest"]

    @pytest.mark.parametrize("env", ENVIRONMENT_NAMES)
    def test_full_matrix_matches_committed_digest(self, env,
                                                  golden_digest):
        from repro.par.bench import digest_of as bench_digest_of

        matrix = build_matrix(quick=False, seed=1)
        reset_caches()
        cells = canonical_cells(run_cells(bench_tasks(matrix),
                                          jobs=JOBS, env=env))
        assert bench_digest_of(cells) == golden_digest, \
            f"full-matrix digest diverged from BENCH_par.json under " \
            f"env={env}"


class TestObsTraceEnvEquivalence:
    """Merged observation traces are byte-identical in every
    environment — the strongest form of the equivalence claim: not just
    final aggregates but the full ordered event stream matches."""

    def test_merged_traces_byte_identical_across_envs(self, tmp_path):
        matrix = build_matrix(quick=True, seed=1)

        def merged_bytes(env, jobs):
            label = f"{env or 'serial'}-{jobs}"
            trace_dir = tmp_path / label
            results = run_cells(bench_tasks(matrix, with_obs=True),
                                jobs=jobs, env=env,
                                trace_dir=str(trace_dir))
            merged = write_merged_trace(results, str(trace_dir))
            with open(merged, "rb") as handle:
                data = handle.read()
            assert json.loads(data)["traceEvents"]
            return data

        baseline = merged_bytes(None, 1)
        for env in ENVIRONMENT_NAMES:
            assert merged_bytes(env, JOBS) == baseline, \
                f"obs traces diverged under env={env}"
