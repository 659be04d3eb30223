"""The benchmark's own checks: ``python3 -m pytest perfbench``.

Short runs of every workload, untraced and traced, asserting the output
contract, that every timed rep re-simulates (no memo cache in the timed
path), and the per-layer predictions the benchmark is built on: which
layers each workload must exercise and which it must bypass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3
WORKLOADS = ("mvee-sync", "sweep-syscall", "serve-open")


def bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[dict, dict]:
    """(result line, full record) of a one-second run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    path = cwd / ".perfbench_out" / f"{workload}-seed{SEED}-trace{trace}.json"
    with open(path) as handle:
        return result, json.load(handle)


def declared(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return {metric["name"]: metric
                for metric in json.load(handle)[kind]}


@pytest.fixture(scope="module", params=WORKLOADS)
def traced(request):
    return request.param, *bench(request.param, 1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result, record = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for name, metric in declared("end_to_end").items():
        assert result["metrics"][name]["unit"] == metric["unit"]
        assert result["metrics"][name]["value"] > 0, name
    assert set(record["host"]) == {"cpu_count", "python", "platform"}


def test_traced_run_reports_every_layer_metric(traced):
    _, result, _ = traced
    assert result["correct"]
    metrics = result["metrics"]
    for name, metric in declared("per_layer").items():
        assert metrics[name]["unit"] == metric["unit"], name
    assert metrics["fail_frac"]["value"] == 0
    assert metrics["sched.calls"]["value"] > 0
    assert metrics["sched.self_s"]["value"] > 0


def test_every_timed_rep_resimulates(traced):
    workload, _, record = traced
    if workload == "serve-open":
        pytest.skip("sessions are all distinct inputs")
    run = record["run"]
    assert len(run["rep_sched_calls"]) >= 2
    assert run["rep_sched_calls"][0] > 0
    assert len(set(run["rep_sched_calls"])) == 1
    assert all(ops == run["rep_ops"][0] for ops in run["rep_ops"])


def test_layers_bypassed_and_exercised_as_predicted(traced):
    workload, result, _ = traced
    value = {name: metric["value"]
             for name, metric in result["metrics"].items()}
    ops = value["sim.sync_ops"] + value["sim.syscalls"]
    obs = [name for name in value if name.startswith("obs.")]
    if workload == "mvee-sync":
        bypassed = [name for name in value
                    if name.split(".")[0] in ("par", "serve", "obs")]
        assert all(value[name] == 0 for name in bypassed), bypassed
        assert value["monitor.syscalls"] < 0.02 * ops
        assert value["agents.sync_ops"] == value["sim.sync_ops"]
    elif workload == "sweep-syscall":
        assert all(value[name] == 0 for name in obs)
        assert value["monitor.syscalls"] > 0.20 * ops
        assert value["par.cells"] > 0 and value["par.failed_cells"] == 0
    else:
        from perfbench.serve_open import LATE_BOUND_MS

        assert value["loadgen.late_ms_max"] <= LATE_BOUND_MS
        assert value["obs.hook_calls"] > 0
        assert value["serve.rtt_ms.poll"] > value["serve.handle_ms.poll"] > 0
        assert value["par.cells"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mvee-sync",
         "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_pairs_runs_by_seed_so_shared_drift_cancels():
    from perfbench.compare import verdict

    metric = {"name": "wall_s", "better": "lower", "bound": 0.25}
    drift = {seed: 1.0 + 0.5 * (seed % 3) for seed in range(6)}
    same = verdict(metric, dict(drift), dict(drift))
    assert same["verdict"] == "ok" and same["spread"] == 0.0
    slower = verdict(metric, drift,
                     {seed: 1.4 * value for seed, value in drift.items()})
    assert slower["verdict"] == "WORSE"


def test_compare_leaves_wide_unpaired_runs_unresolved():
    from perfbench.compare import verdict

    metric = {"name": "wall_s", "better": "lower", "bound": 0.25}
    base = {seed: value for seed, value in enumerate((1.0, 1.0, 2.0, 2.0))}
    new = {seed + 10: value
           for seed, value in enumerate((1.0, 2.0, 2.0, 2.0))}
    assert verdict(metric, base, new)["verdict"] == "unresolved"
    apart = {seed + 10: 3.0 + seed for seed in range(4)}
    assert verdict(metric, base, apart)["verdict"] == "WORSE"


def test_unrecorded_seed_gets_a_computed_reference_that_matches_the_table():
    from perfbench import common

    with open(HERE / "expected.json") as handle:
        recorded = json.load(handle)["serve-open"]
    proc = subprocess.run(
        [sys.executable, "perfbench/make_expected.py", "--workload",
         "serve-open", "--seed", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == recorded["0"]
    unrecorded = max(int(seed) for seed in recorded) + 1
    digest, source = common.expected_digest("serve-open", unrecorded)
    assert source == "computed" and digest.startswith("sha256:")
