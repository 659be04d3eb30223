"""One run spec, one builder, one cell: every front end and every
spec-shaped sweep builds the same MVEE.

``repro run``, ``repro run --record``, the serve batch path
(``single_shot``) and a stepped serve ``Session`` all turn a
:class:`repro.run.RunSpec` into an MVEE through
:func:`repro.run.build_mvee`, so they must agree on the verdict and the
cycle count for the same spec.  The specs cover the decisions that
used to live in several copies: the ``native/64`` checkpoint default
under ``resync_mode="checkpoint"``, the nginx sizing, the ASLR+DCL
diversity ``repro run --diversity`` asks for, and a deadlock-detected
philosophers table.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import BadRequest
from repro.experiments.runner import (
    run_benchmark_grid,
    run_deadlock_sweep,
    run_fault_matrix,
    run_race_sweep,
)
from repro.experiments.serve_load import single_shot
from repro.par import engine
from repro.par.bench import bench_tasks, build_matrix
from repro.par.engine import run_cells
from repro.prof.runner import run_profiles
from repro.replay.log import DecisionLog
from repro.run import RunSpec, build_mvee, reset_caches, run_spec_cell
from repro.serve.client import ServeClient
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.session import Session

#: (spec dict, the ``repro run`` arguments describing the same run).
SPECS = [
    ({"workload": "dedup", "scale": 0.1, "variants": 3, "seed": 1,
      "policy": "restart", "faults": "crash@v1:3",
      "resync_mode": "checkpoint"},
     ["dedup", "--scale", "0.1", "--variants", "3", "--seed", "1",
      "--policy", "restart", "--faults", "crash@v1:3",
      "--resync-mode", "checkpoint"]),
    ({"workload": "nginx", "variants": 3, "seed": 7},
     ["nginx", "--variants", "3", "--seed", "7"]),
    ({"workload": "fft", "scale": 0.05, "seed": 5, "diversity": True},
     ["fft", "--scale", "0.05", "--seed", "5", "--diversity"]),
    ({"workload": "philosophers/3", "deadlock_detect": True},
     ["philosophers/3", "--deadlock-detect"]),
]


def _field(out: str, name: str) -> str:
    prefix = f"{name:10s}: "
    lines = [line for line in out.splitlines() if line.startswith(prefix)]
    assert len(lines) == 1, out
    return lines[0][len(prefix):]


def _cli_run(capsys, argv) -> tuple[str, float]:
    main(["run", *argv])
    out = capsys.readouterr().out
    return _field(out, "verdict"), float(_field(out, "cycles"))


def _cli_record(capsys, argv, log_path) -> tuple[str, float]:
    main(["run", *argv, "--record", log_path])
    capsys.readouterr()
    footer = DecisionLog.load(log_path).footer
    return footer["verdict"], footer["cycles"]


def _serve_batch(spec: dict) -> tuple[str, float]:
    result = single_shot(dict(spec))
    return result["verdict"], result["cycles"]


def _serve_stepped(spec: dict) -> tuple[str, float]:
    session = Session("s-identity", RunSpec.from_dict(dict(spec)).validate())
    for _ in range(100_000):
        envelope = session.step(2_000)
        if envelope["done"]:
            result = envelope["result"]
            return result["verdict"], result["cycles"]
    raise AssertionError("stepped session never finished")


@pytest.mark.parametrize("spec,argv", SPECS,
                         ids=[spec["workload"] for spec, _ in SPECS])
def test_every_front_end_reports_the_same_run(capsys, tmp_path, spec,
                                              argv):
    paths = {
        "repro run": _cli_run(capsys, argv),
        "repro run --record": _cli_record(
            capsys, argv, str(tmp_path / "run.decisions.jsonl")),
        "single_shot": _serve_batch(spec),
        "stepped session": _serve_stepped(spec),
    }
    assert len(set(paths.values())) == 1, paths


#: Specs whose fields have the wrong JSON type; each used to pass
#: ``validate()`` and then crash the build or silently run another seed.
MISTYPED = [
    {"workload": "fft", "scale": 0.05, "variants": "3"},
    {"workload": "fft", "scale": "0.05"},
    {"workload": "fft", "scale": 0.05, "variants": 2.5},
    {"workload": "fft", "scale": 0.05, "seed": "7"},
]


@pytest.mark.parametrize("spec", MISTYPED + [
    {"workload": "fft", "seed": True},
    {"workload": "fft", "fault_seed": 1.0},
    {"workload": "fft", "watchdog": "100"},
    {"workload": "fft", "race_detect": 1},
    {"workload": "fft", "diversity": 1},
    {"workload": "fft", "deadlock_detect": "yes"},
    {"workload": "philosophers/1"},
    {"workload": "philosophers/x"},
    {"workload": "philosophers/17"},
    {"workload": "philosophers/3+spinlock"},
])
def test_mistyped_fields_are_bad_requests(spec):
    with pytest.raises(BadRequest) as caught:
        RunSpec.from_dict(dict(spec)).validate()
    assert caught.value.status == 400


def test_philosophers_table_sizes_are_capped_at_sixteen():
    for name in ("philosophers/2", "philosophers/16",
                 "philosophers/16+trylock"):
        RunSpec(name).validate()
    with pytest.raises(BadRequest, match="between 2 and 16"):
        RunSpec("philosophers/17+trylock").validate()


def test_philosophers_reject_params():
    with pytest.raises(BadRequest, match="only accepted for the nginx"):
        build_mvee(RunSpec("philosophers/3", params={"meals": 1}))


@pytest.mark.parametrize("workload", ["nginx", "philosophers/3"])
def test_checkpoint_resync_without_native_baseline_needs_a_cadence(
        workload):
    spec = RunSpec(workload, variants=3, policy="restart",
                   resync_mode="checkpoint", faults="crash@v1:3")
    with pytest.raises(BadRequest, match="checkpoint cadence"):
        run_spec_cell(spec)
    # An explicit cadence, or explicitly none, still builds.
    assert build_mvee(spec, checkpoints=50_000.0)[0].checkpointer
    assert build_mvee(spec, checkpoints=False)[0].checkpointer is None


def test_default_spec_keys_are_unchanged():
    """Fields at their defaults stay off the wire, so journals, decision
    log headers, memo keys and digests written before ``diversity`` and
    ``deadlock_detect`` existed stay byte-identical."""
    assert set(RunSpec("fft").to_dict()) == {
        "workload", "agent", "variants", "seed", "scale", "faults",
        "fault_seed", "policy", "watchdog", "race_detect", "resync_mode",
        "params"}


@pytest.mark.parametrize("fields", [
    {"diversity": True}, {"deadlock_detect": True},
    {"diversity": True, "deadlock_detect": True}])
def test_new_fields_round_trip(fields):
    spec = RunSpec("philosophers/4+trylock", **fields)
    data = spec.to_dict()
    assert {name: data[name] for name in fields} == fields
    assert RunSpec.from_dict(data) == spec


def test_mistyped_fields_are_refused_over_the_wire():
    daemon = ServeDaemon(ServeConfig(port=0))
    daemon.start()
    try:
        with ServeClient(*daemon.address) as client:
            for spec in MISTYPED:
                with pytest.raises(BadRequest) as caught:
                    client.create(dict(spec))
                assert caught.value.status == 400
            assert client.status()["active"] == 0
    finally:
        daemon.stop()


def _sweep_grid():
    run_benchmark_grid(benchmarks=["fft"], agents=("total_order",),
                       variant_counts=(3,), scale=0.05)


def _sweep_bench_matrix():
    run_cells(bench_tasks(build_matrix(quick=True)))


def _sweep_profile():
    run_profiles("fft", ("partial_order",), scale=0.05)


def _sweep_race_sweep():
    # nginx/bare first: a twin with the instrument and costs keywords.
    run_race_sweep(benchmarks=(), seed=2)


def _sweep_fault_matrix():
    run_fault_matrix(benchmark="fft", kinds=("crash",),
                     policies=("restart",), scale=0.05,
                     resync_mode="checkpoint", checkpoint_every=20_000.0)


def _sweep_serve_batch():
    daemon = ServeDaemon(ServeConfig(port=0))   # jobs=0: inline executor
    created = daemon.handle({"op": "create", "spec": {
        "workload": "dedup", "scale": 0.05, "seed": 5,
        "faults": "crash@v1:3", "policy": "quarantine"}})
    daemon.handle({"op": "run", "id": created["id"]})


def _sweep_deadlock():
    run_deadlock_sweep(sizes=(3,))


#: One small run of every spec-shaped sweep family; each runs its cells
#: inline through the engine.
FAMILIES = {
    "grid": _sweep_grid,
    "bench matrix": _sweep_bench_matrix,
    "profile": _sweep_profile,
    "race sweep": _sweep_race_sweep,
    "fault matrix": _sweep_fault_matrix,
    "serve batch": _sweep_serve_batch,
    "deadlock sweep": _sweep_deadlock,
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_sweep_cell_rebuilds_from_its_record(monkeypatch, family):
    """A sweep cell is rerunnable from its record alone: the spec and
    build keywords it carries rebuild the same run."""
    executed = []
    real_execute_cell = engine.execute_cell

    def capturing_execute_cell(task, trace_dir):
        result = real_execute_cell(task, trace_dir)
        executed.append((task, result))
        return result

    monkeypatch.setattr(engine, "execute_cell", capturing_execute_cell)
    reset_caches()
    FAMILIES[family]()
    task, result = executed[0]
    assert task.fn is run_spec_cell and result.ok, result.error
    # A race-sweep cell runs its two twins and returns both records.
    records = (result.value if isinstance(result.value, list)
               else [result.value])
    for record in records:
        mvee, _ = build_mvee(record.spec, **record.build_keywords)
        outcome = mvee.run()
        assert (outcome.verdict, outcome.cycles) == (record.verdict,
                                                     record.cycles)
