"""One run spec, one builder: every front end builds the same MVEE.

``repro run``, ``repro run --record``, the serve batch path
(``single_shot``) and a stepped serve ``Session`` all turn a
:class:`repro.run.RunSpec` into an MVEE through
:func:`repro.run.build_mvee`, so they must agree on the verdict and the
cycle count for the same spec.  The specs cover the two decisions that
used to live in several copies: the ``native/64`` checkpoint default
under ``resync_mode="checkpoint"`` and the nginx sizing.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import BadRequest
from repro.experiments.serve_load import single_shot
from repro.replay import DecisionLog
from repro.run import RunSpec
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
])
def test_mistyped_fields_are_bad_requests(spec):
    with pytest.raises(BadRequest) as caught:
        RunSpec.from_dict(dict(spec)).validate()
    assert caught.value.status == 400


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
