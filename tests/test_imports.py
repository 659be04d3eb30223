"""Import graph: every process loads only what it runs.

Package ``__init__`` files hold no imports, so a short-lived client or
the CLI never pays for the simulator, and every package and entry
module must import on its own (a cycle that an eager ``__init__`` used
to hide fails here).  A process that forks imports what its workers
run first, so no worker compiles a module itself and no handler thread
takes the import lock after the pool has forked.

Each check runs in a fresh interpreter: the test process has long since
imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC).parts)
    for init in (SRC / "repro").rglob("__init__.py"))

ENTRY_MODULES = ("repro.cli", "repro.serve.client", "repro.serve.daemon",
                 "repro.run", "repro.core.mvee", "repro.par.engine")

#: The ``repro`` modules an interpreter has loaded, sorted.
_LOADED = ("sorted(name for name in sys.modules "
           "if name == 'repro' or name.startswith('repro.'))")


def _python(code: str) -> str:
    """Run ``code`` in a fresh interpreter; return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_by(statement: str) -> list[str]:
    return json.loads(_python(f"import json, sys\n{statement}\n"
                              f"print(json.dumps({_LOADED}))\n"))


@pytest.mark.parametrize("module", PACKAGES + list(ENTRY_MODULES))
def test_imports_alone(module):
    assert module in _loaded_by(f"import {module}")


def test_package_inits_hold_no_imports():
    # repro.obs and repro.core.agents keep what they define themselves
    # (ObsHub, AGENT_REGISTRY); those imports serve the definitions.
    defining = {"repro.obs", "repro.core.agents"}
    for package in set(PACKAGES) - defining:
        init = SRC.joinpath(*package.split("."), "__init__.py")
        lines = init.read_text().splitlines()
        imports = [line for line in lines
                   if line.startswith(("import ", "from "))]
        assert imports == [], f"{package}: {imports}"


def test_serve_client_loads_only_the_protocol():
    assert _loaded_by("import repro.serve.client") == [
        "repro", "repro.errors", "repro.serve", "repro.serve.client",
        "repro.serve.protocol"]


def test_cli_loads_no_simulator():
    loaded = _loaded_by("import repro.cli\nrepro.cli.build_parser()")
    simulator = [name for name in loaded
                 if name.startswith(("repro.sched", "repro.core",
                                     "repro.kernel"))]
    assert simulator == []
    # The --env choices come without the pool or multiprocessing.
    assert "repro.par.pool" not in loaded
    assert _python("import sys, repro.cli\n"
                   "repro.cli.build_parser()\n"
                   "print('multiprocessing' in sys.modules)\n") == "False\n"


def test_pool_forks_with_the_simulator_loaded():
    """The pool loads ``repro.run`` before its first fork, and a worker
    that has run a cell has imported nothing its parent had not."""
    out = _python(f"""
        import json, sys

        from repro.par.cells import CellTask
        from repro.par.pool import WorkerPool
        from repro.par.runners.process import ProcessRunner

        def loaded():
            return {_LOADED}

        pool = WorkerPool(1)
        assert "repro.run" not in sys.modules
        pool.worker(0)
        at_fork = set(loaded())
        from repro.run import run_spec_cell

        tasks = [CellTask("probe", 0, run_spec_cell,
                          {{"spec": {{"workload": "fft", "scale": 0.02}}}}),
                 CellTask("probe", 1, loaded)]
        results = ProcessRunner(pool).run(tasks, None)
        pool.shutdown()
        assert all(result.ok for result in results), results
        print(json.dumps({{"at_fork": sorted(at_fork),
                          "worker": results[1].value}}))
        """)
    seen = json.loads(out)
    assert "repro.run" in seen["at_fork"]
    assert sorted(set(seen["worker"]) - set(seen["at_fork"])) == []


def test_daemon_imports_everything_before_its_pool_forks():
    """A fork taken while another thread holds an import lock wedges
    the child, so no op a daemon serves may import a ``repro`` module
    for the first time after its executor forked."""
    out = _python(f"""
        import json, sys

        from repro.serve.daemon import ServeConfig, ServeDaemon

        def loaded():
            return {_LOADED}

        daemon = ServeDaemon(ServeConfig(jobs=1))
        assert daemon.executor.stats()["pool"]["alive"] == 1
        at_fork = set(loaded())
        batch_spec = {{"workload": "fft", "scale": 0.02, "seed": 3}}
        # Both detectors on, and a run that ends in a captured bundle.
        stepped_spec = {{"workload": "philosophers/3", "race_detect": True,
                        "deadlock_detect": True}}
        try:
            batch = daemon.handle({{"op": "create",
                                   "spec": batch_spec}})["id"]
            run = daemon.handle({{"op": "run", "id": batch}})
            assert run["done"], run
            stepped = daemon.handle({{"op": "create",
                                     "spec": stepped_spec}})["id"]
            while True:
                step = daemon.handle({{"op": "step", "id": stepped,
                                      "max_events": 5000}})
                if step["done"]:
                    break
            assert step["result"]["verdict"] == "deadlock", step
            daemon.handle({{"op": "metrics", "id": stepped}})
            daemon.handle({{"op": "metrics"}})
            daemon.handle({{"op": "status"}})
            daemon.handle({{"op": "workloads"}})
            daemon.handle({{"op": "close", "id": batch}})
        finally:
            daemon.stop()
        print(json.dumps(sorted(set(loaded()) - at_fork)))
        """)
    assert json.loads(out) == []
