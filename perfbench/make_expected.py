"""Record the expected digest of every workload for a set of seeds.

    python3 perfbench/make_expected.py
    python3 perfbench/make_expected.py --workload W --seed N

The first form writes ``perfbench/expected.json``: workload -> seed ->
digest of the simulated outcomes (verdict, cycles, sync ops, syscalls)
a run checks, for ``SEEDS`` and the held-out seed.  The second prints
the digest of one workload and seed; ``run.py`` uses it as the
reference for a seed the table lacks.  Each seed's cells and sessions
run one after another in one process, not through the sweep's pool
batch or the daemon, so the digests check those paths rather than
repeat them.  Regenerate the table only when a change is meant to move
simulated output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import HELD_OUT_SEED, common  # noqa: E402

SEEDS = range(100)


def digest_of(workload: str, seed: int) -> str:
    from repro.experiments.serve_load import single_shot

    from perfbench import mvee_sync, serve_open, sweep_syscall

    if workload == serve_open.NAME:
        sessions = []
        for index in range(serve_open.DIGEST_SESSIONS):
            result = single_shot(serve_open.spec_for(seed, index))
            sessions.append(common.outcome_record(
                result["verdict"], result["cycles"], result["sync_ops"],
                result["syscalls"]))
        return common.digest(sessions)
    module = {mvee_sync.NAME: mvee_sync,
              sweep_syscall.NAME: sweep_syscall}[workload]
    return common.digest([common.mvee_cell(spec)
                          for spec in module.cells(seed)])


def digests(seed: int) -> dict:
    from perfbench import mvee_sync, serve_open, sweep_syscall

    return {module.NAME: digest_of(module.NAME, seed)
            for module in (mvee_sync, sweep_syscall, serve_open)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    args = parser.parse_args(argv)
    common.use_checkout_sources()
    if args.workload is not None:
        print(digest_of(args.workload, args.seed))
        return 0
    from repro.par.cells import CellTask
    from repro.par.engine import run_cells

    seeds = [*SEEDS, HELD_OUT_SEED]
    tasks = [CellTask(sweep_id="perfbench.expected", index=index,
                      fn=digests, kwargs={"seed": seed})
             for index, seed in enumerate(seeds)]
    table: dict[str, dict] = {}
    for seed, result in zip(seeds, run_cells(tasks, jobs=2, env="process"),
                            strict=True):
        if not result.ok:
            raise SystemExit(f"seed {seed}: {result.error}")
        for workload, digest in result.value.items():
            table.setdefault(workload, {})[str(seed)] = digest
    with open(common.EXPECTED_PATH, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
