"""Shared pieces: checkout paths, process accounting, statistics, digests."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

#: Checkout root: the directory holding ``src/`` and ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark writes goes here (ignored by git).
OUT_DIR = ROOT / ".perfbench_out"
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def use_checkout_sources() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` and make sure
    ``repro`` is imported from there, not from anywhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {SRC}")
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: repro imported from {origin}, "
                         f"not from {SRC}")


def child_env() -> dict:
    """Environment for benchmark subprocesses: checkout sources on the
    path, the built-in host telemetry off."""
    env = dict(os.environ)
    env.pop("REPRO_TELEMETRY_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    return env


def host_info() -> dict:
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform()}


# -- processes --------------------------------------------------------------


def _read_stat(pid: int) -> tuple[int, float] | None:
    """(parent pid, CPU seconds) of a live process, or None."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    fields = text[text.rindex(")") + 2:].split()
    # fields[0] is field 3 of proc(5): state, ppid, ..., utime, stime.
    return int(fields[1]), (int(fields[11]) + int(fields[12])) / _CLK_TCK


def _read_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def process_tree() -> list[int]:
    """This process and every live descendant.

    Read from ``/proc`` so pool workers that are alive but never reaped
    count too, which ``RUSAGE_CHILDREN`` would miss.
    """
    root = os.getpid()
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        stat = _read_stat(int(entry))
        if stat is not None:
            children.setdefault(stat[0], []).append(int(entry))
    tree, frontier = [root], [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, ()):
            tree.append(child)
            frontier.append(child)
    return tree


def cpu_snapshot() -> dict[int, float]:
    """CPU seconds per live process of this benchmark's tree."""
    snapshot = {}
    for pid in process_tree():
        stat = _read_stat(pid)
        if stat is not None:
            snapshot[pid] = stat[1]
    return snapshot


def cpu_between(before: dict[int, float], after: dict[int, float]) -> float:
    """CPU seconds spent between two snapshots by processes alive at the
    second one (a process born in between counts from zero)."""
    return sum(cpu - before.get(pid, 0.0) for pid, cpu in after.items())


def peak_rss_mb() -> float:
    """Sum of the peak resident sizes of every live process of the tree."""
    return sum(_read_hwm_kb(pid) for pid in process_tree()) / 1024.0


def wait_or_kill(proc: subprocess.Popen, timeout: float) -> None:
    """Wait for a subprocess; kill it if it outlives ``timeout``."""
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=30)


# -- statistics -------------------------------------------------------------

#: Percentiles the tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (not necessarily sorted)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it): the highest percentile
    with at least ten samples beyond it (the median when none has)."""
    count = len(values)
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100.0 * count))
        if count - rank >= 10:
            return pct, percentile(values, pct), count - rank
    return 50.0, percentile(values, 50.0), count - math.ceil(count / 2)


def window_tail(values: list[float], window: int) -> tuple[float, float, int]:
    """(percentile, value, windows): the :func:`tail` of each run of
    ``window`` consecutive values, and the median of those tails.
    Values after the last whole window are left out."""
    tails = [tail(values[start:start + window])
             for start in range(0, len(values) - window + 1, window)]
    return tails[0][0], median([value for _, value, _ in tails]), len(tails)


def median(values: list[float]) -> float:
    return statistics.median(values)


# -- inputs and outputs ----------------------------------------------------


def derive_seed(workload: str, seed: int, index: int) -> int:
    """Simulation seed of input ``index`` of a workload run under
    ``seed``; computed here so the program only sees generated inputs."""
    material = f"perfbench/{workload}/{seed}/{index}".encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:4], "big")


def outcome_record(verdict: str, cycles: float, sync_ops, syscalls) -> list:
    """The simulated quantities a digest covers, for one cell/session."""
    return [verdict, repr(float(cycles)), int(sync_ops or 0),
            int(syscalls or 0)]


#: Simulated cores of every ``run_mvee`` cell.
CORES = 16
#: Slice scale of the closed loops' warm-up cells: enough to run every
#: code path of a cell once, a few hundredths of a second each.
WARM_SCALE = 0.02
#: Sweep id of warm-up cells; the traced run leaves them out of its spans.
WARM_UP = "perfbench.warm-up"


def mvee_cell(spec: dict) -> list:
    """One fresh ``run_mvee`` simulation of a cell spec (benchmark,
    scale, agent, variants, seed); returns its digest record.

    Cells of both closed-loop workloads call this directly, never the
    memoized ``run_one``, so every rep re-simulates.
    """
    from repro.core.mvee import run_mvee
    from repro.workloads.synthetic import make_benchmark

    outcome = run_mvee(make_benchmark(spec["benchmark"], scale=spec["scale"]),
                       variants=spec["variants"], agent=spec["agent"],
                       seed=spec["seed"], cores=CORES)
    report = outcome.report
    return outcome_record(
        outcome.verdict, outcome.cycles,
        report.total_sync_ops if report else 0,
        report.total_syscalls if report else 0)


def digest(records: list) -> str:
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()[:32]


def expected_digest(workload: str, seed: int) -> tuple[str, str]:
    """(digest, source) a run of ``workload`` under ``seed`` must match.

    The source is ``recorded`` for a seed in ``expected.json``.  Any
    other seed gets a reference computed now by ``make_expected.py`` in
    a fresh interpreter, serially and in-process (no pool, no daemon):
    source ``computed``.  That reference checks the timed path against
    the serial one, but not against a value recorded before the change
    under test.
    """
    with open(EXPECTED_PATH) as handle:
        recorded = json.load(handle).get(workload, {}).get(str(seed))
    if recorded is not None:
        return recorded, "recorded"
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent
                             / "make_expected.py"),
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, cwd=ROOT, env=child_env(),
        timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"reference digest of {workload} seed {seed} "
                           f"failed: {proc.stderr.strip()}")
    return proc.stdout.split()[-1], "computed"


def check_digest(run: dict, workload: str, seed: int) -> list[str]:
    """Compare ``run["digest"]`` with the reference for ``seed``; records
    the reference and where it came from in ``run``."""
    expected, source = expected_digest(workload, seed)
    run["expected_digest"], run["expected_source"] = expected, source
    if expected != run["digest"]:
        return [f"digest {run['digest']} != {source} reference {expected}"]
    return []
