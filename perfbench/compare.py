"""Compare two sets of benchmark records against the benchmark's bounds.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``<workload>-seed<n>-trace0.json`` records that
``run.py`` writes to ``.perfbench_out``, for example the
``.perfbench_out`` of a base checkout and of a new one.  Run the two
sides interleaved (base, new, base, new, ...) with the same seeds: the
host's speed drifts over minutes, and runs made side by side see the
same drift.

For every workload and end-to-end metric present on both sides it
prints the two medians, the change, its spread and a verdict against
the metric's bound in ``BENCHMARK.json``.  When the sides share at least
``MIN_PAIRS`` seeds, the runs are paired by seed: the change is the
median of the per-seed changes and its spread is theirs, so drift that
hit both runs of a pair cancels.  Otherwise the change is between the
two medians and the spread is the wider of the two sides'.  Spreads are
the distance between the quartiles over the median.

Verdicts: ``ok`` (not worse by more than the bound), ``WORSE``, or
``unresolved`` when the spread is wider than the bound and the runs do
not separate: a spread that wide can hide a change of the bound's size
either way.  Wide runs still give ``WORSE`` when the change passes the
bound and the new side loses at least nine pairs in ten (ties count for
neither), or, unpaired, when every new run is worse than every base
run.  Each paired line shows how many pairs the new side won.
Records from hosts with different ``cpu_count`` are refused: a parallel
workload's figures do not transfer between them.

Exit status: 0 when no metric is WORSE (unresolved ones are listed), 1
when one is, 2 when the records are refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Seeds both sides must share before runs are compared pairwise.
MIN_PAIRS = 3
#: Share of pairs the new side must lose for a wide metric to be WORSE.
LOSS_SHARE = 0.9


def load(directory: str) -> dict:
    """workload -> seed -> untraced record."""
    records: dict[str, dict] = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        with open(path) as handle:
            record = json.load(handle)
        records.setdefault(record["workload"], {})[record["seed"]] = record
    return records


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def worse_by(before: float, after: float, better: str) -> float:
    """Share by which ``after`` is worse than ``before`` (negative when
    it is better)."""
    change = (after - before) / before
    return -change if better == "higher" else change


def verdict(metric: dict, base: dict, new: dict) -> dict:
    """Compare one metric's values (seed -> value) of the two sides."""
    bound, better = metric["bound"], metric["better"]
    seeds = sorted(set(base) & set(new))
    before = statistics.median(base.values())
    after = statistics.median(new.values())
    if len(seeds) >= MIN_PAIRS:
        changes = [worse_by(base[seed], new[seed], better) for seed in seeds]
        change = statistics.median(changes)
        width = spread([1 + value for value in changes])
        losses = sum(value > 0 for value in changes)
        wins = sum(value < 0 for value in changes)
        separated = change > bound and losses >= LOSS_SHARE * len(seeds)
        mode = f"new wins {wins}/{len(seeds)} pairs"
    else:
        change = worse_by(before, after, better)
        width = max(spread(list(base.values())), spread(list(new.values())))
        worst_base = (min if better == "higher" else max)(base.values())
        best_new = (max if better == "higher" else min)(new.values())
        separated = (change > bound
                     and worse_by(worst_base, best_new, better) > 0)
        mode = "unpaired"
    if width > bound:
        outcome = "WORSE" if separated else "unresolved"
    else:
        outcome = "WORSE" if change > bound else "ok"
    return {"before": before, "after": after, "change": change,
            "spread": width, "mode": mode, "verdict": outcome}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        metrics = json.load(handle)["end_to_end"]
    base, new = load(argv[0]), load(argv[1])
    cpu_counts = {record["host"]["cpu_count"]
                  for side in (base, new) for records in side.values()
                  for record in records.values()}
    if len(cpu_counts) > 1:
        print(f"refused: records come from hosts with cpu_count "
              f"{sorted(cpu_counts)}", file=sys.stderr)
        return 2
    counts = {"ok": 0, "WORSE": 0, "unresolved": 0}
    for workload in sorted(set(base) & set(new)):
        print(f"{workload}: {len(base[workload])} base run(s), "
              f"{len(new[workload])} new run(s)")
        for metric in metrics:
            name = metric["name"]
            values = [{seed: record["result"]["metrics"][name]["value"]
                       for seed, record in side[workload].items()}
                      for side in (base, new)]
            result = verdict(metric, *values)
            counts[result["verdict"]] += 1
            print(f"  {name:<16} {result['before']:>12.5g} -> "
                  f"{result['after']:<12.5g} {metric['unit']:<6} worse by "
                  f"{result['change']:+.1%} (bound {metric['bound']:.0%}, "
                  f"spread {result['spread']:.1%}, {result['mode']}) "
                  f"{result['verdict']}")
    print(f"{counts['ok']} ok, {counts['WORSE']} worse, "
          f"{counts['unresolved']} unresolved")
    return 1 if counts["WORSE"] else 0


if __name__ == "__main__":
    sys.exit(main())
