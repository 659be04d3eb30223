"""Host-time benchmark of the simulated MVEE, end to end and per layer.

``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
runs one workload from a source checkout (``src/`` beside this
directory) and prints, as its last stdout line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of an untraced run; ``--trace 1`` makes a
separate traced run and reports the per-layer metrics.  See ``run.py``
for the metric definitions and ``BENCHMARK.json`` at the repository root
for the bounds.
"""

#: Seed on which every correctness check also passes, kept out of any
#: tuning so later claims can be re-checked on it.
HELD_OUT_SEED = 1009
