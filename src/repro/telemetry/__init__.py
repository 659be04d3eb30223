"""Host-level observability for the serve/par stack.

``repro.obs`` observes the *guest*: every trace event is stamped in
simulated cycles inside one machine, and its digest is the byte-identity
anchor for the whole repo.  This package observes the *host* — the
daemon, its sessions, and the pool workers that execute them — and is
built around one non-negotiable contract:

    **telemetry never reads the machine clock.**

Spans and metrics are stamped exclusively with host monotonic time
(:func:`time.monotonic_ns`, :func:`time.perf_counter`), so attaching
telemetry cannot move a simulated cycle, change a verdict, or perturb
any sweep digest (pinned by ``tests/test_determinism.py``).

Four pieces:

* **context + spans** (:mod:`~repro.telemetry.context`,
  :mod:`~repro.telemetry.spans`) — a ``trace_id``/``span_id`` context
  created at CLI entry points and serve requests, propagated through
  the JSON-lines protocol, :class:`~repro.run.RunSpec`,
  and :class:`~repro.par.cells.CellTask` envelopes into pool workers;
  per-process span logs merge into one Chrome ``trace_event`` file.
* **host metrics** (:mod:`~repro.telemetry.hostmetrics`,
  :mod:`~repro.telemetry.prometheus`) — a process-wide
  :class:`~repro.obs.metrics.MetricsRegistry` of host counters/gauges/
  histograms with a Prometheus text-format renderer, served by the
  daemon's ``metrics`` op and ``repro telemetry dump``.
* **live view** (:mod:`~repro.telemetry.top`) — ``repro top`` polls
  ``serve status`` + ``metrics`` into a refreshing terminal table.
* **overhead gate** (:mod:`~repro.telemetry.overhead`) — telemetry
  measures its own host cost into the BENCH v2 report's
  ``observability_overhead`` block; a perturbed cell digest fails the
  report.

See ``docs/TELEMETRY.md``.
"""
