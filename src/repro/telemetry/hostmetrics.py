"""The process-wide host metrics registry.

Reuses the counter/gauge/histogram classes from
:mod:`repro.obs.metrics` — the same deterministic-snapshot machinery
that serves the guest — but holds *host* quantities: pool spawns and
respawns, queue depth, session admission, daemon ops and their
latency.  One registry per process, guarded by a
lock (the daemon's handler threads write concurrently).

Two feeding disciplines:

* **event-time** — cheap increments at the site of the event
  (:func:`inc`, :func:`observe_seconds`): daemon ops and op latency.
* **scrape-time** — cumulative counters that already live somewhere
  authoritative (the :class:`~repro.par.pool.WorkerPool`'s amortisation
  counters, the session registry) are *published*
  into the registry when it is rendered
  (:func:`publish_pool_stats` & co).  The pool's own counters stay the
  single source of truth: ``serve status`` and the ``metrics`` op both
  read them, so the two surfaces can never disagree.
"""

from __future__ import annotations

import threading

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "LATENCY_BUCKETS_S",
    "host_registry",
    "reset_host_metrics",
    "inc",
    "set_gauge",
    "observe_seconds",
    "publish_pool_stats",
    "publish_executor_stats",
    "publish_serve_status",
    "host_snapshot",
]

#: Bucket bounds (seconds) for host latency histograms: log-spaced from
#: "one dict lookup" to "something is wedged".
LATENCY_BUCKETS_S = (
    0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03,
    0.1, 0.3, 1.0, 3.0, 10.0,
)

_lock = threading.Lock()
_registry = MetricsRegistry()


def host_registry() -> MetricsRegistry:
    """This process's host registry (shared, long-lived)."""
    return _registry


def reset_host_metrics() -> None:
    """Drop every host metric (tests)."""
    global _registry
    with _lock:
        _registry = MetricsRegistry()


def inc(name: str, amount: int = 1) -> None:
    with _lock:
        _registry.counter(name).inc(amount)


def set_gauge(name: str, value: float) -> None:
    with _lock:
        _registry.gauge(name).set(float(value))


def observe_seconds(name: str, seconds: float) -> None:
    with _lock:
        _registry.histogram(name, LATENCY_BUCKETS_S).observe(
            float(seconds))


def _set_counter(name: str, value) -> None:
    """Publish a cumulative count owned elsewhere.

    The source (pool, registry) is monotonic; publishing
    advances our counter to match, never backwards — a freshly reset
    source (new pool) leaves the high-water value in place rather than
    fabricating a negative increment.
    """
    counter = _registry.counter(name)
    value = int(value or 0)
    if value > counter.value:
        counter.inc(value - counter.value)


def publish_pool_stats(stats: dict | None) -> None:
    """Mirror :meth:`repro.par.pool.WorkerPool.stats` into the host
    registry."""
    if not stats:
        return
    with _lock:
        for key in ("spawned", "respawns", "stall_kills", "tasks",
                    "batches"):
            if key in stats:
                _set_counter(f"host.pool.{key}", stats[key])
        for key in ("size", "alive"):
            if key in stats:
                _registry.gauge(f"host.pool.{key}").set(
                    float(stats[key] or 0))


def publish_executor_stats(stats: dict | None) -> None:
    """Mirror a :class:`~repro.par.engine.CellExecutor` stats block:
    ticket counts, queue depth, and the nested pool stats."""
    if not stats:
        return
    with _lock:
        for key in ("submitted", "completed"):
            if key in stats:
                _set_counter(f"host.executor.{key}", stats[key])
        for key in ("in_flight", "queued", "jobs"):
            if key in stats:
                _registry.gauge(f"host.executor.{key}").set(
                    float(stats[key] or 0))
    if isinstance(stats.get("pool"), dict):
        publish_pool_stats(stats["pool"])


def publish_serve_status(status: dict | None) -> None:
    """Mirror the session registry's admission counters and per-state
    session gauges from a ``serve status``-shaped dict."""
    if not status:
        return
    with _lock:
        for key in ("created_total", "rejected_total"):
            if key in status:
                _set_counter(f"host.serve.sessions_{key}", status[key])
        for key in ("peak_active", "active"):
            if key in status:
                _registry.gauge(f"host.serve.sessions_{key}").set(
                    float(status[key] or 0))
        by_state = status.get("sessions") or {}
        for state, count in by_state.items():
            _registry.gauge(f"host.serve.sessions_{state}").set(
                float(count or 0))


def host_snapshot() -> dict:
    """Deterministically-ordered snapshot of every host metric."""
    with _lock:
        return _registry.snapshot()
