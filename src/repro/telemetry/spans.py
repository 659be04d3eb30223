"""Host-time span recording and the multi-process trace merger.

Every participating process (CLI, daemon, forked pool workers) appends
finished spans to its own JSONL file under the telemetry directory —
append + flush per span, so spans survive a daemon kill mid-session
(the recovery tests rely on this).  :func:`merge_host_trace` then folds
all span logs into one Chrome ``trace_event`` file in which the CLI,
the daemon, each session, and each worker process appear as separate
processes, alongside any number of labelled guest (simulated-cycle)
Chrome traces.  It is the repo's one merged-trace writer: ``repro
telemetry merge`` and ``repro bench --trace-dir`` both call it.

Spans are stamped with :func:`time.monotonic_ns` — CLOCK_MONOTONIC is
system-wide on Linux, so spans from different processes on one host
order correctly in the merged view.  The machine clock is never read.

Activation: :func:`configure` (programmatic) or the
``REPRO_TELEMETRY_DIR`` environment variable (inherited by forked
workers).  When neither is set, :func:`span` is a no-op that still
yields a usable :class:`Span`, so instrumented call sites never branch.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager, nullcontext

from repro.telemetry.context import (
    TraceContext,
    current_context,
    new_context,
    use_context,
)

__all__ = [
    "configure",
    "scoped",
    "reset",
    "enabled",
    "telemetry_dir",
    "service_name",
    "span",
    "child_span",
    "Span",
    "merge_host_trace",
]

#: Environment variables the recorder honours (set by ``serve start
#: --telemetry-dir`` so forked pool workers inherit the destination).
ENV_DIR = "REPRO_TELEMETRY_DIR"
ENV_SERVICE = "REPRO_TELEMETRY_SERVICE"

#: Synthetic pid offset for guest trace events in a merged file, so
#: guest variants never collide with host track pids: guest ``i``
#: (0-based) owns pids from ``GUEST_PID_BASE * (i + 1)``.
GUEST_PID_BASE = 1000

_lock = threading.Lock()
_config: dict = {"dir": None, "service": None, "explicit": False}
_handle = None
_handle_key: tuple | None = None


def configure(directory: str | None, service: str | None = None) -> None:
    """Point the recorder at ``directory`` (``None`` disables).

    ``service`` names this process's track in the merged trace
    ("cli", "daemon", "worker", ...); spans may override it per call.
    """
    global _handle, _handle_key
    with _lock:
        _config["dir"] = directory
        _config["service"] = service or _config["service"] or "host"
        _config["explicit"] = True
        if _handle is not None:
            try:
                _handle.close()
            except OSError:
                pass
        _handle = None
        _handle_key = None


def reset() -> None:
    """Forget all configuration (tests)."""
    global _handle, _handle_key
    with _lock:
        _config["dir"] = None
        _config["service"] = None
        _config["explicit"] = False
        if _handle is not None:
            try:
                _handle.close()
            except OSError:
                pass
        _handle = None
        _handle_key = None


@contextmanager
def scoped(directory: str | None, service: str | None = None):
    """Temporarily configure the recorder, restoring the previous
    configuration (and handle) on exit — the overhead self-measurement
    and the tests both need on/off arms inside one process."""
    saved = dict(_config)
    configure(directory, service)
    try:
        yield
    finally:
        global _handle, _handle_key
        with _lock:
            _config.clear()
            _config.update(saved)
            if _handle is not None:
                try:
                    _handle.close()
                except OSError:
                    pass
            _handle = None
            _handle_key = None


def _effective_dir() -> str | None:
    if _config["explicit"]:
        return _config["dir"]
    return os.environ.get(ENV_DIR) or None


def enabled() -> bool:
    return _effective_dir() is not None


def telemetry_dir() -> str | None:
    return _effective_dir()


def service_name() -> str:
    if _config["explicit"] and _config["service"]:
        return _config["service"]
    return os.environ.get(ENV_SERVICE) or _config["service"] or "host"


def _safe(name: str) -> str:
    return "".join(ch if (ch.isalnum() or ch in "-_") else "_"
                   for ch in name)


def _write(record: dict, service: str) -> None:
    """Append one span line to this process's log for ``service``.

    The handle is keyed by (pid, service): a forked worker inheriting
    the parent's open handle reopens its own file on first write, and a
    daemon that records both "daemon" and "session" spans keeps one
    file per service.
    """
    global _handle, _handle_key
    directory = _effective_dir()
    if directory is None:
        return
    key = (os.getpid(), service, directory)
    line = json.dumps(record, sort_keys=True)
    with _lock:
        if _handle is None or _handle_key != key:
            if _handle is not None:
                try:
                    _handle.close()
                except OSError:
                    pass
            os.makedirs(directory, exist_ok=True)
            path = os.path.join(
                directory,
                f"spans-{_safe(service)}-{os.getpid()}.jsonl")
            _handle = open(path, "a")
            _handle_key = key
        try:
            _handle.write(line + "\n")
            _handle.flush()
        except OSError:
            pass


class Span:
    """A live span: mutate ``attrs`` inside the ``with`` block to
    annotate it (e.g. ``s.attrs["resumed"] = True``)."""

    __slots__ = ("name", "ctx", "service", "track", "attrs", "start_ns")

    def __init__(self, name: str, ctx: TraceContext, service: str,
                 track: str | None, attrs: dict):
        self.name = name
        self.ctx = ctx
        self.service = service
        self.track = track
        self.attrs = attrs
        self.start_ns = 0


@contextmanager
def span(name: str, ctx: TraceContext | None = None,
         service: str | None = None, track: str | None = None,
         **attrs):
    """Record one host-time span around the block.

    The span's context is ``ctx`` (verbatim — pass ``parent.child()``
    to descend) or a child of the thread's current context, or a fresh
    root; it is installed as the current context for the duration so
    nested spans and outgoing requests parent correctly.  Disabled
    telemetry still yields a :class:`Span` (with a context) but writes
    nothing.
    """
    if ctx is None:
        parent = current_context()
        ctx = parent.child() if parent is not None else new_context()
    svc = service or service_name()
    live = Span(name, ctx, svc, track, dict(attrs))
    if not enabled():
        with use_context(ctx):
            yield live
        return
    live.start_ns = time.monotonic_ns()
    try:
        with use_context(ctx):
            yield live
    finally:
        end_ns = time.monotonic_ns()
        record = {
            "trace": ctx.trace_id,
            "span": ctx.span_id,
            "parent": ctx.parent_id,
            "name": live.name,
            "service": svc,
            "track": live.track or f"{svc} {os.getpid()}",
            "pid": os.getpid(),
            "tid": threading.get_ident() % 100000,
            "start_ns": live.start_ns,
            "dur_ns": end_ns - live.start_ns,
        }
        if live.attrs:
            record["attrs"] = live.attrs
        _write(record, svc)


def child_span(name: str, wire: dict | None, **fields):
    """A :func:`span` that descends from the wire trace context
    ``wire`` (a spec's or a cell task's ``trace`` field), or a no-op
    that yields ``None`` when there is no context or telemetry is off.
    ``fields`` are :func:`span`'s ``service``, ``track`` and attributes.
    """
    if wire is None or not enabled():
        return nullcontext()
    parent = TraceContext.from_dict(wire)
    return span(name, ctx=parent.child() if parent is not None else None,
                **fields)


# -- merging ----------------------------------------------------------------


def read_spans(directory: str) -> list[dict]:
    """All span records under ``directory``, torn-tail tolerant,
    ordered by host start time."""
    from repro.logio import read_jsonl

    spans: list[dict] = []
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return spans
    for name in names:
        if not (name.startswith("spans-") and name.endswith(".jsonl")):
            continue
        result = read_jsonl(os.path.join(directory, name))
        for record in result.records:
            if isinstance(record, dict) and "start_ns" in record:
                spans.append(record)
    spans.sort(key=lambda r: (r.get("start_ns", 0),
                              r.get("span", "")))
    return spans


def _load_guest_events(label: str, path: str, base: int) -> list[dict]:
    with open(path) as handle:
        data = json.load(handle)
    events = data.get("traceEvents", data) if isinstance(data, dict) \
        else data
    if not isinstance(events, list):
        raise ValueError(f"{path!r} is not a Chrome trace file")
    shifted = []
    for event in events:
        if not isinstance(event, dict):
            continue
        event = dict(event)
        event["pid"] = base + int(event.get("pid", 0) or 0)
        if (event.get("ph") == "M"
                and event.get("name") == "process_name"):
            args = dict(event.get("args") or {})
            args["name"] = f"{label}: {args.get('name', 'variant')}"
            event["args"] = args
        shifted.append(event)
    return shifted


def merge_host_trace(directory: str, out_path: str,
                     guests=()) -> dict:
    """Merge every span log under ``directory`` and the guest Chrome
    traces ``guests`` into one Chrome ``trace_event`` file at
    ``out_path``.

    Each distinct span *track* ("cli", "daemon", "session <id>",
    "worker <pid>") becomes its own process in the Chrome view, with
    host timestamps rebased so the earliest span starts at t=0.
    ``guests`` is a sequence of ``(label, path)`` pairs; each guest's
    simulated-cycle events ride along in their own pid block at or
    above :data:`GUEST_PID_BASE`, their process names prefixed with the
    label (``cell 3: variant 0 (master)``).  Their timeline is
    simulated microseconds — a different clock, kept for side-by-side
    reading.

    Returns ``{"spans", "tracks", "events", "out"}``.
    """
    spans = read_spans(directory)
    tracks: dict[str, int] = {}
    for record in spans:
        track = record.get("track") or "host"
        if track not in tracks:
            tracks[track] = len(tracks) + 1
    base_ns = min((r["start_ns"] for r in spans), default=0)
    events: list[dict] = []
    for track, pid in tracks.items():
        events.append({"ph": "M", "pid": pid, "tid": 0,
                       "name": "process_name",
                       "args": {"name": track}})
    for record in spans:
        pid = tracks[record.get("track") or "host"]
        args = {"trace": record.get("trace"),
                "span": record.get("span"),
                "parent": record.get("parent"),
                "service": record.get("service")}
        args.update(record.get("attrs") or {})
        events.append({
            "ph": "X",
            "pid": pid,
            "tid": record.get("tid", 0),
            "name": record.get("name", "?"),
            "ts": (record["start_ns"] - base_ns) / 1000.0,
            "dur": max(record.get("dur_ns", 0) / 1000.0, 0.001),
            "args": args,
        })
    for block, (label, path) in enumerate(guests, start=1):
        events.extend(_load_guest_events(label, path,
                                         GUEST_PID_BASE * block))
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    with open(out_path, "w") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")
    return {"spans": len(spans), "tracks": len(tracks),
            "events": len(events), "out": out_path}
