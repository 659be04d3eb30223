"""The DecisionLog: an append-only JSONL decision stream with a digest.

Format (``format_version`` 1) — one canonical JSON object per line:

* header ``{"k": "hdr", "format": 1, "spec": {...}, "meta": {...}}`` —
  ``spec`` is the JSON-safe session spec the run was built from (enough
  to rebuild the MVEE; see :class:`repro.run.RunSpec`);
* decision records, in commit order, each stamped with the step index
  ``"i"`` at which it was taken:

  - ``{"k": "rng", "m": METHOD, "v": VALUE}`` — a scheduler RNG draw
    (``pick``'s randrange, ``quantum_scale``/jitter's uniform);
  - ``{"k": "sync", "t": THREAD, "o": OP, "s": SITE, "v": VALUE}`` —
    a master sync-op grant;
  - ``{"k": "sys", "t": THREAD, "n": NAME, "r": REPR}`` — a master
    syscall result (repr'd: results may be tuples/objects);
  - ``{"k": "wake", "a": ADDR, "w": [THREADS]}`` — a master futex wake
    choice (which sleepers the kernel picked);

* footer ``{"k": "end", ...}`` with the run outcome (verdict, cycles,
  obs digest, steps) and the log's own canonical digest.

The digest is sha256 over the canonical header + record lines (footer
excluded — it *carries* the digest), so it is stable under re-
serialization: load + write round-trips byte-identically.  JSON floats
round-trip exactly in Python, so replayed jitter draws are bit-equal.

Loading goes through :func:`repro.logio.read_jsonl` with
``on_bad="error"``: a torn final record (crash mid-append) is dropped
and tolerated, interior corruption is not.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.errors import ReplayError
from repro.logio import JsonlCorruption, read_jsonl

FORMAT_VERSION = 1

#: Decision record kinds, for validation.
RECORD_KINDS = ("rng", "sync", "sys", "wake")


def canonical_line(record: dict) -> str:
    """The one serialization the digest is defined over."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class DecisionLog:
    """An in-memory decision stream (header spec + records + footer)."""

    def __init__(self, spec: dict | None = None,
                 meta: dict | None = None):
        self.spec = dict(spec) if spec else None
        self.meta = dict(meta) if meta else {}
        self.records: list[dict] = []
        self.footer: dict | None = None

    def append(self, record: dict) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def header_dict(self) -> dict:
        header = {"k": "hdr", "format": FORMAT_VERSION}
        if self.spec is not None:
            header["spec"] = self.spec
        if self.meta:
            header["meta"] = self.meta
        return header

    def digest(self) -> str:
        """``sha256:`` over canonical header + record lines."""
        hasher = hashlib.sha256()
        hasher.update(canonical_line(self.header_dict()).encode())
        hasher.update(b"\n")
        for record in self.records:
            hasher.update(canonical_line(record).encode())
            hasher.update(b"\n")
        return "sha256:" + hasher.hexdigest()

    def seal(self, **outcome) -> dict:
        """Attach the end record (outcome + digest); returns it."""
        self.footer = {"k": "end", "steps_logged": len(self.records),
                       "digest": self.digest(), **outcome}
        return self.footer

    def to_lines(self) -> list[str]:
        lines = [canonical_line(self.header_dict())]
        lines += [canonical_line(record) for record in self.records]
        if self.footer is not None:
            lines.append(canonical_line(self.footer))
        return lines

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for line in self.to_lines():
                handle.write(line)
                handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())

    @classmethod
    def load(cls, path: str) -> "DecisionLog":
        """Load a log, tolerating only a torn final record."""
        try:
            page = read_jsonl(path, on_bad="error")
        except JsonlCorruption as exc:
            raise ReplayError(f"decision log is corrupt: {exc}") from exc
        if not page.records:
            raise ReplayError(f"decision log {path!r} is empty"
                              + (" (only a torn record)"
                                 if page.torn_tail else ""))
        header = page.records[0]
        if not isinstance(header, dict) or header.get("k") != "hdr":
            raise ReplayError(f"{path!r} is not a decision log "
                              "(missing 'hdr' first record)")
        if header.get("format") != FORMAT_VERSION:
            raise ReplayError(
                f"{path!r} has decision-log format "
                f"{header.get('format')!r}; this build reads "
                f"{FORMAT_VERSION}")
        log = cls(spec=header.get("spec"), meta=header.get("meta"))
        for index, record in enumerate(page.records[1:], start=2):
            if not isinstance(record, dict) or "k" not in record:
                raise ReplayError(f"{path}: line {index} is not a "
                                  "decision record")
            if record["k"] == "end":
                log.footer = record
                continue
            if record["k"] not in RECORD_KINDS:
                raise ReplayError(f"{path}: line {index} has unknown "
                                  f"record kind {record['k']!r}")
            log.records.append(record)
        return log


class DecisionLogWriter:
    """Incremental writer: stream a recording log to disk as it grows.

    ``flush`` appends the records the recorder produced since the last
    flush; the file is always header + a record prefix (+ footer after
    :meth:`close`), so a crash leaves at worst a torn final line —
    exactly what :meth:`DecisionLog.load` tolerates.
    """

    def __init__(self, path: str, log: DecisionLog,
                 start_fresh: bool = True):
        self.path = path
        self.log = log
        self._written = 0
        if start_fresh:
            self._handle = open(path, "w")
            self._emit(log.header_dict())
        else:  # pragma: no cover - reserved for append-reopen
            self._handle = open(path, "a")
            self._written = len(log.records)
        self.flush()

    def _emit(self, record: dict) -> None:
        self._handle.write(canonical_line(record))
        self._handle.write("\n")

    def flush(self) -> None:
        while self._written < len(self.log.records):
            self._emit(self.log.records[self._written])
            self._written += 1
        self._handle.flush()

    def close(self, **outcome) -> dict | None:
        """Flush, seal with the run outcome, and close the file."""
        if self._handle.closed:
            return self.log.footer
        self.flush()
        footer = self.log.seal(**outcome)
        self._emit(footer)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        return footer

    def abandon(self) -> None:
        """Close the handle without sealing (recovery takes over)."""
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()
