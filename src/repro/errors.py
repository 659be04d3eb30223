"""Exception hierarchy for the MVEE reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.

The two most important subtypes mirror the paper's terminology:

* :class:`DivergenceError` — raised by the monitor when the variants'
  externally visible behaviour (system call sequences or arguments) no
  longer matches.  In the paper this is the MVEE's detection signal: it may
  indicate an attack, or — when synchronization agents are disabled — the
  "benign divergence" caused by differing thread schedules (Section 1).
* :class:`GuestFault` — raised when a *guest* program performs an illegal
  operation against its simulated kernel (bad file descriptor, unmapped
  memory, ...).  A fault in one variant but not another also manifests as
  divergence at the monitor level.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """Invalid configuration (bad agent name, nonsensical parameters, ...)."""


class ReplayError(ReproError):
    """A decision log or checkpoint store is missing, malformed, or
    incompatible with the run it is asked to drive — the CLI turns
    these into one-line diagnostics instead of tracebacks."""


class ObsArtifactError(ReproError):
    """An observability artifact (bundle, trace, report) is missing,
    empty, or corrupt — the CLI turns these into one-line diagnostics
    instead of tracebacks."""


class ServeError(ReproError):
    """Base class for ``repro.serve`` request failures.

    Every subclass pins an HTTP-style ``status`` code so the daemon can
    put a machine-readable class on the wire and the client can re-raise
    the *same* typed error on its side (see ``docs/SERVING.md``).
    Admission-control rejections are ordinary, expected responses —
    typed, never hangs — which is why they get their own hierarchy
    instead of ad-hoc strings.
    """

    #: HTTP-style status code (subclasses override).
    status = 500

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        if status is not None:
            self.status = status

    @property
    def code(self) -> str:
        """Wire name of the error class (``"QuotaExceeded"`` ...)."""
        return type(self).__name__


class BadRequest(ServeError):
    """Malformed or unparseable request (HTTP 400 analogue)."""

    status = 400


class SessionNotFound(ServeError):
    """The request names a session the registry does not know (404)."""

    status = 404


class SessionConflict(ServeError):
    """The session exists but is in the wrong state for the op (409)."""

    status = 409


class QuotaExceeded(ServeError):
    """Admission control rejected the request (429): session, cycle, or
    queue quota hit.  Clients are expected to back off and retry."""

    status = 429


class DaemonUnavailable(ServeError):
    """The daemon is shutting down or unreachable (503)."""

    status = 503


#: Wire name -> ServeError class, for client-side re-raising.
SERVE_ERRORS = {cls.__name__: cls for cls in (
    ServeError, BadRequest, SessionNotFound, SessionConflict,
    QuotaExceeded, DaemonUnavailable)}


class GuestFault(ReproError):
    """A guest program performed an illegal operation.

    Attributes
    ----------
    variant:
        Index of the variant in which the fault occurred (``None`` for
        native, single-program executions).
    thread:
        Logical thread identifier of the faulting thread, if known.
    """

    def __init__(self, message: str, variant: int | None = None,
                 thread: str | None = None):
        super().__init__(message)
        self.variant = variant
        self.thread = thread


class SyscallError(GuestFault):
    """A system call failed in a way the guest did not handle (e.g. EBADF)."""

    def __init__(self, message: str, errno_name: str = "EINVAL", **kwargs):
        super().__init__(message, **kwargs)
        self.errno_name = errno_name


class MemoryFault(GuestFault):
    """Access to an unmapped or protection-violating address."""


class DivergenceError(ReproError):
    """The monitor observed divergent behaviour between variants.

    Carries a :class:`repro.core.divergence.DivergenceReport` describing
    where and how the variants disagreed.
    """

    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


class DeadlockError(ReproError):
    """The simulation reached a state where no thread can make progress.

    Under an MVEE this usually indicates a replication bug (an agent
    enforcing an impossible order) or a guest program bug; the simulator
    reports the blocked threads and what each is waiting for.
    """

    def __init__(self, message: str, blocked: list[str] | None = None):
        super().__init__(message)
        self.blocked = blocked or []
