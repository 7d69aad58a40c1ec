"""Exception hierarchy for the repro package.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can catch library-level failures with a
single ``except`` clause while letting programming errors propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class NetlistError(ReproError):
    """A structural problem in a gate-level netlist.

    Raised for duplicate drivers, dangling nets, unknown cell kinds,
    combinational loops and similar integrity violations.
    """


class LibraryError(ReproError):
    """An unknown cell was requested from a standard-cell library."""


class ScanError(ReproError):
    """A design-for-test (scan) structure is inconsistent.

    Examples: a flop assigned to two chains, a shift applied with the
    wrong vector length, or a chain referencing a non-scan flop.
    """


class DrcError(ReproError):
    """A design failed the static design-rule check gate.

    Raised by the flow/case-study entry points when unwaived
    ERROR-severity violations remain; carries the offending
    :class:`~repro.drc.violation.DrcReport` as ``report`` so callers
    can inspect or persist the findings.
    """

    def __init__(self, message: str, report: "object | None" = None):
        super().__init__(message)
        self.report = report


class SimulationError(ReproError):
    """A simulation could not be carried out on the given design/stimulus."""


class AtpgError(ReproError):
    """Test generation failed in a way that is not a normal abort.

    Normal PODEM aborts (backtrack limit) are reported through return
    values, not exceptions; this exception marks malformed fault targets
    or inconsistent two-frame models.
    """


class PowerGridError(ReproError):
    """The power-grid model is malformed or the solve is ill-conditioned."""


class ConfigError(ReproError):
    """An invalid parameter value was supplied to a constructor or flow."""


class TransientError(ReproError):
    """A failure that is expected to succeed if simply retried.

    A job-service shard that raises this (or a subclass) is requeued
    with backoff instead of failing its job (see
    :mod:`repro.service.jobstore`); any other exception is treated as a
    genuine bug and fails the job at once.
    """


class ExecutionError(ReproError):
    """A work chunk's task raised inside :mod:`repro.perf.resilient`.

    Carries ``chunk_index`` (position of the chunk in the submitted
    item list) and ``cause`` (the underlying exception, also chained as
    ``__cause__`` when raised via ``raise ... from``).
    """

    def __init__(
        self,
        message: str,
        *,
        chunk_index: "int | None" = None,
        cause: "BaseException | None" = None,
    ):
        super().__init__(message)
        self.chunk_index = chunk_index
        self.cause = cause


class CheckpointError(ReproError):
    """A checkpoint store is unreadable or inconsistent with the run."""


class ServiceError(ReproError):
    """Base class for failures of the ATPG job service layer."""


class ServiceBusyError(ServiceError):
    """The job queue is at its depth limit; the submission was refused.

    Back-pressure is explicit: a submission that cannot be accepted is
    *rejected loudly* (carrying ``depth`` and ``limit``), never dropped
    silently.  Callers retry later or shed load upstream.
    """

    def __init__(self, message: str, *, depth: "int | None" = None,
                 limit: "int | None" = None):
        super().__init__(message)
        self.depth = depth
        self.limit = limit


class JobNotFoundError(ServiceError):
    """No job with the requested id exists in the store."""


class LeaseLostError(ServiceError):
    """A worker's lease on a shard expired (or was fenced off) while it
    was still working; its result must be discarded, not committed."""
