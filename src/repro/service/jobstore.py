"""File-backed, crash-safe store of ATPG jobs.

One :class:`JobStore` directory is the whole service state — no
database, no daemon that must stay alive for the state to exist.  Each
job owns a directory with a single ``job.json`` record (atomic
write-then-rename, fsync'd on both the file and its directory, so a
power cut mid-transition leaves the previous record intact), a
checkpoint directory for its flow stages, and its result artefacts.

The state machine, enforced by the store::

    queued ──► running ──► done | failed | dead
      │          ▲   │
      │          └───┘ reclaim (lease expired / transient failure,
      │                attempts < max, backoff applied)
      └──► cancelled

* **claim**: :meth:`claim` grants the job an expiring, fenced
  :class:`~repro.service.lease.Lease` (see :mod:`repro.service.lease`);
  the first claim moves it ``queued → running``.
* **reclaim**: the lease expired (worker SIGKILLed, hung, or
  unplugged) or the run raised a :class:`~repro.errors.TransientError`;
  the lease is dropped, ``attempts`` grows by one and a deterministic
  exponential backoff (:func:`backoff_delay_s`) passes before the next
  claim.  The job stays ``running``.
* **→ dead**: a job that has burned ``max_shard_attempts`` leases —
  i.e. killed that many consecutive workers — is *quarantined*: it
  ends ``dead`` with a synthesized RunReport carrying the full failure
  log, and the queue moves on.  Poison never loops forever.
* **→ failed**: the flow raised a deterministic error; retrying would
  reproduce it, so the job fails immediately.

A job is leased whole: one lease runs the whole staged flow against the
job's :class:`~repro.reporting.checkpoint.CheckpointStore`, which saves
every stage as it completes.  A reclaimed job therefore resumes
bit-identically from its last completed stage, in any worker or in the
in-process supervisor.  Parallelism comes from many jobs in flight.

**Back-pressure** is explicit: :meth:`submit` refuses work beyond
``max_queue_depth`` active jobs with
:class:`~repro.errors.ServiceBusyError`; nothing is ever dropped
silently.
"""

from __future__ import annotations

import fcntl
import json
import os
import pickle
import random
import time
import uuid
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..soc.design import SocDesign

from ..errors import (
    CheckpointError,
    ConfigError,
    JobNotFoundError,
    LibraryError,
    NetlistError,
    ServiceBusyError,
    ServiceError,
)
from ..obs import current_telemetry
from ..reporting.checkpoint import CheckpointStore, atomic_write_bytes
from ..reporting.runreport import RUN_FAILED, RunReport
from .lease import Lease

#: Job states.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_DEAD = "dead"
JOB_CANCELLED = "cancelled"
JOB_TERMINAL = frozenset({JOB_DONE, JOB_FAILED, JOB_DEAD, JOB_CANCELLED})

#: Backoff before a reclaimed job's next lease: ``base * 2**attempt``
#: capped at ``max``, plus up to ``jitter`` extra, derived from the
#: job's sequence number and attempt (see :func:`backoff_delay_s`).
JOB_BACKOFF_BASE_S = 0.25
JOB_BACKOFF_MAX_S = 10.0
JOB_BACKOFF_JITTER = 0.25


def backoff_delay_s(
    base_s: float,
    factor: float,
    max_s: float,
    jitter: float,
    seed: int,
    index: int,
    attempt: int,
) -> float:
    """Exponential backoff with deterministic jitter, shared math.

    Delay before retry *attempt* (0-based) of work unit *index*:
    ``base * factor**attempt`` capped at *max_s*, plus up to
    ``jitter`` fraction extra derived from ``(seed, index, attempt)``
    so every layer that backs off (the job requeue here, the
    clients' wait and request retries in :mod:`repro.service.client`)
    is reproducible run to run.
    """
    base = min(max_s, base_s * (factor ** attempt))
    rng = random.Random((seed * 1_000_003) ^ (index * 7_919 + attempt))
    return base * (1.0 + jitter * rng.random())


_CONFIG_FILE = "config.json"
_JOB_FILE = "job.json"
_FORMAT_VERSION = 1


def _atomic_write_json(path: str, data: Dict[str, Any]) -> None:
    blob = json.dumps(data, indent=1, sort_keys=True, default=str)
    atomic_write_bytes(path, (blob + "\n").encode("utf-8"))


@dataclass(frozen=True)
class ServiceConfig:
    """Shared knobs of one job store (persisted as ``config.json``).

    Every process that opens the store — submitters, workers, the
    supervisor — reads the same persisted copy, so lease TTLs and
    retry budgets can never disagree across the fleet.
    """

    #: Active (non-terminal) jobs accepted before :meth:`JobStore.submit`
    #: raises :class:`~repro.errors.ServiceBusyError`.
    max_queue_depth: int = 32
    #: Lease TTL: a worker silent this long forfeits its job.
    lease_ttl_s: float = 30.0
    #: Leases burned before a job is quarantined as ``dead``
    #: (= consecutive workers it is allowed to kill).  The name predates
    #: whole-job leases; it stays so existing ``config.json`` files open
    #: with their settings.
    max_shard_attempts: int = 3

    def __post_init__(self) -> None:
        """A queue of depth 0, a lease that expires at once or a zero
        attempt budget would leave the store unable to run any job."""
        if self.max_queue_depth < 1:
            raise ServiceError(
                f"max_queue_depth must be at least 1, got "
                f"{self.max_queue_depth}"
            )
        if not self.lease_ttl_s > 0:
            raise ServiceError(
                f"lease_ttl_s must be above 0, got {self.lease_ttl_s}"
            )
        if self.max_shard_attempts < 1:
            raise ServiceError(
                f"max_shard_attempts must be at least 1, got "
                f"{self.max_shard_attempts}"
            )

    @property
    def heartbeat_s(self) -> float:
        """Renewal interval: a third of the TTL, so one missed beat is
        survivable and two are not."""
        return self.lease_ttl_s / 3.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": _FORMAT_VERSION,
            "max_queue_depth": self.max_queue_depth,
            "lease_ttl_s": self.lease_ttl_s,
            "max_shard_attempts": self.max_shard_attempts,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ServiceConfig":
        """Keys it does not know, such as the ``backoff_*`` fields of
        older stores, are ignored."""
        return cls(
            max_queue_depth=int(data.get("max_queue_depth", 32)),
            lease_ttl_s=float(data.get("lease_ttl_s", 30.0)),
            max_shard_attempts=int(data.get("max_shard_attempts", 3)),
        )


@dataclass(frozen=True)
class JobSpec:
    """What to run: one staged noise-tolerant flow, parameterised.

    The spec is the *whole* definition of the job's results — execution
    derives everything else (design, stage plan, checkpoint
    fingerprint) deterministically from it, which is what makes a
    reclaimed job's rerun bit-identical.
    """

    #: Design scale (``tiny``/``small``/``bench``/``full``).
    scale: str = "tiny"
    #: SOC generator seed.
    seed: int = 2007
    #: ATPG engine seed.
    flow_seed: int = 1
    #: Total pattern budget across stages (``None`` = unbounded).
    max_patterns: Optional[int] = None
    #: Persist the job's obs artefacts (trace + metrics) in the job dir.
    telemetry: bool = False
    #: Deterministic fault injection for chaos tests, e.g.
    #: ``{"kill_stage": 1}`` (SIGKILL own process once the stages before
    #: stage 1 are checkpointed) or ``{"fail_stage": 0}`` (raise
    #: TransientError there).  Test-only.
    chaos: Optional[Dict[str, int]] = None
    #: External design: structural Verilog text (the subset
    #: :mod:`repro.netlist.verilog` round-trips).  When set, ``scale``
    #: and ``seed`` are ignored — the design is reconstructed from this
    #: text (see :func:`repro.soc.design_from_netlist`) and the stage
    #: plan derived from it (:func:`repro.soc.derive_stage_plan`), both
    #: deterministically, so every worker re-derives the same stages.
    netlist_verilog: Optional[str] = None

    def build_design_and_plan(
        self,
    ) -> Tuple["SocDesign", Sequence[Sequence[str]]]:
        """``(design, stage_plan)`` this spec runs — the single source
        shared by the worker and the server-side DRC gate, so both
        agree bit-for-bit."""
        if self.netlist_verilog is not None:
            import io

            from ..netlist.verilog import parse_verilog
            from ..soc import derive_stage_plan, design_from_netlist

            design = design_from_netlist(
                parse_verilog(io.StringIO(self.netlist_verilog))
            )
            return design, derive_stage_plan(design)
        from ..core.flow import STAGE_PLAN_TURBO_EAGLE
        from ..soc import build_turbo_eagle

        design = build_turbo_eagle(scale=self.scale, seed=self.seed)
        return design, STAGE_PLAN_TURBO_EAGLE

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scale": self.scale,
            "seed": self.seed,
            "flow_seed": self.flow_seed,
            "max_patterns": self.max_patterns,
            "telemetry": self.telemetry,
            "chaos": dict(self.chaos) if self.chaos else None,
            "netlist_verilog": self.netlist_verilog,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        max_patterns = data.get("max_patterns")
        chaos = data.get("chaos")
        netlist = data.get("netlist_verilog")
        return cls(
            scale=str(data.get("scale", "tiny")),
            seed=int(data.get("seed", 2007)),
            flow_seed=int(data.get("flow_seed", 1)),
            max_patterns=None if max_patterns is None else int(max_patterns),
            telemetry=bool(data.get("telemetry", False)),
            chaos=None if chaos is None else {
                str(k): int(v) for k, v in chaos.items()
            },
            netlist_verilog=None if netlist is None else str(netlist),
        )


@dataclass
class JobRecord:
    """One submitted job: its spec, state and lease bookkeeping."""

    id: str
    spec: JobSpec
    state: str = JOB_QUEUED
    seq: int = 0
    created_at: float = 0.0
    updated_at: float = 0.0
    error: Optional[str] = None
    #: Leases burned so far (granted and then lost or failed).
    attempts: int = 0
    #: Earliest wall-clock time the job may be claimed again.
    not_before: float = 0.0
    #: Monotonic fencing-token counter; each grant increments it.
    next_token: int = 0
    #: The live lease; ``None`` while no worker holds the job.
    lease: Optional[Lease] = None
    #: Append-only failure log: every lost lease / failed attempt.
    failures: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in JOB_TERMINAL

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": _FORMAT_VERSION,
            "id": self.id,
            "spec": self.spec.to_dict(),
            "state": self.state,
            "seq": self.seq,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "error": self.error,
            "attempts": self.attempts,
            "not_before": self.not_before,
            "next_token": self.next_token,
            "lease": self.lease.to_dict() if self.lease else None,
            "failures": list(self.failures),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobRecord":
        """Records written when each flow stage was leased on its own
        carry a ``shards`` list instead of the lease fields.  It is
        ignored: a queued or finished job needs nothing from it."""
        lease = data.get("lease")
        return cls(
            id=str(data["id"]),
            spec=JobSpec.from_dict(data.get("spec") or {}),
            state=str(data.get("state", JOB_QUEUED)),
            seq=int(data.get("seq", 0)),
            created_at=float(data.get("created_at", 0.0)),
            updated_at=float(data.get("updated_at", 0.0)),
            error=data.get("error"),
            attempts=int(data.get("attempts", 0)),
            not_before=float(data.get("not_before", 0.0)),
            next_token=int(data.get("next_token", 0)),
            lease=None if lease is None else Lease.from_dict(lease),
            failures=[dict(f) for f in data.get("failures", [])],
        )


class JobStore:
    """The durable job state machine under one directory.

    All *transitions* run under an exclusive ``flock`` on
    ``<root>/.lock`` (read-modify-write of a job record is a critical
    section across worker processes); *reads* are lock-free because
    every write is an atomic rename.  Methods take an optional ``now``
    so tests can drive lease expiry without sleeping.
    """

    def __init__(
        self, root: str, config: Optional[ServiceConfig] = None
    ) -> None:
        self.root = os.path.abspath(root)
        self.jobs_dir = os.path.join(self.root, "jobs")
        self.workers_dir = os.path.join(self.root, "workers")
        self._lock_path = os.path.join(self.root, ".lock")
        self._config_path = os.path.join(self.root, _CONFIG_FILE)
        #: Ids read in a terminal state.  No transition leaves one, so
        #: the active-job scans never read these records again.
        self._terminal_ids: Set[str] = set()
        if os.path.exists(self.root) and not os.path.isdir(self.root):
            raise ServiceError(f"job store {self.root!r} is not a directory")
        # Read before creating anything: a store that fails to open is
        # left exactly as it was.
        stored = self._read_config() if config is None else None
        if stored is not None:
            self.config = stored
        else:
            self.config = config if config is not None else ServiceConfig()
        try:
            os.makedirs(self.jobs_dir, exist_ok=True)
            os.makedirs(self.workers_dir, exist_ok=True)
            if stored is None:
                _atomic_write_json(self._config_path, self.config.to_dict())
        except OSError as exc:
            raise ServiceError(
                f"cannot create job store {self.root!r}: {exc}"
            ) from exc

    def _read_config(self) -> Optional[ServiceConfig]:
        """The persisted config, or ``None`` when there is none yet."""
        try:
            with open(self._config_path) as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError("not a JSON object")
            return ServiceConfig.from_dict(data)
        except FileNotFoundError:
            return None
        # JSON and UTF-8 errors are ValueErrors; ServiceError is a value
        # ServiceConfig rejects.
        except (OSError, TypeError, ValueError, ServiceError) as exc:
            raise ServiceError(
                f"unreadable job store config {self._config_path!r}: {exc}"
            ) from exc

    # -- paths ----------------------------------------------------------
    def job_dir(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, job_id)

    def checkpoint_dir(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "checkpoints")

    def report_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "report.json")

    def result_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "result.pkl")

    def obs_dir(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "obs")

    def _job_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), _JOB_FILE)

    # -- locking / record IO -------------------------------------------
    @contextmanager
    def _lock(self) -> Iterator[None]:
        fd = os.open(self._lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    def _read_job(self, job_id: str) -> JobRecord:
        path = self._job_path(job_id)
        try:
            with open(path) as fh:
                return JobRecord.from_dict(json.load(fh))
        except FileNotFoundError:
            raise JobNotFoundError(
                f"no job {job_id!r} in store {self.root!r}"
            ) from None
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
            raise ServiceError(
                f"unreadable job record {path!r}: {exc}"
            ) from exc

    def _write_job(self, job: JobRecord, now: Optional[float] = None) -> None:
        job.updated_at = time.time() if now is None else now
        _atomic_write_json(self._job_path(job.id), job.to_dict())

    # -- queries (lock-free) -------------------------------------------
    def get(self, job_id: str) -> JobRecord:
        return self._read_job(job_id)

    def _read_jobs(self, active_only: bool) -> List[JobRecord]:
        try:
            names = os.listdir(self.jobs_dir)
        except OSError:
            return []
        jobs: List[JobRecord] = []
        for job_id in names:
            if active_only and job_id in self._terminal_ids:
                continue
            if not os.path.exists(self._job_path(job_id)):
                continue
            try:
                job = self._read_job(job_id)
            except ServiceError as exc:
                warnings.warn(
                    f"skipping unreadable job record: {exc}",
                    RuntimeWarning,
                    stacklevel=3,
                )
                continue
            if job.terminal:
                self._terminal_ids.add(job_id)
                if active_only:
                    continue
            jobs.append(job)
        jobs.sort(key=lambda j: (j.seq, j.id))
        return jobs

    def list_jobs(self) -> List[JobRecord]:
        return self._read_jobs(active_only=False)

    def active_jobs(self) -> List[JobRecord]:
        """Non-terminal jobs, oldest first; reads no record already
        seen terminal."""
        return self._read_jobs(active_only=True)

    def queue_depth(self) -> int:
        """Active (non-terminal) jobs — the back-pressure measure."""
        return len(self.active_jobs())

    def pending_work(self, now: Optional[float] = None) -> bool:
        """True while any job still needs (or is receiving) work."""
        return bool(self.active_jobs())

    # -- submission (back-pressure) ------------------------------------
    def submit(self, spec: JobSpec, now: Optional[float] = None) -> JobRecord:
        """Durably enqueue one job; refuse loudly past the depth limit.

        A spec no worker could run — an unknown ``scale``, a netlist
        that does not parse, or a ``max_patterns`` below 1 — raises
        :class:`~repro.errors.ServiceError` before anything is queued.
        Submission succeeds whether or not any worker is alive — a
        supervisor (or :meth:`ServiceClient.wait`'s inline fallback)
        can always drain the queue in-process.
        """
        if spec.max_patterns is not None and spec.max_patterns < 1:
            raise ServiceError(
                f"max_patterns must be at least 1, got {spec.max_patterns}"
            )
        from ..soc.generator import scale_preset

        try:
            if spec.netlist_verilog is None:
                scale_preset(spec.scale)
            else:
                spec.build_design_and_plan()
        except (ConfigError, LibraryError, NetlistError) as exc:
            raise ServiceError(f"job spec rejected: {exc}") from exc
        now = time.time() if now is None else now
        tel = current_telemetry()
        with self._lock():
            depth = self.queue_depth()
            if depth >= self.config.max_queue_depth:
                tel.count("service.submits_rejected")
                raise ServiceBusyError(
                    f"job queue at depth limit "
                    f"({depth}/{self.config.max_queue_depth} active "
                    f"jobs); retry later",
                    depth=depth,
                    limit=self.config.max_queue_depth,
                )
            seq = self._next_seq()
            job_id = f"j{seq:06d}-{uuid.uuid4().hex[:8]}"
            job = JobRecord(id=job_id, spec=spec, seq=seq, created_at=now)
            os.makedirs(self.job_dir(job_id), exist_ok=True)
            os.makedirs(self.checkpoint_dir(job_id), exist_ok=True)
            self._write_job(job, now)
            tel.count("service.jobs_submitted")
            tel.gauge_set("service.queue_depth", depth + 1)
        return job

    def cancel(self, job_id: str, now: Optional[float] = None) -> JobRecord:
        """``queued → cancelled``; any other state is a loud error.

        Only a job no worker has touched can be cancelled — once it is
        leased the job is ``running`` and the honest answers are "wait"
        or "let it finish".  Raises
        :class:`~repro.errors.JobNotFoundError` for unknown ids and
        :class:`~repro.errors.ServiceError` naming the actual state
        otherwise, so callers (and the HTTP DELETE route) can tell
        "already running" from "never existed".  Cancellation is
        terminal: it frees the job's back-pressure slot immediately.
        """
        now = time.time() if now is None else now
        with self._lock():
            job = self._read_job(job_id)
            if job.state != JOB_QUEUED:
                raise ServiceError(
                    f"job {job_id} is {job.state!r}, not {JOB_QUEUED!r}; "
                    f"only queued jobs can be cancelled"
                )
            job.state = JOB_CANCELLED
            job.error = "cancelled before any worker ran it"
            self._write_job(job, now)
            tel = current_telemetry()
            tel.count("service.jobs_cancelled")
            tel.gauge_set("service.queue_depth", self.queue_depth())
        return job

    def _next_seq(self) -> int:
        """Monotonic submission counter (caller holds the lock)."""
        path = os.path.join(self.jobs_dir, ".seq")
        seq = 0
        try:
            with open(path) as fh:
                seq = int(fh.read().strip() or 0)
        except (OSError, ValueError):
            pass
        seq += 1
        atomic_write_bytes(path, str(seq).encode("ascii"))
        return seq

    # -- claiming and leases -------------------------------------------
    def claim(
        self, worker: str, now: Optional[float] = None
    ) -> Optional[JobRecord]:
        """Lease the oldest claimable job to *worker*, or ``None``.

        A job is claimable when it is not terminal, holds no lease and
        its backoff has passed.  Expired leases met during the scan are
        reclaimed first (lazy reaping), so a fleet of plain workers
        needs no separate janitor for progress — the supervisor's
        periodic :meth:`reap_expired` only tightens latency.
        """
        now = time.time() if now is None else now
        with self._lock():
            for job in self.active_jobs():
                changed = self._reap_job(job, now)
                if (
                    not job.terminal
                    and job.lease is None
                    and job.not_before <= now
                ):
                    job.next_token += 1
                    job.lease = Lease(
                        worker=worker,
                        token=job.next_token,
                        expires_at=now + self.config.lease_ttl_s,
                    )
                    job.state = JOB_RUNNING
                    self._write_job(job, now)
                    return job
                if changed:
                    self._write_job(job, now)
        return None

    def _fenced(
        self, job_id: str, worker: str, token: int
    ) -> Optional[JobRecord]:
        """The job, if *worker* still holds its lease under *token*."""
        job = self._read_job(job_id)
        if job.lease is None or not job.lease.matches(worker, token):
            return None
        return job

    def heartbeat(
        self,
        job_id: str,
        worker: str,
        token: int,
        now: Optional[float] = None,
    ) -> bool:
        """Extend the lease; ``False`` means it is no longer ours."""
        now = time.time() if now is None else now
        with self._lock():
            try:
                job = self._fenced(job_id, worker, token)
            except ServiceError:
                return False
            if job is None or job.lease is None:
                return False
            job.lease.expires_at = now + self.config.lease_ttl_s
            self._write_job(job, now)
            return True

    def start_shard(self, job_id: str, worker: str, token: int) -> bool:
        """The worker's check before it runs the flow: ``True`` while
        *worker* still holds the job's lease under *token*."""
        return self._fenced(job_id, worker, token) is not None

    def complete_shard(
        self,
        job_id: str,
        worker: str,
        token: int,
        now: Optional[float] = None,
    ) -> bool:
        """``running → done`` under the fencing token.

        ``False`` means the lease was reclaimed while the worker was
        stalled: its (identical, but unaccounted) result is discarded
        and the replacement worker's execution is the one of record.
        """
        now = time.time() if now is None else now
        tel = current_telemetry()
        with self._lock():
            job = self._fenced(job_id, worker, token)
            if job is None:
                return False
            job.state = JOB_DONE
            job.lease = None
            tel.count("service.jobs_completed")
            tel.gauge_set("service.queue_depth", self.queue_depth() - 1)
            self._write_job(job, now)
            return True

    def fail_shard(
        self,
        job_id: str,
        worker: str,
        token: int,
        error: str,
        retryable: bool = False,
        now: Optional[float] = None,
    ) -> bool:
        """Record a failed attempt under the fencing token.

        *retryable* failures (transient errors) requeue with backoff
        until the attempt budget quarantines the job; deterministic
        failures end the job as ``failed`` immediately — rerunning a
        bug reproduces it.
        """
        now = time.time() if now is None else now
        with self._lock():
            job = self._fenced(job_id, worker, token)
            if job is None:
                return False
            kind = "transient" if retryable else "error"
            self._record_failure(job, worker, kind, error, now)
            if retryable:
                self._requeue_or_quarantine(job, now)
            else:
                job.lease = None
                job.state = JOB_FAILED
                job.error = error
                current_telemetry().count("service.jobs_failed")
                self._write_failure_report(job)
            self._write_job(job, now)
            return True

    # -- reaping / quarantine ------------------------------------------
    def reap_expired(self, now: Optional[float] = None) -> int:
        """Reclaim every expired lease; returns how many were reaped."""
        now = time.time() if now is None else now
        reaped = 0
        with self._lock():
            for job in self.active_jobs():
                if self._reap_job(job, now):
                    reaped += 1
                    self._write_job(job, now)
        return reaped

    def _reap_job(self, job: JobRecord, now: float) -> bool:
        """Reclaim the job's expired lease, if any (lock held)."""
        lease = job.lease
        if lease is None or not lease.expired(now):
            return False
        current_telemetry().count("service.leases_expired")
        self._record_failure(
            job,
            lease.worker,
            "lease_expired",
            f"lease expired after {self.config.lease_ttl_s}s "
            f"(worker {lease.worker} presumed dead or hung)",
            now,
        )
        self._requeue_or_quarantine(job, now)
        return True

    def _record_failure(
        self,
        job: JobRecord,
        worker: str,
        kind: str,
        error: str,
        now: float,
    ) -> None:
        job.failures.append({
            "time": now,
            "worker": worker,
            "attempt": job.attempts,
            "kind": kind,
            "error": error,
        })

    def _requeue_or_quarantine(self, job: JobRecord, now: float) -> None:
        """Burn one attempt: backoff-requeue, or quarantine past the cap."""
        tel = current_telemetry()
        job.attempts += 1
        job.lease = None
        if job.attempts >= self.config.max_shard_attempts:
            job.state = JOB_DEAD
            job.error = (
                f"job quarantined after {job.attempts} failed "
                f"attempt(s); see failure log"
            )
            tel.count("service.jobs_quarantined")
            self._write_failure_report(job)
            return
        job.not_before = now + backoff_delay_s(
            JOB_BACKOFF_BASE_S, 2.0, JOB_BACKOFF_MAX_S,
            JOB_BACKOFF_JITTER, 0, job.seq, job.attempts - 1,
        )
        tel.count("service.job_retries")

    def _write_failure_report(self, job: JobRecord) -> None:
        """Synthesize the job's RunReport with the failure log intact.

        Written on quarantine and deterministic failure so a dead job
        always answers "what happened?" the same way a crashed
        in-process flow does — the stages its checkpoint store holds,
        listed as completed, plus the per-attempt failure log — even
        when the workers died without a word.
        """
        checkpoint_dir = self.checkpoint_dir(job.id)
        report = RunReport(
            flow="service:noise_aware_staged",
            status=RUN_FAILED,
            checkpoint_dir=checkpoint_dir,
            error=job.error,
        )
        try:
            completed = CheckpointStore(checkpoint_dir).keys()
        except CheckpointError:
            completed = []
        for name in completed:
            report.record_stage(name, "completed")
        report.failures.extend(dict(f) for f in job.failures)
        report.save(self.report_path(job.id))

    # -- results --------------------------------------------------------
    def save_result(self, job_id: str, payload: Dict[str, Any]) -> None:
        """Persist the finished job's pattern artefacts atomically."""
        atomic_write_bytes(
            self.result_path(job_id),
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def load_result(self, job_id: str) -> Dict[str, Any]:
        path = self.result_path(job_id)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            raise ServiceError(
                f"job {job_id} has no result artefact (state: "
                f"{self.get(job_id).state})"
            ) from None
        if not isinstance(payload, dict):
            raise ServiceError(
                f"corrupt result artefact for job {job_id}: {path!r}"
            )
        return payload

    def load_report(self, job_id: str) -> Optional[RunReport]:
        path = self.report_path(job_id)
        if not os.path.exists(path):
            return None
        return RunReport.load(path)

    # -- worker registry ------------------------------------------------
    def _worker_path(self, worker_id: str) -> str:
        return os.path.join(self.workers_dir, f"{worker_id}.json")

    def register_worker(
        self, worker_id: str, pid: int, now: Optional[float] = None
    ) -> None:
        now = time.time() if now is None else now
        _atomic_write_json(
            self._worker_path(worker_id),
            {"pid": pid, "heartbeat_at": now},
        )

    def worker_heartbeat(
        self, worker_id: str, now: Optional[float] = None
    ) -> None:
        self.register_worker(worker_id, os.getpid(), now)

    def deregister_worker(self, worker_id: str) -> None:
        try:
            os.remove(self._worker_path(worker_id))
        except OSError:
            pass

    def alive_workers(self, now: Optional[float] = None) -> List[str]:
        """Workers whose registry heartbeat is within one lease TTL."""
        now = time.time() if now is None else now
        alive: List[str] = []
        try:
            names = os.listdir(self.workers_dir)
        except OSError:
            return alive
        for name in names:
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(self.workers_dir, name)) as fh:
                    data = json.load(fh)
                beat = float(data.get("heartbeat_at", 0.0))
            except (OSError, json.JSONDecodeError, ValueError):
                continue
            if now - beat <= self.config.lease_ttl_s:
                alive.append(name[: -len(".json")])
        return sorted(alive)
