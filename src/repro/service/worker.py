"""Worker process: claim a job, run its flow, commit fenced.

A :class:`ServiceWorker` is deliberately dumb — the whole protocol is:

1. :meth:`JobStore.claim` one job (a lease with a fencing token);
2. start a :class:`~repro.service.lease.LeaseHeartbeat` renewal thread;
3. run the staged noise-tolerant flow against the *job's* checkpoint
   directory — stages an earlier attempt completed load from their
   checkpoints, so a reclaimed job picks up exactly (bit-identically)
   where its predecessor stopped;
4. write the result and RunReport, then commit with the fencing token.
   A refused commit means the lease was reclaimed while we stalled:
   the execution is discarded (:class:`~repro.errors.LeaseLostError`)
   and the replacement's is the one of record.

Workers never talk to each other and hold no state outside the store;
``kill -9`` at any instruction loses at most one lease TTL plus the
stage that was running.

Runnable stand-alone::

    python -m repro.service /path/to/store --drain

``--drain`` exits once the queue is empty; without it the worker polls
forever (the ``repro serve`` supervisor's mode).
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import time
import uuid
from typing import Any, Dict, Optional, Sequence, Tuple

from ..errors import LeaseLostError, TransientError
from ..obs import Telemetry, current_telemetry
from ..reporting.runreport import RunReport
from .jobstore import JobRecord, JobStore
from .lease import LeaseHeartbeat


#: Queue poll interval of an idle :meth:`ServiceWorker.run`: a job
#: submitted to an idle worker waits at most this long for its lease.
_IDLE_SLEEP_S = 0.02


def _default_worker_id() -> str:
    return f"w-{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


def _chaos_hit(job: JobRecord) -> Optional[Tuple[str, int]]:
    """Deterministic fault injection for chaos tests: ``(action,
    stage)`` when this attempt is hit, else ``None``.

    ``kill_stage``/``fail_stage`` name the stage index to stop at: the
    worker checkpoints the stages before it, then SIGKILLs itself or
    raises :class:`~repro.errors.TransientError`.
    ``kill_attempts``/``fail_attempts`` bound how many attempts are hit
    (default 1 kill — so the retry succeeds and the job completes — and
    unbounded failures — so the quarantine path is reachable).
    """
    chaos = job.spec.chaos or {}
    for action, default_attempts in (("kill", 1), ("fail", 10 ** 9)):
        stage = chaos.get(f"{action}_stage")
        attempts = chaos.get(f"{action}_attempts", default_attempts)
        if stage is not None and job.attempts < attempts:
            return action, stage
    return None


class ServiceWorker:
    """One job-executing loop over a :class:`JobStore`."""

    def __init__(
        self,
        store: JobStore,
        worker_id: Optional[str] = None,
    ) -> None:
        self.store = store
        self.worker_id = worker_id or _default_worker_id()

    # ------------------------------------------------------------------
    def run_once(self) -> bool:
        """Claim and fully process one job; ``False`` when idle."""
        job = self.store.claim(self.worker_id)
        if job is None:
            return False
        assert job.lease is not None
        token = job.lease.token
        tel = current_telemetry()
        try:
            self.execute(job, token)
        except LeaseLostError:
            # Someone else owns the job now; our work is discarded.
            tel.count("service.lease_lost")
        except TransientError as exc:
            self.store.fail_shard(
                job.id, self.worker_id, token,
                error=repr(exc), retryable=True,
            )
        except Exception as exc:  # noqa: BLE001 - worker must survive
            self.store.fail_shard(
                job.id, self.worker_id, token,
                error=repr(exc), retryable=False,
            )
        return True

    def run(self, drain: bool = False) -> int:
        """Process jobs until told to stop; returns jobs processed.

        ``drain=True`` exits once no job needs work; otherwise an idle
        worker polls the queue every 0.02 s.  The worker registers
        itself in the store's worker registry, and rewrites its entry at
        most once per ``config.heartbeat_s``, so the supervisor can tell
        "workers are alive" from "I must degrade gracefully"; while a
        job runs, its renewed lease says the same.
        """
        self.store.register_worker(self.worker_id, os.getpid())
        beat_at = time.monotonic()
        processed = 0
        try:
            while True:
                did_work = self.run_once()
                if time.monotonic() - beat_at >= self.store.config.heartbeat_s:
                    self.store.worker_heartbeat(self.worker_id)
                    beat_at = time.monotonic()
                if did_work:
                    processed += 1
                    continue
                if drain and not self.store.pending_work():
                    break
                time.sleep(_IDLE_SLEEP_S)
        finally:
            self.store.deregister_worker(self.worker_id)
        return processed

    # ------------------------------------------------------------------
    def execute(self, job: JobRecord, token: int) -> None:
        """Run the job's flow under heartbeat + fencing.

        Raises :class:`LeaseLostError` when the lease was reclaimed
        (the execution is discarded), propagates flow errors for
        :meth:`run_once` to classify as transient or deterministic.
        """
        heartbeat = LeaseHeartbeat(
            self.store,
            job.id,
            self.worker_id,
            token,
            interval_s=self.store.config.heartbeat_s,
        )
        heartbeat.start()
        try:
            if not self.store.start_shard(job.id, self.worker_id, token):
                raise LeaseLostError(f"lease on {job.id} lost before start")
            hit = _chaos_hit(job)
            with current_telemetry().span(
                "service.job",
                job=job.id,
                attempt=job.attempts,
                worker=self.worker_id,
            ):
                result, report = self._run_flow(
                    job, None if hit is None else hit[1]
                )
            if hit is not None:
                if hit[0] == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise TransientError(
                    f"chaos: injected transient failure at stage "
                    f"{hit[1]} (attempt {job.attempts})"
                )
            if heartbeat.lost.is_set():
                raise LeaseLostError(f"lease on {job.id} expired mid-run")
            # Artefacts first, then the fenced state flip: a job
            # observed `done` always has its result on disk.  A stale
            # worker writing these too is harmless — its bytes are
            # identical by construction.
            self.store.save_result(job.id, result_payload(result))
            report.save(self.store.report_path(job.id))
            if not self.store.complete_shard(job.id, self.worker_id, token):
                raise LeaseLostError(f"lease on {job.id} lost at commit")
        finally:
            heartbeat.stop()

    def _run_flow(
        self, job: JobRecord, stop_after_stage: Optional[int]
    ) -> Tuple[Any, RunReport]:
        """The flow of *job* against its checkpoint directory.

        The same call serves workers and both in-process fallbacks —
        same design build, same checkpoint store, same flow arguments —
        which is what the bit-identity invariant rests on.
        """
        from ..core.flow import run_noise_tolerant_flow

        spec = job.spec
        design, stage_plan = spec.build_design_and_plan()
        telemetry = (
            Telemetry(tracing=True, metrics=True) if spec.telemetry else None
        )
        result, report = run_noise_tolerant_flow(
            design,
            checkpoint_dir=self.store.checkpoint_dir(job.id),
            resume=True,
            max_patterns=spec.max_patterns,
            stop_after_stage=stop_after_stage,
            strict=True,
            telemetry=telemetry,
            seed=spec.flow_seed,
            stage_plan=stage_plan,
        )
        if telemetry is not None:
            obs_dir = self.store.obs_dir(job.id)
            os.makedirs(obs_dir, exist_ok=True)
            telemetry.save_trace_jsonl(os.path.join(obs_dir, "trace.jsonl"))
            telemetry.save_metrics_json(
                os.path.join(obs_dir, "metrics.json")
            )
        return result, report


def result_payload(result: Any) -> Dict[str, Any]:
    """The persisted artefact of a finished job: the pattern set.

    Carries the raw pattern matrix (the bit-identity witness) plus the
    headline numbers a client usually wants without unpickling numpy.
    """
    matrix = result.pattern_set.as_matrix()
    return {
        "matrix": matrix,
        "n_patterns": int(result.n_patterns),
        "test_coverage": float(result.test_coverage),
        "domain": str(result.domain),
        "fill": str(result.fill),
        "step_boundaries": [int(b) for b in result.step_boundaries],
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-service-worker",
        description="Claim and execute ATPG jobs from a job store.",
    )
    parser.add_argument("store", help="job store root directory")
    parser.add_argument(
        "--drain",
        action="store_true",
        help="exit once the queue is empty instead of polling forever",
    )
    parser.add_argument(
        "--worker-id", default=None, help="stable worker id (default: auto)"
    )
    args = parser.parse_args(argv)
    worker = ServiceWorker(JobStore(args.store), worker_id=args.worker_id)
    worker.run(drain=args.drain)
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry point
    raise SystemExit(main())
