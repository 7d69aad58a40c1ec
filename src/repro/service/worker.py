"""Worker process: claim a shard, run its flow stage, commit fenced.

A :class:`ServiceWorker` is deliberately dumb — the whole protocol is:

1. :meth:`JobStore.claim` one shard (a lease with a fencing token);
2. start a :class:`~repro.service.lease.LeaseHeartbeat` renewal thread;
3. run the staged noise-tolerant flow up to (and including) that
   stage against the *job's* checkpoint directory — earlier stages
   load from checkpoints a previous worker wrote, so the shard picks
   up exactly (bit-identically) where its predecessor stopped;
4. commit with the fencing token.  A refused commit means the lease
   was reclaimed while we stalled: the result is discarded
   (:class:`~repro.errors.LeaseLostError`), never half-written.

Workers never talk to each other and hold no state outside the store;
``kill -9`` at any instruction loses at most one lease TTL of work.

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
from typing import Any, Dict, Optional, Sequence

from ..errors import LeaseLostError, TransientError
from ..obs import current_telemetry
from .jobstore import JobRecord, JobSpec, JobStore, ShardRecord
from .lease import LeaseHeartbeat


#: Queue poll interval of an idle :meth:`ServiceWorker.run`.
_IDLE_SLEEP_S = 0.2


def _default_worker_id() -> str:
    return f"w-{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


def _maybe_inject_chaos(spec: JobSpec, shard: ShardRecord) -> None:
    """Deterministic fault injection for chaos tests (no-op otherwise).

    ``kill_shard``/``fail_shard`` name the shard index to hit;
    ``kill_attempts``/``fail_attempts`` bound how many attempts are hit
    (default 1 kill — so the retry succeeds and the job completes — and
    unbounded failures — so the quarantine path is reachable).
    """
    chaos = spec.chaos
    if not chaos:
        return
    if (
        chaos.get("kill_shard") == shard.index
        and shard.attempts < chaos.get("kill_attempts", 1)
    ):
        os.kill(os.getpid(), signal.SIGKILL)
    if (
        chaos.get("fail_shard") == shard.index
        and shard.attempts < chaos.get("fail_attempts", 10 ** 9)
    ):
        raise TransientError(
            f"chaos: injected transient failure on shard {shard.name} "
            f"(attempt {shard.attempts})"
        )


class ServiceWorker:
    """One shard-executing loop over a :class:`JobStore`."""

    def __init__(
        self,
        store: JobStore,
        worker_id: Optional[str] = None,
    ) -> None:
        self.store = store
        self.worker_id = worker_id or _default_worker_id()

    # ------------------------------------------------------------------
    def run_once(self) -> bool:
        """Claim and fully process one shard; ``False`` when idle."""
        claimed = self.store.claim(self.worker_id)
        if claimed is None:
            return False
        job, shard = claimed
        assert shard.lease is not None
        token = shard.lease.token
        tel = current_telemetry()
        try:
            self.execute_shard(job, shard, token)
        except LeaseLostError:
            # Someone else owns the shard now; our work is discarded.
            tel.count("service.lease_lost")
        except TransientError as exc:
            self.store.fail_shard(
                job.id, shard.index, self.worker_id, token,
                error=repr(exc), retryable=True,
            )
        except Exception as exc:  # noqa: BLE001 - worker must survive
            self.store.fail_shard(
                job.id, shard.index, self.worker_id, token,
                error=repr(exc), retryable=False,
            )
        return True

    def run(self, drain: bool = False) -> int:
        """Process shards until told to stop; returns shards processed.

        ``drain=True`` exits once no job needs work; otherwise an idle
        worker polls the queue every 0.2 s.  The worker registers
        itself (and heartbeats) in the store's worker registry so the
        supervisor can tell "workers are alive" from "I must degrade
        gracefully".
        """
        self.store.register_worker(self.worker_id, os.getpid())
        processed = 0
        try:
            while True:
                did_work = self.run_once()
                self.store.worker_heartbeat(self.worker_id)
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
    def execute_shard(
        self, job: JobRecord, shard: ShardRecord, token: int
    ) -> None:
        """Run one flow stage under heartbeat + fencing.

        Raises :class:`LeaseLostError` when the lease was reclaimed
        (the execution is discarded), propagates flow errors for
        :meth:`run_once` to classify as transient or deterministic.
        """
        tel = current_telemetry()
        heartbeat = LeaseHeartbeat(
            self.store,
            job.id,
            shard.index,
            self.worker_id,
            token,
            interval_s=self.store.config.heartbeat_s,
        )
        heartbeat.start()
        try:
            if not self.store.start_shard(
                job.id, shard.index, self.worker_id, token
            ):
                raise LeaseLostError(
                    f"lease on {job.id}/{shard.name} lost before start"
                )
            _maybe_inject_chaos(job.spec, shard)
            is_final = shard.index == len(job.shards) - 1
            with tel.span(
                "service.shard",
                job=job.id,
                shard=shard.name,
                worker=self.worker_id,
            ):
                result, report = run_shard_flow(
                    self.store, job.id, job.spec, shard.index, is_final
                )
            if heartbeat.lost.is_set():
                raise LeaseLostError(
                    f"lease on {job.id}/{shard.name} expired mid-run"
                )
            if is_final:
                # Artefacts first, then the fenced state flip: a job
                # observed `done` always has its result on disk.  A
                # stale worker writing these too is harmless — its
                # bytes are identical by construction.
                if result is None:
                    raise TransientError(
                        f"final shard {shard.name} produced no result "
                        f"(status {report.status})"
                    )
                self.store.save_result(
                    job.id, result_payload(result)
                )
                report.save(self.store.report_path(job.id))
            if not self.store.complete_shard(
                job.id, shard.index, self.worker_id, token
            ):
                raise LeaseLostError(
                    f"lease on {job.id}/{shard.name} lost at commit"
                )
        finally:
            heartbeat.stop()


def run_shard_flow(
    store: JobStore,
    job_id: str,
    spec: JobSpec,
    shard_index: int,
    is_final: bool,
) -> Any:
    """Run the flow for one shard against the job's checkpoint dir.

    Returns the flow's ``(result, report)``.  Shared by the worker and
    the supervisor's in-process degradation path so both execute shards
    *identically* — same design build, same checkpoint store, same
    flow arguments — which is what the bit-identity invariant rests on.
    """
    from ..core.flow import run_noise_tolerant_flow

    design, stage_plan = spec.build_design_and_plan()
    telemetry = None
    if spec.telemetry:
        from ..obs import Telemetry

        telemetry = Telemetry(tracing=True, metrics=True)
    outcome = run_noise_tolerant_flow(
        design,
        checkpoint_dir=store.checkpoint_dir(job_id),
        resume=True,
        max_patterns=spec.max_patterns,
        stop_after_stage=None if is_final else shard_index + 1,
        strict=True,
        telemetry=telemetry,
        seed=spec.flow_seed,
        stage_plan=stage_plan,
    )
    if telemetry is not None:
        obs_dir = store.obs_dir(job_id)
        os.makedirs(obs_dir, exist_ok=True)
        stem = os.path.join(obs_dir, f"shard{shard_index}")
        telemetry.save_trace_jsonl(f"{stem}.trace.jsonl")
        telemetry.save_metrics_json(f"{stem}.metrics.json")
    return outcome


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
        description="Claim and execute ATPG job shards from a job store.",
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
