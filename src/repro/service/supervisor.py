"""Supervisor: keep a worker fleet alive, degrade gracefully to zero.

:class:`ServiceSupervisor` owns a pool of worker *subprocesses* (each
running ``python -m repro.service.worker``) over one
:class:`~repro.service.jobstore.JobStore` and a periodic :meth:`tick`
that:

* reaps expired leases (tightening reclaim latency below the lazy
  reaping :meth:`~repro.service.jobstore.JobStore.claim` already does);
* respawns workers that died — up to three respawns per slot, so a
  crash loop cannot fork-bomb the host (the job quarantine in the
  store is what actually contains poison jobs);
* **degrades gracefully**: when not a single worker process is alive —
  all crashed out, or the pool was started with ``n_workers=0`` — the
  supervisor executes jobs *in-process, serially*, via the very same
  :class:`~repro.service.worker.ServiceWorker` code path (lease,
  heartbeat, fencing token and all).  Submitted jobs therefore always
  finish; a dead fleet costs throughput, never completion or
  correctness.

The supervisor is a context manager::

    with ServiceSupervisor(store, n_workers=2) as sup:
        sup.run_until_drained(timeout_s=600)
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from types import TracebackType
from typing import List, Optional, Type

from ..errors import ServiceError
from ..obs import current_telemetry
from .jobstore import JobStore
from .worker import ServiceWorker


#: Respawns per worker slot before the slot stays empty.
_RESPAWN_LIMIT = 3
#: Pause between the supervision rounds of
#: :meth:`ServiceSupervisor.run_until_drained`.
_DRAIN_POLL_S = 0.25


def _src_pythonpath() -> str:
    """PYTHONPATH entry that makes ``repro`` importable in children."""
    here = os.path.abspath(__file__)
    # .../src/repro/service/supervisor.py -> .../src
    return os.path.dirname(os.path.dirname(os.path.dirname(here)))


class _WorkerSlot:
    """One supervised worker process and its respawn budget."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Optional[subprocess.Popen[bytes]] = None
        self.spawns = 0

    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None


class ServiceSupervisor:
    """Run and babysit worker processes over one job store."""

    def __init__(
        self,
        store: JobStore,
        n_workers: int = 2,
        inline_fallback: bool = True,
    ) -> None:
        if n_workers < 0:
            raise ServiceError("n_workers must be >= 0")
        self.store = store
        self.n_workers = n_workers
        self.inline_fallback = inline_fallback
        self._slots: List[_WorkerSlot] = [
            _WorkerSlot(i) for i in range(n_workers)
        ]
        self._inline_worker = ServiceWorker(
            store, worker_id=f"inline-{os.getpid()}"
        )

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        for slot in self._slots:
            self._spawn(slot)

    def _spawn(self, slot: _WorkerSlot) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = _src_pythonpath() + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        worker_id = f"sup{os.getpid()}-w{slot.index}-g{slot.spawns}"
        slot.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.service",
                self.store.root,
                "--worker-id",
                worker_id,
            ],
            env=env,
        )
        slot.spawns += 1

    def worker_pids(self) -> List[int]:
        """PIDs of the live worker processes (chaos tests kill these)."""
        return [
            slot.process.pid
            for slot in self._slots
            if slot.process is not None and slot.alive()
        ]

    def alive_worker_count(self) -> int:
        return sum(1 for slot in self._slots if slot.alive())

    # -- the periodic heartbeat ----------------------------------------
    def tick(self, now: Optional[float] = None) -> None:
        """One supervision round: reap, respawn, degrade if needed."""
        tel = current_telemetry()
        self.store.reap_expired(now)
        for slot in self._slots:
            if slot.alive():
                continue
            if slot.process is not None:
                slot.process.wait()  # collect the zombie
                slot.process = None
            if slot.spawns <= _RESPAWN_LIMIT:
                self._spawn(slot)
                tel.count("service.workers_respawned")
        tel.gauge_set("service.queue_depth", self.store.queue_depth())
        if (
            self.inline_fallback
            and self.alive_worker_count() == 0
            and not self.store.alive_workers(now)
        ):
            # Graceful degradation: no fleet — the supervisor itself
            # becomes a (serial) worker for one job per tick.
            if self._inline_worker.run_once():
                tel.count("service.inline_jobs")

    def run_until_drained(self, timeout_s: Optional[float] = None) -> None:
        """Tick until every job is terminal (or *timeout_s* elapses)."""
        deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        while self.store.pending_work():
            self.tick()
            if not self.store.pending_work():
                break
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    f"service did not drain within {timeout_s}s "
                    f"({self.store.queue_depth()} job(s) still active)"
                )
            time.sleep(_DRAIN_POLL_S)

    def shutdown(self, grace_s: float = 5.0) -> None:
        """Terminate the fleet: SIGTERM, then SIGKILL past the grace."""
        for slot in self._slots:
            if slot.process is not None and slot.alive():
                slot.process.terminate()
        deadline = time.monotonic() + grace_s
        for slot in self._slots:
            if slot.process is None:
                continue
            remaining = max(0.0, deadline - time.monotonic())
            try:
                slot.process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                slot.process.kill()
                slot.process.wait()
            slot.process = None

    # -- context manager -----------------------------------------------
    def __enter__(self) -> "ServiceSupervisor":
        self.start()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.shutdown()
