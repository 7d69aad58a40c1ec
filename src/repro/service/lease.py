"""Job leases: expiring, fenced ownership of one unit of work.

A worker that claims a job holds a :class:`Lease` — ownership that
*expires* unless renewed.  The lease is the service's only liveness
signal: a worker that is SIGKILLed stops renewing, a worker that is
SIGSTOPped (hung) stops renewing too (the heartbeat thread freezes with
the process), and in both cases the job becomes reclaimable once
``expires_at`` passes.  No pings, no health endpoints — just a deadline
in the job record.

Every grant increments the job's **fencing token**.  A mutation
(heartbeat, start, complete, fail) must present the token it was
granted; a worker whose lease was reclaimed while it was stalled holds
a stale token and every commit it attempts is refused (and surfaced as
:class:`~repro.errors.LeaseLostError` by the worker loop), so a zombie
can never overwrite the work of its replacement.

:class:`LeaseHeartbeat` is the worker-side renewal thread.  It is a
plain ``threading.Thread`` on purpose: SIGSTOP freezes all threads of
the process, so a hung worker's lease genuinely expires instead of
being kept alive by a helper that outlived the hang.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .jobstore import JobStore


@dataclass
class Lease:
    """One worker's expiring, fenced hold on one job."""

    #: Id of the worker the job is leased to.
    worker: str
    #: Fencing token: monotonically increasing per job; stale holders
    #: fail every commit.
    token: int
    #: Wall-clock deadline (``time.time()``); past it the job is
    #: reclaimable by anyone.
    expires_at: float

    def expired(self, now: float) -> bool:
        return now >= self.expires_at

    def matches(self, worker: str, token: int) -> bool:
        return self.worker == worker and self.token == token

    def to_dict(self) -> Dict[str, Any]:
        return {
            "worker": self.worker,
            "token": self.token,
            "expires_at": self.expires_at,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Lease":
        return cls(
            worker=str(data["worker"]),
            token=int(data["token"]),
            expires_at=float(data["expires_at"]),
        )


class LeaseHeartbeat:
    """Background renewal of one lease while its job executes.

    Renews every *interval_s* via :meth:`JobStore.heartbeat`.  A failed
    renewal means the lease was reclaimed (or the job is gone): the
    thread stops and sets :attr:`lost`, which the worker checks before
    committing.  ``stop()`` is idempotent and joins the thread.
    """

    def __init__(
        self,
        store: "JobStore",
        job_id: str,
        worker: str,
        token: int,
        interval_s: float,
    ) -> None:
        self._store = store
        self._job_id = job_id
        self._worker = worker
        self._token = token
        self._interval_s = max(0.01, interval_s)
        self._stop = threading.Event()
        #: Set when a renewal was refused — the lease is no longer ours.
        self.lost = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="lease-heartbeat", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            try:
                ok = self._store.heartbeat(
                    self._job_id, self._worker, self._token
                )
            except Exception:
                ok = False
            if not ok:
                self.lost.set()
                return

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
