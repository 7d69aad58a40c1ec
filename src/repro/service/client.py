"""Client APIs of the ATPG job service: submit, poll, fetch.

Two clients, one contract:

* :class:`ServiceClient` — direct file-backed access for processes
  that can see the store directory;
* :class:`HttpServiceClient` — the same submit/status/wait/result/
  report surface spoken to a :mod:`repro.service.http` front-end,
  for everything that cannot.

::

    client = ServiceClient("/path/to/store")
    job_id = client.submit(JobSpec(scale="tiny"))
    job = client.wait(job_id, timeout_s=600)
    patterns = client.result(job_id)["matrix"]

For :class:`ServiceClient` there is no server socket: the "service" is
the durable :class:`~repro.service.jobstore.JobStore` directory, and
clients, workers and supervisors coordinate purely through its fenced,
crash-safe records.  That keeps the front-end honest about the two
contracts the service makes:

* **Back-pressure** — :meth:`submit` surfaces the store's
  :class:`~repro.errors.ServiceBusyError` when the queue is at depth;
  nothing is queued silently past the limit, nothing is dropped.
* **Graceful degradation** — :meth:`wait` (with the default
  ``inline_fallback=True``) notices when no worker is alive and
  executes the job itself through the exact worker code path.  A
  submitted job completes even on a machine where no worker or
  supervisor was ever started.
"""

from __future__ import annotations

import http.client
import json
import pickle
import time
import urllib.parse
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from ..errors import JobNotFoundError, ServiceBusyError, ServiceError
from ..reporting.runreport import RunReport
from .jobstore import JobRecord, JobSpec, JobStore, backoff_delay_s
from .worker import ServiceWorker


#: ``wait`` polling: the first interval, and the cap the interval
#: doubles up to while the job record does not change.
_POLL_S = 0.2
_POLL_MAX_S = 2.0
#: Transport retries per request, and the first backoff between them.
_REQUEST_RETRIES = 2
_RETRY_BASE_S = 0.05


def _wait_until_terminal(
    status: Callable[[str], JobRecord],
    job_id: str,
    timeout_s: Optional[float],
    step: Optional[Callable[[], bool]] = None,
) -> JobRecord:
    """Poll ``status(job_id)`` until the job is terminal: both clients'
    ``wait`` loop.

    Polling backs off exponentially from 0.2 s to 2 s (the shared
    :func:`~repro.service.jobstore.backoff_delay_s` curve) while the job
    record does not change, and snaps back to 0.2 s whenever it does.
    *step* runs after each non-terminal poll; when it returns true (it
    made progress) the job is polled again at once.  Raises
    :class:`~repro.errors.ServiceError` on timeout.
    """
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    idle_polls = 0
    last_observed: Optional[Tuple[str, int]] = None
    while True:
        job = status(job_id)
        if job.terminal:
            return job
        observed = (job.state, job.attempts)
        if observed != last_observed:
            idle_polls = 0
            last_observed = observed
        if step is not None and step():
            continue
        if deadline is not None and time.monotonic() > deadline:
            raise ServiceError(
                f"timed out after {timeout_s}s waiting for job "
                f"{job_id} (state: {job.state})"
            )
        time.sleep(
            backoff_delay_s(
                _POLL_S, 2.0, _POLL_MAX_S,
                jitter=0.0, seed=0, index=0, attempt=idle_polls,
            )
        )
        idle_polls += 1


class ServiceClient:
    """Submit/poll/fetch front-end over one job store."""

    def __init__(self, store: Union[JobStore, str]) -> None:
        self.store = store if isinstance(store, JobStore) else JobStore(store)
        self._inline_worker: Optional[ServiceWorker] = None

    # ------------------------------------------------------------------
    def submit(self, spec: Optional[JobSpec] = None, **kwargs: Any) -> str:
        """Enqueue one job; returns its id.

        Raises :class:`~repro.errors.ServiceBusyError` at the queue
        depth limit — callers are expected to back off and retry, not
        to assume the job was taken.
        """
        if spec is None:
            spec = JobSpec(**kwargs)
        elif kwargs:
            raise ServiceError(
                "pass either a JobSpec or keyword fields, not both"
            )
        return self.store.submit(spec).id

    def status(self, job_id: str) -> JobRecord:
        return self.store.get(job_id)

    def jobs(self) -> List[JobRecord]:
        return self.store.list_jobs()

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a still-``queued`` job (see
        :meth:`JobStore.cancel`); errors loudly from any other state."""
        return self.store.cancel(job_id)

    # ------------------------------------------------------------------
    def wait(
        self,
        job_id: str,
        timeout_s: Optional[float] = None,
        inline_fallback: bool = True,
    ) -> JobRecord:
        """Block until the job is terminal; returns its final record.

        While waiting the client reaps expired leases (so a dead
        worker's job is reclaimed even with no supervisor running)
        and, when ``inline_fallback`` and no live worker is registered,
        runs the job itself.  Raises
        :class:`~repro.errors.ServiceError` on timeout — the job keeps
        whatever progress it made and can be waited on again.

        Polling backs off exponentially from 0.2 s to 2 s while the job
        record does not change, and snaps back whenever it does — a
        long-running job costs a few capped polls per lease TTL, not
        thousands of busy reads of a flock'd ``job.json``.
        """
        def step() -> bool:
            self.store.reap_expired()
            return (
                inline_fallback
                and not self.store.alive_workers()
                and self._worker().run_once()
            )

        return _wait_until_terminal(self.store.get, job_id, timeout_s, step)

    def _worker(self) -> ServiceWorker:
        if self._inline_worker is None:
            self._inline_worker = ServiceWorker(
                self.store, worker_id="client-inline"
            )
        return self._inline_worker

    # ------------------------------------------------------------------
    def result(self, job_id: str) -> Dict[str, Any]:
        """The finished job's pattern artefacts (see
        :func:`repro.service.worker.result_payload`)."""
        return self.store.load_result(job_id)

    def report(self, job_id: str) -> Optional[RunReport]:
        """The job's RunReport: the flow's own on success, the
        synthesized failure report (log intact) on ``failed``/``dead``,
        ``None`` while still running."""
        return self.store.load_report(job_id)


class HttpServiceClient:
    """:class:`ServiceClient`'s contract, spoken over the wire.

    Talks to one tenant namespace of a :mod:`repro.service.http`
    front-end::

        client = HttpServiceClient("http://127.0.0.1:8787", tenant="lab")
        job_id = client.submit(JobSpec(scale="tiny"))
        client.wait(job_id, timeout_s=600)
        patterns = client.result(job_id)["matrix"]

    Differences from the file-backed client are exactly the ones the
    network forces, no others:

    * **no inline fallback** — execution lives server-side; ``wait``
      only polls (with the same shared exponential backoff);
    * **honest timeouts** — every request carries a socket timeout
      (*request_timeout_s*); a hung server raises, never blocks forever;
    * **bounded retry on connection reset** — reads (GET) retry up to
      twice with backoff; ``submit``/``cancel`` retry only when the
      connection was refused outright (nothing reached the server),
      because replaying a request the server may have processed could
      double-submit.

    Server errors map back onto the service's own exceptions:
    HTTP 404 → :class:`~repro.errors.JobNotFoundError`, 429 →
    :class:`~repro.errors.ServiceBusyError` (depth/limit restored from
    the body), anything else → :class:`~repro.errors.ServiceError`
    carrying the structured error message.
    """

    def __init__(
        self,
        base_url: str,
        tenant: str = "default",
        request_timeout_s: float = 30.0,
    ) -> None:
        url = base_url if "://" in base_url else f"http://{base_url}"
        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme != "http" or parsed.hostname is None:
            raise ServiceError(
                f"unsupported service URL {base_url!r} (need http://host:port)"
            )
        self.host: str = parsed.hostname
        self.port: int = parsed.port if parsed.port is not None else 80
        self.tenant = tenant
        self.request_timeout_s = request_timeout_s

    # -- wire plumbing --------------------------------------------------
    def _connection(
        self, timeout_s: Optional[float] = None
    ) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host,
            self.port,
            timeout=(
                self.request_timeout_s if timeout_s is None else timeout_s
            ),
        )

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        timeout_s: Optional[float] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One request/response on its own connection, closed on every
        path; bounded retry on transport failure."""
        attempts = _REQUEST_RETRIES + 1
        last_error: Optional[Exception] = None
        for attempt in range(attempts):
            conn = self._connection(timeout_s)
            try:
                headers = {"Host": f"{self.host}:{self.port}"}
                if body is not None:
                    headers["Content-Type"] = "application/json"
                conn.request(method, path, body=body, headers=headers)
                resp = conn.getresponse()
                payload = resp.read()
                return (
                    resp.status,
                    {k.lower(): v for k, v in resp.getheaders()},
                    payload,
                )
            except (ConnectionError, http.client.HTTPException, OSError) as exc:
                last_error = exc
                refused = isinstance(exc, ConnectionRefusedError)
                # Non-idempotent requests only retry when the server
                # never saw them; reads retry on any transport failure.
                retryable = method in ("GET", "HEAD") or refused
                if not retryable or attempt + 1 >= attempts:
                    raise ServiceError(
                        f"{method} {path} failed after {attempt + 1} "
                        f"attempt(s): {exc!r}"
                    ) from exc
                time.sleep(
                    backoff_delay_s(
                        _RETRY_BASE_S, 2.0, 1.0,
                        jitter=0.25, seed=0, index=0, attempt=attempt,
                    )
                )
            finally:
                conn.close()
        raise ServiceError(
            f"{method} {path} failed: {last_error!r}"
        )  # pragma: no cover - loop always returns or raises

    def _json(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        timeout_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        body = (
            None
            if payload is None
            else json.dumps(payload).encode("utf-8")
        )
        status, headers, raw = self._request(
            method, path, body=body, timeout_s=timeout_s
        )
        if status >= 400:
            raise self._error_from_response(status, headers, raw)
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(
                f"malformed response for {method} {path}: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise ServiceError(
                f"unexpected response shape for {method} {path}"
            )
        return data

    @staticmethod
    def _error_from_response(
        status: int, headers: Dict[str, str], raw: bytes
    ) -> ServiceError:
        kind, message, extra = "error", raw.decode("utf-8", "replace"), {}
        try:
            parsed = json.loads(raw.decode("utf-8"))
            err = parsed.get("error", {})
            kind = str(err.get("kind", kind))
            message = str(err.get("message", message))
            extra = {
                k: v for k, v in err.items() if k not in ("kind", "message")
            }
        except (UnicodeDecodeError, json.JSONDecodeError, AttributeError):
            pass
        if status == 404:
            return JobNotFoundError(message)
        if status == 429:
            depth = extra.get("depth")
            limit = extra.get("limit")
            return ServiceBusyError(
                message,
                depth=None if depth is None else int(depth),
                limit=None if limit is None else int(limit),
            )
        return ServiceError(f"HTTP {status} ({kind}): {message}")

    def _tenant_path(self, suffix: str = "") -> str:
        return f"/v1/{self.tenant}/jobs{suffix}"

    # -- the ServiceClient mirror --------------------------------------
    def submit(self, spec: Optional[JobSpec] = None, **kwargs: Any) -> str:
        """Enqueue one job over the wire; returns its id.

        Raises :class:`~repro.errors.ServiceBusyError` on 429 (the
        tenant's queue is at depth — the ``Retry-After`` hint is
        honoured by backing off before you resubmit) and
        :class:`~repro.errors.ServiceError` on a structured 422
        (malformed or DRC-rejected netlist upload).
        """
        if spec is None:
            spec = JobSpec(**kwargs)
        elif kwargs:
            raise ServiceError(
                "pass either a JobSpec or keyword fields, not both"
            )
        data = self._json("POST", self._tenant_path(), spec.to_dict())
        job = data.get("job")
        if not isinstance(job, dict) or "id" not in job:
            raise ServiceError("submit response carried no job record")
        return str(job["id"])

    def status(self, job_id: str) -> JobRecord:
        data = self._json("GET", self._tenant_path(f"/{job_id}"))
        return JobRecord.from_dict(data.get("job") or {})

    def jobs(self) -> List[JobRecord]:
        data = self._json("GET", self._tenant_path())
        return [
            JobRecord.from_dict(j)
            for j in data.get("jobs", [])
            if isinstance(j, dict)
        ]

    def cancel(self, job_id: str) -> JobRecord:
        data = self._json("DELETE", self._tenant_path(f"/{job_id}"))
        return JobRecord.from_dict(data.get("job") or {})

    def wait(
        self, job_id: str, timeout_s: Optional[float] = None
    ) -> JobRecord:
        """Poll over the wire until the job is terminal.

        Same backoff curve as :meth:`ServiceClient.wait`; there is no
        inline fallback here — execution is the server's job.
        """
        return _wait_until_terminal(self.status, job_id, timeout_s)

    def result(self, job_id: str) -> Dict[str, Any]:
        """The finished job's pattern artefacts (pickle over the wire)."""
        status, headers, raw = self._request(
            "GET", self._tenant_path(f"/{job_id}/result")
        )
        if status >= 400:
            raise self._error_from_response(status, headers, raw)
        payload = pickle.loads(raw)
        if not isinstance(payload, dict):
            raise ServiceError(
                f"corrupt result artefact for job {job_id}"
            )
        return payload

    def report(self, job_id: str) -> Optional[RunReport]:
        data = self._json("GET", self._tenant_path(f"/{job_id}/report"))
        report = data.get("report")
        if report is None:
            return None
        return RunReport.from_dict(report)

    def events(
        self,
        job_id: str,
        timeout_s: Optional[float] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Stream the job's state transitions as decoded NDJSON events.

        Yields each event dict as the server emits it (the connection
        stays open, chunked); ends after the terminal event.  The
        socket timeout is ``timeout_s`` (default: the client's request
        timeout) — a stalled stream raises instead of hanging.
        """
        query = "" if timeout_s is None else f"?timeout_s={timeout_s}"
        conn = self._connection(
            timeout_s if timeout_s is not None else None
        )
        try:
            conn.request(
                "GET", self._tenant_path(f"/{job_id}/events{query}")
            )
            resp = conn.getresponse()
            if resp.status >= 400:
                raw = resp.read()
                raise self._error_from_response(
                    resp.status,
                    {k.lower(): v for k, v in resp.getheaders()},
                    raw,
                )
            while True:
                line = resp.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                event = json.loads(line.decode("utf-8"))
                if isinstance(event, dict):
                    yield event
        finally:
            conn.close()

    def healthz(self) -> Dict[str, Any]:
        return self._json("GET", "/healthz")

    def metrics(self) -> str:
        status, headers, raw = self._request("GET", "/metrics")
        if status >= 400:
            raise self._error_from_response(status, headers, raw)
        return raw.decode("utf-8")
