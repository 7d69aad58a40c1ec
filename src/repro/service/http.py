"""The job service's wire API, served by the stdlib's threading HTTP server.

This is the wire API the ROADMAP asked for on top of the durable
:class:`~repro.service.jobstore.JobStore`, kept stdlib-only by the
package's no-third-party-deps rule:
:class:`http.server.ThreadingHTTPServer` parses requests, keeps
connections alive and gives every connection its own thread, and one
:class:`~http.server.BaseHTTPRequestHandler` subclass routes each
request and calls the store directly.

Endpoints (all JSON unless noted)::

    POST   /v1/{tenant}/jobs             submit a JobSpec -> 201 + job
    GET    /v1/{tenant}/jobs             list the tenant's jobs
    GET    /v1/{tenant}/jobs/{id}        one job record
    DELETE /v1/{tenant}/jobs/{id}        cancel (queued jobs only)
    GET    /v1/{tenant}/jobs/{id}/result pickle artefact (octet-stream)
    GET    /v1/{tenant}/jobs/{id}/report RunReport JSON
    GET    /v1/{tenant}/jobs/{id}/events NDJSON state-transition stream
                                         (chunked, stays open to terminal)
    GET    /metrics                      Prometheus text exposition
    GET    /healthz                      liveness + tenant count

Three design rules keep the layer honest:

* **A connection is a thread.**  A handler may block on a ``JobStore``
  call — each takes a ``flock`` and fsyncs — because it holds up only
  its own connection, and the traffic is small (a few concurrent
  submits and event streams).  Every request runs under the server's
  telemetry, so ``service.*`` metrics land in the same registry
  ``/metrics`` serves.
* **Errors are structured, never swallowed.**  Every refusal carries a
  JSON ``{"error": {"kind", "message"}}`` body, protocol errors (an
  oversized request line, headers or body, a body without
  ``Content-Length``) included.  Back-pressure surfaces as 429 with a
  ``Retry-After`` hint and the depth/limit in the body; a malformed or
  DRC-failing netlist upload is a 422 with the gating violations
  listed — the job is rejected *before* it can poison a worker.
* **Execution stays out of the transport.**  The server only adapts
  the store onto HTTP; draining belongs to a worker fleet
  (:class:`~repro.service.tenants.TenantFleet`, a plain supervisor, or
  standalone ``python -m repro.service`` workers pointed at a tenant
  directory).
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from ..errors import (
    JobNotFoundError,
    LibraryError,
    NetlistError,
    ServiceBusyError,
    ServiceError,
)
from ..obs import Telemetry, use_telemetry
from ..obs.metrics import MetricsRegistry
from .jobstore import JOB_BACKOFF_BASE_S, JobRecord, JobSpec, JobStore
from .tenants import TenantFleet, TenantManager, validate_tenant_name

SERVER_NAME = "repro-service-http/1.0"

_MAX_REQUEST_LINE = 8 * 1024
_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 32 * 1024 * 1024  # netlist uploads are text, MBs
#: A connection that sends nothing for this long is closed.
_IDLE_TIMEOUT_S = 30.0
#: How often the accept loop looks for :meth:`HttpServerThread.stop`.
_SHUTDOWN_POLL_S = 0.05
#: ``Retry-After`` of a 429: the job requeue backoff, in whole seconds.
_RETRY_AFTER_S = max(1, int(round(JOB_BACKOFF_BASE_S + 0.5)))

#: Keys a submitted JobSpec JSON body may carry; anything else is a
#: loud 400 — a typo'd field silently ignored would be a silent wrong
#: answer later.
_SPEC_KEYS = frozenset(
    (
        "scale",
        "seed",
        "flow_seed",
        "max_patterns",
        "telemetry",
        "chaos",
        "netlist_verilog",
    )
)

_JOBS_RE = re.compile(
    r"/v1/(?P<tenant>[^/]+)/jobs"
    r"(?:/(?P<job>[^/]+?))?"
    r"(?:/(?P<sub>events|result|report))?\Z"
)

#: Latency histogram buckets tuned for request handling (the default
#: registry buckets top out at minutes, which is flow-stage territory).
_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
)


class HttpError(Exception):
    """A structured HTTP failure: status + machine-readable body."""

    def __init__(
        self,
        status: int,
        message: str,
        kind: str = "error",
        headers: Optional[Dict[str, str]] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.kind = kind
        self.message = message
        self.headers = dict(headers or {})
        self.extra = dict(extra or {})

    def response(self) -> Response:
        err: Dict[str, Any] = {"kind": self.kind, "message": self.message}
        err.update(self.extra)
        return Response.json(
            {"error": err}, status=self.status, headers=self.headers
        )


@dataclass
class Response:
    """One response; ``stream=True`` means the handler already wrote."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)
    stream: bool = False

    @classmethod
    def json(
        cls,
        payload: Dict[str, Any],
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> "Response":
        body = (
            json.dumps(payload, sort_keys=True, default=str) + "\n"
        ).encode("utf-8")
        return cls(status=status, body=body, headers=dict(headers or {}))


def _chunk(event: Dict[str, Any]) -> bytes:
    """One NDJSON line framed as one chunk of a chunked body."""
    data = (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")
    return f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n"


def _route_label(path: str) -> str:
    """Bounded-cardinality route label for metrics."""
    if path in ("/healthz", "/metrics"):
        return path
    m = _JOBS_RE.fullmatch(path)
    if m is None:
        return "unknown"
    label = "/v1/{tenant}/jobs"
    if m.group("job"):
        label += "/{id}"
    if m.group("sub"):
        label += "/" + m.group("sub")
    return label


def _gate_netlist(spec: JobSpec) -> None:
    """Parse + DRC-gate an uploaded netlist *before* enqueueing.

    Runs the exact gate the flow itself runs
    (:data:`~repro.core.flow.DRC_GATE_FAMILIES` over the
    reconstructed design), so an accepted upload cannot fail the
    worker-side gate later; a rejected one answers 422 with the
    violations, costing zero worker time.
    """
    from ..core.flow import DRC_GATE_FAMILIES
    from ..drc import DrcContext, run_drc

    try:
        design, _ = spec.build_design_and_plan()
    except (NetlistError, LibraryError) as exc:
        raise HttpError(
            422, f"netlist rejected: {exc}", kind="netlist_error"
        ) from exc
    report = run_drc(
        DrcContext.for_design(design), families=DRC_GATE_FAMILIES
    )
    gating = report.gating_violations("error")
    if gating:
        raise HttpError(
            422,
            f"netlist failed DRC with {len(gating)} unwaived "
            f"ERROR violation(s)",
            kind="drc_rejected",
            extra={
                "violations": [
                    {
                        "rule_id": v.rule_id,
                        "severity": v.severity,
                        "message": v.message,
                    }
                    for v in gating[:20]
                ]
            },
        )


class _Server(ThreadingHTTPServer):
    """The listening socket and what its connection threads share."""

    def __init__(
        self,
        address: Tuple[str, int],
        tenants: TenantManager,
        telemetry: Telemetry,
        event_poll_s: float,
    ) -> None:
        # The stdlib server binds IPv4 only; take the family of *host*.
        self.address_family = socket.getaddrinfo(
            *address, type=socket.SOCK_STREAM
        )[0][0]
        super().__init__(address, _Handler)
        registry = telemetry.metrics
        assert registry is not None  # HttpServerThread enables metrics
        self.tenants = tenants
        self.telemetry = telemetry
        self.registry: MetricsRegistry = registry
        self.event_poll_s = event_poll_s
        self.started_at = time.time()
        #: Set by :meth:`HttpServerThread.stop`; ends every open stream.
        self.stopping = threading.Event()
        #: Serialises the ``http.*`` metric updates across connections.
        self.metrics_lock = threading.Lock()

    def account(
        self, method: str, route: str, status: int, elapsed_s: float
    ) -> None:
        with self.metrics_lock:
            self.registry.counter(
                "http.requests", help="HTTP requests served"
            ).inc(1, method=method, route=route, status=str(status))
            self.registry.histogram(
                "http.request_latency_s",
                help="request handling latency in seconds",
                buckets=_LATENCY_BUCKETS,
            ).observe(elapsed_s, route=route)


class _Handler(BaseHTTPRequestHandler):
    """One connection: the stdlib parses each request, this answers it."""

    server: _Server
    protocol_version = "HTTP/1.1"
    #: Never answer as HTTP/0.9, which has no status line: an error found
    #: before the request's own version is parsed is framed as HTTP/1.1.
    default_request_version = request_version = "HTTP/1.1"
    timeout = _IDLE_TIMEOUT_S
    # Head and body go out as separate writes; do not let the body wait
    # for the head's ACK.
    disable_nagle_algorithm = True
    #: The current request's body, read by :meth:`parse_request`.
    body = b""

    # -- the stdlib's hooks ---------------------------------------------
    def handle(self) -> None:
        try:
            super().handle()
        except (ConnectionError, socket.timeout):
            pass  # the peer hung up or went quiet; nothing to answer

    def log_message(self, format: str, *args: Any) -> None:
        """No access log: ``http.requests`` in ``/metrics`` counts them."""

    def parse_request(self) -> bool:
        """The stdlib's parse, plus the limits it leaves to the server.

        A request line the stdlib would take for HTTP/0.9 (one or two
        words, answered without a status line) or answer with 505
        (``HTTP/2.0``) is a 400 here.
        """
        line = self.raw_requestline
        words = line.split()
        try:
            if len(line) > _MAX_REQUEST_LINE:
                raise HttpError(431, "request line too long")
            if len(words) != 3 or not words[2].startswith(b"HTTP/1."):
                raise HttpError(400, f"malformed request line: {line!r}")
            if not super().parse_request():
                return False
            header_bytes = sum(
                len(key) + len(value) + 4
                for key, value in self.headers.raw_items()
            )
            if header_bytes > _MAX_HEADER_BYTES:
                raise HttpError(431, "headers too large")
            self.body = self._read_body()
        except HttpError as exc:
            self.send_error(exc.status, exc.message)
            return False
        return True

    def _read_body(self) -> bytes:
        if "Transfer-Encoding" in self.headers:
            raise HttpError(
                501, "chunked request bodies are not supported; "
                "send Content-Length"
            )
        length_text = self.headers.get("Content-Length")
        if length_text is None:
            if self.command in ("POST", "PUT", "PATCH"):
                raise HttpError(411, f"{self.command} requires Content-Length")
            return b""
        try:
            length = int(length_text)
        except ValueError:
            raise HttpError(
                400, f"bad Content-Length {length_text!r}"
            ) from None
        if length < 0:
            raise HttpError(400, "negative Content-Length")
        if length > _MAX_BODY_BYTES:
            raise HttpError(
                413,
                f"body of {length} bytes exceeds the "
                f"{_MAX_BODY_BYTES}-byte limit",
            )
        body = self.rfile.read(length)
        if len(body) < length:
            raise ConnectionResetError("peer closed mid-body")
        return body

    def send_error(
        self,
        code: int,
        message: Optional[str] = None,
        explain: Optional[str] = None,
    ) -> None:
        """Answer a request refused before routing, then close."""
        self.close_connection = True
        self._send(HttpError(code, message or self.responses[code][0]).response())

    # -- one request ----------------------------------------------------
    def _serve(self) -> None:
        t0 = time.perf_counter()
        target = urllib.parse.urlsplit(self.path)
        query = {
            k: v[-1] for k, v in urllib.parse.parse_qs(target.query).items()
        }
        try:
            with use_telemetry(self.server.telemetry):
                response = self._dispatch(target.path, query)
        except HttpError as exc:
            response = exc.response()
        except (ConnectionError, socket.timeout):  # client gone mid-stream
            raise
        except Exception as exc:  # noqa: BLE001 - server must answer
            response = HttpError(500, f"internal error: {exc!r}").response()
        self.server.account(
            self.command, _route_label(target.path), response.status,
            time.perf_counter() - t0,
        )
        if response.stream:
            # The handler streamed its own body and the connection
            # state is unknowable (the peer may have hung up);
            # close rather than guess.
            self.close_connection = True
        else:
            self._send(response)

    do_GET = do_POST = do_PUT = do_PATCH = do_DELETE = do_HEAD = _serve

    def _send_head(self, status: int, headers: Dict[str, str]) -> None:
        self.send_response_only(status)
        self.send_header("Server", SERVER_NAME)
        for key, value in headers.items():
            self.send_header(key, value)
        self.end_headers()

    def _send(self, response: Response) -> None:
        self._send_head(response.status, {
            "Content-Type": response.content_type,
            "Content-Length": str(len(response.body)),
            "Connection": "close" if self.close_connection else "keep-alive",
            **response.headers,
        })
        self.wfile.write(response.body)

    # -- routing ----------------------------------------------------------
    def _dispatch(self, path: str, query: Dict[str, str]) -> Response:
        method = self.command
        if path == "/healthz":
            if method != "GET":
                raise HttpError(405, "healthz is GET-only")
            return self._handle_healthz()
        if path == "/metrics":
            if method != "GET":
                raise HttpError(405, "metrics is GET-only")
            return self._handle_metrics()
        m = _JOBS_RE.fullmatch(path)
        if m is None:
            raise HttpError(404, f"no route for {path!r}", kind="no_route")
        tenant, job_id, sub = m.group("tenant", "job", "sub")
        store = self._tenant_store(tenant)
        if job_id is None:
            if method == "POST":
                return self._handle_submit(tenant, store)
            if method == "GET":
                return self._handle_list(store)
            raise HttpError(405, f"{method} not allowed on jobs")
        if sub is None:
            if method == "GET":
                return self._handle_status(store, job_id)
            if method == "DELETE":
                return self._handle_cancel(store, job_id)
            raise HttpError(405, f"{method} not allowed on a job")
        if method != "GET":
            raise HttpError(405, f"{sub} is GET-only")
        if sub == "result":
            return self._handle_result(store, job_id)
        if sub == "report":
            return self._handle_report(store, job_id)
        return self._handle_events(store, tenant, job_id, query)

    def _tenant_store(self, tenant: str) -> JobStore:
        try:
            validate_tenant_name(tenant)
        except ServiceError as exc:
            raise HttpError(
                400, str(exc), kind="invalid_tenant"
            ) from exc
        try:
            return self.server.tenants.store(tenant)
        except ServiceError as exc:
            raise HttpError(500, str(exc), kind="store_unreadable") from exc

    # -- handlers ---------------------------------------------------------
    def _handle_healthz(self) -> Response:
        return Response.json(
            {
                "status": "ok",
                "server": SERVER_NAME,
                "uptime_s": round(time.time() - self.server.started_at, 3),
                "tenants": self.server.tenants.tenant_names(),
            }
        )

    def _handle_metrics(self) -> Response:
        # Refresh per-tenant gauges at scrape time so the exposition
        # reflects the stores as they are now, not as they were at the
        # last submit.
        registry = self.server.registry
        depth_gauge = registry.gauge(
            "service.tenant_queue_depth",
            help="active (non-terminal) jobs per tenant",
        )
        limit_gauge = registry.gauge(
            "service.tenant_queue_limit",
            help="max_queue_depth per tenant",
        )
        for name, store in self.server.tenants.open_stores():
            depth_gauge.set(store.queue_depth(), tenant=name)
            limit_gauge.set(store.config.max_queue_depth, tenant=name)
        with self.server.metrics_lock:
            text = registry.to_prometheus()
        return Response(
            status=200,
            body=text.encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    def _handle_submit(self, tenant: str, store: JobStore) -> Response:
        spec = self._parse_spec()
        if spec.netlist_verilog is not None:
            _gate_netlist(spec)
        try:
            job = store.submit(spec)
        except ServiceBusyError as exc:
            raise HttpError(
                429,
                str(exc),
                kind="busy",
                headers={"Retry-After": str(_RETRY_AFTER_S)},
                extra={"depth": exc.depth, "limit": exc.limit},
            ) from exc
        except ServiceError as exc:
            raise HttpError(400, str(exc), kind="rejected") from exc
        return Response.json(
            {"job": job.to_dict()},
            status=201,
            headers={"Location": f"/v1/{tenant}/jobs/{job.id}"},
        )

    def _parse_spec(self) -> JobSpec:
        ctype = self.headers.get("Content-Type", "application/json")
        if "json" not in ctype:
            raise HttpError(
                400, f"unsupported content type {ctype!r}",
                kind="bad_request",
            )
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(
                400, f"body is not valid JSON: {exc}", kind="bad_json"
            ) from exc
        if not isinstance(payload, dict):
            raise HttpError(
                400, "body must be a JSON object (a JobSpec)",
                kind="bad_json",
            )
        unknown = sorted(set(payload) - _SPEC_KEYS)
        if unknown:
            raise HttpError(
                400,
                f"unknown JobSpec field(s): {', '.join(unknown)} "
                f"(accepted: {', '.join(sorted(_SPEC_KEYS))})",
                kind="bad_spec",
            )
        try:
            return JobSpec.from_dict(payload)
        except (TypeError, ValueError, AttributeError) as exc:
            raise HttpError(
                400, f"invalid JobSpec: {exc}", kind="bad_spec"
            ) from exc

    def _handle_list(self, store: JobStore) -> Response:
        jobs = store.list_jobs()
        return Response.json(
            {
                "jobs": [job.to_dict() for job in jobs],
                "queue_depth": sum(1 for j in jobs if not j.terminal),
                "queue_limit": store.config.max_queue_depth,
            }
        )

    def _handle_status(self, store: JobStore, job_id: str) -> Response:
        job = self._get_job(store, job_id)
        return Response.json({"job": job.to_dict()})

    def _handle_cancel(self, store: JobStore, job_id: str) -> Response:
        try:
            job = store.cancel(job_id)
        except JobNotFoundError as exc:
            raise HttpError(404, str(exc), kind="not_found") from exc
        except ServiceError as exc:
            raise HttpError(409, str(exc), kind="conflict") from exc
        return Response.json({"job": job.to_dict()})

    def _handle_result(self, store: JobStore, job_id: str) -> Response:
        job = self._get_job(store, job_id)
        try:
            with open(store.result_path(job_id), "rb") as fh:
                blob = fh.read()
        except FileNotFoundError:
            raise HttpError(
                404,
                f"job {job_id} has no result artefact "
                f"(state: {job.state})",
                kind="result_missing",
            ) from None
        return Response(
            status=200,
            body=blob,
            content_type="application/octet-stream",
        )

    def _handle_report(self, store: JobStore, job_id: str) -> Response:
        self._get_job(store, job_id)
        report = store.load_report(job_id)
        if report is None:
            raise HttpError(
                404,
                f"job {job_id} has no RunReport yet",
                kind="report_missing",
            )
        return Response.json({"report": report.to_dict()})

    @staticmethod
    def _get_job(store: JobStore, job_id: str) -> JobRecord:
        try:
            return store.get(job_id)
        except JobNotFoundError as exc:
            raise HttpError(404, str(exc), kind="not_found") from exc

    # -- the event stream --------------------------------------------------
    def _handle_events(
        self,
        store: JobStore,
        tenant: str,
        job_id: str,
        query: Dict[str, str],
    ) -> Response:
        """Chunked NDJSON tail of the job's state transitions.

        The watcher polls the job's durable record (reads are
        lock-free: every store write is an atomic rename) and emits
        one event per observed change of the job's state or attempt
        counter.  The first event is the current
        snapshot, so a late subscriber still sees a well-formed,
        in-order sequence; the stream ends with the terminal event, or
        early when the server stops.
        """
        job = self._get_job(store, job_id)  # 404 before headers
        try:
            timeout_s = float(query.get("timeout_s", "600"))
        except ValueError:
            raise HttpError(400, "timeout_s must be a number") from None

        server = self.server
        streams = server.registry.gauge(
            "http.event_streams_active",
            help="currently open /events NDJSON streams",
        )
        with server.metrics_lock:
            streams.inc(1, tenant=tenant)
        self._send_head(200, {
            "Content-Type": "application/x-ndjson",
            "Transfer-Encoding": "chunked",
            "Connection": "close",
        })
        seq = 0
        last: Optional[Tuple[str, int]] = None
        deadline = time.monotonic() + timeout_s
        try:
            while True:
                observed = (job.state, job.attempts)
                if observed != last:
                    last = observed
                    self.wfile.write(_chunk({
                        "seq": seq,
                        "ts": round(time.time(), 6),
                        "job": job.id,
                        "state": job.state,
                        "terminal": job.terminal,
                        "error": job.error,
                        "attempts": job.attempts,
                    }))
                    seq += 1
                if job.terminal:
                    break
                if time.monotonic() > deadline:
                    self.wfile.write(_chunk({
                        "seq": seq,
                        "ts": round(time.time(), 6),
                        "job": job.id,
                        "event": "timeout",
                        "state": job.state,
                        "terminal": False,
                    }))
                    break
                if server.stopping.wait(server.event_poll_s):
                    break
                try:
                    job = store.get(job_id)
                except (JobNotFoundError, ServiceError):
                    break  # record vanished; end the stream cleanly
            self.wfile.write(b"0\r\n\r\n")
        finally:
            with server.metrics_lock:
                streams.inc(-1, tenant=tenant)
        return Response(status=200, stream=True)


class HttpServerThread:
    """Serve the wire API (and run an optional fleet) off-thread.

    The accept loop lives in a daemon thread and every connection gets
    a thread of its own, so synchronous callers — the CLI, tests, the
    benchmark — can start a real server, talk to it over sockets, and
    tear it down deterministically::

        tenants = TenantManager(data_root)
        with HttpServerThread(tenants, fleet=TenantFleet(tenants)) as srv:
            client = HttpServiceClient(srv.base_url, tenant="default")
            ...
    """

    def __init__(
        self,
        tenants: TenantManager,
        host: str = "127.0.0.1",
        port: int = 0,
        fleet: Optional[TenantFleet] = None,
        event_poll_s: float = 0.05,
    ) -> None:
        self.tenants = tenants
        self.host = host
        self.port = port
        self.fleet = fleet
        self.event_poll_s = event_poll_s
        #: Its registry is what ``/metrics`` serves.
        self.telemetry = Telemetry(tracing=False, metrics=True)
        if fleet is not None:
            # Fleet activity (jobs completed, leases expired, inline
            # executions) should land in the same /metrics exposition.
            fleet.telemetry = self.telemetry
        self._server: Optional[_Server] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "HttpServerThread":
        if self._server is not None:
            raise ServiceError("server already started")
        try:
            server = _Server(
                (self.host, self.port),
                self.tenants,
                self.telemetry,
                self.event_poll_s,
            )
        except OSError as exc:
            raise ServiceError(
                f"HTTP server failed to start: {exc!r}"
            ) from exc
        self.host, self.port = server.socket.getsockname()[:2]
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever,
            args=(_SHUTDOWN_POLL_S,),
            name="repro-http-server",
            daemon=True,
        )
        self._thread.start()
        if self.fleet is not None:
            self.fleet.start()
        return self

    def stop(self) -> None:
        if self.fleet is not None:
            self.fleet.stop()
        server, thread = self._server, self._thread
        if server is not None and thread is not None:
            server.stopping.set()
            server.shutdown()
            thread.join()
            server.server_close()
        self._server = None
        self._thread = None

    def __enter__(self) -> "HttpServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
