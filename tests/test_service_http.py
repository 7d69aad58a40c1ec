"""Tests of the HTTP front-end: routing, tenancy, gating, streaming.

A real server runs on a loopback socket for every test (no mocks — what
the server puts on the wire *is* the subject under test), talked to
through :class:`HttpServiceClient` and, where the raw status line and
headers matter (back-pressure, malformed requests), plain
``http.client`` connections or raw sockets.  ``TestWireContract`` pins
what the server adds to the stdlib's HTTP handling: size limits,
body framing, request-line checks, JSON error bodies, keep-alive and
an ``/events`` stream that ends when the server stops.

The flow-running tests keep to ``n_workers=0`` fleets (the in-process
serial path) so this file stays in the tier-1 lane; the subprocess +
SIGKILL variant lives with the other chaos tests.
"""

from __future__ import annotations

import gc
import http.client
import io
import json
import socket
import threading
import time
import warnings

import numpy as np
import pytest

from repro.core import run_noise_tolerant_flow
from repro.errors import (
    JobNotFoundError,
    ServiceBusyError,
    ServiceError,
)
from repro.netlist.verilog import write_verilog
from repro.service import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_QUEUED,
    HttpServerThread,
    HttpServiceClient,
    JobSpec,
    ServiceClient,
    ServiceConfig,
    TenantFleet,
    TenantManager,
    validate_tenant_name,
)
from repro.soc import build_turbo_eagle

from .test_service import FakeTime

QUEUE_DEPTH = 3


@pytest.fixture
def server(tmp_path):
    """A live server with *no* fleet — submitted jobs stay queued."""
    tenants = TenantManager(
        str(tmp_path / "data"),
        default_config=ServiceConfig(max_queue_depth=QUEUE_DEPTH),
    )
    with HttpServerThread(tenants) as srv:
        yield srv, tenants


def raw_request(base_url, method, path, body=None, headers=None):
    """One raw request; returns (status, headers-dict, body-bytes)."""
    host_port = base_url[len("http://"):]
    conn = http.client.HTTPConnection(host_port, timeout=30)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        return (
            resp.status,
            {k.lower(): v for k, v in resp.getheaders()},
            resp.read(),
        )
    finally:
        conn.close()


def raw_exchange(base_url, data):
    """Send *data* on a fresh socket and read until the server closes.

    Returns ``(status_line, headers-dict, body-bytes)``; for the cases
    below the server always closes, so the read is the whole answer.
    """
    host, port = base_url[len("http://"):].rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return lines[0], headers, body


# ----------------------------------------------------------------------
# plumbing: health, routing, request validation
# ----------------------------------------------------------------------
class TestPlumbing:
    def test_healthz(self, server):
        srv, _ = server
        health = HttpServiceClient(srv.base_url).healthz()
        assert health["status"] == "ok"
        assert "uptime_s" in health

    def test_unknown_route_is_404(self, server):
        srv, _ = server
        status, _, body = raw_request(srv.base_url, "GET", "/nope")
        assert status == 404
        assert json.loads(body)["error"]["kind"] == "no_route"

    def test_method_not_allowed_is_405(self, server):
        srv, _ = server
        status, _, _ = raw_request(
            srv.base_url, "PUT", "/v1/t0/jobs",
            body=b"{}", headers={"Content-Type": "application/json"},
        )
        assert status == 405

    def test_bad_json_body_is_400(self, server):
        srv, _ = server
        status, _, body = raw_request(
            srv.base_url, "POST", "/v1/t0/jobs",
            body=b"{not json", headers={"Content-Type": "application/json"},
        )
        assert status == 400
        assert json.loads(body)["error"]["kind"] == "bad_json"

    def test_unknown_spec_field_is_400_and_named(self, server):
        srv, _ = server
        status, _, body = raw_request(
            srv.base_url, "POST", "/v1/t0/jobs",
            body=json.dumps({"scael": "tiny"}).encode(),
            headers={"Content-Type": "application/json"},
        )
        assert status == 400
        err = json.loads(body)["error"]
        assert err["kind"] == "bad_spec"
        assert "scael" in err["message"]

    def test_invalid_tenant_name_is_400(self, server):
        srv, _ = server
        client = HttpServiceClient(srv.base_url, tenant="NOT-Valid!")
        with pytest.raises(ServiceError) as err:
            client.submit(scale="tiny")
        assert "invalid tenant name" in str(err.value)

    def test_tenant_name_validation(self):
        assert validate_tenant_name("lab-a_1") == "lab-a_1"
        for bad in ("", "UPPER", "-lead", "a" * 33, "dot.dot", "a/b"):
            with pytest.raises(ServiceError):
                validate_tenant_name(bad)

    def test_unknown_job_is_404(self, server):
        srv, _ = server
        client = HttpServiceClient(srv.base_url, tenant="t0")
        with pytest.raises(JobNotFoundError):
            client.status("j-nope")


# ----------------------------------------------------------------------
# the wire contract: limits, framing, connection rules
# ----------------------------------------------------------------------
_PADDED_HEADERS = b"".join(
    b"X-Pad-%d: %s\r\n" % (i, b"a" * 8000) for i in range(9)
)


class TestWireContract:
    """What a client sees on the socket, pinned byte-level where the
    server, not the client library, decides it."""

    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (b"GET /" + b"a" * 9000 + b" HTTP/1.1\r\n", 431),
            (b"GET /healthz HTTP/1.1\r\n" + _PADDED_HEADERS + b"\r\n", 431),
            (b"POST /v1/t0/jobs HTTP/1.1\r\n"
             b"Content-Length: 33554433\r\n\r\n", 413),
            (b"POST /v1/t0/jobs HTTP/1.1\r\n\r\n", 411),
            (b"POST /v1/t0/jobs HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
             400),
            (b"POST /v1/t0/jobs HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
             400),
            (b"POST /v1/t0/jobs HTTP/1.1\r\n"
             b"Transfer-Encoding: chunked\r\n\r\n", 501),
            (b"GARBAGE\r\n", 400),
            (b"GET /healthz\r\n", 400),
            (b"GET /healthz HTTP/2.0\r\n", 400),
        ],
        ids=[
            "request-line-over-8k", "headers-over-64k", "body-over-32m",
            "post-without-length", "length-not-a-number",
            "length-negative", "transfer-encoding", "one-word-line",
            "two-word-line", "http-2",
        ],
    )
    def test_rejected_request_gets_json_error_and_close(
        self, server, capfd, request_bytes, status
    ):
        srv, _ = server
        status_line, headers, body = raw_exchange(srv.base_url, request_bytes)
        assert status_line.startswith(f"HTTP/1.1 {status} ")
        assert headers["connection"] == "close"
        assert headers["server"] == "repro-service-http/1.0"
        assert headers["content-type"] == "application/json"
        assert int(headers["content-length"]) == len(body)
        error = json.loads(body)["error"]
        assert error["kind"] == "error" and error["message"]
        assert capfd.readouterr().err == ""  # no access log, no traceback

    @pytest.mark.parametrize("method", ["PATCH", "HEAD", "DELETE"])
    def test_healthz_rejects_other_methods(self, server, method):
        srv, _ = server
        status, _, body = raw_request(srv.base_url, method, "/healthz")
        assert status == 405
        if method != "HEAD":  # http.client reads no body for HEAD
            assert json.loads(body)["error"]["message"] == (
                "healthz is GET-only"
            )

    def test_keep_alive_serves_two_gets_on_one_connection(
        self, server, capfd
    ):
        srv, _ = server
        conn = http.client.HTTPConnection(
            srv.base_url[len("http://"):], timeout=30
        )
        sockets = []
        try:
            for _ in range(2):
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                assert resp.status == 200
                assert resp.getheader("Connection") == "keep-alive"
                assert resp.getheader("Server") == "repro-service-http/1.0"
                assert json.loads(resp.read())["status"] == "ok"
                sockets.append(conn.sock)
        finally:
            conn.close()
        assert sockets[0] is sockets[1]
        assert capfd.readouterr().err == ""

    def test_http10_request_closes(self, server):
        srv, _ = server
        status_line, headers, body = raw_exchange(
            srv.base_url, b"GET /healthz HTTP/1.0\r\n\r\n"
        )
        assert status_line.startswith("HTTP/1.1 200 ")
        assert headers["connection"] == "close"
        assert json.loads(body)["status"] == "ok"

    def test_events_timeout_must_be_a_number(self, server):
        srv, _ = server
        job_id = HttpServiceClient(srv.base_url, tenant="t0").submit(
            scale="tiny"
        )
        status, _, body = raw_request(
            srv.base_url, "GET", f"/v1/t0/jobs/{job_id}/events?timeout_s=abc"
        )
        assert status == 400
        assert "timeout_s" in json.loads(body)["error"]["message"]

    def test_stop_ends_an_open_event_stream(self, tmp_path):
        """A job that never runs keeps its stream open until the server
        stops; stopping ends it promptly."""
        srv = HttpServerThread(TenantManager(str(tmp_path / "data"))).start()
        client = HttpServiceClient(srv.base_url, tenant="t0")
        job_id = client.submit(scale="tiny")
        events = []
        first = threading.Event()

        def follow():
            try:
                for event in client.events(job_id, timeout_s=60):
                    events.append(event)
                    first.set()
            except (http.client.HTTPException, OSError):
                pass  # a stream cut short also ends the iterator

        follower = threading.Thread(target=follow)
        follower.start()
        try:
            assert first.wait(30)
        finally:
            t0 = time.monotonic()
            srv.stop()
            follower.join(timeout=5)
        assert time.monotonic() - t0 < 5
        assert not follower.is_alive()
        assert events[0]["state"] == JOB_QUEUED


# ----------------------------------------------------------------------
# submit / status / cancel over the wire
# ----------------------------------------------------------------------
class TestJobsApi:
    def test_submit_status_list_roundtrip(self, server):
        srv, tenants = server
        client = HttpServiceClient(srv.base_url, tenant="t0")
        job_id = client.submit(scale="tiny", seed=9, max_patterns=10)
        job = client.status(job_id)
        assert job.state == JOB_QUEUED
        assert job.spec.seed == 9
        assert [j.id for j in client.jobs()] == [job_id]
        # the wire API wrote a perfectly ordinary store on disk
        assert tenants.store("t0").get(job_id).spec.max_patterns == 10

    def test_cancel_queued_job_then_conflict(self, server):
        srv, tenants = server
        client = HttpServiceClient(srv.base_url, tenant="t0")
        job_id = client.submit(scale="tiny")
        job = client.cancel(job_id)
        assert job.state == JOB_CANCELLED
        # cancellation freed the back-pressure slot
        assert tenants.store("t0").queue_depth() == 0
        # a second cancel is a structured conflict, not a surprise
        with pytest.raises(ServiceError) as err:
            client.cancel(job_id)
        assert "409" in str(err.value)

    def test_cancel_unknown_job_is_404(self, server):
        srv, _ = server
        client = HttpServiceClient(srv.base_url, tenant="t0")
        with pytest.raises(JobNotFoundError):
            client.cancel("j-nope")

    def test_result_of_unfinished_job_is_404(self, server):
        srv, _ = server
        client = HttpServiceClient(srv.base_url, tenant="t0")
        job_id = client.submit(scale="tiny")
        with pytest.raises(ServiceError) as err:
            client.result(job_id)
        assert "no result artefact" in str(err.value)

    def test_client_closes_every_connection(self, server):
        """No request leaves its socket for the garbage collector,
        which would close it with a ResourceWarning."""
        srv, _ = server
        client = HttpServiceClient(srv.base_url, tenant="t0")
        job_id = client.submit(scale="tiny")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            client.healthz()
            client.jobs()
            client.status(job_id)
            for unfinished in (client.result, client.report):
                with pytest.raises(JobNotFoundError):
                    unfinished(job_id)
            client.metrics()
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert [str(w.message) for w in leaks] == []


# ----------------------------------------------------------------------
# netlist uploads: DRC-gated server-side
# ----------------------------------------------------------------------
class TestNetlistGate:
    def test_unparseable_netlist_is_422(self, server):
        srv, _ = server
        client = HttpServiceClient(srv.base_url, tenant="t0")
        with pytest.raises(ServiceError) as err:
            client.submit(netlist_verilog="module busted (; endmodule")
        msg = str(err.value)
        assert "422" in msg and "netlist rejected" in msg

    def test_placement_free_netlist_is_422(self, server):
        srv, _ = server
        client = HttpServiceClient(srv.base_url, tenant="t0")
        verilog = (
            "module bare (clk_a, d, q);\n"
            "  input clk_a, d;\n  output q;\n"
            "  DFFX1 f0 (.D(d), .CK(clk_a), .Q(q));\n"
            "endmodule\n"
        )
        with pytest.raises(ServiceError) as err:
            client.submit(netlist_verilog=verilog)
        assert "placement metadata" in str(err.value)

    def test_valid_netlist_is_accepted(self, server):
        srv, _ = server
        design = build_turbo_eagle(scale="tiny", seed=2007)
        buf = io.StringIO()
        write_verilog(design.netlist, buf)
        client = HttpServiceClient(srv.base_url, tenant="t0")
        job_id = client.submit(netlist_verilog=buf.getvalue())
        job = client.status(job_id)
        assert job.state == JOB_QUEUED
        assert job.spec.netlist_verilog == buf.getvalue()


# ----------------------------------------------------------------------
# specs no worker could run are refused at submit, by both clients
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["store", "http"])
@pytest.mark.parametrize(
    "spec, message",
    [
        (JobSpec(scale="huge"), "unknown scale 'huge'"),
        (JobSpec(max_patterns=0), "max_patterns must be at least 1"),
        (JobSpec(max_patterns=-5), "max_patterns must be at least 1"),
    ],
    ids=["unknown-scale", "zero-patterns", "negative-patterns"],
)
def test_unrunnable_spec_is_rejected_at_submit(server, kind, spec, message):
    srv, tenants = server
    if kind == "http":
        client = HttpServiceClient(srv.base_url, tenant="t0")
    else:
        client = ServiceClient(tenants.store("t0"))
    with pytest.raises(ServiceError) as err:
        client.submit(spec)
    assert message in str(err.value)
    if kind == "http":
        assert "HTTP 400 (rejected)" in str(err.value)
    assert client.jobs() == []


# ----------------------------------------------------------------------
# per-tenant back-pressure (satellite: concurrent 429s)
# ----------------------------------------------------------------------
class TestBackPressure:
    def test_429_carries_retry_after_and_depth(self, server):
        srv, _ = server
        client = HttpServiceClient(srv.base_url, tenant="full")
        for _ in range(QUEUE_DEPTH):
            client.submit(scale="tiny")
        status, headers, body = raw_request(
            srv.base_url, "POST", "/v1/full/jobs",
            body=json.dumps({"scale": "tiny"}).encode(),
            headers={"Content-Type": "application/json"},
        )
        assert status == 429
        assert int(headers["retry-after"]) >= 1
        err = json.loads(body)["error"]
        assert err["kind"] == "busy"
        assert (err["depth"], err["limit"]) == (QUEUE_DEPTH, QUEUE_DEPTH)
        # and the typed client surfaces the same thing
        with pytest.raises(ServiceBusyError):
            client.submit(scale="tiny")

    def test_concurrent_submits_exactly_depth_accepted(self, server):
        """N parallel submits against an empty tenant: exactly
        ``max_queue_depth`` get 201, the rest get 429 + Retry-After,
        and the store never exceeds the limit."""
        srv, tenants = server
        n_clients = QUEUE_DEPTH + 5
        results = [None] * n_clients
        barrier = threading.Barrier(n_clients)

        def submit(i):
            barrier.wait()
            results[i] = raw_request(
                srv.base_url, "POST", "/v1/burst/jobs",
                body=json.dumps({"scale": "tiny", "seed": i}).encode(),
                headers={"Content-Type": "application/json"},
            )

        threads = [
            threading.Thread(target=submit, args=(i,))
            for i in range(n_clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        statuses = sorted(status for status, _, _ in results)
        assert statuses == [201] * QUEUE_DEPTH + [429] * 5
        for status, headers, _ in results:
            if status == 429:
                assert "retry-after" in headers
        assert tenants.store("burst").queue_depth() == QUEUE_DEPTH

    def test_backpressure_is_per_tenant(self, server):
        srv, _ = server
        noisy = HttpServiceClient(srv.base_url, tenant="noisy")
        for _ in range(QUEUE_DEPTH):
            noisy.submit(scale="tiny")
        with pytest.raises(ServiceBusyError):
            noisy.submit(scale="tiny")
        # the neighbour is unaffected
        quiet = HttpServiceClient(srv.base_url, tenant="quiet")
        assert quiet.submit(scale="tiny").startswith("j")


# ----------------------------------------------------------------------
# polling backoff
# ----------------------------------------------------------------------
class TestWaitBackoff:
    def test_http_wait_backs_off_to_the_cap(self, server, monkeypatch):
        """A job that stays queued for 60 s costs ~30 capped polls over
        the wire, the same curve as the file-backed client."""
        import repro.service.client as client_mod

        srv, _ = server
        client = HttpServiceClient(srv.base_url, tenant="t0")
        job_id = client.submit(scale="tiny")
        fake = FakeTime()
        monkeypatch.setattr(client_mod, "time", fake)
        with pytest.raises(ServiceError):
            client.wait(job_id, timeout_s=60.0)
        assert len(fake.sleeps) < 60.0 / 0.2 / 5
        assert fake.sleeps == sorted(fake.sleeps)
        assert fake.sleeps[0] == pytest.approx(0.2)
        assert max(fake.sleeps) == pytest.approx(2.0)


# ----------------------------------------------------------------------
# metrics exposition
# ----------------------------------------------------------------------
class TestMetrics:
    def test_prometheus_exposition(self, server):
        srv, _ = server
        client = HttpServiceClient(srv.base_url, tenant="t0")
        client.healthz()
        client.submit(scale="tiny")
        text = client.metrics()
        assert "# TYPE repro_http_requests_total counter" in text
        assert 'route="/v1/{tenant}/jobs"' in text
        assert 'repro_service_tenant_queue_depth{tenant="t0"} 1.0' in text
        assert 'repro_service_tenant_queue_limit{tenant="t0"}' in text
        assert "repro_http_request_latency_s_bucket" in text
        # service-layer metrics land in the same registry
        assert "repro_service_jobs_submitted_total" in text

    def test_concurrent_connections_lose_no_request_count(self, server):
        """Every connection thread updates ``http.requests`` and the
        latency histogram; under forced thread switching none of the
        updates is lost."""
        import sys

        srv, _ = server
        n_threads, n_requests = 8, 25

        def hammer():
            for _ in range(n_requests):
                raw_request(srv.base_url, "GET", "/healthz")

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        total = n_threads * n_requests
        text = HttpServiceClient(srv.base_url).metrics()
        assert (
            'repro_http_requests_total{method="GET",route="/healthz",'
            f'status="200"}} {float(total)}'
        ) in text
        assert (
            f'repro_http_request_latency_s_count{{route="/healthz"}} {total}'
        ) in text


# ----------------------------------------------------------------------
# end to end: execution, events, bit-identity (inline fleet)
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_http_job_events_and_bit_identity(self, tmp_path):
        tenants = TenantManager(str(tmp_path / "data"))
        fleet = TenantFleet(tenants, n_workers=0)
        with HttpServerThread(tenants, fleet=fleet) as srv:
            client = HttpServiceClient(srv.base_url, tenant="e2e")
            job_id = client.submit(scale="tiny", seed=2007, max_patterns=24)
            events = list(client.events(job_id, timeout_s=300))
            job = client.wait(job_id, timeout_s=300)
            assert job.state == JOB_DONE
            result = client.result(job_id)
            report = client.report(job_id)
        # the event stream is a well-formed, in-order NDJSON tail
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert events[-1]["terminal"] is True
        assert events[-1]["state"] == JOB_DONE
        rank = {"queued": 0, "running": 1, "done": 2}
        ranks = [rank[e["state"]] for e in events]
        assert ranks == sorted(ranks)
        # bit-identical to the single-process flow
        design = build_turbo_eagle(scale="tiny", seed=2007)
        ref, _ = run_noise_tolerant_flow(design, seed=1, max_patterns=24)
        assert np.array_equal(result["matrix"], ref.pattern_set.as_matrix())
        assert report.status == "completed"

    def test_unreadable_tenant_store_spares_the_others(self, tmp_path):
        """A tenant store corrupted while serving answers 500 for that
        tenant alone: the fleet keeps draining the others and
        ``/metrics`` keeps answering."""
        tenants = TenantManager(str(tmp_path / "data"))
        fleet = TenantFleet(tenants, n_workers=0)
        with pytest.warns(RuntimeWarning, match="skipping tenant 'bad'"):
            with HttpServerThread(tenants, fleet=fleet) as srv:
                bad = tmp_path / "data" / "tenants" / "bad"
                bad.mkdir()
                (bad / "config.json").write_text("{not json")
                status, _, _ = raw_request(srv.base_url, "GET", "/metrics")
                assert status == 200
                status, _, body = raw_request(
                    srv.base_url, "GET", "/v1/bad/jobs"
                )
                assert status == 500
                assert json.loads(body)["error"]["kind"] == "store_unreadable"
                client = HttpServiceClient(srv.base_url, tenant="good")
                job_id = client.submit(scale="tiny", max_patterns=8)
                assert client.wait(job_id, timeout_s=120).state == JOB_DONE

    def test_jobs_cli_tenant_json_and_cancel(self, server, capsys):
        """``repro jobs --tenant --json`` and ``--cancel`` read and
        mutate the same stores the wire API manages."""
        from repro.cli import main

        srv, tenants = server
        client = HttpServiceClient(srv.base_url, tenant="ops")
        job_id = client.submit(scale="tiny")
        data_root = tenants.data_root
        assert main(["jobs", data_root, "--tenant", "ops", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [j["id"] for j in payload["jobs"]] == [job_id]
        assert main(
            ["jobs", data_root, "--tenant", "ops", "--cancel", job_id]
        ) == 0
        assert "cancelled" in capsys.readouterr().out
        assert client.status(job_id).state == JOB_CANCELLED
        # unknown tenants and bad names are clean CLI errors
        assert main(["jobs", data_root, "--tenant", "ghost"]) == 2
        assert main(["jobs", data_root, "--tenant", "NO!"]) == 2
