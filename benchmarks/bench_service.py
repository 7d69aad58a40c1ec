"""Service overhead: submit→done latency vs the in-process flow.

The job service wraps the flow in durable bookkeeping — fsync'd job
records, a lease grant and its renewals, a checkpoint written after
every stage so a reclaimed job resumes where it stopped.  That buys
crash survival; the question this bench answers is what it costs when
nothing crashes.

Measured on one tiny job (three stages under one lease):

* ``inproc``   — plain ``run_noise_tolerant_flow``, the baseline;
* ``inline``   — submit + ``ServiceClient.wait`` draining the job in
  the client process (the graceful-degradation path);
* ``workers1/2/4`` — submit + a supervised worker fleet, end to end
  (process spawn, claim, the job's flow, fenced commit);
* ``http``     — submit over the wire to a live :mod:`repro.service.http`
  server with an in-process tenant fleet: the full stack of request
  parsing, a connection thread per request, JSON marshalling and
  poll-with-backoff waiting, plus a request-throughput probe against
  ``GET /healthz``.

Gates: the inline service path must stay within
``MAX_INLINE_OVERHEAD`` of the in-process flow, and the HTTP path
within ``MAX_HTTP_OVERHEAD`` of the *inline* path — the wire adapter
may not dominate the durability machinery it fronts.  (Worker-fleet
latency includes Python interpreter spawns per worker and is reported,
not gated.)

Emits machine-readable ``BENCH_service.json`` at the repo root.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro import build_turbo_eagle, run_noise_tolerant_flow
from repro.service import (
    JobSpec,
    JobStore,
    ServiceClient,
    ServiceConfig,
    ServiceSupervisor,
)

_OUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_service.json"

#: Inline service time may be at most this multiple of in-process time.
#: The job adds fsync'd records, a lease, stage checkpoints and the
#: result write around one flow run; 3x leaves headroom for CI noise
#: while still catching a regression that makes the bookkeeping
#: dominate.
MAX_INLINE_OVERHEAD = 3.0

#: HTTP submit→done may be at most this multiple of the inline path.
#: The wire adds per-poll TCP connections and JSON/pickle marshalling
#: around the same execution engine; on a seconds-long job that should
#: be close to 1x, with 3.0x as the regression tripwire.
MAX_HTTP_OVERHEAD = 3.0


def _run_inproc() -> tuple[float, np.ndarray]:
    design = build_turbo_eagle(scale="tiny", seed=2007)
    t0 = time.perf_counter()
    result, _ = run_noise_tolerant_flow(design, seed=1)
    return time.perf_counter() - t0, result.pattern_set.as_matrix()


def _run_inline(tmp: Path) -> tuple[float, np.ndarray]:
    client = ServiceClient(str(tmp / "inline"))
    t0 = time.perf_counter()
    job_id = client.submit(JobSpec(scale="tiny"))
    client.wait(job_id, timeout_s=600)
    elapsed = time.perf_counter() - t0
    return elapsed, client.result(job_id)["matrix"]


def _run_fleet(tmp: Path, n_workers: int) -> tuple[float, np.ndarray]:
    store = JobStore(
        str(tmp / f"fleet{n_workers}"), ServiceConfig(lease_ttl_s=30.0)
    )
    client = ServiceClient(store)
    t0 = time.perf_counter()
    job_id = client.submit(JobSpec(scale="tiny"))
    with ServiceSupervisor(store, n_workers=n_workers) as sup:
        sup.run_until_drained(timeout_s=600)
    elapsed = time.perf_counter() - t0
    return elapsed, client.result(job_id)["matrix"]


def _throughput_fleet(tmp: Path, n_workers: int, n_jobs: int) -> float:
    """Wall time to drain *n_jobs* identical jobs with *n_workers*."""
    store = JobStore(
        str(tmp / f"tp{n_workers}"),
        ServiceConfig(lease_ttl_s=30.0, max_queue_depth=n_jobs + 1),
    )
    client = ServiceClient(store)
    for _ in range(n_jobs):
        client.submit(JobSpec(scale="tiny"))
    t0 = time.perf_counter()
    with ServiceSupervisor(store, n_workers=n_workers) as sup:
        sup.run_until_drained(timeout_s=900)
    return time.perf_counter() - t0


def _run_http(tmp: Path) -> tuple[float, float, np.ndarray]:
    """Submit→done over the wire; also probes request throughput.

    Returns ``(job_elapsed_s, healthz_rps, matrix)``.
    """
    from repro.service import (
        HttpServerThread,
        HttpServiceClient,
        TenantFleet,
        TenantManager,
    )

    tenants = TenantManager(str(tmp / "http"))
    fleet = TenantFleet(tenants, n_workers=0)
    with HttpServerThread(tenants, fleet=fleet) as srv:
        client = HttpServiceClient(srv.base_url, tenant="bench")
        t0 = time.perf_counter()
        job_id = client.submit(JobSpec(scale="tiny"))
        client.wait(job_id, timeout_s=600)
        elapsed = time.perf_counter() - t0
        matrix = client.result(job_id)["matrix"]
        # request throughput: healthz round trips, fresh connection
        # each (the client's per-request model), for one second
        n_requests = 0
        t1 = time.perf_counter()
        while time.perf_counter() - t1 < 1.0:
            client.healthz()
            n_requests += 1
        rps = n_requests / (time.perf_counter() - t1)
    return elapsed, rps, matrix


def test_service_overhead_bounded(tmp_path):
    inproc_s, reference = _run_inproc()
    inline_s, inline_matrix = _run_inline(tmp_path)
    assert np.array_equal(inline_matrix, reference)

    http_s, http_rps, http_matrix = _run_http(tmp_path)
    assert np.array_equal(http_matrix, reference)

    fleet: dict[int, float] = {}
    for n_workers in (1, 2, 4):
        fleet_s, fleet_matrix = _run_fleet(tmp_path, n_workers)
        assert np.array_equal(fleet_matrix, reference)
        fleet[n_workers] = fleet_s

    n_jobs = 4
    tp_serial_s = _throughput_fleet(tmp_path, 1, n_jobs)
    tp_parallel_s = _throughput_fleet(tmp_path, 4, n_jobs)

    inline_overhead = inline_s / max(1e-9, inproc_s)
    http_overhead = http_s / max(1e-9, inline_s)
    payload = {
        "design": "turbo_eagle_tiny",
        "latency_s": {
            "inproc": round(inproc_s, 3),
            "inline": round(inline_s, 3),
            "http": round(http_s, 3),
            **{
                f"workers{n}": round(s, 3) for n, s in fleet.items()
            },
        },
        "inline_overhead_x": round(inline_overhead, 3),
        "max_inline_overhead_x": MAX_INLINE_OVERHEAD,
        "http_overhead_x": round(http_overhead, 3),
        "max_http_overhead_x": MAX_HTTP_OVERHEAD,
        "http_healthz_rps": round(http_rps, 1),
        "throughput": {
            "n_jobs": n_jobs,
            "drain_s_workers1": round(tp_serial_s, 3),
            "drain_s_workers4": round(tp_parallel_s, 3),
            "speedup_4v1": round(
                tp_serial_s / max(1e-9, tp_parallel_s), 3
            ),
        },
    }
    _OUT_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True)
                         + "\n")

    print()
    print(
        f"submit→done latency: inproc {inproc_s:.2f}s, inline "
        f"{inline_s:.2f}s ({inline_overhead:.2f}x), http {http_s:.2f}s "
        f"({http_overhead:.2f}x inline, {http_rps:.0f} healthz rps), "
        + ", ".join(f"{n}w {s:.2f}s" for n, s in sorted(fleet.items()))
    )
    print(
        f"throughput ({n_jobs} jobs): 1 worker {tp_serial_s:.2f}s, "
        f"4 workers {tp_parallel_s:.2f}s "
        f"({payload['throughput']['speedup_4v1']:.2f}x)"
    )
    assert inline_overhead <= MAX_INLINE_OVERHEAD, (
        f"service inline path is {inline_overhead:.2f}x the in-process "
        f"flow (limit {MAX_INLINE_OVERHEAD}x) — the durability "
        f"bookkeeping should not dominate a tiny job"
    )
    assert http_overhead <= MAX_HTTP_OVERHEAD, (
        f"HTTP path is {http_overhead:.2f}x the inline service path "
        f"(limit {MAX_HTTP_OVERHEAD}x) — the wire adapter should not "
        f"dominate the execution it fronts"
    )
