"""End-to-end chaos tests: the service survives killed and hung workers.

These run real worker *subprocesses* over a real tiny flow and break
them mid-job:

* SIGKILL a worker while it is executing a job — the supervisor
  respawns, the lease expires, the replacement resumes from the job's
  checkpoints, and the finished job's patterns are **bit-identical**
  to a single-process ``run_noise_tolerant_flow``;
* SIGSTOP a worker (a hang, not a crash) — its heartbeat thread
  freezes with it, the lease genuinely expires, another worker takes
  over, and when the zombie is resumed its stale fencing token keeps
  it from corrupting the finished job;
* a job that kills every worker that runs it ends ``dead`` with the
  failure log on disk — bounded retries, never an infinite loop.

Marked ``chaos``: CI runs them in their own lane with a hard timeout
(see ``service-chaos`` in ci.yml).
"""

from __future__ import annotations

import functools
import json
import os
import signal
import time

import numpy as np
import pytest

from repro.core import run_noise_tolerant_flow
from repro.core.flow import STAGE_PLAN_TURBO_EAGLE, stage_key
from repro.service import (
    JOB_DEAD,
    JOB_DONE,
    JobSpec,
    JobStore,
    ServiceClient,
    ServiceConfig,
    ServiceSupervisor,
)
from repro.soc import build_turbo_eagle

pytestmark = pytest.mark.chaos

#: Short TTL so reclaim-after-death is seconds, not the prod 30 s.
TTL = 2.0


@functools.lru_cache(maxsize=1)
def reference_matrix():
    design = build_turbo_eagle(scale="tiny", seed=2007)
    result, _ = run_noise_tolerant_flow(design, seed=1)
    return result.pattern_set.as_matrix()


def make_store(tmp_path, **overrides) -> JobStore:
    config = ServiceConfig(lease_ttl_s=TTL, **overrides)
    return JobStore(str(tmp_path / "store"), config)


def wait_for_lease(store: JobStore, job_id: str, timeout_s: float = 120.0):
    """Poll until a worker holds the job's lease; returns the lease."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        job = store.get(job_id)
        if job.lease is not None:
            return job.lease
        if job.terminal:
            pytest.fail(f"job went terminal ({job.state}) before a "
                        f"lease was observed")
        time.sleep(0.05)
    pytest.fail("no worker leased the job in time")


def registry_pid(store: JobStore, worker_id: str) -> int:
    """The OS pid a worker recorded in the store's worker registry."""
    path = os.path.join(store.workers_dir, f"{worker_id}.json")
    with open(path) as fh:
        return int(json.load(fh)["pid"])


def test_sigkilled_worker_mid_shard_job_completes_bit_identical(tmp_path):
    """kill -9 mid-job: lease expires, respawned worker resumes from
    the checkpoints, and the result matches single-process exactly."""
    store = make_store(tmp_path)
    client = ServiceClient(store)
    job_id = client.submit(JobSpec(scale="tiny"))
    with ServiceSupervisor(store, n_workers=1) as sup:
        lease = wait_for_lease(store, job_id)
        victim = registry_pid(store, lease.worker)
        os.kill(victim, signal.SIGKILL)
        sup.run_until_drained(timeout_s=240)
    job = client.status(job_id)
    assert job.state == JOB_DONE
    # the kill left a lease-expiry scar on the job
    assert any(f["kind"] == "lease_expired" for f in job.failures)
    result = client.result(job_id)
    assert np.array_equal(result["matrix"], reference_matrix())


def test_kill_at_stage_one_resumes_from_stage_zero_bit_identical(tmp_path):
    """A worker SIGKILLs itself once stage 0 is checkpointed: the
    respawned worker loads stage 0, computes the rest, and the result
    matches single-process exactly."""
    store = make_store(tmp_path)
    client = ServiceClient(store)
    job_id = client.submit(JobSpec(scale="tiny", chaos={"kill_stage": 1}))
    with ServiceSupervisor(store, n_workers=1) as sup:
        sup.run_until_drained(timeout_s=240)
    job = client.status(job_id)
    assert job.state == JOB_DONE
    assert any(f["kind"] == "lease_expired" for f in job.failures)
    assert np.array_equal(client.result(job_id)["matrix"], reference_matrix())
    stages = client.report(job_id).stages
    assert len(stages) == len(STAGE_PLAN_TURBO_EAGLE)
    assert stages[0].from_checkpoint


def test_hung_worker_lease_expires_and_peer_completes(tmp_path):
    """SIGSTOP (hang): the frozen heartbeat lets the lease expire, a
    peer worker finishes the job, and the resumed zombie's stale token
    cannot disturb the finished state."""
    store = make_store(tmp_path)
    client = ServiceClient(store)
    job_id = client.submit(JobSpec(scale="tiny"))
    stopped = None
    try:
        with ServiceSupervisor(store, n_workers=2) as sup:
            lease = wait_for_lease(store, job_id)
            stopped = registry_pid(store, lease.worker)
            os.kill(stopped, signal.SIGSTOP)
            sup.run_until_drained(timeout_s=240)
            job = client.status(job_id)
            assert job.state == JOB_DONE
            result = client.result(job_id)
            assert np.array_equal(result["matrix"], reference_matrix())
            # wake the zombie *while the store is live*: its pending
            # commit must be fenced off, not corrupt the done job
            os.kill(stopped, signal.SIGCONT)
            time.sleep(1.0)
            stopped = None
            final = client.status(job_id)
            assert final.state == JOB_DONE
            assert np.array_equal(
                client.result(job_id)["matrix"], result["matrix"]
            )
        assert any(f["kind"] == "lease_expired" for f in final.failures)
    finally:
        if stopped is not None:  # don't leak a stopped process on fail
            os.kill(stopped, signal.SIGCONT)


def test_http_netlist_chaos_job_bit_identical(tmp_path):
    """The whole wire path under fire: a netlist-upload job submitted
    over HTTP to a subprocess-worker fleet whose worker is SIGKILLed
    mid-job still finishes with patterns bit-identical to the
    single-process flow on the same reconstructed design — and the
    ``/events`` NDJSON stream arrives strictly in order.  The kill
    comes once stage 0 is checkpointed, so the retry resumes from it."""
    import io

    from repro.netlist.verilog import parse_verilog, write_verilog
    from repro.service import (
        HttpServerThread,
        HttpServiceClient,
        TenantFleet,
        TenantManager,
    )
    from repro.soc import derive_stage_plan, design_from_netlist

    design = build_turbo_eagle(scale="tiny", seed=2007)
    buf = io.StringIO()
    write_verilog(design.netlist, buf)
    verilog = buf.getvalue()

    tenants = TenantManager(
        str(tmp_path / "data"),
        default_config=ServiceConfig(lease_ttl_s=TTL),
    )
    fleet = TenantFleet(tenants, n_workers=1)
    with HttpServerThread(tenants, fleet=fleet) as srv:
        client = HttpServiceClient(srv.base_url, tenant="chaos")
        job_id = client.submit(
            netlist_verilog=verilog, chaos={"kill_stage": 1}
        )
        events = list(client.events(job_id, timeout_s=300))
        job = client.wait(job_id, timeout_s=300)
        assert job.state == JOB_DONE
        result = client.result(job_id)
        report = client.report(job_id)
        metrics = client.metrics()

    # the stream was strictly in order and ended terminal
    assert [e["seq"] for e in events] == list(range(len(events)))
    assert events[-1]["terminal"] is True
    assert events[-1]["state"] == JOB_DONE
    assert any(e["state"] == "running" for e in events)
    # the kill burned a lease, and the retry loaded stage 0 from the
    # checkpoint the killed attempt left
    assert job.attempts >= 1
    assert any(f["kind"] == "lease_expired" for f in job.failures)
    assert report.stages[0].from_checkpoint
    assert any(e["attempts"] >= 1 for e in events)
    # bit-identical to the single-process flow on the same
    # netlist-reconstructed design and derived stage plan
    rebuilt = design_from_netlist(parse_verilog(io.StringIO(verilog)))
    ref, _ = run_noise_tolerant_flow(
        rebuilt, seed=1, stage_plan=derive_stage_plan(rebuilt)
    )
    assert np.array_equal(result["matrix"], ref.pattern_set.as_matrix())
    # the exposition saw the whole story
    assert "repro_http_requests_total" in metrics
    assert 'repro_service_tenant_queue_depth{tenant="chaos"}' in metrics


def test_worker_killing_shard_is_quarantined_dead(tmp_path):
    """A job whose stage 1 SIGKILLs every worker that reaches it burns
    its attempt budget and ends ``dead`` — with the failure log on
    disk — instead of respawn-retrying forever."""
    from repro.reporting import RunReport

    store = make_store(tmp_path, max_shard_attempts=2)
    client = ServiceClient(store)
    job_id = client.submit(
        JobSpec(scale="tiny",
                chaos={"kill_stage": 1, "kill_attempts": 10 ** 9})
    )
    with ServiceSupervisor(store, n_workers=1) as sup:
        sup.run_until_drained(timeout_s=240)
    job = client.status(job_id)
    assert job.state == JOB_DEAD
    assert job.attempts == 2
    assert "quarantined" in job.error
    # never claimable again
    assert store.claim("post-mortem") is None
    # and the RunReport failure log survived the carnage
    report = RunReport.load(store.report_path(job_id))
    assert report.status == "failed"
    assert len(report.failures) == 2
    assert all(f["kind"] == "lease_expired" for f in report.failures)
    # the healthy stage the poison one follows is kept
    assert report.completed_stages() == [
        stage_key(0, STAGE_PLAN_TURBO_EAGLE[0])
    ]
