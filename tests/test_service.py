"""Unit tests of the job service: state machine, leases, back-pressure.

Everything time-dependent drives the store through its injectable
``now`` parameter — no sleeps, no real clocks — so lease expiry,
backoff windows and quarantine are tested exactly, not approximately.
The handful of tests that run a real (tiny) flow are the integration
seam: they assert the service's headline invariant, that a job's
pattern set is bit-identical to a single-process
``run_noise_tolerant_flow``.
"""

from __future__ import annotations

import functools
import json
import os
import pickle

import numpy as np
import pytest

from repro.core import run_noise_tolerant_flow
from repro.core.flow import STAGE_PLAN_TURBO_EAGLE, stage_key
from repro.errors import (
    JobNotFoundError,
    ServiceBusyError,
    ServiceError,
)
from repro.service import (
    JOB_CANCELLED,
    JOB_DEAD,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    JobSpec,
    JobStore,
    ServiceClient,
    ServiceConfig,
    ServiceSupervisor,
)
from repro.reporting import CheckpointStore, RunReport
from repro.soc import build_turbo_eagle

TTL = 30.0
#: The checkpoint keys of the built-in stage plan, in order.
STAGE_NAMES = [
    stage_key(i, blocks) for i, blocks in enumerate(STAGE_PLAN_TURBO_EAGLE)
]


@pytest.fixture
def store(tmp_path) -> JobStore:
    return JobStore(
        str(tmp_path / "store"),
        ServiceConfig(lease_ttl_s=TTL, max_queue_depth=4,
                      max_shard_attempts=3),
    )


def drive_job_to_done(store: JobStore, job_id: str, worker: str = "w",
                      now: float = 0.0) -> None:
    """Walk the job through claim/start/complete by hand."""
    job = store.claim(worker, now=now)
    assert job is not None and job.id == job_id, (
        f"{job_id} is not the next claimable job"
    )
    token = job.lease.token
    assert store.start_shard(job.id, worker, token)
    assert store.complete_shard(job.id, worker, token, now=now)


# ----------------------------------------------------------------------
# state machine
# ----------------------------------------------------------------------
class TestStateMachine:
    def test_submit_creates_queued_job(self, store):
        job = store.submit(JobSpec(), now=1.0)
        assert job.state == JOB_QUEUED
        assert (job.attempts, job.lease, job.failures) == (0, None, [])
        assert store.get(job.id).to_dict() == job.to_dict()

    def test_full_lifecycle_to_done(self, store):
        job = store.submit(JobSpec(), now=0.0)
        claimed = store.claim("w1", now=0.0)
        assert claimed is not None and claimed.id == job.id
        assert claimed.lease.worker == "w1"
        assert store.get(job.id).state == JOB_RUNNING
        token = claimed.lease.token
        assert store.start_shard(job.id, "w1", token)
        # one lease covers the whole job: nothing else is claimable
        assert store.claim("w2", now=0.0) is None
        assert store.complete_shard(job.id, "w1", token, now=0.0)
        final = store.get(job.id)
        assert final.state == JOB_DONE
        assert (final.attempts, final.lease) == (0, None)
        assert store.claim("w1", now=0.0) is None

    def test_jobs_claimed_fifo_across_jobs(self, store):
        a = store.submit(JobSpec(), now=0.0)
        b = store.submit(JobSpec(), now=1.0)
        first = store.claim("w1", now=2.0)
        second = store.claim("w2", now=2.0)
        assert first is not None and first.id == a.id
        # job A is leased, so worker 2 gets job B
        assert second is not None and second.id == b.id

    def test_missing_job_raises(self, store):
        with pytest.raises(JobNotFoundError):
            store.get("j-nope")

    def test_store_reopen_sees_persisted_state(self, store):
        job = store.submit(JobSpec(scale="tiny", seed=7), now=0.0)
        reopened = JobStore(store.root)
        got = reopened.get(job.id)
        assert got.spec.seed == 7
        assert got.state == JOB_QUEUED
        # config round-trips through config.json too
        assert reopened.config.lease_ttl_s == TTL
        assert reopened.config.max_queue_depth == 4

    def test_store_config_with_retired_backoff_keys_opens(self, tmp_path):
        """Stores written when the requeue backoff was configurable
        still open, keeping every setting that is still one."""
        root = tmp_path / "old"
        root.mkdir()
        (root / "config.json").write_text(json.dumps({
            "version": 1,
            "max_queue_depth": 5,
            "lease_ttl_s": 7.5,
            "max_shard_attempts": 4,
            "backoff_base_s": 0.05,
            "backoff_factor": 3.0,
            "backoff_max_s": 1.0,
            "backoff_jitter": 0.0,
            "backoff_seed": 9,
        }))
        store = JobStore(str(root))
        assert store.config == ServiceConfig(
            max_queue_depth=5, lease_ttl_s=7.5, max_shard_attempts=4
        )
        for _ in range(5):
            store.submit(JobSpec())
        with pytest.raises(ServiceBusyError):
            store.submit(JobSpec())


# ----------------------------------------------------------------------
# records written when each flow stage was leased on its own
# ----------------------------------------------------------------------
def write_staged_record(store: JobStore, seq: int, state: str) -> str:
    """A ``job.json`` as the per-stage store wrote it: a ``shards``
    list carries the lease bookkeeping, one entry per flow stage."""
    job_id = f"j{seq:06d}-0ldf0rm{seq}"
    shard_state = "done" if state == JOB_DONE else "queued"
    record = {
        "version": 1,
        "id": job_id,
        "spec": JobSpec(scale="tiny").to_dict(),
        "state": state,
        "shards": [
            {"index": i, "name": name, "state": shard_state,
             "attempts": 0, "not_before": 0.0, "next_token": 1,
             "lease": None, "failures": []}
            for i, name in enumerate(STAGE_NAMES)
        ],
        "seq": seq,
        "created_at": 0.0,
        "updated_at": 0.0,
        "error": None,
    }
    os.makedirs(store.checkpoint_dir(job_id))
    with open(os.path.join(store.job_dir(job_id), "job.json"), "w") as fh:
        json.dump(record, fh)
    with open(os.path.join(store.jobs_dir, ".seq"), "w") as fh:
        fh.write(str(seq))
    return job_id


class TestStagedRecords:
    def test_finished_job_serves_its_result_and_report(self, store):
        job_id = write_staged_record(store, 1, JOB_DONE)
        with open(store.result_path(job_id), "wb") as fh:
            pickle.dump({"matrix": np.zeros((2, 3)), "n_patterns": 2}, fh)
        RunReport(flow="noise_aware_staged", status="completed").save(
            store.report_path(job_id)
        )
        client = ServiceClient(store)
        assert client.status(job_id).state == JOB_DONE
        assert client.result(job_id)["n_patterns"] == 2
        assert client.report(job_id).status == "completed"
        assert [j.id for j in client.jobs()] == [job_id]
        assert store.claim("w", now=0.0) is None

    def test_queued_job_is_claimed_and_completes(self, store):
        job_id = write_staged_record(store, 1, JOB_QUEUED)
        client = ServiceClient(store)
        job = client.wait(job_id, timeout_s=300)
        assert job.state == JOB_DONE
        assert np.array_equal(
            client.result(job_id)["matrix"], reference_matrix()
        )
        # new submissions keep counting from the old sequence
        assert store.submit(JobSpec(), now=0.0).seq == 2


# ----------------------------------------------------------------------
# cancellation
# ----------------------------------------------------------------------
class TestCancel:
    def test_cancel_queued_job(self, store):
        job = store.submit(JobSpec(), now=0.0)
        cancelled = store.cancel(job.id, now=1.0)
        assert cancelled.state == JOB_CANCELLED
        assert cancelled.terminal
        assert "cancelled" in cancelled.error
        # a cancelled job is never claimable
        assert store.claim("w", now=2.0) is None

    def test_cancel_frees_backpressure_slot(self, tmp_path):
        store = JobStore(str(tmp_path / "s"),
                         ServiceConfig(max_queue_depth=1))
        job = store.submit(JobSpec(), now=0.0)
        with pytest.raises(ServiceBusyError):
            store.submit(JobSpec(), now=0.0)
        store.cancel(job.id, now=1.0)
        assert store.queue_depth() == 0
        assert store.submit(JobSpec(), now=2.0).state == JOB_QUEUED

    def test_cancel_is_legal_only_from_queued(self, store):
        job = store.submit(JobSpec(), now=0.0)
        store.claim("w", now=0.0)
        with pytest.raises(ServiceError) as err:
            store.cancel(job.id, now=1.0)
        assert "only queued jobs" in str(err.value)
        # a reclaimed job stays running: a worker has touched it
        assert store.reap_expired(now=TTL + 1.0) == 1
        assert store.get(job.id).lease is None
        with pytest.raises(ServiceError):
            store.cancel(job.id, now=TTL + 2.0)
        # terminal states refuse too
        done = store.submit(JobSpec(), now=2.0)
        drive_job_to_done(store, done.id, now=TTL + 1.0)
        with pytest.raises(ServiceError):
            store.cancel(done.id)

    def test_cancel_unknown_job_raises(self, store):
        with pytest.raises(JobNotFoundError):
            store.cancel("j-nope")

    def test_client_cancel_delegates(self, store):
        client = ServiceClient(store)
        job_id = client.submit(JobSpec())
        assert client.cancel(job_id).state == JOB_CANCELLED


# ----------------------------------------------------------------------
# external-netlist specs
# ----------------------------------------------------------------------
class TestNetlistSpec:
    def test_netlist_spec_round_trips(self, store):
        import io

        from repro.netlist.verilog import write_verilog
        from repro.soc import derive_stage_plan

        design = build_turbo_eagle(scale="tiny", seed=2007)
        buf = io.StringIO()
        write_verilog(design.netlist, buf)
        spec = JobSpec(netlist_verilog=buf.getvalue())
        job = store.submit(spec, now=0.0)
        # the stage plan is *derived from the netlist*, and for the
        # round-tripped design it reproduces the paper's built-in
        # staging — the activity heuristic lands on the same
        # all-but-two / second-busiest / busiest split
        rebuilt, plan = spec.build_design_and_plan()
        assert tuple(plan) == derive_stage_plan(rebuilt)
        assert tuple(plan) == STAGE_PLAN_TURBO_EAGLE
        # the spec survives the job.json round trip ...
        reopened = JobStore(store.root).get(job.id)
        assert reopened.spec.netlist_verilog == spec.netlist_verilog
        # ... and the reconstruction is deterministic: a re-parse agrees
        again, again_plan = reopened.spec.build_design_and_plan()
        assert tuple(again_plan) == tuple(plan)
        assert again.netlist.n_flops == rebuilt.netlist.n_flops
        assert again.blocks() == rebuilt.blocks()


    def test_unparseable_netlist_is_refused_at_submit(self, store):
        with pytest.raises(ServiceError) as err:
            store.submit(JobSpec(netlist_verilog="module broken (a;\n"))
        assert "job spec rejected" in str(err.value)
        assert store.list_jobs() == []


# ----------------------------------------------------------------------
# wait polling backs off (no busy-polling a flock'd job.json)
# ----------------------------------------------------------------------
class FakeTime:
    """A sleep-driven clock standing in for the ``time`` module."""

    def __init__(self) -> None:
        self.now = 0.0
        self.sleeps: list = []

    def monotonic(self) -> float:
        return self.now

    def time(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


class TestWaitBackoff:
    def test_wait_poll_count_drops_on_long_jobs(self, store, monkeypatch):
        """A job that stays queued for 60 s costs ~30 capped polls,
        not the 300 a fixed 0.2 s interval would burn."""
        import repro.service.client as client_mod

        fake = FakeTime()
        monkeypatch.setattr(client_mod, "time", fake)
        client = ServiceClient(store)
        job_id = client.submit(JobSpec())
        with pytest.raises(ServiceError):
            client.wait(job_id, timeout_s=60.0, inline_fallback=False)
        fixed_interval_polls = 60.0 / 0.2
        assert len(fake.sleeps) < fixed_interval_polls / 5
        # exponential up to the cap, never past it, never decreasing
        assert fake.sleeps == sorted(fake.sleeps)
        assert fake.sleeps[0] == pytest.approx(0.2)
        assert max(fake.sleeps) == pytest.approx(2.0)

    def test_wait_backoff_resets_when_the_job_moves(self, store,
                                                    monkeypatch):
        """Progress snaps the poll interval back to the base."""
        import repro.service.client as client_mod

        fake = FakeTime()
        monkeypatch.setattr(client_mod, "time", fake)
        client = ServiceClient(store)
        job_id = client.submit(JobSpec())
        # let the backoff climb to the cap ...
        with pytest.raises(ServiceError):
            client.wait(job_id, timeout_s=20.0, inline_fallback=False)
        assert max(fake.sleeps) == pytest.approx(2.0)
        # ... then make the record change and wait again: first poll
        # re-observes (reset), so the very next sleep is the base again
        store.claim("w", now=fake.now)
        fake.sleeps.clear()
        with pytest.raises(ServiceError):
            client.wait(job_id, timeout_s=1.0, inline_fallback=False)
        assert fake.sleeps[0] == pytest.approx(0.2)


# ----------------------------------------------------------------------
# back-pressure
# ----------------------------------------------------------------------
class TestBackPressure:
    def test_submit_refused_at_depth_limit(self, tmp_path):
        store = JobStore(str(tmp_path / "s"),
                         ServiceConfig(max_queue_depth=2))
        store.submit(JobSpec(), now=0.0)
        store.submit(JobSpec(), now=0.0)
        with pytest.raises(ServiceBusyError) as err:
            store.submit(JobSpec(), now=0.0)
        assert err.value.depth == 2
        assert err.value.limit == 2

    def test_depth_frees_up_when_a_job_finishes(self, tmp_path):
        store = JobStore(str(tmp_path / "s"),
                         ServiceConfig(max_queue_depth=1))
        job = store.submit(JobSpec(), now=0.0)
        with pytest.raises(ServiceBusyError):
            store.submit(JobSpec(), now=0.0)
        drive_job_to_done(store, job.id)
        assert store.submit(JobSpec(), now=0.0).state == JOB_QUEUED

    def test_terminal_jobs_do_not_count_toward_depth(self, store):
        job = store.submit(JobSpec(), now=0.0)
        drive_job_to_done(store, job.id)
        assert store.queue_depth() == 0

    def test_scans_read_no_record_seen_terminal(self, tmp_path,
                                                monkeypatch):
        """No transition leaves a terminal state, so after N finished
        jobs a claim reads only the live records; ``list_jobs`` still
        returns every job."""
        store = JobStore(str(tmp_path / "s"),
                         ServiceConfig(max_queue_depth=2))
        finished = set()
        for _ in range(5):
            job = store.submit(JobSpec(), now=0.0)
            drive_job_to_done(store, job.id)
            finished.add(job.id)
        live = store.submit(JobSpec(), now=0.0)
        reads = []
        read_job = JobStore._read_job

        def counting_read(self, job_id):
            reads.append(job_id)
            return read_job(self, job_id)

        monkeypatch.setattr(JobStore, "_read_job", counting_read)
        claimed = store.claim("w", now=0.0)
        assert claimed is not None and claimed.id == live.id
        assert reads == [live.id]
        # another process's store object reads each finished record once
        other = JobStore(store.root)
        for _ in range(2):
            assert other.claim("w2", now=0.0) is None
        assert sorted(r for r in reads if r in finished) == sorted(finished)
        assert len(store.list_jobs()) == 6


# ----------------------------------------------------------------------
# leases: expiry, fencing, heartbeats, backoff
# ----------------------------------------------------------------------
class TestLeases:
    def test_expired_lease_is_reclaimed_with_backoff(self, store):
        job = store.submit(JobSpec(), now=0.0)
        first = store.claim("w1", now=0.0)
        assert first is not None
        # before expiry nothing is claimable
        assert store.claim("w2", now=TTL - 1.0) is None
        # at expiry the job is reaped into its backoff window ...
        assert store.claim("w2", now=TTL) is None
        reaped = store.get(job.id)
        assert reaped.state == JOB_RUNNING  # running through requeues
        assert reaped.lease is None
        assert reaped.attempts == 1
        assert reaped.failures[0]["kind"] == "lease_expired"
        assert reaped.not_before > TTL
        # ... and claimable once the backoff has elapsed
        reclaimed = store.claim("w2", now=TTL + 60.0)
        assert reclaimed is not None
        assert reclaimed.lease.worker == "w2"

    def test_fencing_token_blocks_stale_worker(self, store):
        job = store.submit(JobSpec(), now=0.0)
        first = store.claim("w1", now=0.0)
        token1 = first.lease.token
        # first post-expiry claim reaps into the backoff window ...
        assert store.claim("w2", now=TTL + 60.0) is None
        # ... and the next one (past the backoff) re-grants, fenced
        reclaimed = store.claim("w2", now=TTL + 120.0)
        token2 = reclaimed.lease.token
        assert token2 > token1
        t = TTL + 121.0
        # the zombie's every move is refused
        assert not store.heartbeat(job.id, "w1", token1, now=t)
        assert not store.start_shard(job.id, "w1", token1)
        assert not store.complete_shard(job.id, "w1", token1, now=t)
        assert not store.fail_shard(job.id, "w1", token1, "boom",
                                    retryable=True, now=t)
        # the new holder proceeds normally
        assert store.start_shard(job.id, "w2", token2)
        assert store.complete_shard(job.id, "w2", token2, now=t)
        assert store.get(job.id).state == JOB_DONE

    def test_heartbeat_extends_the_lease(self, store):
        job = store.submit(JobSpec(), now=0.0)
        claimed = store.claim("w1", now=0.0)
        token = claimed.lease.token
        assert store.heartbeat(job.id, "w1", token, now=TTL - 5.0)
        # would have expired at TTL without the renewal
        assert store.claim("w2", now=TTL + 1.0) is None
        assert store.get(job.id).lease.worker == "w1"

    def test_reap_expired_is_explicit_too(self, store):
        job = store.submit(JobSpec(), now=0.0)
        store.claim("w1", now=0.0)
        assert store.reap_expired(now=1.0) == 0
        assert store.reap_expired(now=TTL + 1.0) == 1
        reaped = store.get(job.id)
        assert (reaped.lease, reaped.attempts) == (None, 1)


# ----------------------------------------------------------------------
# quarantine and failure
# ----------------------------------------------------------------------
class TestQuarantine:
    def test_repeatedly_dying_shard_is_quarantined_dead(self, store):
        """A job whose every lease fails burns its attempt budget and
        ends ``dead``."""
        job = store.submit(JobSpec(), now=0.0)
        now = 0.0
        for attempt in range(store.config.max_shard_attempts):
            claimed = store.claim("w", now=now)
            assert claimed is not None, f"attempt {attempt} not claimable"
            token = claimed.lease.token
            assert store.fail_shard(job.id, "w", token,
                                    f"crash #{attempt}", retryable=True,
                                    now=now)
            now += 120.0  # comfortably past any backoff
        final = store.get(job.id)
        assert final.state == JOB_DEAD
        assert (final.attempts, final.lease) == (3, None)
        assert "quarantined" in final.error
        # never claimable again — no infinite retry
        assert store.claim("w", now=now + 1000.0) is None
        # the failure log survives, one entry per burned lease
        assert [f["error"] for f in final.failures] == [
            "crash #0", "crash #1", "crash #2",
        ]
        assert [f["attempt"] for f in final.failures] == [0, 1, 2]

    def test_dead_job_has_failure_report_on_disk(self, store):
        job = store.submit(JobSpec(), now=0.0)
        # an earlier attempt checkpointed the first stage
        CheckpointStore(store.checkpoint_dir(job.id)).save(
            STAGE_NAMES[0], {"patterns": []}
        )
        now = 0.0
        for _ in range(store.config.max_shard_attempts):
            claimed = store.claim("w", now=now)
            token = claimed.lease.token
            store.fail_shard(job.id, "w", token, "kaboom",
                             retryable=True, now=now)
            now += 120.0
        report = RunReport.load(store.report_path(job.id))
        assert report.status == "failed"
        assert "quarantined" in report.error
        assert [f["error"] for f in report.failures] == ["kaboom"] * 3
        # the checkpointed stage is reported completed, not lost
        assert report.completed_stages() == [STAGE_NAMES[0]]

    def test_deterministic_error_fails_job_immediately(self, store):
        job = store.submit(JobSpec(), now=0.0)
        claimed = store.claim("w", now=0.0)
        token = claimed.lease.token
        assert store.fail_shard(job.id, "w", token,
                                "ValueError('bad')", retryable=False,
                                now=0.0)
        final = store.get(job.id)
        assert final.state == JOB_FAILED
        assert (final.attempts, final.lease) == (0, None)
        assert final.failures[0]["kind"] == "error"
        assert final.error == "ValueError('bad')"
        assert store.load_report(job.id) is not None

    def test_lease_expiry_also_burns_attempts(self, store):
        """Workers that silently die count against the same budget."""
        job = store.submit(JobSpec(), now=0.0)
        now = 0.0
        for _ in range(store.config.max_shard_attempts):
            claimed = store.claim("w", now=now)
            if claimed is None:  # claim just reaped into a backoff
                now += 60.0
                claimed = store.claim("w", now=now)
            assert claimed is not None
            now += TTL + 120.0  # let every lease rot
        # the final reap trips the quarantine instead of a re-grant
        assert store.claim("w", now=now) is None
        assert store.get(job.id).state == JOB_DEAD


# ----------------------------------------------------------------------
# client + integration (real tiny flows)
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=1)
def reference_matrix():
    """The single-process flow's pattern matrix (computed once)."""
    design = build_turbo_eagle(scale="tiny", seed=2007)
    result, _ = run_noise_tolerant_flow(design, seed=1)
    return result.pattern_set.as_matrix()


class TestClientIntegration:
    def test_wait_inline_fallback_completes_bit_identical(self, tmp_path):
        """Graceful degradation: no worker anywhere, the client drains
        the job itself — and the patterns match the single-process
        flow bit for bit."""
        client = ServiceClient(str(tmp_path / "store"))
        job_id = client.submit(JobSpec(scale="tiny"))
        job = client.wait(job_id, timeout_s=300)
        assert job.state == JOB_DONE
        result = client.result(job_id)
        assert np.array_equal(result["matrix"], reference_matrix())
        report = client.report(job_id)
        assert report.status == "completed"
        assert [s.name for s in report.stages] == STAGE_NAMES

    def test_supervisor_inline_degradation(self, tmp_path):
        """A supervisor with zero workers still finishes the queue."""
        store = JobStore(str(tmp_path / "store"))
        client = ServiceClient(store)
        job_id = client.submit(JobSpec(scale="tiny"))
        with ServiceSupervisor(store, n_workers=0) as sup:
            sup.run_until_drained(timeout_s=300)
        assert client.status(job_id).state == JOB_DONE
        assert client.result(job_id)["n_patterns"] > 0

    def test_transient_chaos_retries_then_succeeds(self, tmp_path):
        """An injected transient failure at stage 1 burns one attempt;
        the retry resumes from the checkpointed stage 0 and completes
        the job with identical patterns."""
        client = ServiceClient(str(tmp_path / "store"))
        job_id = client.submit(
            JobSpec(scale="tiny",
                    chaos={"fail_stage": 1, "fail_attempts": 1})
        )
        job = client.wait(job_id, timeout_s=300)
        assert job.state == JOB_DONE
        assert job.attempts == 1
        assert [f["kind"] for f in job.failures] == ["transient"]
        result = client.result(job_id)
        assert np.array_equal(result["matrix"], reference_matrix())
        stages = client.report(job_id).stages
        assert [s.from_checkpoint for s in stages] == [True, False, False]

    def test_one_design_build_and_drc_gate_per_execution(
        self, tmp_path, monkeypatch
    ):
        """A job runs its whole flow in one execution: one design
        build, one DRC gate, no stage reloaded from a checkpoint."""
        import repro.core.flow as flow_mod

        calls = {"build": 0, "drc": 0}
        build = JobSpec.build_design_and_plan
        gate = flow_mod.run_drc_gate

        def counting_build(spec):
            calls["build"] += 1
            return build(spec)

        def counting_gate(*args, **kwargs):
            calls["drc"] += 1
            return gate(*args, **kwargs)

        monkeypatch.setattr(JobSpec, "build_design_and_plan", counting_build)
        monkeypatch.setattr(flow_mod, "run_drc_gate", counting_gate)
        client = ServiceClient(str(tmp_path / "store"))
        job_id = client.submit(JobSpec(scale="tiny", max_patterns=12))
        assert client.wait(job_id, timeout_s=300).state == JOB_DONE
        assert calls == {"build": 1, "drc": 1}
        stages = client.report(job_id).stages
        assert not any(s.from_checkpoint for s in stages)

    def test_result_before_done_raises(self, tmp_path):
        client = ServiceClient(str(tmp_path / "store"))
        job_id = client.submit(JobSpec())
        with pytest.raises(ServiceError):
            client.result(job_id)

    def test_wait_timeout_raises_and_preserves_job(self, tmp_path):
        client = ServiceClient(str(tmp_path / "store"))
        job_id = client.submit(JobSpec())
        with pytest.raises(ServiceError):
            client.wait(job_id, timeout_s=0.0, inline_fallback=False)
        assert client.status(job_id).state == JOB_QUEUED

    def test_jobs_cli_lists_state_and_attempts(self, store, capsys):
        from repro.cli import main

        job = store.submit(JobSpec(), now=0.0)
        store.claim("w", now=0.0)
        assert store.reap_expired(now=TTL + 1.0) == 1
        assert main(["jobs", store.root]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split() == [
            "job", "|", "state", "|", "attempts", "|", "error",
        ]
        assert lines[3].split()[:5] == [job.id, "|", JOB_RUNNING, "|", "1"]

    def test_submit_spec_xor_kwargs(self, tmp_path):
        client = ServiceClient(str(tmp_path / "store"))
        with pytest.raises(ServiceError):
            client.submit(JobSpec(), scale="tiny")


# ----------------------------------------------------------------------
# worker liveness
# ----------------------------------------------------------------------
class TestWorkerLiveness:
    def test_worker_on_a_job_longer_than_the_ttl_reads_alive(
        self, tmp_path, monkeypatch
    ):
        """A worker renews its job's lease, not its registry entry, so
        the lease keeps it alive: a client waiting meanwhile runs no
        other job beside it, and the worker runs that job next."""
        import threading
        import time

        from repro.service.worker import ServiceWorker

        store = JobStore(
            str(tmp_path / "store"), ServiceConfig(lease_ttl_s=0.6)
        )
        client = ServiceClient(store)
        slow = client.submit(JobSpec(scale="tiny", max_patterns=8))
        other = client.submit(JobSpec(scale="tiny", max_patterns=8))
        ran = []
        release = threading.Event()
        run_flow = ServiceWorker._run_flow

        def slow_flow(worker, job, stop_after_stage):
            ran.append((job.id, worker.worker_id))
            if job.id == slow:
                release.wait(60)
            return run_flow(worker, job, stop_after_stage)

        monkeypatch.setattr(ServiceWorker, "_run_flow", slow_flow)
        standalone = ServiceWorker(store, worker_id="standalone")
        thread = threading.Thread(
            target=standalone.run, kwargs={"drain": True}
        )
        thread.start()
        try:
            deadline = time.monotonic() + 60
            while not ran and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(1.0)  # the registry entry is now past the TTL
            assert store.alive_workers() == ["standalone"]
            with pytest.raises(ServiceError, match="timed out"):
                client.wait(other, timeout_s=0.3)
            assert ran == [(slow, "standalone")]
        finally:
            release.set()
            thread.join(120)
        assert ran == [(slow, "standalone"), (other, "standalone")]
        assert client.status(other).state == JOB_DONE

    def test_idle_worker_rewrites_its_entry_once_per_heartbeat(
        self, store, monkeypatch
    ):
        """An idle worker polls every few milliseconds, but its
        registry entry (a fsync'd file) is rewritten at most once per
        ``heartbeat_s``."""
        from repro.service.worker import ServiceWorker

        class Stop(Exception):
            pass

        polls = []
        rewrites = []

        def idle_poll():
            polls.append(1)
            assert store.alive_workers() == ["idle"]
            if len(polls) == 10:
                raise Stop
            return False

        worker = ServiceWorker(store, worker_id="idle")
        monkeypatch.setattr(worker, "run_once", idle_poll)
        monkeypatch.setattr(
            store, "worker_heartbeat", lambda *a, **k: rewrites.append(a)
        )
        with pytest.raises(Stop):
            worker.run()
        assert len(polls) == 10
        assert rewrites == []  # heartbeat_s is TTL / 3 = 10 s
        assert store.alive_workers() == []  # deregistered on the way out
