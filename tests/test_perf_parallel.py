"""Equivalence tests for the batched/parallel performance paths.

Everything in :mod:`repro.perf`, the multi-word fault simulation and the
batched SCAP grading is a pure speed lever: these tests pin the
bit-for-bit contract against naive references — the quadratic pack loop,
a full-cone interpreted fault simulation, and per-pattern profiling.
"""

from __future__ import annotations

import dataclasses
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.faults import build_fault_universe, collapse_faults
from repro.atpg.fsim import FaultSimulator, first_detection_index
from repro.core.validation import digest_key
from repro.errors import ExecutionError, TransientError, WorkerCrashError
from repro.netlist.cells import CELL_FUNCTIONS
from repro.perf import chaos, usable_cpus
from repro.perf.resilient import (
    RetryPolicy,
    chunk_slices,
    chunked,
    default_policy,
    execution_policy,
    resilient_map,
    resolve_workers,
)
from repro.power.calculator import ScapCalculator
from repro.sim.logic import loc_launch_capture, pack_matrix
from repro.soc import build_turbo_eagle

from .strategies import pattern_matrix, random_netlist


@pytest.fixture(scope="module")
def study():
    design = build_turbo_eagle("tiny", seed=2007)
    return design, design.dominant_domain()


@pytest.fixture(scope="module")
def graded(study):
    """Design + collapsed faults + a 150-pattern batch (3 partial lanes)."""
    design, domain = study
    nl = design.netlist
    reps, _ = collapse_faults(nl, build_fault_universe(nl))
    rng = np.random.default_rng(3)
    matrix = rng.integers(0, 2, size=(150, nl.n_flops), dtype=np.int8)
    return design, domain, list(reps), matrix


def reference_fault_sim(nl, domain, fsim, matrix, faults):
    """The seed algorithm: full-width words, whole-cone interpreted
    evaluation, no activation restriction."""
    packed, mask = pack_matrix(matrix)
    cyc = loc_launch_capture(fsim.sim, packed, domain, mask=mask)
    f1, g2 = cyc.frame1, cyc.frame2
    detections = {}
    for fault in faults:
        site = fault.net
        if fault.initial_value == 1:
            act = f1[site] & mask
            forced = mask
        else:
            act = ~f1[site] & mask
            forced = 0
        if act == 0:
            continue
        gates, captures = fsim.cone_of(site)
        if not captures:
            continue
        faulty = {site: forced}
        for gi in gates:
            g = nl.gates[gi]
            vals = [faulty.get(p, g2[p]) for p in g.inputs]
            faulty[g.output] = CELL_FUNCTIONS[g.kind](vals, mask)
        diff = 0
        for c in captures:
            diff |= faulty.get(c, g2[c]) ^ g2[c]
        det = diff & act
        if det:
            detections[fault] = det
    return detections


class TestPackMatrix:
    def test_matches_bit_loop_reference(self):
        rng = np.random.default_rng(0)
        m = rng.integers(0, 2, size=(67, 9), dtype=np.int8)
        packed, mask = pack_matrix(m)
        assert mask == (1 << 67) - 1
        for col in range(9):
            ref = 0
            for row in range(67):
                if m[row, col]:
                    ref |= 1 << row
            assert packed[col] == ref

    def test_empty_shapes(self):
        packed, mask = pack_matrix(np.zeros((0, 4), dtype=np.int8))
        assert packed == {0: 0, 1: 0, 2: 0, 3: 0} and mask == 0
        packed, mask = pack_matrix(np.zeros((5, 0), dtype=np.int8))
        assert packed == {} and mask == (1 << 5) - 1

    @given(m=pattern_matrix(n_flops=5, max_patterns=80))
    @settings(max_examples=30, deadline=None)
    def test_pack_roundtrip_hypothesis(self, m):
        packed, mask = pack_matrix(m)
        n_pat = m.shape[0]
        assert mask == (1 << n_pat) - 1
        for col in range(m.shape[1]):
            for row in range(n_pat):
                assert (packed[col] >> row) & 1 == int(m[row, col])


class TestFaultSimEquivalence:
    def test_run_matches_seed_reference(self, graded):
        design, domain, faults, matrix = graded
        nl = design.netlist
        fsim = FaultSimulator(nl, domain)
        ref = reference_fault_sim(nl, domain, fsim, matrix, faults)
        assert fsim.run(matrix, faults) == ref
        assert ref  # the batch actually detects something

    def test_multiword_lanes_bit_identical(self, graded):
        design, domain, faults, matrix = graded
        fsim = FaultSimulator(design.netlist, domain)
        full = fsim.run(matrix, faults)
        for lane_width in (7, 32, 64, 256):
            assert fsim.run_batch(
                matrix, faults, lane_width=lane_width
            ) == full

    def test_parallel_matches_serial(self, graded):
        design, domain, faults, matrix = graded
        fsim = FaultSimulator(design.netlist, domain)
        serial = fsim.run_batch(matrix, faults, lane_width=64)
        parallel = fsim.run_batch(
            matrix, faults, lane_width=64, n_workers=2
        )
        assert parallel == serial

    def test_drop_preserves_detection_set_and_first_index(self, graded):
        design, domain, faults, matrix = graded
        fsim = FaultSimulator(design.netlist, domain)
        full = fsim.run_batch(matrix, faults, lane_width=32)
        dropped = fsim.run_batch(matrix, faults, lane_width=32, drop=True)
        assert set(dropped) == set(full)
        for fault, word in dropped.items():
            assert word & full[fault] == word  # subset of true detections
            assert first_detection_index(word) == first_detection_index(
                full[fault]
            )

    def test_los_and_es_protocols_batch(self, graded):
        design, domain, faults, matrix = graded
        fsim = FaultSimulator(design.netlist, domain)
        los_run = fsim.run(matrix, faults, protocol="los", scan=design.scan)
        assert fsim.run_batch(
            matrix, faults, protocol="los", scan=design.scan, lane_width=64
        ) == los_run
        v2 = np.roll(matrix, 1, axis=0)
        es_run = fsim.run(matrix, faults, protocol="es", v2_matrix=v2)
        assert fsim.run_batch(
            matrix, faults, protocol="es", v2_matrix=v2, lane_width=64
        ) == es_run

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_random_netlists_lanes_match_reference(self, data):
        nl = data.draw(random_netlist())
        from repro.atpg.fsim import FaultSimulator as FS

        fsim = FS(nl, "clka")
        faults = list(build_fault_universe(nl))
        matrix = data.draw(pattern_matrix(n_flops=nl.n_flops))
        ref = reference_fault_sim(nl, "clka", fsim, matrix, faults)
        assert fsim.run(matrix, faults) == ref
        assert fsim.run_batch(matrix, faults, lane_width=16) == ref


class TestScapBatchEquivalence:
    @pytest.mark.parametrize("engine", ["event", "fast"])
    def test_batch_matches_per_pattern(self, graded, engine):
        design, domain, _faults, matrix = graded
        calc = ScapCalculator(design, domain, engine=engine)
        m = matrix[:70]  # two lanes, second partial
        per = [
            calc.profile_pattern(
                {fi: int(b) for fi, b in enumerate(row)}, i
            )
            for i, row in enumerate(m)
        ]
        assert calc.profile_patterns(m) == per
        assert calc.profile_patterns(m, lane_width=5) == per

    def test_parallel_matches_serial(self, graded):
        design, domain, _faults, matrix = graded
        calc = ScapCalculator(design, domain)
        serial = calc.profile_patterns(matrix[:40])
        assert calc.profile_patterns(matrix[:40], n_workers=2) == serial

    def test_pattern_set_and_matrix_agree(self, graded):
        design, domain, _faults, matrix = graded
        from repro.atpg.patterns import Pattern, PatternSet

        ps = PatternSet(domain)
        for i, row in enumerate(matrix[:10]):
            ps.append(
                Pattern(
                    index=i,
                    v1=np.asarray(row, dtype=np.uint8),
                    care=np.ones(len(row), dtype=bool),
                    domain=domain,
                    fill="random",
                )
            )
        calc = ScapCalculator(design, domain)
        assert calc.profile_patterns(ps) == calc.profile_patterns(matrix[:10])

    def test_single_pattern_restamps_index(self, graded):
        design, domain, _faults, matrix = graded
        calc = ScapCalculator(design, domain)
        first = calc.profile_patterns(matrix[:20])
        assert calc.profile_patterns(matrix[:20]) == first
        # same launch state under a different index: profile re-stamped
        single = calc.profile_pattern(
            {fi: int(b) for fi, b in enumerate(matrix[0])}, 99
        )
        assert single.pattern_index == 99
        assert single == dataclasses.replace(first[0], pattern_index=99)

    def test_in_batch_duplicate_rows_grade_identically(self, graded):
        design, domain, _faults, matrix = graded
        dup = np.vstack([matrix[:4]] * 3)
        calc = ScapCalculator(design, domain)
        got = calc.profile_patterns(dup)
        distinct = calc.profile_patterns(matrix[:4])
        assert got == [
            dataclasses.replace(distinct[row % 4], pattern_index=row)
            for row in range(12)
        ]


class TestPerfUtilities:
    def test_chunk_slices_cover_everything(self):
        for n_items in (0, 1, 7, 64, 65):
            for n_chunks in (1, 3, 8):
                slices = chunk_slices(n_items, n_chunks)
                covered = [
                    i for start, stop in slices for i in range(start, stop)
                ]
                assert covered == list(range(n_items))

    def test_chunked_preserves_order(self):
        items = list(range(23))
        chunks = chunked(items, 5)
        assert [x for c in chunks for x in c] == items
        assert all(c for c in chunks)

    def test_resolve_workers(self):
        assert resolve_workers(1, 100) == 1
        assert resolve_workers(4, 100) == 4
        assert resolve_workers(4, 2) == 2
        assert resolve_workers(0, 100) == 1
        assert resolve_workers(None, 10_000) == min(usable_cpus(), 10_000)

    def test_resolve_workers_none_counts_usable_cpus(self, monkeypatch):
        # A cpuset-limited process on a big machine: "all cores" means
        # the cores it may run on, not os.cpu_count().
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        monkeypatch.setattr(
            "os.sched_getaffinity", lambda pid: {0}, raising=False
        )
        assert resolve_workers(None, 100) == 1

    def test_resilient_map_serial_equals_parallel(self):
        items = list(range(40))
        serial = resilient_map(_square, items, n_workers=1)
        assert serial == [x * x for x in items]
        parallel = resilient_map(_square, items, n_workers=2)
        assert parallel == serial

    def test_resilient_map_falls_back_on_unpicklable_task(self):
        items = [1, 2, 3]
        bad = lambda x: x + 1  # noqa: E731 — lambdas don't pickle
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = resilient_map(bad, items, n_workers=2)
        assert out == [2, 3, 4]
        assert any(
            issubclass(w.category, RuntimeWarning) for w in caught
        )

    def test_digest_key_sensitivity(self):
        a = digest_key(b"abc", ("ctx", 1))
        assert a == digest_key(b"abc", ("ctx", 1))
        assert a != digest_key(b"abd", ("ctx", 1))
        assert a != digest_key(b"abc", ("ctx", 2))


def _square(x):
    return x * x


def _buggy(x):
    if x == 3:
        raise ValueError("boom")
    return x * x


def _traced_square(arg):
    """Square x, leaving one marker file per *execution* of this item."""
    x, trace_dir = arg
    marker = os.path.join(trace_dir, f"{x}_{os.getpid()}_{os.urandom(4).hex()}")
    with open(marker, "w") as fh:
        fh.write(str(x))
    return x * x


#: Fast backoff so chaos tests retry in milliseconds, not seconds.
FAST = RetryPolicy(backoff_base_s=0.001, backoff_max_s=0.01, jitter=0.0)


class TestResilientMap:
    """The recovery ladder, rung by rung, under deterministic chaos."""

    def test_task_bug_propagates_never_degrades(self):
        # A task exception must never silently re-run everything
        # serially: it propagates with the original exception chained
        # — and no fallback warning.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ExecutionError) as info:
                resilient_map(_buggy, [1, 2, 3, 4], n_workers=2)
        assert isinstance(info.value.__cause__, ValueError)
        assert info.value.chunk_index == 2
        assert not any(
            issubclass(w.category, RuntimeWarning) for w in caught
        )

    def test_task_bug_propagates_serially_too(self):
        with pytest.raises(ExecutionError) as info:
            resilient_map(_buggy, [3], n_workers=1, policy=FAST)
        assert isinstance(info.value.__cause__, ValueError)

    def test_transient_failure_retries_to_success(self):
        spec = chaos.ChaosSpec(fail={1: (0,)})
        from repro.perf.resilient import ExecutionReport

        report = ExecutionReport()
        with chaos.inject(spec):
            out = resilient_map(
                _square, [0, 1, 2, 3], n_workers=2,
                policy=FAST, report=report,
            )
        assert out == [0, 1, 4, 9]
        assert report.chunk_attempts[1] == 2
        assert report.total_retries == 1
        assert report.retried_chunks == [1]
        assert not report.serial_fallback

    def test_worker_kill_requeues_only_inflight_chunks(self, tmp_path):
        # SIGKILL the worker holding chunk 0 on its first attempt.
        # Completed chunks must not re-run (exactly one marker each)
        # and the pool must recover without the serial fallback.
        items = [(x, str(tmp_path)) for x in range(8)]
        spec = chaos.ChaosSpec(kill={0: (0,)})
        from repro.perf.resilient import ExecutionReport

        report = ExecutionReport()
        with chaos.inject(spec):
            out = resilient_map(
                _traced_square, items, n_workers=2,
                policy=FAST, report=report,
            )
        assert out == [x * x for x in range(8)]
        assert report.pool_rebuilds >= 1
        assert not report.serial_fallback
        assert any(f.kind == "crash" for f in report.failures)
        runs_per_item = {}
        for marker in os.listdir(tmp_path):
            x = int(marker.split("_")[0])
            runs_per_item[x] = runs_per_item.get(x, 0) + 1
        # Every item executed, and only the chunks in flight at the
        # crash (at most n_workers) may have executed a second time —
        # a wholesale serial re-run would double all eight.
        assert set(runs_per_item) == set(range(8))
        extra = sum(n - 1 for n in runs_per_item.values())
        assert extra <= 2, runs_per_item

    def test_hang_past_timeout_is_cancelled_and_retried(self):
        spec = chaos.ChaosSpec(hang={0: (0,)}, hang_s=30.0)
        policy = RetryPolicy(
            timeout_s=1.0, backoff_base_s=0.001, jitter=0.0
        )
        from repro.perf.resilient import ExecutionReport

        report = ExecutionReport()
        with chaos.inject(spec):
            out = resilient_map(
                _square, [0, 1, 2, 3], n_workers=2,
                policy=policy, report=report,
            )
        assert out == [0, 1, 4, 9]
        assert report.n_timeouts >= 1
        assert report.pool_rebuilds >= 1
        assert not report.serial_fallback
        assert any(f.kind == "timeout" for f in report.failures)

    def test_retry_exhaustion_raises_with_context(self):
        spec = chaos.ChaosSpec(fail={0: (0, 1, 2)})
        with chaos.inject(spec):
            with pytest.raises(ExecutionError) as info:
                resilient_map(
                    _square, [0, 1], n_workers=2,
                    policy=dataclass_replace(FAST, max_attempts=3),
                )
        assert info.value.chunk_index == 0
        assert info.value.attempts == 3

    def test_rebuild_cap_falls_back_to_serial_for_remaining(self):
        # Two kills on the same chunk exhaust a rebuild cap of 1: the
        # remaining chunks (chaos-free by design of the fallback) run
        # serially and the run still completes correctly.
        spec = chaos.ChaosSpec(kill={0: (0, 1)})
        policy = dataclass_replace(
            FAST, max_attempts=4, max_pool_rebuilds=1
        )
        from repro.perf.resilient import ExecutionReport

        report = ExecutionReport()
        with chaos.inject(spec):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = resilient_map(
                    _square, [0, 1, 2, 3], n_workers=2,
                    policy=policy, report=report,
                )
        assert out == [0, 1, 4, 9]
        assert report.serial_fallback
        assert any(
            issubclass(w.category, RuntimeWarning) for w in caught
        )

    def test_rebuild_cap_without_fallback_raises(self):
        spec = chaos.ChaosSpec(kill={0: (0, 1)})
        policy = dataclass_replace(
            FAST, max_attempts=4, max_pool_rebuilds=1,
            serial_fallback=False,
        )
        with chaos.inject(spec):
            with pytest.raises(WorkerCrashError):
                resilient_map(
                    _square, [0, 1, 2, 3], n_workers=2, policy=policy
                )

    def test_serial_path_retries_transients(self):
        calls = {"n": 0}

        def flaky(x):
            calls["n"] += 1
            if calls["n"] == 1:
                raise TransientError("first try fails")
            return x * x

        from repro.perf.resilient import ExecutionReport

        report = ExecutionReport()
        out = resilient_map(
            flaky, [5], n_workers=1, policy=FAST, report=report
        )
        assert out == [25]
        assert report.chunk_attempts[0] == 2

    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(seed=7)
        a = policy.backoff_s(3, 1)
        assert a == policy.backoff_s(3, 1)
        assert a != policy.backoff_s(3, 2) or policy.jitter == 0
        for attempt in range(10):
            delay = policy.backoff_s(0, attempt)
            assert 0 < delay <= policy.backoff_max_s * (1 + policy.jitter)

    def test_execution_policy_scopes_and_restores(self):
        before = default_policy()
        with execution_policy(timeout_s=9.0, max_attempts=5) as scoped:
            assert default_policy() is scoped
            assert scoped.timeout_s == 9.0
            assert scoped.max_attempts == 5
            with execution_policy(max_attempts=2) as inner:
                assert inner.timeout_s == 9.0  # nested scopes compose
                assert inner.max_attempts == 2
            assert default_policy() is scoped
        assert default_policy() is before

    def test_results_in_input_order_under_chaos(self):
        spec = chaos.ChaosSpec(fail={2: (0,), 5: (0,)})
        with chaos.inject(spec):
            out = resilient_map(
                _square, list(range(12)), n_workers=3, policy=FAST
            )
        assert out == [x * x for x in range(12)]


def dataclass_replace(policy, **kw):
    import dataclasses

    return dataclasses.replace(policy, **kw)
