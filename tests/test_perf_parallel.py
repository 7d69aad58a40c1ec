"""Equivalence tests for the batched/parallel performance paths.

Everything in :mod:`repro.perf`, the multi-word fault simulation and the
batched SCAP grading is a pure speed lever: these tests pin the
bit-for-bit contract against naive references — the quadratic pack loop,
a full-cone interpreted fault simulation, and per-pattern profiling.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.faults import build_fault_universe, collapse_faults
from repro.atpg.fsim import FaultSimulator, first_detection_index
from repro.core.validation import digest_key
from repro.errors import AtpgError, ExecutionError
from repro.netlist.cells import CELL_FUNCTIONS
from repro.obs import Telemetry, use_telemetry
from repro.perf import chaos, usable_cpus
from repro.perf.resilient import (
    chunk_slices,
    chunked,
    collect_reports,
    resilient_map,
    resolve_workers,
)
from repro.power.calculator import ScapCalculator
from repro.service.jobstore import backoff_delay_s
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

    def test_grade_lane_leaves_good_frame_intact(self, graded):
        """Pool workers grade every chunk and retry against one memoized
        good frame, so grading must restore it, also when it raises."""
        design, domain, faults, matrix = graded
        fsim = FaultSimulator(design.netlist, domain)
        f1, g2, mask = fsim._lane_frames(matrix[:64], "loc", None, None)
        good = list(g2)
        words = fsim._grade_lane(f1, g2, mask, faults)
        assert words and g2 == good

        evaluations = 0
        fail_at = None

        def counted(fn):
            def evaluate(ins, m):
                nonlocal evaluations
                evaluations += 1
                if evaluations == fail_at:
                    raise RuntimeError("injected evaluation failure")
                return fn(ins, m)
            return evaluate

        fsim._records = [
            (counted(fn), read_pins, out)
            for fn, read_pins, out in fsim._records
        ]
        assert fsim._grade_lane(f1, g2, mask, faults) == words
        fail_at, evaluations = evaluations // 2, 0
        with pytest.raises(RuntimeError, match="injected"):
            fsim._grade_lane(f1, g2, mask, faults)
        assert g2 == good
        assert fsim._grade_lane(f1, g2, mask, faults) == words


class TestRunBatchInputs:
    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("case", ["narrow", "wide", "short_v2"])
    def test_bad_shapes_raise_before_any_lane(self, graded, case, n_workers):
        """The pooled path rejects what the serial path rejects, before
        a worker starts: a narrow V1 must not read its missing flops as
        0, and a wide one must not fail inside the pool."""
        design, domain, faults, matrix = graded
        fsim = FaultSimulator(design.netlist, domain)
        kwargs = {}
        if case == "narrow":
            v1 = matrix[:, :-3]
        elif case == "wide":
            v1 = np.hstack([matrix, np.zeros((len(matrix), 3), matrix.dtype)])
        else:
            v1 = matrix
            kwargs = {"protocol": "es", "v2_matrix": matrix[:-3]}
        with pytest.raises(AtpgError):
            fsim.run_batch(v1, faults, n_workers=n_workers, **kwargs)


class TestScapBatchEquivalence:
    def test_batch_matches_per_pattern(self, graded):
        design, domain, _faults, matrix = graded
        calc = ScapCalculator(design, domain)
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


def _offset_square(x):
    """Square x plus the offset the initializer installed."""
    return x * x + _OFFSET


_OFFSET = 0


def _set_offset(offset):
    global _OFFSET
    _OFFSET = offset


def _mapped(task, items, **kw):
    """``resilient_map`` plus its report and the RuntimeWarnings raised."""
    with collect_reports() as reports, warnings.catch_warnings(
        record=True
    ) as caught:
        warnings.simplefilter("always")
        out = resilient_map(task, items, **kw)
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return out, reports[0], runtime


class TestResilientMap:
    """The one recovery rule, under deterministic worker kills."""

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
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ExecutionError) as info:
                resilient_map(_buggy, [3], n_workers=1)
        assert isinstance(info.value.__cause__, ValueError)
        assert info.value.chunk_index == 0
        assert not any(
            issubclass(w.category, RuntimeWarning) for w in caught
        )

    def test_worker_kill_requeues_only_inflight_chunks(self, tmp_path):
        # SIGKILL the worker that picks up chunk 0.  Delivered chunks
        # must not run again, and the rest finish serially here.
        items = [(x, str(tmp_path)) for x in range(8)]
        with chaos.inject(chaos.ChaosSpec(kill={0})):
            out, report, runtime = _mapped(
                _traced_square, items, n_workers=2
            )
        assert out == [x * x for x in range(8)]
        assert len(runtime) == 1
        assert report.serial_fallback
        runs_per_item = {}
        for marker in os.listdir(tmp_path):
            x = int(marker.split("_")[0])
            runs_per_item[x] = runs_per_item.get(x, 0) + 1
        # Every item executed, and only the chunks in flight when the
        # pool broke (at most n_workers) executed a second time — a
        # wholesale serial re-run would double all eight.
        assert set(runs_per_item) == set(range(8))
        extra = sum(n - 1 for n in runs_per_item.values())
        assert extra <= 2, runs_per_item

    def test_worker_kill_falls_back_to_serial_for_remaining(
        self, monkeypatch
    ):
        # The serial finish runs the initializer in this process first:
        # without it the offset would be missing from those results.
        monkeypatch.setattr(f"{__name__}._OFFSET", 0)  # restored after
        tel = Telemetry(run_id="kill")
        with use_telemetry(tel), chaos.inject(chaos.ChaosSpec(kill={0})):
            out, report, runtime = _mapped(
                _offset_square, [0, 1, 2, 3], n_workers=2,
                initializer=_set_offset, initargs=(10,),
            )
        assert out == [x * x + 10 for x in range(4)]
        assert len(runtime) == 1
        assert "serially" in str(runtime[0].message)
        assert report.serial_fallback
        assert [(f.chunk_index, f.kind) for f in report.failures] == [
            (0, "crash")
        ]
        assert tel.metrics.counter("exec.worker_crashes").total == 1
        assert tel.metrics.counter("exec.serial_fallbacks").total == 1

    def test_pool_that_cannot_start_runs_serially(self, monkeypatch):
        def no_pool(**kw):
            raise OSError("no processes left")

        monkeypatch.setattr(
            "repro.perf.resilient.ProcessPoolExecutor", no_pool
        )
        out, report, runtime = _mapped(_square, [1, 2, 3], n_workers=2)
        assert out == [1, 4, 9]
        assert len(runtime) == 1
        assert report.serial_fallback
        assert not report.failures

    @pytest.mark.parametrize("case", ["clean", "kill", "error"])
    def test_no_worker_outlives_the_map(self, case):
        items = list(range(6))
        spec = chaos.ChaosSpec(kill={1} if case == "kill" else set())
        task = _buggy if case == "error" else _square
        with chaos.inject(spec), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                resilient_map(task, items, n_workers=2)
            except ExecutionError:
                assert case == "error"
        assert multiprocessing.active_children() == []

    def test_backoff_is_deterministic_and_bounded(self):
        # The job requeue's backoff curve (the pool itself never
        # backs off).
        a = backoff_delay_s(0.05, 2.0, 2.0, 0.25, 7, 3, 1)
        assert a == backoff_delay_s(0.05, 2.0, 2.0, 0.25, 7, 3, 1)
        assert a != backoff_delay_s(0.05, 2.0, 2.0, 0.25, 7, 3, 2)
        for attempt in range(10):
            delay = backoff_delay_s(0.05, 2.0, 2.0, 0.25, 7, 0, attempt)
            assert 0 < delay <= 2.0 * 1.25
        assert backoff_delay_s(0.05, 2.0, 2.0, 0.0, 7, 0, 3) == 0.4

    def test_results_in_input_order_under_chaos(self):
        with chaos.inject(chaos.ChaosSpec(kill={2, 5})):
            out, report, runtime = _mapped(
                _square, list(range(12)), n_workers=3
            )
        assert out == [x * x for x in range(12)]
        assert len(runtime) == 1
        assert report.serial_fallback
