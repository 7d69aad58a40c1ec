"""The ``n_workers="auto"`` rule in :func:`repro.perf.resolve_workers`.

The rule is only trustworthy if its verdict is a pure function of (work
size, usable cores), and only harmless if a grading call it pools is
bit-identical to the serial one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.atpg.faults import build_fault_universe, collapse_faults
from repro.atpg.fsim import FaultSimulator
from repro.obs import Telemetry, use_telemetry
from repro.perf import resolve_workers, usable_cpus, use_kernel_cache
from repro.perf.resilient import FSIM_FAULT_PATTERNS_PER_S, SCAP_S_PER_PATTERN
from repro.power.calculator import ScapCalculator
from repro.soc import build_turbo_eagle


def _fsim_auto(n_patterns: int, n_faults: int) -> int:
    """The worker count ``FaultSimulator.run_batch`` resolves for "auto"."""
    est = n_patterns * n_faults / FSIM_FAULT_PATTERNS_PER_S
    return resolve_workers("auto", n_faults, est_serial_s=est)


def _scap_auto(n_patterns: int) -> int:
    """The worker count ``ScapCalculator.profile_patterns`` resolves."""
    est = n_patterns * SCAP_S_PER_PATTERN
    return resolve_workers("auto", n_patterns, est_serial_s=est)


@pytest.fixture
def cores(monkeypatch):
    """Set the usable core count ``resolve_workers`` sees."""

    def set_cores(n: int) -> None:
        monkeypatch.setattr("repro.perf.resilient.usable_cpus", lambda: n)

    return set_cores


@pytest.fixture
def forced_pool(cores, monkeypatch):
    """Two usable cores and a free pool: "auto" pools any work."""
    cores(2)
    monkeypatch.setattr("repro.perf.resilient.POOL_OVERHEAD_S", 0.0)


@pytest.fixture(scope="module")
def graded():
    design = build_turbo_eagle("tiny", seed=2007)
    domain = design.dominant_domain()
    nl = design.netlist
    reps, _ = collapse_faults(nl, build_fault_universe(nl))
    rng = np.random.default_rng(3)
    matrix = rng.integers(0, 2, size=(96, nl.n_flops), dtype=np.int8)
    with use_kernel_cache(None):
        sim = FaultSimulator(nl, domain)
    return design, domain, sim, list(reps), matrix


class TestDecisions:
    def test_usable_cpus_positive(self):
        assert usable_cpus() >= 1

    def test_tiny_work_stays_batch(self, cores):
        cores(8)
        assert _fsim_auto(64, 10) == 1

    def test_huge_work_goes_pool(self, cores):
        cores(8)
        assert _fsim_auto(10_000, 50_000) == 8

    def test_single_core_never_pools(self, cores):
        cores(1)
        assert _fsim_auto(10_000, 50_000) == 1
        assert _scap_auto(100_000) == 1

    def test_pool_capped_by_items(self, cores):
        cores(8)
        # 3 patterns of 100 s each: worth a pool, but only of 3.
        assert resolve_workers("auto", 3, est_serial_s=300.0) == 3

    def test_scap_estimate_scales_with_patterns(self, cores):
        cores(8)
        assert _scap_auto(4) == 1
        assert _scap_auto(100_000) == 8

    def test_resolved_workers_on_spans(self, graded, forced_pool):
        design, domain, sim, reps, matrix = graded
        calc = ScapCalculator(design, domain)
        tel = Telemetry(metrics=False)
        with use_telemetry(tel):
            sim.run_batch(matrix, reps, n_workers="auto")
            calc.profile_patterns(matrix[:4], n_workers="auto")
            calc.profile_patterns(matrix[:4])
        workers = {
            (e["name"], e["attrs"]["workers"])
            for e in tel.tracer.events
            if e["name"] in ("fsim.run_batch", "scap.profile_patterns")
        }
        assert workers == {
            ("fsim.run_batch", 2),
            ("scap.profile_patterns", 2),
            ("scap.profile_patterns", 1),
        }


class TestCallSiteValidation:
    def test_auto_is_bit_identical_under_forced_pool(self, graded, forced_pool):
        _design, _domain, sim, reps, matrix = graded
        ref = sim.run_batch(matrix, reps)
        got = sim.run_batch(matrix, reps, n_workers="auto")
        assert got == ref
