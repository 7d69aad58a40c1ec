"""The work-size-aware dispatcher behind ``n_workers="auto"``.

The dispatcher is only trustworthy if its decisions are a pure function
of (policy, work size, usable cores), and only harmless if a pooled
grading call it picks is bit-identical to the serial one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.atpg.faults import build_fault_universe, collapse_faults
from repro.atpg.fsim import FaultSimulator
from repro.errors import ConfigError
from repro.obs import Telemetry, use_telemetry
from repro.perf.dispatch import (
    DispatchPolicy,
    current_dispatch,
    decide_fsim,
    decide_scap,
    dispatch_policy,
    usable_cpus,
    wants_auto,
)
from repro.soc import build_turbo_eagle


class TestDispatchPolicy:
    def test_defaults_are_auto(self):
        policy = DispatchPolicy()
        assert policy.mode == "auto"
        assert policy.n_workers is None

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            DispatchPolicy(mode="serialish")

    def test_scoping_composes(self):
        base = current_dispatch()
        with dispatch_policy(mode="pool", n_workers=3) as outer:
            assert current_dispatch() is outer
            with dispatch_policy(n_workers=2) as inner:
                assert inner.mode == "pool"  # inherited
                assert inner.n_workers == 2
            assert current_dispatch() is outer
        assert current_dispatch() is base

    def test_wants_auto(self):
        assert wants_auto("auto")
        assert not wants_auto(4)
        assert not wants_auto(None)
        assert not wants_auto(1)


class TestDecisions:
    def test_usable_cpus_positive(self):
        assert usable_cpus() >= 1

    def test_tiny_work_stays_batch(self):
        with dispatch_policy(n_workers=8):
            decision = decide_fsim(64, 10)
        assert decision.mode == "batch"
        assert decision.n_workers == 1

    def test_huge_work_goes_pool(self):
        with dispatch_policy(n_workers=8):
            decision = decide_fsim(10_000, 50_000)
        assert decision.mode == "pool"
        assert decision.n_workers > 1
        assert "overhead" in decision.reason

    def test_single_core_never_pools(self):
        with dispatch_policy(n_workers=1):
            decision = decide_fsim(10_000, 50_000)
        assert decision.mode == "batch"
        assert decision.reason == "single core"

    def test_forced_modes_win(self):
        with dispatch_policy(mode="batch", n_workers=8):
            assert decide_fsim(10_000, 50_000).mode == "batch"
        with dispatch_policy(mode="pool", n_workers=8):
            decision = decide_scap(4)
            assert decision.mode == "pool"
            assert decision.reason == "forced pool"

    def test_pool_capped_by_items(self):
        with dispatch_policy(mode="pool", n_workers=8):
            assert decide_scap(3).n_workers <= 3

    def test_scap_estimate_scales_with_patterns(self):
        with dispatch_policy(n_workers=8):
            small = decide_scap(4)
            large = decide_scap(100_000)
        assert small.est_serial_s < large.est_serial_s
        assert small.mode == "batch"
        assert large.mode == "pool"

    def test_explicit_policy_object_wins(self):
        policy = DispatchPolicy(mode="pool", n_workers=2)
        decision = decide_fsim(10_000, 50_000, policy=policy)
        assert decision.mode == "pool"
        assert decision.n_workers == 2

    def test_decisions_counted(self):
        tel = Telemetry(tracing=False)
        with use_telemetry(tel):
            with dispatch_policy(n_workers=8):
                decide_fsim(64, 10)
                decide_scap(100_000)
        assert tel.metrics.counter("dispatch.fsim").value(mode="batch") == 1
        assert tel.metrics.counter("dispatch.scap").value(mode="pool") == 1


class TestCallSiteValidation:
    def test_auto_is_bit_identical_under_forced_pool(self):
        design = build_turbo_eagle("tiny", seed=2007)
        domain = design.dominant_domain()
        nl = design.netlist
        reps, _ = collapse_faults(nl, build_fault_universe(nl))
        rng = np.random.default_rng(3)
        matrix = rng.integers(0, 2, size=(96, nl.n_flops), dtype=np.int8)
        sim = FaultSimulator(nl, domain, kernel_cache=None)
        ref = sim.run_batch(matrix, reps)
        with dispatch_policy(mode="pool", n_workers=2):
            got = sim.run_batch(matrix, reps, n_workers="auto")
        assert got == ref
