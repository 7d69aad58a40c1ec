"""Tests for the unified :class:`repro.RunContext` session API."""

from __future__ import annotations

import warnings

import pytest

from repro import RunContext, current_run_context, use_run_context
from repro.context import INHERIT_CACHE
from repro.core.flow import run_noise_tolerant_flow
from repro.obs import (
    NULL_TELEMETRY,
    Telemetry,
    current_telemetry,
    use_telemetry,
)
from repro.perf.dispatch import DispatchPolicy, current_dispatch, dispatch_policy
from repro.perf.kernel_cache import KernelCache, current_kernel_cache, use_kernel_cache
from repro.perf.resilient import RetryPolicy, default_policy, execution_policy
from repro.soc import build_turbo_eagle


@pytest.fixture(scope="module")
def design():
    return build_turbo_eagle("tiny", seed=2007)


class TestRunContextScoping:
    def test_default_context_inherits_everything(self):
        ctx = RunContext()
        assert ctx.is_default()
        before = (
            current_telemetry(),
            default_policy(),
            current_dispatch(),
            current_kernel_cache(),
        )
        with use_run_context(ctx):
            assert (
                current_telemetry(),
                default_policy(),
                current_dispatch(),
                current_kernel_cache(),
            ) == before

    def test_none_context_is_noop(self):
        before = current_telemetry()
        with use_run_context(None) as ctx:
            assert ctx.is_default()
            assert current_telemetry() is before

    def test_scopes_compose_like_individual_managers(self, tmp_path):
        tel = Telemetry(metrics=True)
        retry = RetryPolicy(max_attempts=4)
        dispatch = DispatchPolicy(mode="batch")
        cache = KernelCache(str(tmp_path))
        ctx = RunContext(
            telemetry=tel,
            execution=retry,
            dispatch=dispatch,
            kernel_cache=cache,
        )
        assert not ctx.is_default()
        with use_run_context(ctx):
            assert current_telemetry() is tel
            assert default_policy() is retry
            assert current_dispatch() is dispatch
            assert current_kernel_cache() is cache
        # Everything unwinds on exit.
        assert current_telemetry() is not tel
        assert default_policy() is not retry
        assert current_dispatch() is not dispatch
        assert current_kernel_cache() is not cache

    def test_partial_context_keeps_outer_scopes(self):
        outer_tel = Telemetry(metrics=True)
        with use_telemetry(outer_tel):
            with use_run_context(RunContext(dispatch=DispatchPolicy())):
                assert current_telemetry() is outer_tel

    def test_kernel_cache_tristate(self, tmp_path):
        cache = KernelCache(str(tmp_path))
        with use_kernel_cache(cache):
            # INHERIT_CACHE (default) leaves the ambient cache alone...
            with use_run_context(RunContext()):
                assert current_kernel_cache() is cache
            # ...while an explicit None disables caching in the scope.
            with use_run_context(RunContext(kernel_cache=None)):
                assert current_kernel_cache() is None
        assert repr(INHERIT_CACHE) == "INHERIT_CACHE"

    def test_current_run_context_snapshot_round_trips(self):
        tel = Telemetry(metrics=True)
        with use_telemetry(tel), execution_policy(RetryPolicy(max_attempts=2)):
            snap = current_run_context()
        assert snap.telemetry is tel
        assert snap.execution.max_attempts == 2
        with use_run_context(snap):
            assert current_telemetry() is tel
            assert default_policy().max_attempts == 2


class TestFlowContextApi:
    def test_context_matches_legacy_knobs_bit_identically(self, design):
        """context=RunContext(...) reproduces the four-ambient-knob
        configuration bit for bit."""
        with use_telemetry(None), execution_policy(RetryPolicy()), \
                dispatch_policy(DispatchPolicy()):
            legacy, _ = run_noise_tolerant_flow(
                design, max_patterns=15, seed=1
            )
        via_ctx, _ = run_noise_tolerant_flow(
            design,
            max_patterns=15,
            seed=1,
            context=RunContext(
                telemetry=None,
                execution=RetryPolicy(),
                dispatch=DispatchPolicy(),
            ),
        )
        assert (
            legacy.pattern_set.as_matrix().tobytes()
            == via_ctx.pattern_set.as_matrix().tobytes()
        )

    def test_no_warning_on_context_api(self, design):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_noise_tolerant_flow(
                design,
                max_patterns=5,
                context=RunContext(telemetry=NULL_TELEMETRY),
            )

    def test_flow_schedule_stage_records_report(self, design):
        result, report = run_noise_tolerant_flow(
            design, max_patterns=15, schedule_budget_mw=200.0
        )
        assert result is not None
        assert report.schedule is not None
        assert report.schedule["strategy"] == "binpack"
        assert report.schedule["peak_power_mw"] <= 200.0
        assert any(
            s.name == "schedule" and s.status == "completed"
            for s in report.stages
        )
        # The digest survives the JSON round trip.
        from repro.reporting import RunReport

        loaded = RunReport.from_dict(report.to_dict())
        assert loaded.schedule == report.schedule

    def test_flow_infeasible_budget_partial_not_crash(self, design):
        result, report = run_noise_tolerant_flow(
            design, max_patterns=5, schedule_budget_mw=0.001
        )
        assert result is not None
        assert report.status == "partial"
        assert "error" in report.schedule
        # strict mode propagates the ConfigError instead.
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            run_noise_tolerant_flow(
                design,
                max_patterns=5,
                schedule_budget_mw=0.001,
                strict=True,
            )


class TestCaseStudySchedule:
    def test_default_budget_is_feasible(self):
        from repro import CaseStudy

        study = CaseStudy(scale="tiny", seed=2007, backtrack_limit=60)
        schedule = study.schedule()
        schedule.validate()
        assert sorted(schedule.blocks()) == sorted(study.design.blocks())
        assert schedule.strategy == "binpack"
        greedy = study.schedule(strategy="greedy")
        assert schedule.makespan_us <= greedy.makespan_us + 1e-9
