"""Tests for power-constrained SOC test scheduling."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CaseStudy
from repro.core import (
    BlockTestSpec,
    ScheduleBudget,
    TamCandidate,
    schedule_tests,
    specs_from_flow,
)
from repro.core import TestSchedule as ScheduleClass
from repro.core.flow import run_noise_tolerant_flow
from repro.core.scheduling import budget_sweep, generate_block_specs
from repro.dft import partition_wrapper_chains, wrapper_plan
from repro.errors import ConfigError
from repro.obs import Telemetry, use_telemetry
from repro.reporting import RunReport
from repro.soc import build_turbo_eagle

#: sha256 (see :func:`placement_digest`) of the greedy and binpack
#: schedules of ``generate_block_specs(n, seed=2007)`` for n in (8, 16,
#: 32), at every ``budget_sweep`` budget with TAM width 16: 36
#: schedules.  Any moved, resized or re-timed placement changes it.
GOLDEN_SWEEP_DIGEST = (
    "f2baa5faa51b2c7397d7ac39ed25e76c7d743b25eac518429bed0278de79c32f"
)


def placement_digest(placements):
    """sha256 over placement dicts in order, floats rounded to 1e-9."""
    h = hashlib.sha256()
    for p in placements:
        h.update(
            f"{p['block']}|{p['start_us']:.9f}|{p['time_us']:.9f}|"
            f"{p['power_mw']:.9f}|{p['tam_width']}|{p['tam_offset']}\n"
            .encode()
        )
    return h.hexdigest()


def _specs():
    """Six fixed-time blocks: single-candidate width-1 specs."""
    return [
        BlockTestSpec.from_base(block, time_us, power_mw, [1])
        for block, time_us, power_mw in (
            ("B1", 100.0, 2.0),
            ("B2", 80.0, 3.0),
            ("B3", 60.0, 2.5),
            ("B4", 50.0, 1.0),
            ("B5", 200.0, 6.0),
            ("B6", 90.0, 2.0),
        )
    ]


def _greedy(specs, power_budget_mw):
    return schedule_tests(
        specs, ScheduleBudget(power_mw=power_budget_mw), strategy="greedy"
    )


class TestScheduler:
    def test_budget_respected(self):
        schedule = _greedy(_specs(), power_budget_mw=7.0)
        for _t, power in schedule.power_profile():
            assert power <= 7.0
        assert schedule.peak_power_mw <= 7.0

    def test_every_block_scheduled_once(self):
        schedule = _greedy(_specs(), power_budget_mw=7.0)
        assert sorted(schedule.blocks()) == [
            "B1", "B2", "B3", "B4", "B5", "B6",
        ]

    def test_parallelism_beats_serial(self):
        schedule = _greedy(_specs(), power_budget_mw=10.0)
        assert schedule.makespan_us < schedule.serial_time_us
        assert schedule.speedup > 1.0

    def test_tight_budget_degenerates_to_serial(self):
        # Budget fits exactly one task at a time (max power is 6).
        schedule = _greedy(_specs(), power_budget_mw=6.0)
        # B5 (6.0) must run alone; everything else may still pair up.
        b5 = next(p for p in schedule.placements if p.block == "B5")
        assert not [
            p.block
            for p in schedule.placements
            if p is not b5
            and p.start_us < b5.end_us
            and b5.start_us < p.end_us
        ]

    def test_infeasible_task_rejected(self):
        with pytest.raises(ConfigError):
            _greedy(_specs(), power_budget_mw=5.0)

    def test_duplicate_block_rejected(self):
        specs = _specs() + [BlockTestSpec.from_base("B1", 10.0, 1.0, [1])]
        for strategy in ("greedy", "binpack"):
            with pytest.raises(ConfigError, match="duplicate block"):
                schedule_tests(
                    specs, ScheduleBudget(power_mw=10.0), strategy=strategy
                )

    def test_invalid_task_values(self):
        with pytest.raises(ConfigError):
            BlockTestSpec.from_base("B1", -1.0, 1.0, [1])
        with pytest.raises(ConfigError):
            BlockTestSpec.from_base("B1", 1.0, -1.0, [1])
        with pytest.raises(ConfigError):
            _greedy(_specs(), power_budget_mw=0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        times=st.lists(
            st.floats(min_value=1.0, max_value=500.0),
            min_size=1, max_size=10,
        ),
        powers=st.lists(
            st.floats(min_value=0.1, max_value=5.0),
            min_size=10, max_size=10,
        ),
    )
    def test_properties_hold_for_random_tasks(self, times, powers):
        specs = [
            BlockTestSpec.from_base(f"X{i}", t, powers[i], [1])
            for i, t in enumerate(times)
        ]
        schedule = _greedy(specs, power_budget_mw=5.0)
        assert sorted(schedule.blocks()) == sorted(s.block for s in specs)
        for _t, power in schedule.power_profile():
            assert power <= 5.0 + 1e-9
        # Makespan is bounded by serial time and by the longest task.
        assert schedule.makespan_us <= schedule.serial_time_us + 1e-9
        assert schedule.makespan_us >= max(times)


class TestTasksFromFlow:
    @pytest.fixture(scope="class")
    def study(self):
        return CaseStudy(scale="tiny", seed=2007, backtrack_limit=60)

    def test_staged_flow_tasks(self, study):
        flow = study.staged()
        specs = specs_from_flow(study.design, flow, study.thresholds_mw)
        blocks = [s.block for s in specs]
        assert set(blocks) == {"B1", "B2", "B3", "B4", "B5", "B6"}
        assert all(c.time_us > 0 for s in specs for c in s.candidates)
        budget = sum(study.thresholds_mw.values())
        schedule = _greedy(specs, power_budget_mw=budget)
        assert schedule.speedup >= 1.0


# ----------------------------------------------------------------------
# wrapper/TAM co-optimisation model
# ----------------------------------------------------------------------
class TestTamModel:
    def test_from_base_width_time_tradeoff(self):
        spec = BlockTestSpec.from_base("B1", 120.0, 3.0, [1, 2, 4])
        by_width = {c.width: c for c in spec.candidates}
        assert set(by_width) == {1, 2, 4}
        assert by_width[2].time_us == pytest.approx(60.0)
        assert by_width[4].time_us == pytest.approx(30.0)

    def test_diagonal_tie_break_key(self):
        tall = TamCandidate(4, 3.0, 1.0)
        flat = TamCandidate(1, 3.0, 1.0)
        assert tall.diagonal > flat.diagonal
        assert tall.diagonal == pytest.approx((16 + 9.0) ** 0.5)

    def test_duplicate_widths_rejected(self):
        with pytest.raises(ConfigError):
            BlockTestSpec(
                "B1",
                (TamCandidate(2, 1.0, 1.0), TamCandidate(2, 2.0, 1.0)),
            )

    def test_empty_candidates_rejected(self):
        with pytest.raises(ConfigError):
            BlockTestSpec("B1", ())

    def test_task_is_width1_spec(self):
        spec = BlockTestSpec.from_base("B1", 10.0, 2.0, [1])
        assert spec.candidates == (TamCandidate(1, 10.0, 2.0),)


# ----------------------------------------------------------------------
# strategy selection
# ----------------------------------------------------------------------
class TestStrategySelection:
    def test_unknown_strategy_named_in_error(self):
        with pytest.raises(
            ConfigError, match=r"'nosuch'; choose from \['greedy', 'binpack'\]"
        ):
            schedule_tests(
                _specs(), ScheduleBudget(power_mw=10.0), strategy="nosuch"
            )

    def test_schedule_tests_dispatches(self):
        budget = ScheduleBudget(power_mw=10.0)
        greedy = schedule_tests(_specs(), budget, strategy="greedy")
        packed = schedule_tests(_specs(), budget, strategy="binpack")
        assert greedy.strategy == "greedy"
        assert packed.strategy == "binpack"
        assert packed.makespan_us <= greedy.makespan_us + 1e-9

    @pytest.mark.parametrize("strategy", ["greedy", "binpack"])
    def test_one_span_and_count_per_call(self, strategy):
        specs = generate_block_specs(8, seed=2007)
        tel = Telemetry()
        with use_telemetry(tel):
            schedule_tests(
                specs,
                ScheduleBudget(power_mw=15.0, tam_width=16),
                strategy=strategy,
            )
        runs = [e for e in tel.tracer.events if e["name"] == "sched.run"]
        assert len(runs) == 1
        assert runs[0]["attrs"]["strategy"] == strategy
        assert tel.metrics.get("sched.placements").total == len(specs)


# ----------------------------------------------------------------------
# edge-case contracts
# ----------------------------------------------------------------------
class TestEdgeContracts:
    def test_zero_tasks_raise_config_error(self):
        for strategy in ("greedy", "binpack"):
            with pytest.raises(ConfigError, match="no tasks"):
                schedule_tests(
                    [], ScheduleBudget(power_mw=5.0), strategy=strategy
                )

    def test_empty_schedule_speedup_raises_not_zero_division(self):
        empty = ScheduleClass(placements=[], power_budget_mw=5.0)
        with pytest.raises(ConfigError, match="speedup is undefined"):
            empty.speedup

    def test_budget_below_largest_block_names_it(self):
        with pytest.raises(ConfigError, match="'B5'"):
            _greedy(_specs(), power_budget_mw=5.0)

    def test_tam_too_narrow_names_block(self):
        specs = [
            BlockTestSpec.from_base("B1", 10.0, 1.0, [1]),
            BlockTestSpec.from_base("WIDE", 10.0, 1.0, [4, 8]),
        ]
        with pytest.raises(ConfigError, match="'WIDE'"):
            schedule_tests(
                specs, ScheduleBudget(power_mw=10.0, tam_width=2)
            )


# ----------------------------------------------------------------------
# bin-packing properties (hypothesis)
# ----------------------------------------------------------------------
def _random_specs(draw_times, draw_powers, draw_widths):
    specs = []
    for i, t in enumerate(draw_times):
        widths = sorted(set(draw_widths[i]))
        specs.append(
            BlockTestSpec.from_base(
                f"X{i}", t, draw_powers[i], widths
            )
        )
    return specs


class TestBinPackingProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        times=st.lists(
            st.floats(min_value=1.0, max_value=400.0),
            min_size=2, max_size=8,
        ),
        powers=st.lists(
            st.floats(min_value=0.1, max_value=4.0),
            min_size=8, max_size=8,
        ),
        widths=st.lists(
            st.lists(
                st.sampled_from([1, 2, 4, 8]), min_size=1, max_size=3
            ),
            min_size=8, max_size=8,
        ),
        budget_mw=st.floats(min_value=4.0, max_value=12.0),
        tam_width=st.sampled_from([8, 12, 16, None]),
    )
    def test_envelope_and_tam_always_respected(
        self, times, powers, widths, budget_mw, tam_width
    ):
        # Force width 1 into every candidate list so the TAM limit can
        # never make a block infeasible on its own.
        specs = _random_specs(
            times, powers, [w + [1] for w in widths]
        )
        budget = ScheduleBudget(power_mw=budget_mw, tam_width=tam_width)
        greedy = schedule_tests(specs, budget, strategy="greedy")
        packed = schedule_tests(specs, budget, strategy="binpack")
        for schedule in (greedy, packed):
            schedule.validate()
            assert sorted(schedule.blocks()) == sorted(
                s.block for s in specs
            )
            for _t, power in schedule.power_profile():
                assert power <= budget_mw + 1e-9
            if tam_width is not None:
                for _t, used in schedule.tam_profile():
                    assert used <= tam_width
        # The portfolio guarantee: packing never loses to greedy.
        assert packed.makespan_us <= greedy.makespan_us + 1e-9

    def test_packing_beats_greedy_on_multi_width_design(self):
        # Deterministic multi-width SOC where rectangle packing must
        # find a strictly better makespan than greedy sessions.
        specs = generate_block_specs(8, seed=2007)
        budget = ScheduleBudget(power_mw=15.0, tam_width=16)
        greedy = schedule_tests(specs, budget, strategy="greedy")
        packed = schedule_tests(specs, budget, strategy="binpack")
        packed.validate()
        assert packed.makespan_us < greedy.makespan_us


# ----------------------------------------------------------------------
# wrapper partitioning
# ----------------------------------------------------------------------
class TestWrapperPartitioning:
    def test_round_robin_is_balanced(self):
        chains = partition_wrapper_chains(list(range(10)), 4)
        lengths = sorted(len(c) for c in chains)
        assert lengths == [2, 2, 3, 3]
        assert sorted(x for c in chains for x in c) == list(range(10))

    def test_width_beyond_cells_collapses(self):
        chains = partition_wrapper_chains([7, 8], 5)
        assert len(chains) == 2

    def test_no_cells_raises(self):
        from repro.errors import ScanError

        with pytest.raises(ScanError):
            partition_wrapper_chains([], 2)

    def test_design_width_options_and_plan(self):
        design = build_turbo_eagle("tiny", seed=2007)
        for block in design.blocks():
            options = design.tam_width_options(block)
            assert options, f"{block} has no width options"
            assert options == sorted(set(options))
            ceiling = max(options)
            plan = wrapper_plan(design, block, ceiling)
            assert plan.n_cells == len(design.flops_in_block(block))
            depth1 = wrapper_plan(design, block, 1).max_chain_length
            assert plan.max_chain_length <= depth1


# ----------------------------------------------------------------------
# synthetic SOC families
# ----------------------------------------------------------------------
class TestSyntheticSocs:
    def test_sweep_schedules_match_golden_digest(self):
        placements = []
        for n in (8, 16, 32):
            specs = generate_block_specs(n, seed=2007)
            for budget_mw in budget_sweep(specs):
                budget = ScheduleBudget(power_mw=budget_mw, tam_width=16)
                for strategy in ("greedy", "binpack"):
                    schedule = schedule_tests(specs, budget, strategy=strategy)
                    placements += [p.to_dict() for p in schedule.placements]
        assert placement_digest(placements) == GOLDEN_SWEEP_DIGEST

    def test_deterministic(self):
        a = generate_block_specs(12, seed=42)
        b = generate_block_specs(12, seed=42)
        assert a == b
        assert len(a) == 12

    def test_budget_sweep_always_feasible(self):
        specs = generate_block_specs(10, seed=7)
        for budget_mw in budget_sweep(specs):
            schedule = schedule_tests(
                specs, ScheduleBudget(power_mw=budget_mw, tam_width=16)
            )
            schedule.validate()
            assert sorted(schedule.blocks()) == sorted(
                s.block for s in specs
            )


# ----------------------------------------------------------------------
# the flow's optional schedule stage
# ----------------------------------------------------------------------
class TestFlowScheduleStage:
    @pytest.fixture(scope="class")
    def design(self):
        return build_turbo_eagle("tiny", seed=2007)

    def test_flow_schedule_stage_records_report(self, design):
        result, report = run_noise_tolerant_flow(
            design, max_patterns=15, schedule_budget_mw=200.0
        )
        assert result is not None
        assert report.schedule is not None
        assert report.schedule["strategy"] == "binpack"
        assert report.schedule["peak_power_mw"] <= 200.0
        assert placement_digest(report.schedule["placements"]) == (
            "68130b572fe3342dd853c689c864518d284560bfacfed5ee7625930b43d44f31"
        )
        assert any(
            s.name == "schedule" and s.status == "completed"
            for s in report.stages
        )
        # The digest survives the JSON round trip.
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
        with pytest.raises(ConfigError):
            run_noise_tolerant_flow(
                design,
                max_patterns=5,
                schedule_budget_mw=0.001,
                strict=True,
            )


class TestCaseStudySchedule:
    def test_default_budget_is_feasible(self):
        study = CaseStudy(scale="tiny", seed=2007, backtrack_limit=60)
        schedule = study.schedule()
        schedule.validate()
        assert sorted(schedule.blocks()) == sorted(study.design.blocks())
        assert schedule.strategy == "binpack"
        greedy = study.schedule(strategy="greedy")
        assert schedule.makespan_us <= greedy.makespan_us + 1e-9
