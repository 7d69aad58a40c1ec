"""Tests for the paper-contribution layer: flows, thresholds,
validation, IR-scaled re-simulation and the case-study driver.

A single tiny CaseStudy instance is shared module-wide: the flows are
the expensive part and every experiment method reuses the caches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import CaseStudy
from repro.core import (
    STAGE_PLAN_TURBO_EAGLE,
    NoiseAwarePatternGenerator,
    validate_pattern_set,
)
from repro.core.validation import ScapViolation
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def study():
    return CaseStudy(scale="tiny", seed=2007, backtrack_limit=60)


class TestThresholds:
    def test_all_blocks_have_thresholds(self, study):
        thresholds = study.thresholds_mw
        assert set(thresholds) == {"B1", "B2", "B3", "B4", "B5", "B6"}
        assert all(v > 0 for v in thresholds.values())

    def test_b5_threshold_largest(self, study):
        thresholds = study.thresholds_mw
        assert max(thresholds, key=thresholds.get) == "B5"


class TestFlows:
    def test_conventional_flow(self, study):
        flow = study.conventional()
        assert flow.name == "conventional"
        assert flow.fill == "random"
        assert flow.n_patterns > 0
        assert flow.test_coverage > 0.5

    def test_staged_flow_structure(self, study):
        flow = study.staged()
        assert flow.fill == "0"
        assert len(flow.step_results) == len(STAGE_PLAN_TURBO_EAGLE)
        assert flow.step_boundaries[0] == 0
        assert flow.step_boundaries == sorted(flow.step_boundaries)
        assert flow.n_patterns > 0

    def test_staged_pattern_indices_continuous(self, study):
        flow = study.staged()
        for i, pattern in enumerate(flow.pattern_set):
            assert pattern.index == i

    def test_coverage_curves_monotone_and_end_at_final(self, study):
        for flow in (study.conventional(), study.staged()):
            curve = flow.coverage_curve()
            ys = [y for _x, y in curve]
            assert all(b >= a for a, b in zip(ys, ys[1:]))
            assert ys[-1] == pytest.approx(flow.test_coverage)

    def test_similar_final_coverage(self, study):
        """Figure 4: both flows converge to comparable coverage."""
        conv = study.conventional().test_coverage
        stag = study.staged().test_coverage
        assert abs(conv - stag) < 0.12

    def test_staged_more_patterns(self, study):
        assert study.staged().n_patterns >= study.conventional().n_patterns

    def test_unknown_block_in_plan_rejected(self, study):
        with pytest.raises(ConfigError):
            NoiseAwarePatternGenerator(
                study.design, stage_plan=[("B9",)]
            )

    def test_empty_plan_rejected(self, study):
        with pytest.raises(ConfigError):
            NoiseAwarePatternGenerator(study.design, stage_plan=[])


class TestValidation:
    def test_violations_consistent(self, study):
        report = study.validation("conventional")
        for v in report.violations:
            assert v.scap_mw > v.threshold_mw
            assert v.excess_ratio > 1.0
            assert 0 <= v.pattern_index < report.n_patterns

    def test_staged_quieter_in_b5(self, study):
        """The paper's headline: far fewer B5 violations after staging."""
        conv = study.validation("conventional")
        stag = study.validation("staged")
        assert (
            stag.violation_fraction("B5") <= conv.violation_fraction("B5")
        )

    def test_staged_prefix_is_quiet(self, study):
        """Figure 6: before the B5 step, B5 SCAP is (near) zero."""
        stag = study.validation("staged")
        boundaries = study.staged().step_boundaries
        series = stag.scap_series("B5")
        prefix = series[: boundaries[-1]]
        threshold = study.thresholds_mw["B5"]
        assert (prefix <= threshold).all()

    def test_extreme_patterns(self, study):
        report = study.validation("conventional")
        picks = report.extreme_patterns("B5")
        series = report.scap_series("B5")
        assert series[picks["P1"]] == series.max()
        assert picks["P1"] != picks["P2"] or len(series) == 1

    def test_scap_series_length(self, study):
        report = study.validation("conventional")
        assert len(report.scap_series("B5")) == report.n_patterns

    def test_unknown_flow_name_rejected(self, study):
        with pytest.raises(ConfigError, match="'bogus'"):
            study.validation("bogus")

    def test_unknown_schedule_flow_rejected(self, study):
        with pytest.raises(ConfigError, match="'bogus'"):
            study.schedule(flow_name="bogus")


class TestCaseStudyTables:
    def test_table1(self, study):
        t1 = study.table1()
        assert t1["clock_domains"] == 6
        assert t1["transition_delay_faults"] > 0

    def test_table3_shapes(self, study):
        t3 = study.table3()
        case1 = {r.block: r for r in t3["case1_full_cycle"]}
        case2 = {r.block: r for r in t3["case2_half_cycle"]}
        # Power ~doubles for every block when the window is halved.
        for block in ("B1", "B2", "B3", "B4", "B5", "B6"):
            ratio = case2[block].avg_power_mw / case1[block].avg_power_mw
            assert 1.5 < ratio < 2.5
        # B5 is the worst-IR block in both cases.
        worst2 = max(
            (r for r in t3["case2_half_cycle"] if r.block != "Chip"),
            key=lambda r: r.worst_drop_vdd_v,
        )
        assert worst2.block == "B5"

    def test_table4_scap_exceeds_cap(self, study):
        t4 = study.table4()
        assert t4["SCAP"]["avg_power_mw"] > 1.5 * t4["CAP"]["avg_power_mw"]
        assert t4["SCAP"]["worst_drop_vdd_v"] >= t4["CAP"]["worst_drop_vdd_v"]
        assert t4["SCAP"]["window_ns"] < t4["CAP"]["window_ns"]

    def test_figure1_render(self, study):
        art = study.figure1()
        assert "5" in art and "1" in art

    def test_figure3_p1_droopier_than_p2(self, study):
        f3 = study.figure3()
        assert f3["P1"]["scap_mw_b5"] >= f3["P2"]["scap_mw_b5"]
        assert (
            f3["P1"]["worst_drop_vdd_v"] >= f3["P2"]["worst_drop_vdd_v"]
        )

    def test_figure4_curves(self, study):
        f4 = study.figure4()
        assert set(f4) == {"conventional", "staged"}
        assert len(f4["staged"]) == study.staged().n_patterns


class TestIrScale:
    def test_figure7_regions(self, study):
        comp = study.figure7()
        deltas = comp.deltas()
        assert deltas, "expected active endpoints"
        # Region 1 must exist: IR-drop slows some real paths.
        assert comp.region1(), "no slowed endpoints"
        assert comp.max_increase_pct() > 0
        # Scaled delays never speed a *data path* up; apparent speedups
        # come only from capture-clock lateness, so any region-2 delta
        # is bounded by the clock-path change.
        assert all(
            fi in comp.nominal_ns for fi in comp.region2()
        )

    def test_figure7_ir_linked(self, study):
        comp = study.figure7()
        assert comp.ir.worst_vdd_v > 0
