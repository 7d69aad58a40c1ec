"""Noise-aware static timing safety bound (``repro.timing``).

Covers the droop-derated delay upper bound, the endpoint
classification lattice, the three-tier re-simulation pre-screen, the
flow integration, and — most importantly — the soundness contract:
the static bound must dominate the IR-scaled event-simulated delay
for every endpoint of every pattern ever tested.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.engine import AtpgEngine
from repro.config import ElectricalEnv
from repro.core.flow import run_noise_tolerant_flow
from repro.core.irscale import ir_scaled_endpoint_comparison
from repro.errors import ConfigError
from repro.pgrid import GridModel
from repro.power import ScapCalculator
from repro.reporting import RunReport
from repro.soc import build_turbo_eagle
from repro.timing import (
    AT_RISK,
    CLASSIFICATIONS,
    INACTIVE,
    SAFE_DERATED,
    SAFE_STATIC,
    DroopBoundAnalyzer,
    prescreen_pattern_set,
    prescreened_endpoint_comparison,
)

SETUP_NS = 0.12


@pytest.fixture(scope="module")
def env():
    design = build_turbo_eagle("tiny", seed=55)
    model = GridModel.calibrated(design, nx=12, ny=12)
    calc = ScapCalculator(design, "clka")
    patterns = (
        AtpgEngine(design.netlist, "clka", scan=design.scan, seed=3)
        .run(max_patterns=12)
        .pattern_set
    )
    return design, model, calc, patterns


@pytest.fixture(scope="module")
def analyzer(env):
    design, model, calc, _patterns = env
    return DroopBoundAnalyzer(
        design, "clka", model=model, delays=calc.delays
    )


class TestDroopBoundsDominance:
    def test_static_droop_dominates_every_pattern(self, env):
        from repro.pgrid import dynamic_ir_for_pattern

        design, model, calc, patterns = env
        bound = DroopBoundAnalyzer(
            design, "clka", model=model, delays=calc.delays
        )
        gate_b, flop_b, _total = bound.droop_bounds_v()
        for pat in patterns:
            v1 = pat.v1_dict()
            timing = calc.simulate_pattern(v1)
            ir = dynamic_ir_for_pattern(model, timing)
            assert (gate_b + 1e-12 >= ir.gate_droop_v).all()
            assert (flop_b + 1e-12 >= ir.flop_droop_v).all()

    def test_block_bounds_cover_floorplan(self, env, analyzer):
        design, _model, _calc, _patterns = env
        blocks = analyzer.block_droop_bounds_v()
        assert set(blocks) == set(design.blocks())
        assert all(v >= 0.0 for v in blocks.values())


class TestPatternBounds:
    def test_classification_partition(self, env, analyzer):
        _design, _model, calc, patterns = env
        v1 = patterns[0].v1_dict()
        report = analyzer.pattern_bounds(v1)
        counts = report.counts()
        assert set(counts) == set(CLASSIFICATIONS)
        assert sum(counts.values()) == len(report.endpoints)
        assert len(report.endpoints) == len(calc.launch_time)

    def test_inactive_endpoints_measure_zero(self, env, analyzer):
        _design, _model, _calc, patterns = env
        report = analyzer.pattern_bounds(patterns[0].v1_dict())
        for ep in report.endpoints.values():
            if ep.classification == INACTIVE:
                assert ep.measured_bound_ns == 0.0
                assert ep.provably_safe
            else:
                assert ep.measured_bound_ns > 0.0

    def test_inactive_matches_simulated_inactivity(self, env, analyzer):
        """Endpoints the static pass proves unreachable simulate to 0."""
        _design, model, calc, patterns = env
        v1 = patterns[0].v1_dict()
        report = analyzer.pattern_bounds(v1)
        cmp_ = ir_scaled_endpoint_comparison(
            calc, model, v1, env=ElectricalEnv()
        )
        for fi, ep in report.endpoints.items():
            if ep.classification == INACTIVE:
                assert cmp_.scaled_ns[fi] == 0.0
                assert cmp_.nominal_ns[fi] == 0.0

    def test_empty_seed_set_is_fully_inactive(self, analyzer):
        report = analyzer.derated_bounds(set(), 1.0, 1.0)
        assert report.counts()[INACTIVE] == len(report.endpoints)
        assert report.fully_safe
        assert report.worst_bound_slack_ns() == float("inf")

    def test_endpoint_selection_by_name(self, env, analyzer):
        design, _model, _calc, patterns = env
        v1 = patterns[0].v1_dict()
        full = analyzer.pattern_bounds(v1)
        some = sorted(full.endpoints)[:2]
        names = [design.netlist.flops[fi].name for fi in some]
        sub = analyzer.pattern_bounds(v1, endpoints=names)
        assert sorted(sub.endpoints) == some
        for fi in some:
            assert sub.endpoints[fi].measured_bound_ns == (
                full.endpoints[fi].measured_bound_ns
            )

    def test_report_to_dict_is_json_serialisable(self, env, analyzer):
        _design, _model, _calc, patterns = env
        report = analyzer.pattern_bounds(patterns[0].v1_dict())
        data = json.loads(json.dumps(report.to_dict()))
        assert data["domain"] == "clka"
        assert data["counts"] == report.counts()


class TestErrorContracts:
    def test_droop_bound_needs_grid_model(self, env):
        design, _model, calc, _patterns = env
        bare = DroopBoundAnalyzer(design, "clka", delays=calc.delays)
        with pytest.raises(ConfigError, match="power-grid model"):
            bare.pattern_bounds({0: 1})

    def test_unknown_domain_rejected(self, env):
        design, model, _calc, _patterns = env
        with pytest.raises(Exception, match="clkz"):
            DroopBoundAnalyzer(design, "clkz", model=model)

    def test_empty_endpoint_selection_rejected(self, env, analyzer):
        _design, _model, _calc, patterns = env
        with pytest.raises(ConfigError, match="empty endpoint"):
            analyzer.pattern_bounds(patterns[0].v1_dict(), endpoints=[])

    def test_unknown_endpoint_rejected(self, env, analyzer):
        _design, _model, _calc, patterns = env
        with pytest.raises(ConfigError, match="unknown endpoint"):
            analyzer.pattern_bounds(
                patterns[0].v1_dict(), endpoints=["no_such_flop"]
            )

    def test_bad_seed_in_derated_bounds_rejected(self, env, analyzer):
        design, _model, _calc, _patterns = env
        bad = design.netlist.n_flops + 3
        with pytest.raises(ConfigError, match="not launch-capable"):
            analyzer.derated_bounds([bad], 1.0, 1.0)

    def test_nonpositive_max_patterns_rejected(self, env):
        _design, model, calc, patterns = env
        with pytest.raises(ConfigError, match="max_patterns"):
            prescreen_pattern_set(calc, model, patterns, max_patterns=0)


class TestPrescreen:
    def test_prescreen_misses_equal_full_path(self, env):
        design, model, calc, patterns = env
        analyzer = DroopBoundAnalyzer(
            design, "clka", model=model, delays=calc.delays
        )
        limit = calc.period_ns - SETUP_NS
        for i, pat in enumerate(patterns):
            v1 = pat.v1_dict()
            pres = prescreened_endpoint_comparison(
                calc, model, v1, index=i, analyzer=analyzer
            )
            full = ir_scaled_endpoint_comparison(
                calc, model, v1, env=ElectricalEnv()
            )
            full_misses = sorted(
                fi
                for fi, d in full.scaled_ns.items()
                if d > limit
            )
            assert sorted(pres.misses()) == full_misses
            assert pres.soundness_violations() == []

    def test_safe_pattern_skips_scaled_sim(self, env):
        _design, model, calc, patterns = env
        v1 = patterns[0].v1_dict()
        pres = prescreened_endpoint_comparison(calc, model, v1)
        if pres.report.fully_safe:
            # no at-risk endpoints -> the scaled Case-2 sim was pruned
            assert pres.skipped_scaled_sim
        if pres.skipped_all_simulation:
            assert pres.nominal_ns is None
            assert pres.report.fully_safe
        assert pres.skipped_scaled_sim == (pres.scaled_ns is None)

    def test_all_zero_pattern_prescreens_clean(self, env):
        design, model, calc, _patterns = env
        v1 = {fi: 0 for fi in range(design.netlist.n_flops)}
        pres = prescreened_endpoint_comparison(calc, model, v1)
        assert pres.misses() == []
        assert pres.soundness_violations() == []
        if pres.report.fully_safe:
            assert pres.skipped_all_simulation

    def test_summary_accounting(self, env):
        _design, model, calc, patterns = env
        summary = prescreen_pattern_set(
            calc, model, patterns, audit_patterns=2
        )
        assert summary.domain == "clka"
        assert summary.n_patterns == len(patterns)
        n_eps = len(calc.launch_time)
        assert summary.endpoints_total == summary.n_patterns * n_eps
        assert sum(summary.endpoint_counts.values()) == (
            summary.endpoints_total
        )
        assert 0.0 <= summary.pruned_endpoint_fraction <= 1.0
        assert summary.soundness_checked >= 1
        assert summary.soundness_violations == 0
        assert (
            summary.patterns_static_safe
            + summary.patterns_derated_safe
            + summary.patterns_resimulated
        ) == summary.n_patterns
        data = json.loads(json.dumps(summary.to_dict()))
        assert data["n_patterns"] == summary.n_patterns

    def test_max_patterns_caps_work(self, env):
        _design, model, calc, patterns = env
        summary = prescreen_pattern_set(
            calc, model, patterns, max_patterns=3, audit_patterns=0
        )
        assert summary.n_patterns == 3


class TestLanes:
    def test_lane_rows_match_lanes_of_one(self, env, analyzer):
        _design, _model, calc, patterns = env
        lane = np.stack([np.asarray(p.v1) for p in patterns])
        frames = calc.lane_frames(lane)
        rng = np.random.default_rng(5)
        width = lane.shape[0]
        gate_derate = rng.uniform(1.0, 1.4, (width, calc.design.netlist.n_gates))
        flop_derate = rng.uniform(1.0, 1.4, (width, calc.design.netlist.n_flops))
        static = analyzer.static_lane(frames.toggling)
        derated = analyzer.derated_lane(
            frames.toggling, gate_derate, flop_derate
        )
        for p in range(width):
            one = calc.lane_frames(lane[p : p + 1])
            assert one.frame1_of(0) == frames.frame1_of(p)
            assert one.launch_of(0) == frames.launch_of(p)
            assert one.seeds_of(0) == frames.seeds_of(p)
            alone = analyzer.static_lane(one.toggling)
            assert alone.codes[0].tolist() == static.codes[p].tolist()
            assert alone.measured[0].tobytes() == static.measured[p].tobytes()
            assert alone.block_droop[0] == static.block_droop[p]
            alone = analyzer.derated_lane(
                one.toggling, gate_derate[p : p + 1], flop_derate[p : p + 1]
            )
            assert alone.codes[0].tolist() == derated.codes[p].tolist()
            assert alone.measured[0].tobytes() == (
                derated.measured[p].tobytes()
            )

    def test_prescreen_opens_one_span_per_lane(self, env):
        from repro.obs import Telemetry, nesting_errors, use_telemetry

        _design, model, calc, patterns = env
        many = [patterns[i % len(patterns)] for i in range(70)]
        tel = Telemetry(run_id="lanes")
        with use_telemetry(tel):
            summary = prescreen_pattern_set(
                calc, model, many, audit_patterns=0
            )
        assert tel.tracer is not None
        events = tel.tracer.events
        (screen,) = [e for e in events if e["name"] == "timing.prescreen"]
        lanes = [e for e in events if e["name"] == "timing.lane"]
        assert [(e["attrs"]["start"], e["attrs"]["width"]) for e in lanes] == [
            (0, 64),
            (64, 6),
        ]
        assert all(e["parent_id"] == screen["span_id"] for e in lanes)
        for key, total in (
            ("static_safe", summary.patterns_static_safe),
            ("derated_safe", summary.patterns_derated_safe),
            ("resimulated", summary.patterns_resimulated),
        ):
            assert sum(e["attrs"][key] for e in lanes) == total
        assert nesting_errors(events) == []


class TestFlowIntegration:
    def test_flow_timing_stage_and_report_roundtrip(self, tmp_path):
        design = build_turbo_eagle("tiny", seed=55)
        _result, report = run_noise_tolerant_flow(
            design,
            "clka",
            max_patterns=6,
            timing_prescreen=True,
            timing_max_patterns=4,
        )
        assert report.timing is not None
        assert "error" not in report.timing
        assert report.timing["n_patterns"] == 4
        stage = {s.name: s for s in report.stages}["timing"]
        assert stage.status == "completed"
        assert stage.detail["patterns"] == 4
        path = report.save(str(tmp_path / "report.json"))
        loaded = RunReport.load(path)
        assert loaded.timing == report.timing

    def test_durations_survive_a_backwards_clock_step(self, monkeypatch):
        import itertools
        import time

        readings = itertools.count()

        def stepping_back() -> float:
            # every wall-clock reading is a minute before the previous
            return 1.7e9 - 60.0 * next(readings)

        monkeypatch.setattr(time, "time", stepping_back)
        design = build_turbo_eagle("tiny", seed=55)
        _result, report = run_noise_tolerant_flow(
            design,
            "clka",
            max_patterns=6,
            schedule_budget_mw=1e6,
            timing_prescreen=True,
            timing_max_patterns=4,
        )
        durations = {
            s.name: s.detail["elapsed_s"]
            for s in report.stages
            if "elapsed_s" in s.detail
        }
        assert {"schedule", "timing"} <= set(durations)
        assert len(durations) >= 3  # ATPG stages record theirs too
        assert all(v >= 0.0 for v in durations.values()), durations
        assert report.timing["elapsed_s"] >= 0.0

    def test_flow_without_prescreen_leaves_timing_none(self):
        design = build_turbo_eagle("tiny", seed=55)
        _result, report = run_noise_tolerant_flow(
            design, "clka", max_patterns=4
        )
        assert report.timing is None


_PROP_DESIGN = build_turbo_eagle("tiny", seed=21)
_PROP_MODEL = GridModel.calibrated(_PROP_DESIGN, nx=12, ny=12)
_PROP_CALC = ScapCalculator(_PROP_DESIGN, "clka")
_PROP_ANALYZER = DroopBoundAnalyzer(
    _PROP_DESIGN, "clka", model=_PROP_MODEL, delays=_PROP_CALC.delays
)
_PROP_N = _PROP_DESIGN.netlist.n_flops


class TestSoundnessProperty:
    @settings(max_examples=12, deadline=None)
    @given(
        bits=st.lists(
            st.integers(min_value=0, max_value=1),
            min_size=_PROP_N,
            max_size=_PROP_N,
        )
    )
    def test_bound_dominates_ir_scaled_delay(self, bits):
        """The headline inequality: static droop-derated bound >=
        IR-scaled event-simulated endpoint delay, endpoint by
        endpoint, for arbitrary launch patterns."""
        v1 = dict(enumerate(bits))
        pres = prescreened_endpoint_comparison(
            _PROP_CALC, _PROP_MODEL, v1, analyzer=_PROP_ANALYZER
        )
        cmp_ = ir_scaled_endpoint_comparison(
            _PROP_CALC, _PROP_MODEL, v1, env=ElectricalEnv()
        )
        for fi, ep in pres.report.endpoints.items():
            assert ep.classification in CLASSIFICATIONS
            assert (
                ep.measured_bound_ns + 1e-9 >= cmp_.scaled_ns[fi]
            ), (
                f"unsound bound at endpoint {fi}: "
                f"bound {ep.measured_bound_ns} < "
                f"simulated {cmp_.scaled_ns[fi]}"
            )
            if ep.classification == AT_RISK:
                continue
            assert ep.classification in (
                INACTIVE,
                SAFE_STATIC,
                SAFE_DERATED,
            )
            assert cmp_.scaled_ns[fi] <= ep.limit_ns + 1e-9
