"""Tests for the static timing analyzer and IR derating."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ElectricalEnv
from repro.errors import SimulationError
from repro.pgrid import GridModel, dynamic_ir_for_pattern
from repro.power import ScapCalculator
from repro.sim import DelayModel, StaticTimingAnalyzer, derates_from_ir
from repro.soc import build_turbo_eagle


@pytest.fixture(scope="module")
def env():
    design = build_turbo_eagle("tiny", seed=55)
    dm = DelayModel(design.netlist, design.parasitics)
    sta = StaticTimingAnalyzer(
        design.netlist, dm, design.clock_trees["clka"],
        period_ns=20.0, domain="clka",
    )
    return design, dm, sta


class TestSta:
    def test_all_endpoints_have_positive_slack_at_nominal(self, env):
        design, dm, sta = env
        report = sta.analyze()
        assert report.endpoints, "no endpoints analysed"
        # The generated design is timing-closed at 20 ns.
        assert report.worst_slack_ns > 0

    def test_arrival_bounds(self, env):
        design, dm, sta = env
        report = sta.analyze()
        crit = dm.critical_path_estimate_ns()
        for e in report.endpoints:
            assert 0 < e.arrival_ns <= crit + 5.0
            assert e.required_ns > 0

    def test_worst_endpoints_sorted(self, env):
        _d, _dm, sta = env
        report = sta.analyze()
        worst = report.worst_endpoints(4)
        slacks = [e.slack_ns for e in worst]
        assert slacks == sorted(slacks)
        assert slacks[0] == pytest.approx(report.worst_slack_ns)

    def test_uniform_derate_shifts_slack(self, env):
        design, dm, sta = env
        nominal = sta.analyze()
        derated = sta.analyze(
            gate_derate=np.full(design.netlist.n_gates, 1.2),
            flop_derate=np.full(design.netlist.n_flops, 1.2),
        )
        nom = {e.flop: e for e in nominal.endpoints}
        der = {e.flop: e for e in derated.endpoints}
        for fi, e in der.items():
            assert e.arrival_ns > nom[fi].arrival_ns
            assert e.slack_ns < nom[fi].slack_ns

    def test_late_capture_clock_relaxes_required(self, env):
        _design, _dm, sta = env
        nominal = sta.analyze()
        # A slower clock tree delays both launch (arrival) and capture
        # (required); required grows by the endpoint's own insertion
        # scaling.
        scaled = sta.analyze(clock_delay_scale=lambda buf, d: d * 1.5)
        nom = {e.flop: e for e in nominal.endpoints}
        for e in scaled.endpoints:
            assert e.required_ns > nom[e.flop].required_ns

    def test_trace_path_consistent(self, env):
        _design, _dm, sta = env
        report = sta.analyze()
        endpoint = report.worst_endpoints(1)[0]
        path = sta.trace_path(endpoint)
        assert path, "empty path"
        arrivals = [p.arrival_ns for p in path]
        assert arrivals == sorted(arrivals)
        assert path[-1].arrival_ns == pytest.approx(endpoint.arrival_ns)

    def test_bad_inputs(self, env):
        design, dm, sta = env
        with pytest.raises(SimulationError):
            sta.analyze(gate_derate=np.ones(3))
        with pytest.raises(SimulationError):
            StaticTimingAnalyzer(
                design.netlist, dm, design.clock_trees["clka"],
                period_ns=-1.0, domain="clka",
            )


class TestIrDerates:
    def test_derates_from_ir(self, env):
        design, dm, sta = env
        model = GridModel.calibrated(design, nx=12, ny=12)
        calc = ScapCalculator(design, "clka")
        rng = np.random.default_rng(0)
        v1 = {fi: int(rng.integers(2)) for fi in range(design.netlist.n_flops)}
        timing = calc.simulate_pattern(v1)
        ir = dynamic_ir_for_pattern(model, timing)
        gate_d, flop_d = derates_from_ir(ir, ElectricalEnv())
        assert (gate_d >= 1.0).all()
        assert gate_d.max() == pytest.approx(
            1.0 + 0.9 * ir.gate_droop_v.max()
        )
        # IR-derated STA is never more optimistic than nominal.
        nominal = sta.analyze()
        derated = sta.analyze(gate_derate=gate_d, flop_derate=flop_d)
        assert derated.worst_slack_ns <= nominal.worst_slack_ns + 1e-9


class TestLaunchRestriction:
    def test_seeded_arrivals_never_exceed_full(self, env):
        _design, _dm, sta = env
        full = {e.flop: e for e in sta.analyze().endpoints}
        seeds = sorted(sta._launch_flops)[:3]
        seeded = sta.analyze(launch_flops=seeds)
        # fewer launch points -> a subset of cones, never later arrivals
        assert seeded.endpoints
        assert len(seeded.endpoints) <= len(full)
        for e in seeded.endpoints:
            assert e.arrival_ns <= full[e.flop].arrival_ns + 1e-9
            assert e.required_ns == pytest.approx(
                full[e.flop].required_ns
            )

    def test_empty_seed_list_reaches_nothing(self, env):
        _design, _dm, sta = env
        assert sta.analyze(launch_flops=[]).endpoints == []

    def test_non_launch_capable_seed_rejected(self, env):
        design, _dm, sta = env
        bad = design.netlist.n_flops + 5
        with pytest.raises(SimulationError, match="not launch-capable"):
            sta.analyze(launch_flops=[bad])


class TestIrDerateHardening:
    @pytest.fixture(scope="class")
    def ir(self, env):
        design, _dm, _sta = env
        model = GridModel.calibrated(design, nx=12, ny=12)
        calc = ScapCalculator(design, "clka")
        rng = np.random.default_rng(1)
        v1 = {
            fi: int(rng.integers(2))
            for fi in range(design.netlist.n_flops)
        }
        timing = calc.simulate_pattern(v1)
        return dynamic_ir_for_pattern(model, timing)

    def test_only_restricts_to_named_instances(self, env, ir):
        design, _dm, _sta = env
        name = design.netlist.gates[0].name
        gate_d, flop_d = derates_from_ir(
            ir, netlist=design.netlist, only=[name]
        )
        assert (flop_d == 1.0).all()
        assert (gate_d[1:] == 1.0).all()
        assert gate_d[0] == pytest.approx(
            1.0 + 0.9 * max(ir.gate_droop_v[0], 0.0)
        )

    def test_only_accepts_flop_names_too(self, env, ir):
        design, _dm, _sta = env
        name = design.netlist.flops[0].name
        gate_d, flop_d = derates_from_ir(
            ir, netlist=design.netlist, only=[name]
        )
        assert (gate_d == 1.0).all()
        assert (flop_d[1:] == 1.0).all()

    def test_only_without_netlist_rejected(self, ir):
        with pytest.raises(SimulationError, match="needs netlist="):
            derates_from_ir(ir, only=["u0"])

    def test_empty_only_rejected(self, env, ir):
        design, _dm, _sta = env
        with pytest.raises(SimulationError, match="empty instance"):
            derates_from_ir(ir, netlist=design.netlist, only=[])

    def test_unknown_instance_rejected(self, env, ir):
        design, _dm, _sta = env
        with pytest.raises(
            SimulationError, match="unknown instance name"
        ):
            derates_from_ir(
                ir, netlist=design.netlist, only=["no_such_cell"]
            )

    def test_mismatched_netlist_rejected(self, env, ir):
        from repro.soc import build_turbo_eagle as _build

        other = _build("tiny", seed=56).netlist
        if other.n_gates == len(ir.gate_droop_v):
            pytest.skip("same-size netlist cannot detect the mismatch")
        with pytest.raises(SimulationError, match="gate droops"):
            derates_from_ir(
                ir, netlist=other, only=[other.gates[0].name]
            )


class TestAnalyzeStatistical:
    def test_zero_sigma_is_deterministic_sta(self, env):
        from repro.sim import analyze_statistical

        _design, _dm, sta = env
        ssta = analyze_statistical(sta, sigma_fraction=0.0)
        det = {e.flop: e for e in sta.analyze().endpoints}
        assert ssta.endpoints
        for e in ssta.endpoints:
            assert e.std_arrival_ns == 0.0
            assert e.mean_arrival_ns == pytest.approx(
                det[e.flop].arrival_ns
            )
            # timing-closed design: every yield is exactly 1
            assert e.timing_yield() == 1.0
        assert ssta.chip_timing_yield() == 1.0

    def test_negative_sigma_rejected(self, env):
        from repro.sim import analyze_statistical

        _design, _dm, sta = env
        with pytest.raises(SimulationError):
            analyze_statistical(sta, sigma_fraction=-0.1)

    def test_yield_monotone_in_sigma(self, env):
        from repro.sim import analyze_statistical

        _design, _dm, sta = env
        yields = [
            analyze_statistical(sta, s).chip_timing_yield()
            for s in (0.01, 0.2, 0.8)
        ]
        assert yields[0] >= yields[1] >= yields[2]

    def test_worst_yield_endpoint_is_min(self, env):
        from repro.sim import analyze_statistical

        _design, _dm, sta = env
        ssta = analyze_statistical(sta, sigma_fraction=0.3)
        worst = ssta.worst_yield_endpoint()
        assert worst is not None
        assert worst.timing_yield() == min(
            e.timing_yield() for e in ssta.endpoints
        )
        assert ssta.chip_timing_yield() <= worst.timing_yield() + 1e-12


class TestIrScaledComparisonEdges:
    @pytest.fixture(scope="class")
    def cmp_(self, env):
        from repro.core.irscale import ir_scaled_endpoint_comparison

        design, _dm, _sta = env
        model = GridModel.calibrated(design, nx=12, ny=12)
        calc = ScapCalculator(design, "clka")
        rng = np.random.default_rng(2)
        v1 = {
            fi: int(rng.integers(2))
            for fi in range(design.netlist.n_flops)
        }
        return ir_scaled_endpoint_comparison(
            calc, model, v1, index=17, env=ElectricalEnv()
        )

    def test_dict_pattern_uses_explicit_index(self, cmp_):
        assert cmp_.pattern_index == 17

    def test_deltas_exclude_inactive_endpoints(self, cmp_):
        deltas = cmp_.deltas()
        for fi in deltas:
            assert cmp_.nominal_ns[fi] != 0.0
            assert cmp_.scaled_ns[fi] != 0.0
        inactive = {
            fi for fi, d in cmp_.nominal_ns.items() if d == 0.0
        }
        assert inactive.isdisjoint(deltas)

    def test_regions_partition_significant_deltas(self, cmp_):
        r1 = set(cmp_.region1())
        r2 = set(cmp_.region2())
        assert not (r1 & r2)
        for fi in r1:
            assert cmp_.deltas()[fi] > 0
        for fi in r2:
            assert cmp_.deltas()[fi] < 0

    def test_max_increase_pct_nonnegative(self, cmp_):
        assert cmp_.max_increase_pct() >= 0.0

    def test_split_cases_compose_to_comparison(self, env, cmp_):
        from repro.core.irscale import nominal_ir, scaled_endpoint_delays

        design, _dm, _sta = env
        model = GridModel.calibrated(design, nx=12, ny=12)
        calc = ScapCalculator(design, "clka")
        rng = np.random.default_rng(2)
        row = [int(rng.integers(2)) for _ in range(design.netlist.n_flops)]
        # The pattern as row 1 of a two-pattern lane composes to the
        # same comparison as the lane of one inside it.
        lane = np.array([[1 - b for b in row], row], dtype=np.uint8)
        frames = calc.lane_frames(lane)
        ir, nominal = nominal_ir(calc, model, calc.simulate_lane(frames, 1))
        scaled = scaled_endpoint_delays(
            calc, model, frames.frame1_of(1), frames.launch_of(1), ir,
            ElectricalEnv(),
        )
        assert nominal == cmp_.nominal_ns
        assert scaled == cmp_.scaled_ns
