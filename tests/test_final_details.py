"""Final grab-bag: remaining uncovered behaviours."""

from __future__ import annotations

import numpy as np
import pytest

from repro import CaseStudy
from repro.core import ConventionalFlow
from repro.dft import capture_responses
from repro.errors import PowerGridError
from repro.pgrid import GridModel
from repro.power import ScapCalculator
from repro.soc import build_turbo_eagle


@pytest.fixture(scope="module")
def design():
    return build_turbo_eagle("tiny", seed=173)


class TestGridModelDetails:
    def test_worst_in_unknown_block(self, design):
        model = GridModel.build(design, nx=8, ny=8)
        drop = np.ones(model.vdd_grid.n_nodes)
        assert model.worst_in_block(drop, "B99") == 0.0

    def test_drop_grid_shape(self, design):
        model = GridModel.build(design, nx=8, ny=10)
        drop = np.arange(80, dtype=float)
        grid = model.vdd_grid.drop_grid(drop)
        assert grid.shape == (10, 8)
        assert grid[0, 3] == 3.0

    def test_injection_units(self, design):
        model = GridModel.build(design, nx=8, ny=8)
        power = np.zeros(64)
        power[10] = 1.8  # mW at 1.8 V -> 1 mA -> 1e-3 A
        inj = model.injection_from_node_power(power, vdd=1.8)
        assert inj[10] == pytest.approx(1e-3)


class TestCalculatorDetails:
    def test_profile_patterns_order(self, design):
        calc = ScapCalculator(design, "clka")
        flow = ConventionalFlow(design, seed=1, backtrack_limit=40).run(
            max_patterns=6
        )
        profiles = calc.profile_patterns(flow.pattern_set)
        assert [p.pattern_index for p in profiles] == list(
            range(len(profiles))
        )

    def test_capture_responses_cover_pulsed_flops(self, design):
        calc = ScapCalculator(design, "clka")
        flow = ConventionalFlow(design, seed=1, backtrack_limit=40).run(
            max_patterns=3
        )
        responses = capture_responses(
            design.netlist, flow.pattern_set, "clka"
        )
        assert len(responses) == 3
        pulsed = {
            fi
            for fi, f in enumerate(design.netlist.flops)
            if f.clock_domain == "clka" and f.edge == "pos"
        }
        for response in responses:
            assert set(response) == pulsed


class TestCaseStudyCaching:
    def test_flows_cached(self):
        study = CaseStudy(scale="tiny", seed=191, backtrack_limit=40)
        first = study.conventional()
        second = study.conventional()
        assert first is second
        v1 = study.validation("conventional")
        v2 = study.validation("conventional")
        assert v1 is v2

    def test_model_and_thresholds_cached(self):
        study = CaseStudy(scale="tiny", seed=191, backtrack_limit=40)
        assert study.model is study.model
        assert study.thresholds_mw is study.thresholds_mw


class TestPowerGridValidation:
    def test_bad_injection_shape(self, design):
        model = GridModel.build(design, nx=8, ny=8)
        with pytest.raises(PowerGridError):
            model.vdd_grid.drop_v(np.zeros(7))
