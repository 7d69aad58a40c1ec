"""Tests for the power models: statistical, CAP/SCAP, SCAP calculator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import joules_to_milliwatts
from repro.errors import ConfigError
from repro.power import (
    PatternPowerProfile,
    ScapCalculator,
    clock_tree_cycle_energy_fj,
    statistical_block_power,
)
from repro.power.energy import clock_buffer_energies_fj
from repro.power.statistical import chip_power_mw
from repro.soc import build_turbo_eagle


@pytest.fixture(scope="module")
def design():
    return build_turbo_eagle("tiny", seed=19)


class TestUnits:
    def test_fj_per_ns_is_microwatt(self):
        # 1000 fJ over 1 ns = 1 uW = 1e-3 mW.
        assert joules_to_milliwatts(1000.0, 1.0) == pytest.approx(1.0)

    def test_zero_window_rejected(self):
        with pytest.raises(ConfigError):
            joules_to_milliwatts(1.0, 0.0)


class TestStatisticalPower:
    def test_case2_doubles_logic_power(self, design):
        c1 = statistical_block_power(design, window_fraction=1.0,
                                     include_clock=False)
        c2 = statistical_block_power(design, window_fraction=0.5,
                                     include_clock=False)
        for block in c1:
            assert c2[block].avg_power_mw == pytest.approx(
                2.0 * c1[block].avg_power_mw
            )

    def test_b5_is_dominant_power_block(self, design):
        stats = statistical_block_power(design)
        powers = {b: s.avg_power_mw for b, s in stats.items()}
        assert max(powers, key=powers.get) == "B5"

    def test_toggle_rate_scales_logic_power(self, design):
        lo = statistical_block_power(design, toggle_rate=0.1,
                                     include_clock=False)
        hi = statistical_block_power(design, toggle_rate=0.3,
                                     include_clock=False)
        assert hi["B5"].avg_power_mw == pytest.approx(
            3.0 * lo["B5"].avg_power_mw
        )

    def test_invalid_parameters(self, design):
        with pytest.raises(ConfigError):
            statistical_block_power(design, window_fraction=0.0)
        with pytest.raises(ConfigError):
            statistical_block_power(design, toggle_rate=1.5)

    def test_chip_power_is_sum(self, design):
        stats = statistical_block_power(design)
        assert chip_power_mw(stats) == pytest.approx(
            sum(s.avg_power_mw for s in stats.values())
        )

    def test_clock_energy_positive(self, design):
        tree = design.clock_trees["clka"]
        assert clock_tree_cycle_energy_fj(tree) > 0
        per_buf = clock_buffer_energies_fj(tree)
        assert sum(per_buf.values()) == pytest.approx(
            clock_tree_cycle_energy_fj(tree, edges=1)
        )


class TestScapModel:
    def test_scap_vs_cap(self):
        profile = PatternPowerProfile(
            pattern_index=0,
            period_ns=20.0,
            stw_ns=10.0,
            n_transitions=100,
            energy_fj_total=20000.0,
            energy_fj_by_block={"B5": 5000.0},
        )
        assert profile.cap_mw() == pytest.approx(1e-3 * 20000 / 20)
        assert profile.scap_mw() == pytest.approx(2 * profile.cap_mw())
        assert profile.scap_to_cap_ratio == pytest.approx(2.0)
        assert profile.scap_mw("B5") == pytest.approx(1e-3 * 5000 / 10)
        assert profile.scap_mw("B9") == 0.0

    def test_quiet_pattern_zero_scap(self):
        profile = PatternPowerProfile(0, 20.0, 0.0, 0, 0.0)
        assert profile.scap_mw() == 0.0
        assert profile.scap_to_cap_ratio == 0.0


class TestScapCalculator:
    @pytest.fixture(scope="class")
    def calc(self, design):
        return ScapCalculator(design, "clka")

    def test_random_pattern_profile(self, design, calc):
        rng = np.random.default_rng(1)
        v1 = {fi: int(rng.integers(2)) for fi in range(design.netlist.n_flops)}
        profile = calc.profile_pattern(v1, index=7)
        assert profile.pattern_index == 7
        assert profile.stw_ns > 0
        assert profile.scap_mw() > profile.cap_mw()

    def test_all_zero_pattern_is_quiet(self, design, calc):
        """The load-enable structure makes all-zeros a near fixed point:
        only the ungated bus registers may flip once."""
        v1 = {fi: 0 for fi in range(design.netlist.n_flops)}
        profile = calc.profile_pattern(v1, index=0)
        bus_nets = sum(
            1 for name in design.netlist.net_names if name.startswith("bus_")
        )
        assert profile.n_transitions <= bus_nets
        # And every block's own logic stays silent.
        for block in design.blocks():
            assert profile.energy_fj(block) == 0.0

    def test_raw_dict_needs_index(self, calc):
        with pytest.raises(ConfigError):
            calc.profile_pattern({0: 1})

    def test_unknown_domain_rejected(self, design):
        with pytest.raises(ConfigError):
            ScapCalculator(design, "clkz")
