"""Edge-case and error-path tests across the library."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.config import ElectricalEnv
from repro.errors import (
    AtpgError,
    ConfigError,
    NetlistError,
    ScanError,
    SimulationError,
)
from repro.netlist import Netlist, parse_verilog
from repro.netlist.library import CellSpec, Library
from repro.soc import build_turbo_eagle
from repro.soc.blocks import BlockPlan


class TestConfig:
    def test_env_validation(self):
        with pytest.raises(ConfigError):
            ElectricalEnv(vdd=0.0)
        with pytest.raises(ConfigError):
            ElectricalEnv(k_volt=-1.0)

    def test_scaled_delay_formula(self):
        env = ElectricalEnv(k_volt=0.9)
        assert env.scaled_delay(1.0, 0.1) == pytest.approx(1.09)
        # negative drop (overshoot) clamps
        assert env.scaled_delay(1.0, -0.5) == pytest.approx(1.0)

    def test_red_threshold(self):
        env = ElectricalEnv(vdd=1.8)
        assert env.red_drop_v == pytest.approx(0.18)


class TestLibraryEdges:
    def test_duplicate_cell_rejected(self):
        spec = CellSpec("X1", "INV", 0.1, 1.0, 1.0, 1.0)
        with pytest.raises(Exception):
            Library("dup", [spec, spec])

    def test_unknown_kind_rejected(self):
        bad = CellSpec("X1", "QUANTUM", 0.1, 1.0, 1.0, 1.0)
        with pytest.raises(Exception):
            Library("bad", [bad])


class TestVerilogEdges:
    def test_no_module_rejected(self):
        with pytest.raises(NetlistError):
            parse_verilog(io.StringIO("wire a;\n"))

    def test_unknown_construct_rejected(self):
        text = "module m (a);\n  input a;\n  assign b = a;\nendmodule\n"
        with pytest.raises(NetlistError):
            parse_verilog(io.StringIO(text))

    def test_minimal_module(self):
        text = (
            "module m (\n    a,\n    y\n);\n"
            "  input a;\n  output y;\n"
            "  INVX1 u0 (.A(a), .Y(y));\n"
            "endmodule\n"
        )
        nl = parse_verilog(io.StringIO(text))
        assert nl.n_gates == 1
        assert nl.net_names[nl.gates[0].output] == "y"


class TestBlockPlanValidation:
    def test_too_few_flops(self):
        with pytest.raises(ConfigError):
            BlockPlan("B9", 1, 4.0, 4, {"clka": 1.0})

    def test_bad_domain_shares(self):
        with pytest.raises(ConfigError):
            BlockPlan("B9", 8, 4.0, 4, {"clka": 0.5, "clkb": 0.2})

    def test_too_shallow(self):
        with pytest.raises(ConfigError):
            BlockPlan("B9", 8, 4.0, 1, {"clka": 1.0})


class TestEngineEdges:
    @pytest.fixture(scope="class")
    def design(self):
        return build_turbo_eagle("tiny", seed=61)

    def test_empty_fault_list(self, design):
        from repro.atpg import AtpgEngine

        engine = AtpgEngine(design.netlist, "clka", scan=design.scan)
        result = engine.run(faults=[])
        assert result.n_patterns == 0
        assert result.total_faults == 0
        assert result.coverage_curve() == []

    def test_forced_bits_present_in_every_pattern(self, design):
        from repro.atpg import AtpgEngine

        engine = AtpgEngine(design.netlist, "clka", scan=design.scan,
                            seed=1)
        forced = {design.netlist.scan_flops[0]: 1}
        result = engine.run(fill="0", max_patterns=10, forced_bits=forced)
        for pattern in result.pattern_set:
            for fi, bit in forced.items():
                assert pattern.v1[fi] == bit
                assert pattern.care[fi]

    def test_single_fault_run(self, design):
        from repro.atpg import AtpgEngine, build_fault_universe

        engine = AtpgEngine(design.netlist, "clka", scan=design.scan,
                            seed=1)
        fault = build_fault_universe(design.netlist)[4]
        result = engine.run(faults=[fault])
        assert result.total_faults == 1
        assert result.n_patterns <= 1

    def test_unknown_domain(self, design):
        from repro.atpg import AtpgEngine

        with pytest.raises(AtpgError):
            AtpgEngine(design.netlist, "clk_nonexistent")

    @pytest.mark.parametrize("setting", [
        {"batch_size": 0},
        {"batch_size": -3},
        {"backtrack_limit": -1},
        {"merge_backtrack_limit": -1},
    ])
    def test_out_of_range_limits_rejected(self, design, setting):
        """A batch of no patterns would end the run with nothing
        classified, and a negative budget aborts every search."""
        from repro.atpg import AtpgEngine

        name = next(iter(setting))
        with pytest.raises(AtpgError, match=name):
            AtpgEngine(design.netlist, "clka", scan=design.scan, **setting)


class TestFlowEdges:
    def test_max_patterns_budget_across_steps(self):
        from repro.core import NoiseAwarePatternGenerator

        design = build_turbo_eagle("tiny", seed=61)
        flow = NoiseAwarePatternGenerator(
            design, seed=1, backtrack_limit=40
        ).run(max_patterns=10)
        assert flow.n_patterns <= 10

    def test_cross_detected_counted_once(self):
        from repro.core import NoiseAwarePatternGenerator

        design = build_turbo_eagle("tiny", seed=61)
        flow = NoiseAwarePatternGenerator(
            design, seed=1, backtrack_limit=40
        ).run()
        engine_detected = sum(len(r.detected) for r in flow.step_results)
        assert flow.detected_faults == engine_detected + len(
            flow.cross_detected
        )
        # Cross-detected faults point at valid earlier patterns.
        for fault, idx in flow.cross_detected.items():
            assert 0 <= idx < flow.n_patterns


class TestEndpointEdges:
    def test_active_endpoints_filter(self):
        from repro.sim.endpoints import active_endpoints

        delays = {0: 0.0, 1: 2.5, 2: 0.0, 3: 1.0}
        assert active_endpoints(delays) == {1: 2.5, 3: 1.0}
