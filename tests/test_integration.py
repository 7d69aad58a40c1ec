"""Cross-layer integration tests on a generated SOC."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.drc import check_netlist_drc
from repro.netlist import parse_verilog, write_verilog
from repro.netlist.levelize import levelize
from repro.sim import DelayModel, LogicSim, loc_launch_capture
from repro.soc import build_turbo_eagle


@pytest.fixture(scope="module")
def design():
    return build_turbo_eagle("tiny", seed=2024)


class TestSocVerilogRoundTrip:
    def test_generated_soc_roundtrips(self, design):
        buf = io.StringIO()
        write_verilog(design.netlist, buf)
        buf.seek(0)
        back = parse_verilog(buf)
        assert back.n_gates == design.netlist.n_gates
        assert back.n_flops == design.netlist.n_flops
        assert check_netlist_drc(back).errors() == []

    def test_roundtrip_preserves_logic(self, design):
        buf = io.StringIO()
        write_verilog(design.netlist, buf)
        buf.seek(0)
        back = parse_verilog(buf)
        # Same V1 must produce the same captured response, matched by
        # flop name (net ids may be renumbered).
        rng = np.random.default_rng(5)
        bits = {f.name: int(rng.integers(2)) for f in design.netlist.flops}

        def capture(netlist):
            sim = LogicSim(netlist)
            v1 = {
                fi: bits[f.name] for fi, f in enumerate(netlist.flops)
            }
            cyc = loc_launch_capture(sim, v1, "clka")
            return {
                netlist.flops[fi].name: val
                for fi, val in cyc.captured.items()
            }

        assert capture(design.netlist) == capture(back)

    def test_roundtrip_preserves_chains(self, design):
        buf = io.StringIO()
        write_verilog(design.netlist, buf)
        buf.seek(0)
        back = parse_verilog(buf)
        orig_scan = {
            f.name for f in design.netlist.flops if f.is_scan
        }
        back_scan = {f.name for f in back.flops if f.is_scan}
        assert orig_scan == back_scan


class TestStructuralConsistency:
    def test_levelizable(self, design):
        order, _ = levelize(design.netlist)
        assert len(order) == design.netlist.n_gates

    def test_delay_model_covers_everything(self, design):
        dm = DelayModel(design.netlist, design.parasitics)
        assert (dm.gate_delay_ns > 0).all()
        assert (dm.flop_ck2q_ns > 0).all()
        # Critical path fits within the at-speed cycle (timing closure).
        assert dm.critical_path_estimate_ns() < 20.0

    def test_clock_domain_flops_capture_only_their_domain(self, design):
        sim = LogicSim(design.netlist)
        v1 = {fi: 1 for fi in range(design.netlist.n_flops)}
        cyc = loc_launch_capture(sim, v1, "clkb")
        for fi in cyc.pulsed_flops:
            assert design.netlist.flops[fi].clock_domain == "clkb"
        # Non-pulsed flops hold their V1 value in the launch state.
        for fi, f in enumerate(design.netlist.flops):
            if f.clock_domain != "clkb" or f.edge != "pos":
                assert cyc.launch_state[fi] == 1

    def test_every_domain_runs_a_cycle(self, design):
        sim = LogicSim(design.netlist)
        for domain in design.domains:
            v1 = {fi: 0 for fi in range(design.netlist.n_flops)}
            cyc = loc_launch_capture(sim, v1, domain)
            assert cyc.pulsed_flops

    def test_scan_state_controls_all_blocks(self, design):
        """Flipping one enable + data flop of a block changes that
        block's launch activity: scan controllability sanity."""
        sim = LogicSim(design.netlist)
        zeros = {fi: 0 for fi in range(design.netlist.n_flops)}
        base = loc_launch_capture(sim, zeros, "clka")
        ones = {fi: 1 for fi in range(design.netlist.n_flops)}
        active = loc_launch_capture(sim, ones, "clka")
        changed = sum(
            1
            for fi in base.pulsed_flops
            if base.launch_state[fi] != active.launch_state[fi]
            or base.captured[fi] != active.captured[fi]
        )
        assert changed > len(base.pulsed_flops) // 4
