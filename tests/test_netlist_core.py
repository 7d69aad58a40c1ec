"""Unit tests for the Netlist container, library, levelisation and lint."""

from __future__ import annotations

import pytest

from repro.drc import check_netlist_drc
from repro.errors import LibraryError, NetlistError
from repro.netlist import Netlist, default_library, levelize
from repro.netlist.levelize import max_logic_depth
from repro.netlist.library import DEFAULT_CELL_FOR_KIND


class TestLibrary:
    def test_every_default_cell_exists(self):
        lib = default_library()
        for kind, cell in DEFAULT_CELL_FOR_KIND.items():
            spec = lib.cell(cell)
            assert spec.kind == kind

    def test_unknown_cell_raises(self):
        with pytest.raises(LibraryError):
            default_library().cell("NAND17X9")

    def test_loaded_delay_monotone_in_load(self):
        spec = default_library().cell("NAND2X1")
        assert spec.loaded_delay_ns(10.0) < spec.loaded_delay_ns(50.0)
        assert spec.loaded_delay_ns(0.0) == pytest.approx(
            spec.intrinsic_delay_ns
        )

    def test_sequential_flags(self):
        lib = default_library()
        assert lib.cell("SDFFX1").is_sequential
        assert not lib.cell("NAND2X1").is_sequential

    def test_cells_of_kind(self):
        invs = default_library().cells_of_kind("INV")
        assert {c.name for c in invs} == {"INVX1", "INVX4"}


class TestNetlistConstruction:
    def test_stats(self, tiny_seq):
        s = tiny_seq.stats()
        assert s["gates"] == 2
        assert s["flops"] == 2
        assert s["scan_flops"] == 2

    def test_duplicate_net_rejected(self):
        nl = Netlist("x")
        nl.add_net("a")
        with pytest.raises(NetlistError):
            nl.add_net("a")

    def test_unknown_net_id_rejected(self):
        nl = Netlist("x")
        a = nl.add_net("a")
        with pytest.raises(NetlistError):
            nl.add_gate("g", "INVX1", [a], 42)

    def test_wrong_pin_count_rejected(self):
        nl = Netlist("x")
        a = nl.add_net("a")
        y = nl.add_net("y")
        with pytest.raises(NetlistError):
            nl.add_gate("g", "NAND2X1", [a], y)

    def test_sequential_cell_via_add_gate_rejected(self):
        nl = Netlist("x")
        a = nl.add_net("a")
        y = nl.add_net("y")
        with pytest.raises(NetlistError):
            nl.add_gate("g", "SDFFX1", [a], y)

    def test_comb_cell_via_add_flop_rejected(self):
        nl = Netlist("x")
        a = nl.add_net("a")
        y = nl.add_net("y")
        with pytest.raises(NetlistError):
            nl.add_flop("f", "NAND2X1", d=a, q=y, clock_domain="clka")

    def test_bad_edge_rejected(self):
        nl = Netlist("x")
        a = nl.add_net("a")
        y = nl.add_net("y")
        with pytest.raises(NetlistError):
            nl.add_flop("f", "SDFFX1", d=a, q=y, clock_domain="c", edge="both")

    def test_multiple_drivers_detected_on_freeze(self):
        nl = Netlist("x")
        a = nl.add_net("a")
        y = nl.add_net("y")
        nl.add_primary_input(a)
        nl.add_gate("g1", "INVX1", [a], y)
        nl.add_gate("g2", "INVX1", [a], y)
        with pytest.raises(NetlistError, match="multiple drivers"):
            nl.freeze()


class TestDerivedMaps:
    def test_driver_and_fanout(self, tiny_comb):
        n1 = tiny_comb.net_id("n1")
        assert tiny_comb.driver_of(n1) == ("gate", 0)
        assert tiny_comb.gate_fanouts_of(n1) == [(1, 0)]
        a = tiny_comb.net_id("a")
        assert tiny_comb.driver_of(a) == ("pi", 0)

    def test_flop_d_loads(self, tiny_seq):
        d0 = tiny_seq.net_id("d0")
        assert tiny_seq.flop_d_loads_of(d0) == [0]

    def test_mutation_invalidates_freeze(self, tiny_comb):
        tiny_comb.freeze()
        z = tiny_comb.add_net("z")
        tiny_comb.add_gate("u_buf", "BUFX2", [tiny_comb.net_id("y")], z)
        # Re-freeze happens implicitly and sees the new gate.
        assert tiny_comb.driver_of(z) == ("gate", 2)

    def test_transitive_fanout_stops_at_flops(self, tiny_seq):
        q0 = tiny_seq.net_id("q0")
        gates = set(tiny_seq.transitive_fanout_gates(q0))
        assert gates == {0, 1}

    def test_transitive_fanin(self, tiny_comb):
        y = tiny_comb.net_id("y")
        cone = set(tiny_comb.transitive_fanin_nets(y))
        names = {tiny_comb.net_names[n] for n in cone}
        assert names == {"a", "b", "c", "n1", "y"}

    def test_fanout_count_includes_po(self, tiny_comb):
        y = tiny_comb.net_id("y")
        assert tiny_comb.fanout_count(y) == 1  # PO only


class TestLevelize:
    def test_levels_ordered(self, tiny_comb):
        order, level = levelize(tiny_comb)
        assert order.index(0) < order.index(1)
        assert level[0] == 0 and level[1] == 1

    def test_depth(self, tiny_comb):
        assert max_logic_depth(tiny_comb) == 2

    def test_flop_breaks_cycle(self, tiny_seq):
        # q0 -> and -> d0 -> f0 -> q0 is sequential, not combinational.
        order, _ = levelize(tiny_seq)
        assert len(order) == 2

    def test_combinational_loop_detected(self):
        nl = Netlist("loop")
        a = nl.add_net("a")
        b = nl.add_net("b")
        nl.add_gate("g1", "INVX1", [a], b)
        nl.add_gate("g2", "INVX1", [b], a)
        with pytest.raises(NetlistError, match="loop"):
            levelize(nl)


class TestValidate:
    def test_clean_design_has_no_issues(self, tiny_comb, tiny_seq):
        assert check_netlist_drc(tiny_comb).errors() == []
        assert check_netlist_drc(tiny_seq).errors() == []

    def test_floating_input_flagged(self):
        nl = Netlist("x")
        a = nl.add_net("a")  # never driven
        y = nl.add_net("y")
        nl.add_gate("g", "INVX1", [a], y)
        errors = check_netlist_drc(nl).errors()
        assert any("floating" in v.message for v in errors)

    def test_undriven_po_flagged(self):
        nl = Netlist("x")
        z = nl.add_net("z")
        nl.add_primary_output(z)
        errors = check_netlist_drc(nl).errors()
        assert any("undriven" in v.message for v in errors)

    def test_chain_consistency_flagged(self, tiny_seq):
        tiny_seq.flops[0].chain = 3  # chain_pos left None
        errors = check_netlist_drc(tiny_seq).errors()
        assert any("chain" in v.message for v in errors)
