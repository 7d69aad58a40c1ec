"""Tests for the SOC generator, clock trees and design characteristics."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.drc import check_netlist_drc
from repro.netlist.levelize import max_logic_depth
from repro.soc import build_turbo_eagle, scale_preset
from repro.soc.clocks import build_clock_tree, turbo_eagle_domains


@pytest.fixture(scope="module")
def design():
    return build_turbo_eagle("tiny", seed=11)


class TestGenerator:
    def test_structurally_clean(self, design):
        assert check_netlist_drc(design.netlist).errors() == []

    def test_deterministic_for_seed(self):
        d1 = build_turbo_eagle("tiny", seed=3)
        d2 = build_turbo_eagle("tiny", seed=3)
        assert d1.netlist.net_names == d2.netlist.net_names
        assert [g.cell for g in d1.netlist.gates] == [
            g.cell for g in d2.netlist.gates
        ]
        assert [f.chain for f in d1.netlist.flops] == [
            f.chain for f in d2.netlist.flops
        ]

    def test_different_seeds_differ(self):
        d1 = build_turbo_eagle("tiny", seed=3)
        d2 = build_turbo_eagle("tiny", seed=4)
        assert [g.inputs for g in d1.netlist.gates] != [
            g.inputs for g in d2.netlist.gates
        ]

    def test_six_blocks_populated(self, design):
        for block in design.blocks():
            assert design.flops_in_block(block), block
            assert design.gates_in_block(block), block

    def test_clka_dominant(self, design):
        assert design.dominant_domain() == "clka"
        clka = len(design.flops_in_domain("clka"))
        total = design.netlist.n_flops
        assert 0.6 < clka / total < 0.95

    def test_clka_covers_all_blocks(self, design):
        assert design.blocks_covered_by_domain("clka") == [
            "B1", "B2", "B3", "B4", "B5", "B6",
        ]

    def test_single_block_domains(self, design):
        assert design.blocks_covered_by_domain("clkb") == ["B1"]
        assert design.blocks_covered_by_domain("clkf") == ["B2"]

    def test_negative_edge_flops_exist(self, design):
        neg = [f for f in design.netlist.flops if f.edge == "neg"]
        assert len(neg) == scale_preset("tiny").n_neg_edge
        assert all(f.clock_domain == "clka" for f in neg)
        assert all(f.block == "B1" for f in neg)

    def test_b5_is_power_dense(self, design):
        # More gates per flop in B5 than in the peripheral blocks.
        density = {
            b: len(design.gates_in_block(b))
            / max(1, len(design.flops_in_block(b)))
            for b in design.blocks()
        }
        assert density["B5"] >= max(
            v for b, v in density.items() if b != "B5"
        ) * 0.9

    def test_all_instances_placed_in_their_block(self, design):
        fp = design.floorplan
        for g in design.netlist.gates:
            assert g.pos is not None
            if g.block is not None:  # bus fabric is top-level glue
                assert fp.block_at(*g.pos) == g.block

    def test_depth_matches_preset(self, design):
        depth = max_logic_depth(design.netlist)
        # cloud depth + mux fabric + observation trees
        assert depth >= scale_preset("tiny").depth

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigError):
            build_turbo_eagle("galactic")

    def test_characteristics_table(self, design):
        char = design.characteristics()
        assert char["clock_domains"] == 6
        assert char["scan_chains"] == scale_preset("tiny").n_chains
        assert char["total_scan_flops"] == design.netlist.n_flops

    def test_domain_table_rows(self, design):
        rows = design.domain_table()
        assert len(rows) == 6
        total = sum(r["scan_cells"] for r in rows)
        assert total == design.netlist.n_flops


class TestClockTree:
    def test_every_domain_flop_has_a_leaf(self, design):
        for name, tree in design.clock_trees.items():
            flops = design.flops_in_domain(name)
            assert set(tree.leaf_of_flop) == set(flops)

    def test_insertion_delay_positive(self, design):
        tree = design.clock_trees["clka"]
        for fi in design.flops_in_domain("clka"):
            assert tree.insertion_delay_ns(fi) > 0

    def test_skew_small_vs_period(self, design):
        tree = design.clock_trees["clka"]
        period = design.domains["clka"].period_ns
        assert 0 <= tree.skew_ns() < 0.25 * period

    def test_nearby_flops_have_similar_delay(self, design):
        tree = design.clock_trees["clka"]
        # Two flops sharing a leaf buffer differ only in local wire.
        by_leaf = {}
        for fi, leaf in tree.leaf_of_flop.items():
            by_leaf.setdefault(leaf, []).append(fi)
        group = next(g for g in by_leaf.values() if len(g) >= 2)
        d0 = tree.insertion_delay_ns(group[0])
        d1 = tree.insertion_delay_ns(group[1])
        assert abs(d0 - d1) < 0.2

    def test_delay_scale_hook_slows_tree(self, design):
        tree = design.clock_trees["clka"]
        fi = design.flops_in_domain("clka")[0]
        nominal = tree.insertion_delay_ns(fi)
        scaled = tree.insertion_delay_ns(
            fi, delay_scale=lambda buf, d: d * 1.5
        )
        assert scaled > nominal

    def test_foreign_flop_rejected(self, design):
        tree = design.clock_trees["clkb"]
        clka_flop = design.flops_in_domain("clka")[0]
        with pytest.raises(ConfigError):
            tree.insertion_delay_ns(clka_flop)

    def test_switched_cap_positive(self, design):
        assert design.clock_trees["clka"].switched_cap_ff() > 0

    def test_empty_domain_tree(self):
        tree = build_clock_tree("clkx", {}, root_pos=(0.0, 0.0))
        assert tree.n_buffers == 1
        assert tree.skew_ns() == 0.0

    def test_domain_specs(self):
        domains = turbo_eagle_domains()
        assert domains["clka"].period_ns == pytest.approx(20.0)
        assert domains["clkb"].freq_mhz == 100.0
