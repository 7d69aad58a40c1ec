"""Tests for testability analysis and observation-point insertion."""

from __future__ import annotations

import numpy as np
import pytest

from repro.atpg import AtpgEngine, analyze_testability
from repro.dft import insert_observation_points
from repro.drc import check_netlist_drc
from repro.errors import ScanError
from repro.netlist import Netlist
from repro.sim import LogicSim, loc_launch_capture
from repro.soc import build_turbo_eagle


class TestScoap:
    def test_cop_basics(self):
        nl = Netlist("cop")
        q0 = nl.add_net("q0")
        q1 = nl.add_net("q1")
        a = nl.add_net("a")
        o = nl.add_net("o")
        x = nl.add_net("x")
        nl.add_gate("g_and", "AND2X1", [q0, q1], a)
        nl.add_gate("g_or", "OR2X1", [q0, q1], o)
        nl.add_gate("g_xor", "XOR2X1", [a, o], x)
        nl.add_flop("f0", "SDFFX1", d=x, q=q0, clock_domain="clka",
                    is_scan=True)
        nl.add_flop("f1", "SDFFX1", d=a, q=q1, clock_domain="clka",
                    is_scan=True)
        report = analyze_testability(nl, "clka")
        assert report.p_one[q0] == pytest.approx(0.5)
        assert report.p_one[a] == pytest.approx(0.25)   # AND of two 0.5
        assert report.p_one[o] == pytest.approx(0.75)   # OR of two 0.5
        # Capture nets are fully observable.
        assert report.observability[x] == pytest.approx(1.0)
        assert report.observability[a] == pytest.approx(1.0)  # is f1.d

    def test_held_pis_are_uncontrollable(self, ):
        nl = Netlist("pi")
        pi = nl.add_net("pi0")
        q = nl.add_net("q")
        y = nl.add_net("y")
        nl.add_primary_input(pi)
        nl.add_gate("g", "AND2X1", [pi, q], y)
        nl.add_flop("f", "SDFFX1", d=y, q=q, clock_domain="clka",
                    is_scan=True)
        report = analyze_testability(nl, "clka")
        assert report.p_one[pi] == 0.0
        assert report.controllability(pi) == 0.0
        # y is constant 0 through the AND: zero controllability too.
        assert report.p_one[y] == 0.0

    def test_deep_nets_less_observable(self):
        design = build_turbo_eagle("tiny", seed=7)
        report = analyze_testability(design.netlist, "clka")
        obs = report.observability
        # Capture nets sit at 1.0; plenty of logic sits below.
        assert obs.max() == pytest.approx(1.0)
        assert (obs < 0.2).sum() > 0

    def test_worst_lists(self):
        design = build_turbo_eagle("tiny", seed=7)
        report = analyze_testability(design.netlist, "clka")
        worst = report.worst_observability_nets(5)
        assert len(worst) == 5
        values = [report.observability[n] for n in worst]
        assert values == sorted(values)


class TestObservationPoints:
    @pytest.fixture()
    def design(self):
        return build_turbo_eagle("tiny", seed=7)

    def test_insertion_structurally_clean(self, design):
        new = insert_observation_points(
            design.netlist, design.scan, "clka", n_points=6
        )
        assert len(new) == 6
        assert check_netlist_drc(design.netlist).errors() == []
        # New flops are on chains and scan-enabled.
        for fi in new:
            flop = design.netlist.flops[fi]
            assert flop.is_scan and flop.chain is not None
            chain = design.scan.chain(flop.chain)
            assert chain.flops[flop.chain_pos] == fi

    def test_functionally_transparent(self, design):
        sim = LogicSim(design.netlist)
        n_before = design.netlist.n_flops
        v1 = {fi: (fi % 2) for fi in range(n_before)}
        before = loc_launch_capture(sim, v1, "clka").captured
        insert_observation_points(design.netlist, design.scan, "clka",
                                  n_points=6)
        sim2 = LogicSim(design.netlist)
        v1_after = dict(v1)
        for fi in range(n_before, design.netlist.n_flops):
            v1_after[fi] = 0
        after = loc_launch_capture(sim2, v1_after, "clka").captured
        for fi in before:
            assert after[fi] == before[fi]

    def test_coverage_improves(self, design):
        base = AtpgEngine(design.netlist, "clka", scan=design.scan,
                          seed=3).run(fill="random")
        insert_observation_points(design.netlist, design.scan, "clka",
                                  n_points=10)
        boosted = AtpgEngine(design.netlist, "clka", scan=design.scan,
                             seed=3).run(fill="random")
        assert boosted.test_coverage > base.test_coverage

    def test_bad_args(self, design):
        with pytest.raises(ScanError):
            insert_observation_points(design.netlist, design.scan,
                                      "clka", n_points=0)
