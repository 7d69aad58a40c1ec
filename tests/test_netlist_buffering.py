"""Tests for fanout buffering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.drc import check_netlist_drc
from repro.errors import NetlistError
from repro.netlist import (
    Netlist,
    fanout_violations,
    insert_fanout_buffers,
)
from repro.sim import DelayModel, LogicSim, loc_launch_capture
from repro.soc import build_turbo_eagle


def _wide_net_design(n_loads: int = 30) -> Netlist:
    """One flop Q driving many inverters into an OR-reduction flop."""
    nl = Netlist("wide")
    q = nl.add_net("q")
    outs = []
    for i in range(n_loads):
        out = nl.add_net(f"inv{i}")
        nl.add_gate(f"g{i}", "INVX1", [q], out, pos=(10.0 * i, 5.0))
        outs.append(out)
    # OR-tree so the inverters are observable.
    frontier = outs
    k = 0
    while len(frontier) > 1:
        nxt = []
        for j in range(0, len(frontier) - 1, 2):
            out = nl.add_net(f"or{k}")
            nl.add_gate(f"o{k}", "OR2X1", [frontier[j], frontier[j + 1]],
                        out)
            nxt.append(out)
            k += 1
        if len(frontier) % 2:
            nxt.append(frontier[-1])
        frontier = nxt
    nl.add_flop("f0", "SDFFX1", d=frontier[0], q=q, clock_domain="clka",
                is_scan=True, pos=(0.0, 0.0))
    return nl


class TestBuffering:
    def test_violations_found(self):
        nl = _wide_net_design(30)
        q = nl.net_id("q")
        violations = dict(fanout_violations(nl, max_fanout=12))
        assert violations.get(q) == 30

    def test_insertion_fixes_violations(self):
        nl = _wide_net_design(30)
        added = insert_fanout_buffers(nl, max_fanout=12)
        assert added >= 2
        assert fanout_violations(nl, max_fanout=12) == []
        assert check_netlist_drc(nl).errors() == []

    def test_logic_preserved(self):
        before = _wide_net_design(30)
        after = _wide_net_design(30)
        insert_fanout_buffers(after, max_fanout=8)

        def response(netlist, bit):
            sim = LogicSim(netlist)
            cyc = loc_launch_capture(sim, {0: bit}, "clka")
            return cyc.captured[0]

        for bit in (0, 1):
            assert response(before, bit) == response(after, bit)

    def test_delay_improves_on_wide_net(self):
        before = _wide_net_design(40)
        after = _wide_net_design(40)
        insert_fanout_buffers(after, max_fanout=8)
        # The INV stage delay drops because the driving flop sees far
        # less load; total path may add a buffer stage, so compare the
        # flop clock-to-Q (direct load effect).
        dm_before = DelayModel(before)
        dm_after = DelayModel(after)
        assert dm_after.flop_ck2q_ns[0] < dm_before.flop_ck2q_ns[0]

    def test_deep_tree_converges(self):
        nl = _wide_net_design(60)
        insert_fanout_buffers(nl, max_fanout=4)
        assert fanout_violations(nl, max_fanout=4) == []

    def test_clean_design_untouched(self):
        nl = _wide_net_design(5)
        assert insert_fanout_buffers(nl, max_fanout=12) == 0
        assert nl.n_gates == 5 + 4  # inverters + or-tree

    def test_bad_max_fanout(self):
        nl = _wide_net_design(5)
        with pytest.raises(NetlistError):
            fanout_violations(nl, max_fanout=1)

    def test_generated_soc_buffering_roundtrip(self):
        """Buffer a real generated SOC and confirm LOC responses and
        structural health are preserved."""
        design = build_turbo_eagle("tiny", seed=33)
        nl = design.netlist
        rng = np.random.default_rng(0)
        v1 = {fi: int(rng.integers(2)) for fi in range(nl.n_flops)}
        before = loc_launch_capture(LogicSim(nl), v1, "clka").captured
        added = insert_fanout_buffers(nl, max_fanout=6)
        assert fanout_violations(nl, max_fanout=6) == []
        assert check_netlist_drc(nl).errors() == []
        after = loc_launch_capture(LogicSim(nl), v1, "clka").captured
        assert before == after
        assert added > 0
