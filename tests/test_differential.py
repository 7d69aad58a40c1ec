"""Differential property tests over randomly generated netlists.

Every invariant here must hold for *any* structurally valid design, not
just the generated SOC: simulator agreement, round-trip stability, and
ATPG/fault-sim consistency.
"""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg import build_fault_universe, collapse_faults
from repro.atpg.fsim import FaultSimulator
from repro.atpg.podem import PodemStatus, generate_test
from repro.atpg.twoframe import TwoFrameState
from repro.config import VDD_NOMINAL
from repro.drc import check_netlist_drc
from repro.netlist import parse_verilog, write_verilog
from repro.netlist.cells import CELL_FUNCTIONS
from repro.netlist.levelize import levelize
from repro.sim import (
    DelayModel,
    EventTimingSim,
    LogicSim,
    loc_launch_capture,
)
from repro.sim.event import build_launch_events

from tests.strategies import random_netlist


@settings(max_examples=40, deadline=None)
@given(nl=random_netlist())
def test_random_netlists_are_lint_clean(nl):
    assert check_netlist_drc(nl).errors() == []


@settings(max_examples=25, deadline=None)
@given(nl=random_netlist(), seed=st.integers(0, 2**31 - 1))
def test_event_final_state_matches_zero_delay(nl, seed):
    """The event-driven simulator must settle to the zero-delay frame-2
    values (same logic, different schedule), so it charges at least one
    transition, C * VDD^2, to every net whose two frames differ; hazards
    only add to that."""
    rng = np.random.default_rng(seed)
    sim = LogicSim(nl)
    v1 = {fi: int(rng.integers(2)) for fi in range(nl.n_flops)}
    cyc = loc_launch_capture(sim, v1, "clka")
    dm = DelayModel(nl)
    ets = EventTimingSim(nl, dm)
    launch_times = {fi: 0.1 for fi in cyc.pulsed_flops}
    launch = {fi: cyc.launch_state[fi] for fi in cyc.pulsed_flops}
    events = build_launch_events(nl, cyc.frame1, launch, launch_times,
                                 dm.flop_ck2q_ns)
    res = ets.simulate(cyc.frame1, events, capture_time_ns=1000.0,
                       horizon_ns=1e6, record_trace=True)
    assert not res.truncated
    final = list(cyc.frame1)
    for _t, net, val in res.trace:
        final[net] = val
    for net in range(nl.n_nets):
        assert final[net] == (cyc.frame2[net] & 1), nl.net_names[net]
    switched = [
        net for net in range(nl.n_nets)
        if (cyc.frame1[net] ^ cyc.frame2[net]) & 1
    ]
    switched_fj = sum(
        float(ets.parasitics.net_cap_ff[net]) * VDD_NOMINAL**2
        for net in switched
    )
    assert res.energy_fj_total >= switched_fj - 1e-9


@settings(max_examples=20, deadline=None)
@given(nl=random_netlist())
def test_verilog_roundtrip_preserves_behaviour(nl):
    buf = io.StringIO()
    write_verilog(nl, buf)
    buf.seek(0)
    back = parse_verilog(buf)
    sim_a = LogicSim(nl)
    sim_b = LogicSim(back)
    for trial in range(3):
        v1 = {fi: (trial * 7 + fi) % 2 for fi in range(nl.n_flops)}
        cap_a = loc_launch_capture(sim_a, v1, "clka").captured
        name_a = {nl.flops[fi].name: v for fi, v in cap_a.items()}
        cap_b = loc_launch_capture(sim_b, v1_by_name(back, name_a, v1,
                                                     nl), "clka").captured
        name_b = {back.flops[fi].name: v for fi, v in cap_b.items()}
        assert name_a == name_b


def v1_by_name(back, _unused, v1, original):
    mapping = {f.name: fi for fi, f in enumerate(back.flops)}
    return {
        mapping[original.flops[fi].name]: bit for fi, bit in v1.items()
    }


@settings(max_examples=12, deadline=None)
@given(nl=random_netlist(max_gates=12))
def test_podem_cubes_verify_on_random_netlists(nl):
    """PODEM and the fault simulator agree on arbitrary designs."""
    state = TwoFrameState(nl, "clka")
    fsim = FaultSimulator(nl, "clka")
    reps, _ = collapse_faults(nl, build_fault_universe(nl))
    for fault in reps[:12]:
        result = generate_test(state, fault, max_backtracks=40)
        if result.status is not PodemStatus.SUCCESS:
            continue
        v1 = np.zeros((1, nl.n_flops), dtype=np.uint8)
        for flop, bit in result.cube.items():
            v1[0, flop] = bit
        assert fsim.run(v1, [fault]).get(fault, 0) & 1, fault


def exhaustive_loc_detections(nl, faults):
    """Definition-level LOC detection words over all 2^n V1 vectors.

    Bit *v* of a fault's word is set when V1 vector *v* (bit *fi* of
    *v* loads flop *fi*) activates the fault in frame 1 and frame 2,
    re-simulated over the whole netlist with the fault site held at its
    initial value, differs from the good frame 2 at a capture net.
    """
    n_vectors = 1 << nl.n_flops
    mask = (1 << n_vectors) - 1
    v1 = {
        fi: sum(1 << v for v in range(n_vectors) if v >> fi & 1)
        for fi in range(nl.n_flops)
    }
    cyc = loc_launch_capture(LogicSim(nl), v1, "clka", mask=mask)
    order, _ = levelize(nl)
    captures = [nl.flops[fi].d for fi in cyc.pulsed_flops]
    words = {}
    for fault in faults:
        site = fault.net
        held = mask if fault.initial_value else 0
        activation = ~(cyc.frame1[site] ^ held) & mask
        faulty = list(cyc.frame2)
        faulty[site] = held
        for gi in order:
            gate = nl.gates[gi]
            if gate.output != site:
                faulty[gate.output] = CELL_FUNCTIONS[gate.kind](
                    [faulty[p] for p in gate.inputs], mask
                )
        diff = 0
        for net in captures:
            diff |= faulty[net] ^ cyc.frame2[net]
        words[fault] = activation & diff
    return words


@settings(max_examples=200, deadline=None)
@given(nl=random_netlist(max_flops=8, max_gates=24))
def test_podem_verdicts_match_exhaustive_oracle(nl):
    """UNTESTABLE means no V1 vector detects the fault, SUCCESS that one
    does; with an unbounded search PODEM never aborts."""
    state = TwoFrameState(nl, "clka")
    reps, _ = collapse_faults(nl, build_fault_universe(nl))
    oracle = exhaustive_loc_detections(nl, reps)
    for fault in reps:
        result = generate_test(state, fault, max_backtracks=10**6)
        assert result.status is not PodemStatus.ABORT, fault
        detected = oracle[fault] != 0
        assert detected == (result.status is PodemStatus.SUCCESS), fault
