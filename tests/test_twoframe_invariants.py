"""Invariants of the table-driven two-frame implication engine.

The engine evaluates gates through base-3 truth tables, evaluates frame
2 once outside the fault cone, skips gates whose output is already
defined and looks for detection only among ``d_nets``.  Each shortcut
rests on an invariant checked here on random netlists: the incremental
state always equals a from-scratch levelised recompute, ``d_nets`` holds
every D net (plus, at most, nets that glitched through a D while the
fault was installed), and the faulty frame 2 equals the good one outside
the fault cone.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.faults import STF, TransitionFault, build_fault_universe
from repro.atpg.podem import PodemStatus, generate_test
from repro.atpg.twoframe import TwoFrameState
from repro.atpg.values import EVAL3, MAX_TABLE_ARITY, X, truth_table
from repro.errors import AtpgError
from repro.netlist import Netlist
from repro.netlist.cells import CELL_ARITY, CELL_FUNCTIONS
from repro.netlist.levelize import levelize
from repro.netlist.library import DEFAULT_CELL_FOR_KIND

from .strategies import random_netlist


def _recompute(state: TwoFrameState):
    """f1, g2, f2 of the current V1 cube, evaluated from scratch."""
    nl = state.netlist
    order, _ = levelize(nl)
    site = state.fault.net
    stuck = state.fault.initial_value

    def settle(vals, forced=None):
        for gi in order:
            gate = nl.gates[gi]
            if gate.output != forced:
                vals[gate.output] = EVAL3[gate.kind](
                    [vals[p] for p in gate.inputs]
                )
        return vals

    f1 = [X] * nl.n_nets
    for net in nl.primary_inputs:
        f1[net] = 0
    for fi, bit in state.v1.items():
        f1[nl.flops[fi].q] = bit
    settle(f1)

    launch = [X] * nl.n_nets
    for net in nl.primary_inputs:
        launch[net] = 0
    for fi, flop in enumerate(nl.flops):
        if state.protocol == "loc":
            launch[flop.q] = (
                f1[flop.d] if fi in state.pulsed else state.v1.get(fi, X)
            )
        elif fi in state.los_upstream:
            up = state.los_upstream[fi]
            launch[flop.q] = 0 if up is None else state.v1.get(up, X)
        else:
            launch[flop.q] = state.v1.get(fi, X)
    g2 = settle(list(launch))
    faulty = list(launch)
    faulty[site] = stuck
    f2 = settle(faulty, forced=site)
    return f1, g2, f2


def _check(state: TwoFrameState, glitched=frozenset()):
    """Compare *state* with a recompute; return its ``d_nets`` entries
    that carry no D.  Only *glitched* (those left by ``set_fault``) may."""
    n = state.netlist.n_nets
    f1, g2, f2 = _recompute(state)
    assert state.f1[:n] == f1
    assert state.g2[:n] == g2
    assert state.f2[:n] == f2
    d_values = {
        net for net in range(n)
        if g2[net] != X and f2[net] != X and g2[net] != f2[net]
    }
    assert d_values <= state.d_nets
    assert state.d_nets - d_values <= glitched
    cone = state.fanout_cone(state.fault.net)
    assert all(g2[net] == f2[net] for net in range(n) if net not in cone)
    assert state.detected() == (
        state.activated() and any(net in d_values for net in state.capture_nets)
    )
    return state.d_nets - d_values


@settings(max_examples=150, deadline=None)
@given(
    nl=random_netlist(min_gates=6),
    protocol=st.sampled_from(["loc", "los"]),
    fault_pick=st.integers(min_value=0),
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 63), st.integers(0, 1)),
        max_size=14,
    ),
)
def test_incremental_state_matches_recompute(nl, protocol, fault_pick, ops):
    """Random assign / undo_to sequences keep the incremental state equal
    to a from-scratch recompute, with every D net in ``d_nets``."""
    scan = SimpleNamespace(
        chains=[SimpleNamespace(flops=list(range(nl.n_flops)))]
    )
    state = TwoFrameState(nl, "clka", protocol=protocol, scan=scan)
    faults = build_fault_universe(nl)
    state.set_fault(faults[fault_pick % len(faults)])
    glitched = _check(state, glitched=frozenset(state.d_nets))
    marks = []
    for undo, flop, bit in ops:
        flop %= nl.n_flops
        if undo and marks:
            mark, cube = marks.pop()
            state.undo_to(mark)
            assert state.v1 == cube
        elif flop not in state.v1:
            marks.append((state.mark(), dict(state.v1)))
            state.assign(flop, bit)
        _check(state, glitched)


def test_eval3_covers_every_cell_kind():
    assert set(EVAL3) == set(CELL_FUNCTIONS)


@pytest.mark.parametrize("kind", sorted(EVAL3))
def test_truth_table_matches_eval3(kind):
    arity = CELL_ARITY[kind]
    table = truth_table(kind, arity)
    assert len(table) == 3 ** arity <= 3 ** MAX_TABLE_ARITY
    for values in itertools.product((0, 1, X), repeat=arity):
        index = sum(v * 3 ** pin for pin, v in enumerate(values))
        assert table[index] == EVAL3[kind](list(values))


def test_truth_table_rejects_unknown_kind_and_wide_gates():
    with pytest.raises(AtpgError):
        truth_table("FROB2", 2)
    with pytest.raises(AtpgError):
        truth_table("AND4", MAX_TABLE_ARITY + 1)


def _glitch_netlist() -> Netlist:
    """Scan chain f0 -> f1 whose only capture net is
    ``x = XOR2(q0, INV(INV(q0)))``: always 0, but it glitches when q0
    flips while its inputs settle in fanout order."""
    nl = Netlist("glitch")
    q0, q1 = nl.add_net("q0"), nl.add_net("q1")
    a, b, x = nl.add_net("a"), nl.add_net("b"), nl.add_net("x")
    nl.add_gate("g_xor", DEFAULT_CELL_FOR_KIND["XOR2"], [q0, b], x)
    nl.add_gate("g_a", DEFAULT_CELL_FOR_KIND["INV"], [q0], a)
    nl.add_gate("g_b", DEFAULT_CELL_FOR_KIND["INV"], [a], b)
    for name, q in (("f0", q0), ("f1", q1)):
        nl.add_flop(name, "SDFFX1", d=x, q=q, clock_domain="clka",
                    is_scan=True)
    return nl


def test_glitch_through_d_at_fault_install_is_not_detection():
    """Under LOS the chain head's frame-2 Q is the constant 0, so
    forcing slow-to-fall on it flips a defined stem.  The capture net x
    passes through a D and settles back; its ``d_nets`` entry must not
    count as detection."""
    nl = _glitch_netlist()
    scan = SimpleNamespace(chains=[SimpleNamespace(flops=[0, 1])])
    state = TwoFrameState(nl, "clka", protocol="los", scan=scan)
    x = nl.net_id("x")
    fault = TransitionFault(nl.net_id("q0"), STF)
    state.set_fault(fault)
    assert x in state.d_nets
    assert state.g2[x] == state.f2[x] == 0
    state.assign(0, 1)
    assert state.activated()
    assert not state.detected()
    _check(state, glitched=frozenset({x}))
    result = generate_test(state, fault)
    assert result.status is PodemStatus.UNTESTABLE
