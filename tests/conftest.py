"""Shared fixtures: small hand-built circuits used across the test suite."""

from __future__ import annotations

import pytest

from repro.netlist import Netlist


@pytest.fixture
def tiny_comb() -> Netlist:
    """Pure combinational circuit: y = ~(a & b) ^ c.

    Nets: a, b, c are primary inputs; y is a primary output.
    """
    nl = Netlist("tiny_comb")
    a = nl.add_net("a")
    b = nl.add_net("b")
    c = nl.add_net("c")
    n1 = nl.add_net("n1")
    y = nl.add_net("y")
    nl.add_primary_input(a)
    nl.add_primary_input(b)
    nl.add_primary_input(c)
    nl.add_gate("u_nand", "NAND2X1", [a, b], n1)
    nl.add_gate("u_xor", "XOR2X1", [n1, c], y)
    nl.add_primary_output(y)
    return nl


@pytest.fixture
def tiny_seq() -> Netlist:
    """Two scan flops around an inverter ring segment.

    f0.q -> inv -> f1.d ; f1.q -> and(f1.q, f0.q) -> f0.d
    """
    nl = Netlist("tiny_seq")
    q0 = nl.add_net("q0")
    q1 = nl.add_net("q1")
    d0 = nl.add_net("d0")
    d1 = nl.add_net("d1")
    nl.add_gate("u_inv", "INVX1", [q0], d1, pos=(10.0, 10.0))
    nl.add_gate("u_and", "AND2X1", [q1, q0], d0, pos=(20.0, 10.0))
    nl.add_flop("f0", "SDFFX1", d=d0, q=q0, clock_domain="clka",
                is_scan=True, pos=(5.0, 5.0))
    nl.add_flop("f1", "SDFFX1", d=d1, q=q1, clock_domain="clka",
                is_scan=True, pos=(25.0, 5.0))
    return nl
