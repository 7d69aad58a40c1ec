"""Testability analysis: COP probabilities and SCOAP-style costs.

Two classic estimators over the combinational core:

* **COP** — signal probability ``P(net = 1)`` under random scan states,
  propagated through gate functions assuming input independence; the
  detectability proxy for random-pattern testing.
* **observability** — probability a fault effect on a net reaches some
  capture flop, propagated backward through the COP side-input
  sensitization probabilities.

Both feed test-point selection (:mod:`repro.dft.testpoints`): nets with
terrible controllability or observability are where the abort/untestable
fault mass lives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import AtpgError
from ..netlist.levelize import levelize
from ..netlist.netlist import Netlist


@dataclass
class TestabilityReport:
    """Per-net COP controllability and observability estimates."""

    p_one: np.ndarray  # P(net = 1)
    observability: np.ndarray  # P(effect reaches a capture flop)

    def controllability(self, net: int) -> float:
        """min(P0, P1): how hard the rarer value is."""
        p1 = float(self.p_one[net])
        return min(p1, 1.0 - p1)

    def detectability(self, net: int) -> float:
        """Random-pattern detectability proxy: ctrl x observability."""
        return self.controllability(net) * float(self.observability[net])

    def worst_observability_nets(self, k: int = 10) -> List[int]:
        """The k nets a fault effect is least likely to escape from."""
        order = np.argsort(self.observability)
        return [int(n) for n in order[:k]]

    def worst_controllability_nets(self, k: int = 10) -> List[int]:
        """The k nets whose rarer value is hardest to set."""
        ctrl = np.minimum(self.p_one, 1.0 - self.p_one)
        order = np.argsort(ctrl)
        return [int(n) for n in order[:k]]


def _cop_forward(netlist: Netlist, order: Sequence[int]) -> np.ndarray:
    p = np.full(netlist.n_nets, 0.5)
    for net in netlist.primary_inputs:
        p[net] = 0.0  # held constant low during test
    for gi in order:
        gate = netlist.gates[gi]
        ins = [float(p[x]) for x in gate.inputs]
        p[gate.output] = _cop_gate(gate.kind, ins)
    return p


def _cop_gate(kind: str, p: List[float]) -> float:
    def all_one(vals):
        out = 1.0
        for v in vals:
            out *= v
        return out

    def any_one(vals):
        out = 1.0
        for v in vals:
            out *= (1.0 - v)
        return 1.0 - out

    if kind in ("BUF", "CLKBUF"):
        return p[0]
    if kind == "INV":
        return 1.0 - p[0]
    if kind.startswith("AND"):
        return all_one(p)
    if kind.startswith("NAND"):
        return 1.0 - all_one(p)
    if kind.startswith("OR"):
        return any_one(p)
    if kind.startswith("NOR"):
        return 1.0 - any_one(p)
    if kind == "XOR2":
        return p[0] * (1 - p[1]) + p[1] * (1 - p[0])
    if kind == "XNOR2":
        return 1.0 - (p[0] * (1 - p[1]) + p[1] * (1 - p[0]))
    if kind == "MUX2":
        d0, d1, s = p
        return d0 * (1 - s) + d1 * s
    if kind == "AOI21":
        return 1.0 - any_one([all_one(p[:2]), p[2]])
    if kind == "OAI21":
        return 1.0 - all_one([any_one(p[:2]), p[2]])
    if kind == "TIE0":
        return 0.0
    if kind == "TIE1":
        return 1.0
    raise AtpgError(f"no COP model for kind {kind!r}")


def _sensitization(kind: str, pin: int, p: List[float]) -> float:
    """P(other inputs let pin's value pass to the output)."""
    others = [v for i, v in enumerate(p) if i != pin]

    def prod(vals):
        out = 1.0
        for v in vals:
            out *= v
        return out

    if kind in ("BUF", "CLKBUF", "INV"):
        return 1.0
    if kind.startswith(("AND", "NAND")):
        return prod(others)  # all others 1
    if kind.startswith(("OR", "NOR")):
        return prod([1.0 - v for v in others])  # all others 0
    if kind in ("XOR2", "XNOR2"):
        return 1.0  # any side value sensitizes
    if kind == "MUX2":
        if pin == 0:
            return 1.0 - p[2]
        if pin == 1:
            return p[2]
        # select pin: passes iff data inputs differ
        d0, d1 = p[0], p[1]
        return d0 * (1 - d1) + d1 * (1 - d0)
    if kind == "AOI21":
        if pin in (0, 1):
            other_and = p[1 - pin]
            return other_and * (1.0 - p[2])
        return 1.0 - p[0] * p[1]
    if kind == "OAI21":
        if pin in (0, 1):
            other_or = 1.0 - p[1 - pin]
            return other_or * p[2]
        return 1.0 - (1.0 - p[0]) * (1.0 - p[1])
    if kind in ("TIE0", "TIE1"):
        return 0.0
    raise AtpgError(f"no sensitization model for kind {kind!r}")


def analyze_testability(
    netlist: Netlist, domain: Optional[str] = None
) -> TestabilityReport:
    """COP controllability + backward observability for one domain.

    Capture points are the D nets of the domain's positive-edge flops
    (every scan flop when *domain* is None).
    """
    netlist.freeze()
    order, _ = levelize(netlist)
    p_one = _cop_forward(netlist, order)

    obs = np.zeros(netlist.n_nets)
    captures = (
        range(netlist.n_flops)
        if domain is None
        else netlist.pulsed_flops(domain)
    )
    for fi in captures:
        obs[netlist.flops[fi].d] = 1.0

    for gi in reversed(order):
        gate = netlist.gates[gi]
        out_obs = obs[gate.output]
        if out_obs == 0.0:
            continue
        ins = [float(p_one[x]) for x in gate.inputs]
        for pin, net in enumerate(gate.inputs):
            through = out_obs * _sensitization(gate.kind, pin, ins)
            if through > obs[net]:
                obs[net] = through
    return TestabilityReport(p_one=p_one, observability=obs)
