"""Topological levelisation of a netlist's combinational core.

Gates are ordered so that every gate appears after all gates driving its
inputs.  Sources (level 0 upstream) are primary inputs, flop Q outputs
and tie cells.  A combinational loop raises :class:`NetlistError` and
names one net on the cycle to aid debugging.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Tuple

import numpy as np

from ..errors import NetlistError
from .netlist import Netlist


def levelize(netlist: Netlist) -> Tuple[List[int], List[int]]:
    """Return ``(order, level)`` for the combinational gates.

    ``order`` lists gate indexes in evaluation order; ``level[gi]`` is the
    logic depth of gate ``gi`` (0 = all inputs are sequential/primary
    sources).

    Raises
    ------
    NetlistError
        If a combinational cycle exists.
    """
    netlist.freeze()
    n_gates = len(netlist.gates)
    pending = [0] * n_gates  # unresolved gate-driven inputs
    level = [0] * n_gates

    for gi, gate in enumerate(netlist.gates):
        for net in gate.inputs:
            drv = netlist.driver_of(net)
            if drv is not None and drv[0] == "gate":
                pending[gi] += 1

    ready = deque(gi for gi in range(n_gates) if pending[gi] == 0)
    order: List[int] = []
    while ready:
        gi = ready.popleft()
        order.append(gi)
        out_net = netlist.gates[gi].output
        for lgi, _pin in netlist.gate_fanouts_of(out_net):
            pending[lgi] -= 1
            if level[gi] + 1 > level[lgi]:
                level[lgi] = level[gi] + 1
            if pending[lgi] == 0:
                ready.append(lgi)

    if len(order) != n_gates:
        stuck = next(gi for gi in range(n_gates) if pending[gi] > 0)
        net_name = netlist.net_names[netlist.gates[stuck].output]
        raise NetlistError(
            f"combinational loop detected (involves net {net_name!r}); "
            f"{n_gates - len(order)} gates unplaceable"
        )
    return order, level


def max_logic_depth(netlist: Netlist) -> int:
    """Depth of the deepest combinational path (0 for gate-free designs)."""
    order, level = levelize(netlist)
    if not order:
        return 0
    return max(level) + 1


class LevelPlan:
    """Gates grouped by (logic level, arity) for sweeps over a pattern axis.

    Gates on one logic level never feed each other, so a whole group
    evaluates as a few numpy gathers over a ``(n_nets, width)`` value
    array — one column per pattern.  Each group keeps its input pins
    as separate columns, so a sweep combines a gate's inputs in pin
    order exactly like a per-gate loop would, and every column's
    result is bit-identical to the scalar evaluation of that pattern.
    Gates without inputs (tie cells) are left out: their outputs keep
    whatever the caller initialised.
    """

    def __init__(self, netlist: Netlist):
        order, level = levelize(netlist)
        #: Per-gate evaluation order (for consumers that walk gates).
        self.order = order
        buckets: Dict[Tuple[int, int], List[int]] = {}
        for gi in order:
            arity = len(netlist.gates[gi].inputs)
            if arity:
                buckets.setdefault((level[gi], arity), []).append(gi)
        #: ``(gates, outputs, input columns)`` per group, level order.
        self.groups: List[Tuple[np.ndarray, np.ndarray, List[np.ndarray]]]
        self.groups = []
        for key in sorted(buckets):
            gates = [netlist.gates[gi] for gi in buckets[key]]
            self.groups.append(
                (
                    np.array(buckets[key], dtype=np.intp),
                    np.array([g.output for g in gates], dtype=np.intp),
                    [
                        np.array([g.inputs[pin] for g in gates], dtype=np.intp)
                        for pin in range(key[1])
                    ],
                )
            )

    def sum_sweep(self, values: np.ndarray) -> np.ndarray:
        """Set every gate output to its inputs' sum, added left to right.

        *values* is ``(n_nets, width)`` and is updated in place; the
        sources (flop Q, primary inputs) must already be set.
        """
        for _gates, outputs, inputs in self.groups:
            acc = values[inputs[0]]
            for pins in inputs[1:]:
                acc += values[pins]
            values[outputs] = acc
        return values

    def max_sweep(self, values: np.ndarray, delays: np.ndarray) -> np.ndarray:
        """Set every gate output to ``max(inputs) + delays[gate]``.

        *values* is ``(n_nets, width)`` with ``-inf`` marking nets no
        source reaches (they stay ``-inf``); *delays* is
        ``(n_gates, width)``.  Updated in place.
        """
        for gates, outputs, inputs in self.groups:
            acc = values[inputs[0]]
            for pins in inputs[1:]:
                np.maximum(acc, values[pins], out=acc)
            acc += delays[gates]
            values[outputs] = acc
        return values
