"""The :class:`Netlist` container and its instance records.

A netlist is a flat (block-annotated) gate-level design:

* *nets* are integer ids with string names,
* *gates* are combinational cell instances,
* *flops* are sequential cell instances (D flip-flops, optionally scan),
* *primary inputs/outputs* are nets at the design boundary.

The container is mutable while being built; analysis layers call
:meth:`Netlist.freeze` (or any accessor that needs derived maps, which
freezes implicitly) to build driver/fanout indexes.  Mutation after a
freeze invalidates the caches automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import NetlistError
from .cells import CELL_ARITY
from .library import Library, default_library

#: Driver descriptors: ("gate", gate_index), ("flop", flop_index),
#: ("pi", position-in-primary_inputs). Nets with no driver map to None.
Driver = Tuple[str, int]


@dataclass
class Gate:
    """One combinational cell instance.

    ``inputs`` are net ids in library pin order; ``output`` is the driven
    net id.  ``block`` names the SOC block the instance belongs to and
    ``pos`` is its placement in micrometres (used for wire loads, scan
    ordering and IR-drop tap location).
    """

    name: str
    cell: str
    kind: str
    inputs: Tuple[int, ...]
    output: int
    block: Optional[str] = None
    pos: Optional[Tuple[float, float]] = None


@dataclass
class FlipFlop:
    """One D flip-flop instance (plain or scan).

    The launch/capture clock is identified by ``clock_domain``; ``edge``
    is ``"pos"`` or ``"neg"``.  Scan-chain membership (``chain``,
    ``chain_pos``) is filled in by :mod:`repro.dft.scan`.
    """

    name: str
    cell: str
    d: int
    q: int
    clock_domain: str
    edge: str = "pos"
    is_scan: bool = False
    block: Optional[str] = None
    pos: Optional[Tuple[float, float]] = None
    chain: Optional[int] = None
    chain_pos: Optional[int] = None


class Netlist:
    """A flat gate-level netlist with nets, gates, flops and ports."""

    def __init__(self, name: str, library: Optional[Library] = None):
        self.name = name
        self.library = library if library is not None else default_library()
        self.net_names: List[str] = []
        self._net_index: Dict[str, int] = {}
        self.gates: List[Gate] = []
        self.flops: List[FlipFlop] = []
        self.primary_inputs: List[int] = []
        self.primary_outputs: List[int] = []
        self._frozen = False
        self._driver_of: List[Optional[Driver]] = []
        self._gate_fanouts: List[List[Tuple[int, int]]] = []
        self._flop_d_loads: List[List[int]] = []
        self._pulsed: Dict[str, Tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_net(self, net_name: str) -> int:
        """Create a net and return its id; names must be unique."""
        if net_name in self._net_index:
            raise NetlistError(f"duplicate net name {net_name!r}")
        self._invalidate()
        nid = len(self.net_names)
        self.net_names.append(net_name)
        self._net_index[net_name] = nid
        return nid

    def net_id(self, net_name: str) -> int:
        """Return the id of an existing net."""
        try:
            return self._net_index[net_name]
        except KeyError:
            raise NetlistError(f"no net named {net_name!r}") from None

    def has_net(self, net_name: str) -> bool:
        return net_name in self._net_index

    def add_primary_input(self, net: int) -> None:
        self._check_net(net)
        self._invalidate()
        self.primary_inputs.append(net)

    def add_primary_output(self, net: int) -> None:
        self._check_net(net)
        self._invalidate()
        self.primary_outputs.append(net)

    def add_gate(
        self,
        name: str,
        cell: str,
        inputs: Sequence[int],
        output: int,
        block: Optional[str] = None,
        pos: Optional[Tuple[float, float]] = None,
    ) -> int:
        """Instantiate a combinational cell; returns the gate index."""
        spec = self.library.cell(cell)
        if spec.is_sequential:
            raise NetlistError(f"{cell!r} is sequential; use add_flop")
        if len(inputs) != CELL_ARITY[spec.kind]:
            raise NetlistError(
                f"gate {name!r}: {spec.kind} needs {CELL_ARITY[spec.kind]} "
                f"inputs, got {len(inputs)}"
            )
        for n in inputs:
            self._check_net(n)
        self._check_net(output)
        self._invalidate()
        self.gates.append(
            Gate(name, cell, spec.kind, tuple(inputs), output, block, pos)
        )
        return len(self.gates) - 1

    def add_flop(
        self,
        name: str,
        cell: str,
        d: int,
        q: int,
        clock_domain: str,
        edge: str = "pos",
        is_scan: bool = False,
        block: Optional[str] = None,
        pos: Optional[Tuple[float, float]] = None,
    ) -> int:
        """Instantiate a flip-flop; returns the flop index."""
        spec = self.library.cell(cell)
        if not spec.is_sequential:
            raise NetlistError(f"{cell!r} is combinational; use add_gate")
        if edge not in ("pos", "neg"):
            raise NetlistError(f"edge must be 'pos' or 'neg', got {edge!r}")
        self._check_net(d)
        self._check_net(q)
        self._invalidate()
        self.flops.append(
            FlipFlop(name, cell, d, q, clock_domain, edge, is_scan, block, pos)
        )
        return len(self.flops) - 1

    # ------------------------------------------------------------------
    # derived maps
    # ------------------------------------------------------------------
    def freeze(self) -> None:
        """Build driver and fanout indexes (idempotent)."""
        if self._frozen:
            return
        n = len(self.net_names)
        driver: List[Optional[Driver]] = [None] * n
        gate_fanouts: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        flop_d_loads: List[List[int]] = [[] for _ in range(n)]

        def set_driver(net: int, who: Driver) -> None:
            if driver[net] is not None:
                raise NetlistError(
                    f"net {self.net_names[net]!r} has multiple drivers: "
                    f"{driver[net]} and {who}"
                )
            driver[net] = who

        for pos, net in enumerate(self.primary_inputs):
            set_driver(net, ("pi", pos))
        for gi, g in enumerate(self.gates):
            set_driver(g.output, ("gate", gi))
            for pin, net in enumerate(g.inputs):
                gate_fanouts[net].append((gi, pin))
        for fi, f in enumerate(self.flops):
            set_driver(f.q, ("flop", fi))
            flop_d_loads[f.d].append(fi)

        self._driver_of = driver
        self._gate_fanouts = gate_fanouts
        self._flop_d_loads = flop_d_loads
        self._frozen = True

    def _invalidate(self) -> None:
        self._frozen = False
        self._pulsed.clear()

    def _check_net(self, net: int) -> None:
        if not 0 <= net < len(self.net_names):
            raise NetlistError(f"net id {net} out of range")

    @property
    def n_nets(self) -> int:
        return len(self.net_names)

    @property
    def n_gates(self) -> int:
        return len(self.gates)

    @property
    def n_flops(self) -> int:
        return len(self.flops)

    @property
    def scan_flops(self) -> List[int]:
        """Indexes of scan-enabled flops."""
        return [i for i, f in enumerate(self.flops) if f.is_scan]

    def pulsed_flops(self, domain: str) -> Tuple[int, ...]:
        """Flops the at-speed cycle of *domain* pulses, in index order.

        The one launch rule: positive-edge flops of the target domain
        launch and capture.  Other domains' clocks are off, and the
        negative-edge cells (a dedicated chain in the case study) are
        masked during the at-speed cycle, so both hold.  Empty when the
        domain has no such flop; memoised until the next edit.
        """
        pulsed = self._pulsed.get(domain)
        if pulsed is None:
            pulsed = tuple(
                fi
                for fi, f in enumerate(self.flops)
                if f.clock_domain == domain and f.edge == "pos"
            )
            self._pulsed[domain] = pulsed
        return pulsed

    def driver_of(self, net: int) -> Optional[Driver]:
        """The driver descriptor of *net* (None for floating nets)."""
        self.freeze()
        return self._driver_of[net]

    def gate_fanouts_of(self, net: int) -> List[Tuple[int, int]]:
        """Gate loads of *net* as ``(gate_index, pin)`` pairs."""
        self.freeze()
        return self._gate_fanouts[net]

    def flop_d_loads_of(self, net: int) -> List[int]:
        """Flop indexes whose D pin is connected to *net*."""
        self.freeze()
        return self._flop_d_loads[net]

    def fanout_count(self, net: int) -> int:
        """Total loads on *net* (gate pins + flop D pins + PO)."""
        self.freeze()
        po = 1 if net in set(self.primary_outputs) else 0
        return len(self._gate_fanouts[net]) + len(self._flop_d_loads[net]) + po

    # ------------------------------------------------------------------
    # traversal helpers
    # ------------------------------------------------------------------
    def transitive_fanout_gates(self, net: int) -> List[int]:
        """Gate indexes reachable from *net* through combinational logic.

        Traversal stops at flop D pins (the sequential boundary).
        """
        self.freeze()
        seen_gates: List[int] = []
        visited = set()
        stack = [net]
        while stack:
            cur = stack.pop()
            for gi, _pin in self._gate_fanouts[cur]:
                if gi not in visited:
                    visited.add(gi)
                    seen_gates.append(gi)
                    stack.append(self.gates[gi].output)
        return seen_gates

    def transitive_fanin_nets(self, net: int) -> List[int]:
        """Net ids in the combinational fan-in cone of *net* (inclusive).

        Traversal stops at PIs and flop Q pins.
        """
        self.freeze()
        order: List[int] = []
        visited = {net}
        stack = [net]
        while stack:
            cur = stack.pop()
            order.append(cur)
            drv = self._driver_of[cur]
            if drv is not None and drv[0] == "gate":
                for src in self.gates[drv[1]].inputs:
                    if src not in visited:
                        visited.add(src)
                        stack.append(src)
        return order

    def instance_positions(self) -> Dict[str, Tuple[float, float]]:
        """Placement of every placed instance, keyed by instance name."""
        out: Dict[str, Tuple[float, float]] = {}
        for g in self.gates:
            if g.pos is not None:
                out[g.name] = g.pos
        for f in self.flops:
            if f.pos is not None:
                out[f.name] = f.pos
        return out

    def stats(self) -> Dict[str, int]:
        """Summary counts used by reports and tests."""
        return {
            "nets": self.n_nets,
            "gates": self.n_gates,
            "flops": self.n_flops,
            "scan_flops": len(self.scan_flops),
            "primary_inputs": len(self.primary_inputs),
            "primary_outputs": len(self.primary_outputs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"<Netlist {self.name!r}: {s['gates']} gates, {s['flops']} flops, "
            f"{s['nets']} nets>"
        )
