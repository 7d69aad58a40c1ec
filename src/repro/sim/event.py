"""Event-driven gate-level timing simulation (the VCS substitute).

Simulates one launch-to-capture cycle with transport-delay semantics:
scheduled output changes are filtered at fire time by a value check, so
hazard pulses wider than a gate delay propagate (glitch power is
captured) while degenerate re-assignments are dropped.

The simulator accumulates exactly what the paper's PLI collects:

* every net transition with its timestamp (optionally a full trace),
* per-block switched energy ``C_i * VDD^2`` (paper Section 2.3),
* the switching time frame window STW — the span from the launch edge
  to the last settling transition,
* per-net last-arrival times for endpoint (scan flop) delay measurement.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import VDD_NOMINAL
from ..errors import SimulationError
from ..netlist.cells import CELL_FUNCTIONS
from ..netlist.netlist import Netlist
from ..netlist.parasitics import ParasiticModel
from .delays import DelayModel

#: A scheduled or applied transition: (time_ns, net, new_value).
LaunchEvent = Tuple[float, int, int]


@dataclass
class TimingResult:
    """Everything measured during one simulated launch-to-capture cycle."""

    stw_ns: float
    capture_time_ns: float
    n_transitions: int
    toggles: np.ndarray
    last_arrival_ns: np.ndarray
    energy_fj_total: float
    energy_fj_by_block: Dict[str, float]
    truncated: bool = False
    trace: Optional[List[LaunchEvent]] = None

    def toggled_nets(self) -> np.ndarray:
        """Indexes of nets that switched at least once."""
        return np.nonzero(self.toggles)[0]

    def energy_in_block(self, block: str) -> float:
        return self.energy_fj_by_block.get(block, 0.0)


def _make_gate_eval(kind, ins):
    """A single-pattern gate evaluator with inputs bound at build time.

    The cell function is inlined per kind (same bit semantics as
    :data:`~repro.netlist.cells.CELL_FUNCTIONS` at mask 1) so the event
    loop's inner body is one call with no second dispatch and no
    argument-tuple allocation.  Unknown kinds fall back to the registry.
    """
    n = len(ins)
    if kind == "INV":
        (i0,) = ins

        def ev(v, _i0=i0):
            return ~v[_i0] & 1
    elif kind in ("BUF", "CLKBUF"):
        (i0,) = ins

        def ev(v, _i0=i0):
            return v[_i0] & 1
    elif kind == "XOR2":
        i0, i1 = ins

        def ev(v, _i0=i0, _i1=i1):
            return (v[_i0] ^ v[_i1]) & 1
    elif kind == "XNOR2":
        i0, i1 = ins

        def ev(v, _i0=i0, _i1=i1):
            return ~(v[_i0] ^ v[_i1]) & 1
    elif kind == "MUX2":
        i0, i1, i2 = ins

        def ev(v, _i0=i0, _i1=i1, _i2=i2):
            sel = v[_i2]
            return ((v[_i0] & ~sel) | (v[_i1] & sel)) & 1
    elif kind == "AOI21":
        i0, i1, i2 = ins

        def ev(v, _i0=i0, _i1=i1, _i2=i2):
            return ~((v[_i0] & v[_i1]) | v[_i2]) & 1
    elif kind == "OAI21":
        i0, i1, i2 = ins

        def ev(v, _i0=i0, _i1=i1, _i2=i2):
            return ~((v[_i0] | v[_i1]) & v[_i2]) & 1
    elif kind.startswith(("AND", "NAND")) and n in (2, 3, 4):
        invert = kind.startswith("NAND")
        if n == 2:
            i0, i1 = ins
            if invert:
                def ev(v, _i0=i0, _i1=i1):
                    return ~(v[_i0] & v[_i1]) & 1
            else:
                def ev(v, _i0=i0, _i1=i1):
                    return v[_i0] & v[_i1] & 1
        elif n == 3:
            i0, i1, i2 = ins
            if invert:
                def ev(v, _i0=i0, _i1=i1, _i2=i2):
                    return ~(v[_i0] & v[_i1] & v[_i2]) & 1
            else:
                def ev(v, _i0=i0, _i1=i1, _i2=i2):
                    return v[_i0] & v[_i1] & v[_i2] & 1
        else:
            i0, i1, i2, i3 = ins
            if invert:
                def ev(v, _i0=i0, _i1=i1, _i2=i2, _i3=i3):
                    return ~(v[_i0] & v[_i1] & v[_i2] & v[_i3]) & 1
            else:
                def ev(v, _i0=i0, _i1=i1, _i2=i2, _i3=i3):
                    return v[_i0] & v[_i1] & v[_i2] & v[_i3] & 1
    elif kind.startswith(("OR", "NOR")) and n in (2, 3, 4):
        invert = kind.startswith("NOR")
        if n == 2:
            i0, i1 = ins
            if invert:
                def ev(v, _i0=i0, _i1=i1):
                    return ~(v[_i0] | v[_i1]) & 1
            else:
                def ev(v, _i0=i0, _i1=i1):
                    return (v[_i0] | v[_i1]) & 1
        elif n == 3:
            i0, i1, i2 = ins
            if invert:
                def ev(v, _i0=i0, _i1=i1, _i2=i2):
                    return ~(v[_i0] | v[_i1] | v[_i2]) & 1
            else:
                def ev(v, _i0=i0, _i1=i1, _i2=i2):
                    return (v[_i0] | v[_i1] | v[_i2]) & 1
        else:
            i0, i1, i2, i3 = ins
            if invert:
                def ev(v, _i0=i0, _i1=i1, _i2=i2, _i3=i3):
                    return ~(v[_i0] | v[_i1] | v[_i2] | v[_i3]) & 1
            else:
                def ev(v, _i0=i0, _i1=i1, _i2=i2, _i3=i3):
                    return (v[_i0] | v[_i1] | v[_i2] | v[_i3]) & 1
    elif kind == "TIE0":
        def ev(v):
            return 0
    elif kind == "TIE1":
        def ev(v):
            return 1
    else:
        fn = CELL_FUNCTIONS[kind]
        ins = tuple(ins)

        def ev(v, _fn=fn, _ins=ins):
            return _fn([v[p] for p in _ins], 1)
    return ev


class EventTimingSim:
    """Reusable event-driven simulator bound to one netlist."""

    def __init__(
        self,
        netlist: Netlist,
        delays: DelayModel,
        parasitics: Optional[ParasiticModel] = None,
        vdd: float = VDD_NOMINAL,
    ):
        self.netlist = netlist
        self.delays = delays
        self.parasitics = (
            parasitics
            if parasitics is not None
            else delays.parasitics
        )
        self.vdd = vdd
        netlist.freeze()

        # Flattened connectivity for the hot loop.
        self._fanout_gates: List[Tuple[int, ...]] = [
            tuple(gi for gi, _pin in netlist.gate_fanouts_of(net))
            for net in range(netlist.n_nets)
        ]
        self._gate_fn = [CELL_FUNCTIONS[g.kind] for g in netlist.gates]
        self._gate_ins = [g.inputs for g in netlist.gates]
        self._gate_out = [g.output for g in netlist.gates]
        self._gate_delay = delays.gate_delay_ns
        # Per-net fanout evaluators: (closure, output net, delay) per
        # driven gate, with the input indexes bound at build time so the
        # event loop does no per-event connectivity lookups or index
        # list construction.
        gate_delay_list = [float(d) for d in delays.gate_delay_ns]
        self._fanout_eval: List[Tuple[Tuple, ...]] = [
            tuple(
                (
                    _make_gate_eval(netlist.gates[gi].kind, self._gate_ins[gi]),
                    self._gate_out[gi],
                    gate_delay_list[gi],
                )
                for gi in self._fanout_gates[net]
            )
            for net in range(netlist.n_nets)
        ]

        # Block attribution: a net belongs to its driver's block.
        self._block_of_net: List[Optional[str]] = [None] * netlist.n_nets
        for g in netlist.gates:
            self._block_of_net[g.output] = g.block
        for f in netlist.flops:
            self._block_of_net[f.q] = f.block
        self._energy_of_net = self.parasitics.net_cap_ff * vdd * vdd
        # Plain-float mirror of the per-net energies: scalar float adds
        # are cheaper than numpy-scalar adds and bit-identical.
        self._energy_list: List[float] = [
            float(e) for e in self._energy_of_net
        ]

    def simulate(
        self,
        initial_values: Sequence[int],
        launch_events: Sequence[LaunchEvent],
        capture_time_ns: float,
        horizon_ns: Optional[float] = None,
        record_trace: bool = False,
    ) -> TimingResult:
        """Run one cycle.

        Parameters
        ----------
        initial_values:
            Settled pre-launch value (0/1) per net — typically frame 1 of
            a :func:`repro.sim.logic.launch_capture` run.
        launch_events:
            The flop-output transitions of the launch edge, each at its
            flop's clock arrival + clock-to-Q time.
        capture_time_ns:
            When the capture edge samples endpoint D pins.
        horizon_ns:
            Hard stop for event processing (default ``2 x capture``);
            events beyond it mark the result ``truncated`` (oscillating
            logic), which callers should treat as a simulation smell.
        record_trace:
            Keep the full (time, net, value) trace (memory-heavy).
        """
        n_nets = self.netlist.n_nets
        if len(initial_values) != n_nets:
            raise SimulationError(
                f"initial_values has {len(initial_values)} entries for "
                f"{n_nets} nets"
            )
        if horizon_ns is None:
            horizon_ns = 2.0 * capture_time_ns

        values = list(initial_values)
        toggles: List[int] = [0] * n_nets
        last_arrival: List[float] = [math.nan] * n_nets
        energy_total = 0.0
        energy_by_block: Dict[str, float] = {}
        trace: Optional[List[LaunchEvent]] = [] if record_trace else None

        heappush = heapq.heappush
        heappop = heapq.heappop
        heap: List[Tuple[float, int, int, int]] = []
        seq = 0
        for t, net, val in launch_events:
            heappush(heap, (t, seq, net, val & 1))
            seq += 1

        stw = 0.0
        n_transitions = 0
        truncated = False
        fanout_eval = self._fanout_eval
        energy_of_net = self._energy_list
        block_of_net = self._block_of_net
        by_block_get = energy_by_block.get

        while heap:
            t, _s, net, val = heappop(heap)
            if t > horizon_ns:
                truncated = True
                break
            if values[net] == val:
                continue
            values[net] = val
            n_transitions += 1
            toggles[net] += 1
            last_arrival[net] = t
            if t > stw:
                stw = t
            energy_total += energy_of_net[net]
            block = block_of_net[net]
            if block is not None:
                energy_by_block[block] = (
                    by_block_get(block, 0.0) + energy_of_net[net]
                )
            if trace is not None:
                trace.append((t, net, val))
            for ev, out, dly in fanout_eval[net]:
                heappush(heap, (t + dly, seq, out, ev(values)))
                seq += 1

        return TimingResult(
            stw_ns=stw,
            capture_time_ns=capture_time_ns,
            n_transitions=n_transitions,
            toggles=np.asarray(toggles, dtype=np.int32),
            last_arrival_ns=np.asarray(last_arrival, dtype=float),
            energy_fj_total=energy_total,
            energy_fj_by_block=energy_by_block,
            truncated=truncated,
            trace=trace,
        )


def build_launch_events(
    netlist: Netlist,
    frame1_values: Sequence[int],
    launch_state: Dict[int, int],
    launch_time_of_flop: Dict[int, float],
    ck2q_ns: np.ndarray,
) -> List[LaunchEvent]:
    """Translate a launch-edge state change into simulator events.

    For every flop whose Q changes between V1 (``frame1_values``) and the
    launch state S2, emit a transition at
    ``clock arrival (insertion delay) + clock-to-Q``.
    """
    events: List[LaunchEvent] = []
    for fi, new_q in launch_state.items():
        q_net = netlist.flops[fi].q
        old_q = frame1_values[q_net] & 1
        new_q &= 1
        if old_q != new_q:
            t = launch_time_of_flop[fi] + float(ck2q_ns[fi])
            events.append((t, q_net, new_q))
    return events
