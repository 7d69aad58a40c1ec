"""Event-driven gate-level timing simulation (the VCS substitute).

Simulates one launch-to-capture cycle with transport-delay semantics:
an output change that would not change its net is never scheduled, so
hazard pulses wider than a gate delay propagate (glitch power is
captured) while degenerate re-assignments cost nothing.

The simulator accumulates exactly what the paper's PLI collects:

* every net transition with its timestamp (optionally a full trace),
* per-block switched energy ``C_i * VDD^2`` (paper Section 2.3),
* the switching time frame window STW — the span from the launch edge
  to the last settling transition,
* per-net last-arrival times for endpoint (scan flop) delay measurement.
"""

from __future__ import annotations

import copy
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
    """Reusable event-driven simulator bound to one netlist.

    Schedules only the events that will fire.  Every net has one driver
    (:meth:`Netlist.freeze`) and every gate one delay, so a gate
    output's events fire in the order they were pushed, and an
    evaluation equal to the net's latest scheduled value would be
    dropped at fire time; it is never pushed.  Two pushes are kept
    anyway: one due at or after the horizon (it marks the result
    ``truncated``), and any push onto a net that carries a launch event
    (launch events may name any net and fire out of push order; the
    fire-time check stays for them).  The loop only logs each applied
    event's net and time; the counts, arrivals, window and energies are
    reduced from that log afterwards, summing energies sequentially in
    event order.  Delays must be non-negative.
    """

    def __init__(
        self,
        netlist: Netlist,
        delays: DelayModel,
        parasitics: Optional[ParasiticModel] = None,
        vdd: float = VDD_NOMINAL,
    ):
        self.netlist = netlist
        self.parasitics = (
            parasitics
            if parasitics is not None
            else delays.parasitics
        )
        self.vdd = vdd
        netlist.freeze()

        # Flattened connectivity for the hot loop: each gate's evaluator
        # with its input indexes bound at build time, so the event loop
        # does no per-event connectivity lookups or index list
        # construction.  None of it depends on delays.
        self._fanout_gates: List[Tuple[int, ...]] = [
            tuple(gi for gi, _pin in netlist.gate_fanouts_of(net))
            for net in range(netlist.n_nets)
        ]
        self._gate_eval = [
            _make_gate_eval(g.kind, g.inputs) for g in netlist.gates
        ]
        self._gate_out = [g.output for g in netlist.gates]
        self._bind_delays(delays)

        # Block attribution: a net belongs to its driver's block.
        block_of_net: List[Optional[str]] = [None] * netlist.n_nets
        for g in netlist.gates:
            block_of_net[g.output] = g.block
        for f in netlist.flops:
            block_of_net[f.q] = f.block
        self._block_names: List[str] = list(
            dict.fromkeys(b for b in block_of_net if b is not None)
        )
        block_id = {b: i for i, b in enumerate(self._block_names)}
        #: Row of each net's block in the per-block energy matrix; nets
        #: without a block share the extra last row.
        self._block_row = np.array(
            [block_id.get(b, len(block_id)) for b in block_of_net],
            dtype=np.intp,
        )
        self._energy_of_net = self.parasitics.net_cap_ff * vdd * vdd

    def _bind_delays(self, delays: DelayModel) -> None:
        """Per-net fanout ``(evaluator, output net, delay)`` triples."""
        if len(delays.gate_delay_ns) != self.netlist.n_gates:
            raise SimulationError(
                f"delay model has {len(delays.gate_delay_ns)} gate delays "
                f"for {self.netlist.n_gates} gates"
            )
        self.delays = delays
        evals, outs = self._gate_eval, self._gate_out
        delay = delays.gate_delay_ns.tolist()
        self._fanout_eval: List[Tuple[Tuple, ...]] = [
            tuple((evals[gi], outs[gi], delay[gi]) for gi in gates)
            for gates in self._fanout_gates
        ]

    def with_delays(self, delays: DelayModel) -> "EventTimingSim":
        """This simulator under another delay model of the same netlist.

        Shares the gate evaluators, connectivity and energy tables; only
        the fanout delays are rebound.  Results are bit-identical with a
        simulator built from scratch on *delays*.
        """
        clone = copy.copy(self)
        clone._bind_delays(delays)
        return clone

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
        # The value of each net's latest scheduled event (its current
        # value while nothing is pending), and the time from which a
        # push onto it is kept even when it repeats that value.
        scheduled = list(values)
        keep_from = [horizon_ns] * n_nets

        heappush = heapq.heappush
        heappop = heapq.heappop
        heap: List[Tuple[float, int, int, int]] = []
        seq = 0
        for t, net, val in launch_events:
            heappush(heap, (t, seq, net, val & 1))
            seq += 1
            keep_from[net] = -math.inf

        times: List[float] = []
        nets: List[int] = []
        log_time = times.append
        log_net = nets.append
        trace: Optional[List[LaunchEvent]] = [] if record_trace else None
        truncated = False
        fanout_eval = self._fanout_eval

        while heap:
            t, _s, net, val = heappop(heap)
            if t > horizon_ns:
                truncated = True
                break
            if values[net] == val:
                # Only events on launch-event nets and pushes kept at the
                # horizon can be no-ops.
                continue
            values[net] = val
            log_time(t)
            log_net(net)
            if trace is not None:
                trace.append((t, net, val))
            for ev, out, dly in fanout_eval[net]:
                new = ev(values)
                if new != scheduled[out] or t + dly >= keep_from[out]:
                    scheduled[out] = new
                    heappush(heap, (t + dly, seq, out, new))
                    seq += 1

        return self._reduce(times, nets, capture_time_ns, truncated, trace)

    def _reduce(
        self,
        times: List[float],
        nets: List[int],
        capture_time_ns: float,
        truncated: bool,
        trace: Optional[List[LaunchEvent]],
    ) -> TimingResult:
        """Every measurement of a cycle from its applied-event log.

        Events were applied in non-decreasing time order, so the last
        event is the latest (the window end) and each net's last event
        is its latest arrival.  Energies are summed sequentially in
        event order (``np.add.accumulate``), exactly as a running
        ``+=`` would.
        """
        n_nets = self.netlist.n_nets
        n_events = len(nets)
        event_net = np.fromiter(nets, np.intp, n_events)
        event_index = np.arange(n_events)
        # A net's last event is its highest event index (a plain fancy
        # assignment leaves the winner among repeated indexes unspecified).
        last_event = np.full(n_nets, -1, dtype=np.intp)
        np.maximum.at(last_event, event_net, event_index)
        hit = np.flatnonzero(last_event >= 0)
        last_arrival = np.full(n_nets, math.nan)
        last_arrival[hit] = np.fromiter(times, float, n_events)[
            last_event[hit]
        ]

        # Running sums start from 0.0 like a ``+=`` accumulator: column
        # 0 is that start, column i + 1 holds event i.  One row per
        # block plus one for nets without a block; a row adds only
        # zeros besides its own events, so its last running sum is the
        # block's sequential sum.
        energy = np.zeros(n_events + 1)
        energy[1:] = self._energy_of_net[event_net]
        rows = self._block_row[event_net]
        n_blocks = len(self._block_names)
        by_row = np.zeros((n_blocks + 1, n_events + 1))
        by_row[rows, event_index + 1] = energy[1:]
        block_sums = np.add.accumulate(by_row, axis=1)[:, -1].tolist()
        return TimingResult(
            stw_ns=max(0.0, times[-1]) if times else 0.0,
            capture_time_ns=capture_time_ns,
            n_transitions=n_events,
            toggles=np.bincount(event_net, minlength=n_nets).astype(np.int32),
            last_arrival_ns=last_arrival,
            energy_fj_total=float(np.add.accumulate(energy)[-1]),
            # Blocks in order of their first event, as a dict fills.
            energy_fj_by_block={
                self._block_names[b]: block_sums[b]
                for b in dict.fromkeys(rows.tolist())
                if b < n_blocks
            },
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
