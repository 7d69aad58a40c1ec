"""Path-delay fault test generation (non-robust sensitization).

Transition faults model a gross delay at one node; *path-delay* faults
model distributed slowness along a specific structural path — the model
behind critical-path testing and the paper's reference [19] (Krstic et
al.), which showed supply noise along the *tested path* is what slows
it.  This module generates LOC tests for explicit paths:

* a **path** runs from a launch flop's Q through combinational gates to
  a capture flop's D;
* a **non-robust test** launches a transition at the path input and
  sets every *off-path* input of every on-path gate to a
  non-controlling value in the second time frame, so the transition's
  arrival at the capture flop is determined by the path under test.

Generation reuses the two-frame implication engine: the path source is
modelled as the matching transition fault (which also gives D-chain
tracking for free), and the off-path side conditions are imposed as
additional PODEM objectives before the propagation phase.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import AtpgError
from ..netlist.cells import controlling_value
from ..netlist.netlist import Netlist
from .faults import STF, STR, TransitionFault
from .podem import FRAME1, FRAME2, _backtrace
from .twoframe import Mark, TwoFrameState
from .values import X


@dataclass(frozen=True)
class StructuralPath:
    """A combinational path: source net (a flop Q), gate hops, capture.

    ``gates`` lists the on-path gate indexes in order; the path's nets
    are ``source`` followed by each gate's output.  The last net must be
    a pulsed flop's D.
    """

    source: int
    gates: Tuple[int, ...]

    def nets(self, netlist: Netlist) -> List[int]:
        out = [self.source]
        out.extend(netlist.gates[gi].output for gi in self.gates)
        return out

    def describe(self, netlist: Netlist) -> str:
        return " -> ".join(
            netlist.net_names[n] for n in self.nets(netlist)
        )


class PathTestStatus(enum.Enum):
    """Outcome class of a path-test search."""
    SUCCESS = "success"
    ABORT = "abort"
    UNTESTABLE = "untestable"


@dataclass
class PathTestResult:
    """Result of one non-robust path-test generation."""
    status: PathTestStatus
    cube: Optional[Dict[int, int]]
    transition: str  # "rise" or "fall" at the path source
    backtracks: int = 0

    @property
    def success(self) -> bool:
        """True when a sensitizing cube was found."""
        return self.status is PathTestStatus.SUCCESS


def path_from_endpoint(
    netlist: Netlist,
    sta,
    endpoint,
) -> Optional[StructuralPath]:
    """Convert an STA worst path into a :class:`StructuralPath`.

    ``sta`` is a :class:`repro.sim.sta.StaticTimingAnalyzer` after
    ``analyze()``; ``endpoint`` one of its endpoints.  Returns None when
    the traced path does not start at a flop Q (e.g. constant sources).
    """
    points = sta.trace_path(endpoint)
    if not points:
        return None
    src_net = points[0].net
    drv = netlist.driver_of(src_net)
    if drv is None or drv[0] != "flop":
        return None
    gates: List[int] = []
    for point in points[1:]:
        gdrv = netlist.driver_of(point.net)
        if gdrv is None or gdrv[0] != "gate":
            return None
        gates.append(gdrv[1])
    return StructuralPath(source=src_net, gates=tuple(gates))


def path_from_timing(
    netlist: Netlist,
    timing,
    endpoint_flop: int,
) -> Optional[StructuralPath]:
    """Extract the actually-exercised longest path from a simulation.

    STA's structural worst paths are frequently *false* (blocked by
    constant primary inputs or held enables), so path tests for them
    prove untestable.  A timing simulation's arrival front gives paths
    that are sensitizable by construction: starting at the endpoint's D
    net, follow at each gate the toggled input with the latest arrival
    until a flop Q is reached.

    Returns None when the endpoint saw no transition.
    """
    import math

    arrival = timing.last_arrival_ns
    net = netlist.flops[endpoint_flop].d
    if math.isnan(float(arrival[net])):
        return None
    gates_rev: List[int] = []
    guard = netlist.n_nets + 1
    while guard:
        guard -= 1
        drv = netlist.driver_of(net)
        if drv is None:
            return None
        kind, idx = drv
        if kind == "flop":
            source = net
            return StructuralPath(
                source=source, gates=tuple(reversed(gates_rev))
            )
        if kind != "gate":
            return None
        gates_rev.append(idx)
        gate = netlist.gates[idx]
        best = None
        best_arr = -1.0
        for p in gate.inputs:
            a = float(arrival[p])
            if not math.isnan(a) and a > best_arr:
                best_arr = a
                best = p
        if best is None:
            return None  # launch transition originated here? defensive
        net = best
    return None


def generate_path_test(
    state: TwoFrameState,
    path: StructuralPath,
    transition: str = "rise",
    max_backtracks: int = 120,
) -> PathTestResult:
    """Non-robust LOC test for *path* with the given source transition.

    The search satisfies, in order: the frame-1 initial value at the
    source, the frame-2 final value, and the frame-2 non-controlling
    side conditions of every on-path gate; detection at the path's
    capture flop is then checked explicitly.
    """
    netlist = state.netlist
    if transition not in ("rise", "fall"):
        raise AtpgError("transition must be 'rise' or 'fall'")
    fault = TransitionFault(
        path.source, STR if transition == "rise" else STF
    )
    state.set_fault(fault)

    # Build the objective list: off-path side inputs non-controlling in
    # frame 2.  Gates without a controlling value (XOR/MUX/...) leave
    # their side inputs unconstrained in the non-robust model --- any
    # defined value sensitizes them; we require definedness via the
    # final detection check.
    path_nets = set(path.nets(netlist))
    objectives: List[Tuple[int, int, int]] = [
        (FRAME1, path.source, fault.initial_value),
        (FRAME2, path.source, fault.final_value),
    ]
    for gi in path.gates:
        gate = netlist.gates[gi]
        ctrl = controlling_value(gate.kind)
        if ctrl is None:
            continue
        for p in gate.inputs:
            if p not in path_nets:
                objectives.append((FRAME2, p, 1 - ctrl))

    capture_net = path.nets(netlist)[-1]

    stack: List[Tuple[int, int, Mark, bool]] = []
    backtracks = 0

    def satisfied() -> bool:
        for frame, net, val in objectives:
            cur = state.f1[net] if frame == FRAME1 else state.g2[net]
            if cur != val:
                return False
        # Fault effect must arrive at the path's own capture flop.
        g, f = state.g2[capture_net], state.f2[capture_net]
        return g != X and f != X and g != f

    def blocked() -> bool:
        for frame, net, val in objectives:
            cur = state.f1[net] if frame == FRAME1 else state.g2[net]
            if cur != X and cur != val:
                return True
        return False

    while True:
        if satisfied():
            return PathTestResult(
                PathTestStatus.SUCCESS, state.cube(), transition,
                backtracks,
            )
        decision = None
        if not blocked():
            decision = _next_decision(state, objectives, capture_net)
        if decision is None:
            flipped = False
            while stack:
                flop, bit, mark, alt = stack.pop()
                state.undo_to(mark)
                if not alt:
                    backtracks += 1
                    if backtracks > max_backtracks:
                        return PathTestResult(
                            PathTestStatus.ABORT, None, transition,
                            backtracks,
                        )
                    state.assign(flop, 1 - bit)
                    stack.append((flop, 1 - bit, mark, True))
                    flipped = True
                    break
            if not flipped:
                return PathTestResult(
                    PathTestStatus.UNTESTABLE, None, transition,
                    backtracks,
                )
            continue
        flop, bit = decision
        mark = state.mark()
        state.assign(flop, bit)
        stack.append((flop, bit, mark, False))


def _next_decision(
    state: TwoFrameState,
    objectives: Sequence[Tuple[int, int, int]],
    capture_net: int,
) -> Optional[Tuple[int, int]]:
    """Backtrace the first unsatisfied objective to a free scan bit."""
    for frame, net, val in objectives:
        cur = state.f1[net] if frame == FRAME1 else state.g2[net]
        if cur == X:
            step = _backtrace(state, (frame, net, val))
            if step is not None:
                return step
    # All objective nets defined: if detection is still missing, drive
    # the capture net's definedness through the good machine.
    if state.g2[capture_net] == X:
        return _backtrace(state, (FRAME2, capture_net, 1))
    return None


def longest_path_tests(
    netlist: Netlist,
    sta,
    state: TwoFrameState,
    k: int = 5,
    transitions: Sequence[str] = ("rise", "fall"),
) -> List[Tuple[StructuralPath, PathTestResult]]:
    """Generate tests for the k worst-slack endpoints' critical paths."""
    report = sta.analyze()
    out: List[Tuple[StructuralPath, PathTestResult]] = []
    for endpoint in report.worst_endpoints(k):
        path = path_from_endpoint(netlist, sta, endpoint)
        if path is None or not path.gates:
            continue
        for transition in transitions:
            result = generate_path_test(state, path, transition)
            out.append((path, result))
            if result.success:
                break  # one passing transition per path is enough here
    return out
