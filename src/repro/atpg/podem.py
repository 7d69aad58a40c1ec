"""PODEM test generation over the two-frame LOC model.

The decision variables are the shifted-in scan bits V1.  The classic
PODEM loop applies: derive an objective (activate the fault in frame 1,
launch the transition in frame 2, then advance the D-frontier), backtrace
the objective through X-valued logic to an unassigned scan cell, assign,
imply, and backtrack on dead ends with a bounded backtrack budget.

``generate_test`` also accepts a *base* assignment — the already-fixed
care bits of a pattern under construction — which is how the engine
performs static compaction: a secondary fault merges into a pattern iff
PODEM succeeds under the base constraints.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .faults import TransitionFault
from .twoframe import (
    STEER_AOI,
    STEER_DIRECT,
    STEER_INVERT,
    STEER_MUX,
    STEER_XNOR,
    STEER_XOR,
    Mark,
    TwoFrameState,
)
from .values import X

FRAME1 = 1
FRAME2 = 2

Objective = Tuple[int, int, int]  # (frame, net, value)


class PodemStatus(enum.Enum):
    """Outcome of one PODEM run."""

    SUCCESS = "success"
    ABORT = "abort"  # backtrack budget exhausted
    UNTESTABLE = "untestable"  # search space exhausted (under base, if any)


@dataclass
class PodemResult:
    """Outcome of one PODEM run: status, cube and search statistics."""
    status: PodemStatus
    cube: Optional[Dict[int, int]]
    backtracks: int
    decisions: int

    @property
    def success(self) -> bool:
        """True when a test cube was found."""
        return self.status is PodemStatus.SUCCESS


def generate_test(
    state: TwoFrameState,
    fault: TransitionFault,
    base: Optional[Dict[int, int]] = None,
    max_backtracks: int = 60,
) -> PodemResult:
    """Generate a V1 test cube for *fault* (optionally under *base*).

    The returned cube contains every assigned care bit, base included.
    ``UNTESTABLE`` under a non-empty base means "not mergeable into this
    pattern", not that the fault is redundant.  A success leaves its
    cube's frames in the state's snapshot, so merges under that cube
    start without replaying it (:meth:`TwoFrameState.load`).
    """
    # Structural prune: a stem that cannot reach any capture net is
    # untestable in this domain, no search needed.
    if state.obs_dist[fault.net] == float("inf"):
        return PodemResult(PodemStatus.UNTESTABLE, None, 0, 0)

    state.load(fault, base)

    # decision stack entries: (flop, bit, trail_mark, alternative_tried)
    stack: List[Tuple[int, int, Mark, bool]] = []
    backtracks = 0
    decisions = 0

    while True:
        if state.detected():
            state.keep_snapshot()
            return PodemResult(
                PodemStatus.SUCCESS, state.cube(), backtracks, decisions
            )

        decision: Optional[Tuple[int, int]] = None
        objective = _objective(state)
        if objective is not None:
            decision = _backtrace(state, objective)

        if decision is None:
            # Dead end: flip the most recent unflipped decision.
            flipped = False
            while stack:
                flop, bit, mk, alt = stack.pop()
                state.undo_to(mk)
                if not alt:
                    backtracks += 1
                    if backtracks > max_backtracks:
                        return PodemResult(
                            PodemStatus.ABORT, None, backtracks, decisions
                        )
                    state.assign(flop, 1 - bit)
                    stack.append((flop, 1 - bit, mk, True))
                    flipped = True
                    break
            if not flipped:
                return PodemResult(
                    PodemStatus.UNTESTABLE, None, backtracks, decisions
                )
            continue

        flop, bit = decision
        mk = state.mark()
        state.assign(flop, bit)
        stack.append((flop, bit, mk, False))
        decisions += 1


def _objective(state: TwoFrameState) -> Optional[Objective]:
    """Next PODEM objective, or None when the current path is dead."""
    fault = state.fault
    site = fault.net
    initial = fault.initial_value
    v = state.f1[site]
    if v == X:
        return (FRAME1, site, initial)
    if v != initial:
        return None  # activation blocked
    v = state.g2[site]
    if v == X:
        return (FRAME2, site, 1 - initial)
    if v != 1 - initial:
        return None  # launch blocked

    # Fault is active and launched; advance the D-frontier.  Default:
    # prefer the gate closest to a capture net (observability-guided,
    # fewest backtracks).  Timing-aware mode (state.arrival set): prefer
    # the *farthest* reachable gate, pushing the fault effect down long
    # paths — the paper notes plain ATPG settles for easy short paths.
    frontier = state.d_frontier()
    if not frontier:
        return None
    inf = float("inf")
    reachable = [
        gi for gi in frontier
        if state.obs_dist[state._gate_out[gi]] != inf
    ]
    if state.arrival is not None:
        reachable.sort(key=lambda gi: -state.obs_dist[state._gate_out[gi]])
    else:
        reachable.sort(key=lambda gi: state.obs_dist[state._gate_out[gi]])
    for gi in reachable:
        for p in state._gate_ins[gi]:
            if state.g2[p] == X:
                kind = state.netlist.gates[gi].kind
                return (FRAME2, p, _noncontrolling(kind))
    return None


def _noncontrolling(kind: str) -> int:
    if kind.startswith(("AND", "NAND")):
        return 1
    if kind.startswith(("OR", "NOR")):
        return 0
    return 0  # XOR/MUX/AOI/OAI: any defined value advances the frontier


def _backtrace(
    state: TwoFrameState, objective: Objective
) -> Optional[Tuple[int, int]]:
    """Walk an objective back through X logic to an unassigned scan bit.

    Returns ``(flop, bit)`` or None when the objective is unreachable
    (hits constants or already-assigned state).
    """
    frame, net, val = objective
    net_gate = state._net_gate
    steer = state.steer
    gate_ins = state._gate_ins
    arrival = state.arrival
    guard = 4 * state.netlist.n_nets  # cycle guard (paranoia; acyclic)
    while guard > 0:
        guard -= 1
        gi = net_gate[net]
        if gi < 0:
            idx = state._net_flop[net]
            if idx < 0:
                return None  # primary input (held constant) or floating
            if frame == FRAME2:
                source = state.frame2_source(idx)
                if source is None:
                    return None  # constant (LOS scan-in head)
                if source[0] == "f1net":
                    # LOC launch link: frame-2 Q is the frame-1 D net.
                    frame = FRAME1
                    net = source[1]
                    continue
                target = source[1]  # a V1 decision variable
            else:
                target = idx
            if target in state.v1:
                return None  # decision already made; can't re-drive
            return (target, val)

        vals = state.f1 if frame == FRAME1 else state.g2
        steer_gi = steer[gi]
        if arrival is None and steer_gi <= STEER_INVERT:
            # _choose_input's pin-order rule for BUF/AND/OR and
            # INV/NAND/NOR, inline: the first X input.
            for p in gate_ins[gi]:
                if vals[p] == X:
                    break
            else:
                return None
            net = p
            if steer_gi == STEER_INVERT:
                val = 1 - val
            continue
        step = _choose_input(steer_gi, gate_ins[gi], vals, val,
                             arrival=arrival)
        if step is None:
            return None
        net, val = step
    return None


def _choose_input(
    steer: int,
    inputs: Tuple[int, ...],
    vals: List[int],
    desired: int,
    arrival=None,
) -> Optional[Tuple[int, int]]:
    """Pick one X input of a gate and the value to drive it toward.

    *steer* is the gate's steering class (``STEER_*``).  XOR, MUX and
    AOI gates first try the input their function singles out; otherwise
    the pick is the first X input, in pin order or, with an *arrival*
    map, latest-arriving first (timing-aware long-path preference).
    """
    if steer == STEER_XOR or steer == STEER_XNOR:
        a, b = inputs
        if steer == STEER_XNOR:
            desired ^= 1
        if vals[a] != X and vals[b] == X:
            return (b, desired ^ vals[a])
        if vals[b] != X and vals[a] == X:
            return (a, desired ^ vals[b])
    elif steer == STEER_MUX:
        d0, d1, sel = inputs
        if vals[sel] == 0 and vals[d0] == X:
            return (d0, desired)
        if vals[sel] == 1 and vals[d1] == X:
            return (d1, desired)
        if vals[sel] == X:
            return (sel, 0)
    elif steer == STEER_AOI:
        # AOI21 output 1 needs (a&b)|c == 0, OAI21 output 1 needs
        # (a|b)&c == 0: either way drive C first, to the inverse.
        desired = 1 - desired
        c = inputs[2]
        if vals[c] == X:
            return (c, desired)
    elif steer == STEER_INVERT:
        desired = 1 - desired
    elif steer != STEER_DIRECT:
        return None  # TIE cells: nothing to drive

    # BUF, AND (one controlling 0 or all 1s), OR (one 1 or all 0s) and
    # their inversions, or no singled-out input: the first X input.
    xs = [p for p in inputs if vals[p] == X]
    if not xs:
        return None
    if arrival is not None and len(xs) > 1:
        xs = sorted(xs, key=lambda p: -float(arrival[p]))
    return (xs[0], desired)
