"""The two scheduling strategies, selected by name in :func:`schedule_tests`.

* ``"greedy"`` — the original session-based first-fit-decreasing
  heuristic, lifted to width-aware specs (each block keeps its
  narrowest wrapper; sessions run back to back);
* ``"binpack"`` — 2D rectangle packing in the TAM-width × time plane
  under the power envelope, with the diagonal-length tie-break from the
  rectangle bin-packing paper and a never-worse-than-greedy guarantee
  (it keeps whichever of its packing and the greedy baseline finishes
  first).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ...errors import ConfigError
from ...obs import current_telemetry
from .model import (
    BlockTestSpec,
    Placement,
    ScheduleBudget,
    TamCandidate,
    TestSchedule,
)


# ----------------------------------------------------------------------
# shared feasibility checks
# ----------------------------------------------------------------------
def check_feasible(
    specs: Sequence[BlockTestSpec], budget: ScheduleBudget
) -> None:
    """Reject inputs no strategy could ever place, with messages that
    name the offending block."""
    if not specs:
        raise ConfigError("no tasks to schedule")
    names = [s.block for s in specs]
    if len(set(names)) != len(names):
        raise ConfigError("duplicate block in task list")
    for spec in specs:
        if spec.min_power_mw > budget.power_mw:
            raise ConfigError(
                f"block {spec.block!r} needs {spec.min_power_mw:.2f} mW "
                f"even at its quietest wrapper configuration, over the "
                f"{budget.power_mw:.2f} mW budget"
            )
        if (
            budget.tam_width is not None
            and spec.min_width > budget.tam_width
        ):
            raise ConfigError(
                f"block {spec.block!r} needs at least "
                f"{spec.min_width} TAM lines, over the TAM width "
                f"{budget.tam_width}"
            )
        if not spec.feasible(budget.power_mw, budget.tam_width):
            raise ConfigError(
                f"block {spec.block!r} has no candidate inside both the "
                f"{budget.power_mw:.2f} mW budget and TAM width "
                f"{budget.tam_width}"
            )


# ----------------------------------------------------------------------
# greedy sessions (the original heuristic, width-aware)
# ----------------------------------------------------------------------
def _greedy(
    specs: Sequence[BlockTestSpec], budget: ScheduleBudget
) -> List[Placement]:
    """First-fit-decreasing sessions under the power envelope.

    Each block keeps its *narrowest* feasible wrapper (for a
    single-candidate width-1 spec that is its one and only candidate,
    reproducing the pre-TAM behaviour exactly).  Blocks are considered
    in decreasing test time; each joins the first session with power
    (and, with a TAM limit, width) headroom, or opens a new one.
    Sessions run back to back.
    """
    chosen: List[Tuple[str, TamCandidate]] = []
    for spec in specs:
        feasible = spec.feasible(budget.power_mw, budget.tam_width)
        chosen.append((spec.block, min(feasible, key=lambda c: c.width)))
    chosen.sort(key=lambda bc: -bc[1].time_us)

    sessions: List[List[Tuple[str, TamCandidate]]] = []
    for block, cand in chosen:
        placed = False
        for session in sessions:
            power = sum(c.power_mw for _b, c in session)
            width = sum(c.width for _b, c in session)
            if power + cand.power_mw > budget.power_mw:
                continue
            if (
                budget.tam_width is not None
                and width + cand.width > budget.tam_width
            ):
                continue
            session.append((block, cand))
            placed = True
            break
        if not placed:
            sessions.append([(block, cand)])

    placements: List[Placement] = []
    start = 0.0
    for session in sessions:
        offset = 0
        for block, cand in session:
            placements.append(
                Placement(
                    block=block,
                    start_us=start,
                    time_us=cand.time_us,
                    power_mw=cand.power_mw,
                    tam_width=cand.width,
                    tam_offset=offset,
                )
            )
            offset += cand.width
        start += max(c.time_us for _b, c in session)
    return placements


# ----------------------------------------------------------------------
# rectangle bin packing
# ----------------------------------------------------------------------
def _binpack(
    specs: Sequence[BlockTestSpec], budget: ScheduleBudget
) -> List[Placement]:
    """2D rectangle packing in the TAM-width × time plane.

    Blocks are placed largest-test-data-volume first (candidate area
    ``w x t``, which is roughly width-invariant, with the rectangle
    diagonal as tie-break — the ordering from the bin-packing paper).
    For each block every feasible candidate rectangle is tried at its
    earliest power- and TAM-feasible start; the candidate finishing
    soonest wins, preferring the larger diagonal on ties.  The result
    is compared against the greedy baseline and the faster schedule is
    returned, so packing is never worse than the greedy heuristic.
    """
    packed = _pack(specs, budget)
    baseline = _greedy(specs, budget)
    if max(p.end_us for p in baseline) < max(p.end_us for p in packed):
        current_telemetry().count("sched.greedy_fallback")
        return baseline
    return packed


def _pack(
    specs: Sequence[BlockTestSpec], budget: ScheduleBudget
) -> List[Placement]:
    tam = (
        budget.tam_width
        if budget.tam_width is not None
        else sum(
            max(c.width for c in s.feasible(budget.power_mw, None))
            for s in specs
        )
    )

    def sort_key(spec: BlockTestSpec) -> Tuple[float, float]:
        best = max(
            spec.feasible(budget.power_mw, budget.tam_width),
            key=lambda c: (c.width * c.time_us, c.diagonal),
        )
        return (best.width * best.time_us, best.diagonal)

    placed: List[Placement] = []
    for spec in sorted(specs, key=sort_key, reverse=True):
        best: Optional[Placement] = None
        best_key: Optional[Tuple[float, float]] = None
        for cand in spec.feasible(budget.power_mw, budget.tam_width):
            slot = _earliest_slot(placed, cand, tam, budget)
            if slot is None:
                continue
            start, offset = slot
            key = (start + cand.time_us, -cand.diagonal)
            if best_key is None or key < best_key:
                best_key = key
                best = Placement(
                    block=spec.block,
                    start_us=start,
                    time_us=cand.time_us,
                    power_mw=cand.power_mw,
                    tam_width=cand.width,
                    tam_offset=offset,
                )
        if best is None:  # pragma: no cover - check_feasible guards
            raise ConfigError(f"block {spec.block!r} could not be placed")
        placed.append(best)
    return placed


def _earliest_slot(
    placed: Sequence[Placement],
    cand: TamCandidate,
    tam: int,
    budget: ScheduleBudget,
) -> Optional[Tuple[float, int]]:
    """Earliest (start, TAM offset) where *cand* fits entirely.

    Candidate starts are the event points of the partial schedule
    (time 0 and every placement end).  At each start the rectangle
    must clear the power envelope over its whole duration and find
    ``cand.width`` contiguous free TAM lines over its whole duration.
    Both checks are interval checks, so holding from every event point
    inside the window implies holding everywhere.
    """
    if cand.width > tam:
        return None
    starts = sorted({0.0} | {p.end_us for p in placed})
    for start in starts:
        end = start + cand.time_us

        def overlapping(p: Placement) -> bool:
            return p.start_us < end and start < p.end_us

        active = [p for p in placed if overlapping(p)]
        # Power over the window: evaluate at the window start and at
        # every event point inside it.
        checkpoints = [start] + [
            p.start_us for p in active if start < p.start_us < end
        ]
        power_ok = all(
            sum(p.power_mw for p in active if p.active_at(t))
            + cand.power_mw
            <= budget.power_mw + 1e-12
            for t in checkpoints
        )
        if not power_ok:
            continue
        # Contiguous TAM lines free over the whole window.
        busy = [False] * tam
        for p in active:
            for line in range(
                p.tam_offset, min(tam, p.tam_offset + p.tam_width)
            ):
                busy[line] = True
        run = 0
        for line in range(tam):
            run = 0 if busy[line] else run + 1
            if run >= cand.width:
                return (start, line - cand.width + 1)
    return None  # pragma: no cover - unbounded starts always fit


_Strategy = Callable[
    [Sequence[BlockTestSpec], ScheduleBudget], List[Placement]
]

_STRATEGIES: Dict[str, _Strategy] = {"greedy": _greedy, "binpack": _binpack}


def schedule_tests(
    specs: Sequence[BlockTestSpec],
    budget: ScheduleBudget,
    strategy: str = "binpack",
) -> TestSchedule:
    """Place every block of *specs* under *budget* with the named
    strategy (``"binpack"`` or ``"greedy"``).

    Raises
    ------
    ConfigError
        On an unknown strategy, or when no strategy could place the
        blocks (see :func:`check_feasible`).
    """
    try:
        place = _STRATEGIES[strategy]
    except KeyError:
        raise ConfigError(
            f"unknown scheduler {strategy!r}; choose from "
            f"{list(_STRATEGIES)}"
        ) from None
    check_feasible(specs, budget)
    tel = current_telemetry()
    with tel.span("sched.run", strategy=strategy, n_blocks=len(specs)):
        placements = place(specs, budget)
        tel.count("sched.placements", float(len(placements)))
    return TestSchedule(
        placements=placements,
        power_budget_mw=budget.power_mw,
        tam_width=budget.tam_width,
        strategy=strategy,
    )
