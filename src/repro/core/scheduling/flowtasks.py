"""Bridges from real designs and flow results to scheduling inputs.

* :func:`specs_from_flow` / :func:`specs_from_design` — width-aware
  candidate rectangles: per block, the wrapper partitioning from
  :mod:`repro.dft.wrapper` sets the shift depth at each TAM width, and
  the power comes from the caller (typically
  :meth:`repro.power.static_bound.StaticScapBound.test_power_bounds_mw`
  — a sound per-session cost model needing no simulation);
* :func:`schedule_flow` — the whole step from a finished flow to a
  validated schedule, with those bounds as block powers.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional

from ...errors import ConfigError
from ...obs import current_telemetry
from ...power.static_bound import StaticScapBound
from .model import BlockTestSpec, ScheduleBudget, TamCandidate, TestSchedule
from .strategies import schedule_tests

if TYPE_CHECKING:  # pragma: no cover
    from ...soc.design import SocDesign
    from ..flow import FlowResult

#: Scan shift clock period.
SHIFT_PERIOD_NS = 100.0
#: Launch/capture time added to every pattern.
CAPTURE_PERIOD_NS = 20.0


def _pattern_counts_by_block(flow_result: "FlowResult") -> Dict[str, int]:
    """Per-block pattern shares of a (possibly staged) flow."""
    counts: Dict[str, int] = {}
    boundaries = list(flow_result.step_boundaries) + [
        flow_result.n_patterns
    ]
    for step_idx, blocks in enumerate(flow_result.step_blocks):
        n_patterns = boundaries[step_idx + 1] - boundaries[step_idx]
        if n_patterns <= 0 or not blocks:
            continue
        share = max(1, n_patterns // len(blocks))
        for block in blocks:
            counts[block] = counts.get(block, 0) + share
    return counts


def specs_from_design(
    design: "SocDesign",
    power_by_block_mw: Dict[str, float],
    patterns_by_block: Dict[str, int],
) -> List[BlockTestSpec]:
    """Width-aware candidate rectangles for every schedulable block.

    Per block and TAM width *w*: the wrapper repartitions the block's
    scan cells into *w* balanced chains (shift depth ``ceil(cells/w)``),
    so one pattern takes ``ceil(cells/w) x shift + capture`` and the
    block's test time shrinks roughly as ``t(1)/w``.  Candidate widths
    come from :meth:`~repro.soc.design.SocDesign.tam_width_options`.
    Blocks without width options or patterns are skipped.
    """
    if design.scan is None or not design.scan.chains:
        raise ConfigError("design has no scan configuration")
    specs: List[BlockTestSpec] = []
    for block in design.blocks():
        n_patterns = patterns_by_block.get(block, 0)
        if n_patterns <= 0:
            continue
        options = design.tam_width_options(block)
        if not options:
            continue
        n_cells = sum(
            1
            for fi in design.flops_in_block(block)
            if design.netlist.flops[fi].is_scan
        )
        power = power_by_block_mw.get(block, 0.0)
        candidates: List[TamCandidate] = []
        for w in sorted(set(options)):
            depth = math.ceil(n_cells / w)
            per_pattern_us = (
                depth * SHIFT_PERIOD_NS + CAPTURE_PERIOD_NS
            ) / 1000.0
            candidates.append(
                TamCandidate(
                    width=w,
                    time_us=n_patterns * per_pattern_us,
                    power_mw=power,
                )
            )
        specs.append(BlockTestSpec(block, tuple(candidates)))
    if not specs:
        raise ConfigError("design yielded no schedulable blocks")
    return specs


def specs_from_flow(
    design: "SocDesign",
    flow_result: "FlowResult",
    power_by_block_mw: Dict[str, float],
) -> List[BlockTestSpec]:
    """Candidate rectangles from a flow's actual per-block patterns."""
    if flow_result.n_patterns == 0:
        raise ConfigError(
            f"flow {flow_result.name!r} produced no patterns; "
            "nothing to schedule"
        )
    return specs_from_design(
        design, power_by_block_mw, _pattern_counts_by_block(flow_result)
    )


def schedule_flow(
    design: "SocDesign",
    domain: str,
    flow_result: "FlowResult",
    *,
    budget_mw: Optional[float] = None,
    strategy: str = "binpack",
    tam_width: Optional[int] = None,
) -> TestSchedule:
    """Power/TAM-constrained test schedule for a finished flow.

    Block test powers are the chip-wide
    :class:`~repro.power.static_bound.StaticScapBound` bounds (sound:
    a schedule feasible under them is feasible under the true SCAP),
    times come from wrapper partitioning of the flow's per-block
    pattern counts, and *strategy* (``"binpack"`` or ``"greedy"``)
    packs the candidate rectangles under the power envelope and the
    design's TAM width (override with *tam_width*).

    Without *budget_mw* a feasible default is derived from the bounds
    themselves: 60 % of the summed per-block minima (some parallelism
    possible, full parallelism not), floored just above the hungriest
    single block.  The returned schedule has been ``validate()``-ed.
    """
    with current_telemetry().span("flow.schedule", strategy=strategy):
        powers = StaticScapBound(design, domain).test_power_bounds_mw()
        specs = specs_from_flow(design, flow_result, powers)
        if budget_mw is None:
            floor = max(s.min_power_mw for s in specs)
            budget_mw = max(
                0.6 * sum(s.min_power_mw for s in specs), floor * 1.01
            )
        width = tam_width if tam_width is not None else design.tam_width
        schedule = schedule_tests(
            specs,
            ScheduleBudget(power_mw=budget_mw, tam_width=width),
            strategy=strategy,
        )
        schedule.validate()
    return schedule
