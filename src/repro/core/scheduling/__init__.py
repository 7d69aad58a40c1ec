"""Power-constrained SOC test scheduling with wrapper/TAM co-optimisation.

The paper's introduction frames the noise problem partly through SOC
test scheduling (its refs [5][6]): blocks are tested in parallel to cut
test time, but the *sum* of their test power must stay under the chip's
functional power threshold.  The related work goes further — wrapper/
TAM co-optimisation schedules each block as a *rectangle* in the
TAM-width × time plane, trading wrapper width against test time per
block while packing under the power envelope.

This package is that scheduler:

* :mod:`~repro.core.scheduling.model` — candidate rectangles, budgets,
  placements and :class:`TestSchedule` invariants;
* :mod:`~repro.core.scheduling.strategies` — :func:`schedule_tests`,
  which runs the greedy-session baseline or the rectangle bin-packing
  strategy by name;
* :mod:`~repro.core.scheduling.flowtasks` — bridges from designs and
  flow results (wrapper partitioning for times,
  :class:`~repro.power.static_bound.StaticScapBound` for powers);
* :mod:`~repro.core.scheduling.synthetic` — generated SOC families for
  the Pareto benchmarks.
"""

from .model import (
    BlockTestSpec,
    Placement,
    ScheduleBudget,
    TamCandidate,
    TestSchedule,
)
from .strategies import schedule_tests
from .flowtasks import schedule_flow, specs_from_design, specs_from_flow
from .synthetic import budget_sweep, generate_block_specs

__all__ = [
    "BlockTestSpec",
    "Placement",
    "ScheduleBudget",
    "TamCandidate",
    "TestSchedule",
    "budget_sweep",
    "generate_block_specs",
    "schedule_flow",
    "schedule_tests",
    "specs_from_design",
    "specs_from_flow",
]
