"""Synthetic SOC families for scheduler benchmarks.

``bench_scheduling.py`` needs SOCs of increasing block count with
multiple wrapper-width candidates per block — far beyond the six-block
Turbo Eagle.  :func:`generate_block_specs` produces such designs at the
scheduling abstraction level (per-block candidate rectangles), fully
deterministic in the seed, with the size distributions skewed the way
real SOCs are: a few large power-dense cores and a tail of small
peripherals (the Turbo Eagle's B5-vs-rest shape, extended to *n*
blocks).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ...errors import ConfigError
from .model import BlockTestSpec, TamCandidate

#: Wrapper width candidates a synthetic block draws from (it takes the
#: first two or all three).
WIDTH_OPTIONS = (1, 2, 4)
#: Median test time at width 1.
BASE_TIME_US = 100.0
#: Test power of a median-sized block.
BASE_POWER_MW = 4.0
#: Extra power per doubling of the wrapper width.
WIDTH_POWER_FACTOR = 0.15
#: Fractions of the all-blocks-at-once power that :func:`budget_sweep`
#: turns into budgets.
SWEEP_FRACTIONS = (0.15, 0.25, 0.4, 0.6, 0.8, 1.0)


def generate_block_specs(
    n_blocks: int, seed: int = 2007
) -> List[BlockTestSpec]:
    """A deterministic *n_blocks*-block SOC as scheduling specs.

    Per block: test time at width 1 is log-normally distributed around
    :data:`BASE_TIME_US` (a few big cores, many small ones), test power
    is correlated with size, and the candidate widths are the first two
    or three of :data:`WIDTH_OPTIONS`.  Wider wrappers divide the time
    (``t(w) = t(1)/w``) and cost :data:`WIDTH_POWER_FACTOR` extra power
    per doubling — shifting through more chains in parallel toggles
    more cells per cycle.

    Raises
    ------
    ConfigError
        On a non-positive block count.
    """
    if n_blocks < 1:
        raise ConfigError("need at least one block")
    rng = np.random.default_rng(seed)
    specs: List[BlockTestSpec] = []
    for i in range(n_blocks):
        size = float(rng.lognormal(mean=0.0, sigma=0.7))
        time1 = BASE_TIME_US * size
        power = BASE_POWER_MW * (0.4 + 0.6 * size) * float(
            rng.uniform(0.8, 1.2)
        )
        n_opts = int(rng.integers(2, len(WIDTH_OPTIONS) + 1))
        specs.append(
            BlockTestSpec(
                f"C{i}",
                tuple(
                    TamCandidate(
                        width=w,
                        time_us=time1 / w,
                        power_mw=power
                        * (1.0 + WIDTH_POWER_FACTOR * float(np.log2(w))),
                    )
                    for w in WIDTH_OPTIONS[:n_opts]
                ),
            )
        )
    return specs


def budget_sweep(specs: Sequence[BlockTestSpec]) -> List[float]:
    """Power budgets sweeping serial-ish to fully-parallel regimes.

    Each budget is a fraction (:data:`SWEEP_FRACTIONS`) of the
    all-blocks-at-once power sum, floored at the largest single block's
    quietest power (below that no schedule exists at all).
    """
    if not specs:
        raise ConfigError("no specs to sweep")
    total = sum(max(c.power_mw for c in s.candidates) for s in specs)
    floor = max(s.min_power_mw for s in specs)
    return sorted({max(floor * 1.01, total * f) for f in SWEEP_FRACTIONS})
