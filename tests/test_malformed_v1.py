"""A malformed V1 gets one answer from every grader.

On the tiny SOC (62 flops) a pattern five bits short, five bits long,
a v1 dict naming a flop the design lacks, or a V1 whose 1-bits are
stored as 2 must be rejected with a one-line ``ConfigError`` naming the
problem, whichever entry point grades it: the one-pattern SCAP paths,
batched SCAP grading, the timing pre-screen and the IR-scaled
comparison.  None of them may zero-pad, truncate or re-read the bits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.atpg.patterns import Pattern
from repro.core.irscale import ir_scaled_endpoint_comparison
from repro.errors import ConfigError
from repro.pgrid import GridModel
from repro.power import ScapCalculator
from repro.soc import build_turbo_eagle
from repro.timing import prescreen_pattern_set


@pytest.fixture(scope="module")
def tiny():
    design = build_turbo_eagle("tiny", seed=2007)
    assert design.netlist.n_flops == 62
    calc = ScapCalculator(design, design.dominant_domain())
    return design, calc


@pytest.fixture(scope="module")
def model(tiny):
    return GridModel.calibrated(tiny[0], nx=8, ny=8)


def _pattern(calc, width: int, value: int = 1) -> Pattern:
    bits = np.zeros(width, dtype=np.uint8)
    bits[::2] = value
    return Pattern(
        index=5, v1=bits, care=np.zeros(width, dtype=bool),
        domain=calc.domain, fill="random",
    )


WIDTHS = [57, 67]


@pytest.mark.parametrize("width", WIDTHS)
def test_profile_pattern_rejects_wrong_width(tiny, width):
    _design, calc = tiny
    with pytest.raises(ConfigError, match=rf"{width}.*62"):
        calc.profile_pattern(_pattern(calc, width))


@pytest.mark.parametrize("width", WIDTHS)
def test_profile_patterns_rejects_wrong_width(tiny, width):
    _design, calc = tiny
    good = _pattern(calc, 62)
    with pytest.raises(ConfigError, match=rf"{width}.*62"):
        calc.profile_patterns([good, _pattern(calc, width)])


@pytest.mark.parametrize("width", WIDTHS)
def test_prescreen_rejects_wrong_width(tiny, model, width):
    _design, calc = tiny
    with pytest.raises(ConfigError, match=rf"{width}.*62"):
        prescreen_pattern_set(calc, model, [_pattern(calc, width)])


@pytest.mark.parametrize("width", WIDTHS)
def test_ir_scaled_comparison_rejects_wrong_width(tiny, model, width):
    _design, calc = tiny
    with pytest.raises(ConfigError, match=rf"{width}.*62"):
        ir_scaled_endpoint_comparison(calc, model, _pattern(calc, width))


def test_simulate_pattern_rejects_flop_outside_design(tiny):
    _design, calc = tiny
    v1 = {fi: fi % 2 for fi in range(67)}
    with pytest.raises(ConfigError, match="66.*62"):
        calc.simulate_pattern(v1)


def test_two_valued_bits_rejected_everywhere(tiny, model):
    _design, calc = tiny
    doubled = _pattern(calc, 62, value=2)
    for grade in (
        lambda: calc.profile_pattern(doubled),
        lambda: calc.profile_patterns([doubled]),
        lambda: calc.simulate_pattern(doubled.v1_dict()),
        lambda: prescreen_pattern_set(calc, model, [doubled]),
        lambda: ir_scaled_endpoint_comparison(calc, model, doubled),
    ):
        with pytest.raises(ConfigError, match=r"outside \{0, 1\}"):
            grade()


def test_matrix_values_outside_zero_one_rejected(tiny):
    _design, calc = tiny
    matrix = np.zeros((3, 62), dtype=np.uint8)
    matrix[1, 4] = 3
    with pytest.raises(ConfigError, match=r"outside \{0, 1\}"):
        calc.profile_patterns(matrix)
