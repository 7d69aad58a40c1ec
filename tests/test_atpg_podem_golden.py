"""Golden pin of PODEM's search on the tiny SOC.

Hashes ``(status, sorted cube, backtracks, decisions)`` of every
collapsed fault of ``turbo_eagle_tiny`` (seed 2007) under LOC and LOS,
each as a primary target and as a merge under a base cube, plus one
timing-aware pass.  Any change to implication order, D-frontier tie
breaking or backtrace choices moves the digest, so a refactor of the
implication engine must leave it untouched.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.atpg.faults import build_fault_universe, collapse_faults
from repro.atpg.podem import generate_test
from repro.atpg.twoframe import TwoFrameState
from repro.sim import DelayModel
from repro.soc import build_turbo_eagle

GOLDEN = {
    "loc": "172902f4a7380440222a288024e412c9a299ad26c6d0d1e871ee8cc1327a1935",
    "los": "ac5677796e165e0678d64f2dd9d5d83f3fd5d8c126e798b30ac9de27f2d6e273",
    "timing": "47c6d49248eeaa0c12ebe253ef2df8fa9ca232cb8626249d1224c0aabfa90014",
}


@pytest.fixture(scope="module")
def tiny():
    design = build_turbo_eagle("tiny", seed=2007)
    reps, _ = collapse_faults(
        design.netlist, build_fault_universe(design.netlist)
    )
    return design, reps


def _record(result) -> str:
    cube = sorted(result.cube.items()) if result.cube is not None else None
    return repr(
        (result.status.value, cube, result.backtracks, result.decisions)
    )


def _digest(state: TwoFrameState, faults, with_base: bool) -> str:
    """sha256 over every fault's PODEM outcome.

    Each fault runs once as a primary; with *with_base* it also runs as
    a merge under the cube of the latest successful primary, the way
    the engine's static compaction calls PODEM.
    """
    h = hashlib.sha256()
    base = None
    for fault in faults:
        result = generate_test(state, fault, max_backtracks=60)
        h.update(_record(result).encode())
        if with_base and base is not None:
            merged = generate_test(state, fault, base, max_backtracks=20)
            h.update(_record(merged).encode())
        if result.success:
            base = result.cube
    return h.hexdigest()


@pytest.mark.parametrize("protocol", ["loc", "los"])
def test_podem_outcomes_pinned(tiny, protocol):
    design, reps = tiny
    state = TwoFrameState(
        design.netlist, design.dominant_domain(), protocol=protocol,
        scan=design.scan,
    )
    assert _digest(state, reps, with_base=True) == GOLDEN[protocol]


def test_timing_aware_outcomes_pinned(tiny):
    design, reps = tiny
    state = TwoFrameState(design.netlist, design.dominant_domain())
    state.arrival = DelayModel(
        design.netlist, design.parasitics
    ).static_arrivals_ns()
    assert _digest(state, reps, with_base=False) == GOLDEN["timing"]
