"""Exactness of PODEM's two merge fast paths on random netlists.

After a PODEM success the two-frame state keeps a snapshot of frame 1
and the good frame 2 under the success cube.  Neither frame depends on
the fault, so the snapshot serves two shortcuts, each checked here
against a fresh state that replays the cube bit by bit:

* the engine's merge pre-filter (:meth:`TwoFrameState.blocked_under`)
  rejects a candidate without a PODEM call; every candidate it rejects
  must fail PODEM under that cube even with an unbounded backtrack
  budget;
* a fault whose site is unlaunched under the cube installs from the
  snapshot instead of replaying it (:meth:`TwoFrameState.load`); the
  installed state, and every PODEM record that starts from it, must
  equal the replayed one.
"""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.atpg.faults import build_fault_universe, collapse_faults
from repro.atpg.podem import generate_test
from repro.atpg.twoframe import TwoFrameState
from repro.atpg.values import X

from .strategies import random_netlist
from .test_twoframe_invariants import _check


def _fresh(nl, protocol: str) -> TwoFrameState:
    scan = SimpleNamespace(
        chains=[SimpleNamespace(flops=list(range(nl.n_flops)))]
    )
    return TwoFrameState(nl, "clka", protocol=protocol, scan=scan)


def _record(result):
    cube = list(result.cube.items()) if result.cube is not None else None
    return (result.status, cube, result.backtracks, result.decisions)


def _success_cubes(state: TwoFrameState, faults):
    """Yield each successful primary's cube while the state's snapshot
    still holds it."""
    for primary in faults:
        result = generate_test(state, primary)
        if result.success:
            yield result.cube


@settings(max_examples=100, deadline=None)
@given(nl=random_netlist(min_gates=4), protocol=st.sampled_from(["loc", "los"]))
def test_prefilter_rejects_only_failing_merges(nl, protocol):
    state = _fresh(nl, protocol)
    faults, _ = collapse_faults(nl, build_fault_universe(nl))
    for cube in _success_cubes(state, faults):
        # The snapshot is a copy: after one more bit is implied in the
        # live state it still equals the frames a replay of the cube
        # computes.
        free = [fi for fi in range(nl.n_flops) if fi not in cube]
        if free:
            state.assign(free[0], 1)
        replay = _fresh(nl, protocol)
        replay.load(faults[0], cube)
        _, f1, g2 = state._snapshot
        assert (f1, g2) == (replay.f1, replay.g2)
        for fault in faults:
            if state.blocked_under(cube, fault):
                event("pre-filter rejected a candidate")
                oracle = generate_test(
                    _fresh(nl, protocol), fault, cube, max_backtracks=10**6
                )
                assert not oracle.success


@settings(max_examples=100, deadline=None)
@given(nl=random_netlist(min_gates=4), protocol=st.sampled_from(["loc", "los"]))
def test_snapshot_install_matches_replay(nl, protocol):
    state = _fresh(nl, protocol)
    faults, _ = collapse_faults(nl, build_fault_universe(nl))
    for cube in list(_success_cubes(state, faults)):
        # Re-establish the cube's snapshot: later primaries moved it.
        state.load(faults[0], cube)
        for fault in faults:
            if state.obs_dist[fault.net] == float("inf"):
                continue  # PODEM returns before installing the fault
            snap_cube, _, snap_g2 = state._snapshot
            from_snapshot = snap_cube == cube and snap_g2[fault.net] == X
            state.load(fault, cube)
            replay = _fresh(nl, protocol)
            replay.load(fault, cube)
            assert state.f1 == replay.f1
            assert state.g2 == replay.g2
            assert state.f2 == replay.f2
            assert list(state.v1.items()) == list(cube.items())
            # PODEM breaks D-frontier ties in d_nets' iteration order.
            assert list(state.d_nets) == list(replay.d_nets)
            if from_snapshot:
                event("fault installed from the snapshot")
                assert state.d_nets == set()
                _check(state)
            got = generate_test(state, fault, cube, max_backtracks=20)
            expected = generate_test(
                _fresh(nl, protocol), fault, cube, max_backtracks=20
            )
            assert _record(got) == _record(expected)
