"""The event simulator against its reference loop, bit for bit.

:func:`reference_simulate` is the straightforward transport-delay event
loop: every gate evaluation is pushed onto the heap and dropped at fire
time when it would not change its net, and every applied event updates
the toggle, arrival, window and energy bookkeeping in place.
:class:`~repro.sim.event.EventTimingSim` must reproduce it exactly:
floats compared as ``float.hex``, ``energy_fj_by_block`` in insertion
order, ``toggles``, ``last_arrival_ns`` with its NaNs, the trace,
``truncated`` and ``n_transitions``.

The hypothesis property draws random netlists with launch events at
one shared time (ties broken only by push order) or at random times,
delays that tie exactly, horizons shorter than the settling time, no-op
launch events and launch events on gate outputs.  Golden digests pin
the SCAP profiles of 256 seeded random vectors and 16 IR-scaled
endpoint comparisons on the small SOC.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from typing import Any, Dict, List, Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import VDD_NOMINAL
from repro.core.irscale import ir_scaled_endpoint_comparison
from repro.errors import SimulationError
from repro.netlist.cells import CELL_FUNCTIONS
from repro.netlist.netlist import Netlist
from repro.pgrid import GridModel
from repro.power import ScapCalculator
from repro.sim import DelayModel, EventTimingSim, LogicSim
from repro.sim.event import LaunchEvent, TimingResult, build_launch_events
from repro.soc import build_turbo_eagle
from tests.strategies import random_netlist

SEED = 2007
N_PROFILE_ROWS = 256
N_IR_SCALED = 16

DIGESTS: Dict[str, str] = {
    "small.profiles": (
        "68b3b3a6ba4fe66a4d1e6f9f067189eeeda04fde5dc45e815db3fc912190d08a"
    ),
    "small.ir_scaled": (
        "bea8d4aab191af507f5f926226e6cc3ec41323701df4e025e2823bb5d80b9be9"
    ),
}


def _registry_eval(gate):
    """A gate evaluator dispatching through the cell-function registry."""
    fn = CELL_FUNCTIONS[gate.kind]
    ins = tuple(gate.inputs)

    def ev(values):
        return fn([values[p] for p in ins], 1)

    return ev


def reference_simulate(
    netlist: Netlist,
    delays: DelayModel,
    initial_values: Sequence[int],
    launch_events: Sequence[LaunchEvent],
    capture_time_ns: float,
    horizon_ns: Optional[float] = None,
    record_trace: bool = False,
    vdd: float = VDD_NOMINAL,
) -> TimingResult:
    """The reference loop: push every evaluation, filter at fire time."""
    netlist.freeze()
    n_nets = netlist.n_nets
    gate_delay_list = [float(d) for d in delays.gate_delay_ns]
    fanout_eval = [
        tuple(
            (
                _registry_eval(netlist.gates[gi]),
                netlist.gates[gi].output,
                gate_delay_list[gi],
            )
            for gi, _pin in netlist.gate_fanouts_of(net)
        )
        for net in range(n_nets)
    ]
    block_of_net: List[Optional[str]] = [None] * n_nets
    for g in netlist.gates:
        block_of_net[g.output] = g.block
    for f in netlist.flops:
        block_of_net[f.q] = f.block
    energy_of_net = [
        float(e) for e in delays.parasitics.net_cap_ff * vdd * vdd
    ]

    if horizon_ns is None:
        horizon_ns = 2.0 * capture_time_ns

    values = list(initial_values)
    toggles: List[int] = [0] * n_nets
    last_arrival: List[float] = [math.nan] * n_nets
    energy_total = 0.0
    energy_by_block: Dict[str, float] = {}
    trace: Optional[List[LaunchEvent]] = [] if record_trace else None

    heappush = heapq.heappush
    heappop = heapq.heappop
    heap: List[Any] = []
    seq = 0
    for t, net, val in launch_events:
        heappush(heap, (t, seq, net, val & 1))
        seq += 1

    stw = 0.0
    n_transitions = 0
    truncated = False
    by_block_get = energy_by_block.get

    while heap:
        t, _s, net, val = heappop(heap)
        if t > horizon_ns:
            truncated = True
            break
        if values[net] == val:
            continue
        values[net] = val
        n_transitions += 1
        toggles[net] += 1
        last_arrival[net] = t
        if t > stw:
            stw = t
        energy_total += energy_of_net[net]
        block = block_of_net[net]
        if block is not None:
            energy_by_block[block] = (
                by_block_get(block, 0.0) + energy_of_net[net]
            )
        if trace is not None:
            trace.append((t, net, val))
        for ev, out, dly in fanout_eval[net]:
            heappush(heap, (t + dly, seq, out, ev(values)))
            seq += 1

    return TimingResult(
        stw_ns=stw,
        capture_time_ns=capture_time_ns,
        n_transitions=n_transitions,
        toggles=np.asarray(toggles, dtype=np.int32),
        last_arrival_ns=np.asarray(last_arrival, dtype=float),
        energy_fj_total=energy_total,
        energy_fj_by_block=energy_by_block,
        truncated=truncated,
        trace=trace,
    )


def _hex(x: Any) -> str:
    return float(x).hex()


def timing_fields(result: TimingResult) -> List[Any]:
    """Every field of a result, floats as ``float.hex``, in order."""
    trace = None
    if result.trace is not None:
        trace = [
            [_hex(t), type(t).__name__, int(net), int(val)]
            for t, net, val in result.trace
        ]
    return [
        _hex(result.stw_ns),
        _hex(result.capture_time_ns),
        result.n_transitions,
        str(result.toggles.dtype),
        result.toggles.tolist(),
        str(result.last_arrival_ns.dtype),
        [_hex(a) for a in result.last_arrival_ns],
        _hex(result.energy_fj_total),
        [(block, _hex(e)) for block, e in result.energy_fj_by_block.items()],
        result.truncated,
        trace,
    ]


def _digest(payload: Any) -> str:
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _with_gate_delays(model: DelayModel, gate_delay_ns: np.ndarray):
    """A copy of *model* with its gate delays replaced."""
    clone = model.scaled(
        np.zeros(model.netlist.n_gates), np.zeros(model.netlist.n_flops)
    )
    clone.gate_delay_ns = np.asarray(gate_delay_ns, dtype=float)
    return clone


@st.composite
def timing_case(draw):
    """A netlist, a delay model and one cycle's stimulus."""
    nl = draw(random_netlist())
    # Blocks in any order of first switching, and nets without one.
    blocks = st.sampled_from(["B2", "B1", "B3", None])
    for cell in (*nl.gates, *nl.flops):
        cell.block = draw(blocks)
    nl.freeze()
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    delays = DelayModel(nl)
    delay_mode = draw(st.sampled_from(["loaded", "droop", "tied"]))
    if delay_mode == "droop":
        delays = delays.scaled(
            rng.uniform(0.0, 0.2, nl.n_gates), rng.uniform(0.0, 0.2, nl.n_flops)
        )
    elif delay_mode == "tied":
        # Multiples of 1/8 ns sum exactly, so reconvergent paths tie.
        delays = _with_gate_delays(
            delays, rng.integers(1, 4, nl.n_gates) / 8.0
        )

    if draw(st.booleans()):
        v1 = {fi: int(rng.integers(2)) for fi in range(nl.n_flops)}
        initial = LogicSim(nl).run(v1)
    else:
        initial = [int(b) for b in rng.integers(0, 2, nl.n_nets)]

    shared = draw(st.booleans())
    shared_t = draw(st.floats(0.0, 2.0))
    events: List[LaunchEvent] = []
    for flop in nl.flops:
        if draw(st.booleans()):
            t = shared_t if shared else draw(st.floats(0.0, 2.0))
            events.append((t, flop.q, 1 - (initial[flop.q] & 1)))
    if draw(st.booleans()):
        # A no-op launch event: its net already holds the value.
        q = nl.flops[draw(st.integers(0, nl.n_flops - 1))].q
        t = shared_t if shared else draw(st.floats(0.0, 2.0))
        events.append((t, q, initial[q] & 1))
    n_on_gates = draw(st.integers(0, 2))
    for _ in range(n_on_gates):
        # Launch events may name a gate output and then race its driver.
        g = nl.gates[draw(st.integers(0, nl.n_gates - 1))]
        t = shared_t if shared else draw(st.floats(0.0, 2.0))
        events.append((t, g.output, draw(st.integers(0, 1))))
    if draw(st.booleans()):
        events.reverse()

    capture = draw(st.floats(0.25, 20.0))
    settled = reference_simulate(nl, delays, initial, events, 1e3, 1e9)
    horizon_mode = draw(st.sampled_from(["default", "short", "long"]))
    if horizon_mode == "default":
        horizon = None
    elif horizon_mode == "short":
        # Shorter than the settling time: a truncated cycle.
        horizon = draw(st.floats(0.0, 1.0)) * settled.stw_ns
    else:
        horizon = 1e9
    return nl, delays, initial, events, capture, horizon, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(case=timing_case())
def test_simulate_matches_reference_loop(case):
    nl, delays, initial, events, capture, horizon, traced = case
    expected = reference_simulate(
        nl, delays, initial, events, capture, horizon, traced
    )
    got = EventTimingSim(nl, delays).simulate(
        initial, events, capture, horizon_ns=horizon, record_trace=traced
    )
    assert timing_fields(got) == timing_fields(expected)


def test_reference_matches_on_a_traced_small_pattern(small):
    """One full-size traced cycle on the small SOC."""
    design, calc, _model, matrix = small
    frames = calc.lane_frames(matrix[:1])
    frame1 = frames.frame1_of(0)
    events = build_launch_events(
        design.netlist, frame1, frames.launch_of(0), calc.launch_time,
        calc.delays.flop_ck2q_ns,
    )
    assert events
    expected = reference_simulate(
        design.netlist, calc.delays, frame1, events, calc.period_ns,
        record_trace=True,
    )
    timing = calc.simulate_lane(frames, 0, record_trace=True)
    assert timing_fields(timing) == timing_fields(expected)


# ----------------------------------------------------------------------
# golden digests on the small SOC
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small():
    design = build_turbo_eagle("small", seed=SEED)
    domain = design.dominant_domain()
    calc = ScapCalculator(design, domain)
    model = GridModel.calibrated(design)
    rng = np.random.default_rng(SEED + 17)
    matrix = rng.integers(
        0, 2, size=(N_PROFILE_ROWS, design.netlist.n_flops), dtype=np.uint8
    )
    return design, calc, model, matrix


def test_small_profiles_pinned(small):
    _design, calc, _model, matrix = small
    profiles = calc.profile_patterns(matrix)
    payload = [
        [
            p.pattern_index,
            _hex(p.stw_ns),
            p.n_transitions,
            _hex(p.energy_fj_total),
            [(block, _hex(e)) for block, e in p.energy_fj_by_block.items()],
        ]
        for p in profiles
    ]
    assert _digest(payload) == DIGESTS["small.profiles"]


def test_small_ir_scaled_comparisons_pinned(small):
    _design, calc, model, matrix = small
    payload = []
    for i in range(N_IR_SCALED):
        v1 = {fi: int(b) for fi, b in enumerate(matrix[i])}
        comp = ir_scaled_endpoint_comparison(calc, model, v1, index=i)
        payload.append([
            comp.pattern_index,
            sorted((fi, _hex(d)) for fi, d in comp.nominal_ns.items()),
            sorted((fi, _hex(d)) for fi, d in comp.scaled_ns.items()),
            [_hex(x) for x in comp.ir.drop_vdd],
            [_hex(x) for x in comp.ir.drop_vss],
        ])
    assert _digest(payload) == DIGESTS["small.ir_scaled"]


@settings(max_examples=60, deadline=None)
@given(case=timing_case(), seed=st.integers(0, 2**31 - 1))
def test_with_delays_matches_a_fresh_simulator(case, seed):
    """Rerunning under scaled delays reuses the nominal simulator and
    leaves it untouched."""
    nl, delays, initial, events, capture, horizon, traced = case
    rng = np.random.default_rng(seed)
    scaled = delays.scaled(
        rng.uniform(0.0, 0.3, nl.n_gates), rng.uniform(0.0, 0.3, nl.n_flops)
    )
    nominal = EventTimingSim(nl, delays)
    rerun = nominal.with_delays(scaled)
    assert rerun.delays is scaled and nominal.delays is delays
    for sim, model in ((rerun, scaled), (nominal, delays)):
        got = sim.simulate(
            initial, events, capture, horizon_ns=horizon, record_trace=traced
        )
        expected = reference_simulate(
            nl, model, initial, events, capture, horizon, traced
        )
        assert timing_fields(got) == timing_fields(expected)


def test_with_delays_rejects_another_netlists_model(small):
    design, calc, _model, _matrix = small
    other = build_turbo_eagle("tiny", seed=SEED)
    with pytest.raises(SimulationError):
        calc.event_sim.with_delays(DelayModel(other.netlist))
