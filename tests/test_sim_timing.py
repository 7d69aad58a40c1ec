"""Tests for the delay model and the event-driven timing engine."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.config import ElectricalEnv
from repro.errors import SimulationError
from repro.netlist import Netlist, extract_net_caps
from repro.sim import (
    DelayModel,
    EventTimingSim,
    LogicSim,
    endpoint_delays,
    loc_launch_capture,
)
from repro.sim.event import build_launch_events
from repro.soc import build_turbo_eagle


@pytest.fixture
def chain3():
    """q0 -> inv -> buf -> inv -> d0, one scan flop."""
    nl = Netlist("chain3")
    q0 = nl.add_net("q0")
    n1 = nl.add_net("n1")
    n2 = nl.add_net("n2")
    d0 = nl.add_net("d0")
    nl.add_gate("g1", "INVX1", [q0], n1)
    nl.add_gate("g2", "BUFX2", [n1], n2)
    nl.add_gate("g3", "INVX1", [n2], d0)
    nl.add_flop("f0", "SDFFX1", d=d0, q=q0, clock_domain="clka",
                is_scan=True)
    return nl


class TestDelayModel:
    def test_delays_positive(self, chain3):
        dm = DelayModel(chain3)
        assert (dm.gate_delay_ns > 0).all()
        assert (dm.flop_ck2q_ns > 0).all()

    def test_scaling_formula(self, chain3):
        dm = DelayModel(chain3)
        env = ElectricalEnv()  # k_volt = 0.9
        drop = np.full(3, 0.1)  # 100 mV droop -> +9 % delay
        scaled = dm.scaled(drop, np.zeros(1), env)
        assert scaled.gate_delay_ns == pytest.approx(
            dm.gate_delay_ns * 1.09
        )
        assert scaled.flop_ck2q_ns == pytest.approx(dm.flop_ck2q_ns)

    def test_negative_drop_clamped(self, chain3):
        dm = DelayModel(chain3)
        scaled = dm.scaled(np.full(3, -0.5), np.zeros(1))
        assert scaled.gate_delay_ns == pytest.approx(dm.gate_delay_ns)

    def test_wrong_shape_rejected(self, chain3):
        dm = DelayModel(chain3)
        with pytest.raises(SimulationError):
            dm.scaled(np.zeros(99), np.zeros(1))

    def test_critical_path_positive(self, chain3):
        assert DelayModel(chain3).critical_path_estimate_ns() > 0


class TestEventSim:
    def test_single_transition_propagates(self, chain3):
        dm = DelayModel(chain3)
        sim = LogicSim(chain3)
        ets = EventTimingSim(chain3, dm)
        init = sim.run({0: 0})  # q0=0 -> n1=1 n2=1 d0=0
        res = ets.simulate(init, [(0.5, chain3.net_id("q0"), 1)], 20.0)
        # q0, n1, n2, d0 all toggle exactly once.
        assert res.n_transitions == 4
        assert (res.toggles == 1).all()
        d0_arrival = res.last_arrival_ns[chain3.net_id("d0")]
        expected = 0.5 + dm.gate_delay_ns.sum()
        assert d0_arrival == pytest.approx(expected)
        assert res.stw_ns == pytest.approx(expected)
        assert not res.truncated

    def test_no_launch_no_events(self, chain3):
        dm = DelayModel(chain3)
        sim = LogicSim(chain3)
        ets = EventTimingSim(chain3, dm)
        init = sim.run({0: 0})
        res = ets.simulate(init, [], 20.0)
        assert res.n_transitions == 0
        assert res.stw_ns == 0.0
        assert math.isnan(res.last_arrival_ns[chain3.net_id("d0")])

    def test_energy_accounting(self, chain3):
        dm = DelayModel(chain3)
        sim = LogicSim(chain3)
        caps = extract_net_caps(chain3)
        ets = EventTimingSim(chain3, dm, caps, vdd=1.8)
        init = sim.run({0: 0})
        res = ets.simulate(init, [(0.0, chain3.net_id("q0"), 1)], 20.0)
        expected = caps.net_cap_ff.sum() * 1.8 * 1.8  # all 4 nets toggle
        assert res.energy_fj_total == pytest.approx(expected)

    def test_trace_recording(self, chain3):
        dm = DelayModel(chain3)
        sim = LogicSim(chain3)
        ets = EventTimingSim(chain3, dm)
        init = sim.run({0: 0})
        res = ets.simulate(init, [(0.0, chain3.net_id("q0"), 1)], 20.0,
                           record_trace=True)
        assert len(res.trace) == 4
        times = [t for t, _n, _v in res.trace]
        assert times == sorted(times)

    def test_redundant_launch_filtered(self, chain3):
        dm = DelayModel(chain3)
        sim = LogicSim(chain3)
        ets = EventTimingSim(chain3, dm)
        init = sim.run({0: 0})
        # Setting q0 to its existing value produces no activity.
        res = ets.simulate(init, [(0.0, chain3.net_id("q0"), 0)], 20.0)
        assert res.n_transitions == 0

    def test_glitch_captured(self):
        """Reconvergent XOR with unequal path delays glitches."""
        nl = Netlist("glitch")
        q = nl.add_net("q")
        slow1 = nl.add_net("slow1")
        slow2 = nl.add_net("slow2")
        y = nl.add_net("y")
        d = nl.add_net("d")
        nl.add_gate("b1", "BUFX2", [q], slow1)
        nl.add_gate("b2", "BUFX2", [slow1], slow2)
        nl.add_gate("x", "XOR2X1", [q, slow2], y)
        nl.add_gate("b3", "BUFX2", [y], d)
        nl.add_flop("f", "SDFFX1", d=d, q=q, clock_domain="clka",
                    is_scan=True)
        sim = LogicSim(nl)
        dm = DelayModel(nl)
        ets = EventTimingSim(nl, dm)
        init = sim.run({0: 0})
        res = ets.simulate(init, [(0.0, q, 1)], 20.0)
        # y settles back to 0 but pulses high: 2 transitions on y.
        assert res.toggles[y] == 2
        assert res.toggles[d] == 2

    def test_bad_initial_values_rejected(self, chain3):
        ets = EventTimingSim(chain3, DelayModel(chain3))
        with pytest.raises(SimulationError):
            ets.simulate([0, 1], [], 20.0)


class TestEndpoints:
    def test_endpoint_delay_reference(self):
        design = build_turbo_eagle("tiny", seed=29)
        nl = design.netlist
        sim = LogicSim(nl)
        dm = DelayModel(nl, design.parasitics)
        ets = EventTimingSim(nl, dm, design.parasitics)
        tree = design.clock_trees["clka"]
        rng = np.random.default_rng(4)
        v1 = {fi: int(rng.integers(2)) for fi in range(nl.n_flops)}
        cyc = loc_launch_capture(sim, v1, "clka")
        lt = {fi: tree.insertion_delay_ns(fi) for fi in cyc.pulsed_flops}
        launch = {fi: cyc.launch_state[fi] for fi in lt}
        events = build_launch_events(nl, cyc.frame1, launch, lt,
                                     dm.flop_ck2q_ns)
        res = ets.simulate(cyc.frame1, events, 20.0)
        delays = endpoint_delays(nl, tree, res)
        active = [d for d in delays.values() if d != 0.0]
        assert active, "expected at least one active endpoint"
        assert max(active) < 20.0  # paths fit in the cycle

    def test_slower_capture_clock_reduces_measured_delay(self):
        design = build_turbo_eagle("tiny", seed=29)
        nl = design.netlist
        sim = LogicSim(nl)
        dm = DelayModel(nl, design.parasitics)
        ets = EventTimingSim(nl, dm, design.parasitics)
        tree = design.clock_trees["clka"]
        rng = np.random.default_rng(4)
        v1 = {fi: int(rng.integers(2)) for fi in range(nl.n_flops)}
        cyc = loc_launch_capture(sim, v1, "clka")
        lt = {fi: tree.insertion_delay_ns(fi) for fi in cyc.pulsed_flops}
        launch = {fi: cyc.launch_state[fi] for fi in lt}
        events = build_launch_events(nl, cyc.frame1, launch, lt,
                                     dm.flop_ck2q_ns)
        res = ets.simulate(cyc.frame1, events, 20.0)
        nominal = endpoint_delays(nl, tree, res)
        slowed = endpoint_delays(
            nl, tree, res, clock_delay_scale=lambda buf, d: d * 1.3
        )
        for fi, d in nominal.items():
            if d != 0.0 and slowed[fi] != 0.0:
                assert slowed[fi] < d
