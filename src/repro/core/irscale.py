"""IR-drop-aware delay-scaled re-simulation (paper Section 3.2, Fig 7).

Two gate-level simulations of the same pattern:

* **Case 1** — nominal cell delays,
* **Case 2** — every cell (logic *and* clock-tree buffer) slowed by
  ``Delay * (1 + k_volt * dV)`` where ``dV`` is the cell's local supply
  droop from the pattern's own dynamic IR-drop analysis (k_volt = 0.9:
  a 0.1 V droop costs 9 % delay).

Endpoint (scan-flop) path delays are then compared against each flop's
*own* clock arrival, reproducing both paper regions:

* **Region 1** — endpoints whose data path crosses the droopy area get
  slower, by up to tens of percent,
* **Region 2** — endpoints whose *capture clock* path slows more than
  their data path appear *faster*, because the delay is measured
  relative to the late clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..atpg.patterns import pattern_rows
from ..config import ElectricalEnv
from ..pgrid.dynamic_ir import DynamicIrResult, dynamic_ir_for_pattern
from ..pgrid.grid import GridModel
from ..power.calculator import ScapCalculator
from ..sim.endpoints import endpoint_delays
from ..sim.event import TimingResult, build_launch_events
from ..soc.clocks import ClockBuffer


@dataclass
class IrScaledComparison:
    """Per-endpoint delays with and without IR-drop effects."""

    pattern_index: int
    nominal_ns: Dict[int, float]
    scaled_ns: Dict[int, float]
    ir: DynamicIrResult

    def deltas(self) -> Dict[int, float]:
        """scaled - nominal per active endpoint (both cases active)."""
        return {
            fi: self.scaled_ns[fi] - self.nominal_ns[fi]
            for fi in self.nominal_ns
            if self.nominal_ns[fi] != 0.0 and self.scaled_ns.get(fi, 0.0) != 0.0
        }

    def region1(self, min_increase_ns: float = 1e-9) -> List[int]:
        """Endpoints that got slower under IR-drop."""
        return sorted(
            fi for fi, d in self.deltas().items() if d > min_increase_ns
        )

    def region2(self, min_decrease_ns: float = 1e-9) -> List[int]:
        """Endpoints that *appear faster* (capture-clock skew effect)."""
        return sorted(
            fi for fi, d in self.deltas().items() if d < -min_decrease_ns
        )

    def max_increase_pct(self) -> float:
        worst = 0.0
        for fi, delta in self.deltas().items():
            base = self.nominal_ns[fi]
            if base > 0:
                worst = max(worst, delta / base * 100.0)
        return worst


def clock_droop_scale_fn(
    model: GridModel,
    ir: DynamicIrResult,
    domain: str,
    env: ElectricalEnv,
) -> Callable[[ClockBuffer, float], float]:
    """Per-buffer delay scaling from the local rail droop."""
    tree = model.design.clock_trees[domain]
    nodes = model.clock_nodes[domain]
    total = ir.drop_vdd + ir.drop_vss
    droop_by_name = {
        tree.buffers[bi].name: float(total[nodes[bi]])
        for bi in range(len(tree.buffers))
    }

    def scale(buffer: ClockBuffer, nominal_ns: float) -> float:
        return env.scaled_delay(nominal_ns, droop_by_name.get(buffer.name, 0.0))

    return scale


def nominal_ir(
    calculator: ScapCalculator,
    model: GridModel,
    nominal_timing: TimingResult,
) -> Tuple[DynamicIrResult, Dict[int, float]]:
    """The IR-drop field and endpoint delays of a nominal simulation."""
    design = calculator.design
    domain = calculator.domain
    ir = dynamic_ir_for_pattern(model, nominal_timing, domain=domain)
    nominal_delays = endpoint_delays(
        design.netlist,
        design.clock_trees[domain],
        nominal_timing,
        flops=list(calculator.launch_time),
    )
    return ir, nominal_delays


def scaled_endpoint_delays(
    calculator: ScapCalculator,
    model: GridModel,
    frame1: Sequence[int],
    launch: Dict[int, int],
    ir: DynamicIrResult,
    env: ElectricalEnv,
) -> Dict[int, float]:
    """Case 2: every cell slowed by its local droop.

    Runs from a pattern's frame-1 values and launch state.  The
    asymmetry that creates the paper's Region 2: the *launch* clock
    edge propagates at the start of the cycle, before the switching
    burst, so it sees near-nominal buffer delays; the *capture* edge
    arrives mid-droop and is measured against the scaled clock tree.
    The calculator's nominal simulator reruns under the scaled delays
    (:meth:`~repro.sim.event.EventTimingSim.with_delays`), so nothing
    but the fanout delays is rebuilt.
    """
    design = calculator.design
    netlist = design.netlist
    domain = calculator.domain
    tree = design.clock_trees[domain]
    scaled_model = calculator.delays.scaled(
        ir.gate_droop_v, ir.flop_droop_v, env
    )
    clock_scale = clock_droop_scale_fn(model, ir, domain, env)
    events = build_launch_events(
        netlist, frame1, launch, calculator.launch_time,
        scaled_model.flop_ck2q_ns,
    )
    scaled_timing = calculator.event_sim.with_delays(scaled_model).simulate(
        frame1, events, capture_time_ns=calculator.period_ns
    )
    return endpoint_delays(
        netlist,
        tree,
        scaled_timing,
        flops=list(calculator.launch_time),
        clock_delay_scale=clock_scale,
    )


def ir_scaled_endpoint_comparison(
    calculator: ScapCalculator,
    model: GridModel,
    pattern,
    index: Optional[int] = None,
    env: Optional[ElectricalEnv] = None,
) -> IrScaledComparison:
    """Run the two-case comparison for one pattern.

    ``pattern`` is a :class:`~repro.atpg.patterns.Pattern` or a raw
    v1 dict (then pass ``index``).  The pattern is a lane of one: a
    single launch pass feeds both cases.
    """
    if env is None:
        env = ElectricalEnv()
    indices, row = pattern_rows([pattern], calculator.design.netlist.n_flops)
    if isinstance(pattern, dict) and index is not None:
        indices = [index]
    frames = calculator.lane_frames(row)
    ir, nominal_delays = nominal_ir(
        calculator, model, calculator.simulate_lane(frames, 0)
    )
    return IrScaledComparison(
        pattern_index=indices[0],
        nominal_ns=nominal_delays,
        scaled_ns=scaled_endpoint_delays(
            calculator, model, frames.frame1_of(0), frames.launch_of(0),
            ir, env,
        ),
        ir=ir,
    )
