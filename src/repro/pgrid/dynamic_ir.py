"""Per-pattern dynamic IR-drop analysis (paper Section 2.4, Figure 3).

Takes a timing-simulation result for one pattern (the VCD substitute),
charges each toggled net's energy to its driver's tap node, averages the
current over the chosen window (the full cycle for the CAP view, the
pattern's STW for the SCAP view), and solves both rails.

Besides the worst-average numbers and map grids, the result carries the
per-gate and per-flop total droop (VDD sag + VSS bounce at the cell's
tap) that the IR-drop-aware re-simulation of Section 3.2 feeds into the
``Delay * (1 + k_volt * dV)`` scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..config import IR_DROP_RED_FRACTION, VDD_NOMINAL
from ..errors import PowerGridError
from ..power.energy import clock_buffer_energies_fj
from ..sim.event import TimingResult
from .grid import GridModel


@dataclass
class DynamicIrResult:
    """Dynamic IR-drop of one pattern over one analysis window."""

    window_ns: float
    drop_vdd: np.ndarray  # per grid node, volts
    drop_vss: np.ndarray
    gate_droop_v: np.ndarray  # VDD drop + VSS bounce at each gate tap
    flop_droop_v: np.ndarray
    vdd: float = VDD_NOMINAL

    @property
    def worst_vdd_v(self) -> float:
        return float(self.drop_vdd.max()) if self.drop_vdd.size else 0.0

    @property
    def worst_vss_v(self) -> float:
        return float(self.drop_vss.max()) if self.drop_vss.size else 0.0

    def red_fraction(self, threshold_fraction: float = IR_DROP_RED_FRACTION) -> float:
        """Fraction of grid nodes dropping more than 10 % of VDD."""
        limit = threshold_fraction * self.vdd
        total = self.drop_vdd + self.drop_vss
        return float((total > limit).mean())

    def worst_in_block(self, model: GridModel, block: str) -> Dict[str, float]:
        return {
            "vdd": model.worst_in_block(self.drop_vdd, block),
            "vss": model.worst_in_block(self.drop_vss, block),
        }


def dynamic_ir_for_pattern(
    model: GridModel,
    timing: TimingResult,
    window_ns: Optional[float] = None,
    domain: Optional[str] = None,
    vdd: float = VDD_NOMINAL,
    include_clock: bool = True,
    clock_gating: bool = False,
) -> DynamicIrResult:
    """Solve the rails for one simulated pattern.

    Parameters
    ----------
    model:
        The design's grid model.
    timing:
        Event/fast timing result for the pattern's launch-to-capture
        cycle.
    window_ns:
        Averaging window; defaults to the pattern's STW (the SCAP view).
        Pass the full period for the CAP view.
    domain:
        Pulsed clock domain (for clock-tree injection); defaults to the
        design's dominant domain.
    include_clock:
        Charge the launch-edge clock-tree toggles within the window.
    clock_gating:
        Model ideal clock gating: only tree branches clocking a flop
        that actually launched this pattern draw current.  Launching
        flops are recognised by their toggled Q nets in *timing*.
    """
    design = model.design
    if window_ns is None:
        window_ns = timing.stw_ns
    if window_ns <= 0.0:
        # Fully quiet pattern: zero current, zero drop.
        n = model.vdd_grid.n_nodes
        return DynamicIrResult(
            window_ns=0.0,
            drop_vdd=np.zeros(n),
            drop_vss=np.zeros(n),
            gate_droop_v=np.zeros(design.netlist.n_gates),
            flop_droop_v=np.zeros(design.netlist.n_flops),
            vdd=vdd,
        )

    caps = design.parasitics.net_cap_ff
    net_energy_fj = timing.toggles * caps * vdd * vdd
    # Added in net order, then the clock buffers in buffer order, so
    # every float is a per-net loop's running sum.
    node_power_mw = np.zeros(model.vdd_grid.n_nodes)
    toggled = np.flatnonzero(timing.toggles)
    toggled = toggled[model.net_node[toggled] >= 0]
    np.add.at(
        node_power_mw,
        model.net_node[toggled],
        net_energy_fj[toggled] / window_ns * 1e-3,
    )

    if include_clock:
        # The clock burst is the same every cycle; averaging it over the
        # pattern-specific STW would make near-quiet patterns look
        # droopier than active ones.  Use the half-period convention of
        # the statistical analysis instead, so the clock contributes a
        # pattern-independent baseline.
        dom = domain if domain is not None else design.dominant_domain()
        tree = design.clock_trees[dom]
        clock_window_ns = design.domains[dom].period_ns / 2.0
        if clock_gating:
            from ..power.energy import gated_clock_buffer_energies_fj

            launching = {
                fi
                for fi in tree.leaf_of_flop
                if timing.toggles[design.netlist.flops[fi].q] > 0
            }
            energies = gated_clock_buffer_energies_fj(
                tree, launching, vdd, edges=1
            )
        else:
            energies = clock_buffer_energies_fj(tree, vdd, edges=1)
        np.add.at(
            node_power_mw,
            model.clock_nodes[dom][list(energies)],
            np.array(list(energies.values())) / clock_window_ns * 1e-3,
        )

    injection = model.injection_from_node_power(node_power_mw, vdd)
    drop_vdd, drop_vss = model.solve_both(injection)
    total = drop_vdd + drop_vss
    return DynamicIrResult(
        window_ns=window_ns,
        drop_vdd=drop_vdd,
        drop_vss=drop_vss,
        gate_droop_v=total[model.gate_node],
        flop_droop_v=total[model.flop_node],
        vdd=vdd,
    )
