"""Vectorless statistical IR-drop analysis (paper Section 2.2, Table 3).

Injects each block's statistical average current (30 % net toggle rate
over the analysis window) at the blocks' cell taps, solves both rails,
and reports per-block average switching power plus worst average drop.

Run twice — full-cycle window (Case 1) and half-cycle window (Case 2) —
it reproduces the paper's observation: halving the window doubles every
block's average power, but only the big central block (B5) sees its
worst IR-drop rise sharply, because the peripheral blocks sit next to
the pad ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..config import STATISTICAL_TOGGLE_RATE, VDD_NOMINAL
from ..power.energy import clock_buffer_energies_fj
from ..power.statistical import BlockPowerStats, statistical_block_power
from .grid import GridModel


@dataclass(frozen=True)
class StatisticalIrRow:
    """One Table-3 row: a block's power and worst average IR-drop."""

    block: str
    window_ns: float
    avg_power_mw: float
    worst_drop_vdd_v: float
    worst_drop_vss_v: float


def statistical_ir_analysis(
    model: GridModel,
    domain: Optional[str] = None,
    toggle_rate: float = STATISTICAL_TOGGLE_RATE,
    window_fraction: float = 1.0,
    vdd: float = VDD_NOMINAL,
    include_clock: bool = True,
    include_chip_row: bool = False,
) -> List[StatisticalIrRow]:
    """Per-block statistical IR-drop rows (plus optional Chip total)."""
    design = model.design
    stats = statistical_block_power(
        design,
        domain=domain,
        toggle_rate=toggle_rate,
        window_fraction=window_fraction,
        vdd=vdd,
        include_clock=include_clock,
    )
    window_ns = next(iter(stats.values())).window_ns

    # Per-node power: each driver's statistical switched energy over the
    # window lands on its tap node, added in instance order (gates,
    # flops, then clock buffers) so every float is a per-instance loop's
    # running sum.
    netlist = design.netlist
    caps = design.parasitics.net_cap_ff
    node_power_mw = np.zeros(model.vdd_grid.n_nodes)
    unit = vdd * vdd * toggle_rate / window_ns * 1e-3  # fJ/ns -> mW
    outputs = np.array([g.output for g in netlist.gates], dtype=np.intp)
    np.add.at(node_power_mw, model.gate_node, caps[outputs] * unit)
    outputs = np.array([f.q for f in netlist.flops], dtype=np.intp)
    np.add.at(node_power_mw, model.flop_node, caps[outputs] * unit)
    if include_clock:
        for name, tree in design.clock_trees.items():
            energies = clock_buffer_energies_fj(tree, vdd, edges=2)
            period_ns = design.domains[name].period_ns
            np.add.at(
                node_power_mw,
                model.clock_nodes[name][list(energies)],
                np.array(list(energies.values())) / period_ns * 1e-3,
            )

    injection = model.injection_from_node_power(node_power_mw, vdd)
    drop_vdd, drop_vss = model.solve_both(injection)

    rows = [
        StatisticalIrRow(
            block=block,
            window_ns=window_ns,
            avg_power_mw=stats[block].avg_power_mw,
            worst_drop_vdd_v=model.worst_in_block(drop_vdd, block),
            worst_drop_vss_v=model.worst_in_block(drop_vss, block),
        )
        for block in design.blocks()
    ]
    if include_chip_row:
        rows.append(
            StatisticalIrRow(
                block="Chip",
                window_ns=window_ns,
                avg_power_mw=sum(s.avg_power_mw for s in stats.values()),
                worst_drop_vdd_v=float(drop_vdd.max()),
                worst_drop_vss_v=float(drop_vss.max()),
            )
        )
    return rows


def block_power_thresholds_mw(
    rows: List[StatisticalIrRow],
) -> Dict[str, float]:
    """Per-block SCAP thresholds from a (Case-2) statistical run.

    The paper uses each block's half-cycle statistical average power as
    the SCAP limit a supply-noise-tolerant pattern must respect.
    """
    return {
        row.block: row.avg_power_mw for row in rows if row.block != "Chip"
    }
