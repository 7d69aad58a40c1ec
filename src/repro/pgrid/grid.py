"""Resistive power-grid model with periphery pads.

Each supply rail (VDD and VSS) is a uniform ``nx x ny`` resistive mesh
over the die.  Pads — 37 per rail, evenly spaced around the periphery as
in the case study — tie their nearest mesh node to the ideal rail
through a pad resistance.  Average IR-drop over an analysis window is
then a single sparse nodal solve:

``G * u = i``

where ``u`` is the drop (VDD sag or VSS bounce) at each node and ``i``
the average cell current injected at that node during the window.  The
sparse LU factorisation is computed once per grid and reused across
patterns, which is what makes per-pattern dynamic analysis cheap.

Because the reproduction runs a scaled-down SOC (milliamps, not amps),
grid resistance is *calibrated*, not taken from metal sheet resistance:
:meth:`GridModel.calibrated` scales the mesh so that the vectorless
functional analysis lands at a realistic few-percent-of-VDD worst drop,
preserving the paper's drop *fractions* at any design scale.

Only this module's :class:`PowerGrid` needs scipy (for SuperLU), and it
imports it when the first grid is built, so a process that never solves
a grid — a service worker, the HTTP front-end, ``repro atpg`` — never
loads it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from ..config import SUPPLY_PAD_COUNT, VDD_NOMINAL
from ..errors import PowerGridError
from ..soc.design import SocDesign
from ..soc.floorplan import Coord, Floorplan, periphery_pad_positions

#: A node index or, elementwise, an array of them.
Index = Union[int, np.ndarray]


class PowerGrid:
    """One rail's resistive mesh with pads and a cached factorisation."""

    def __init__(
        self,
        floorplan: Floorplan,
        nx: int = 24,
        ny: int = 24,
        seg_res_ohm: float = 25.0,
        pad_res_ohm: float = 2.0,
        n_pads: int = SUPPLY_PAD_COUNT,
    ):
        if not (isinstance(nx, numbers.Integral)
                and isinstance(ny, numbers.Integral)):
            raise PowerGridError(
                f"grid size must be integers, got {nx!r}x{ny!r}"
            )
        if nx < 2 or ny < 2:
            raise PowerGridError("grid needs at least 2x2 nodes")
        if not (0 < seg_res_ohm < math.inf and 0 < pad_res_ohm < math.inf):
            raise PowerGridError(
                f"resistances must be positive and finite, got segment "
                f"{seg_res_ohm!r} and pad {pad_res_ohm!r} ohm"
            )
        from scipy.sparse import csc_matrix
        from scipy.sparse.linalg import splu

        self.floorplan = floorplan
        self.nx = nx
        self.ny = ny
        self.seg_res_ohm = seg_res_ohm
        self.pad_res_ohm = pad_res_ohm
        n = self.n_nodes = nx * ny
        pads = np.array(periphery_pad_positions(floorplan, n_pads))
        self.pad_nodes = self.nearest_node(pads[:, 0], pads[:, 1]).tolist()

        # The nodal conductance matrix, summed as an element-by-element
        # build would: every off-diagonal is -g_seg, and each diagonal
        # adds g_seg per segment end in visiting order (row-major nodes,
        # a node's right segment before its lower one), then g_pad per
        # pad in pad order.
        g_seg = 1.0 / seg_res_ohm
        g_pad = 1.0 / pad_res_ohm
        node = np.arange(n)
        iy, ix = divmod(node, nx)
        # Column j holds rows j-nx, j-1, j, j+1 and j+nx where those
        # nodes exist, already ascending as CSC wants.
        offsets = np.array([-nx, -1, 0, 1, nx])
        rows = node[:, None] + offsets
        present = np.stack(
            [iy > 0, ix > 0, np.ones(n, dtype=bool), ix < nx - 1,
             iy < ny - 1],
            axis=1,
        )
        ends = np.stack([rows[:, [2, 3]], rows[:, [2, 4]]], axis=1)
        diag = np.zeros(n)
        np.add.at(diag, ends[present[:, 3:]].ravel(), g_seg)
        np.add.at(diag, self.pad_nodes, g_pad)
        values = np.where(offsets == 0, diag[:, None], -g_seg)
        indptr = np.concatenate(([0], np.cumsum(present.sum(axis=1))))
        conductance = csc_matrix(
            (values[present], rows[present], indptr), shape=(n, n)
        )
        self._lu = splu(conductance)

    # ------------------------------------------------------------------
    def node_index(self, ix: Index, iy: Index) -> Index:
        return iy * self.nx + ix

    def node_position(self, node: Index) -> Tuple[Coord, Coord]:
        """Centre of *node* in micrometres (elementwise over an array)."""
        iy, ix = divmod(node, self.nx)
        return (
            (ix + 0.5) / self.nx * self.floorplan.width,
            (iy + 0.5) / self.ny * self.floorplan.height,
        )

    def nearest_node(self, x: Coord, y: Coord) -> Index:
        """The node whose cell holds (x, y), clipped onto the mesh
        (elementwise over arrays)."""
        ix = np.clip(np.trunc(x / self.floorplan.width * self.nx),
                     0, self.nx - 1)
        iy = np.clip(np.trunc(y / self.floorplan.height * self.ny),
                     0, self.ny - 1)
        return self.node_index(ix.astype(np.intp), iy.astype(np.intp))

    def drop_v(self, injection_a: np.ndarray) -> np.ndarray:
        """Solve for per-node drop (V) given per-node currents (A)."""
        if injection_a.shape != (self.n_nodes,):
            raise PowerGridError(
                f"injection must have {self.n_nodes} entries, got "
                f"{injection_a.shape}"
            )
        return self._lu.solve(injection_a)

    def drop_grid(self, drop: np.ndarray) -> np.ndarray:
        """Reshape a node vector into an (ny, nx) map."""
        return drop.reshape(self.ny, self.nx)


@dataclass
class GridModel:
    """Paired VDD/VSS grids bound to one design, with cell taps."""

    design: SocDesign
    vdd_grid: PowerGrid
    vss_grid: PowerGrid
    gate_node: np.ndarray
    flop_node: np.ndarray
    net_node: np.ndarray
    clock_nodes: Dict[str, np.ndarray]
    block_nodes: Dict[str, np.ndarray]

    @classmethod
    def build(
        cls,
        design: SocDesign,
        nx: int = 24,
        ny: int = 24,
        seg_res_ohm: float = 25.0,
        pad_res_ohm: float = 2.0,
        vss_res_scale: float = 1.08,
    ) -> "GridModel":
        """Construct both rails and map every instance to a tap node.

        The VSS mesh is slightly more resistive than VDD's
        (``vss_res_scale``), reflecting the usual asymmetry between the
        power and ground straps — it is why the paper's VSS numbers sit
        a few percent above the VDD ones.
        """
        fp = design.floorplan
        vdd = PowerGrid(fp, nx, ny, seg_res_ohm, pad_res_ohm)
        vss = PowerGrid(
            fp, nx, ny, seg_res_ohm * vss_res_scale,
            pad_res_ohm * vss_res_scale,
        )
        netlist = design.netlist
        center = fp.center

        def taps(instances: Sequence) -> np.ndarray:
            xy = np.array(
                [i.pos if i.pos is not None else center for i in instances],
                dtype=float,
            ).reshape(-1, 2)
            return vdd.nearest_node(xy[:, 0], xy[:, 1]).astype(np.int32)

        gate_node = taps(netlist.gates)
        flop_node = taps(netlist.flops)
        # Net tap = driver instance tap (energy is charged to drivers).
        net_node = np.full(netlist.n_nets, -1, dtype=np.int32)
        net_node[[g.output for g in netlist.gates]] = gate_node
        net_node[[f.q for f in netlist.flops]] = flop_node
        clock_nodes = {
            name: taps(tree.buffers)
            for name, tree in design.clock_trees.items()
        }

        x, y = vdd.node_position(np.arange(vdd.n_nodes))
        block_nodes = {
            block: np.flatnonzero(fp.region(block).contains(x, y))
            .astype(np.int32)
            for block in design.blocks()
        }

        return cls(
            design=design,
            vdd_grid=vdd,
            vss_grid=vss,
            gate_node=gate_node,
            flop_node=flop_node,
            net_node=net_node,
            clock_nodes=clock_nodes,
            block_nodes=block_nodes,
        )

    @classmethod
    def calibrated(
        cls,
        design: SocDesign,
        target_worst_drop_v: float = 0.15,
        nx: int = 24,
        ny: int = 24,
        **kwargs,
    ) -> "GridModel":
        """Build a grid whose resistance is scaled so the vectorless
        Case-2 (half-cycle) analysis hits *target_worst_drop_v* on VDD.

        This keeps IR-drop fractions paper-realistic regardless of the
        generated design's scale (see module docstring).
        """
        from .statistical_ir import statistical_ir_analysis

        if not 0 < target_worst_drop_v < math.inf:
            raise PowerGridError(
                f"calibration target must be positive and finite, got "
                f"{target_worst_drop_v!r} V"
            )
        model = cls.build(design, nx=nx, ny=ny, **kwargs)
        rows = statistical_ir_analysis(model, window_fraction=0.5)
        worst = max(r.worst_drop_vdd_v for r in rows)
        if worst <= 0:
            raise PowerGridError("calibration saw zero drop; empty design?")
        scale = target_worst_drop_v / worst
        return cls.build(
            design,
            nx=nx,
            ny=ny,
            seg_res_ohm=model.vdd_grid.seg_res_ohm * scale,
            pad_res_ohm=model.vdd_grid.pad_res_ohm * scale,
            **{k: v for k, v in kwargs.items()
               if k not in ("seg_res_ohm", "pad_res_ohm")},
        )

    # ------------------------------------------------------------------
    def injection_from_node_power(
        self, node_power_mw: np.ndarray, vdd: float = VDD_NOMINAL
    ) -> np.ndarray:
        """Convert per-node average power (mW) to rail current (A)."""
        return node_power_mw * 1e-3 / vdd

    def solve_both(
        self, injection_a: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(VDD drop, VSS bounce) per node for one current pattern."""
        return (
            self.vdd_grid.drop_v(injection_a),
            self.vss_grid.drop_v(injection_a),
        )

    def worst_in_block(self, drop: np.ndarray, block: str) -> float:
        """Worst (max) average drop among a block's grid nodes."""
        nodes = self.block_nodes.get(block)
        if nodes is None or len(nodes) == 0:
            return 0.0
        return float(drop[nodes].max())
