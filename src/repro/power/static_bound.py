"""Static (zero-simulation) SCAP upper bounds for the DRC pre-screen.

The paper's flow pays for a timing simulation per pattern to measure
SCAP.  Before spending that, a *sound upper bound* computed purely from
netlist structure and extracted parasitics can already classify blocks:

* bound <= threshold  — the block can **never** violate its SCAP limit,
  no pattern needs power simulation for it;
* bound > threshold   — the block *may* violate and needs the full
  noise-aware treatment.

Soundness argument (matches :class:`~repro.sim.event.EventTimingSim`
semantics exactly):

1.  **Toggle counts.**  The event simulator seeds one launch event per
    launch-capable flop whose Q changes, and every applied transition
    on a net schedules exactly one candidate event per fanout gate.
    Value filtering at fire time only ever *drops* events.  Hence the
    applied-transition count of a gate output is at most the sum of its
    inputs' counts, and a launch flop Q toggles at most once.  The
    propagated bound ``N(q of launch flop) = 1``, ``N(PI) = N(other
    flop Q) = 0``, ``N(gate output) = sum N(inputs)`` (in levelised
    order) therefore dominates every net's simulated toggle count.

2.  **Energy.**  Each applied transition of net *i* dissipates
    ``C_i * VDD^2`` attributed to the driver's block, so block energy
    is at most ``sum_i N_i * C_i * VDD^2`` over nets driven in the
    block.

3.  **Window.**  The simulator's STW is the time of the *last* applied
    transition, and the first applied transition is a launch event at
    ``insertion_delay + clock-to-Q`` of its flop.  STW is therefore at
    least the minimum launch-event time over the flops that toggle —
    and a minimum over a subset can only be larger than the minimum
    over all launch-capable flops.

SCAP = energy / STW, so ``bound_energy / stw_floor`` upper-bounds the
simulated SCAP of every pattern.  :meth:`pattern_upper_bounds_mw`
tightens both sides per pattern using one zero-delay logic pass (a
*logic* simulation — the pre-screen promise is "before any *timing*
simulation").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..atpg.patterns import pattern_rows
from ..config import VDD_NOMINAL, joules_to_milliwatts
from ..errors import ConfigError
from ..netlist.levelize import LevelPlan
from ..sim.delays import DelayModel
from ..sim.logic import LaneFrames, LogicSim
from ..soc.design import SocDesign


class StaticScapBound:
    """Per-block SCAP upper bounds for one design + clock domain."""

    def __init__(
        self,
        design: SocDesign,
        domain: Optional[str] = None,
        vdd: float = VDD_NOMINAL,
        delays: Optional[DelayModel] = None,
    ):
        self.design = design
        self.domain = (
            domain if domain is not None else design.dominant_domain()
        )
        if self.domain not in design.domains:
            raise ConfigError(f"unknown domain {self.domain!r}")
        self.vdd = vdd
        netlist = design.netlist
        self.delays = (
            delays
            if delays is not None
            else DelayModel(netlist, design.parasitics)
        )

        # Launch-capable flops and their launch-event times, mirroring
        # ScapCalculator.
        tree = design.clock_trees[self.domain]
        self.launch_time_ns: Dict[int, float] = {
            fi: tree.insertion_delay_ns(fi)
            + float(self.delays.flop_ck2q_ns[fi])
            for fi in netlist.pulsed_flops(self.domain)
        }

        # Block attribution of a net = its driver's block (the event
        # simulator uses the identical mapping).
        self._block_of_net: List[Optional[str]] = [None] * netlist.n_nets
        for g in netlist.gates:
            self._block_of_net[g.output] = g.block
        for f in netlist.flops:
            self._block_of_net[f.q] = f.block
        self._energy_of_net = design.parasitics.net_cap_ff * vdd * vdd

        self._plan = LevelPlan(netlist)
        self._logic: Optional[LogicSim] = None

    # ------------------------------------------------------------------
    @property
    def energy_of_net_fj(self) -> np.ndarray:
        """Per-net switching energy of one transition (``C * VDD^2``)."""
        return self._energy_of_net

    @property
    def stw_floor_ns(self) -> float:
        """Earliest possible launch event — the smallest STW any
        pattern that switches anything can exhibit."""
        if not self.launch_time_ns:
            return 0.0
        return min(self.launch_time_ns.values())

    def toggle_bounds(self, seeds: Optional[Set[int]] = None) -> np.ndarray:
        """Per-net upper bound on applied transition counts.

        ``seeds`` restricts the launch flops assumed to toggle; the
        default assumes every launch-capable flop toggles (the
        block-level worst case).  Floats, because the bound grows
        multiplicatively with logic depth.
        """
        flop_ids = self.launch_time_ns if seeds is None else seeds
        return self.toggle_bounds_many([set(flop_ids)])[0]

    def block_energy_bounds_fj(
        self, seeds: Optional[Set[int]] = None
    ) -> Dict[str, float]:
        """Upper bound on switched energy per block (fJ)."""
        bound = self.toggle_bounds(seeds)
        energy: Dict[str, float] = {}
        for net in np.nonzero(bound)[0]:
            block = self._block_of_net[net]
            if block is None:
                continue
            energy[block] = energy.get(block, 0.0) + float(
                bound[net] * self._energy_of_net[net]
            )
        return energy

    def block_upper_bounds_mw(self) -> Dict[str, float]:
        """Worst-case SCAP per block over *all* possible patterns (mW).

        Every block of the design appears, including provably quiet
        ones (bound 0.0).
        """
        energy = self.block_energy_bounds_fj()
        for block in self.design.blocks():
            energy.setdefault(block, 0.0)
        return self._to_mw(energy, self.stw_floor_ns)

    # ------------------------------------------------------------------
    # vectorised many-seed-set API (SOC test scheduling's cost model)
    # ------------------------------------------------------------------
    def toggle_bounds_many(
        self, seed_sets: Sequence[Set[int]]
    ) -> np.ndarray:
        """Per-net toggle bounds for many seed sets in one pass.

        Row *j* is the bound seeded by ``seed_sets[j]``: one levelised
        sweep with the seed axis vectorised, each gate summing its
        inputs left to right — scheduling thousands of blocks pays one
        gate sweep, not one per block.
        """
        netlist = self.design.netlist
        bound = np.zeros((netlist.n_nets, len(seed_sets)), dtype=float)
        for j, seeds in enumerate(seed_sets):
            for fi in seeds:
                bound[netlist.flops[fi].q, j] = 1.0
        return np.ascontiguousarray(self._plan.sum_sweep(bound).T)

    def launch_flops_by_block(self) -> Dict[str, Set[int]]:
        """Launch-capable flops of this domain, grouped by block."""
        netlist = self.design.netlist
        by_block: Dict[str, Set[int]] = {
            b: set() for b in self.design.blocks()
        }
        for fi in self.launch_time_ns:
            block = netlist.flops[fi].block
            if block in by_block:
                by_block[block].add(fi)
        return by_block

    def test_power_bounds_mw(self) -> Dict[str, float]:
        """Chip-wide SCAP upper bound while testing each block (mW).

        The scheduler's per-session cost model: when only block *b*'s
        scan cells launch transitions (every other block held quiet by
        fill-0), the chip-wide switched energy is bounded by the toggle
        bound seeded from *b*'s launch flops — summed over *all* nets,
        because *b*'s activity propagates into its neighbours.  The
        window floor is the earliest launch event among *b*'s flops.
        Blocks with no launch-capable flop in the domain bound to 0.0.

        Computed for every block in one vectorised gate sweep, so
        scheduling needs no simulation regardless of block count.
        """
        blocks = self.design.blocks()
        by_block = self.launch_flops_by_block()
        seed_sets = [by_block[b] for b in blocks]
        bound = self.toggle_bounds_many(seed_sets)
        energy_fj = bound @ self._energy_of_net
        out: Dict[str, float] = {}
        for j, block in enumerate(blocks):
            seeds = seed_sets[j]
            if not seeds:
                out[block] = 0.0
                continue
            floor = min(self.launch_time_ns[fi] for fi in seeds)
            out.update(
                self._to_mw({block: float(energy_fj[j])}, floor)
            )
        return out

    def block_bound_matrix(
        self,
    ) -> Tuple[List[str], np.ndarray]:
        """Energy-attribution matrix for per-block test sessions (fJ).

        Entry ``[i, j]`` bounds the switched energy *attributed to*
        block ``blocks[j]`` while *testing* block ``blocks[i]`` — the
        row sums are :meth:`test_power_bounds_mw`'s energies, the
        off-diagonal mass is the collateral switching a session induces
        in its neighbours.  One vectorised sweep for all blocks.
        """
        blocks = self.design.blocks()
        by_block = self.launch_flops_by_block()
        bound = self.toggle_bounds_many([by_block[b] for b in blocks])
        col_of: Dict[str, int] = {b: j for j, b in enumerate(blocks)}
        attribution = np.zeros(
            (len(blocks), len(blocks)), dtype=float
        )
        weighted = bound * self._energy_of_net[np.newaxis, :]
        owner_idx = np.array(
            [
                col_of.get(owner, -1) if owner is not None else -1
                for owner in self._block_of_net
            ],
            dtype=int,
        )
        for j in range(len(blocks)):
            attribution[:, j] = weighted[:, owner_idx == j].sum(axis=1)
        return blocks, attribution

    # ------------------------------------------------------------------
    def pattern_upper_bounds_mw(self, v1: Dict[int, int]) -> Dict[str, float]:
        """Per-block SCAP upper bound for one pattern (mW).

        Runs a single zero-delay launch-to-capture *logic* pass to find
        which launch flops actually toggle, then seeds the bound with
        only those — tighter than the block-level bound, still sound,
        still with no timing simulation.
        """
        seeds = self.toggling_launch_flops(v1)
        if not seeds:
            return {b: 0.0 for b in self.design.blocks()}
        floor = min(self.launch_time_ns[fi] for fi in seeds)
        energy = self.block_energy_bounds_fj(seeds)
        for block in self.design.blocks():
            energy.setdefault(block, 0.0)
        return self._to_mw(energy, floor)

    def toggling_launch_flops(self, v1: Dict[int, int]) -> Set[int]:
        """Launch-capable flops whose Q changes at the launch edge."""
        netlist = self.design.netlist
        if self._logic is None:
            self._logic = LogicSim(netlist)
        row = pattern_rows([v1], netlist.n_flops)[1]
        return LaneFrames(self._logic, row, self.domain).seeds_of(0)

    # ------------------------------------------------------------------
    def screen_blocks(
        self, thresholds_mw: Dict[str, float]
    ) -> Dict[str, Dict[str, float]]:
        """Compare the static bound against per-block SCAP thresholds.

        Returns per block: ``bound_mw``, ``threshold_mw`` and
        ``provably_safe`` (1.0/0.0 — the bound cannot be exceeded by
        any pattern when safe).  Blocks without a threshold are
        omitted.
        """
        bounds = self.block_upper_bounds_mw()
        screen: Dict[str, Dict[str, float]] = {}
        for block, limit in thresholds_mw.items():
            bound = bounds.get(block, 0.0)
            screen[block] = {
                "bound_mw": bound,
                "threshold_mw": limit,
                "provably_safe": 1.0 if bound <= limit else 0.0,
            }
        return screen

    # ------------------------------------------------------------------
    @staticmethod
    def _to_mw(
        energy_fj: Dict[str, float], window_ns: float
    ) -> Dict[str, float]:
        if window_ns <= 0.0:
            return {b: 0.0 for b in energy_fj}
        return {
            b: joules_to_milliwatts(e, window_ns)
            for b, e in energy_fj.items()
        }
