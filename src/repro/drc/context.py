"""The shared state a DRC run hands to every rule.

:class:`DrcContext` wraps the design under check plus lazily computed,
cached structural analyses (driver census, topological order, per-net
clock-domain sources) so that a dozen rules can share one traversal
each.  Everything here is simulation-free: the context only walks
netlist/scan/floorplan metadata.

The context degrades gracefully on broken designs: it never calls
:meth:`Netlist.freeze` (which raises on contention), building its own
driver/fanout maps from the raw instance lists instead, so loop and
clock-domain analyses keep working on netlists that are themselves
under indictment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

from ..dft.scan import ScanConfig, scan_config_from_flops
from ..netlist.netlist import Netlist
from ..soc.design import SocDesign

if TYPE_CHECKING:  # heavy imports stay lazy for bare-netlist checks
    from ..pgrid.grid import GridModel
    from ..sim.sta import StaReport

#: One driver of a net: a human-readable descriptor such as
#: ``"gate 'u3'"``, ``"flop 'f0'"`` or ``"primary input 2"``.
DriverDesc = str


@dataclass
class DrcContext:
    """Everything the rules may look at, with memoised traversals.

    ``netlist`` is mandatory; ``design``/``scan``/``thresholds_mw`` are
    optional — rules that need them are skipped (and recorded as
    skipped) when absent.  ``domain`` is the launch/capture clock domain
    the power rules reason about; it defaults to the design's dominant
    domain.
    """

    netlist: Netlist
    design: Optional[SocDesign] = None
    scan: Optional[ScanConfig] = None
    thresholds_mw: Optional[Dict[str, float]] = None
    domain: Optional[str] = None
    #: Power-grid model for the droop-bound rule (TIM-DROOP); optional —
    #: rules requiring it are skipped with "no power-grid model".
    grid: Optional["GridModel"] = None
    #: Slack below which TIM-MARGIN flags an endpoint; None = default.
    timing_guard_band_ns: Optional[float] = None

    _driver_census: Optional[Dict[int, List[DriverDesc]]] = field(
        default=None, repr=False
    )
    _driven: Optional[Set[int]] = field(default=None, repr=False)
    _loaded: Optional[Set[int]] = field(default=None, repr=False)
    _gate_driver: Optional[Dict[int, int]] = field(default=None, repr=False)
    _topo: Optional[Tuple[List[int], List[int]]] = field(
        default=None, repr=False
    )
    _partial_order: Optional[List[int]] = field(default=None, repr=False)
    _topo_tried: bool = field(default=False, repr=False)
    _stuck_gates: Optional[List[int]] = field(default=None, repr=False)
    _domain_sources: Optional[List[FrozenSet[str]]] = field(
        default=None, repr=False
    )
    _sta_reports: Optional[Dict[str, "StaReport"]] = field(
        default=None, repr=False
    )

    def __post_init__(self) -> None:
        if self.design is not None:
            if self.scan is None:
                self.scan = self.design.scan
            if self.domain is None:
                self.domain = self.design.dominant_domain()
        if self.scan is None:
            self.scan = scan_config_from_flops(self.netlist)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def for_netlist(cls, netlist: Netlist) -> "DrcContext":
        """Context for a bare netlist (structural + metadata rules)."""
        return cls(netlist=netlist)

    @classmethod
    def for_design(
        cls,
        design: SocDesign,
        thresholds_mw: Optional[Dict[str, float]] = None,
        domain: Optional[str] = None,
        grid: Optional["GridModel"] = None,
        timing_guard_band_ns: Optional[float] = None,
    ) -> "DrcContext":
        """Context for a full SOC design (all rule families)."""
        return cls(
            netlist=design.netlist,
            design=design,
            thresholds_mw=thresholds_mw,
            domain=domain,
            grid=grid,
            timing_guard_band_ns=timing_guard_band_ns,
        )

    # ------------------------------------------------------------------
    # raw-list analyses (never require a consistent netlist)
    # ------------------------------------------------------------------
    def driver_census(self) -> Dict[int, List[DriverDesc]]:
        """Every net's drivers, recomputed from the raw instance lists.

        Unlike :meth:`Netlist.freeze` this never raises on contention —
        multi-driven nets simply list several drivers.
        """
        if self._driver_census is None:
            census: Dict[int, List[DriverDesc]] = {}
            nl = self.netlist
            for pos, net in enumerate(nl.primary_inputs):
                census.setdefault(net, []).append(f"primary input {pos}")
            for g in nl.gates:
                census.setdefault(g.output, []).append(f"gate {g.name!r}")
            for f in nl.flops:
                census.setdefault(f.q, []).append(f"flop {f.name!r}")
            self._driver_census = census
        return self._driver_census

    def driven_nets(self) -> Set[int]:
        """Net ids with at least one driver."""
        if self._driven is None:
            self._driven = set(self.driver_census())
        return self._driven

    def loaded_nets(self) -> Set[int]:
        """Net ids with at least one reader (gate pin, flop D or PO)."""
        if self._loaded is None:
            nl = self.netlist
            loads: Set[int] = set(nl.primary_outputs)
            for g in nl.gates:
                loads.update(g.inputs)
            loads.update(f.d for f in nl.flops)
            self._loaded = loads
        return self._loaded

    def gate_driver_map(self) -> Dict[int, int]:
        """net -> index of its first gate driver (for graph traversal).

        On a multi-driven net the first gate wins; STR-DRIVE reports
        the contention itself, this map only keeps traversals sane.
        """
        if self._gate_driver is None:
            gate_driver: Dict[int, int] = {}
            for gi, g in enumerate(self.netlist.gates):
                gate_driver.setdefault(g.output, gi)
            self._gate_driver = gate_driver
        return self._gate_driver

    # ------------------------------------------------------------------
    # combinational graph analyses (freeze-free)
    # ------------------------------------------------------------------
    def topo(self) -> Optional[Tuple[List[int], List[int]]]:
        """``(order, level)`` of the combinational gates, or None when
        the netlist has a combinational loop (reported by STR-LOOP)."""
        if not self._topo_tried:
            self._topo_tried = True
            order, level, stuck = self._kahn()
            self._stuck_gates = stuck
            self._partial_order = order
            if not stuck:
                self._topo = (order, level)
        return self._topo

    def stuck_gates(self) -> List[int]:
        """Gate indexes on (or fed by) a combinational cycle."""
        self.topo()
        return list(self._stuck_gates or [])

    def _kahn(self) -> Tuple[List[int], List[int], List[int]]:
        """Loop-tolerant levelisation over the raw gate lists.

        Edges follow :meth:`gate_driver_map` (one driver per net), so
        the sweep works even on netlists :meth:`Netlist.freeze` rejects.
        Returns ``(order, level, stuck)``; *stuck* gates sit on or
        behind a combinational cycle.
        """
        nl = self.netlist
        n_gates = nl.n_gates
        gate_driver = self.gate_driver_map()
        pending = [0] * n_gates
        level = [0] * n_gates
        consumers: Dict[int, List[int]] = {}
        for gi, gate in enumerate(nl.gates):
            for net in gate.inputs:
                if net in gate_driver:
                    pending[gi] += 1
                    consumers.setdefault(net, []).append(gi)
        ready = [gi for gi in range(n_gates) if pending[gi] == 0]
        order: List[int] = []
        head = 0
        while head < len(ready):
            gi = ready[head]
            head += 1
            order.append(gi)
            out = nl.gates[gi].output
            if gate_driver.get(out) != gi:
                continue  # secondary driver of a contended net
            for lgi in consumers.get(out, ()):
                pending[lgi] -= 1
                if level[gi] + 1 > level[lgi]:
                    level[lgi] = level[gi] + 1
                if pending[lgi] == 0:
                    ready.append(lgi)
        stuck = [gi for gi in range(n_gates) if pending[gi] > 0]
        return order, level, stuck

    def combinational_cycle(self) -> Optional[List[str]]:
        """Gate names along one combinational cycle, or None.

        Walks the stuck-gate subgraph until a gate repeats, then
        returns the closed walk — a concrete cycle to show the user,
        not just "a loop exists".
        """
        stuck = set(self.stuck_gates())
        if not stuck:
            return None
        nl = self.netlist
        gate_driver = self.gate_driver_map()
        path: List[int] = []
        seen_at: Dict[int, int] = {}
        gi = min(stuck)
        while gi not in seen_at:
            seen_at[gi] = len(path)
            path.append(gi)
            pred = None
            for net in nl.gates[gi].inputs:
                cand = gate_driver.get(net)
                if cand is not None and cand in stuck:
                    pred = cand
                    break
            if pred is None:  # no stuck predecessor: dead end
                return [nl.gates[g].name for g in path]
            gi = pred
        return [nl.gates[g].name for g in path[seen_at[gi]:]]

    # ------------------------------------------------------------------
    # clock-domain flow analysis
    # ------------------------------------------------------------------
    def net_domain_sources(self) -> Optional[List[FrozenSet[str]]]:
        """Per net: the clock domains whose flops can reach it
        combinationally.

        On a looping netlist the propagation runs over the acyclic part
        of the graph only (gates on or behind the cycle keep empty
        source sets), so clock-domain rules still report crossings that
        do not involve the loop instead of going silent."""
        if self._domain_sources is None:
            self.topo()
            order = self._partial_order or []
            nl = self.netlist
            sources: List[FrozenSet[str]] = [frozenset()] * nl.n_nets
            for f in nl.flops:
                sources[f.q] = frozenset((f.clock_domain,))
            for gi in order:
                gate = nl.gates[gi]
                acc: FrozenSet[str] = frozenset()
                for net in gate.inputs:
                    acc = acc | sources[net]
                sources[gate.output] = acc
            self._domain_sources = sources
        return self._domain_sources

    # ------------------------------------------------------------------
    # static timing analysis (simulation-free, like everything here)
    # ------------------------------------------------------------------
    def sta_reports(self) -> Dict[str, "StaReport"]:
        """Nominal per-domain STA of the design, memoised.

        One levelised arrival sweep per clock domain with launch-capable
        flops — static analysis, consistent with the context's
        simulation-free contract.  Requires ``design`` (the timing rules
        declare that requirement, so they are skipped on bare netlists).
        """
        if self._sta_reports is None:
            from ..sim.delays import DelayModel
            from ..sim.sta import StaticTimingAnalyzer

            assert self.design is not None
            design = self.design
            delays = DelayModel(design.netlist, design.parasitics)
            reports: Dict[str, "StaReport"] = {}
            for name in sorted(design.domains):
                if not design.netlist.pulsed_flops(name):
                    continue
                sta = StaticTimingAnalyzer(
                    design.netlist,
                    delays,
                    design.clock_trees[name],
                    design.domains[name].period_ns,
                    name,
                )
                reports[name] = sta.analyze()
            self._sta_reports = reports
        return self._sta_reports

    # ------------------------------------------------------------------
    def net_name(self, net: int) -> str:
        """Safe net-name lookup (ids can be out of range on bad input)."""
        if 0 <= net < self.netlist.n_nets:
            return self.netlist.net_names[net]
        return f"<invalid net {net}>"
