"""The droop-derated static delay upper bound (the noise-aware STA).

The paper validates noise-tolerant patterns by re-simulating every
endpoint with per-instance delays scaled by ``Delay * (1 + k_volt *
dV)`` — the most expensive stage of the flow.  Most endpoints provably
cannot miss the cycle even under *worst-case* droop; this module
computes, per pattern and per endpoint, a delay upper bound that is
**sound** against the IR-drop-scaled event simulation of
:func:`repro.core.irscale.ir_scaled_endpoint_comparison`, so the
re-simulation can be skipped wherever the bound already closes timing.

Soundness chain (each link dominates the simulated quantity):

1.  **Toggles.**  :class:`~repro.power.static_bound.StaticScapBound`'s
    levelised toggle bound, seeded by the launch flops that actually
    toggle (one zero-delay logic pass — *delay-independent*, so the
    same flops launch in the nominal and the scaled simulation),
    dominates every net's toggle count in either simulation.
2.  **Currents.**  Net energy is ``toggles * C * VDD^2`` charged to the
    driver's tap, averaged over the simulation's STW.  The bound uses
    the toggle bound over the *smallest STW any of the seeds permits*
    (the earliest seed launch event), plus the identical ungated
    clock-tree baseline :func:`~repro.pgrid.dynamic_ir.
    dynamic_ir_for_pattern` injects — so every tap's bound current
    dominates its simulated current.
3.  **Droop.**  Both rails are resistive meshes with grounded pads:
    their conductance matrices are M-matrices, so the inverse is
    elementwise non-negative and the node drop is monotone in the
    injection — bound currents give bound droops, elementwise.
4.  **Derates.**  ``1 + k_volt * dV`` is monotone in ``dV``; bound
    droops give per-instance derate factors that dominate the factors
    the scaled simulation applies.
5.  **Arrival.**  A levelised static worst-arrival propagation with
    dominating per-instance delays and the same seeds dominates the
    event simulator's last data arrival at every endpoint.
6.  **Measured delay.**  The paper measures endpoint delay against the
    endpoint's *own* capture-clock arrival.  The scaled capture clock
    is never faster than nominal (derates are >= 1), so ``static
    arrival - nominal clock arrival`` dominates the measured scaled
    delay.  An endpoint misses the cycle only when its measured delay
    exceeds ``period - setup``; non-negative bound slack is therefore a
    *proof* the endpoint captures correctly under this pattern's noise.

The bound is pessimistic by design (toggle bounds grow
multiplicatively with logic depth); its per-pattern tightening and the
post-simulation derated re-analysis of
:mod:`repro.timing.prescreen` are what make it a useful pre-screen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple, Union,
)

import numpy as np

from ..config import ElectricalEnv
from ..errors import ConfigError
from ..power.energy import clock_buffer_energies_fj
from ..power.static_bound import StaticScapBound
from ..sim.delays import DelayModel
from ..sim.sta import SETUP_NS, StaticTimingAnalyzer
from ..soc.design import SocDesign

if TYPE_CHECKING:  # optional: without a grid only derated re-analysis works
    from ..pgrid.grid import GridModel

#: Endpoint classifications, ordered from cheapest proof to none.
INACTIVE = "inactive"
SAFE_STATIC = "safe_static"
SAFE_DERATED = "safe_derated"
AT_RISK = "at_risk"

CLASSIFICATIONS = (INACTIVE, SAFE_STATIC, SAFE_DERATED, AT_RISK)


@dataclass
class EndpointBound:
    """The droop-derated delay bound at one capture flop."""

    flop: int
    flop_name: str
    #: Upper bound on the measured (clock-relative) path delay, ns.
    #: 0.0 for endpoints the pattern provably cannot activate.
    measured_bound_ns: float
    #: The miss threshold: ``period - setup`` (measured-delay domain).
    limit_ns: float
    classification: str

    @property
    def bound_slack_ns(self) -> float:
        """How far the bound stays inside the cycle; >= 0 is a proof."""
        return self.limit_ns - self.measured_bound_ns

    @property
    def provably_safe(self) -> bool:
        return self.classification != AT_RISK


@dataclass
class DroopBoundReport:
    """Per-endpoint droop-derated bounds for one pattern."""

    domain: str
    period_ns: float
    pattern_index: int
    endpoints: Dict[int, EndpointBound]
    #: Worst-case total droop bound (VDD sag + VSS bounce) per block,
    #: from the static current bound; empty when no grid was supplied.
    block_droop_bound_v: Dict[str, float] = field(default_factory=dict)
    #: Launch flops the zero-delay pass found toggling.
    seeds: Set[int] = field(default_factory=set)

    def counts(self) -> Dict[str, int]:
        out = {c: 0 for c in CLASSIFICATIONS}
        for ep in self.endpoints.values():
            out[ep.classification] += 1
        return out

    def at_risk(self) -> List[int]:
        """Endpoints still needing the IR-scaled re-simulation."""
        return sorted(
            fi
            for fi, ep in self.endpoints.items()
            if ep.classification == AT_RISK
        )

    def provably_safe(self) -> List[int]:
        return sorted(
            fi
            for fi, ep in self.endpoints.items()
            if ep.classification != AT_RISK
        )

    @property
    def fully_safe(self) -> bool:
        """True when no endpoint needs re-simulation."""
        return not self.at_risk()

    def worst_bound_slack_ns(self) -> float:
        active = [
            ep.bound_slack_ns
            for ep in self.endpoints.values()
            if ep.classification != INACTIVE
        ]
        return min(active) if active else float("inf")

    def to_dict(self) -> Dict[str, object]:
        return {
            "domain": self.domain,
            "period_ns": self.period_ns,
            "pattern_index": self.pattern_index,
            "counts": self.counts(),
            "worst_bound_slack_ns": (
                None
                if self.worst_bound_slack_ns() == float("inf")
                else round(self.worst_bound_slack_ns(), 6)
            ),
            "block_droop_bound_v": {
                b: round(v, 6)
                for b, v in sorted(self.block_droop_bound_v.items())
            },
        }


_INACTIVE, _SAFE_STATIC, _SAFE_DERATED, _AT_RISK = range(len(CLASSIFICATIONS))


@dataclass
class LaneBounds:
    """Endpoint bounds for a lane of patterns, one row per pattern.

    Columns follow :attr:`DroopBoundAnalyzer.launch_flops`; ``codes``
    index :data:`CLASSIFICATIONS` and ``measured`` is the measured-delay
    bound (0.0 on inactive endpoints).  ``block_droop`` holds each
    row's worst-case per-block droop (empty unless the static droop
    bound ran for that row).
    """

    seeds: np.ndarray
    codes: np.ndarray
    measured: np.ndarray
    block_droop: List[Dict[str, float]]

    @property
    def at_risk(self) -> np.ndarray:
        """Per row: does any endpoint still need re-simulation?"""
        return np.asarray((self.codes == _AT_RISK).any(axis=1))

    def rows(self, rows: np.ndarray) -> "LaneBounds":
        return LaneBounds(
            self.seeds[rows],
            self.codes[rows],
            self.measured[rows],
            [self.block_droop[r] for r in rows],
        )

    def merged(self, derated: "LaneBounds") -> "LaneBounds":
        """Combine with a derated re-analysis of the same rows.

        Both are sound upper bounds, so the minimum is too; an endpoint
        is safe as soon as either proves it, labelled by the cheaper
        proof (the static one wins ties).
        """
        static = self.codes <= _SAFE_STATIC
        return LaneBounds(
            self.seeds,
            np.where(static, self.codes, derated.codes),
            np.where(
                static,
                self.measured,
                np.minimum(self.measured, derated.measured),
            ),
            self.block_droop,
        )


class DroopBoundAnalyzer:
    """Noise-aware static timing bounds for one design + clock domain.

    Composes :class:`~repro.power.static_bound.StaticScapBound` (toggle
    and current bounds) with a derated
    :class:`~repro.sim.sta.StaticTimingAnalyzer` sweep.  With a
    :class:`~repro.pgrid.grid.GridModel` the fully static
    :meth:`pattern_bounds` needs **zero simulation**; without one, only
    :meth:`derated_bounds` (re-analysis under a given IR field) is
    available.

    Every bound is computed for a lane of patterns at once
    (:meth:`static_lane`, :meth:`derated_lane`); the one-pattern
    methods are lanes of one.  Each pattern's arithmetic is the same
    sequence of float operations whatever the lane width, so its
    bounds are bit-identical either way.
    """

    def __init__(
        self,
        design: SocDesign,
        domain: Optional[str] = None,
        model: Optional["GridModel"] = None,
        env: Optional[ElectricalEnv] = None,
        delays: Optional[DelayModel] = None,
        setup_ns: float = SETUP_NS,
    ) -> None:
        self.design = design
        self.domain = (
            domain if domain is not None else design.dominant_domain()
        )
        if self.domain not in design.domains:
            raise ConfigError(f"unknown domain {self.domain!r}")
        self.model = model
        self.env = env if env is not None else ElectricalEnv()
        self.period_ns = design.domains[self.domain].period_ns
        self.setup_ns = setup_ns
        self.delays = (
            delays
            if delays is not None
            else DelayModel(design.netlist, design.parasitics)
        )
        self.scap = StaticScapBound(
            design, self.domain, vdd=self.env.vdd, delays=self.delays
        )
        self.sta = StaticTimingAnalyzer(
            design.netlist,
            self.delays,
            design.clock_trees[self.domain],
            self.period_ns,
            self.domain,
            setup_ns=setup_ns,
        )
        #: The miss threshold in the measured-delay domain.
        self.limit_ns = self.period_ns - setup_ns
        #: Endpoint columns of every lane (launch-capable flops).
        self.launch_flops = self.sta.launch_flops
        netlist = design.netlist
        self._flop_names = [netlist.flops[fi].name for fi in self.launch_flops]
        self._d_nets = np.array(
            [netlist.flops[fi].d for fi in self.launch_flops], dtype=np.intp
        )
        if model is not None:
            # Nets with a grid tap, and the ungated clock baseline
            # dynamic_ir_for_pattern injects (pattern-independent, so
            # equality, not just dominance), in buffer order.
            self._tapped = np.flatnonzero(model.net_node >= 0)
            self._tap_node = model.net_node[self._tapped].astype(np.intp)
            clock_window_ns = self.period_ns / 2.0
            energies = clock_buffer_energies_fj(
                design.clock_trees[self.domain], self.env.vdd, edges=1
            )
            nodes = model.clock_nodes[self.domain]
            self._clock_node = np.array(
                [nodes[bi] for bi in energies], dtype=np.intp
            )
            self._clock_mw = np.array(
                [e / clock_window_ns * 1e-3 for e in energies.values()]
            )

    # ------------------------------------------------------------------
    # static droop bound (link 2 + 3 of the soundness chain)
    # ------------------------------------------------------------------
    def droop_bounds_v(
        self, seeds: Optional[Set[int]] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Worst-case droop bound per instance from the current bound.

        Returns ``(gate_droop, flop_droop, node_total)`` in volts —
        each entry dominates what
        :func:`~repro.pgrid.dynamic_ir.dynamic_ir_for_pattern` computes
        for any pattern whose toggling launch flops are a subset of
        *seeds* (default: every launch-capable flop).
        """
        model = self._require_model()
        flop_ids = self.scap.launch_time_ns if seeds is None else seeds
        total = self._droop_lane([set(flop_ids)])[0]
        return total[model.gate_node], total[model.flop_node], total

    def _droop_lane(self, seed_sets: List[Set[int]]) -> np.ndarray:
        """Total node droop bound ``(width, n_nodes)`` per seed set."""
        model = self._require_model()
        n_nodes = model.vdd_grid.n_nodes
        # The simulated STW is the last applied-transition time and the
        # first applied transition is a seed launch event, so the
        # seeds' earliest launch time floors every STW.
        launch_ns = self.scap.launch_time_ns
        floor_ns = np.array(
            [min((launch_ns[fi] for fi in s), default=np.inf)
             for s in seed_sets]
        )
        # Per tapped net: toggles * C * VDD^2 / floor, in mW.
        net_mw = self.scap.toggle_bounds_many(seed_sets)[:, self._tapped]
        net_mw *= self.scap.energy_of_net_fj[self._tapped]
        net_mw /= floor_ns[:, np.newaxis]
        net_mw *= 1e-3
        total = np.empty((len(seed_sets), n_nodes))
        for p, row in enumerate(net_mw):
            # Net order within every node, as a per-net loop would add
            # them; then the clock terms in buffer order.
            node_power_mw = np.bincount(
                self._tap_node, weights=row, minlength=n_nodes
            )
            np.add.at(node_power_mw, self._clock_node, self._clock_mw)
            drop_vdd, drop_vss = model.solve_both(
                model.injection_from_node_power(node_power_mw, self.env.vdd)
            )
            total[p] = drop_vdd + drop_vss
        return total

    def block_droop_bounds_v(
        self, seeds: Optional[Set[int]] = None
    ) -> Dict[str, float]:
        """Worst-case per-block total droop bound (volts)."""
        model = self._require_model()
        _, _, total = self.droop_bounds_v(seeds)
        return {
            block: model.worst_in_block(total, block)
            for block in self.design.blocks()
        }

    # ------------------------------------------------------------------
    # per-pattern bounds (the tentpole analysis)
    # ------------------------------------------------------------------
    def pattern_bounds(
        self,
        v1: Dict[int, int],
        index: int = 0,
        endpoints: Optional[Iterable[Union[int, str]]] = None,
    ) -> DroopBoundReport:
        """Fully static droop-derated bound for one pattern.

        One zero-delay logic pass identifies the toggling launch flops;
        the droop bound, derates and arrival bound are all seeded by
        exactly that set.  Endpoints the seeds cannot reach are
        *inactive* (their measured delay is 0 in both simulations);
        endpoints whose bound slack stays non-negative are
        *safe_static*; the rest are *at_risk* pending the derated
        re-analysis or the full re-simulation.
        """
        wanted = self._resolve_endpoints(endpoints)
        seeds = self._seed_mask(self.scap.toggling_launch_flops(v1))
        return self.report(self.static_lane(seeds), 0, index, wanted)

    def derated_bounds(
        self,
        seeds: Set[int],
        gate_derate: np.ndarray,
        flop_derate: np.ndarray,
        index: int = 0,
        endpoints: Optional[Iterable[Union[int, str]]] = None,
    ) -> DroopBoundReport:
        """Bound under explicit per-instance derates (e.g. from the
        pattern's own simulated IR field via
        :func:`~repro.sim.sta.derates_from_ir`).

        Sound against the scaled re-simulation of the *same* IR field:
        the zero-delay launch set is delay-independent, so the scaled
        simulation launches exactly *seeds*, and a static worst-arrival
        sweep with the identical derated delays dominates it.
        """
        wanted = self._resolve_endpoints(endpoints)
        seed_set = set(seeds)
        unknown = seed_set - set(self.launch_flops)
        if unknown:
            raise ConfigError(
                f"seed flops {sorted(unknown)} are not launch-capable "
                f"in domain {self.domain!r}"
            )
        mask = self._seed_mask(seed_set)
        if not seed_set:
            lane = self._inactive(mask)
        else:
            gates, flops = self.sta.check_derates(gate_derate, flop_derate)
            lane = self.derated_lane(
                mask, gates[np.newaxis, :], flops[np.newaxis, :]
            )
        return self.report(lane, 0, index, wanted)

    # ------------------------------------------------------------------
    # lanes
    # ------------------------------------------------------------------
    def static_lane(self, seeds: np.ndarray) -> LaneBounds:
        """Tier A for a lane: the zero-simulation worst-case droop bound.

        *seeds* is ``(width, len(launch_flops))``: row *p* marks the
        launch flops toggling under pattern *p*.  Rows without a seed
        are wholly inactive and need no grid.
        """
        lane = self._inactive(seeds)
        live = np.flatnonzero(seeds.any(axis=1))
        if live.size == 0:
            return lane
        model = self._require_model()
        total = self._droop_lane([self._seed_set(seeds[p]) for p in live])
        blocks = self.design.blocks()
        for row, p in enumerate(live):
            lane.block_droop[p] = {
                block: model.worst_in_block(total[row], block)
                for block in blocks
            }
        lane.codes[live], lane.measured[live] = self._classify(
            seeds[live],
            self._derate(total[:, model.gate_node]),
            self._derate(total[:, model.flop_node]),
            _SAFE_STATIC,
        )
        return lane

    def derated_lane(
        self,
        seeds: np.ndarray,
        gate_derate: np.ndarray,
        flop_derate: np.ndarray,
    ) -> LaneBounds:
        """Tier B for a lane: re-analysis under explicit derates.

        ``gate_derate`` / ``flop_derate`` are ``(width, n_gates)`` /
        ``(width, n_flops)``, one row per pattern's own IR field.
        """
        codes, measured = self._classify(
            seeds, gate_derate, flop_derate, _SAFE_DERATED
        )
        return LaneBounds(
            seeds, codes, measured, [{} for _ in range(seeds.shape[0])]
        )

    def report(
        self,
        lane: LaneBounds,
        row: int,
        index: int,
        wanted: Optional[Set[int]] = None,
    ) -> DroopBoundReport:
        """One pattern's :class:`DroopBoundReport` from a lane row."""
        endpoints: Dict[int, EndpointBound] = {}
        for fi, name, code, bound in zip(
            self.launch_flops,
            self._flop_names,
            lane.codes[row].tolist(),
            lane.measured[row].tolist(),
        ):
            if wanted is not None and fi not in wanted:
                continue
            endpoints[fi] = EndpointBound(
                flop=fi,
                flop_name=name,
                measured_bound_ns=bound,
                limit_ns=self.limit_ns,
                classification=CLASSIFICATIONS[code],
            )
        return DroopBoundReport(
            domain=self.domain,
            period_ns=self.period_ns,
            pattern_index=index,
            endpoints=endpoints,
            block_droop_bound_v=dict(lane.block_droop[row]),
            seeds=self._seed_set(lane.seeds[row]),
        )

    # ------------------------------------------------------------------
    def _classify(
        self,
        seeds: np.ndarray,
        gate_derate: np.ndarray,
        flop_derate: np.ndarray,
        safe_code: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        arrival = self.sta.lane_arrivals(seeds, gate_derate, flop_derate)
        at_d = arrival[self._d_nets].T
        # No structural path from any seed: the event simulator
        # (nominal or scaled) can never apply a transition at this D
        # pin, so its measured delay is exactly 0.
        reached = at_d != -np.inf
        measured = np.where(reached, at_d - self.sta.insertion_ns, 0.0)
        codes = np.where(
            reached,
            np.where(measured <= self.limit_ns, safe_code, _AT_RISK),
            _INACTIVE,
        )
        return codes, measured

    def _derate(self, droop: np.ndarray) -> np.ndarray:
        """``1 + k_volt * max(droop, 0)``, computed in place."""
        np.clip(droop, 0.0, None, out=droop)
        droop *= self.env.k_volt
        droop += 1.0
        return droop

    def _inactive(self, seeds: np.ndarray) -> LaneBounds:
        return LaneBounds(
            seeds,
            np.full(seeds.shape, _INACTIVE, dtype=np.int8),
            np.zeros(seeds.shape),
            [{} for _ in range(seeds.shape[0])],
        )

    def _seed_mask(self, seeds: Set[int]) -> np.ndarray:
        return np.array([[fi in seeds for fi in self.launch_flops]])

    def _seed_set(self, row: np.ndarray) -> Set[int]:
        return {self.launch_flops[k] for k in np.flatnonzero(row)}

    # ------------------------------------------------------------------
    def _resolve_endpoints(
        self, endpoints: Optional[Iterable[Union[int, str]]]
    ) -> Optional[Set[int]]:
        """Validate an explicit endpoint selection (ids or flop names).

        ``None`` means every launch-capable endpoint; an empty or
        unknown selection is a caller bug and fails with a one-line
        error instead of silently bounding nothing.
        """
        if endpoints is None:
            return None
        requested = list(endpoints)
        if not requested:
            raise ConfigError(
                "empty endpoint selection — pass None to bound every "
                "endpoint of the domain"
            )
        netlist = self.design.netlist
        by_name = {f.name: fi for fi, f in enumerate(netlist.flops)}
        resolved: Set[int] = set()
        unknown: List[str] = []
        for item in requested:
            fi = by_name.get(item) if isinstance(item, str) else item
            if fi is None or not isinstance(fi, int):
                unknown.append(repr(item))
            elif fi not in self.scap.launch_time_ns:
                unknown.append(
                    f"{item!r} (not a launch-capable endpoint of "
                    f"domain {self.domain!r})"
                )
            else:
                resolved.add(fi)
        if unknown:
            raise ConfigError(
                f"unknown endpoint(s): {', '.join(sorted(unknown))}"
            )
        return resolved

    def _require_model(self) -> "GridModel":
        if self.model is None:
            raise ConfigError(
                "the static droop bound needs a power-grid model — "
                "construct DroopBoundAnalyzer(model=GridModel...) or "
                "use derated_bounds() with an explicit IR field"
            )
        return self.model
