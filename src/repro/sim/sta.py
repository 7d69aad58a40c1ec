"""Static timing analysis with optional IR-drop derating.

The paper contrasts its per-pattern dynamic analysis with the signoff
practice of "simulating patterns at the best and worst-case corners",
which is "either over optimistic or pessimistic" because one corner is
applied to the whole die.  This module provides that corner-style STA —
levelised arrival/required/slack over the launch-to-capture cycle —
plus *per-instance* derating from a dynamic IR-drop result, so the
corner analysis and the paper's spatially-aware scaling can be compared
head to head.

Arrival times start at each launching flop's clock arrival plus
clock-to-Q; an endpoint's required time is the capture edge at its own
clock arrival minus setup.  Negative slack means the path misses the
cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import ElectricalEnv
from ..errors import SimulationError
from ..netlist.levelize import LevelPlan
from ..netlist.netlist import Netlist
from ..soc.clocks import ClockBuffer, ClockTree
from .delays import DelayModel

#: Setup time assumed for every flop (ns) — a single number suffices for
#: the synthetic library.
SETUP_NS = 0.12


@dataclass(frozen=True)
class TimingPathPoint:
    """One hop of a reported timing path."""

    net: int
    net_name: str
    arrival_ns: float
    through: str  # instance name of the driver


@dataclass
class EndpointTiming:
    """Arrival / required / slack at one capture flop."""

    flop: int
    flop_name: str
    arrival_ns: float
    required_ns: float

    @property
    def slack_ns(self) -> float:
        return self.required_ns - self.arrival_ns


@dataclass
class StaReport:
    """Full-design STA result for one clock domain."""

    domain: str
    period_ns: float
    endpoints: List[EndpointTiming]

    @property
    def worst_slack_ns(self) -> float:
        if not self.endpoints:
            return float("inf")
        return min(e.slack_ns for e in self.endpoints)

    def worst_endpoints(self, k: int = 5) -> List[EndpointTiming]:
        return sorted(self.endpoints, key=lambda e: e.slack_ns)[:k]

    def failing_endpoints(self) -> List[EndpointTiming]:
        return [e for e in self.endpoints if e.slack_ns < 0]


class StaticTimingAnalyzer:
    """Levelised worst-case arrival analysis for one clock domain."""

    def __init__(
        self,
        netlist: Netlist,
        delays: DelayModel,
        tree: ClockTree,
        period_ns: float,
        domain: str,
        setup_ns: float = SETUP_NS,
    ):
        if period_ns <= 0:
            raise SimulationError("period must be positive")
        self.netlist = netlist
        self.delays = delays
        self.tree = tree
        self.period_ns = period_ns
        self.domain = domain
        self.setup_ns = setup_ns
        netlist.freeze()
        self._plan = LevelPlan(netlist)
        self._order = self._plan.order
        self._launch_flops = list(netlist.pulsed_flops(domain))
        if not self._launch_flops:
            raise SimulationError(f"no flops in domain {domain!r}")
        self._column = {fi: k for k, fi in enumerate(self._launch_flops)}
        self._q = np.array(
            [netlist.flops[fi].q for fi in self._launch_flops], dtype=np.intp
        )
        self._d = np.array(
            [netlist.flops[fi].d for fi in self._launch_flops], dtype=np.intp
        )
        #: Nominal clock arrival per launch flop (``launch_flops`` order).
        self.insertion_ns = self._insertion()
        self._arrival: Optional[np.ndarray] = None

    @property
    def launch_flops(self) -> Tuple[int, ...]:
        """Launch-capable flops of the domain: the columns of a lane."""
        return tuple(self._launch_flops)

    def _insertion(
        self,
        clock_delay_scale: Optional[
            Callable[[ClockBuffer, float], float]
        ] = None,
    ) -> np.ndarray:
        return np.array(
            [
                self.tree.insertion_delay_ns(fi, delay_scale=clock_delay_scale)
                for fi in self._launch_flops
            ]
        )

    # ------------------------------------------------------------------
    def analyze(
        self,
        gate_derate: Optional[np.ndarray] = None,
        flop_derate: Optional[np.ndarray] = None,
        clock_delay_scale: Optional[
            Callable[[ClockBuffer, float], float]
        ] = None,
        launch_flops: Optional[Sequence[int]] = None,
    ) -> StaReport:
        """Run STA; derates multiply the corresponding nominal delays.

        ``gate_derate[gi]`` / ``flop_derate[fi]`` default to 1.0
        everywhere; ``clock_delay_scale`` rescales clock-tree buffer
        delays (late capture clocks relax required times, late launch
        clocks push arrivals — both are modelled, as in the paper's
        Region-2 discussion).  ``launch_flops`` restricts which launch
        points seed arrivals (the per-pattern tightening of the
        noise-aware bound: only flops that actually toggle launch);
        endpoints are still every capture flop of the domain, and cones
        the seeds cannot reach simply drop out of the report.

        One call is a lane of one through :meth:`lane_arrivals`.
        """
        netlist = self.netlist
        gates, flops = self.check_derates(gate_derate, flop_derate)
        seeds = np.zeros((1, len(self._launch_flops)), dtype=bool)
        if launch_flops is None:
            seeds[:] = True
        else:
            bad = [fi for fi in launch_flops if fi not in self._column]
            if bad:
                raise SimulationError(
                    f"launch_flops {sorted(bad)} are not launch-capable "
                    f"flops of domain {self.domain!r}"
                )
            seeds[0, [self._column[fi] for fi in launch_flops]] = True
        insertion = (
            self.insertion_ns
            if clock_delay_scale is None
            else self._insertion(clock_delay_scale)
        )
        arrival = self.lane_arrivals(
            seeds, gates[np.newaxis, :], flops[np.newaxis, :], insertion
        )[:, 0]

        endpoints: List[EndpointTiming] = []
        for k, arr in enumerate(arrival[self._d].tolist()):
            if arr == float("-inf"):
                continue
            fi = self._launch_flops[k]
            required = self.period_ns + insertion[k] - self.setup_ns
            endpoints.append(
                EndpointTiming(
                    flop=fi,
                    flop_name=netlist.flops[fi].name,
                    arrival_ns=arr,
                    required_ns=float(required),
                )
            )
        self._arrival = arrival
        return StaReport(self.domain, self.period_ns, endpoints)

    def check_derates(
        self,
        gate_derate: Optional[np.ndarray],
        flop_derate: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-instance derate vectors (1.0 where not given), validated."""
        netlist = self.netlist
        gates = (
            np.ones(netlist.n_gates)
            if gate_derate is None
            else np.asarray(gate_derate, dtype=float)
        )
        flops = (
            np.ones(netlist.n_flops)
            if flop_derate is None
            else np.asarray(flop_derate, dtype=float)
        )
        if len(gates) != netlist.n_gates:
            raise SimulationError("gate_derate length mismatch")
        if len(flops) != netlist.n_flops:
            raise SimulationError("flop_derate length mismatch")
        return gates, flops

    def lane_arrivals(
        self,
        seeds: np.ndarray,
        gate_derate: np.ndarray,
        flop_derate: np.ndarray,
        insertion: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Worst arrival at every net for a lane of patterns.

        Row *p* of the ``(width, len(launch_flops))`` bool matrix
        *seeds* marks the flops that launch under pattern *p*;
        ``gate_derate`` / ``flop_derate`` are ``(width, n_gates)`` /
        ``(width, n_flops)``.  Returns ``(n_nets, width)``: column *p*
        is bit-identical to a one-pattern sweep, with ``-inf`` on nets
        no seed reaches.
        """
        if insertion is None:
            insertion = self.insertion_ns
        launch = self._launch_flops
        arrival = np.full((self.netlist.n_nets, seeds.shape[0]), -np.inf)
        launched = insertion[:, np.newaxis] + (
            self.delays.flop_ck2q_ns[launch][:, np.newaxis]
            * flop_derate[:, launch].T
        )
        arrival[self._q] = np.where(seeds.T, launched, -np.inf)
        delays = self.delays.gate_delay_ns[:, np.newaxis] * gate_derate.T
        return self._plan.max_sweep(arrival, delays)

    # ------------------------------------------------------------------
    def trace_path(self, endpoint: EndpointTiming) -> List[TimingPathPoint]:
        """Walk the worst path into an endpoint (run :meth:`analyze`
        first).  Returned root-first.

        A gate's predecessor is its first input with the latest
        arrival — the input that set the gate's arrival.
        """
        arrival = self._arrival
        if arrival is None:
            raise SimulationError("trace_path needs analyze() first")
        netlist = self.netlist
        points: List[TimingPathPoint] = []
        net = netlist.flops[endpoint.flop].d
        guard = netlist.n_nets + 1
        while guard:
            guard -= 1
            drv = netlist.driver_of(net)
            through = "<source>"
            if drv is not None and drv[0] == "gate":
                through = netlist.gates[drv[1]].name
            elif drv is not None and drv[0] == "flop":
                through = netlist.flops[drv[1]].name
            points.append(
                TimingPathPoint(
                    net=net,
                    net_name=netlist.net_names[net],
                    arrival_ns=float(arrival[net]),
                    through=through,
                )
            )
            if drv is None or drv[0] != "gate" or arrival[net] == -np.inf:
                break
            inputs = netlist.gates[drv[1]].inputs
            net = inputs[int(np.argmax(arrival[list(inputs)]))]
        points.reverse()
        return points


@dataclass
class StatisticalEndpoint:
    """SSTA-lite result at one endpoint: Gaussian arrival model."""

    flop: int
    flop_name: str
    mean_arrival_ns: float
    std_arrival_ns: float
    required_ns: float

    @property
    def mean_slack_ns(self) -> float:
        return self.required_ns - self.mean_arrival_ns

    def timing_yield(self) -> float:
        """P(arrival <= required) under the Gaussian model."""
        if self.std_arrival_ns <= 0:
            return 1.0 if self.mean_slack_ns >= 0 else 0.0
        from math import erf, sqrt

        z = self.mean_slack_ns / self.std_arrival_ns
        return 0.5 * (1.0 + erf(z / sqrt(2.0)))


@dataclass
class SstaReport:
    """Statistical STA over one domain."""

    domain: str
    period_ns: float
    sigma_fraction: float
    endpoints: List[StatisticalEndpoint]

    def worst_yield_endpoint(self) -> Optional[StatisticalEndpoint]:
        if not self.endpoints:
            return None
        return min(self.endpoints, key=lambda e: e.timing_yield())

    def chip_timing_yield(self) -> float:
        """Independent-endpoint approximation of whole-chip yield."""
        out = 1.0
        for e in self.endpoints:
            out *= e.timing_yield()
        return out


def analyze_statistical(
    sta: "StaticTimingAnalyzer",
    sigma_fraction: float = 0.05,
) -> SstaReport:
    """SSTA-lite: per-gate independent Gaussian delay variation.

    Every gate delay is ``N(d, (sigma_fraction * d)^2)``; along each
    endpoint's *worst* structural path, means add and variances add
    (the max-of-Gaussians correction is ignored — a first-order model
    that is exact on path-dominated designs and mildly optimistic
    elsewhere).  Clock arrivals are treated as deterministic.
    """
    if sigma_fraction < 0:
        raise SimulationError("sigma_fraction must be >= 0")
    netlist = sta.netlist
    neg_inf = float("-inf")
    mean = np.full(netlist.n_nets, neg_inf)
    var = np.zeros(netlist.n_nets)

    insertion: Dict[int, float] = {}
    for fi in sta._launch_flops:
        insertion[fi] = sta.tree.insertion_delay_ns(fi)
        q = netlist.flops[fi].q
        d = sta.delays.flop_ck2q_ns[fi]
        t = insertion[fi] + d
        if t > mean[q]:
            mean[q] = t
            var[q] = (sigma_fraction * d) ** 2

    gate_delay = sta.delays.gate_delay_ns
    for gi in sta._order:
        gate = netlist.gates[gi]
        worst_in = neg_inf
        worst_net = -1
        for p in gate.inputs:
            if mean[p] > worst_in:
                worst_in = mean[p]
                worst_net = p
        if worst_in == neg_inf:
            continue
        d = float(gate_delay[gi])
        out = gate.output
        t = worst_in + d
        if t > mean[out]:
            mean[out] = t
            var[out] = var[worst_net] + (sigma_fraction * d) ** 2

    endpoints: List[StatisticalEndpoint] = []
    for fi in sta._launch_flops:
        d_net = netlist.flops[fi].d
        if mean[d_net] == neg_inf:
            continue
        required = sta.period_ns + insertion[fi] - sta.setup_ns
        endpoints.append(
            StatisticalEndpoint(
                flop=fi,
                flop_name=netlist.flops[fi].name,
                mean_arrival_ns=float(mean[d_net]),
                std_arrival_ns=float(np.sqrt(var[d_net])),
                required_ns=float(required),
            )
        )
    return SstaReport(sta.domain, sta.period_ns, sigma_fraction,
                      endpoints)


def derates_from_ir(
    ir,
    env: Optional[ElectricalEnv] = None,
    *,
    netlist: Optional[Netlist] = None,
    only: Optional[Sequence[str]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-instance derate factors from a dynamic IR-drop result.

    ``factor = 1 + k_volt * droop`` — the paper's formula expressed as a
    multiplicative derate for STA.

    ``only`` restricts derating to the named gate/flop instances
    (everything else keeps factor 1.0) — useful for what-if analysis of
    a single block's droop.  Restricting requires *netlist* for the
    name lookup; an empty or unknown selection is a caller bug and
    fails with a one-line error instead of silently derating nothing.
    """
    if env is None:
        env = ElectricalEnv()
    gate_droop = np.asarray(ir.gate_droop_v, dtype=float)
    flop_droop = np.asarray(ir.flop_droop_v, dtype=float)
    if only is not None:
        if netlist is None:
            raise SimulationError(
                "derates_from_ir: only= needs netlist= to resolve "
                "instance names"
            )
        names = list(only)
        if not names:
            raise SimulationError(
                "derates_from_ir: empty instance restriction — pass "
                "only=None to derate every instance"
            )
        if len(gate_droop) != netlist.n_gates:
            raise SimulationError(
                f"derates_from_ir: IR result has {len(gate_droop)} gate "
                f"droops but the netlist has {netlist.n_gates} gates"
            )
        gate_idx = {g.name: gi for gi, g in enumerate(netlist.gates)}
        flop_idx = {f.name: fi for fi, f in enumerate(netlist.flops)}
        gate_mask = np.zeros(netlist.n_gates, dtype=bool)
        flop_mask = np.zeros(netlist.n_flops, dtype=bool)
        unknown = []
        for name in names:
            if name in gate_idx:
                gate_mask[gate_idx[name]] = True
            elif name in flop_idx:
                flop_mask[flop_idx[name]] = True
            else:
                unknown.append(name)
        if unknown:
            raise SimulationError(
                f"derates_from_ir: unknown instance name(s) "
                f"{sorted(unknown)}"
            )
        gate_droop = np.where(gate_mask, gate_droop, 0.0)
        flop_droop = np.where(flop_mask, flop_droop, 0.0)
    gate = 1.0 + env.k_volt * np.clip(gate_droop, 0.0, None)
    flop = 1.0 + env.k_volt * np.clip(flop_droop, 0.0, None)
    return gate, flop
