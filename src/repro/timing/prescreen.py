"""The noise-aware timing pre-screen: prove endpoints safe, skip Case 2.

:func:`prescreened_endpoint_comparison` is the drop-in, bound-gated
version of :func:`~repro.core.irscale.ir_scaled_endpoint_comparison`.
Patterns are screened in lanes of up to 64: one bit-parallel launch pass
per lane gives every pattern's toggling launch flops and frames, and
each pattern then runs up to three tiers, each strictly cheaper than
the stage it can avoid:

* **Tier A (fully static, zero simulation)** — the worst-case droop
  bound of :class:`~repro.timing.bound.DroopBoundAnalyzer`, tightened
  by the lane's zero-delay logic pass and swept for the whole lane at
  once.  A pattern whose every endpoint is proven safe or inactive
  here skips *both* simulations.
* **Tier B (nominal simulation only)** — the nominal event simulation
  and its dynamic IR solve (Case 1, which the full comparison pays
  anyway), then a derated static re-analysis under the *actual* droop
  field via :func:`~repro.sim.sta.derates_from_ir`, one derated sweep
  for all of the lane's Tier B patterns.  Far tighter than Tier A;
  endpoints proven safe here skip the Case-2 scaled event
  re-simulation.
* **Tier C (the full comparison)** — only endpoints still *at_risk*
  are settled by the IR-scaled re-simulation itself.

Every skip is backed by the soundness chain documented in
:mod:`repro.timing.bound`; :func:`prescreen_pattern_set` additionally
*audits* the inequality empirically (bound >= simulated IR-scaled
delay, like the PWR-SCAP bound's tests) on a configurable sample of
patterns and reports the result for the flow's ``timing`` stage.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..atpg.patterns import pattern_rows
from ..config import ElectricalEnv
from ..core.irscale import (
    IrScaledComparison,
    nominal_ir,
    scaled_endpoint_delays,
)
from ..errors import ConfigError
from ..obs import current_telemetry
from ..pgrid.dynamic_ir import DynamicIrResult
from ..pgrid.grid import GridModel
from ..power.calculator import MAX_LANE_WIDTH, ScapCalculator
from ..sim.sta import derates_from_ir
from .bound import (
    AT_RISK,
    CLASSIFICATIONS,
    DroopBoundAnalyzer,
    DroopBoundReport,
)


@dataclass
class PrescreenedComparison:
    """Outcome of the bound-gated two-case comparison for one pattern."""

    report: DroopBoundReport
    #: Case-1 measured delays; None when Tier A proved the whole
    #: pattern safe and no simulation ran at all.
    nominal_ns: Optional[Dict[int, float]] = None
    #: Case-2 measured delays; None when the scaled re-simulation was
    #: skipped (every endpoint proven safe or inactive).
    scaled_ns: Optional[Dict[int, float]] = None
    #: The classic comparison object, populated only when Case 2 ran.
    comparison: Optional[IrScaledComparison] = None

    @property
    def skipped_all_simulation(self) -> bool:
        return self.nominal_ns is None

    @property
    def skipped_scaled_sim(self) -> bool:
        return self.scaled_ns is None

    def misses(self) -> List[int]:
        """Endpoints whose IR-scaled delay misses the cycle.

        Endpoints proven safe contribute nothing by the soundness of
        the bound; at-risk endpoints are judged by their actual scaled
        re-simulation.
        """
        out: List[int] = []
        for fi in self.report.at_risk():
            ep = self.report.endpoints[fi]
            scaled = (self.scaled_ns or {}).get(fi, 0.0)
            if scaled > ep.limit_ns:
                out.append(fi)
        return out

    def soundness_violations(self) -> List[Dict[str, Any]]:
        """Empirical check of the bound against whatever was simulated.

        For every endpoint with a simulated IR-scaled delay, the bound
        must dominate it (and the nominal delay, since derates are
        >= 1).  Returns one record per violated endpoint — always
        expected empty; asserted by the tests and the audit pass.
        """
        out: List[Dict[str, Any]] = []
        for fi, ep in self.report.endpoints.items():
            for kind, delays in (
                ("scaled", self.scaled_ns),
                ("nominal", self.nominal_ns),
            ):
                if delays is None or fi not in delays:
                    continue
                simulated = delays[fi]
                bound = ep.measured_bound_ns
                if simulated > bound + 1e-9:
                    out.append(
                        {
                            "endpoint": fi,
                            "simulated_ns": simulated,
                            "bound_ns": bound,
                            "kind": kind,
                        }
                    )
        return out


def prescreened_endpoint_comparison(
    calculator: ScapCalculator,
    model: GridModel,
    pattern: Any,
    index: Optional[int] = None,
    env: Optional[ElectricalEnv] = None,
    analyzer: Optional[DroopBoundAnalyzer] = None,
) -> PrescreenedComparison:
    """Bound-gated replacement for ``ir_scaled_endpoint_comparison``.

    Identical verdicts (which endpoints miss the cycle, and the exact
    scaled delays of every endpoint that needed re-simulation), but
    provably-safe endpoints are settled by static analysis instead of
    simulation.  Pass a shared *analyzer* when screening many patterns
    so the grid factorisation and STA structures are built once.  One
    call is a lane of one through the code :func:`prescreen_pattern_set`
    runs per lane.
    """
    indices, lane = pattern_rows([pattern], calculator.design.netlist.n_flops)
    if isinstance(pattern, dict) and index is not None:
        indices = [index]
    if env is None:
        env = ElectricalEnv()
    if analyzer is None:
        analyzer = _analyzer(calculator, model, env)
    results, _audited = _screen_lane(
        calculator, model, env, analyzer, lane, indices
    )
    return results[0]


def _analyzer(
    calculator: ScapCalculator, model: GridModel, env: ElectricalEnv
) -> DroopBoundAnalyzer:
    return DroopBoundAnalyzer(
        calculator.design,
        calculator.domain,
        model=model,
        env=env,
        delays=calculator.delays,
    )


def _screen_lane(
    calculator: ScapCalculator,
    model: GridModel,
    env: ElectricalEnv,
    analyzer: DroopBoundAnalyzer,
    lane: np.ndarray,
    indices: Sequence[int],
    audit: int = 0,
) -> Tuple[List[PrescreenedComparison], List[PrescreenedComparison]]:
    """Run the three tiers over one lane of patterns.

    One bit-parallel launch pass gives every pattern's seeds and
    frames; Tier A bounds the whole lane, Tier B simulates only the
    patterns Tier A could not clear and re-analyses them in one
    derated sweep, and Tier C re-simulates the holdouts one by one.
    Returns the comparisons in lane order plus, for the first *audit*
    patterns, copies that also carry the full IR-scaled simulation.
    """
    tel = current_telemetry()
    frames = calculator.lane_frames(lane)
    static = analyzer.static_lane(frames.toggling)
    held = np.flatnonzero(static.at_risk)
    settled: Dict[int, PrescreenedComparison] = {
        p: PrescreenedComparison(report=analyzer.report(static, p, idx))
        for p, idx in enumerate(indices)
        if not static.at_risk[p]
    }

    # Tier B: Case 1 (paid by the full comparison too) + derated STA
    # under each pattern's actual droop field.
    netlist = calculator.design.netlist
    rows = held.tolist()
    gate_derate = np.empty((len(rows), netlist.n_gates))
    flop_derate = np.empty((len(rows), netlist.n_flops))
    nominal: Dict[int, Tuple[DynamicIrResult, Dict[int, float]]] = {}
    for row, p in enumerate(rows):
        nominal[p] = nominal_ir(
            calculator, model, calculator.simulate_lane(frames, p)
        )
        gate_derate[row], flop_derate[row] = derates_from_ir(
            nominal[p][0], env
        )
    merged = static.rows(held).merged(
        analyzer.derated_lane(frames.toggling[held], gate_derate, flop_derate)
    )
    resimulated = 0
    for row, p in enumerate(rows):
        ir, nominal_ns = nominal[p]
        report = analyzer.report(merged, row, indices[p])
        if not merged.at_risk[row]:
            settled[p] = PrescreenedComparison(
                report=report, nominal_ns=nominal_ns
            )
            continue
        # Tier C: the scaled re-simulation, for the holdouts only.
        resimulated += 1
        scaled_ns = scaled_endpoint_delays(
            calculator, model, frames.frame1_of(p), frames.launch_of(p),
            ir, env,
        )
        settled[p] = PrescreenedComparison(
            report=report,
            nominal_ns=nominal_ns,
            scaled_ns=scaled_ns,
            comparison=IrScaledComparison(
                pattern_index=indices[p],
                nominal_ns=nominal_ns,
                scaled_ns=scaled_ns,
                ir=ir,
            ),
        )
    results = [settled[p] for p in range(len(indices))]
    for name, n in (
        ("timing.patterns_static_safe", len(indices) - len(rows)),
        ("timing.patterns_derated_safe", len(rows) - resimulated),
        ("timing.patterns_resimulated", resimulated),
    ):
        if n:
            tel.count(name, n)

    # Audit: simulate anyway so the bound can be checked against it.
    audited: List[PrescreenedComparison] = []
    for p, result in enumerate(results[:audit]):
        if result.scaled_ns is None:
            ir, nominal_ns = nominal.get(p) or nominal_ir(
                calculator, model, calculator.simulate_lane(frames, p)
            )
            result = PrescreenedComparison(
                report=result.report,
                nominal_ns=nominal_ns,
                scaled_ns=scaled_endpoint_delays(
                    calculator, model, frames.frame1_of(p),
                    frames.launch_of(p), ir, env,
                ),
            )
        audited.append(result)
    return results, audited


@dataclass
class TimingPrescreenSummary:
    """Aggregate pre-screen outcome over a pattern set (flow stage)."""

    domain: str
    period_ns: float
    n_patterns: int = 0
    endpoint_counts: Dict[str, int] = field(
        default_factory=lambda: {c: 0 for c in CLASSIFICATIONS}
    )
    #: Patterns settled with zero / Case-1-only / full simulation.
    patterns_static_safe: int = 0
    patterns_derated_safe: int = 0
    patterns_resimulated: int = 0
    #: (pattern, endpoint) misses found among at-risk endpoints.
    misses: List[Tuple[int, int]] = field(default_factory=list)
    #: Empirical bound-vs-simulation audit.
    soundness_checked: int = 0
    soundness_violations: int = 0
    worst_bound_slack_ns: float = float("inf")
    elapsed_s: float = 0.0

    @property
    def endpoints_total(self) -> int:
        return sum(self.endpoint_counts.values())

    @property
    def pruned_endpoint_fraction(self) -> float:
        """Fraction of endpoint measurements settled without the
        IR-scaled re-simulation."""
        total = self.endpoints_total
        if total == 0:
            return 0.0
        return 1.0 - self.endpoint_counts[AT_RISK] / total

    def add_lane(
        self,
        start: int,
        results: List[PrescreenedComparison],
        audited: List[PrescreenedComparison],
    ) -> Dict[str, int]:
        """Fold one lane (patterns *start*, *start* + 1, ...) into the
        totals; returns the lane's per-tier pattern counts."""
        tiers = {"static_safe": 0, "derated_safe": 0, "resimulated": 0}
        for pi, result in enumerate(results, start):
            self.n_patterns += 1
            for label, n in result.report.counts().items():
                self.endpoint_counts[label] += n
            if result.skipped_all_simulation:
                tiers["static_safe"] += 1
            elif result.skipped_scaled_sim:
                tiers["derated_safe"] += 1
            else:
                tiers["resimulated"] += 1
            worst = result.report.worst_bound_slack_ns()
            if worst < self.worst_bound_slack_ns:
                self.worst_bound_slack_ns = worst
            for fi in result.misses():
                self.misses.append((pi, fi))
        self.patterns_static_safe += tiers["static_safe"]
        self.patterns_derated_safe += tiers["derated_safe"]
        self.patterns_resimulated += tiers["resimulated"]
        # Audit: the bound must dominate whatever was simulated.
        for result in audited:
            self.soundness_checked += len(result.scaled_ns or {})
            self.soundness_violations += len(result.soundness_violations())
        return tiers

    def to_dict(self) -> Dict[str, Any]:
        return {
            "domain": self.domain,
            "period_ns": self.period_ns,
            "n_patterns": self.n_patterns,
            "endpoints_total": self.endpoints_total,
            "endpoint_counts": dict(self.endpoint_counts),
            "patterns_static_safe": self.patterns_static_safe,
            "patterns_derated_safe": self.patterns_derated_safe,
            "patterns_resimulated": self.patterns_resimulated,
            "pruned_endpoint_fraction": round(
                self.pruned_endpoint_fraction, 6
            ),
            "misses": [list(m) for m in self.misses],
            "soundness_checked": self.soundness_checked,
            "soundness_violations": self.soundness_violations,
            "worst_bound_slack_ns": (
                None
                if self.worst_bound_slack_ns == float("inf")
                else round(self.worst_bound_slack_ns, 6)
            ),
            "elapsed_s": round(self.elapsed_s, 6),
        }


def prescreen_pattern_set(
    calculator: ScapCalculator,
    model: GridModel,
    patterns: Any,
    env: Optional[ElectricalEnv] = None,
    max_patterns: Optional[int] = None,
    audit_patterns: int = 3,
) -> TimingPrescreenSummary:
    """Screen every pattern of a set, collecting the flow-stage digest.

    Patterns go through the tiers in lanes of
    :data:`~repro.power.calculator.MAX_LANE_WIDTH`, one
    ``timing.lane`` span each.  *audit_patterns* leading patterns
    additionally run the full IR-scaled re-simulation regardless of
    their classification, so the summary carries an empirical
    soundness check (bound >= simulated IR-scaled delay for every
    audited endpoint) exactly like the PWR-SCAP bound's validation —
    without paying full simulation for the whole set.
    """
    if env is None:
        env = ElectricalEnv()
    if max_patterns is not None and max_patterns <= 0:
        raise ConfigError("max_patterns must be positive")
    indices, matrix = pattern_rows(
        list(itertools.islice(patterns, max_patterns)),
        calculator.design.netlist.n_flops,
    )
    analyzer = _analyzer(calculator, model, env)
    summary = TimingPrescreenSummary(
        domain=calculator.domain, period_ns=calculator.period_ns
    )
    tel = current_telemetry()
    started = time.perf_counter()
    with tel.span("timing.prescreen", domain=calculator.domain):
        for start in range(0, len(indices), MAX_LANE_WIDTH):
            lane = matrix[start : start + MAX_LANE_WIDTH]
            with tel.span(
                "timing.lane", start=start, width=lane.shape[0]
            ) as span:
                violations = summary.soundness_violations
                tiers = summary.add_lane(
                    start,
                    *_screen_lane(
                        calculator, model, env, analyzer, lane,
                        indices[start : start + MAX_LANE_WIDTH],
                        audit=max(0, audit_patterns - start),
                    ),
                )
                span.set(**tiers)
            violations = summary.soundness_violations - violations
            if violations:
                tel.count("timing.soundness_violations", violations)
    summary.elapsed_s = time.perf_counter() - started
    tel.count("timing.endpoints_pruned",
              summary.endpoints_total
              - summary.endpoint_counts[AT_RISK])
    return summary
