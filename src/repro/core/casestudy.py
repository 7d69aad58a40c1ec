"""One-call reproduction driver for the whole DAC 2007 case study.

``CaseStudy`` lazily builds and caches every stage of the paper's flow
on a synthetic Turbo-Eagle, and exposes one method per table/figure.
Examples and benchmarks are thin wrappers around this class, so every
number in EXPERIMENTS.md has a single authoritative source.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..atpg.faults import build_fault_universe
from ..config import ElectricalEnv
from ..errors import ConfigError
from ..obs import current_telemetry
from ..pgrid.dynamic_ir import DynamicIrResult, dynamic_ir_for_pattern
from ..pgrid.grid import GridModel
from ..pgrid.statistical_ir import StatisticalIrRow, statistical_ir_analysis
from ..power.calculator import ScapCalculator
from ..reporting.checkpoint import CheckpointStore, config_fingerprint
from ..soc.generator import build_turbo_eagle
from .flow import (
    ConventionalFlow,
    FlowResult,
    run_drc_gate,
    run_noise_tolerant_flow,
)
from .irscale import IrScaledComparison, ir_scaled_endpoint_comparison
from .scheduling import TestSchedule, schedule_flow
from .thresholds import derive_scap_thresholds
from .validation import ValidationReport, validate_pattern_set

#: ATPG engine seed of both flows.
ENGINE_SEED = 1


class CaseStudy:
    """Reproduces the paper end to end on one generated SOC."""

    def __init__(
        self,
        scale: str = "small",
        seed: int = 2007,
        backtrack_limit: int = 100,
        n_workers: Union[int, str, None] = 1,
        checkpoint_dir: Optional[str] = None,
    ):
        """``n_workers`` fans fault simulation and SCAP grading out
        across a process pool (see :mod:`repro.perf`); results are
        bit-identical to the serial default.  ``"auto"`` defers the
        serial/pool call per grading step to
        :func:`repro.perf.resilient.resolve_workers`, which sizes the
        pool to the cores this process may actually use.

        ``checkpoint_dir`` makes the heavy stages durable, so a crashed
        or interrupted reproduction resumes instead of recomputing.
        The staged flow is :func:`~repro.core.flow.run_noise_tolerant_flow`
        and checkpoints each stage under ``<checkpoint_dir>/staged``;
        the conventional flow and the SCAP validation chunks persist in
        ``checkpoint_dir`` itself (via
        :class:`repro.reporting.CheckpointStore`).  Both stores are
        fingerprinted with what changes their results; pointing one at
        a directory from a different configuration ignores the stale
        stages with a warning.

        Both flows first pass the static DRC gate
        (:func:`~repro.core.flow.run_drc_gate`), which raises
        :class:`~repro.errors.DrcError` if the generated design has
        unwaived ERROR violations (it never should — the gate exists so
        modified generators and hand-edited netlists fail fast).

        Telemetry is whatever is ambient (``use_telemetry``) when a
        heavy stage runs.
        """
        self.design = build_turbo_eagle(scale, seed)
        self.domain = self.design.dominant_domain()
        self.backtrack_limit = backtrack_limit
        self.n_workers = n_workers
        self.checkpoint_dir = checkpoint_dir
        self._checkpoint: Optional[CheckpointStore] = None
        if checkpoint_dir is not None:
            fingerprint = config_fingerprint(
                scale=scale, seed=seed, backtrack_limit=backtrack_limit
            )
            self._checkpoint = CheckpointStore(checkpoint_dir, fingerprint)
        self._model: Optional[GridModel] = None
        self._calculator: Optional[ScapCalculator] = None
        self._thresholds: Optional[Dict[str, float]] = None
        self._flows: Dict[str, FlowResult] = {}
        self._validations: Dict[str, ValidationReport] = {}

    # ------------------------------------------------------------------
    # cached infrastructure
    # ------------------------------------------------------------------
    @property
    def model(self) -> GridModel:
        """The calibrated power grid (the one the flow's timing stage
        builds)."""
        if self._model is None:
            self._model = GridModel.calibrated(self.design)
        return self._model

    @property
    def calculator(self) -> ScapCalculator:
        if self._calculator is None:
            self._calculator = ScapCalculator(self.design, self.domain)
        return self._calculator

    @property
    def thresholds_mw(self) -> Dict[str, float]:
        """Per-block SCAP limits from the Case-2 statistical analysis."""
        if self._thresholds is None:
            self._thresholds = derive_scap_thresholds(self.model, self.domain)
        return self._thresholds

    # ------------------------------------------------------------------
    # flows
    # ------------------------------------------------------------------
    def conventional(self) -> FlowResult:
        """The random-fill baseline flow (cached + checkpointed)."""
        if "conventional" not in self._flows:
            run_drc_gate(self.design)
            result = (
                self._checkpoint.try_load("flow_conventional")
                if self._checkpoint is not None else None
            )
            if result is None:
                flow = ConventionalFlow(
                    self.design,
                    self.domain,
                    seed=ENGINE_SEED,
                    backtrack_limit=self.backtrack_limit,
                    n_workers=self.n_workers,
                )
                with current_telemetry().span(
                    "flow.run", flow="conventional"
                ):
                    result = flow.run()
                if self._checkpoint is not None:
                    self._checkpoint.save(
                        "flow_conventional", result,
                        meta={"patterns": result.n_patterns},
                    )
            self._flows["conventional"] = result
        return self._flows["conventional"]

    def staged(self) -> FlowResult:
        """The paper's staged fill-0 noise-aware flow: one
        :func:`~repro.core.flow.run_noise_tolerant_flow` run (cached,
        and checkpointed per stage under ``<checkpoint_dir>/staged``)."""
        if "staged" not in self._flows:
            self._flows["staged"], _report = run_noise_tolerant_flow(
                self.design,
                self.domain,
                checkpoint_dir=(
                    os.path.join(self.checkpoint_dir, "staged")
                    if self.checkpoint_dir is not None else None
                ),
                strict=True,
                telemetry=current_telemetry(),
                seed=ENGINE_SEED,
                backtrack_limit=self.backtrack_limit,
                n_workers=self.n_workers,
            )
        return self._flows["staged"]

    def _flow(self, name: str) -> FlowResult:
        """The ``"conventional"`` or ``"staged"`` flow by name."""
        if name == "conventional":
            return self.conventional()
        if name == "staged":
            return self.staged()
        raise ConfigError(
            f"unknown flow {name!r}: expected 'conventional' or 'staged'"
        )

    def validation(self, flow_name: str) -> ValidationReport:
        """SCAP screening of one flow's pattern set (cached, and
        checkpointed per chunk of patterns)."""
        if flow_name not in self._validations:
            self._validations[flow_name] = validate_pattern_set(
                self.calculator, self._flow(flow_name).pattern_set,
                self.thresholds_mw,
                n_workers=self.n_workers,
                checkpoint=self._checkpoint,
                checkpoint_key=f"validation_{flow_name}",
            )
        return self._validations[flow_name]

    # ------------------------------------------------------------------
    # Table 1 / Table 2
    # ------------------------------------------------------------------
    def table1(self) -> Dict[str, int]:
        """Design characteristics, including the TDF universe size."""
        out = dict(self.design.characteristics())
        out["transition_delay_faults"] = len(
            build_fault_universe(self.design.netlist)
        )
        return out

    def table2(self) -> List[Dict[str, object]]:
        return self.design.domain_table()

    # ------------------------------------------------------------------
    # Table 3
    # ------------------------------------------------------------------
    def table3(self) -> Dict[str, List[StatisticalIrRow]]:
        """Statistical IR-drop, full-cycle vs half-cycle windows."""
        return {
            "case1_full_cycle": statistical_ir_analysis(
                self.model, self.domain, window_fraction=1.0,
                include_chip_row=True,
            ),
            "case2_half_cycle": statistical_ir_analysis(
                self.model, self.domain, window_fraction=0.5,
                include_chip_row=True,
            ),
        }

    # ------------------------------------------------------------------
    # Table 4: CAP vs SCAP for one conventional pattern
    # ------------------------------------------------------------------
    def table4(self) -> Dict[str, Dict[str, float]]:
        """CAP- vs SCAP-window power and worst IR-drop for one pattern.

        Following the paper, the subject is a conventional random-fill
        pattern (we pick the one whose STW is closest to the half-cycle,
        like the paper's 8.34 ns example at a 20 ns period).
        """
        report = self.validation("conventional")
        period = self.calculator.period_ns
        stws = np.array([p.stw_ns for p in report.profiles])
        if stws.size == 0:
            raise ConfigError("conventional flow produced no patterns")
        pick = int(np.abs(stws - period / 2.0).argmin())
        profile = report.profiles[pick]
        timing = self.calculator.simulate_pattern(
            self.conventional().pattern_set[pick].v1_dict()
        )
        ir_cap = dynamic_ir_for_pattern(
            self.model, timing, window_ns=period, domain=self.domain
        )
        ir_scap = dynamic_ir_for_pattern(self.model, timing, domain=self.domain)
        return {
            "CAP": {
                "pattern_index": pick,
                "window_ns": period,
                "avg_power_mw": profile.cap_mw(),
                "worst_drop_vdd_v": ir_cap.worst_vdd_v,
                "worst_drop_vss_v": ir_cap.worst_vss_v,
            },
            "SCAP": {
                "pattern_index": pick,
                "window_ns": profile.stw_ns,
                "avg_power_mw": profile.scap_mw(),
                "worst_drop_vdd_v": ir_scap.worst_vdd_v,
                "worst_drop_vss_v": ir_scap.worst_vss_v,
            },
        }

    # ------------------------------------------------------------------
    # Figures
    # ------------------------------------------------------------------
    def figure1(self) -> str:
        """Floorplan rendering."""
        return self.design.floorplan.render_ascii()

    def figure2(self) -> Dict[str, object]:
        """Per-pattern SCAP in B5 for the conventional flow."""
        report = self.validation("conventional")
        return {
            "scap_mw_b5": report.scap_series("B5"),
            "threshold_mw": self.thresholds_mw["B5"],
            "violating_patterns": report.violating_patterns("B5"),
            "n_patterns": report.n_patterns,
        }

    def figure3(self) -> Dict[str, Dict[str, object]]:
        """Dynamic IR-drop of the P1 (worst) and P2 (near-threshold)
        conventional patterns."""
        report = self.validation("conventional")
        picks = report.extreme_patterns("B5")
        out: Dict[str, Dict[str, object]] = {}
        for label, idx in picks.items():
            pattern = self.conventional().pattern_set[idx]
            profile, timing = self.calculator.profile_pattern_with_timing(
                pattern
            )
            ir = dynamic_ir_for_pattern(self.model, timing, domain=self.domain)
            out[label] = {
                "pattern_index": idx,
                "scap_mw_b5": profile.scap_mw("B5"),
                "stw_ns": profile.stw_ns,
                "ir": ir,
                "worst_drop_vdd_v": ir.worst_vdd_v,
                "worst_drop_vss_v": ir.worst_vss_v,
                "red_fraction": ir.red_fraction(),
            }
        return out

    def figure4(self) -> Dict[str, List[Tuple[int, float]]]:
        """Coverage curves: conventional vs staged."""
        return {
            "conventional": self.conventional().coverage_curve(),
            "staged": self.staged().coverage_curve(),
        }

    def figure6(self) -> Dict[str, object]:
        """Per-pattern SCAP in B5 for the staged flow."""
        report = self.validation("staged")
        staged = self.staged()
        return {
            "scap_mw_b5": report.scap_series("B5"),
            "threshold_mw": self.thresholds_mw["B5"],
            "violating_patterns": report.violating_patterns("B5"),
            "n_patterns": report.n_patterns,
            "step_boundaries": staged.step_boundaries,
        }

    def figure7(self, env: Optional[ElectricalEnv] = None) -> IrScaledComparison:
        """Endpoint delays with vs without IR-drop for one staged pattern.

        The paper picks a pattern that tests many B5 faults yet stays
        under the SCAP threshold: we take the staged flow's B5 step and
        choose the highest-SCAP pattern still below the B5 limit.
        """
        staged = self.staged()
        report = self.validation("staged")
        threshold = self.thresholds_mw["B5"]
        b5_start = staged.step_boundaries[-1] if staged.step_boundaries else 0
        series = report.scap_series("B5")
        candidates = [
            i
            for i in range(b5_start, len(series))
            if series[i] <= threshold
        ]
        if not candidates:
            candidates = list(range(b5_start, len(series))) or [0]
        pick = max(candidates, key=lambda i: series[i])
        pattern = staged.pattern_set[pick]
        return ir_scaled_endpoint_comparison(
            self.calculator, self.model, pattern, env=env
        )

    # ------------------------------------------------------------------
    # SOC test scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        power_budget_mw: Optional[float] = None,
        strategy: str = "binpack",
        tam_width: Optional[int] = None,
        flow_name: str = "staged",
    ) -> TestSchedule:
        """Power/TAM-constrained SOC test schedule for one flow.

        Per-block test powers are the sound chip-wide
        :class:`~repro.power.static_bound.StaticScapBound` bounds,
        test times come from wrapper partitioning of the flow's
        per-block pattern counts, and *strategy* (``"binpack"`` or
        ``"greedy"``) packs the candidate rectangles under the power
        envelope and the design's TAM width (override with
        *tam_width*).

        Without *power_budget_mw* a feasible default is derived from
        the bounds themselves (see
        :func:`~repro.core.scheduling.schedule_flow`).  Returns a
        validated :class:`~repro.core.scheduling.TestSchedule`.
        """
        return schedule_flow(
            self.design, self.domain, self._flow(flow_name),
            budget_mw=power_budget_mw,
            strategy=strategy,
            tam_width=tam_width,
        )

    # ------------------------------------------------------------------
    def export(self, out_dir: str) -> List[str]:
        """Write every table/figure artefact to *out_dir* (see
        :func:`repro.reporting.export_case_study`)."""
        from ..reporting import export_case_study

        return export_case_study(self, out_dir)

    # ------------------------------------------------------------------
    def headline_comparison(self) -> Dict[str, object]:
        """The paper's bottom line, both flows side by side."""
        conv = self.validation("conventional")
        stag = self.validation("staged")
        return {
            "conventional_patterns": conv.n_patterns,
            "staged_patterns": stag.n_patterns,
            "pattern_increase_pct": 100.0
            * (stag.n_patterns - conv.n_patterns)
            / max(1, conv.n_patterns),
            "conventional_violations_b5": len(conv.violating_patterns("B5")),
            "staged_violations_b5": len(stag.violating_patterns("B5")),
            "conventional_violation_fraction_b5": conv.violation_fraction("B5"),
            "staged_violation_fraction_b5": stag.violation_fraction("B5"),
            "conventional_coverage": self.conventional().test_coverage,
            "staged_coverage": self.staged().test_coverage,
        }
