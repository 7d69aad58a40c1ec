"""The paper's contribution: supply-noise-aware TDF pattern generation.

* :mod:`~repro.core.thresholds` — per-block SCAP limits from the
  statistical (vectorless) half-cycle analysis,
* :mod:`~repro.core.flow` — the conventional random-fill baseline and
  the staged fill-0 noise-tolerant generation flow,
* :mod:`~repro.core.validation` — SCAP screening of a pattern set,
* :mod:`~repro.core.irscale` — IR-drop-aware delay-scaled re-simulation
  of selected patterns (endpoint delay comparison, Figure 7),
* :mod:`~repro.core.casestudy` — a one-call driver reproducing every
  table and figure of the paper on the synthetic SOC.
"""

from .thresholds import derive_scap_thresholds
from .flow import (
    ConventionalFlow,
    FlowResult,
    NoiseAwarePatternGenerator,
    STAGE_PLAN_TURBO_EAGLE,
    run_noise_tolerant_flow,
)
from .validation import ScapViolation, ValidationReport, validate_pattern_set
from .irscale import IrScaledComparison, ir_scaled_endpoint_comparison
from .casestudy import CaseStudy
from .scheduling import (
    BlockTestSpec,
    Placement,
    ScheduleBudget,
    TamCandidate,
    TestSchedule,
    schedule_tests,
    specs_from_design,
    specs_from_flow,
)
from .ftas import FtasReport, PatternFtas, ftas_analysis
from .fullchip import DomainOutcome, FullChipResult, run_full_chip
from .binning import BinningResult, binning_simulation, guardband_for_yield
from .overkill import OverkillReport, PatternOverkill, overkill_analysis
from .repair import RepairOutcome, repair_pattern_set

__all__ = [
    "BinningResult",
    "BlockTestSpec",
    "Placement",
    "ScheduleBudget",
    "TamCandidate",
    "schedule_tests",
    "specs_from_design",
    "specs_from_flow",
    "binning_simulation",
    "guardband_for_yield",
    "CaseStudy",
    "DomainOutcome",
    "FtasReport",
    "FullChipResult",
    "OverkillReport",
    "PatternFtas",
    "PatternOverkill",
    "RepairOutcome",
    "overkill_analysis",
    "ftas_analysis",
    "repair_pattern_set",
    "run_full_chip",
    "ConventionalFlow",
    "FlowResult",
    "IrScaledComparison",
    "NoiseAwarePatternGenerator",
    "STAGE_PLAN_TURBO_EAGLE",
    "ScapViolation",
    "TestSchedule",
    "ValidationReport",
    "derive_scap_thresholds",
    "ir_scaled_endpoint_comparison",
    "run_noise_tolerant_flow",
    "validate_pattern_set",
]
