"""repro — supply-voltage-noise-aware transition delay fault ATPG.

A full open-source reproduction of Ahmed, Tehranipoor & Jayaram,
"Transition Delay Fault Test Pattern Generation Considering Supply
Voltage Noise in a SOC Design" (DAC 2007): a synthetic industrial-style
SOC, a gate-level timing simulator, a LOC transition-fault ATPG with
configurable don't-care fill, power-grid IR-drop analysis, the SCAP
power metric and the staged noise-tolerant pattern-generation flow.

Quickstart
----------
>>> from repro import CaseStudy
>>> study = CaseStudy(scale="tiny")
>>> study.headline_comparison()  # doctest: +SKIP

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from .config import ElectricalEnv, K_VOLT, VDD_NOMINAL
from .drc import DrcReport, Violation, check_design, run_drc
from .core import (
    CaseStudy,
    ConventionalFlow,
    NoiseAwarePatternGenerator,
    derive_scap_thresholds,
    ir_scaled_endpoint_comparison,
    run_noise_tolerant_flow,
    validate_pattern_set,
)
from .perf import resilient_map
from .power import PatternPowerProfile, ScapCalculator
from .reporting import CheckpointStore, RunReport
from .timing import (
    DroopBoundAnalyzer,
    DroopBoundReport,
    prescreen_pattern_set,
    prescreened_endpoint_comparison,
)
from .service import (
    JobSpec,
    JobStore,
    ServiceClient,
    ServiceConfig,
    ServiceSupervisor,
    ServiceWorker,
)
from .soc import SocDesign, build_turbo_eagle

__version__ = "1.0.0"

__all__ = [
    "CaseStudy",
    "CheckpointStore",
    "ConventionalFlow",
    "DrcReport",
    "ElectricalEnv",
    "JobSpec",
    "JobStore",
    "K_VOLT",
    "NoiseAwarePatternGenerator",
    "PatternPowerProfile",
    "RunReport",
    "ScapCalculator",
    "ServiceClient",
    "ServiceConfig",
    "ServiceSupervisor",
    "ServiceWorker",
    "SocDesign",
    "VDD_NOMINAL",
    "Violation",
    "build_turbo_eagle",
    "check_design",
    "derive_scap_thresholds",
    "DroopBoundAnalyzer",
    "DroopBoundReport",
    "ir_scaled_endpoint_comparison",
    "prescreen_pattern_set",
    "prescreened_endpoint_comparison",
    "resilient_map",
    "run_drc",
    "run_noise_tolerant_flow",
    "validate_pattern_set",
    "__version__",
]
