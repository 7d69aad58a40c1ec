"""Simulation engines.

* :mod:`~repro.sim.logic` — bit-parallel zero-delay logic simulation
  (the workhorse behind ATPG, fault simulation and launch-state
  computation),
* :mod:`~repro.sim.delays` — per-instance loaded delays (SDF substitute),
* :mod:`~repro.sim.event` — event-driven gate-level timing simulation of
  the launch-to-capture cycle (the VCS substitute),
* :mod:`~repro.sim.endpoints` — endpoint path-delay measurement against
  each flop's own clock arrival (paper Figure 7 semantics).
"""

from .logic import (
    LogicSim,
    launch_capture,
    loc_launch_capture,
    los_shift,
    pack_matrix,
)
from .delays import DelayModel
from .event import EventTimingSim, TimingResult
from .endpoints import endpoint_delays
from .sta import (
    SstaReport,
    StaticTimingAnalyzer,
    StaReport,
    analyze_statistical,
    derates_from_ir,
)
from .waveform import SwitchingTrace, write_vcd

__all__ = [
    "DelayModel",
    "EventTimingSim",
    "LogicSim",
    "SstaReport",
    "StaReport",
    "StaticTimingAnalyzer",
    "analyze_statistical",
    "SwitchingTrace",
    "TimingResult",
    "derates_from_ir",
    "write_vcd",
    "endpoint_delays",
    "launch_capture",
    "loc_launch_capture",
    "los_shift",
    "pack_matrix",
]
