"""Parallel/batched execution layer (the throughput subsystem).

The paper's flow is re-grading-bound: every candidate pattern set is
fault-simulated against the undetected universe and SCAP-graded per
block, and the staged noise-aware procedure repeats both per stage per
clock domain.  This package supplies the shared machinery that makes
those hot paths cheap:

* :mod:`~repro.perf.resilient` — the one way grading runs on a worker
  pool: :func:`~repro.perf.resilient.resilient_map` with per-worker
  one-time initialisation (rebuild the netlist/simulator once per
  worker, not once per task; pattern matrices ride the initializer's
  arguments), chunk helpers, ordered results, one recovery rule (a
  dead worker's chunks finish serially in the calling process; a task
  exception raises at once) and an
  :class:`~repro.perf.resilient.ExecutionReport` of what happened,
* :mod:`~repro.perf.chaos` — deterministic worker kills on chosen
  chunks, so the recovery rule is exercised by tests rather than
  trusted.

Every grading call site sizes its pool with
:func:`~repro.perf.resilient.resolve_workers`, the one worker-count
rule: it counts the cores this process may actually use
(:func:`~repro.perf.resilient.usable_cpus`) and, for
``n_workers="auto"``, weighs the caller's serial-cost estimate against
the pool's start-up cost instead of hoping the pool wins.

The consumers are :meth:`repro.atpg.fsim.FaultSimulator.run_batch`
(multi-word fault simulation with chunked fault partitions) and
:meth:`repro.power.calculator.ScapCalculator.profile_patterns`
(batched SCAP grading).
"""

from . import chaos
from .resilient import (
    ChunkFailure,
    ExecutionReport,
    chunk_slices,
    chunked,
    collect_reports,
    resilient_map,
    resolve_workers,
    usable_cpus,
)

__all__ = [
    "ChunkFailure",
    "ExecutionReport",
    "chaos",
    "chunk_slices",
    "chunked",
    "collect_reports",
    "resilient_map",
    "resolve_workers",
    "usable_cpus",
]
