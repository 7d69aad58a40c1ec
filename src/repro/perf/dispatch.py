"""Work-size-aware execution dispatch (batch or pool).

``BENCH_perf.json`` taught us the hard lesson: a process pool is not a
speedup, it is a *bet* — pool spin-up, per-worker initialisation and
result pickling are paid up front, and only enough work wins them back.
On a small batch the single-process batched path beats the pool by an
order of magnitude; at SOC scale (thousands of per-block sessions) the
pool wins.  This module makes that call from the work size instead of
hoping:

* :func:`decide_fsim` / :func:`decide_scap` estimate the serial cost of
  a grading call from design size and pattern/fault counts and pick
  in-process batch or the worker pool, sized to the *usable* cores;
* :class:`DispatchPolicy` + :func:`dispatch_policy` scope the knobs
  ambiently (the :func:`repro.perf.resilient.execution_policy`
  pattern), so ``n_workers="auto"`` at any call site —
  :meth:`~repro.atpg.fsim.FaultSimulator.run_batch`,
  :meth:`~repro.power.calculator.ScapCalculator.profile_patterns`, the
  flows — resolves against one policy without threading knobs through
  every signature.

Decision tree (documented in docs/architecture.md)::

    n_workers explicit int        -> honour it (back-compat)
    n_workers "auto":
      forced mode in policy       -> that mode
      usable_cpus() < 2           -> batch
      est_serial_s * (1 - 1/w)
         <= POOL_OVERHEAD_S       -> batch (pool cannot win back setup)
      else                        -> pool(w)
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Union

from ..errors import ConfigError
from ..obs import current_telemetry

#: Accepted ``mode`` values for a :class:`DispatchPolicy`.
MODES = ("auto", "batch", "pool")

#: Estimated fixed cost of going parallel: pool creation plus
#: per-worker context rebuild (with a warm kernel cache).
POOL_OVERHEAD_S = 0.25
#: Throughput estimates feeding the serial-cost model.  They only need
#: to be right within ~an order of magnitude — the decision is a step
#: function, not a regression.
FSIM_FAULT_PATTERNS_PER_S = 10e6
SCAP_S_PER_PATTERN = 1.5e-3


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    ``os.cpu_count()`` reports the machine; a container or cgroup cpuset
    often grants far fewer.  Dispatch (and honest benchmark reporting)
    must use the usable number.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class DispatchPolicy:
    """Knobs of the serial/batch/pool decision.  Immutable; share freely."""

    #: "auto" decides from work size; "batch"/"pool" force a mode.
    mode: str = "auto"
    #: Worker-count ceiling for pool decisions (None = usable cores).
    n_workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"dispatch mode must be one of {MODES}")


DEFAULT_DISPATCH = DispatchPolicy()

_dispatch_stack: List[DispatchPolicy] = [DEFAULT_DISPATCH]


def current_dispatch() -> DispatchPolicy:
    """The policy ``n_workers="auto"`` call sites resolve against."""
    return _dispatch_stack[-1]


@contextmanager
def dispatch_policy(
    policy: Optional[DispatchPolicy] = None, **overrides
) -> Iterator[DispatchPolicy]:
    """Scope a dispatch policy: ``with dispatch_policy(mode="pool"):``.

    *overrides* apply on top of *policy* (or the current default), so
    nested scopes compose — same contract as
    :func:`repro.perf.resilient.execution_policy`.
    """
    base = policy if policy is not None else current_dispatch()
    scoped = dataclasses.replace(base, **overrides) if overrides else base
    _dispatch_stack.append(scoped)
    try:
        yield scoped
    finally:
        _dispatch_stack.pop()


@dataclass(frozen=True)
class Decision:
    """One resolved dispatch: what to run and why."""

    mode: str  # "batch" | "pool"
    n_workers: int  # 1 for batch
    est_serial_s: float
    reason: str


def _workers(policy: DispatchPolicy, n_items: int) -> int:
    cap = policy.n_workers if policy.n_workers is not None else usable_cpus()
    return max(1, min(int(cap), max(1, n_items)))


def _decide(
    kind: str,
    est_serial_s: float,
    n_items: int,
    policy: Optional[DispatchPolicy],
) -> Decision:
    policy = policy if policy is not None else current_dispatch()
    w = _workers(policy, n_items)
    if policy.mode == "batch" or w <= 1:
        decision = Decision(
            "batch", 1, est_serial_s,
            "forced batch" if policy.mode == "batch" else "single core",
        )
    elif policy.mode == "pool":
        decision = Decision("pool", w, est_serial_s, "forced pool")
    else:
        # The pool saves at most est * (1 - 1/w) of wall clock and
        # costs ~POOL_OVERHEAD_S to stand up.
        saving = est_serial_s * (1.0 - 1.0 / w)
        if saving > POOL_OVERHEAD_S:
            decision = Decision(
                "pool", w, est_serial_s,
                f"saving {saving:.2f}s > overhead {POOL_OVERHEAD_S}s",
            )
        else:
            decision = Decision(
                "batch", 1, est_serial_s,
                f"saving {saving:.2f}s <= overhead {POOL_OVERHEAD_S}s",
            )
    current_telemetry().count(
        f"dispatch.{kind}", mode=decision.mode
    )
    return decision


def decide_fsim(
    n_patterns: int,
    n_faults: int,
    policy: Optional[DispatchPolicy] = None,
) -> Decision:
    """Batch or pool for a fault-simulation grading call."""
    est = (n_patterns * n_faults) / FSIM_FAULT_PATTERNS_PER_S
    return _decide("fsim", est, n_faults, policy)


def decide_scap(
    n_patterns: int,
    policy: Optional[DispatchPolicy] = None,
) -> Decision:
    """Batch or pool for a SCAP pattern-grading call."""
    est = n_patterns * SCAP_S_PER_PATTERN
    return _decide("scap", est, n_patterns, policy)


#: Sentinel accepted by ``n_workers=`` at grading call sites.
AUTO = "auto"


def wants_auto(n_workers: Union[int, str, None]) -> bool:
    """True when a call site asked the dispatcher to choose."""
    return isinstance(n_workers, str) and n_workers == AUTO
