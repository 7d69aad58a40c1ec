"""Deterministic worker kills for the pool in :mod:`repro.perf.resilient`.

The pool's one recovery path (a dead worker's chunks finish serially in
the calling process) is exercised by tests through this harness instead
of being trusted.  A :class:`ChaosSpec` names the chunk indices whose
worker is killed with ``os.kill(getpid(), SIGKILL)`` as it picks the
chunk up: the worker dies without cleanup, breaking the process pool
exactly like an OOM kill.  No chunk gets a second pool attempt, so the
chunk index alone keys the injection.  The spec travels to workers
alongside each submitted chunk, so it works under both fork and spawn
start methods.

Usage::

    from repro.perf import chaos

    with chaos.inject(chaos.ChaosSpec(kill={2})):
        out = fsim.run_batch(matrix, faults, n_workers=2)

Injection applies only to the pool; serial runs (and the serial finish
after a kill) execute the bare task.
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from typing import AbstractSet, Optional


@dataclass(frozen=True)
class ChaosSpec:
    """The chunk indices whose worker is killed; empty kills nothing."""

    kill: AbstractSet[int] = frozenset()


def apply(spec: Optional[ChaosSpec], chunk_index: int) -> None:
    """Kill this worker if *spec* names *chunk_index*.

    Runs *inside the worker process*, before the real task.
    """
    if spec is not None and chunk_index in spec.kill:
        os.kill(os.getpid(), signal.SIGKILL)


#: The spec currently armed by :func:`inject` (``None`` = no chaos).
_ACTIVE: Optional[ChaosSpec] = None


def active_spec() -> Optional[ChaosSpec]:
    """The armed spec, consulted by ``resilient_map`` at submit time."""
    return _ACTIVE


@contextmanager
def inject(spec: ChaosSpec):
    """Arm *spec* for every resilient map started inside the block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = spec
    try:
        yield spec
    finally:
        _ACTIVE = previous
