"""SCAP screening of a pattern set (paper Section 3.2, Figures 2 & 6).

Runs the SCAP calculator over every pattern and flags, per block, the
patterns whose SCAP exceeds the block's statistical threshold — the
patterns at risk of IR-drop-induced false delay failures.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..atpg.patterns import pattern_rows
from ..errors import ConfigError
from ..obs import current_telemetry
from ..power.calculator import ScapCalculator
from ..power.scap import PatternPowerProfile
from ..reporting.checkpoint import CheckpointStore


@dataclass(frozen=True)
class ScapViolation:
    """One pattern exceeding one block's SCAP threshold."""

    pattern_index: int
    block: str
    scap_mw: float
    threshold_mw: float

    @property
    def excess_ratio(self) -> float:
        return self.scap_mw / self.threshold_mw


@dataclass
class ValidationReport:
    """SCAP screening result for a whole pattern set."""

    domain: str
    thresholds_mw: Dict[str, float]
    profiles: List[PatternPowerProfile]
    violations: List[ScapViolation] = field(default_factory=list)

    @property
    def n_patterns(self) -> int:
        return len(self.profiles)

    def violating_patterns(self, block: Optional[str] = None) -> List[int]:
        """Sorted indexes of patterns violating (optionally one block)."""
        hits = {
            v.pattern_index
            for v in self.violations
            if block is None or v.block == block
        }
        return sorted(hits)

    def violation_fraction(self, block: Optional[str] = None) -> float:
        if not self.profiles:
            return 0.0
        return len(self.violating_patterns(block)) / len(self.profiles)

    def scap_series(self, block: Optional[str] = None) -> np.ndarray:
        """Per-pattern SCAP (mW) — the Figure 2 / Figure 6 series."""
        return np.array([p.scap_mw(block) for p in self.profiles])

    def extreme_patterns(self, block: str) -> Dict[str, int]:
        """The paper's P1/P2 pick: the worst-SCAP pattern and the
        pattern closest to (but above or near) the block threshold."""
        series = self.scap_series(block)
        if series.size == 0:
            raise ConfigError("no profiles to pick extremes from")
        p1 = int(series.argmax())
        threshold = self.thresholds_mw[block]
        p2 = int(np.abs(series - threshold).argmin())
        return {"P1": p1, "P2": p2}


def validate_pattern_set(
    calculator: ScapCalculator,
    pattern_set,
    thresholds_mw: Dict[str, float],
    n_workers: Union[int, str, None] = 1,
    checkpoint: Optional[CheckpointStore] = None,
    checkpoint_key: str = "validation",
    checkpoint_chunk: int = 256,
) -> ValidationReport:
    """Profile every pattern and screen against per-block thresholds.

    Grading runs through the calculator's batched
    :meth:`~repro.power.calculator.ScapCalculator.profile_patterns`
    path (machine-word logic-simulation lanes, optional worker pool)
    — bit-exact with per-pattern profiling.
    ``n_workers="auto"`` defers the serial/pool call to
    :func:`repro.perf.resilient.resolve_workers`.

    With a *checkpoint* store the pattern set is graded in chunks of
    *checkpoint_chunk* patterns and every finished chunk persists its
    SCAP profiles; an interrupted screening rerun over the same store
    resumes at the first unfinished chunk.  Chunk keys embed a digest
    of the chunk's launch states plus the calculator's checkpoint
    context, so stale or foreign checkpoints are never reused.
    """
    tel = current_telemetry()
    with tel.span(
        "flow.validate", domain=calculator.domain, workers=n_workers
    ):
        if checkpoint is not None:
            profiles = _profile_with_checkpoint(
                calculator, pattern_set, n_workers,
                checkpoint, checkpoint_key, checkpoint_chunk,
            )
        else:
            profiles = calculator.profile_patterns(
                pattern_set, n_workers=n_workers
            )
        violations: List[ScapViolation] = []
        for profile in profiles:
            for block, limit in thresholds_mw.items():
                scap = profile.scap_mw(block)
                if scap > limit:
                    violations.append(
                        ScapViolation(
                            profile.pattern_index, block, scap, limit
                        )
                    )
        for violation in violations:
            tel.count("scap.violations", block=violation.block)
    return ValidationReport(
        domain=calculator.domain,
        thresholds_mw=dict(thresholds_mw),
        profiles=profiles,
        violations=violations,
    )


def _profile_with_checkpoint(
    calculator: ScapCalculator,
    pattern_set,
    n_workers: Union[int, str, None],
    checkpoint: CheckpointStore,
    key_prefix: str,
    chunk: int,
) -> List[PatternPowerProfile]:
    """Chunked profiling with per-chunk durable results.

    Chunk size is kept a multiple of the grading lane width upstream
    (the default 256 = 4 lanes), and profiles are re-stamped with their
    global pattern indices, so the output is identical to one
    uninterrupted :meth:`profile_patterns` call.
    """
    indices, matrix = pattern_rows(
        pattern_set, calculator.design.netlist.n_flops
    )
    chunk = max(1, int(chunk))
    profiles: List[PatternPowerProfile] = []
    for start in range(0, matrix.shape[0], chunk):
        stop = min(start + chunk, matrix.shape[0])
        sub = matrix[start:stop]
        digest = digest_key(
            np.ascontiguousarray(sub).tobytes(),
            calculator.checkpoint_context + (start, stop),
        )
        key = f"{key_prefix}_rows{start}-{stop}_{digest[:12]}"
        part = checkpoint.try_load(key)
        if part is not None:
            current_telemetry().count("flow.checkpoint_resumes")
        else:
            part = calculator.profile_patterns(sub, n_workers=n_workers)
            checkpoint.save(key, part, meta={"rows": [start, stop]})
        profiles.extend(
            dataclasses.replace(p, pattern_index=indices[start + i])
            for i, p in enumerate(part)
        )
    return profiles


def digest_key(payload: bytes, context: Tuple = ()) -> str:
    """SHA-1 digest of *payload* under a hashable *context* tuple."""
    h = hashlib.sha1(payload)
    h.update(repr(context).encode("utf-8"))
    return h.hexdigest()
