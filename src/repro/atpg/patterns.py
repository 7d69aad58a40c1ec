"""Pattern containers and the one pattern-input normaliser.

A :class:`Pattern` is one launch-off-capture test: the fully-filled scan
state V1 plus bookkeeping — which bits were ATPG care bits, which faults
it was generated for, and which fill policy completed it.
:func:`pattern_rows` turns every accepted pattern input into the V1
matrix the graders simulate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

from ..errors import AtpgError, ConfigError


@dataclass
class Pattern:
    """One test pattern over ``n_flops`` scan cells."""

    index: int
    v1: np.ndarray  # uint8 bit per flop
    care: np.ndarray  # bool per flop: ATPG-assigned vs filled
    domain: str
    fill: str
    targeted_faults: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.v1 = np.asarray(self.v1, dtype=np.uint8)
        self.care = np.asarray(self.care, dtype=bool)
        if self.v1.shape != self.care.shape:
            raise AtpgError("v1 and care masks must have the same shape")

    @property
    def n_flops(self) -> int:
        """Number of scan cells the pattern covers."""
        return int(self.v1.size)

    @property
    def care_count(self) -> int:
        """Number of ATPG-assigned (care) bits."""
        return int(self.care.sum())

    @property
    def care_ratio(self) -> float:
        """Care bits as a fraction of all scan cells."""
        return self.care_count / max(1, self.n_flops)

    def v1_dict(self) -> Dict[int, int]:
        """V1 as a flop->bit mapping (simulator input form)."""
        return {fi: int(self.v1[fi]) for fi in range(self.n_flops)}


@dataclass
class PatternSet:
    """An ordered collection of patterns for one clock domain."""

    domain: str
    patterns: List[Pattern] = field(default_factory=list)
    fill: str = "random"

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self) -> Iterator[Pattern]:
        return iter(self.patterns)

    def __getitem__(self, idx: int) -> Pattern:
        return self.patterns[idx]

    def append(self, pattern: Pattern) -> None:
        if pattern.domain != self.domain:
            raise AtpgError(
                f"pattern domain {pattern.domain!r} != set domain "
                f"{self.domain!r}"
            )
        self.patterns.append(pattern)

    def as_matrix(self) -> np.ndarray:
        """All V1 vectors stacked, shape ``(n_patterns, n_flops)``."""
        if not self.patterns:
            return np.zeros((0, 0), dtype=np.uint8)
        return np.stack([p.v1 for p in self.patterns])

    def mean_care_ratio(self) -> float:
        if not self.patterns:
            return 0.0
        return float(np.mean([p.care_ratio for p in self.patterns]))


def pattern_rows(patterns: Any, n_flops: int) -> Tuple[List[int], np.ndarray]:
    """``(indices, (n, n_flops) uint8 V1 matrix)`` from any pattern input.

    *patterns* is a :class:`PatternSet`, a sequence of :class:`Pattern`
    objects or v1 dicts (flop -> bit; flops a dict omits load 0), or an
    ``(n, n_flops)`` matrix.  A Pattern keeps its own index; a dict or
    a matrix row is indexed by its position.

    Raises
    ------
    ConfigError
        If a pattern does not cover exactly *n_flops* flops (a dict
        naming a flop outside the design counts) or a V1 value is not
        0 or 1.
    """
    if isinstance(patterns, np.ndarray):
        if patterns.ndim != 2:
            raise ConfigError("pattern matrix must be 2-D")
        if patterns.shape[0] and patterns.shape[1] != n_flops:
            raise ConfigError(
                f"pattern matrix covers {patterns.shape[1]} flops, "
                f"design has {n_flops}"
            )
        indices = list(range(patterns.shape[0]))
        matrix = patterns.reshape(-1, n_flops)
    else:
        indices = []
        rows: List[np.ndarray] = []
        for pos, pattern in enumerate(patterns):
            if isinstance(pattern, dict):
                index, row = pos, _dict_row(pattern, pos, n_flops)
            elif hasattr(pattern, "v1"):
                index, row = int(pattern.index), np.ravel(pattern.v1)
                if row.size != n_flops:
                    raise ConfigError(
                        f"pattern {index} covers {row.size} flops, design "
                        f"has {n_flops}"
                    )
            else:
                raise ConfigError(
                    "patterns must be Pattern objects, v1 dicts or a matrix"
                )
            indices.append(index)
            rows.append(row)
        matrix = (
            np.stack(rows) if rows else np.zeros((0, n_flops), np.uint8)
        )
    bad = np.flatnonzero(((matrix != 0) & (matrix != 1)).any(axis=1))
    if bad.size:
        raise ConfigError(
            f"pattern {indices[bad[0]]} has V1 values outside {{0, 1}}"
        )
    return indices, matrix.astype(np.uint8)


def _dict_row(v1: Dict[int, int], index: int, n_flops: int) -> np.ndarray:
    row = np.zeros(n_flops, dtype=np.int64)
    if v1:
        flops = np.fromiter(v1.keys(), dtype=np.int64, count=len(v1))
        outside = flops[(flops < 0) | (flops >= n_flops)]
        if outside.size:
            raise ConfigError(
                f"pattern {index} names flop {int(outside.max())}, design "
                f"has {n_flops}"
            )
        row[flops] = np.fromiter(v1.values(), dtype=np.int64, count=len(v1))
    return row
