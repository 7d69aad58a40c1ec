"""MISR response compaction.

Testers rarely shift every captured response off-chip; a multiple-input
signature register (MISR) folds all responses into one signature that
is compared against the good-machine value.  This module provides the
software model: a standard LFSR-based MISR over the captured scan
states, signature computation for whole pattern sets, and the classic
aliasing-probability estimate ``2^-n``.

Used here to (a) complete the DFT substrate and (b) let tests assert
that a fault's effect survives compaction (signature differs from the
good signature).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..errors import ScanError

#: Primitive polynomial taps (Fibonacci form) by register width.
_PRIMITIVE_TAPS: Dict[int, Sequence[int]] = {
    16: (16, 15, 13, 4),
    24: (24, 23, 22, 17),
    32: (32, 22, 2, 1),
}


class Misr:
    """A multiple-input signature register of width ``n_bits``."""

    def __init__(self, n_bits: int = 32, seed: int = 0):
        if n_bits not in _PRIMITIVE_TAPS:
            raise ScanError(
                f"unsupported MISR width {n_bits}; choose from "
                f"{sorted(_PRIMITIVE_TAPS)}"
            )
        self.n_bits = n_bits
        self._mask = (1 << n_bits) - 1
        self._taps = _PRIMITIVE_TAPS[n_bits]
        self.state = seed & self._mask

    def reset(self, seed: int = 0) -> None:
        """Reload the register with a seed."""
        self.state = seed & self._mask

    def _feedback(self) -> int:
        fb = 0
        for tap in self._taps:
            fb ^= (self.state >> (tap - 1)) & 1
        return fb

    def clock(self, parallel_in: int) -> None:
        """One MISR cycle: shift with feedback, XOR the input word in."""
        fb = self._feedback()
        self.state = ((self.state << 1) | fb) & self._mask
        self.state ^= parallel_in & self._mask

    def absorb_response(self, bits: Iterable[int]) -> None:
        """Feed a captured scan state, ``n_bits`` bits per cycle."""
        word = 0
        count = 0
        for bit in bits:
            word = (word << 1) | (bit & 1)
            count += 1
            if count == self.n_bits:
                self.clock(word)
                word = 0
                count = 0
        if count:
            self.clock(word)

    @property
    def signature(self) -> int:
        """Current register contents (the compacted signature)."""
        return self.state

    @property
    def aliasing_probability(self) -> float:
        """Classic steady-state estimate: 2^-n."""
        """Classic steady-state estimate: 2^-n."""
        return 2.0 ** -self.n_bits


def signature_of_responses(
    responses: Sequence[Dict[int, int]],
    flop_order: Sequence[int],
    n_bits: int = 32,
    seed: int = 0,
) -> int:
    """MISR signature over a sequence of captured responses.

    ``responses`` are per-pattern flop->bit capture maps (e.g. from
    :func:`capture_responses`);
    ``flop_order`` fixes the bit ordering (use the scan-out order).
    """
    misr = Misr(n_bits=n_bits, seed=seed)
    for response in responses:
        misr.absorb_response(
            response.get(fi, 0) & 1 for fi in flop_order
        )
    return misr.signature


def capture_responses(
    netlist,
    pattern_set,
    domain: str,
) -> List[Dict[int, int]]:
    """Good-machine captured responses for every pattern (LOC).

    One bit-parallel launch/capture pass per lane of 64 patterns.
    """
    from ..atpg.patterns import pattern_rows
    from ..sim.logic import LogicSim, launch_capture, pack_matrix

    sim = LogicSim(netlist)
    _indices, matrix = pattern_rows(pattern_set, netlist.n_flops)
    out: List[Dict[int, int]] = []
    for start in range(0, matrix.shape[0], 64):
        lane = matrix[start:start + 64]
        packed, mask = pack_matrix(lane)
        captured = launch_capture(sim, packed, domain, mask=mask).captured
        out.extend(
            {fi: (word >> p) & 1 for fi, word in captured.items()}
            for p in range(lane.shape[0])
        )
    return out
