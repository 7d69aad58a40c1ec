"""Transition-fault diagnosis: from tester failures to fault candidates.

When a part fails at-speed test, product engineering needs to know
*where* before physical failure analysis: the input is the syndrome —
which patterns failed at which capturing flops — and the output is a
ranked list of candidate fault sites.

This module implements classic cause-effect diagnosis: every candidate
transition fault is simulated against the pattern set, its predicted
syndrome compared with the observed one, and candidates ranked by match
quality (intersection / union of failing (pattern, endpoint) pairs,
i.e. Jaccard score; exact-match candidates rank first).

Cone filtering keeps it fast: only faults whose fanout cone reaches at
least one failing endpoint can explain the syndrome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import AtpgError
from ..netlist.netlist import Netlist
from ..sim.logic import LogicSim, launch_capture, pack_matrix
from .faults import TransitionFault
from .fsim import FaultSimulator

#: A syndrome: set of (pattern index, failing flop index) pairs.
Syndrome = FrozenSet[Tuple[int, int]]


@dataclass(frozen=True)
class DiagnosisCandidate:
    """One ranked explanation of the observed failures."""

    fault: TransitionFault
    score: float  # Jaccard match of predicted vs observed syndrome
    predicted_fails: int
    matched_fails: int

    @property
    def exact(self) -> bool:
        return self.score == 1.0


@dataclass
class DiagnosisResult:
    observed: Syndrome
    candidates: List[DiagnosisCandidate] = field(default_factory=list)

    def best(self) -> Optional[DiagnosisCandidate]:
        return self.candidates[0] if self.candidates else None

    def exact_matches(self) -> List[DiagnosisCandidate]:
        return [c for c in self.candidates if c.exact]


class TransitionFaultDiagnoser:
    """Cause-effect diagnosis engine for one design + domain."""

    def __init__(self, netlist: Netlist, domain: str):
        self.netlist = netlist
        self.domain = domain
        self.fsim = FaultSimulator(netlist, domain)
        self._sim = LogicSim(netlist)
        netlist.freeze()
        # flop index by D net for syndrome construction.
        self._flops_by_dnet: Dict[int, List[int]] = {}
        for fi in netlist.pulsed_flops(domain):
            self._flops_by_dnet.setdefault(netlist.flops[fi].d, []).append(fi)

    # ------------------------------------------------------------------
    def predicted_syndrome(
        self, pattern_set, fault: TransitionFault
    ) -> Syndrome:
        """(pattern, flop) failures the fault would produce."""
        fails: Set[Tuple[int, int]] = set()
        matrix = pattern_set.as_matrix()
        n = matrix.shape[0]
        batch = 64
        for lo in range(0, n, batch):
            chunk = matrix[lo:lo + batch]
            per_flop = self._per_flop_detection(chunk, fault)
            for fi, word in per_flop.items():
                w = word
                while w:
                    bit = (w & -w).bit_length() - 1
                    fails.add((lo + bit, fi))
                    w &= w - 1
        return frozenset(fails)

    def _per_flop_detection(
        self, v1_matrix: np.ndarray, fault: TransitionFault
    ) -> Dict[int, int]:
        """Like FaultSimulator.run but resolved per capturing flop."""
        packed, mask = pack_matrix(v1_matrix)
        cyc = launch_capture(self._sim, packed, self.domain, mask=mask)
        f1, g2 = cyc.frame1, cyc.frame2
        site = fault.net
        act = f1[site] if fault.initial_value else (~f1[site] & mask)
        if act == 0:
            return {}
        cone_gates, captures = self.fsim.cone_of(site)
        if not captures:
            return {}
        forced = mask if fault.initial_value else 0
        faulty: Dict[int, int] = {site: forced}
        get = faulty.get
        from ..netlist.cells import CELL_FUNCTIONS

        gates = self.netlist.gates
        for gi in cone_gates:
            gate = gates[gi]
            out = CELL_FUNCTIONS[gate.kind](
                [get(p, g2[p]) for p in gate.inputs], mask
            )
            if out != g2[gate.output]:
                faulty[gate.output] = out
        per_flop: Dict[int, int] = {}
        for net in captures:
            diff = (get(net, g2[net]) ^ g2[net]) & act
            if diff:
                for fi in self._flops_by_dnet.get(net, ()):
                    per_flop[fi] = per_flop.get(fi, 0) | diff
        return per_flop

    # ------------------------------------------------------------------
    def diagnose(
        self,
        pattern_set,
        observed: Syndrome,
        candidates: Sequence[TransitionFault],
        top_k: int = 10,
        min_score: float = 0.05,
    ) -> DiagnosisResult:
        """Rank candidate faults against an observed syndrome."""
        if not observed:
            raise AtpgError("empty syndrome: nothing to diagnose")
        failing_flops = {fi for _p, fi in observed}
        failing_dnets = {
            self.netlist.flops[fi].d for fi in failing_flops
        }

        ranked: List[DiagnosisCandidate] = []
        for fault in candidates:
            # Cone filter: the fault must reach a failing endpoint.
            _gates, captures = self.fsim.cone_of(fault.net)
            if not failing_dnets & set(captures):
                continue
            predicted = self.predicted_syndrome(pattern_set, fault)
            if not predicted:
                continue
            inter = len(predicted & observed)
            union = len(predicted | observed)
            score = inter / union if union else 0.0
            if score >= min_score:
                ranked.append(
                    DiagnosisCandidate(
                        fault=fault,
                        score=score,
                        predicted_fails=len(predicted),
                        matched_fails=inter,
                    )
                )
        ranked.sort(key=lambda c: (-c.score, -c.matched_fails))
        return DiagnosisResult(observed=observed,
                               candidates=ranked[:top_k])

    def observe(
        self, pattern_set, fault: TransitionFault
    ) -> Syndrome:
        """Simulate a defective chip: the syndrome the tester would log."""
        return self.predicted_syndrome(pattern_set, fault)
