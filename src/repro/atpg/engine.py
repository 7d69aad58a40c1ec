"""The ATPG pattern-generation loop (the TetraMAX-wrapper substitute).

For each primary target fault the engine runs PODEM, then statically
compacts by merging further faults into the same cube (PODEM under the
cube's care bits as constraints) until a run of merge failures, fills
the remaining don't-cares with the configured policy, and finally
fault-simulates pattern batches against the whole undetected universe
with fault dropping.

This reproduces the industrial behaviours the paper leans on:

* early patterns carry many merged targets, so they have *few* don't-care
  bits; later patterns are sparse (paper Section 3.1),
* random fill detects many faults fortuitously (fewer patterns, much
  more switching); fill-0 detects fewer per pattern (the paper's ~8 %
  pattern-count increase) but keeps untargeted logic quiet,
* coverage-vs-pattern-count curves (paper Figure 4) fall out of the
  recorded first-detection indexes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import AtpgError
from ..netlist.netlist import Netlist
from ..obs import current_telemetry
from .faults import (
    TransitionFault,
    build_fault_universe,
    collapse_faults,
    fault_block,
)
from .fill import (
    apply_fill,
    apply_per_block_fill,
    care_mask,
    preferred_fill_bits,
)
from .fsim import FaultSimulator, first_detection_index
from .patterns import Pattern, PatternSet
from .podem import PodemStatus, generate_test
from .twoframe import TwoFrameState


@dataclass
class AtpgResult:
    """Everything produced by one ATPG run."""

    pattern_set: PatternSet
    total_faults: int
    detected: Dict[TransitionFault, int]  # fault -> first-detect pattern
    aborted: List[TransitionFault]
    untestable: List[TransitionFault]
    inconsistent: List[TransitionFault] = field(default_factory=list)

    @property
    def n_patterns(self) -> int:
        return len(self.pattern_set)

    @property
    def fault_coverage(self) -> float:
        """Detected / total collapsed faults."""
        return len(self.detected) / max(1, self.total_faults)

    @property
    def test_coverage(self) -> float:
        """Detected / (total - proven untestable), TetraMAX-style."""
        denom = self.total_faults - len(self.untestable)
        return len(self.detected) / max(1, denom)

    def coverage_curve(self) -> List[Tuple[int, float]]:
        """Cumulative test coverage after each pattern (Figure 4 data)."""
        per_pattern = np.zeros(self.n_patterns, dtype=int)
        for first in self.detected.values():
            per_pattern[first] += 1
        denom = max(1, self.total_faults - len(self.untestable))
        cum = np.cumsum(per_pattern)
        return [(i, cum[i] / denom) for i in range(self.n_patterns)]


class AtpgEngine:
    """Reusable transition-fault ATPG bound to one design and domain."""

    def __init__(
        self,
        netlist: Netlist,
        domain: str,
        scan=None,
        protocol: str = "loc",
        backtrack_limit: int = 60,
        merge_backtrack_limit: int = 20,
        merge_fail_limit: int = 8,
        max_merge_per_pattern: int = 64,
        max_targets_per_block: Optional[int] = None,
        batch_size: int = 32,
        seed: int = 1,
        timing_aware: bool = False,
        delays=None,
        n_workers: Union[int, str, None] = 1,
    ):
        """``max_targets_per_block`` is the option the paper wished its
        ATPG had ("to limit the maximum number of faults targeted by a
        pattern in each block to keep the switching activity lower"):
        when set, cube merging stops accepting faults from a block once
        that block has that many targets in the pattern under
        construction.

        ``timing_aware`` steers PODEM's backtrace through late-arriving
        inputs (per a static delay analysis; pass ``delays`` to reuse a
        :class:`~repro.sim.delays.DelayModel`), so patterns exercise
        longer paths — countering the paper's observation that plain
        ATPG activates "easy-to-find paths rather than longer paths
        through the target fault sites".

        ``n_workers`` fans the per-batch fault simulation out across a
        process pool (chunked fault partitions; results bit-identical
        to serial); ``"auto"`` lets
        :func:`repro.perf.resilient.resolve_workers` pick serial or
        pool from the work size and usable cores."""
        if protocol == "los" and scan is None:
            raise AtpgError("LOS ATPG needs the scan configuration")
        if batch_size < 1:
            raise AtpgError("batch_size must be >= 1")
        for name, limit in (
            ("backtrack_limit", backtrack_limit),
            ("merge_backtrack_limit", merge_backtrack_limit),
        ):
            if limit < 0:
                raise AtpgError(f"{name} must be >= 0")
        self.netlist = netlist
        self.domain = domain
        self.scan = scan
        self.protocol = protocol
        self.backtrack_limit = backtrack_limit
        self.merge_backtrack_limit = merge_backtrack_limit
        self.merge_fail_limit = merge_fail_limit
        self.max_merge_per_pattern = max_merge_per_pattern
        self.max_targets_per_block = max_targets_per_block
        self.batch_size = batch_size
        self.n_workers = n_workers
        self.rng = np.random.default_rng(seed)
        self.state = TwoFrameState(netlist, domain, protocol=protocol,
                                   scan=scan)
        if timing_aware:
            if delays is None:
                from ..sim.delays import DelayModel

                delays = DelayModel(netlist)
            self.state.arrival = delays.static_arrivals_ns()
        self.fsim = FaultSimulator(netlist, domain)
        self._preferred_bits: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def run(
        self,
        faults: Optional[Sequence[TransitionFault]] = None,
        fill: str = "random",
        max_patterns: Optional[int] = None,
        shuffle: bool = True,
        start_index: int = 0,
        forced_bits: Optional[Dict[int, int]] = None,
        block_fill: Optional[Dict[str, str]] = None,
        n_detect: int = 1,
    ) -> AtpgResult:
        """Instrumented wrapper around :meth:`_run_impl` (see there for
        the parameter reference)."""
        tel = current_telemetry()
        with tel.span(
            "atpg.run", domain=self.domain, fill=fill, n_detect=n_detect
        ) as span:
            result = self._run_impl(
                faults=faults,
                fill=fill,
                max_patterns=max_patterns,
                shuffle=shuffle,
                start_index=start_index,
                forced_bits=forced_bits,
                block_fill=block_fill,
                n_detect=n_detect,
            )
            span.set(
                n_patterns=len(result.pattern_set),
                n_detected=len(result.detected),
            )
            tel.count("atpg.patterns_generated", len(result.pattern_set))
            tel.count("atpg.faults_detected", len(result.detected))
            tel.count("atpg.faults_aborted", len(result.aborted))
            tel.count("atpg.faults_untestable", len(result.untestable))
        return result

    def _run_impl(
        self,
        faults: Optional[Sequence[TransitionFault]] = None,
        fill: str = "random",
        max_patterns: Optional[int] = None,
        shuffle: bool = True,
        start_index: int = 0,
        forced_bits: Optional[Dict[int, int]] = None,
        block_fill: Optional[Dict[str, str]] = None,
        n_detect: int = 1,
    ) -> AtpgResult:
        """Generate a pattern set detecting the given fault list.

        Parameters
        ----------
        faults:
            Target faults (uncollapsed is fine); defaults to the full
            design universe.
        fill:
            Don't-care fill policy (see :mod:`repro.atpg.fill`).
        max_patterns:
            Safety cap on pattern count.
        shuffle:
            Randomise target order (reproducible via the engine seed).
        start_index:
            First pattern index (the staged flow concatenates runs).
        forced_bits:
            Scan bits constrained in *every* pattern (ATPG constraints —
            e.g. isolation enables held at 0).  Faults that cannot be
            tested under these constraints classify as untestable.
        block_fill:
            With ``fill="per-block"``, the per-block policy map (blocks
            absent from the map fill with 0) — the paper's "more ideal
            scenario" of mixing random fill in targeted blocks with
            quiet fill elsewhere.
        n_detect:
            Drop a fault only after it has been detected by at least
            this many patterns (N-detect: better collateral coverage of
            un-modelled defects at a pattern-count — and, relevant
            here, switching-activity — cost).
        """
        if n_detect < 1:
            raise AtpgError("n_detect must be >= 1")
        if faults is None:
            faults = build_fault_universe(self.netlist)
        reps, _mapping = collapse_faults(self.netlist, faults)
        if shuffle:
            perm = self.rng.permutation(len(reps))
            reps = [reps[i] for i in perm]

        pending: List[TransitionFault] = list(reps)
        pending_set = set(pending)
        detected: Dict[TransitionFault, int] = {}
        detect_counts: Dict[TransitionFault, int] = {}
        aborted: List[TransitionFault] = []
        untestable: List[TransitionFault] = []
        inconsistent: List[TransitionFault] = []
        pattern_set = PatternSet(self.domain, fill=fill)
        n_flops = self.netlist.n_flops
        next_index = start_index

        cursor = 0
        while pending and (
            max_patterns is None or len(pattern_set) < max_patterns
        ):
            batch: List[Pattern] = []
            batch_primaries: List[TransitionFault] = []
            tentative: set = set()

            while cursor < len(pending) and len(batch) < self.batch_size:
                primary = pending[cursor]
                cursor += 1
                if primary in tentative:
                    continue
                result = generate_test(
                    self.state, primary, forced_bits, self.backtrack_limit
                )
                if result.status is PodemStatus.ABORT:
                    aborted.append(primary)
                    pending_set.discard(primary)
                    continue
                if result.status is PodemStatus.UNTESTABLE:
                    untestable.append(primary)
                    pending_set.discard(primary)
                    continue
                cube = result.cube
                tentative.add(primary)
                cube, merged = self._merge_secondaries(
                    cube, pending, cursor, tentative, primary=primary
                )
                if fill == "per-block":
                    v1 = apply_per_block_fill(
                        cube, n_flops, self._flop_blocks(),
                        block_fill or {}, default_fill="0",
                        scan=self.scan, rng=self.rng,
                    )
                else:
                    v1 = apply_fill(
                        cube, n_flops, fill, self.scan, self.rng,
                        preferred=self._preferred(fill),
                    )
                pattern = Pattern(
                    index=next_index,
                    v1=v1,
                    care=care_mask(cube, n_flops),
                    domain=self.domain,
                    fill=fill,
                    targeted_faults=[f.net for f in [primary] + merged],
                )
                next_index += 1
                batch.append(pattern)
                batch_primaries.append(primary)
                if max_patterns is not None and (
                    len(pattern_set) + len(batch) >= max_patterns
                ):
                    break

            if not batch:
                break

            # Fault-simulate the batch against everything still pending.
            matrix = np.stack([p.v1 for p in batch])
            live = [f for f in pending if f in pending_set]
            words = self.fsim.run_batch(
                matrix, live, protocol=self.protocol, scan=self.scan,
                n_workers=self.n_workers,
            )
            base = len(pattern_set)
            for fault, word in words.items():
                if fault not in detected:
                    detected[fault] = (
                        base + first_detection_index(word) + start_index
                    )
                detect_counts[fault] = (
                    detect_counts.get(fault, 0) + bin(word).count("1")
                )
                if detect_counts[fault] >= n_detect:
                    pending_set.discard(fault)
            for pattern in batch:
                pattern_set.append(pattern)

            # Safeguard: a successfully-generated primary must be caught
            # by its own pattern; anything else marks a model bug but
            # must not hang the loop.  (Under N-detect a detected-but-
            # under-quota primary legitimately stays pending.)
            for primary in batch_primaries:
                if primary in pending_set and primary not in detected:
                    inconsistent.append(primary)
                    pending_set.discard(primary)

            pending = [f for f in pending if f in pending_set]
            cursor = 0

        return AtpgResult(
            pattern_set=pattern_set,
            total_faults=len(reps),
            detected=detected,
            aborted=aborted,
            untestable=untestable,
            inconsistent=inconsistent,
        )

    # ------------------------------------------------------------------
    def _flop_blocks(self) -> List[Optional[str]]:
        """Block of every scan cell (cached), for per-block fill."""
        cached = getattr(self, "_flop_blocks_cache", None)
        if cached is None:
            cached = [f.block for f in self.netlist.flops]
            self._flop_blocks_cache = cached
        return cached

    # ------------------------------------------------------------------
    def _preferred(self, fill: str) -> Optional[np.ndarray]:
        """Lazily computed preferred-fill bit table."""
        if fill != "preferred":
            return None
        if self._preferred_bits is None:
            self._preferred_bits = preferred_fill_bits(
                self.netlist, self.domain
            )
        return self._preferred_bits

    # ------------------------------------------------------------------
    def _merge_secondaries(
        self,
        cube: Dict[int, int],
        pending: Sequence[TransitionFault],
        cursor: int,
        tentative: set,
        primary: Optional[TransitionFault] = None,
    ) -> Tuple[Dict[int, int], List[TransitionFault]]:
        """Static compaction: pack more faults into one cube.

        Returns the grown cube and the list of merged secondary faults.
        With ``max_targets_per_block`` set, candidates from a block that
        already holds its quota of targets in this pattern are skipped
        (without counting as merge failures) — the paper's wished-for
        power-limiting ATPG option.  A candidate the cube already blocks
        (its frame-1 site value defeats activation or its good frame-2
        value defeats the launch) counts as a failure without a PODEM
        call: values only refine, so that call could not succeed.
        """
        fails = 0
        merged = 1
        merged_faults: List[TransitionFault] = []
        idx = cursor
        block_counts: Dict[Optional[str], int] = {}
        cap = self.max_targets_per_block
        if cap is not None and primary is not None:
            block = fault_block(self.netlist, primary)
            block_counts[block] = 1
        while (
            fails < self.merge_fail_limit
            and merged < self.max_merge_per_pattern
            and idx < len(pending)
        ):
            candidate = pending[idx]
            idx += 1
            if candidate in tentative:
                continue
            if cap is not None:
                block = fault_block(self.netlist, candidate)
                if block_counts.get(block, 0) >= cap:
                    continue
            if self.state.blocked_under(cube, candidate):
                fails += 1
                continue
            result = generate_test(
                self.state, candidate, cube, self.merge_backtrack_limit
            )
            if result.success:
                cube = result.cube
                tentative.add(candidate)
                merged_faults.append(candidate)
                merged += 1
                fails = 0
                if cap is not None:
                    block = fault_block(self.netlist, candidate)
                    block_counts[block] = block_counts.get(block, 0) + 1
            else:
                fails += 1
        return cube, merged_faults
