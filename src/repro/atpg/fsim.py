"""Event-driven parallel-pattern fault simulation with dropping.

Good-machine simulation is bit-parallel over the whole batch (one packed
word per net); each fault then walks only the gates its divergence
reaches, and a fault is detected under the patterns where (a) frame 1
sets the stem to the initial value and (b) the faulty frame-2 value
differs from the good one at a capture (pulsed-flop D) net.

Three throughput layers keep that cheap:

* **activation-restricted divergence** — the faulty machine only needs
  to diverge on patterns that both activate the fault and toggle the
  stem in frame 2 (detection is masked by activation anyway), so faults
  whose stem never toggles under activation skip simulation entirely;
* **event-driven divergence walk** — starting from the stem's
  divergence word, gates are popped in level order from a heap and
  evaluated only when one of their inputs diverges, through per-gate
  tables built once per simulator (no code generation, no cache); the
  walk ends when the difference dies out or reaches no further load
  that can reach a capture net;
* :meth:`run_batch` — arbitrary pattern counts split into fixed-width
  *lanes* (cheap machine-word bigint ops instead of one enormous word),
  optional fault dropping between lanes, and optional fault-partitioned
  fan-out across a process pool (each worker builds the simulator
  once, good-simulates every lane once, then grades its fault chunks
  against the memoized frames; ``n_workers="auto"`` defers the
  serial/pool call to :func:`repro.perf.resilient.resolve_workers`).
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import AtpgError
from ..netlist.cells import CELL_FUNCTIONS
from ..netlist.levelize import levelize
from ..netlist.netlist import Netlist
from ..obs import current_telemetry
from ..perf.resilient import (
    FSIM_FAULT_PATTERNS_PER_S,
    chunked,
    resilient_map,
    resolve_workers,
)
from ..sim.logic import LogicSim, launch_capture, pack_matrix
from .faults import TransitionFault

#: Default lane width for :meth:`FaultSimulator.run_batch` — one
#: machine word, so packed bigints stay in CPython's fast small-int
#: paths instead of multi-limb arithmetic.
DEFAULT_LANE_WIDTH = 64


def _pin_reader(pins: Tuple[int, ...]) -> Callable[[List[int]], Sequence[int]]:
    """``reader(values)`` -> the values on *pins*, as a sequence.

    ``itemgetter`` of one index returns the bare item, so a gate with
    fewer than two pins reads a slice instead.
    """
    if len(pins) >= 2:
        return itemgetter(*pins)
    return itemgetter(slice(pins[0], pins[0] + 1) if pins else slice(0, 0))


class FaultSimulator:
    """Reusable LOC transition-fault simulator for one clock domain."""

    def __init__(self, netlist: Netlist, domain: str):
        self.netlist = netlist
        self.domain = domain
        self.sim = LogicSim(netlist)
        netlist.freeze()
        order, levels = levelize(netlist)
        self._level_of_gate = levels
        self.capture_nets = frozenset(
            netlist.flops[fi].d for fi in netlist.pulsed_flops(domain)
        )
        if not self.capture_nets:
            raise AtpgError(f"domain {domain!r} has no capturing flops")
        self._cone_gates_cache: Dict[
            int, Tuple[Tuple[int, ...], Tuple[int, ...]]
        ] = {}

        # Divergence-walk tables.  A gate is one record (evaluator,
        # input-pin reader, output net); its heap key level * n_gates +
        # gate pops drivers before loads, and ``key % n_gates`` recovers
        # the gate.
        gates = netlist.gates
        n_gates = len(gates)
        self._records = [
            (CELL_FUNCTIONS[g.kind], _pin_reader(g.inputs), g.output)
            for g in gates
        ]
        self._is_capture = [False] * netlist.n_nets
        for net in self.capture_nets:
            self._is_capture[net] = True
        # One reverse-level sweep marks the nets whose divergence can
        # reach a capture net; a load that cannot is never walked.
        observable = list(self._is_capture)
        for gi in reversed(order):
            if observable[gates[gi].output]:
                for net in gates[gi].inputs:
                    observable[net] = True
        # Sorted, so a site's load tuple is already a valid heap.
        self._loads: List[Tuple[int, ...]] = [
            tuple(sorted({
                levels[gi] * n_gates + gi
                for gi, _pin in netlist.gate_fanouts_of(net)
                if observable[gates[gi].output]
            }))
            for net in range(netlist.n_nets)
        ]

    def warm_kernels(self, faults: Sequence[TransitionFault]) -> int:
        """Compile nothing and return 0.

        The walk needs no per-site preparation.  The method remains
        only because the ledger's set-up (``benchmarks/ledger``) still
        calls it; the ledger change listed as item 4 in ``ROADMAP.md``
        removes that call, and then this method.
        """
        return 0

    def cone_of(self, site: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Structural fanout cone of a fault site.

        Returns ``(gate indices in level order, capture nets
        reachable)`` — used by diagnosis for per-endpoint resolution
        and cone filtering, and by the whole-cone reference simulations
        the tests and benchmarks compare against.
        """
        cached = self._cone_gates_cache.get(site)
        if cached is not None:
            return cached
        netlist = self.netlist
        gates = netlist.transitive_fanout_gates(site)
        gates.sort(key=self._level_of_gate.__getitem__)
        nets = {site}
        nets.update(netlist.gates[gi].output for gi in gates)
        result = (tuple(gates), tuple(sorted(nets & self.capture_nets)))
        self._cone_gates_cache[site] = result
        return result

    def _divergence(
        self, site: int, site_div: int, g2: List[int], mask: int
    ) -> int:
        """OR of capture-net differences when *site* diverges by *site_div*.

        The faulty values are written into the good frame *g2* in place
        and every write is undone before returning, also when an
        evaluation raises, so *g2* always leaves as it came in.
        """
        records = self._records
        loads = self._loads
        is_capture = self._is_capture
        n_gates = len(records)
        written = [(site, g2[site])]
        heap = list(loads[site])
        last = -1
        try:
            g2[site] ^= site_div
            det = site_div if is_capture[site] else 0
            while heap:
                key = heappop(heap)
                if key == last:  # pushed by more than one diverging input
                    continue
                last = key
                fn, read_pins, out = records[key % n_gates]
                good = g2[out]
                val = fn(read_pins(g2), mask)
                if val != good:
                    written.append((out, good))
                    g2[out] = val
                    if is_capture[out]:
                        det |= val ^ good
                    for load in loads[out]:
                        heappush(heap, load)
        finally:
            for net, good in written:
                g2[net] = good
        return det

    def _lane_frames(
        self,
        lane_matrix: np.ndarray,
        protocol: str,
        scan,
        v2_lane: Optional[np.ndarray],
    ) -> Tuple[List[int], List[int], int]:
        """Good-machine ``(frame1, frame2, mask)`` for one pattern lane."""
        packed, mask = pack_matrix(lane_matrix)
        cyc = launch_capture(
            self.sim, packed, self.domain, protocol, scan=scan,
            v2=None if v2_lane is None else pack_matrix(v2_lane)[0],
            mask=mask,
        )
        return cyc.frame1, cyc.frame2, mask

    def _grade_lane(
        self,
        f1: List[int],
        g2: List[int],
        mask: int,
        faults: Sequence[TransitionFault],
    ) -> Dict[TransitionFault, int]:
        """Detection words for *faults* on one lane's settled frames.

        *g2* is left exactly as it came in, also when grading raises:
        pool workers grade every chunk, and every retry, against the
        same memoized frames.
        """
        divergence = self._divergence
        detections: Dict[TransitionFault, int] = {}
        for fault in faults:
            site = fault.net
            if fault.initial_value == 1:
                act = f1[site] & mask
                forced = mask
            else:
                act = ~f1[site] & mask
                forced = 0
            if act == 0:
                continue
            # Only activated patterns can detect, so the faulty machine
            # needs to diverge only where frame 1 activates AND frame 2
            # actually drives the transition the fault is slow to make;
            # divergence words stay sparse and a fault whose stem never
            # toggles under activation skips the walk entirely.  The
            # detection word is bit-identical either way because it is
            # masked by activation regardless.
            site_div = (g2[site] ^ forced) & act
            if site_div == 0:
                continue
            det = divergence(site, site_div, g2, mask)
            if det:
                detections[fault] = det
        return detections

    def _check_matrices(
        self, v1_matrix: np.ndarray, v2_matrix: Optional[np.ndarray]
    ) -> None:
        """Raise unless V1 is ``(n_patterns, n_flops)`` and V2, when
        given, has V1's shape."""
        if v1_matrix.ndim != 2:
            raise AtpgError("v1_matrix must be (n_patterns, n_flops)")
        if v1_matrix.shape[1] != self.netlist.n_flops:
            raise AtpgError(
                f"v1_matrix covers {v1_matrix.shape[1]} flops, design has "
                f"{self.netlist.n_flops}"
            )
        if v2_matrix is not None and np.shape(v2_matrix) != v1_matrix.shape:
            raise AtpgError("v2_matrix must match v1_matrix")

    def run(
        self,
        v1_matrix: np.ndarray,
        faults: Sequence[TransitionFault],
        protocol: str = "loc",
        scan=None,
        v2_matrix: Optional[np.ndarray] = None,
    ) -> Dict[TransitionFault, int]:
        """Simulate a single-lane pattern batch; return detection words.

        Bit *p* of the returned word is set when pattern *p* (row *p* of
        *v1_matrix*) detects the fault.  Undetected faults are omitted.
        For large batches prefer :meth:`run_batch`, which splits the
        patterns into machine-word lanes.

        Parameters
        ----------
        protocol:
            Launch mechanism: ``"loc"`` (default, V2 = functional
            response), ``"los"`` (V2 = V1 shifted one chain position;
            pass *scan*), or ``"es"`` (V2 explicit; pass *v2_matrix*).
        """
        self._check_matrices(v1_matrix, v2_matrix)
        f1, g2, mask = self._lane_frames(v1_matrix, protocol, scan, v2_matrix)
        return self._grade_lane(f1, g2, mask, faults)

    def run_batch(
        self,
        v1_matrix: np.ndarray,
        faults: Sequence[TransitionFault],
        protocol: str = "loc",
        scan=None,
        v2_matrix: Optional[np.ndarray] = None,
        lane_width: int = DEFAULT_LANE_WIDTH,
        drop: bool = False,
        n_workers: Union[int, str, None] = 1,
    ) -> Dict[TransitionFault, int]:
        """Fault-simulate an arbitrarily large batch in fixed-width lanes.

        Detection-word bits are indexed by the *global* pattern row, so
        with ``drop=False`` the result is bit-identical to a single
        :meth:`run` over the whole matrix — lanes are purely a speed
        lever (machine-word bigints, activation skips per lane).

        Parameters
        ----------
        lane_width:
            Patterns per lane (default one machine word).  With
            ``drop=True`` narrow lanes pay off (dropped faults skip all
            later lanes); without dropping a wide lane amortises the
            per-fault setup better.
        drop:
            Drop a fault after its first detecting lane: later lanes
            skip it, so its word only carries that lane's detections.
            The set of detected faults and each fault's first-detection
            index are unchanged; use it when only those matter
            (coverage grading), not when counting detections per fault.
        n_workers:
            Fan the fault list out across a process pool in chunked
            partitions (each worker receives the pattern matrices
            through its initializer's arguments, builds the simulator
            once, good-simulates every lane once, then grades its fault
            chunks against the settled frames).  ``<= 1`` stays serial
            in-process; ``"auto"`` lets
            :func:`repro.perf.resilient.resolve_workers` pick serial or
            pool from the work size and usable cores.  The pooled path's
            timeouts, retries and crash recovery follow the ambient
            :func:`repro.perf.resilient.execution_policy`.
        """
        v1_matrix = np.asarray(v1_matrix)
        if v1_matrix.ndim != 2:
            raise AtpgError("v1_matrix must be (n_patterns, n_flops)")
        if lane_width <= 0:
            raise AtpgError("lane_width must be positive")
        n_pat = v1_matrix.shape[0]
        faults = list(faults)
        if n_pat == 0 or not faults:
            return {}
        # Checked once, before any lane or worker starts, so the pooled
        # path rejects what the serial one rejects.
        self._check_matrices(v1_matrix, v2_matrix)

        tel = current_telemetry()
        eff = resolve_workers(
            n_workers,
            len(faults),
            est_serial_s=n_pat * len(faults) / FSIM_FAULT_PATTERNS_PER_S,
        )
        with tel.span(
            "fsim.run_batch",
            domain=self.domain,
            n_patterns=n_pat,
            n_faults=len(faults),
            workers=eff,
            drop=drop,
        ):
            tel.count("fsim.faults_graded", len(faults))
            if eff > 1:
                # Chunked fault partitions; a few chunks per worker
                # keeps the load balanced when cone sizes are skewed.
                chunks = chunked(faults, eff * 4)
                results = resilient_map(
                    _fsim_worker_task,
                    chunks,
                    n_workers=eff,
                    initializer=_fsim_worker_init,
                    initargs=(
                        self.netlist,
                        self.domain,
                        v1_matrix,
                        protocol,
                        scan,
                        v2_matrix,
                        lane_width,
                        drop,
                    ),
                )
                merged: Dict[TransitionFault, int] = {}
                for part in results:
                    merged.update(part)
                tel.count("fsim.faults_detected", len(merged))
                return merged

            detections: Dict[TransitionFault, int] = {}
            live = faults
            for start in range(0, n_pat, lane_width):
                if not live:
                    break
                lane = v1_matrix[start:start + lane_width]
                v2_lane = (
                    v2_matrix[start:start + lane_width]
                    if v2_matrix is not None
                    else None
                )
                with tel.span("fsim.lane", start=start, live=len(live)):
                    words = self.run(
                        lane, live, protocol=protocol, scan=scan,
                        v2_matrix=v2_lane,
                    )
                for fault, word in words.items():
                    prev = detections.get(fault)
                    detections[fault] = (
                        word << start
                        if prev is None
                        else prev | (word << start)
                    )
                if drop and words:
                    live = [f for f in live if f not in detections]
            tel.count("fsim.faults_detected", len(detections))
            if drop:
                tel.count("fsim.faults_dropped", len(faults) - len(live))
            return detections


#: Per-worker simulator context installed by :func:`_fsim_worker_init`.
_FSIM_WORKER_STATE: Optional[Tuple] = None


def _fsim_worker_init(
    netlist: Netlist,
    domain: str,
    v1: np.ndarray,
    protocol: str,
    scan,
    v2: Optional[np.ndarray],
    lane_width: int,
    drop: bool,
) -> None:
    """Build the per-worker grading context, once per worker process.

    The good machine is simulated over every lane *once* — fault chunks
    then grade against the memoized settled frames instead of re-running
    the good machine per chunk.
    """
    global _FSIM_WORKER_STATE
    sim = FaultSimulator(netlist, domain)
    frames: List[Tuple[int, List[int], List[int], int]] = []
    for start in range(0, v1.shape[0], lane_width):
        lane = v1[start:start + lane_width]
        v2_lane = v2[start:start + lane_width] if v2 is not None else None
        f1, g2, mask = sim._lane_frames(lane, protocol, scan, v2_lane)
        frames.append((start, f1, g2, mask))
    _FSIM_WORKER_STATE = (sim, frames, drop)


def _fsim_worker_task(
    fault_chunk: Sequence[TransitionFault],
) -> Dict[TransitionFault, int]:
    """Grade one fault partition against every lane (runs in a worker)."""
    sim, frames, drop = _FSIM_WORKER_STATE
    detections: Dict[TransitionFault, int] = {}
    live = list(fault_chunk)
    for start, f1, g2, mask in frames:
        if not live:
            break
        words = sim._grade_lane(f1, g2, mask, live)
        for fault, word in words.items():
            prev = detections.get(fault)
            detections[fault] = (
                word << start if prev is None else prev | (word << start)
            )
        if drop and words:
            live = [f for f in live if f not in detections]
    return detections


def first_detection_index(word: int) -> int:
    """Lowest pattern index set in a detection word."""
    if word <= 0:
        raise AtpgError("detection word has no set bits")
    return (word & -word).bit_length() - 1
