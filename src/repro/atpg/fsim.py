"""Cone-restricted parallel-pattern fault simulation with dropping.

Good-machine simulation is bit-parallel over the whole batch (one packed
word per net); each fault then re-simulates only its fanout cone with
the stem forced to the stuck value, and a fault is detected under the
patterns where (a) frame 1 sets the stem to the initial value and
(b) the faulty frame-2 value differs from the good one at a capture
(pulsed-flop D) net.

Three throughput layers sit on top of the plain cone walk:

* **activation-restricted divergence** — the faulty machine only needs
  to diverge on patterns that both activate the fault and toggle the
  stem in frame 2 (detection is masked by activation anyway), so faults
  whose stem never toggles under activation skip simulation entirely;
* **compiled cone kernels** — each fault site's cone is code-generated
  once into a straight-line Python function of pure bigint ops (classic
  compiled-code simulation: no dicts, no per-gate calls) that returns
  the capture-net difference word directly;
* :meth:`run_batch` — arbitrary pattern counts split into fixed-width
  *lanes* (cheap machine-word bigint ops instead of one enormous word),
  optional fault dropping between lanes, and optional fault-partitioned
  fan-out across a process pool (each worker rebuilds the simulator
  once — warm-loading compiled kernels from the persistent
  :mod:`repro.perf.kernel_cache` the parent populated — good-simulates
  every lane once, then grades its fault chunks against the memoized
  frames; ``n_workers="auto"`` defers the serial/pool call to
  :func:`repro.perf.resilient.resolve_workers`).
"""

from __future__ import annotations

import types
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import AtpgError
from ..netlist.levelize import levelize
from ..netlist.netlist import Netlist
from ..obs import current_telemetry
from ..perf.kernel_cache import (
    KernelCache,
    current_kernel_cache,
    netlist_fingerprint,
)
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

#: Sentinel distinguishing "not compiled yet" from "no capture in cone".
_UNCOMPILED = object()


def _kind_expr(kind: str, args: List[str]) -> str:
    """Bigint expression for one cell kind over already-masked operands.

    Must match :data:`repro.netlist.cells.CELL_FUNCTIONS` bit for bit;
    non-inverting kinds skip the ``& mask`` because their operands are
    already masked.
    """
    if kind == "INV":
        return f"~{args[0]} & mask"
    if kind in ("BUF", "CLKBUF"):
        return args[0]
    if kind.startswith("AND"):
        return " & ".join(args)
    if kind.startswith("NAND"):
        return f"~({' & '.join(args)}) & mask"
    if kind.startswith("OR"):
        return " | ".join(args)
    if kind.startswith("NOR"):
        return f"~({' | '.join(args)}) & mask"
    if kind == "XOR2":
        return f"{args[0]} ^ {args[1]}"
    if kind == "XNOR2":
        return f"~({args[0]} ^ {args[1]}) & mask"
    if kind == "MUX2":
        d0, d1, sel = args
        return f"({d0} & ~{sel}) | ({d1} & {sel})"
    if kind == "AOI21":
        a, b, c = args
        return f"~(({a} & {b}) | {c}) & mask"
    if kind == "OAI21":
        a, b, c = args
        return f"~(({a} | {b}) & {c}) & mask"
    if kind == "TIE0":
        return "0"
    if kind == "TIE1":
        return "mask"
    raise AtpgError(f"no kernel expression for cell kind {kind!r}")


class FaultSimulator:
    """Reusable LOC transition-fault simulator for one clock domain.

    The simulator uses the persistent compiled-kernel cache
    (:mod:`repro.perf.kernel_cache`) that is ambient when it is built,
    so cone kernels compiled once for a netlist are warm-loaded from
    disk by every later simulator — including pool workers — for that
    netlist.  Build it inside ``use_kernel_cache(None)`` to disable
    caching for this instance.
    """

    def __init__(self, netlist: Netlist, domain: str):
        self.netlist = netlist
        self.domain = domain
        self.sim = LogicSim(netlist)
        netlist.freeze()
        _order, levels = levelize(netlist)
        self._level_of_gate = levels
        self.capture_nets = frozenset(
            netlist.flops[fi].d for fi in netlist.pulsed_flops(domain)
        )
        if not self.capture_nets:
            raise AtpgError(f"domain {domain!r} has no capturing flops")
        self._cone_cache: Dict[int, Optional[Callable]] = {}
        self._cone_gates_cache: Dict[
            int, Tuple[Tuple[int, ...], Tuple[int, ...]]
        ] = {}
        self._kcache: Optional[KernelCache] = current_kernel_cache()
        self._kcache_key: Optional[str] = None
        self._ktable: Optional[Dict] = None  # loaded disk entry
        self._dirty_sites: set = set()  # compiled since last store

    # ------------------------------------------------------------------
    # persistent kernel cache plumbing
    # ------------------------------------------------------------------
    def _kernel_key(self) -> str:
        if self._kcache_key is None:
            self._kcache_key = self._kcache.entry_key(
                netlist_fingerprint(self.netlist), self.domain
            )
        return self._kcache_key

    def _kernel_table(self) -> Dict:
        """The on-disk kernel table for this netlist (loaded once)."""
        if self._ktable is None:
            self._ktable = (
                (self._kcache.load(self._kernel_key()) or {})
                if self._kcache is not None
                else {}
            )
        return self._ktable

    def _adopt_cached(self, site: int) -> bool:
        """Install *site*'s kernel from the disk table, if present."""
        entry = self._kernel_table().get(site)
        if entry is None:
            return False
        try:
            captures, gates, code = entry
            self._cone_gates_cache[site] = (tuple(gates), tuple(captures))
            self._cone_cache[site] = (
                types.FunctionType(code, {}) if code is not None else None
            )
        except (TypeError, ValueError):  # malformed entry -> recompile
            self._kernel_table().pop(site, None)
            return False
        return True

    def save_kernels(self) -> None:
        """Persist kernels compiled since the last store (no-op when
        clean or uncached)."""
        if not self._dirty_sites or self._kcache is None:
            return
        table = dict(self._kernel_table())
        for site in self._dirty_sites:
            gates, captures = self._cone_gates_cache[site]
            kernel = self._cone_cache.get(site)
            table[site] = (
                captures,
                gates,
                kernel.__code__ if kernel is not None else None,
            )
        self._kcache.store(self._kernel_key(), table)
        self._ktable = table
        self._dirty_sites.clear()

    def warm_kernels(self, faults: Sequence[TransitionFault]) -> int:
        """Ensure every fault site's kernel is compiled, then persist.

        Returns the number of sites compiled fresh (0 = fully warm).
        Called before fanning out to a pool so workers always find a
        warm disk cache instead of each paying the compile tax.
        """
        before = len(self._dirty_sites)
        for fault in faults:
            self._cone(fault.net)
        compiled = len(self._dirty_sites) - before
        self.save_kernels()
        return compiled

    def cone_of(self, site: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Structural fanout cone of a fault site.

        Returns ``(gate indices in level order, capture nets
        reachable)`` — the raw topology behind the compiled kernels,
        also used by diagnosis for per-endpoint resolution and cone
        filtering.
        """
        cached = self._cone_gates_cache.get(site)
        if cached is not None:
            return cached
        if (
            self._kcache is not None
            and self._adopt_cached(site)
        ):
            return self._cone_gates_cache[site]
        netlist = self.netlist
        gates = netlist.transitive_fanout_gates(site)
        gates.sort(key=self._level_of_gate.__getitem__)
        nets = {site}
        nets.update(netlist.gates[gi].output for gi in gates)
        result = (tuple(gates), tuple(sorted(nets & self.capture_nets)))
        self._cone_gates_cache[site] = result
        return result

    def _cone(self, site: int) -> Optional[Callable[[int, Dict, int], int]]:
        """Compiled cone kernel for one fault site (``None`` when the
        cone reaches no capture net).

        ``kernel(site_div, good_frame2, mask)`` propagates the stem
        divergence word through the site's whole fanout cone in level
        order and returns the OR of capture-net difference words.  The
        cone is generated once into straight-line bigint code — every
        gate is one expression over local variables (cone nets) and
        ``g2[...]`` lookups (side inputs), with no per-gate dispatch.
        Compiled code objects round-trip through the persistent
        :class:`~repro.perf.kernel_cache.KernelCache`, so a warm
        netlist skips codegen and ``compile()`` entirely.
        """
        kernel = self._cone_cache.get(site, _UNCOMPILED)
        if kernel is not _UNCOMPILED:
            return kernel
        if self._kcache is not None and self._adopt_cached(site):
            return self._cone_cache[site]
        netlist = self.netlist
        gates, captures = self.cone_of(site)
        if not captures:
            self._cone_cache[site] = None
            self._dirty_sites.add(site)
            return None
        lines = [
            "def _kernel(sdiv, g2, mask):",
            f"    v{site} = g2[{site}] ^ sdiv",
        ]
        defined = {site}
        for gi in gates:
            g = netlist.gates[gi]
            args = [
                f"v{p}" if p in defined else f"g2[{p}]" for p in g.inputs
            ]
            lines.append(f"    v{g.output} = {_kind_expr(g.kind, args)}")
            defined.add(g.output)
        diff = " | ".join(f"(v{c} ^ g2[{c}])" for c in captures)
        lines.append(f"    return {diff}")
        namespace: Dict[str, Callable] = {}
        exec(  # noqa: S102 — code built only from int net ids / cell kinds
            compile("\n".join(lines), f"<fsim-cone-{site}>", "exec"),
            namespace,
        )
        kernel = namespace["_kernel"]
        self._cone_cache[site] = kernel
        self._dirty_sites.add(site)
        return kernel

    def _lane_frames(
        self,
        lane_matrix: np.ndarray,
        protocol: str,
        scan,
        v2_lane: Optional[np.ndarray],
    ) -> Tuple[List[int], List[int], int]:
        """Good-machine ``(frame1, frame2, mask)`` for one pattern lane."""
        if v2_lane is not None and v2_lane.shape != lane_matrix.shape:
            raise AtpgError("v2_matrix must match v1_matrix")
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
        """Kernel loop: detection words for *faults* on settled frames."""
        cone = self._cone
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
            # toggles under activation skips the cone entirely.  The
            # detection word is bit-identical either way because it is
            # masked by activation regardless.
            site_div = (g2[site] ^ forced) & act
            if site_div == 0:
                continue
            kernel = cone(site)
            if kernel is None:
                continue
            det = kernel(site_div, g2, mask)
            if det:
                detections[fault] = det
        return detections

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
        if v1_matrix.ndim != 2:
            raise AtpgError("v1_matrix must be (n_patterns, n_flops)")
        if v1_matrix.shape[1] != self.netlist.n_flops:
            raise AtpgError(
                f"v1_matrix covers {v1_matrix.shape[1]} flops, design has "
                f"{self.netlist.n_flops}"
            )
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
            through its initializer's arguments, rebuilds the simulator
            once from the warm kernel cache, good-simulates every lane
            once, then grades its fault chunks against the settled
            frames).  ``<= 1`` stays serial in-process; ``"auto"`` lets
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
                # Pay the compile tax once, here, and persist: workers
                # warm-load marshalled kernels from disk instead of each
                # re-running codegen + compile() over the whole design.
                if self._kcache is not None:
                    self.warm_kernels(faults)
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
            self.save_kernels()
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

    The simulator warm-loads its kernels from the persistent cache the
    parent just populated, and the good machine is simulated over every
    lane *once* — fault chunks then grade against the memoized settled
    frames instead of re-running the good machine per chunk.
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
