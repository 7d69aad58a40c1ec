"""Bit-parallel zero-delay logic simulation.

Net values for a whole batch of patterns are packed into Python
arbitrary-precision integers (bit *k* of a net's word is the net's value
under pattern *k*), so one pass over the levelised gate list simulates
every pattern in the batch simultaneously.  This is the engine behind
launch-state computation, fault simulation and coverage measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import SimulationError
from ..netlist.cells import CELL_FUNCTIONS
from ..netlist.levelize import levelize
from ..netlist.netlist import Netlist


def pack_matrix(matrix: np.ndarray) -> Tuple[Dict[int, int], int]:
    """Pack an ``(n_patterns, n_columns)`` bit matrix into words.

    Bit *p* of column *c*'s word is set when ``matrix[p, c]`` is
    non-zero — the packed form every bit-parallel engine consumes.
    Vectorised: :func:`numpy.packbits` lays each column out as little-
    endian bytes and ``int.from_bytes`` lifts them to Python bigints,
    so the Python-level work is one cheap call per column instead of
    one branch per (pattern, column) pair.

    Returns ``(column -> word, mask)`` with ``mask = (1 << n_patterns)
    - 1``.
    """
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise SimulationError("pack_matrix needs an (n_patterns, n_cols) matrix")
    n_pat, n_cols = m.shape
    mask = (1 << n_pat) - 1
    if n_pat == 0 or n_cols == 0:
        return {c: 0 for c in range(n_cols)}, mask
    bits = (m != 0).astype(np.uint8, copy=False)
    # (ceil(n_pat / 8), n_cols): byte k of a column covers patterns
    # 8k..8k+7, bit p-within-byte = pattern p (little bit order).
    col_bytes = np.packbits(bits, axis=0, bitorder="little").T
    col_bytes = np.ascontiguousarray(col_bytes)
    from_bytes = int.from_bytes
    return (
        {c: from_bytes(col_bytes[c].tobytes(), "little") for c in range(n_cols)},
        mask,
    )


class LogicSim:
    """Reusable zero-delay simulator bound to one netlist.

    The levelised evaluation order and per-gate function pointers are
    computed once; each call then runs in one linear pass.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        netlist.freeze()
        order, _ = levelize(netlist)
        # Pre-resolve function pointers and connectivity into flat lists.
        self._fns = [CELL_FUNCTIONS[netlist.gates[gi].kind] for gi in order]
        self._ins = [netlist.gates[gi].inputs for gi in order]
        self._outs = [netlist.gates[gi].output for gi in order]

    def propagate(self, values: List[int], mask: int) -> List[int]:
        """Evaluate all gates in place given source nets already set.

        ``values`` is indexed by net id and must hold the packed words of
        every primary input and flop Q net; the combinational interior is
        overwritten.  Returns ``values`` for chaining.
        """
        fns = self._fns
        ins = self._ins
        outs = self._outs
        for i in range(len(fns)):
            pins = ins[i]
            values[outs[i]] = fns[i]([values[p] for p in pins], mask)
        return values

    def blank_values(self) -> List[int]:
        """A zeroed value array sized for this netlist."""
        return [0] * self.netlist.n_nets

    def run(
        self,
        flop_q: Mapping[int, int],
        pi: Optional[Mapping[int, int]] = None,
        mask: int = 1,
    ) -> List[int]:
        """Simulate the combinational logic from a register/PI state.

        Parameters
        ----------
        flop_q:
            Packed Q value per flop index.  Flops not mentioned default
            to 0.
        pi:
            Packed value per primary-input *net id*; defaults to 0
            (the paper holds primary inputs constant during test).
        mask:
            ``(1 << n_patterns) - 1``.
        """
        values = self.blank_values()
        for fi, word in flop_q.items():
            values[self.netlist.flops[fi].q] = word & mask
        if pi:
            for net, word in pi.items():
                values[net] = word & mask
        return self.propagate(values, mask)

    def next_state(self, values: Sequence[int]) -> Dict[int, int]:
        """Read every flop's D net from a settled value array."""
        return {
            fi: values[f.d] for fi, f in enumerate(self.netlist.flops)
        }


@dataclass(frozen=True)
class LocCycle:
    """All artefacts of one launch-to-capture cycle (batched).

    ``frame1`` / ``frame2`` are full net-value arrays; ``launch_state``
    is the per-flop state after the launch edge; ``captured`` is the
    response captured by the pulsed-domain flops at the capture edge.
    """

    frame1: List[int]
    frame2: List[int]
    launch_state: Dict[int, int]
    captured: Dict[int, int]
    pulsed_flops: Tuple[int, ...]


def los_shift(
    v1: Mapping[int, int],
    scan,
    scan_in_bits: Optional[Mapping[int, int]] = None,
) -> Dict[int, int]:
    """The launch-off-shift launch state: V1 shifted one chain position.

    During the last shift *every* scan cell shifts, whatever its clock
    domain: each cell takes its upstream neighbour's value and the
    scan-in end of chain *c* takes ``scan_in_bits[c]`` (default 0).
    Works on single bits and packed words alike; flops *v1* omits
    read 0.
    """
    shifted: Dict[int, int] = {}
    for chain in scan.chains:
        for pos, fi in enumerate(chain.flops):
            if pos == 0:
                shifted[fi] = (
                    scan_in_bits.get(chain.index, 0) if scan_in_bits else 0
                )
            else:
                shifted[fi] = v1.get(chain.flops[pos - 1], 0)
    return shifted


def launch_capture(
    sim: LogicSim,
    v1: Mapping[int, int],
    domain: str,
    protocol: str = "loc",
    *,
    scan=None,
    v2: Optional[Mapping[int, int]] = None,
    pi: Optional[Mapping[int, int]] = None,
    mask: int = 1,
) -> LocCycle:
    """Simulate the launch-to-capture cycle for a batch of patterns.

    V1 is the shifted-in scan state (packed words; ``mask=1`` for one
    pattern) and frame 1 settles from it.  The launch edge then sets
    the launch state by *protocol*:

    * ``"loc"`` — launch-off-capture: the pulsed flops of *domain*
      (:meth:`~repro.netlist.netlist.Netlist.pulsed_flops`) capture
      their functional D input; every other flop holds V1,
    * ``"los"`` — launch-off-shift: every scan cell takes V1 shifted
      one position along its chain (:func:`los_shift`; pass *scan*),
    * ``"es"`` — enhanced scan: every flop in the explicit *v2* takes
      its V2 word.

    Flops the launch does not set hold V1.  Frame 2 settles from the
    launch state and the capture edge loads the pulsed flops with the
    response.

    Raises
    ------
    SimulationError
        If the domain has no pulsed flop, the protocol is unknown, LOS
        lacks *scan* or ES lacks *v2*.
    """
    netlist = sim.netlist
    pulsed = netlist.pulsed_flops(domain)
    if not pulsed:
        raise SimulationError(f"no flops in clock domain {domain!r}")
    frame1 = sim.run(v1, pi, mask)
    if protocol == "loc":
        launched: Mapping[int, int] = {
            fi: frame1[netlist.flops[fi].d] for fi in pulsed
        }
    elif protocol == "los":
        if scan is None:
            raise SimulationError("launch-off-shift needs the scan config")
        launched = los_shift(v1, scan)
    elif protocol == "es":
        if v2 is None:
            raise SimulationError("enhanced scan needs an explicit v2")
        launched = v2
    else:
        raise SimulationError(f"unknown launch protocol {protocol!r}")
    launch_state = dict(v1)
    for fi, word in launched.items():
        launch_state[fi] = word & mask
    frame2 = sim.run(launch_state, pi, mask)
    captured = {fi: frame2[netlist.flops[fi].d] & mask for fi in pulsed}
    return LocCycle(frame1, frame2, launch_state, captured, pulsed)


def loc_launch_capture(
    sim: LogicSim,
    v1: Mapping[int, int],
    domain: str,
    pi: Optional[Mapping[int, int]] = None,
    mask: int = 1,
) -> LocCycle:
    """The paper's launch-off-capture cycle: :func:`launch_capture`
    with ``protocol="loc"``."""
    return launch_capture(sim, v1, domain, pi=pi, mask=mask)


class LaneFrames:
    """Per-pattern frames of one bit-parallel launch/capture lane.

    One :func:`launch_capture` pass over a ``(width, n_flops)`` lane of
    at most 64 patterns (bit *p* of the packed words is row *p*); a
    single pattern is a lane of one.  Row *p* of each matrix is pattern
    *p*: ``frame1`` holds its frame-1 value on every net, ``launch`` the
    launch state of the pulsed ``flops`` and ``toggling`` which of
    those flops change Q at the launch edge — the launch events of a
    timing simulation and the seeds of every static bound.
    """

    def __init__(
        self,
        sim: LogicSim,
        lane: np.ndarray,
        domain: str,
        protocol: str = "loc",
        *,
        scan=None,
        v2_lane: Optional[np.ndarray] = None,
    ):
        packed, mask = pack_matrix(lane)
        v2 = None if v2_lane is None else pack_matrix(v2_lane)[0]
        cycle = launch_capture(
            sim, packed, domain, protocol, scan=scan, v2=v2, mask=mask
        )
        self.width = lane.shape[0]
        self.flops = cycle.pulsed_flops
        self.frame1 = self._unpack(cycle.frame1)
        self.launch = self._unpack(
            [cycle.launch_state[fi] for fi in self.flops]
        )
        q_nets = np.array(
            [sim.netlist.flops[fi].q for fi in self.flops], dtype=np.intp
        )
        self.toggling = self.launch != self.frame1[:, q_nets]

    def _unpack(self, words: Sequence[int]) -> np.ndarray:
        """Bit *p* of every word as row *p* of a 0/1 uint8 matrix."""
        as_bytes = np.array(words, dtype="<u8").view(np.uint8)
        bits = np.unpackbits(
            as_bytes.reshape(-1, 8), axis=1, bitorder="little"
        )
        return np.ascontiguousarray(bits[:, : self.width].T)

    def frame1_of(self, p: int) -> List[int]:
        return self.frame1[p].tolist()

    def launch_of(self, p: int) -> Dict[int, int]:
        return dict(zip(self.flops, self.launch[p].tolist()))

    def seeds_of(self, p: int) -> Set[int]:
        return {
            fi
            for fi, toggles in zip(self.flops, self.toggling[p].tolist())
            if toggles
        }
