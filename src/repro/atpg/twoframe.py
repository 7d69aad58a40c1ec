"""Two-time-frame incremental implication engine for LOC test generation.

The launch-off-capture pattern pair is modelled as two copies of the
combinational logic:

* **frame 1** settles from the shifted-in scan state V1 (the decision
  variables),
* the launch edge loads every *pulsed-domain* flop with its frame-1 D
  value (other domains hold V1),
* **frame 2** settles from that launch state; the good machine (``g2``)
  and the faulty machine (``f2`` — fault stem forced to the stuck value)
  are maintained side by side, so a net is a *D net* when its two
  frame-2 values are defined and differ.

The engine is incremental: assigning one scan bit propagates three-valued
values only through the affected cones, and every write lands on a trail
so PODEM can backtrack in O(changes).

Implication is table driven.  Each gate is one record ``(output, truth
table, in0, in1, in2, in3)``: its output value is a single index into
the base-3 :func:`~repro.atpg.values.truth_table` of its kind, and the
input slots a gate does not use point at a pad net that always reads 0.
The value lists ``f1``/``g2``/``f2`` therefore hold ``n_nets + 1``
entries, the last being that pad.  Outside the fault site's
transitive-fanout cone the faulty machine always equals the good one, so
frame 2 is evaluated once there and written to both.

Every write PODEM can undo takes a value from X (implication only
refines), so each container keeps its own trail of written nets (or
flops): ``f1``, ``g2``, ``f2``, ``g2`` and ``f2`` together outside the
cone, ``v1`` and ``d_nets``.  A mark is the trails' lengths, and undo
writes X back, deletes ``v1`` keys and discards ``d_nets`` entries,
newest first.  The one non-monotone pass, forcing the fault stem in
:meth:`TwoFrameState.set_fault`, runs before any mark and is not
trailed.

The state also keeps one snapshot of ``f1``/``g2`` under the last full
cube it held (after a PODEM success and after replaying a base cube).
Neither frame depends on the fault, so the snapshot screens merge
candidates (:meth:`TwoFrameState.blocked_under`) and installs a fault
under that cube without replaying it (:meth:`TwoFrameState.load`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..errors import AtpgError
from ..netlist.levelize import levelize
from ..netlist.netlist import Netlist
from .faults import TransitionFault
from .values import MAX_TABLE_ARITY, X, truth_table

#: How PODEM's backtrace steers an objective through a gate (the
#: state's ``steer`` table holds one class per gate).
STEER_DIRECT = 0  # BUF, AND*, OR*: drive an X input to the objective
STEER_INVERT = 1  # INV, NAND*, NOR*: drive an X input to its inverse
STEER_XOR = 2
STEER_XNOR = 3
STEER_MUX = 4
STEER_AOI = 5  # AOI21 / OAI21: drive C (else an X input) to the inverse
STEER_NONE = 6  # TIE cells: nothing to drive

#: Trail-length tuple returned by :meth:`TwoFrameState.mark`.
Mark = Tuple[int, int, int, int, int, int]


def _steer_class(kind: str) -> int:
    """The ``STEER_*`` class of a cell kind."""
    if kind in ("BUF", "CLKBUF") or kind.startswith(("AND", "OR")):
        return STEER_DIRECT
    if kind == "INV" or kind.startswith(("NAND", "NOR")):
        return STEER_INVERT
    return {
        "XOR2": STEER_XOR,
        "XNOR2": STEER_XNOR,
        "MUX2": STEER_MUX,
        "AOI21": STEER_AOI,
        "OAI21": STEER_AOI,
    }.get(kind, STEER_NONE)


def _settle(vals: List[int], order, records) -> None:
    """Evaluate every gate once in topological *order* into *vals*."""
    for gi in order:
        out, tbl, a, b, c, d = records[gi]
        vals[out] = tbl[vals[a] + 3 * vals[b] + 9 * vals[c] + 27 * vals[d]]


class TwoFrameState:
    """Three-valued two-frame circuit state with trail-based undo.

    ``protocol`` selects the launch mechanism:

    * ``"loc"`` (default) — broadside: a pulsed flop's frame-2 Q is its
      own frame-1 D value (the functional response),
    * ``"los"`` — skewed-load: *every* scan flop's frame-2 Q is its
      upstream chain neighbour's V1 bit (the last shift); chain heads
      take the scan-in value 0.  Requires the scan configuration.

    Capture is identical in both: the positive-edge flops of *domain*
    observe their frame-2 D values.
    """

    def __init__(
        self,
        netlist: Netlist,
        domain: str,
        protocol: str = "loc",
        scan=None,
    ):
        if protocol not in ("loc", "los"):
            raise AtpgError(
                f"two-frame ATPG supports 'loc' and 'los', not {protocol!r}"
            )
        if protocol == "los" and scan is None:
            raise AtpgError("LOS test generation needs the scan config")
        self.netlist = netlist
        self.domain = domain
        self.protocol = protocol
        netlist.freeze()
        n = netlist.n_nets
        flops = netlist.flops
        gates = netlist.gates

        self.pulsed: Tuple[int, ...] = netlist.pulsed_flops(domain)
        if not self.pulsed:
            raise AtpgError(f"domain {domain!r} has no flops")
        self._pulsed_set = set(self.pulsed)
        self._flop_q = tuple(f.q for f in flops)

        # LOC: D-net -> frame-2 Q nets of the pulsed flops loading it
        # (launch-state link).
        self._launch_qs: List[Tuple[int, ...]] = [()] * n
        if protocol == "loc":
            loads: Dict[int, List[int]] = {}
            for fi in self.pulsed:
                loads.setdefault(flops[fi].d, []).append(flops[fi].q)
            for net, qs in loads.items():
                self._launch_qs[net] = tuple(qs)

        # LOS: per-flop chain neighbours (every scan cell shifts during
        # the launch shift, whatever its domain).
        self.los_upstream: Dict[int, Optional[int]] = {}
        self._los_downstream: Dict[int, int] = {}
        if protocol == "los":
            for chain in scan.chains:
                for pos, fi in enumerate(chain.flops):
                    if pos == 0:
                        self.los_upstream[fi] = None  # scan-in end
                    else:
                        up = chain.flops[pos - 1]
                        self.los_upstream[fi] = up
                        self._los_downstream[up] = fi

        # Capture observation points: D nets of pulsed flops.
        self.capture_nets: Tuple[int, ...] = tuple(
            sorted({flops[fi].d for fi in self.pulsed})
        )
        self._capture_set = frozenset(self.capture_nets)

        # Flattened gate tables.  Implication reads one record per gate
        # (output, truth table, four input slots padded with net n).
        self._gate_ins = [g.inputs for g in gates]
        self._gate_out = [g.output for g in gates]
        self._fanout_gates: List[Tuple[int, ...]] = [
            tuple(gi for gi, _pin in netlist.gate_fanouts_of(net))
            for net in range(n)
        ]
        pad = (n,) * MAX_TABLE_ARITY
        records = [
            (g.output, truth_table(g.kind, len(g.inputs)))
            + (tuple(g.inputs) + pad)[:MAX_TABLE_ARITY]
            for g in gates
        ]
        self._fanout_records = [
            tuple(records[gi] for gi in fanout)
            for fanout in self._fanout_gates
        ]

        # Backtrace tables: each net's driving gate / flop (-1 if none).
        self._net_gate = [-1] * n
        self._net_flop = [-1] * n
        for net in range(n):
            drv = netlist.driver_of(net)
            if drv is not None and drv[0] == "gate":
                self._net_gate[net] = drv[1]
            elif drv is not None and drv[0] == "flop":
                self._net_flop[net] = drv[1]
        #: Backtrace steering class (``STEER_*``) of every gate.
        self.steer: List[int] = [_steer_class(g.kind) for g in gates]

        # Static observability distance: gates to the nearest capture
        # net along the fanout graph (inf when a net cannot reach one).
        # Guides D-frontier selection and prunes dead frontiers.
        inf = float("inf")
        obs = [inf] * n
        for net in self.capture_nets:
            obs[net] = 0.0
        order, _ = levelize(netlist)
        # Iterate in reverse topological order so each gate sees its
        # output's final distance before its inputs are relaxed.
        for gi in reversed(order):
            out_d = obs[gates[gi].output]
            if out_d + 1.0 < inf:
                for p in gates[gi].inputs:
                    if out_d + 1.0 < obs[p]:
                        obs[p] = out_d + 1.0
        self.obs_dist = obs

        # Baseline (constants-only) implied state, computed once.
        base = [X] * n + [0]
        for net in netlist.primary_inputs:
            base[net] = 0  # PIs held constant low during test
        _settle(base, order, records)
        self._base = base

        # Frame-2 baseline: constants plus whatever launch-state values
        # are already determined with no V1 assignment — for LOC the
        # pulsed flops whose frame-1 D is fixed by the constant primary
        # inputs, for LOS the chain heads (scan-in is 0).
        base2 = list(base)
        if protocol == "loc":
            for fi in self.pulsed:
                d_val = base[flops[fi].d]
                if d_val != X:
                    base2[flops[fi].q] = d_val
        else:
            for fi, up in self.los_upstream.items():
                if up is None:
                    base2[flops[fi].q] = 0
        _settle(base2, order, records)
        self._base2 = base2

        #: Optional per-net static arrival estimate (ns).  When set,
        #: PODEM's backtrace prefers late-arriving inputs, steering
        #: activation/propagation through *long* paths — the
        #: timing-aware mode addressing the paper's observation that
        #: plain ATPG exercises easy (short) paths.
        self.arrival = None

        # Per-fault mutable state (populated by set_fault).
        self.fault: Optional[TransitionFault] = None
        self._site = -1
        self._cone = bytearray()  # 1 at each net of the fault's cone
        self.f1: List[int] = []
        self.g2: List[int] = []
        self.f2: List[int] = []
        self.v1: Dict[int, int] = {}
        self.d_nets: set = set()
        # Undo trails, one per container (see the module docstring).
        # Cleared in place, never rebound, so _trails stays current.
        self._f1_trail: List[int] = []
        self._g2_trail: List[int] = []
        self._f2_trail: List[int] = []
        self._both_trail: List[int] = []  # g2 and f2, outside the cone
        self._v1_trail: List[int] = []
        self._d_trail: List[int] = []
        self._trails = (
            self._f1_trail, self._g2_trail, self._f2_trail,
            self._both_trail, self._v1_trail, self._d_trail,
        )
        #: ``(cube, f1, g2)``: copies of both frames under the last
        #: full cube held (see :meth:`keep_snapshot`).
        self._snapshot: Optional[
            Tuple[Dict[int, int], List[int], List[int]]
        ] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def set_fault(self, fault: TransitionFault) -> None:
        """Reset all state and install *fault* (forced in frame 2)."""
        self._install(fault, self._base, self._base2, {})

    def load(
        self, fault: TransitionFault, base: Optional[Dict[int, int]]
    ) -> None:
        """Install *fault* and assign every bit of *base*, in its order.

        Equivalent to :meth:`set_fault` followed by :meth:`assign` of
        each base bit.  When the snapshot holds *base* and the site's
        good frame-2 value is X under it, the fault installs from the
        snapshot instead: with the site unlaunched, every net whose good
        value is defined has the same faulty value (implication is
        monotone), so no net carries a D and the replay would leave
        ``d_nets`` empty too.  Replaying any other base refreshes the
        snapshot.
        """
        snap = self._snapshot
        held = bool(base) and snap is not None and snap[0] == base
        if held and snap[2][fault.net] == X:
            self._install(fault, snap[1], snap[2], base)
            return
        self.set_fault(fault)
        if base:
            for flop, bit in base.items():
                self.assign(flop, bit)
            if not held:
                self.keep_snapshot()

    def _install(
        self,
        fault: TransitionFault,
        f1: List[int],
        g2: List[int],
        v1: Dict[int, int],
    ) -> None:
        """Copy the frames *f1*/*g2* implied by the cube *v1*, force
        *fault*'s stem in the faulty frame 2 and empty every trail."""
        self.fault = fault
        site = self._site = fault.net
        self._cone = self._cone_flags(site)
        self.f1 = list(f1)
        self.g2 = list(g2)
        self.f2 = list(g2)
        self.v1.clear()
        self.v1.update(v1)
        self.d_nets.clear()
        # Force the faulty machine's stem; re-derive its fanout cone in f2.
        stuck = fault.initial_value
        if self.f2[site] != stuck:
            self.f2[site] = stuck
            self._check_d(site)
            self._propagate_faulty(site)
        for trail in self._trails:
            trail.clear()

    def keep_snapshot(self) -> None:
        """Remember ``f1``/``g2`` under the current cube (copies)."""
        self._snapshot = (dict(self.v1), list(self.f1), list(self.g2))

    def blocked_under(
        self, base: Dict[int, int], fault: TransitionFault
    ) -> bool:
        """True when the snapshot holds *base* and shows *fault*
        activation-blocked (frame-1 site value defined and not the
        initial value) or launch-blocked (good frame-2 value defined and
        not the final value).  Values only refine, so PODEM under *base*
        cannot succeed for such a fault."""
        snap = self._snapshot
        if snap is None or snap[0] != base:
            return False
        site = fault.net
        v = snap[1][site]
        if v != X and v != fault.initial_value:
            return True
        v = snap[2][site]
        return v != X and v != fault.final_value

    def fanout_cone(self, site: int) -> FrozenSet[int]:
        """*site* plus the output of every gate in its combinational
        transitive fanout: the only nets where the faulty frame 2 can
        differ from the good one."""
        return frozenset(
            net for net, flag in enumerate(self._cone_flags(site)) if flag
        )

    def _cone_flags(self, site: int) -> bytearray:
        """The fanout cone of *site* as one flag per net (and the pad)."""
        cone = bytearray(self.netlist.n_nets + 1)
        cone[site] = 1
        fanout, gate_out = self._fanout_gates, self._gate_out
        stack = [site]
        while stack:
            for gi in fanout[stack.pop()]:
                out = gate_out[gi]
                if not cone[out]:
                    cone[out] = 1
                    stack.append(out)
        return cone

    def mark(self) -> Mark:
        """Current trail lengths; pass to :meth:`undo_to`."""
        return (
            len(self._f1_trail), len(self._g2_trail), len(self._f2_trail),
            len(self._both_trail), len(self._v1_trail), len(self._d_trail),
        )

    def undo_to(self, mark: Mark) -> None:
        """Roll back every write made after *mark*, newest first."""
        m_f1, m_g2, m_f2, m_both, m_v1, m_d = mark
        f1, g2, f2 = self.f1, self.g2, self.f2
        trail = self._f1_trail
        if len(trail) > m_f1:
            for net in reversed(trail[m_f1:]):
                f1[net] = X
            del trail[m_f1:]
        trail = self._g2_trail
        if len(trail) > m_g2:
            for net in reversed(trail[m_g2:]):
                g2[net] = X
            del trail[m_g2:]
        trail = self._f2_trail
        if len(trail) > m_f2:
            for net in reversed(trail[m_f2:]):
                f2[net] = X
            del trail[m_f2:]
        trail = self._both_trail
        if len(trail) > m_both:
            for net in reversed(trail[m_both:]):
                g2[net] = f2[net] = X
            del trail[m_both:]
        trail = self._v1_trail
        if len(trail) > m_v1:
            v1 = self.v1
            for flop in reversed(trail[m_v1:]):
                del v1[flop]
            del trail[m_v1:]
        trail = self._d_trail
        if len(trail) > m_d:
            discard = self.d_nets.discard
            for net in reversed(trail[m_d:]):
                discard(net)
            del trail[m_d:]

    # ------------------------------------------------------------------
    # assignment + implication
    # ------------------------------------------------------------------
    def assign(self, flop: int, bit: int) -> None:
        """Assign scan bit V1[flop] and imply both frames."""
        if flop in self.v1:
            raise AtpgError(f"flop {flop} already assigned")
        self.v1[flop] = bit
        self._v1_trail.append(flop)

        q = self._flop_q[flop]
        seeds2: List[int] = []
        if self.protocol == "loc":
            if flop not in self._pulsed_set:
                # Held domain / masked cell: frame-2 Q equals V1.
                self._write2(q, bit, seeds2)
        else:
            # LOS: this V1 bit shifts into the downstream neighbour; a
            # flop off every chain (none in generated designs) holds.
            down = self._los_downstream.get(flop)
            if down is not None:
                self._write2(self._flop_q[down], bit, seeds2)
            if flop not in self.los_upstream:
                self._write2(q, bit, seeds2)
        self.f1[q] = bit
        self._f1_trail.append(q)
        for launch_q in self._launch_qs[q]:
            self._write2(launch_q, bit, seeds2)
        self._propagate1([q], seeds2)
        self._propagate2(seeds2)

    def frame2_source(self, flop: int):
        """How a flop's frame-2 Q is determined (backtrace hook).

        Returns ``("f1net", net)`` when the flop launches its frame-1 D
        value (LOC pulsed flop), ``("v1", flop')`` when it equals a scan
        decision variable, or ``None`` when it is a constant (the LOS
        scan-in head).
        """
        if self.protocol == "loc":
            if flop in self._pulsed_set:
                return ("f1net", self.netlist.flops[flop].d)
            return ("v1", flop)
        if flop in self.los_upstream:
            up = self.los_upstream[flop]
            if up is None:
                return None  # chain head takes the constant scan-in bit
            return ("v1", up)
        return ("v1", flop)

    def _write2(self, net: int, val: int, seeds2: List[int]) -> None:
        # Frame-2 Q nets: X until launched (or constant from the start).
        g2, f2 = self.g2, self.f2
        changed = False
        if g2[net] != val:
            g2[net] = val
            self._g2_trail.append(net)
            changed = True
        if net != self._site and f2[net] != val:
            f2[net] = val
            self._f2_trail.append(net)
            changed = True
        if changed:
            self._check_d(net)
            seeds2.append(net)

    def _check_d(self, net: int) -> None:
        g, f = self.g2[net], self.f2[net]
        if g != X and f != X and g != f and net not in self.d_nets:
            self.d_nets.add(net)
            self._d_trail.append(net)

    # The propagation loops iterate a list while appending to it: a FIFO
    # queue in visit order, identical to the breadth-first deque order.
    # Implication is monotone (values only refine from X), so a gate
    # whose output is already defined cannot change and is not
    # evaluated.
    def _propagate1(self, queue: List[int], seeds2: List[int]) -> None:
        f1 = self.f1
        trail = self._f1_trail.append
        records = self._fanout_records
        launch_qs = self._launch_qs
        for net in queue:
            for out, tbl, a, b, c, d in records[net]:
                if f1[out] != X:
                    continue
                new = tbl[f1[a] + 3 * f1[b] + 9 * f1[c] + 27 * f1[d]]
                if new != X:
                    f1[out] = new
                    trail(out)
                    if launch_qs[out]:
                        for launch_q in launch_qs[out]:
                            self._write2(launch_q, new, seeds2)
                    queue.append(out)

    def _propagate2(self, queue: List[int]) -> None:
        g2, f2 = self.g2, self.f2
        g2_trail = self._g2_trail.append
        f2_trail = self._f2_trail.append
        both_trail = self._both_trail.append
        d_trail = self._d_trail.append
        records = self._fanout_records
        cone = self._cone
        site = self._site
        d_nets = self.d_nets
        for net in queue:
            for out, tbl, a, b, c, d in records[net]:
                g = g2[out]
                if g != X:
                    if f2[out] != X:
                        continue
                    # Only the faulty machine is open here, which puts
                    # the gate inside the cone (and not at the site,
                    # whose faulty value is forced).
                    f = tbl[f2[a] + 3 * f2[b] + 9 * f2[c] + 27 * f2[d]]
                    if f != X:
                        f2[out] = f
                        f2_trail(out)
                        if g != f and out not in d_nets:
                            d_nets.add(out)
                            d_trail(out)
                        queue.append(out)
                    continue
                g = tbl[g2[a] + 3 * g2[b] + 9 * g2[c] + 27 * g2[d]]
                if not cone[out]:
                    # Outside the fault cone f2 == g2: one evaluation
                    # serves both machines, and there is never a D.
                    if g != X:
                        g2[out] = f2[out] = g
                        both_trail(out)
                        queue.append(out)
                    continue
                changed = False
                if g != X:
                    g2[out] = g
                    g2_trail(out)
                    changed = True
                f = f2[out]
                if f == X and out != site:
                    f = tbl[f2[a] + 3 * f2[b] + 9 * f2[c] + 27 * f2[d]]
                    if f != X:
                        f2[out] = f
                        f2_trail(out)
                        changed = True
                if changed:
                    if g != X and f != X and g != f and out not in d_nets:
                        d_nets.add(out)
                        d_trail(out)
                    queue.append(out)

    def _propagate_faulty(self, site: int) -> None:
        """Re-derive the faulty frame 2 below a newly forced stem.

        The stem may flip between defined values, so this pass is not
        monotone and evaluates every gate it reaches; it runs only while
        a fault is installed, before any mark, and is not trailed.  A
        reconvergent net can pass through a D and settle back; its
        ``d_nets`` entry stays (:meth:`d_frontier` still offers its
        fanout), which is why :meth:`detected` checks values.
        """
        f2 = self.f2
        records = self._fanout_records
        queue = [site]
        for net in queue:
            for out, tbl, a, b, c, d in records[net]:
                new = tbl[f2[a] + 3 * f2[b] + 9 * f2[c] + 27 * f2[d]]
                if new != f2[out]:
                    f2[out] = new
                    self._check_d(out)
                    queue.append(out)

    # ------------------------------------------------------------------
    # status queries
    # ------------------------------------------------------------------
    def activated(self) -> bool:
        return self.f1[self.fault.net] == self.fault.initial_value

    def detected(self) -> bool:
        """Fault effect captured: activated and D at a capture D net.

        Every D net is in ``d_nets``, so only capture nets in it are
        checked.  The check is still needed: forcing the stem in
        :meth:`set_fault` is not monotone, and a reconvergent net can
        glitch to a D and back, leaving a ``d_nets`` entry with no D.
        """
        if not self.activated():
            return False
        g2, f2 = self.g2, self.f2
        for net in self.d_nets.intersection(self._capture_set):
            g, f = g2[net], f2[net]
            if g != X and f != X and g != f:
                return True
        return False

    def d_frontier(self) -> List[int]:
        """Gates with a D input and an undetermined composite output."""
        frontier: List[int] = []
        g2, f2 = self.g2, self.f2
        for net in self.d_nets:
            for gi in self._fanout_gates[net]:
                out = self._gate_out[gi]
                if g2[out] == X or f2[out] == X:
                    frontier.append(gi)
        return frontier

    def cube(self) -> Dict[int, int]:
        """The current care-bit assignment (V1 scan bits)."""
        return dict(self.v1)
