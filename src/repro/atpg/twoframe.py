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
frame 2 is evaluated once there and written to both.  Every trail entry
names the container it wrote to, so undo is ``container[key] = old``
with no dispatch on the entry's kind.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from ..errors import AtpgError
from ..netlist.levelize import levelize
from ..netlist.netlist import Netlist
from .faults import TransitionFault
from .values import MAX_TABLE_ARITY, X, truth_table


class _KeyRemover:
    """Trail target that undoes an insertion: ``r[key] = old`` removes
    *key* from the wrapped dict or set."""

    __slots__ = ("_remove",)

    def __init__(self, remove: Callable[[int], Any]):
        self._remove = remove

    def __setitem__(self, key: int, _old: int) -> None:
        self._remove(key)


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
        self._cone: FrozenSet[int] = frozenset()
        self.f1: List[int] = []
        self.g2: List[int] = []
        self.f2: List[int] = []
        self.v1: Dict[int, int] = {}
        self.d_nets: set = set()
        self._v1_undo = _KeyRemover(self.v1.__delitem__)
        self._d_undo = _KeyRemover(self.d_nets.discard)
        self._trail: List[Tuple[Any, int, int]] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def set_fault(self, fault: TransitionFault) -> None:
        """Reset all state and install *fault* (forced in frame 2)."""
        self.fault = fault
        site = self._site = fault.net
        self._cone = self.fanout_cone(site)
        self.f1 = list(self._base)
        self.g2 = list(self._base2)
        self.f2 = list(self._base2)
        self.v1.clear()
        self.d_nets.clear()
        self._trail = []
        # Force the faulty machine's stem; re-derive its fanout cone in f2.
        stuck = fault.initial_value
        if self.f2[site] != stuck:
            self.f2[site] = stuck
            self._check_d(site)
            self._propagate_faulty(site)

    def fanout_cone(self, site: int) -> FrozenSet[int]:
        """*site* plus the output of every gate in its combinational
        transitive fanout: the only nets where the faulty frame 2 can
        differ from the good one."""
        out = self._gate_out
        return frozenset(
            [site]
            + [out[gi] for gi in self.netlist.transitive_fanout_gates(site)]
        )

    def mark(self) -> int:
        """Current trail position; pass to :meth:`undo_to`."""
        return len(self._trail)

    def undo_to(self, mark: int) -> None:
        """Roll back every write made after *mark*."""
        trail = self._trail
        if len(trail) > mark:
            for target, key, old in reversed(trail[mark:]):
                target[key] = old
            del trail[mark:]

    # ------------------------------------------------------------------
    # assignment + implication
    # ------------------------------------------------------------------
    def assign(self, flop: int, bit: int) -> None:
        """Assign scan bit V1[flop] and imply both frames."""
        if flop in self.v1:
            raise AtpgError(f"flop {flop} already assigned")
        self._trail.append((self._v1_undo, flop, X))
        self.v1[flop] = bit

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
        self._trail.append((self.f1, q, self.f1[q]))
        self.f1[q] = bit
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
        g2, f2 = self.g2, self.f2
        changed = False
        if g2[net] != val:
            self._trail.append((g2, net, g2[net]))
            g2[net] = val
            changed = True
        if net != self._site and f2[net] != val:
            self._trail.append((f2, net, f2[net]))
            f2[net] = val
            changed = True
        if changed:
            self._check_d(net)
            seeds2.append(net)

    def _check_d(self, net: int) -> None:
        g, f = self.g2[net], self.f2[net]
        if g != X and f != X and g != f and net not in self.d_nets:
            self.d_nets.add(net)
            self._trail.append((self._d_undo, net, 0))

    # The propagation loops iterate a list while appending to it: a FIFO
    # queue in visit order, identical to the breadth-first deque order.
    # Implication is monotone (values only refine from X), so a gate
    # whose output is already defined cannot change and is not
    # evaluated.
    def _propagate1(self, queue: List[int], seeds2: List[int]) -> None:
        f1 = self.f1
        push = self._trail.append
        records = self._fanout_records
        launch_qs = self._launch_qs
        for net in queue:
            for out, tbl, a, b, c, d in records[net]:
                if f1[out] != X:
                    continue
                new = tbl[f1[a] + 3 * f1[b] + 9 * f1[c] + 27 * f1[d]]
                if new != X:
                    push((f1, out, X))
                    f1[out] = new
                    for launch_q in launch_qs[out]:
                        self._write2(launch_q, new, seeds2)
                    queue.append(out)

    def _propagate2(self, queue: List[int]) -> None:
        g2, f2 = self.g2, self.f2
        push = self._trail.append
        records = self._fanout_records
        cone = self._cone
        site = self._site
        d_nets = self.d_nets
        d_undo = self._d_undo
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
                        push((f2, out, X))
                        f2[out] = f
                        if g != f and out not in d_nets:
                            d_nets.add(out)
                            push((d_undo, out, 0))
                        queue.append(out)
                    continue
                g = tbl[g2[a] + 3 * g2[b] + 9 * g2[c] + 27 * g2[d]]
                if out not in cone:
                    # Outside the fault cone f2 == g2: one evaluation
                    # serves both machines, and there is never a D.
                    if g != X:
                        push((g2, out, X))
                        push((f2, out, X))
                        g2[out] = f2[out] = g
                        queue.append(out)
                    continue
                changed = False
                if g != X:
                    push((g2, out, X))
                    g2[out] = g
                    changed = True
                f = f2[out]
                if f == X and out != site:
                    f = tbl[f2[a] + 3 * f2[b] + 9 * f2[c] + 27 * f2[d]]
                    if f != X:
                        push((f2, out, X))
                        f2[out] = f
                        changed = True
                if changed:
                    if g != X and f != X and g != f and out not in d_nets:
                        d_nets.add(out)
                        push((d_undo, out, 0))
                    queue.append(out)

    def _propagate_faulty(self, site: int) -> None:
        """Re-derive the faulty frame 2 below a newly forced stem.

        The stem may flip between defined values, so this pass is not
        monotone and evaluates every gate it reaches.  A reconvergent net
        can pass through a D and settle back; its ``d_nets`` entry stays
        (:meth:`d_frontier` still offers its fanout), which is why
        :meth:`detected` checks values.
        """
        f2 = self.f2
        push = self._trail.append
        records = self._fanout_records
        queue = [site]
        for net in queue:
            for out, tbl, a, b, c, d in records[net]:
                new = tbl[f2[a] + 3 * f2[b] + 9 * f2[c] + 27 * f2[d]]
                if new != f2[out]:
                    push((f2, out, f2[out]))
                    f2[out] = new
                    self._check_d(out)
                    queue.append(out)

    # ------------------------------------------------------------------
    # status queries
    # ------------------------------------------------------------------
    def activation_value(self) -> int:
        """Frame-1 value at the fault stem (X if still free)."""
        return self.f1[self.fault.net]

    def activated(self) -> bool:
        return self.f1[self.fault.net] == self.fault.initial_value

    def activation_blocked(self) -> bool:
        v = self.f1[self.fault.net]
        return v != X and v != self.fault.initial_value

    def launch_blocked(self) -> bool:
        """True when the good frame 2 can no longer drive the transition."""
        v = self.g2[self.fault.net]
        return v != X and v != self.fault.final_value

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
