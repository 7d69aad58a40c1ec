"""The SCAP calculator — the paper's Figure 5 flow as working code.

The paper plugs a PLI routine into Synopsys VCS gate-level timing
simulation: it watches every net transition inside the launch-to-capture
window, charges the instance's extracted output capacitance, tracks the
switching time frame window and reports per-pattern SCAP without writing
VCD files.  :class:`ScapCalculator` is the same measurement loop built
on our own simulators:

``design (netlist) + patterns  ->  event-driven timing simulation
+ extracted parasitics (C_i)   ->  per-pattern power profile``

Every transition inside the window counts, hazards included: the
calculator simulates with the design's nominal
:class:`~repro.sim.delays.DelayModel` at :data:`~repro.config.VDD_NOMINAL`.

It also returns the raw :class:`~repro.sim.event.TimingResult` when the
caller needs arrivals (endpoint delays, dynamic IR-drop).

Throughput: :meth:`ScapCalculator.profile_patterns` grades a whole
pattern set at once — the launch-to-capture logic simulation runs
bit-parallel over machine-word lanes (so its cost is amortised across
the lane instead of paid twice per pattern) and per-pattern timing
simulations optionally fan out across a process pool.  One pattern is a
lane of one: :meth:`ScapCalculator.simulate_pattern` and
:meth:`ScapCalculator.profile_pattern` run the same lane code on a
single row, so every path is bit-exact with every other.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..atpg.patterns import pattern_rows
from ..errors import ConfigError
from ..obs import current_telemetry
from ..perf.resilient import (
    SCAP_S_PER_PATTERN,
    chunk_slices,
    resilient_map,
    resolve_workers,
)
from ..sim.delays import DelayModel
from ..sim.event import EventTimingSim, TimingResult, build_launch_events
from ..sim.logic import LaneFrames, LogicSim
from ..soc.design import SocDesign
from .scap import PatternPowerProfile

#: Lane width for batched grading: one machine word keeps the packed
#: bigints in CPython's fast small-int paths and lets the per-pattern
#: frame extraction vectorise through uint64 numpy shifts.
MAX_LANE_WIDTH = 64


class ScapCalculator:
    """Per-pattern SCAP measurement for one design + clock domain."""

    def __init__(self, design: SocDesign, domain: Optional[str] = None):
        self.design = design
        self.domain = domain if domain is not None else design.dominant_domain()
        if self.domain not in design.domains:
            raise ConfigError(f"unknown domain {self.domain!r}")
        self.period_ns = design.domains[self.domain].period_ns

        netlist = design.netlist
        self.logic = LogicSim(netlist)
        self.delays = DelayModel(netlist, design.parasitics)
        #: The nominal event simulator; IR-scaled re-simulation reruns
        #: it under scaled delays (:meth:`EventTimingSim.with_delays`).
        self.event_sim = EventTimingSim(
            netlist, self.delays, design.parasitics
        )

        # Launch-edge clock arrival per pulsed flop.
        tree = design.clock_trees[self.domain]
        self.launch_time: Dict[int, float] = {
            fi: tree.insertion_delay_ns(fi)
            for fi in netlist.pulsed_flops(self.domain)
        }

        # Everything that changes a simulation result: the validation
        # checkpoint keys its chunks on it, so a resumed screening never
        # reuses profiles graded under another design or setting.
        self.checkpoint_context = (
            netlist.name,
            netlist.n_nets,
            netlist.n_gates,
            netlist.n_flops,
            self.domain,
            round(self.period_ns, 9),
        )

    # ------------------------------------------------------------------
    def simulate_pattern(
        self,
        v1: Any,
        record_trace: bool = False,
        protocol: str = "loc",
        v2: Any = None,
    ) -> TimingResult:
        """Timing-simulate one pattern's launch-to-capture cycle.

        *v1* is a v1 dict or a :class:`~repro.atpg.patterns.Pattern`;
        the pattern runs as a lane of one through :meth:`lane_frames`.
        ``protocol`` selects the launch mechanism: ``"loc"`` (default),
        ``"los"`` (V2 = V1 shifted along the scan chains; the design
        must carry a scan config) or ``"es"`` (explicit ``v2``, in the
        same form as *v1*).
        """
        n_flops = self.design.netlist.n_flops
        row = pattern_rows([v1], n_flops)[1]
        v2_row = None if v2 is None else pattern_rows([v2], n_flops)[1]
        return self.simulate_lane(
            self.lane_frames(row, protocol, v2_row), 0, record_trace
        )

    def lane_frames(
        self,
        lane: np.ndarray,
        protocol: str = "loc",
        v2_lane: Optional[np.ndarray] = None,
    ) -> LaneFrames:
        """One bit-parallel launch/capture pass over a pattern lane.

        *lane* is a ``(width, n_flops)`` 0/1 matrix of at most
        :data:`MAX_LANE_WIDTH` rows; *protocol* is as for
        :meth:`simulate_pattern` (``"es"`` takes the V2 rows in
        *v2_lane*).  Returns every pattern's frames, launch state and
        toggling launch flops.
        """
        return LaneFrames(
            self.logic, lane, self.domain, protocol,
            scan=self.design.scan, v2_lane=v2_lane,
        )

    def simulate_lane(
        self, frames: LaneFrames, p: int, record_trace: bool = False
    ) -> TimingResult:
        """Timing-simulate pattern *p* of a lane from its frames."""
        frame1 = frames.frame1_of(p)
        events = build_launch_events(
            self.design.netlist,
            frame1,
            frames.launch_of(p),
            self.launch_time,
            self.delays.flop_ck2q_ns,
        )
        return self.event_sim.simulate(
            frame1,
            events,
            capture_time_ns=self.period_ns,
            record_trace=record_trace,
        )

    def profile_pattern(
        self, pattern: Any, index: Optional[int] = None
    ) -> PatternPowerProfile:
        """SCAP/CAP profile of one pattern (Pattern object or v1 dict)."""
        return self.profile_pattern_with_timing(pattern, index)[0]

    def profile_pattern_with_timing(
        self, pattern: Any, index: Optional[int] = None
    ) -> Tuple[PatternPowerProfile, TimingResult]:
        """Profile plus the raw timing result (arrivals for IR/endpoints)."""
        if index is None and isinstance(pattern, dict):
            raise ConfigError("pass index= when profiling a raw v1 dict")
        indices, row = pattern_rows([pattern], self.design.netlist.n_flops)
        result = self.simulate_lane(self.lane_frames(row), 0)
        return (
            PatternPowerProfile.from_timing(
                indices[0] if index is None else index,
                self.period_ns,
                result,
            ),
            result,
        )

    # ------------------------------------------------------------------
    # batched grading
    # ------------------------------------------------------------------
    def profile_patterns(
        self,
        patterns: Any,
        *,
        n_workers: Union[int, str, None] = 1,
        lane_width: int = MAX_LANE_WIDTH,
        protocol: str = "loc",
        v2_matrix: Optional[np.ndarray] = None,
    ) -> List[PatternPowerProfile]:
        """Grade a whole pattern batch; profiles in input order.

        *patterns* is anything :func:`~repro.atpg.patterns.pattern_rows`
        accepts: a :class:`~repro.atpg.patterns.PatternSet`, a sequence
        of :class:`~repro.atpg.patterns.Pattern` objects or v1 dicts,
        or a raw ``(n_patterns, n_flops)`` 0/1 matrix (row number =
        pattern index).  The results are bit-exact with calling
        :meth:`profile_pattern` per pattern.

        Parameters
        ----------
        n_workers:
            Fan per-pattern timing simulations out across a process
            pool (each worker rebuilds the calculator once and receives
            the pattern matrix through its initializer's arguments;
            work items are ``(indices, start, stop)`` row ranges).
            ``<= 1`` stays serial; ``"auto"`` lets
            :func:`repro.perf.resilient.resolve_workers` pick serial or
            pool from the work size and usable cores.  If a worker
            dies, the chunks it left finish serially in this process
            (see :func:`repro.perf.resilient.resilient_map`).
        lane_width:
            Patterns per bit-parallel logic-simulation lane (clamped to
            one machine word).
        protocol:
            ``"loc"`` (default), ``"los"``, or ``"es"`` (pass
            *v2_matrix*, one V2 row per pattern).
        """
        n_flops = self.design.netlist.n_flops
        indices, matrix = pattern_rows(patterns, n_flops)
        n_pat = matrix.shape[0]
        if n_pat == 0:
            return []
        if v2_matrix is not None:
            v2_matrix = pattern_rows(np.asarray(v2_matrix), n_flops)[1]
            if v2_matrix.shape != matrix.shape:
                raise ConfigError(
                    "v2_matrix must have one row per pattern"
                )
        lane_width = max(1, min(int(lane_width), MAX_LANE_WIDTH))
        eff = resolve_workers(
            n_workers, n_pat, est_serial_s=n_pat * SCAP_S_PER_PATTERN
        )

        tel = current_telemetry()
        with tel.span(
            "scap.profile_patterns",
            domain=self.domain,
            n_patterns=n_pat,
            workers=eff,
        ):
            profiles = self._dispatch(
                indices, matrix, protocol, v2_matrix, lane_width, eff
            )
            tel.count("scap.patterns_profiled", n_pat)
            return profiles

    # ------------------------------------------------------------------
    def _dispatch(
        self,
        indices: Sequence[int],
        matrix: np.ndarray,
        protocol: str,
        v2_matrix: Optional[np.ndarray],
        lane_width: int,
        n_workers: int,
    ) -> List[PatternPowerProfile]:
        if n_workers <= 1:
            return self._profile_serial(
                indices, matrix, protocol, v2_matrix, lane_width
            )
        # The matrix ships once per worker (initargs); items shrink to
        # (indices, start, stop) row ranges instead of each dragging its
        # own matrix slice along.
        slices = chunk_slices(matrix.shape[0], n_workers * 2)
        items = [
            (tuple(indices[start:stop]), start, stop)
            for start, stop in slices
        ]
        results = resilient_map(
            _scap_worker_task,
            items,
            n_workers=n_workers,
            initializer=_scap_worker_init,
            initargs=(
                self.design, self.domain,
                protocol, lane_width, matrix, v2_matrix,
            ),
        )
        merged: List[PatternPowerProfile] = []
        for part in results:
            merged.extend(part)
        return merged

    def _profile_serial(
        self,
        indices: Sequence[int],
        matrix: np.ndarray,
        protocol: str,
        v2_matrix: Optional[np.ndarray],
        lane_width: int,
    ) -> List[PatternPowerProfile]:
        tel = current_telemetry()
        profiles: List[PatternPowerProfile] = []
        for start in range(0, matrix.shape[0], lane_width):
            stop = start + lane_width
            with tel.span(
                "scap.lane", start=start, width=min(stop, matrix.shape[0]) - start
            ):
                profiles.extend(
                    self._profile_lane(
                        indices[start:stop],
                        matrix[start:stop],
                        protocol,
                        v2_matrix[start:stop]
                        if v2_matrix is not None
                        else None,
                    )
                )
        return profiles

    def _profile_lane(
        self,
        indices: Sequence[int],
        lane: np.ndarray,
        protocol: str,
        v2_lane: Optional[np.ndarray],
    ) -> List[PatternPowerProfile]:
        """One machine-word lane: bit-parallel logic simulation, then a
        per-pattern timing simulation on the extracted frames."""
        frames = self.lane_frames(lane, protocol, v2_lane)
        return [
            PatternPowerProfile.from_timing(
                indices[p], self.period_ns, self.simulate_lane(frames, p)
            )
            for p in range(frames.width)
        ]


# ----------------------------------------------------------------------
# worker-side plumbing (module-level for picklability)
# ----------------------------------------------------------------------
_SCAP_WORKER_STATE: Optional[Tuple] = None


def _scap_worker_init(
    design: SocDesign,
    domain: str,
    protocol: str,
    lane_width: int,
    v1: np.ndarray,
    v2: Optional[np.ndarray],
) -> None:
    """Rebuild the calculator once per worker process.

    The pattern matrices arrive with the initializer's arguments; tasks
    then only carry row ranges.
    """
    global _SCAP_WORKER_STATE
    _SCAP_WORKER_STATE = (
        ScapCalculator(design, domain),
        protocol,
        lane_width,
        v1,
        v2,
    )


def _scap_worker_task(item) -> List[PatternPowerProfile]:
    """Grade one contiguous pattern row range (runs in a worker)."""
    indices, start, stop = item
    calc, protocol, lane_width, v1, v2 = _SCAP_WORKER_STATE
    return calc._profile_serial(
        indices,
        v1[start:stop],
        protocol,
        v2[start:stop] if v2 is not None else None,
        lane_width,
    )
