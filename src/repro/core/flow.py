"""Pattern-generation flows: conventional baseline and the paper's
staged noise-aware procedure (Section 3.1).

**Conventional**: one ATPG run over the whole fault universe with
random fill — maximum fortuitous detection, maximum switching activity.

**Noise-aware (staged)**: per dominant clock domain, split the ATPG into
steps that target fault subsets block by block — the quiet peripheral
blocks first (B1–B4), then B6, and the power-dense central block B5
last — with ``fill-0`` for every don't-care cell.  While a block is not
targeted, its scan cells are almost all don't-cares and fill-0 holds it
quiet; the big block's activity is therefore confined to the tail of
the pattern set and its per-pattern SCAP stays under the threshold for
all but a handful of patterns (Figure 6), at the cost of a small
pattern-count increase (Figure 4).
"""

from __future__ import annotations

import hashlib
import io
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..atpg.engine import AtpgEngine, AtpgResult
from ..atpg.faults import TransitionFault, build_fault_universe, collapse_faults
from ..atpg.fsim import FaultSimulator, first_detection_index
from ..atpg.patterns import PatternSet
from ..errors import ConfigError, DrcError, PowerGridError
from ..netlist.verilog import write_verilog
from ..obs import AnyTelemetry, current_telemetry, use_telemetry
from ..perf.resilient import collect_reports
from ..reporting.checkpoint import CheckpointStore, config_fingerprint
from ..reporting.runreport import (
    RUN_COMPLETED,
    RUN_FAILED,
    RUN_PARTIAL,
    RunReport,
)
from ..soc.design import SocDesign
from .scheduling import schedule_flow

#: The case study's staging: quiet blocks, then B6, then B5 alone.
STAGE_PLAN_TURBO_EAGLE: Tuple[Tuple[str, ...], ...] = (
    ("B1", "B2", "B3", "B4"),
    ("B6",),
    ("B5",),
)

def stage_key(index: int, blocks: Sequence[str]) -> str:
    """Stable stage identifier used as the checkpoint key."""
    return f"stage{index}_{'+'.join(blocks)}"


#: DRC families the flow gate runs: everything static and cheap.  The
#: power family needs thresholds (grid calibration) and never gates —
#: it is available via ``repro drc --power``.
DRC_GATE_FAMILIES: Tuple[str, ...] = ("structural", "scan", "clocking")


def run_drc_gate(
    design: SocDesign,
    waivers=None,
    run_report: Optional[RunReport] = None,
):
    """Run the static DRC gate a flow performs before any generation.

    *waivers* is a :class:`~repro.drc.WaiverSet` or a path to a waiver
    JSON file.  The resulting report summary is recorded on
    *run_report* (when given); unwaived ERROR violations raise
    :class:`~repro.errors.DrcError` carrying the full report.

    Returns the :class:`~repro.drc.DrcReport` on a clean (or waived)
    design.
    """
    from ..drc import DrcContext, load_waivers, run_drc

    if isinstance(waivers, str):
        waivers = load_waivers(waivers)
    with current_telemetry().span("flow.drc_gate", design=design.name):
        report = run_drc(
            DrcContext.for_design(design),
            waivers=waivers,
            families=DRC_GATE_FAMILIES,
        )
    if run_report is not None:
        run_report.drc = report.summary()
    gating = report.gating_violations("error")
    if gating:
        raise DrcError(
            f"design {design.name!r} failed DRC with {len(gating)} "
            f"unwaived ERROR violation(s):\n" + report.format_text(limit=20),
            report=report,
        )
    return report


@dataclass
class FlowResult:
    """Outcome of one complete generation flow."""

    name: str
    domain: str
    fill: str
    pattern_set: PatternSet
    step_results: List[AtpgResult]
    step_blocks: List[Tuple[str, ...]]
    #: Pattern index where each step begins.
    step_boundaries: List[int] = field(default_factory=list)
    #: Faults detected by *earlier-step* patterns during cross-step
    #: fault grading (fault -> first detecting pattern index).
    cross_detected: Dict[TransitionFault, int] = field(default_factory=dict)

    @property
    def n_patterns(self) -> int:
        """Total patterns across all steps."""
        return len(self.pattern_set)

    @property
    def total_faults(self) -> int:
        """Size of the flow's whole (collapsed) fault universe."""
        return sum(r.total_faults for r in self.step_results) + len(
            self.cross_detected
        )

    @property
    def detected_faults(self) -> int:
        """Faults detected by the flow (engine + cross-step grading)."""
        return sum(len(r.detected) for r in self.step_results) + len(
            self.cross_detected
        )

    @property
    def untestable_faults(self) -> int:
        """Faults proven untestable across all steps."""
        return sum(len(r.untestable) for r in self.step_results)

    @property
    def test_coverage(self) -> float:
        """Detected / (total - untestable), TetraMAX-style."""
        denom = self.total_faults - self.untestable_faults
        return self.detected_faults / max(1, denom)

    def coverage_curve(self) -> List[Tuple[int, float]]:
        """Cumulative test coverage vs pattern index across all steps.

        This is the Figure 4 series: x = pattern count, y = coverage of
        the flow's whole fault universe.
        """
        per_pattern = np.zeros(self.n_patterns, dtype=int)
        for result in self.step_results:
            for first in result.detected.values():
                per_pattern[first] += 1
        for first in self.cross_detected.values():
            per_pattern[first] += 1
        denom = max(1, self.total_faults - self.untestable_faults)
        cum = np.cumsum(per_pattern)
        return [(i, cum[i] / denom) for i in range(self.n_patterns)]


class ConventionalFlow:
    """The baseline: whole-design ATPG with random fill."""

    def __init__(
        self,
        design: SocDesign,
        domain: Optional[str] = None,
        fill: str = "random",
        seed: int = 1,
        n_workers: Union[int, str, None] = 1,
        **engine_kwargs,
    ):
        self.design = design
        self.domain = domain if domain is not None else design.dominant_domain()
        self.fill = fill
        self.n_workers = n_workers
        self.engine = AtpgEngine(
            design.netlist,
            self.domain,
            scan=design.scan,
            seed=seed,
            n_workers=n_workers,
            **engine_kwargs,
        )

    def run(self, max_patterns: Optional[int] = None) -> FlowResult:
        result = self.engine.run(fill=self.fill, max_patterns=max_patterns)
        return FlowResult(
            name="conventional",
            domain=self.domain,
            fill=self.fill,
            pattern_set=result.pattern_set,
            step_results=[result],
            step_blocks=[tuple(self.design.blocks())],
            step_boundaries=[0],
        )


class NoiseAwarePatternGenerator:
    """The paper's staged, fill-0, per-block pattern generation."""

    def __init__(
        self,
        design: SocDesign,
        domain: Optional[str] = None,
        stage_plan: Sequence[Sequence[str]] = STAGE_PLAN_TURBO_EAGLE,
        fill: str = "0",
        seed: int = 1,
        isolate_untargeted: bool = False,
        power_critical_blocks: Sequence[str] = ("B5",),
        n_workers: Union[int, str, None] = 1,
        **engine_kwargs,
    ):
        self.design = design
        self.domain = domain if domain is not None else design.dominant_domain()
        self.fill = fill
        self.n_workers = n_workers
        self.isolate_untargeted = isolate_untargeted
        self.power_critical_blocks = tuple(power_critical_blocks)
        self.stage_plan = [tuple(s) for s in stage_plan]
        if not self.stage_plan:
            raise ConfigError("stage plan must have at least one step")
        known = set(design.blocks())
        for step in self.stage_plan:
            unknown = set(step) - known
            if unknown:
                raise ConfigError(f"stage plan names unknown blocks {unknown}")
        self.engine = AtpgEngine(
            design.netlist,
            self.domain,
            scan=design.scan,
            seed=seed,
            n_workers=n_workers,
            **engine_kwargs,
        )

    def stage_name(self, index: int) -> str:
        """Stable stage identifier (also the checkpoint key)."""
        return stage_key(index, self.stage_plan[index])

    def run(
        self,
        max_patterns: Optional[int] = None,
        checkpoint: Optional[CheckpointStore] = None,
        run_report: Optional[RunReport] = None,
        stop_after_stage: Optional[int] = None,
    ) -> FlowResult:
        """Generate the staged pattern set.

        With a *checkpoint* store, every completed stage persists its
        patterns, detection words, cross-step grading and post-stage
        RNG state; a later call over the same store loads those stages
        and recomputes nothing, producing a pattern set bit-identical
        to an uninterrupted run.  (The store's fingerprint must cover
        the flow configuration — :func:`run_noise_tolerant_flow` wires
        that up.)  *run_report* collects per-stage records and the
        execution layer's failure/retry log; *stop_after_stage* ends
        the run after that many leading stages (a deliberate
        interruption, used to exercise resume paths).
        """
        tel = current_telemetry()
        combined = PatternSet(self.domain, fill=self.fill)
        step_results: List[AtpgResult] = []
        boundaries: List[int] = []
        cross_detected: Dict[TransitionFault, int] = {}
        fsim = FaultSimulator(self.design.netlist, self.domain)
        next_index = 0
        stopped = False

        for idx, step in enumerate(self.stage_plan):
            name = self.stage_name(idx)
            if stop_after_stage is not None and idx >= stop_after_stage:
                stopped = True
                if run_report is not None:
                    for later in range(idx, len(self.stage_plan)):
                        run_report.record_stage(
                            self.stage_name(later), "pending"
                        )
                break

            payload = (
                checkpoint.try_load(name) if checkpoint is not None else None
            )
            if payload is not None:
                tel.count("flow.stages_resumed")
                tel.log.info("stage %s loaded from checkpoint", name)
                for pattern in payload["patterns"]:
                    combined.append(pattern)
                cross_detected.update(payload["graded"])
                boundaries.append(payload["boundary"])
                step_results.append(payload["result"])
                next_index = payload["next_index"]
                # The engine RNG advanced while generating this stage;
                # replaying its post-stage state keeps every later
                # stage bit-identical to an uninterrupted run.
                if payload.get("rng_state") is not None:
                    self.engine.rng.bit_generator.state = payload["rng_state"]
                if run_report is not None:
                    run_report.record_stage(
                        name, "completed", from_checkpoint=True,
                        detail={"patterns": len(payload["patterns"])},
                    )
                continue

            stage_started = time.perf_counter()
            try:
                with tel.span("atpg.stage", stage=name, blocks=list(step)), \
                        tel.profile_stage(name), \
                        collect_reports() as exec_reports:
                    outcome = self._run_stage(
                        fsim, step, combined, next_index, max_patterns
                    )
            except Exception as exc:
                if run_report is not None:
                    record = run_report.record_stage(
                        name, "failed",
                        detail={
                            "error": repr(exc),
                            "elapsed_s": round(
                                time.perf_counter() - stage_started, 6
                            ),
                        },
                    )
                    for later in range(idx + 1, len(self.stage_plan)):
                        run_report.record_stage(
                            self.stage_name(later), "pending"
                        )
                    for exec_report in exec_reports:
                        run_report.absorb_execution_report(name, exec_report)
                    record.detail["exec_reports"] = len(exec_reports)
                raise

            graded, result, boundary = outcome
            cross_detected.update(graded)
            if result is None:  # pattern budget exhausted
                break
            for pattern in result.pattern_set:
                combined.append(pattern)
            next_index = len(combined)
            boundaries.append(boundary)
            step_results.append(result)

            if checkpoint is not None:
                checkpoint.save(
                    name,
                    {
                        "patterns": list(result.pattern_set),
                        "result": result,
                        "graded": graded,
                        "boundary": boundary,
                        "next_index": next_index,
                        "rng_state": self.engine.rng.bit_generator.state,
                    },
                    meta={
                        "blocks": list(step),
                        "patterns": len(result.pattern_set),
                        "detected": len(result.detected),
                    },
                )
            if run_report is not None:
                run_report.record_stage(
                    name, "completed",
                    detail={
                        "blocks": list(step),
                        "patterns": len(result.pattern_set),
                        "detected": len(result.detected),
                        "cross_detected": len(graded),
                        "elapsed_s": round(
                            time.perf_counter() - stage_started, 6
                        ),
                    },
                )
                for exec_report in exec_reports:
                    run_report.absorb_execution_report(name, exec_report)

        if run_report is not None and stopped:
            run_report.status = RUN_PARTIAL

        return FlowResult(
            name="noise_aware_staged",
            domain=self.domain,
            fill=self.fill,
            pattern_set=combined,
            step_results=step_results,
            step_blocks=list(self.stage_plan[: len(step_results)]),
            step_boundaries=boundaries[: len(step_results)],
            cross_detected=cross_detected,
        )

    def _run_stage(
        self,
        fsim: FaultSimulator,
        step: Tuple[str, ...],
        combined: PatternSet,
        next_index: int,
        max_patterns: Optional[int],
    ) -> Tuple[Dict[TransitionFault, int], Optional[AtpgResult], int]:
        """One stage: grade existing patterns, target the rest.

        Returns ``(cross-graded faults, ATPG result, stage boundary)``;
        the result is ``None`` when the pattern budget is already
        exhausted (the grading still counts toward cross-detection,
        matching the pre-checkpoint behaviour).
        """
        netlist = self.design.netlist
        universe = build_fault_universe(netlist, blocks=step)
        reps, _ = collapse_faults(netlist, universe)
        targets: List[TransitionFault] = list(reps)
        graded: Dict[TransitionFault, int] = {}
        # Fault-grade the patterns generated so far against this
        # step's targets (standard practice before a follow-up ATPG
        # run): anything fortuitously covered is not re-targeted.
        if combined.patterns and targets:
            graded = _grade_existing(
                fsim, combined, targets, n_workers=self.n_workers
            )
            targets = [f for f in targets if f not in graded]
        budget = None
        if max_patterns is not None:
            budget = max(0, max_patterns - len(combined))
            if budget == 0:
                return graded, None, next_index
        forced = None
        if self.isolate_untargeted:
            # The isolation DFT the paper wished it had: hold every
            # untargeted block's load-enables at 0 as an ATPG
            # constraint, so not even care bits can wake them.
            forced = {}
            for block in self.design.blocks():
                if block in step:
                    continue
                for fi in self.design.enable_flops_in_block(block):
                    forced[fi] = 0
        block_fill = None
        if self.fill == "per-block":
            # The paper's "more ideal scenario": random fill inside
            # the blocks being targeted (fortuitous detection), 0
            # everywhere else (quiet).  Power-critical blocks stay
            # on fill-0 even while targeted.
            block_fill = {
                block: "random"
                for block in step
                if block not in self.power_critical_blocks
            }
        result = self.engine.run(
            faults=targets,
            fill=self.fill,
            max_patterns=budget,
            start_index=next_index,
            forced_bits=forced,
            block_fill=block_fill,
        )
        return graded, result, next_index


def run_noise_tolerant_flow(
    design: SocDesign,
    domain: Optional[str] = None,
    *,
    checkpoint_dir: Optional[str] = None,
    resume: bool = True,
    max_patterns: Optional[int] = None,
    stop_after_stage: Optional[int] = None,
    strict: bool = False,
    report_path: Optional[str] = None,
    drc_waivers=None,
    telemetry: Optional[AnyTelemetry] = None,
    schedule_budget_mw: Optional[float] = None,
    schedule_strategy: str = "binpack",
    schedule_tam_width: Optional[int] = None,
    timing_prescreen: bool = False,
    timing_max_patterns: Optional[int] = None,
    **generator_kwargs,
) -> Tuple[Optional[FlowResult], RunReport]:
    """The staged noise-aware flow as a fault-tolerant, resumable run.

    This is the production entry point around
    :class:`NoiseAwarePatternGenerator`: the design first passes the
    static DRC gate (see :func:`run_drc_gate`; excuse reviewed findings
    with *drc_waivers* — a :class:`~repro.drc.WaiverSet` or waiver-file
    path), per-stage results persist to *checkpoint_dir* (guarded by a
    fingerprint of the design's content and every generator and engine
    setting that changes patterns, so a stale directory is never
    resumed), a rerun skips completed stages, and an unrecoverable
    error returns a structured partial
    :class:`~repro.reporting.runreport.RunReport` instead of a bare
    traceback.

    Returns ``(flow_result, run_report)``.  ``flow_result`` is ``None``
    when the run failed before producing a usable pattern set; a
    deliberate *stop_after_stage* interruption returns the partial
    pattern set with ``report.status == "partial"``.  With
    ``strict=True`` the underlying exception propagates.  A DRC
    failure always raises :class:`~repro.errors.DrcError`: generating
    patterns on a netlist that fails its design rules would waste
    every downstream stage.  Every exit, raising or not, finalises the
    report once and writes it to *report_path* (if given); an error no
    stage records (an unreadable checkpoint directory, say) ends the
    report ``failed`` with that error.

    *telemetry* is scoped over the run and its snapshot lands in
    ``report.telemetry``.  ``None`` runs on the null facade — no
    signals, bit-identical results — even inside an enclosing
    :func:`~repro.obs.use_telemetry` scope.

    With *schedule_budget_mw* set, a successful generation run is
    followed by a SOC test-scheduling stage: per-block test powers come
    from the sound :class:`~repro.power.static_bound.StaticScapBound`
    chip-wide bounds, times from wrapper partitioning of the flow's
    per-block pattern counts, and the *schedule_strategy* scheduler
    (``"binpack"`` by default, or ``"greedy"``; see
    :func:`~repro.core.scheduling.schedule_flow`) packs them under the
    power envelope and the optional *schedule_tam_width*.
    The validated schedule digest lands in ``report.schedule``; an
    infeasible budget records a failed stage (raising only under
    ``strict=True``).

    With ``timing_prescreen=True`` a successful generation run is
    followed by the noise-aware static timing pre-screen
    (:func:`~repro.timing.prescreen.prescreen_pattern_set`): every
    generated pattern's endpoints are classified inactive / provably
    safe / at-risk against the droop-derated delay bound, only at-risk
    ones pay the IR-scaled re-simulation, and the digest — counts,
    pruned-endpoint fraction, cycle misses and the empirical soundness
    check — lands in ``report.timing``.  *timing_max_patterns* caps how
    many patterns the stage screens.
    """
    with use_telemetry(telemetry) as tel:
        generator = NoiseAwarePatternGenerator(
            design, domain, **generator_kwargs
        )
        report = RunReport(
            flow="noise_aware_staged", checkpoint_dir=checkpoint_dir
        )
        # The exception a stage recorded on the report before raising
        # it; anything else that escapes marks the run failed.
        recorded: Optional[BaseException] = None
        try:
            with tel.span(
                "flow.run", flow="noise_aware_staged", design=design.name
            ):
                tel.log.info(
                    "flow start: design=%s domain=%s", design.name,
                    generator.domain,
                )
                try:
                    run_drc_gate(
                        design, waivers=drc_waivers, run_report=report
                    )
                except DrcError as exc:
                    report.status = RUN_FAILED
                    report.error = "DrcError: unwaived ERROR violations"
                    recorded = exc
                    raise
                checkpoint = None
                if checkpoint_dir is not None:
                    checkpoint = CheckpointStore(
                        checkpoint_dir,
                        _checkpoint_fingerprint(
                            design, generator, max_patterns
                        ),
                    )
                    if not resume:
                        checkpoint.clear()

                try:
                    flow_result = generator.run(
                        max_patterns=max_patterns,
                        checkpoint=checkpoint,
                        run_report=report,
                        stop_after_stage=stop_after_stage,
                    )
                    if report.status != RUN_PARTIAL:
                        report.status = RUN_COMPLETED
                except Exception as exc:
                    report.status = (
                        RUN_PARTIAL if report.completed_stages()
                        else RUN_FAILED
                    )
                    report.error = repr(exc)
                    tel.log.error("flow %s: %r", report.status, exc)
                    if strict:
                        recorded = exc
                        raise
                    return None, report

                if schedule_budget_mw is not None:
                    stage_started = time.perf_counter()
                    try:
                        schedule = schedule_flow(
                            design, generator.domain, flow_result,
                            budget_mw=schedule_budget_mw,
                            strategy=schedule_strategy,
                            tam_width=schedule_tam_width,
                        )
                    except ConfigError as exc:
                        report.schedule = {
                            "error": str(exc),
                            "strategy": schedule_strategy,
                            "power_budget_mw": schedule_budget_mw,
                        }
                        report.record_stage(
                            "schedule", "failed", detail={"error": repr(exc)}
                        )
                        report.status = RUN_PARTIAL
                        tel.log.error("schedule stage failed: %s", exc)
                        if strict:
                            recorded = exc
                            raise
                    else:
                        report.schedule = schedule.summary()
                        report.record_stage(
                            "schedule", "completed",
                            detail={
                                "strategy": schedule.strategy,
                                "makespan_us": schedule.makespan_us,
                                "elapsed_s": round(
                                    time.perf_counter() - stage_started, 6
                                ),
                            },
                        )

                if timing_prescreen:
                    stage_started = time.perf_counter()
                    try:
                        with tel.span(
                            "flow.timing", domain=generator.domain
                        ):
                            timing = _timing_from_flow(
                                design, generator.domain, flow_result,
                                max_patterns=timing_max_patterns,
                            )
                    except (ConfigError, PowerGridError) as exc:
                        report.timing = {"error": str(exc)}
                        report.record_stage(
                            "timing", "failed", detail={"error": repr(exc)}
                        )
                        report.status = RUN_PARTIAL
                        tel.log.error("timing stage failed: %s", exc)
                        if strict:
                            recorded = exc
                            raise
                    else:
                        report.timing = timing.to_dict()
                        report.record_stage(
                            "timing", "completed",
                            detail={
                                "patterns": timing.n_patterns,
                                "pruned_endpoint_fraction": round(
                                    timing.pruned_endpoint_fraction, 6
                                ),
                                "at_risk": timing.endpoint_counts["at_risk"],
                                "soundness_violations":
                                    timing.soundness_violations,
                                "elapsed_s": round(
                                    time.perf_counter() - stage_started, 6
                                ),
                            },
                        )
            tel.log.info(
                "flow %s: %d pattern(s)", report.status,
                flow_result.n_patterns,
            )
            return flow_result, report
        except BaseException as exc:  # a KeyboardInterrupt included
            if exc is not recorded:
                report.status = RUN_FAILED
                report.error = repr(exc)
            raise
        finally:
            report.telemetry = tel.snapshot()
            if report_path is not None:
                report.save(report_path)


def _checkpoint_fingerprint(
    design: SocDesign,
    generator: NoiseAwarePatternGenerator,
    max_patterns: Optional[int],
) -> str:
    """Digest of everything that changes the staged flow's patterns.

    The design enters as a SHA-256 of its structural Verilog (cells,
    wiring, blocks, placement and scan chains), so two designs that
    merely share a name and size never share a checkpoint.  Engine
    settings are read from the built engine, never from a ``repr`` of
    keyword arguments (a delay model's ``repr`` holds its memory
    address).  ``n_workers`` is left out: it does not change results.
    """
    verilog = io.StringIO()
    write_verilog(design.netlist, verilog)
    engine = generator.engine
    arrival = engine.state.arrival
    return config_fingerprint(
        design=hashlib.sha256(verilog.getvalue().encode()).hexdigest(),
        domain=generator.domain,
        stage_plan=tuple(generator.stage_plan),
        fill=generator.fill,
        isolate=generator.isolate_untargeted,
        power_critical=generator.power_critical_blocks,
        max_patterns=max_patterns,
        engine=(
            engine.protocol,
            engine.backtrack_limit,
            engine.merge_backtrack_limit,
            engine.merge_fail_limit,
            engine.max_merge_per_pattern,
            engine.max_targets_per_block,
            engine.batch_size,
        ),
        arrivals=(
            None if arrival is None
            else hashlib.sha256(np.asarray(arrival).tobytes()).hexdigest()
        ),
        engine_seed=engine.rng.bit_generator.state["state"],
    )


def _timing_from_flow(
    design: SocDesign,
    domain: str,
    flow_result: FlowResult,
    *,
    max_patterns: Optional[int] = None,
):
    """Noise-aware timing pre-screen of a finished flow's patterns.

    Calibrates a power grid for the design, then classifies every
    pattern's endpoints against the droop-derated delay bound —
    provably safe ones skip the IR-scaled re-simulation entirely (see
    :mod:`repro.timing.prescreen`).
    """
    from ..pgrid.grid import GridModel
    from ..power.calculator import ScapCalculator
    from ..timing.prescreen import prescreen_pattern_set

    model = GridModel.calibrated(design)
    calculator = ScapCalculator(design, domain)
    return prescreen_pattern_set(
        calculator,
        model,
        flow_result.pattern_set,
        max_patterns=max_patterns,
    )


def _grade_existing(
    fsim: FaultSimulator,
    pattern_set: PatternSet,
    targets: Sequence[TransitionFault],
    n_workers: Union[int, str, None] = 1,
) -> Dict[TransitionFault, int]:
    """Which of *targets* the existing patterns already detect.

    One multi-word :meth:`~repro.atpg.fsim.FaultSimulator.run_batch`
    call with between-lane fault dropping (a dropped fault's later
    lanes are never simulated) and optional fault-partition workers.
    """
    matrix = pattern_set.as_matrix()
    with current_telemetry().span(
        "flow.grade_existing",
        n_patterns=matrix.shape[0],
        n_targets=len(targets),
    ):
        words = fsim.run_batch(
            matrix, targets, drop=True, n_workers=n_workers
        )
    return {
        fault: first_detection_index(word) for fault, word in words.items()
    }
