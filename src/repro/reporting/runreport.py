"""Structured outcome of a (possibly interrupted) multi-stage run.

A long flow used to answer "what happened?" with either a full result
or a bare traceback.  :class:`RunReport` is the third answer: a
machine-readable record of which stages completed (and whether they
came from checkpoints), the execution layer's per-chunk failure log,
and the error that stopped a partial run — enough
to decide whether to resume, where to resume from, and what to page an
operator about.  ``python -m repro flow --report out.json`` writes one,
and CI uploads it as a build artifact for deliberately-interrupted
example flows.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .checkpoint import atomic_write_bytes

#: Terminal statuses a run can end in.
RUN_COMPLETED = "completed"
RUN_PARTIAL = "partial"
RUN_FAILED = "failed"


@dataclass
class StageRecord:
    """One stage of the flow, as actually executed."""

    name: str
    status: str  # "completed" | "failed" | "pending"
    #: True when the stage's result was loaded from a checkpoint
    #: instead of recomputed.
    from_checkpoint: bool = False
    #: Free-form stage facts (pattern counts, boundaries, exec stats).
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass
class RunReport:
    """What a flow run achieved, survived, and (maybe) died of."""

    flow: str
    status: str = RUN_COMPLETED
    stages: List[StageRecord] = field(default_factory=list)
    #: Per-chunk failure log aggregated from the execution layer
    #: (dicts shaped like :class:`repro.perf.resilient.ChunkFailure`,
    #: plus the ``stage`` they ran in).
    failures: List[Dict[str, Any]] = field(default_factory=list)
    checkpoint_dir: Optional[str] = None
    #: Repr of the exception that ended a partial/failed run.
    error: Optional[str] = None
    #: Summary of the pre-flow static DRC gate (see
    #: :meth:`repro.drc.DrcReport.summary`); None when the gate was
    #: skipped.
    drc: Optional[Dict[str, Any]] = None
    #: Telemetry digest (run id, metric snapshot, trace-event count,
    #: profiler hotspots) from :meth:`repro.obs.Telemetry.snapshot`;
    #: None when the run used the null telemetry.
    telemetry: Optional[Dict[str, Any]] = None
    #: SOC test-schedule digest (see
    #: :meth:`repro.core.scheduling.TestSchedule.summary`) when the run
    #: included a scheduling stage; an ``{"error": ...}`` dict when the
    #: stage failed; None when no scheduling was requested.
    schedule: Optional[Dict[str, Any]] = None
    #: Noise-aware timing pre-screen digest (see
    #: :meth:`repro.timing.TimingPrescreenSummary.to_dict`) — safe /
    #: at-risk / pruned endpoint counts and the empirical soundness
    #: check; an ``{"error": ...}`` dict when the stage failed; None
    #: when no pre-screen was requested.
    timing: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    def completed_stages(self) -> List[str]:
        return [s.name for s in self.stages if s.status == "completed"]

    def resumed_stages(self) -> List[str]:
        return [
            s.name
            for s in self.stages
            if s.status == "completed" and s.from_checkpoint
        ]

    def pending_stages(self) -> List[str]:
        return [s.name for s in self.stages if s.status == "pending"]

    # ------------------------------------------------------------------
    def record_stage(
        self,
        name: str,
        status: str,
        *,
        from_checkpoint: bool = False,
        detail: Optional[Dict[str, Any]] = None,
    ) -> StageRecord:
        record = StageRecord(
            name=name,
            status=status,
            from_checkpoint=from_checkpoint,
            detail=detail or {},
        )
        self.stages.append(record)
        return record

    def absorb_execution_report(self, stage: str, exec_report) -> None:
        """Fold one :class:`~repro.perf.resilient.ExecutionReport`'s
        failures in, each tagged with *stage*."""
        if exec_report is None:
            return
        for failure in exec_report.failures:
            entry = failure.to_dict()
            entry["stage"] = stage
            self.failures.append(entry)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "flow": self.flow,
            "status": self.status,
            "stages": [s.to_dict() for s in self.stages],
            "completed_stages": self.completed_stages(),
            "resumed_stages": self.resumed_stages(),
            "pending_stages": self.pending_stages(),
            "failures": list(self.failures),
            "checkpoint_dir": self.checkpoint_dir,
            "error": self.error,
            "drc": self.drc,
            "telemetry": self.telemetry,
            "schedule": self.schedule,
            "timing": self.timing,
        }

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True,
                          default=str)

    def save(self, path: str) -> str:
        """Write the report atomically: a save that fails, in
        serialisation or on disk, leaves the previous file loadable."""
        atomic_write_bytes(path, (self.to_json() + "\n").encode())
        return path

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunReport":
        """Rebuild a report from :meth:`to_dict` output.

        Derived keys (``completed_stages`` …) are recomputed, not
        trusted; unknown keys are ignored so newer writers stay
        loadable by older readers and vice versa.  Raises
        :class:`ValueError` on a wrong shape: *data* must be an object;
        ``stages`` a list of objects whose ``detail`` has a numeric
        ``elapsed_s`` or none; ``failures`` a list of objects; and
        ``telemetry`` null, or an object whose ``metrics`` is absent or
        maps names to objects, each with an object ``series`` when
        present.
        """
        if not isinstance(data, dict):
            raise ValueError("run report is not a JSON object")
        stages = data.get("stages", [])
        if not isinstance(stages, list) or not all(
            isinstance(stage, dict) for stage in stages
        ):
            raise ValueError("run report 'stages' is not a list of objects")
        details = [stage.get("detail") or {} for stage in stages]
        if not all(
            isinstance(d, dict)
            and isinstance(d.get("elapsed_s", 0.0), (int, float))
            for d in details
        ):
            raise ValueError(
                "run report stage 'detail' is not an object with a "
                "numeric 'elapsed_s'"
            )
        failures = data.get("failures", [])
        if not isinstance(failures, list) or not all(
            isinstance(failure, dict) for failure in failures
        ):
            raise ValueError("run report 'failures' is not a list of objects")
        telemetry = data.get("telemetry")
        metrics = (
            telemetry.get("metrics", {}) if isinstance(telemetry, dict) else None
        )
        if telemetry is not None and not (
            isinstance(metrics, dict)
            and all(
                isinstance(m, dict) and isinstance(m.get("series", {}), dict)
                for m in metrics.values()
            )
        ):
            raise ValueError(
                "run report 'telemetry' is not an object of metric objects"
            )
        report = cls(
            flow=str(data.get("flow", "unknown")),
            status=str(data.get("status", RUN_COMPLETED)),
            checkpoint_dir=data.get("checkpoint_dir"),
            error=data.get("error"),
            drc=data.get("drc"),
            telemetry=telemetry,
            schedule=data.get("schedule"),
            timing=data.get("timing"),
        )
        for stage, detail in zip(stages, details):
            report.stages.append(
                StageRecord(
                    name=str(stage.get("name", "?")),
                    status=str(stage.get("status", "completed")),
                    from_checkpoint=bool(stage.get("from_checkpoint")),
                    detail=dict(detail),
                )
            )
        report.failures = [dict(f) for f in failures]
        return report

    @classmethod
    def load(cls, path: str) -> "RunReport":
        """Round-trip partner of :meth:`save`."""
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def stage_times(self) -> List[Dict[str, Any]]:
        """Per-stage wall-time rows for ``repro flow --report``.

        Stages recorded without an ``elapsed_s`` detail (pending
        stages, checkpoint loads from older writers) report 0.0.
        """
        return [
            {
                "stage": s.name,
                "status": s.status
                + (" (checkpoint)" if s.from_checkpoint else ""),
                "elapsed_s": round(
                    float(s.detail.get("elapsed_s", 0.0)), 3
                ),
                "patterns": s.detail.get("patterns", ""),
            }
            for s in self.stages
        ]
