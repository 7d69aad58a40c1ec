"""The run-scoped telemetry facade and its allocation-free null twin.

:class:`Telemetry` bundles the three observability layers — tracing
(:class:`~repro.obs.tracer.Tracer`), metrics
(:class:`~repro.obs.metrics.MetricsRegistry`) and optional per-stage
profiling (:class:`~repro.obs.profiler.StageProfiler`) — behind one
object that threads through the flow.  Instrumented code never checks
what is enabled; it calls ``tel.span(...)`` / ``tel.count(...)`` and
the facade routes (or drops) the signal.

:class:`NullTelemetry` is the default everywhere: every method is a
no-op and ``span`` returns one shared, reusable null context manager,
so a telemetry-disabled run pays only a method call per instrumentation
point (<2% end to end; ``benchmarks/bench_obs_overhead.py`` holds the
line).  Flow results are bit-identical either way — telemetry only
observes.

The facade travels two ways: explicitly (``run_noise_tolerant_flow(...,
context=RunContext(telemetry=tel))``) and ambiently via
:func:`use_telemetry` / :func:`current_telemetry`, which is how deep
layers (fault simulation, SCAP grading, DRC rules, the resilient
executor) see the run's telemetry without threading a parameter through
every signature — the same pattern as
:func:`repro.perf.resilient.execution_policy`.
"""

from __future__ import annotations

import os
import time
import uuid
from contextlib import contextmanager
from types import TracebackType
from typing import Any, Dict, Iterator, List, Optional, Type, Union

from .logs import RunLoggerAdapter, run_logger
from .metrics import MetricsRegistry
from .profiler import StageProfiler
from .tracer import TraceEvent, Tracer


class _NullSpan:
    """Shared no-op span: enter/exit/set all do nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        return None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


#: The one null span every disabled instrumentation point reuses.
_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """Telemetry that observes nothing, as cheaply as possible."""

    __slots__ = ()

    enabled = False
    run_id = "null"
    tracer: Optional[Tracer] = None
    metrics: Optional[MetricsRegistry] = None
    profiler: Optional[StageProfiler] = None

    @property
    def wants_worker_spans(self) -> bool:
        return False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def profile_stage(self, stage: str) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        return None

    def gauge_set(self, name: str, value: float, **labels: Any) -> None:
        return None

    def observe(self, name: str, value: float, **labels: Any) -> None:
        return None

    def absorb_worker_events(self, events: List[TraceEvent]) -> None:
        return None

    def snapshot(self) -> Optional[Dict[str, Any]]:
        return None

    @property
    def log(self) -> RunLoggerAdapter:
        return run_logger("-")


#: Module-wide singleton; ``current_telemetry`` hands this out when no
#: telemetry is in scope, so callers never branch on ``None``.
NULL_TELEMETRY = NullTelemetry()


class Telemetry:
    """Run-scoped tracing + metrics + profiling + logging."""

    enabled = True

    def __init__(
        self,
        run_id: Optional[str] = None,
        tracing: bool = True,
        metrics: bool = True,
        profile: bool = False,
        profile_top_n: int = 20,
    ) -> None:
        self.run_id = (
            run_id
            if run_id is not None
            else f"{uuid.uuid4().hex[:8]}-{os.getpid()}"
        )
        self.started_s = time.time()
        self.tracer: Optional[Tracer] = (
            Tracer(self.run_id) if tracing else None
        )
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if metrics else None
        )
        self.profiler: Optional[StageProfiler] = (
            StageProfiler(top_n=profile_top_n) if profile else None
        )
        self.log: RunLoggerAdapter = run_logger(self.run_id)

    # -- tracing --------------------------------------------------------
    @property
    def wants_worker_spans(self) -> bool:
        return self.tracer is not None

    def span(self, name: str, **attrs: Any) -> Any:
        if self.tracer is None:
            return _NULL_SPAN
        return self.tracer.span(name, **attrs)

    def absorb_worker_events(self, events: List[TraceEvent]) -> None:
        if self.tracer is not None and events:
            self.tracer.absorb_events(events)

    # -- profiling ------------------------------------------------------
    def profile_stage(self, stage: str) -> Any:
        if self.profiler is None:
            return _NULL_SPAN
        return self.profiler.profile(stage)

    # -- metrics --------------------------------------------------------
    def count(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount, **labels)

    def gauge_set(self, name: str, value: float, **labels: Any) -> None:
        if self.metrics is not None:
            self.metrics.gauge(name).set(value, **labels)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        if self.metrics is not None:
            self.metrics.histogram(name).observe(value, **labels)

    # -- export ---------------------------------------------------------
    def snapshot(self) -> Optional[Dict[str, Any]]:
        """JSON-ready digest for ``RunReport.telemetry``."""
        out: Dict[str, Any] = {
            "run_id": self.run_id,
            "elapsed_s": round(time.time() - self.started_s, 6),
        }
        if self.metrics is not None:
            out["metrics"] = self.metrics.snapshot()
        if self.tracer is not None:
            out["n_trace_events"] = len(self.tracer.events)
        if self.profiler is not None:
            out["hotspots"] = self.profiler.hotspots()
        return out

    def save_trace_jsonl(self, path: str) -> Optional[str]:
        return self.tracer.save_jsonl(path) if self.tracer else None

    def save_chrome_trace(self, path: str) -> Optional[str]:
        return self.tracer.save_chrome(path) if self.tracer else None

    def save_metrics_prometheus(self, path: str) -> Optional[str]:
        return self.metrics.save_prometheus(path) if self.metrics else None

    def save_metrics_json(self, path: str) -> Optional[str]:
        return self.metrics.save_json(path) if self.metrics else None

    def hotspot_table(self) -> Optional[str]:
        return self.profiler.format_table() if self.profiler else None


#: What instrumented call sites accept / ``current_telemetry`` returns.
AnyTelemetry = Union[Telemetry, NullTelemetry]

_STACK: List[AnyTelemetry] = []


def current_telemetry() -> AnyTelemetry:
    """The innermost telemetry in scope (the null facade by default)."""
    return _STACK[-1] if _STACK else NULL_TELEMETRY


@contextmanager
def use_telemetry(
    telemetry: Optional[AnyTelemetry],
) -> Iterator[AnyTelemetry]:
    """Scope *telemetry* as the ambient facade for the block.

    ``None`` scopes the null facade — handy for forcing telemetry off
    inside an instrumented region.
    """
    scoped: AnyTelemetry = (
        telemetry if telemetry is not None else NULL_TELEMETRY
    )
    _STACK.append(scoped)
    try:
        yield scoped
    finally:
        _STACK.pop()
