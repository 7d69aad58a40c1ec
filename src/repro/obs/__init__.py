"""Observability for the noise-tolerant flow (the ``repro.obs`` subsystem).

Three coordinated layers behind one run-scoped facade:

* **tracing** (:mod:`~repro.obs.tracer`) — hierarchical spans over flow
  stages, ATPG runs, fault-sim batches/lanes, SCAP grading, DRC rules
  and resilient-executor chunks (workers report their chunk spans home
  on the existing result channel), exported as JSONL and Chrome
  trace-event JSON;
* **metrics** (:mod:`~repro.obs.metrics`) — counters/gauges/histograms
  (patterns generated, faults detected/dropped, SCAP violations per
  block, retries, worker crashes, cache hits, checkpoint resumes) with
  Prometheus text exposition and a JSON snapshot folded into
  ``RunReport.telemetry``;
* **profiling + logging** (:mod:`~repro.obs.profiler`,
  :mod:`~repro.obs.logs`) — optional per-stage ``cProfile`` capture
  with a top-N hotspot table, and stdlib structured logs carrying the
  run id.

:class:`NullTelemetry` is the ambient default: every signal drops at
the cost of one method call, flow results are bit-identical either
way, and ``benchmarks/bench_obs_overhead.py`` enforces the <5%
disabled-path budget.  Enable with::

    from repro import RunContext
    from repro.obs import Telemetry
    tel = Telemetry(profile=True)
    result, report = run_noise_tolerant_flow(
        design, context=RunContext(telemetry=tel)
    )
    tel.save_trace_jsonl("trace.jsonl")
    tel.save_metrics_prometheus("metrics.prom")

or from the CLI: ``repro flow --trace --metrics --profile``.
"""

from .convert import (
    format_summary,
    load_trace_jsonl,
    nesting_errors,
    save_chrome_trace,
    summarize,
)
from .logs import LOG_LEVELS, RunLoggerAdapter, run_logger, setup_logging
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    prometheus_name,
)
from .profiler import StageProfiler
from .telemetry import (
    NULL_TELEMETRY,
    AnyTelemetry,
    NullTelemetry,
    Telemetry,
    current_telemetry,
    use_telemetry,
)
from .tracer import Span, TraceEvent, Tracer, events_to_chrome, worker_event

__all__ = [
    "AnyTelemetry",
    "Counter",
    "Gauge",
    "Histogram",
    "LOG_LEVELS",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "RunLoggerAdapter",
    "Span",
    "StageProfiler",
    "Telemetry",
    "TraceEvent",
    "Tracer",
    "current_telemetry",
    "events_to_chrome",
    "format_summary",
    "load_trace_jsonl",
    "nesting_errors",
    "prometheus_name",
    "run_logger",
    "save_chrome_trace",
    "setup_logging",
    "summarize",
    "use_telemetry",
    "worker_event",
]
