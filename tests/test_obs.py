"""Tests for ``repro.obs`` — tracing, metrics, profiling and logging.

Unit tests for each layer, facade-scoping semantics, the invariants the
subsystem promises (well-nested span trees, even with worker-side
events absorbed across the process boundary; disabled telemetry leaves
flow results bit-identical), and — under ``-m chaos`` — that the trace
stays parseable and the metrics sane when a worker is killed mid-batch.
"""

from __future__ import annotations

import io
import json
import logging
import time

import pytest

from repro.obs import (
    LOG_LEVELS,
    NULL_TELEMETRY,
    MetricsRegistry,
    NullTelemetry,
    StageProfiler,
    Telemetry,
    Tracer,
    current_telemetry,
    events_to_chrome,
    load_trace_jsonl,
    nesting_errors,
    prometheus_name,
    run_logger,
    setup_logging,
    summarize,
    use_telemetry,
    worker_event,
)


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_tree_parents_and_order(self):
        tracer = Tracer("t1")
        with tracer.span("outer", k=1):
            with tracer.span("inner"):
                pass
            with tracer.span("inner2"):
                pass
        names = [e["name"] for e in tracer.events]
        # children close (and record) before the parent
        assert names == ["inner", "inner2", "outer"]
        by_name = {e["name"]: e for e in tracer.events}
        outer = by_name["outer"]
        assert outer["parent_id"] is None
        assert by_name["inner"]["parent_id"] == outer["span_id"]
        assert by_name["inner2"]["parent_id"] == outer["span_id"]
        assert outer["attrs"] == {"k": 1}
        assert not nesting_errors(tracer.events)

    def test_span_records_error_and_reraises(self):
        tracer = Tracer("t2")
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        (event,) = tracer.events
        assert "ValueError" in event["attrs"]["error"]

    def test_set_attrs_after_entry(self):
        tracer = Tracer("t3")
        with tracer.span("s") as span:
            span.set(found=7)
        assert tracer.events[0]["attrs"]["found"] == 7

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer("t4")
        with tracer.span("a"):
            with tracer.span("b", x="y"):
                pass
        path = str(tmp_path / "trace.jsonl")
        tracer.save_jsonl(path)
        events = load_trace_jsonl(path)
        assert [e["name"] for e in events] == ["b", "a"]
        assert not nesting_errors(events)

    def test_chrome_conversion_rebases_to_zero(self):
        tracer = Tracer("t5")
        with tracer.span("a"):
            pass
        chrome = events_to_chrome(tracer.events)
        assert chrome[0]["ph"] == "X"
        assert chrome[0]["ts"] == 0.0  # earliest event rebased to t=0
        assert chrome[0]["dur"] >= 0.0

    def test_absorbed_worker_events_parent_under_open_span(self):
        tracer = Tracer("t6")
        with tracer.span("dispatch"):
            tracer.absorb_events(
                [worker_event("exec.chunk", time.time(), 0.0, chunk=3)]
            )
        by_name = {e["name"]: e for e in tracer.events}
        assert (
            by_name["exec.chunk"]["parent_id"]
            == by_name["dispatch"]["span_id"]
        )
        assert by_name["exec.chunk"]["attrs"]["chunk"] == 3
        assert not nesting_errors(tracer.events)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_labels_and_total(self):
        reg = MetricsRegistry()
        reg.counter("exec.failures").inc(kind="crash")
        reg.counter("exec.failures").inc(2, kind="error")
        counter = reg.counter("exec.failures")
        assert counter.value(kind="crash") == 1
        assert counter.value(kind="error") == 2
        assert counter.total == 3

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_gauge_and_histogram(self):
        reg = MetricsRegistry()
        reg.gauge("pool.workers").set(4)
        assert reg.gauge("pool.workers").value() == 4
        hist = reg.histogram("exec.map_s", buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(50.0)
        assert hist.count() == 3
        assert hist.sum() == pytest.approx(55.5)

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_prometheus_exposition(self):
        assert prometheus_name("exec.worker_crashes", "counter") == (
            "repro_exec_worker_crashes_total"
        )
        reg = MetricsRegistry()
        reg.counter("exec.worker_crashes").inc(3)
        reg.gauge("pool.workers").set(2)
        text = reg.to_prometheus()
        assert "repro_exec_worker_crashes_total 3.0" in text
        assert "# TYPE repro_exec_worker_crashes_total counter" in text
        assert "repro_pool_workers 2.0" in text

    def test_snapshot_is_json_ready(self):
        reg = MetricsRegistry()
        reg.counter("a.b").inc(kind="x")
        snap = reg.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["a.b"]["kind"] == "counter"


# ----------------------------------------------------------------------
# profiling + logging
# ----------------------------------------------------------------------
class TestProfiler:
    def test_hotspots_and_table(self):
        prof = StageProfiler(top_n=5)
        with prof.profile("stage0"):
            sum(i * i for i in range(20_000))
        rows = prof.hotspots()
        assert rows and all("tottime_s" in r for r in rows)
        assert "hotspots" in prof.format_table().lower()

    def test_nested_profile_is_noop_not_error(self):
        prof = StageProfiler()
        with prof.profile("outer"):
            with prof.profile("inner"):  # cProfile cannot nest
                pass
        assert "outer" in prof.stages
        assert "inner" not in prof.stages


class TestLogs:
    def test_setup_is_idempotent(self):
        logger = setup_logging("warning")
        n = len(logger.handlers)
        assert setup_logging("info") is logger
        assert len(logger.handlers) == n
        assert logger.level == logging.INFO

    def test_run_logger_stamps_run_id(self):
        stream = io.StringIO()
        setup_logging("info", stream=stream)
        run_logger("abc123", "repro.test").info("hello %s", "world")
        out = stream.getvalue()
        assert "run=abc123" in out and "hello world" in out

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            setup_logging("loud")
        assert "debug" in LOG_LEVELS


# ----------------------------------------------------------------------
# the facade and its scoping
# ----------------------------------------------------------------------
class TestTelemetryFacade:
    def test_null_singleton_is_allocation_free(self):
        assert isinstance(NULL_TELEMETRY, NullTelemetry)
        # every call hands back the one shared span object
        assert NULL_TELEMETRY.span("a") is NULL_TELEMETRY.span("b")
        assert NULL_TELEMETRY.count("c") is None
        assert NULL_TELEMETRY.snapshot() is None
        assert not NULL_TELEMETRY.wants_worker_spans

    def test_ambient_default_and_scoping(self):
        assert current_telemetry() is NULL_TELEMETRY
        tel = Telemetry(run_id="scope")
        with use_telemetry(tel) as scoped:
            assert scoped is tel
            assert current_telemetry() is tel
            with use_telemetry(None):
                assert current_telemetry() is NULL_TELEMETRY
            assert current_telemetry() is tel
        assert current_telemetry() is NULL_TELEMETRY

    def test_disabled_layers_degrade_to_noops(self):
        tel = Telemetry(run_id="bare", tracing=False, metrics=False)
        assert not tel.wants_worker_spans
        with tel.span("x"):
            tel.count("a")
            tel.observe("b", 1.0)
        snap = tel.snapshot()
        assert snap["run_id"] == "bare"
        assert "metrics" not in snap and "n_trace_events" not in snap

    def test_snapshot_collects_all_layers(self):
        tel = Telemetry(run_id="full", profile=True)
        with tel.span("s"):
            with tel.profile_stage("st"):
                pass
        tel.count("k", 2)
        snap = tel.snapshot()
        assert snap["n_trace_events"] == 1
        assert snap["metrics"]["k"]["series"][""] == 2
        assert "hotspots" in snap


class TestConvert:
    def test_nesting_errors_flag_escapes_and_orphans(self):
        good = {"name": "p", "span_id": "s1", "parent_id": None,
                "ts_s": 100.0, "dur_s": 10.0, "pid": 1, "attrs": {}}
        escape = {"name": "c", "span_id": "s2", "parent_id": "s1",
                  "ts_s": 120.0, "dur_s": 5.0, "pid": 1, "attrs": {}}
        orphan = {"name": "o", "span_id": "s3", "parent_id": "zz",
                  "ts_s": 101.0, "dur_s": 1.0, "pid": 1, "attrs": {}}
        problems = nesting_errors([good, escape, orphan])
        assert len(problems) == 2
        assert any("escapes" in p for p in problems)
        assert any("missing parent" in p for p in problems)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "ok", "span_id": "s1", "ts_s": 1}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            load_trace_jsonl(str(path))

    def test_summarize_aggregates_by_name(self):
        events = [
            {"name": "a", "span_id": "1", "parent_id": None,
             "ts_s": 0.0, "dur_s": 2.0, "pid": 1, "attrs": {}},
            {"name": "a", "span_id": "2", "parent_id": None,
             "ts_s": 0.0, "dur_s": 4.0, "pid": 1, "attrs": {}},
        ]
        (row,) = summarize(events)
        assert row["count"] == 2
        assert row["total_s"] == pytest.approx(6.0)
        assert row["max_s"] == pytest.approx(4.0)


# ----------------------------------------------------------------------
# integration with the flow
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_design():
    from repro.soc import build_turbo_eagle

    return build_turbo_eagle("tiny", 2007)


class TestFlowTelemetry:
    def test_flow_trace_metrics_and_report_digest(self, tiny_design):
        from repro.core import run_noise_tolerant_flow

        tel = Telemetry(run_id="flowtest")
        result, report = run_noise_tolerant_flow(
            tiny_design, max_patterns=12, seed=1, telemetry=tel,
        )
        assert report.status == "completed"
        # span tree covers the whole stack and stays well-nested
        names = {e["name"] for e in tel.tracer.events}
        assert {"flow.run", "flow.drc_gate", "atpg.stage", "atpg.run",
                "fsim.run_batch", "fsim.lane"} <= names
        assert not nesting_errors(tel.tracer.events)
        # the metric digest landed in the run report and agrees with
        # the flow's own accounting
        metrics = report.telemetry["metrics"]
        assert metrics["atpg.patterns_generated"]["series"][""] == (
            result.n_patterns
        )
        assert report.telemetry["run_id"] == "flowtest"
        # stage wall times were recorded for the loaded-report view
        assert all(
            row["elapsed_s"] > 0
            for row in report.stage_times()
            if "completed" in row["status"]
        )

    def test_null_telemetry_is_bit_identical(self, tiny_design):
        from repro.core import run_noise_tolerant_flow

        with_tel, _ = run_noise_tolerant_flow(
            tiny_design, max_patterns=12, seed=1,
            telemetry=Telemetry(run_id="a"),
        )
        without, _ = run_noise_tolerant_flow(
            tiny_design, max_patterns=12, seed=1,
        )
        assert (
            with_tel.pattern_set.as_matrix().tolist()
            == without.pattern_set.as_matrix().tolist()
        )

    def test_none_telemetry_ignores_the_enclosing_scope(self, tiny_design):
        # In-process service shards run under the HTTP fleet's telemetry
        # scope; a shard without telemetry must not leak into it.
        from repro.core import run_noise_tolerant_flow

        tel = Telemetry(run_id="outer")
        with use_telemetry(tel):
            _, report = run_noise_tolerant_flow(
                tiny_design, max_patterns=5, seed=1, telemetry=None,
            )
        assert tel.tracer.events == []
        assert len(tel.metrics) == 0
        assert report.telemetry is None

    def test_validation_counts_scap_violations(self, tiny_design):
        import numpy as np

        from repro.core import validate_pattern_set
        from repro.power import ScapCalculator

        calc = ScapCalculator(tiny_design)
        rng = np.random.default_rng(7)
        matrix = rng.integers(
            0, 2, size=(8, tiny_design.netlist.n_flops)
        ).astype("uint8")
        tel = Telemetry(run_id="val")
        with use_telemetry(tel):
            report = validate_pattern_set(
                calc, matrix, {"B5": 0.0}  # zero threshold: all violate
            )
        assert report.violations
        counted = tel.metrics.counter("scap.violations").total
        assert counted == len(report.violations)


# ----------------------------------------------------------------------
# chaos: telemetry under injected infrastructure failure
# ----------------------------------------------------------------------
@pytest.mark.chaos
class TestObsChaos:
    def test_trace_and_metrics_survive_worker_kill(self, tiny_design):
        import warnings

        import numpy as np

        from repro.atpg.faults import build_fault_universe
        from repro.atpg.fsim import FaultSimulator
        from repro.perf import chaos
        from repro.perf.resilient import collect_reports

        netlist = tiny_design.netlist
        domain = tiny_design.dominant_domain()
        faults = build_fault_universe(netlist)[:80]
        rng = np.random.default_rng(3)
        matrix = rng.integers(0, 2, size=(64, netlist.n_flops)).astype(
            "uint8"
        )
        fsim = FaultSimulator(netlist, domain)
        serial = fsim.run_batch(matrix, faults, lane_width=64)

        tel = Telemetry(run_id="chaos")
        spec = chaos.ChaosSpec(kill={1})
        with use_telemetry(tel), chaos.inject(spec), \
                collect_reports() as reports, warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            survived = fsim.run_batch(
                matrix, faults, lane_width=64, n_workers=2
            )

        # recovery did not change results, and telemetry watched it all
        assert survived == serial
        (report,) = reports
        assert not nesting_errors(tel.tracer.events)
        assert tel.metrics.counter("exec.worker_crashes").total == 1
        assert tel.metrics.counter("exec.serial_fallbacks").total == 1
        assert tel.metrics.counter("exec.failures").value(kind="crash") == 1
        assert tel.metrics.counter("exec.chunks").total == report.n_chunks
        # chunk spans: delivered chunks' rode home from the workers on
        # the result channel, the rest were recorded by the serial
        # finish; the killed worker never reported, so each chunk has
        # exactly one span
        chunk_events = [
            e for e in tel.tracer.events if e["name"] == "exec.chunk"
        ]
        assert sorted(e["attrs"]["chunk"] for e in chunk_events) == list(
            range(report.n_chunks)
        )
        # monotonicity: every counter series is non-negative
        for metric in tel.metrics.snapshot().values():
            if metric["kind"] == "counter":
                assert all(v >= 0 for v in metric["series"].values())
