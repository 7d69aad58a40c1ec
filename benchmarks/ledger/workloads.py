"""One ledger workload in one process: set up, time jobs, check, report.

``run.py`` starts this file once per workload run (and again, with
``--setup-only``, for the extra set-up samples); it is not meant to be
run by hand.  The process writes one JSON record to
``<work-dir>/result.json`` and, when traced, its spans to
``<work-dir>/spans.jsonl``.

Every workload is a closed loop: a client sends its next job only when
the previous one has returned.  A run keeps starting jobs while the
next one, at the median job time so far, still fits in ``--seconds``,
and always runs at least one.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

import common
import repro
import repro.atpg.faults as faults
import repro.atpg.fsim as fsim
import repro.atpg.patterns as patterns
import repro.core.flow as flow
import repro.core.irscale as irscale
import repro.core.thresholds as thresholds
import repro.core.validation as validation
import repro.pgrid.grid as grid
import repro.power.calculator as calculator
import repro.service as service
import repro.soc as soc
import repro.timing.prescreen as prescreen
import tracing
from repro.obs.convert import load_trace_jsonl, save_chrome_trace

#: grade_small: random launch vectors graded per pass, vectors the
#: timing pre-screen classifies, vectors re-simulated under IR drop.
GRADE_VECTORS = 1024
GRADE_PRESCREEN = 128
GRADE_IR_SCALED = 16
#: service_tiny: concurrent clients, the per-job pattern cap and the
#: longest think time between a client's jobs.
SERVICE_CLIENTS = 2
SERVICE_MAX_PATTERNS = 16
SERVICE_THINK_MAX_S = 0.05
SERVICE_TENANT = "ledger"
#: How often the server re-reads a job for ``/events``.  A client learns
#: of completion on these ticks, which are fixed offsets from its
#: submit, so latencies come in steps of this size; the default 50 ms
#: is 7% of a job and moves the median by whole steps.
SERVICE_EVENT_POLL_S = 0.01
#: Per-layer metrics the service clients measure rather than spans
#: (0 on the other workloads).
CLIENT_LAYERS = {
    "service.queue_wait_s": "s",
    "service.execute_s": "s",
    "service.overhead_x": "x",
}

SpanFactory = Callable[[], Any]
Check = Callable[[Any], List[str]]


class Job(NamedTuple):
    latency_s: float
    failures: List[str]


def sha256(data: Any) -> str:
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    elif isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def collapsed_faults(design: Any) -> List[Any]:
    netlist = design.netlist
    reps, _ = faults.collapse_faults(netlist, faults.build_fault_universe(netlist))
    return reps


def closed_loop(
    seconds: float, job: Callable[[], Any], check: Check, job_span: SpanFactory
) -> Tuple[List[Job], float]:
    """One client, back to back; returns the jobs and the window length.

    *check* runs on each job's output, outside the job's latency.  Each
    job starts from a collected heap, as a fresh ``repro`` process
    would: otherwise the previous jobs' garbage decides which job pays
    for a full collection, and that alone spreads job times by about 20%.
    """
    jobs: List[Job] = []
    start = time.perf_counter()
    while not jobs or (
        time.perf_counter() - start + statistics.median(j.latency_s for j in jobs)
        <= seconds
    ):
        gc.collect()
        with job_span():
            t0 = time.perf_counter()
            output = job()
            latency = time.perf_counter() - t0
        jobs.append(Job(latency, check(output)))
    return jobs, time.perf_counter() - start


class Workload:
    """Set up once, then :meth:`measure` for a number of seconds."""

    name = ""

    def setup(self, seed: int, work_dir: Path, traced: bool) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, job_span: SpanFactory) -> Dict[str, Any]:
        """``jobs``, ``window_s``, ``quality`` and optional ``layers``."""
        raise NotImplementedError

    def worker_events(self) -> List[tracing.Event]:
        """Spans recorded in other processes the workload started."""
        return []

    def teardown(self) -> None:
        """Stop what :meth:`setup` started (also after a failed setup)."""


class FlowWorkload(Workload):
    """The staged noise-tolerant flow, one whole job at a time.

    A job builds the SOC and runs ``run_noise_tolerant_flow`` (LOC,
    fill-0, the paper's staged plan) with the timing pre-screen; the
    workload seed is the ATPG seed, which orders the targets.
    """

    def __init__(self, name: str, scale: str) -> None:
        self.name = name
        self.scale = scale

    def setup(self, seed: int, work_dir: Path, traced: bool) -> None:
        self.seed = seed
        design = soc.build_turbo_eagle(self.scale, common.DESIGN_SEED)
        self.domain = design.dominant_domain()
        fsim.FaultSimulator(design.netlist, self.domain).warm_kernels(
            collapsed_faults(design)
        )
        model = grid.GridModel.calibrated(design)
        self.thresholds = thresholds.derive_scap_thresholds(model, self.domain)
        self.calculator = calculator.ScapCalculator(design, self.domain)
        self.reference: Optional[str] = None
        if seed == common.DEFAULT_SEED:
            self.reference = common.load_reference()[self.name]["patterns_sha256"]
        self.first: Optional[Any] = None
        self.first_digest: Optional[str] = None

    def _job(self) -> Any:
        design = soc.build_turbo_eagle(self.scale, common.DESIGN_SEED)
        return flow.run_noise_tolerant_flow(design, seed=self.seed, timing_prescreen=True)

    def _check(self, output: Any) -> List[str]:
        result, report = output
        if result is None or report.status != "completed":
            return [f"flow ended {report.status!r}: {report.error}"]
        failures = []
        inconsistent = sum(len(r.inconsistent) for r in result.step_results)
        if inconsistent:
            failures.append(f"{inconsistent} inconsistent fault(s)")
        unsound = report.timing.get("soundness_violations")
        if unsound:
            failures.append(f"{unsound} timing soundness violation(s)")
        digest = sha256(result.pattern_set.as_matrix())
        if self.first is None:
            self.first, self.first_digest = result, digest
        elif digest != self.first_digest:
            failures.append("patterns differ from the run's first job")
        if self.reference is not None and digest != self.reference:
            failures.append(f"patterns sha256 {digest} != recorded {self.reference}")
        return failures

    def measure(self, seconds: float, job_span: SpanFactory) -> Dict[str, Any]:
        jobs, window = closed_loop(seconds, self._job, self._check, job_span)
        quality: Dict[str, Any] = {}
        if self.first is not None:
            # Paper Fig. 6: patterns over the B5 SCAP threshold, graded
            # once, outside the timed jobs.
            report = validation.validate_pattern_set(
                self.calculator, self.first.pattern_set, self.thresholds
            )
            quality = {
                "n_patterns": self.first.n_patterns,
                "test_coverage": self.first.test_coverage,
                "b5_violating_patterns": len(report.violating_patterns("B5")),
            }
        return {
            "jobs": jobs, "window_s": window, "quality": quality,
            "digests": {"patterns_sha256": self.first_digest},
        }


class GradeWorkload(Workload):
    """The paper's validation half on fixed random vectors, no ATPG.

    Each pass fault-simulates the vectors with dropping, screens their
    SCAP against the calibrated thresholds, runs the timing pre-screen
    on the first vectors and the IR-scaled comparison on the vectors
    with the highest B5 SCAP.  The workload seed draws the vectors.
    """

    name = "grade_small"

    def setup(self, seed: int, work_dir: Path, traced: bool) -> None:
        design = soc.build_turbo_eagle("small", common.DESIGN_SEED)
        self.domain = design.dominant_domain()
        self.faults = collapsed_faults(design)
        self.simulator = fsim.FaultSimulator(design.netlist, self.domain)
        self.simulator.warm_kernels(self.faults)
        self.model = grid.GridModel.calibrated(design)
        self.thresholds = thresholds.derive_scap_thresholds(self.model, self.domain)
        self.calculator = calculator.ScapCalculator(design, self.domain)
        rng = np.random.default_rng(seed)
        self.matrix = rng.integers(
            0, 2, size=(GRADE_VECTORS, design.netlist.n_flops), dtype=np.uint8
        )
        self.patterns = patterns.PatternSet(self.domain, fill="random")
        for i, row in enumerate(self.matrix):
            self.patterns.append(patterns.Pattern(
                index=i, v1=row, care=np.zeros(row.shape, dtype=bool),
                domain=self.domain, fill="random",
            ))
        self.digests: Optional[Tuple[str, str]] = None
        self.quality: Dict[str, Any] = {}

    def _job(self) -> Any:
        words = self.simulator.run_batch(self.matrix, self.faults, drop=True)
        report = validation.validate_pattern_set(
            self.calculator, self.patterns, self.thresholds
        )
        summary = prescreen.prescreen_pattern_set(
            self.calculator, self.model, self.patterns, max_patterns=GRADE_PRESCREEN
        )
        hottest = np.argsort(-report.scap_series("B5"), kind="stable")
        for i in hottest[:GRADE_IR_SCALED]:
            irscale.ir_scaled_endpoint_comparison(
                self.calculator, self.model, self.patterns[int(i)]
            )
        return words, report, summary

    def _check(self, output: Any) -> List[str]:
        words, report, summary = output
        detections = sorted(
            (f.net, f.kind, fsim.first_detection_index(w)) for f, w in words.items()
        )
        violations = sorted((v.pattern_index, v.block) for v in report.violations)
        digests = (sha256(repr(detections)), sha256(repr(violations)))
        failures = []
        if self.digests is None:
            self.digests = digests
            self.quality = {
                "n_patterns": GRADE_VECTORS,
                "test_coverage": len(words) / len(self.faults),
                "b5_violating_patterns": len(report.violating_patterns("B5")),
            }
        elif digests != self.digests:
            failures.append("detections or SCAP violations differ between passes")
        if summary.soundness_violations:
            failures.append(f"{summary.soundness_violations} timing soundness violation(s)")
        return failures

    def measure(self, seconds: float, job_span: SpanFactory) -> Dict[str, Any]:
        jobs, window = closed_loop(seconds, self._job, self._check, job_span)
        return {
            "jobs": jobs, "window_s": window, "quality": self.quality,
            "digests": {"detections_sha256": self.digests[0],
                        "violations_sha256": self.digests[1]},
        }


class ServiceWorkload(Workload):
    """Capped tiny jobs through the HTTP front-end and one worker process.

    ``SERVICE_CLIENTS`` client threads each run a closed loop: think,
    submit, follow ``/events`` to the terminal event, fetch the result.
    The worker is ``worker.py`` in its own process.  Every job is the
    same spec (varying its ATPG seed changes a capped job's work by up
    to 80%); the workload seed draws the clients' think times, which
    vary how the two clients' jobs interleave at the worker.
    """

    name = "service_tiny"
    server: Any = None
    worker: Optional[subprocess.Popen] = None

    def setup(self, seed: int, work_dir: Path, traced: bool) -> None:
        self.seed = seed
        self.spec = service.JobSpec(
            scale="tiny", seed=common.DESIGN_SEED, max_patterns=SERVICE_MAX_PATTERNS
        )
        design = soc.build_turbo_eagle("tiny", common.DESIGN_SEED)
        fsim.FaultSimulator(design.netlist, design.dominant_domain()).warm_kernels(
            collapsed_faults(design)
        )
        # The in-process run of the same spec that every service result
        # must equal; its median time is the base of service.overhead_x.
        inproc = []
        for _ in range(3):
            t0 = time.perf_counter()
            result, _report = flow.run_noise_tolerant_flow(
                soc.build_turbo_eagle("tiny", common.DESIGN_SEED),
                seed=self.spec.flow_seed, max_patterns=SERVICE_MAX_PATTERNS,
            )
            inproc.append(time.perf_counter() - t0)
        self.inproc_s = statistics.median(inproc)
        self.reference = result.pattern_set.as_matrix()

        tenants = service.TenantManager(str(work_dir / "service"))
        self.store = tenants.store(SERVICE_TENANT)
        self.server = service.HttpServerThread(
            tenants, event_poll_s=SERVICE_EVENT_POLL_S
        ).start()
        self.worker_spans = work_dir / "worker-spans.jsonl"
        cmd = [sys.executable, str(common.HERE / "worker.py"), self.store.root]
        if traced:
            cmd += ["--trace-out", str(self.worker_spans)]
        self.worker = subprocess.Popen(cmd)
        deadline = time.monotonic() + 60
        while not self.store.alive_workers():
            if self.worker.poll() is not None or time.monotonic() > deadline:
                raise common.LedgerError("service worker did not register")
            time.sleep(0.01)

    def _client_loop(
        self, index: int, deadline: float, job_span: SpanFactory,
        out: List[Dict[str, Any]],
    ) -> None:
        client = service.HttpServiceClient(
            self.server.base_url, tenant=SERVICE_TENANT, request_timeout_s=60
        )
        think = np.random.default_rng([self.seed, index])
        latencies: List[float] = []
        while not latencies or (
            time.perf_counter() + statistics.median(latencies) <= deadline
        ):
            time.sleep(think.uniform(0.0, SERVICE_THINK_MAX_S))
            with job_span():
                t0 = time.perf_counter()
                job_id = client.submit(self.spec)
                submitted = time.time()
                started = finished = submitted
                state = None
                for event in client.events(job_id, timeout_s=120):
                    if state in (None, "queued") and event.get("state") != "queued":
                        started = float(event["ts"])
                    state = event.get("state")
                    if event.get("terminal"):
                        finished = float(event["ts"])
                payload = client.result(job_id) if state == "done" else None
                latency = time.perf_counter() - t0
            latencies.append(latency)
            failures = []
            if payload is None:
                failures.append(f"job {job_id} ended {state!r}")
            elif not np.array_equal(payload["matrix"], self.reference):
                failures.append(f"job {job_id} patterns differ from the in-process run")
            out.append({
                "job": Job(latency, failures),
                "end": time.perf_counter(),
                "payload": payload,
                "queue_wait_s": max(0.0, started - submitted),
                "execute_s": max(0.0, finished - started),
            })

    def measure(self, seconds: float, job_span: SpanFactory) -> Dict[str, Any]:
        records: List[Dict[str, Any]] = []
        errors: List[BaseException] = []
        start = time.perf_counter()

        def client(index: int) -> None:
            try:
                self._client_loop(index, start + seconds, job_span, records)
            except Exception as exc:  # noqa: BLE001 - fails the run below
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(SERVICE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise common.LedgerError(f"service client failed: {errors[0]!r}")
        n = len(records)
        latency_p50 = statistics.median(r["job"].latency_s for r in records)
        first = next((r["payload"] for r in records if r["payload"] is not None), None)
        quality = {}
        if first is not None:
            quality = {
                "n_patterns": first["n_patterns"],
                "test_coverage": first["test_coverage"],
            }
        return {
            "jobs": [r["job"] for r in records],
            "window_s": max(r["end"] for r in records) - start,
            "quality": quality,
            "digests": {"patterns_sha256": sha256(self.reference)},
            "layers": {
                "service.queue_wait_s": (sum(r["queue_wait_s"] for r in records) / n, "s"),
                "service.execute_s": (sum(r["execute_s"] for r in records) / n, "s"),
                "service.overhead_x": (latency_p50 / self.inproc_s, "x"),
            },
        }

    def worker_events(self) -> List[tracing.Event]:
        if not self.worker_spans.exists():
            return []
        return load_trace_jsonl(str(self.worker_spans))

    def teardown(self) -> None:
        if self.worker is not None and self.worker.poll() is None:
            # SIGTERM makes the worker write its spans and deregister.
            self.worker.send_signal(signal.SIGTERM)
            try:
                self.worker.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.worker.kill()
                self.worker.wait()
        if self.server is not None:
            self.server.stop()


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    "flow_tiny": lambda: FlowWorkload("flow_tiny", "tiny"),
    "flow_small": lambda: FlowWorkload("flow_small", "small"),
    "grade_small": GradeWorkload,
    "service_tiny": ServiceWorkload,
}


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one ledger workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = Path(repro.__file__).resolve().parents[1]
    if src != common.ROOT / "src":
        raise common.LedgerError(f"imported repro from {src}, not {common.ROOT / 'src'}")

    recorder = tracing.SpanRecorder() if args.trace else None
    patches = tracing.install(recorder) if recorder is not None else []

    def spans(name: str) -> SpanFactory:
        if recorder is None:
            return nullcontext
        return lambda: recorder.span(name)

    workload = WORKLOADS[args.workload]()
    record: Dict[str, Any] = {"workload": args.workload}
    try:
        with spans("ledger.setup")():
            workload.setup(args.seed, args.work_dir, recorder is not None)
        record["setup_s"] = time.time() - args.spawned_at
        if not args.setup_only:
            measured = workload.measure(args.seconds, spans("ledger.job"))
    finally:
        workload.teardown()
        tracing.restore(patches)
    if not args.setup_only:
        record.update(summarize(workload, measured, recorder, args.work_dir))
    (args.work_dir / "result.json").write_text(json.dumps(record))
    return 0


def summarize(
    workload: Workload,
    measured: Dict[str, Any],
    recorder: Optional[tracing.SpanRecorder],
    work_dir: Path,
) -> Dict[str, Any]:
    """The run's record: counts, samples, checks and its metrics.

    ``extra`` holds numbers that are printed and recorded but carry no
    bound: the error rate (failed jobs over attempted; any nonzero value
    fails the run), throughput (in a closed loop, clients over mean
    latency), the highest tail percentile the sample count supports, and
    the B5 SCAP violations of the job's patterns (none on the capped
    service jobs).
    """
    jobs = measured["jobs"]
    latencies = [j.latency_s for j in jobs]
    quality = measured["quality"]
    failed = sum(1 for j in jobs if j.failures)
    extra = {
        "error_rate": (failed / len(jobs), "fraction"),
        "jobs_per_s": (len(jobs) / measured["window_s"], "1/s"),
    }
    tail = common.tail_percentile(latencies)
    if tail is not None:
        extra[f"job_s_p{tail[0]}"] = (tail[1], "s")
    if "b5_violating_patterns" in quality:
        extra["b5_violating_patterns"] = (quality["b5_violating_patterns"], "count")
    record: Dict[str, Any] = {
        "attempted": len(jobs),
        "failed": failed,
        "failures": [f for j in jobs for f in j.failures],
        "samples": {"job_s": latencies},
        "digests": measured["digests"],
        "extra": _as_metrics(extra),
    }
    if recorder is None:
        metrics = {
            "job_s_p50": (statistics.median(latencies), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "n_patterns": (quality.get("n_patterns", 0), "count"),
            "test_coverage": (quality.get("test_coverage", 0), "fraction"),
        }
    else:
        events = recorder.events()
        worker_events = workload.worker_events()
        metrics = tracing.layer_metrics(
            tracing.subtree(events, "ledger.job") + worker_events,
            tracing.subtree(events, "ledger.setup"),
            len(jobs),
        )
        client_side = measured.get("layers", {})
        for name, unit in CLIENT_LAYERS.items():
            metrics[name] = client_side.get(name, (0.0, unit))
        metrics["trace.job_s_p50"] = (statistics.median(latencies), "s")
        if workload.name == "grade_small" and metrics["atpg.podem_calls"][0]:
            record["failures"].append("grade_small called PODEM")
            record["failed"] = len(jobs)
        tracing.save_events(events + worker_events, str(work_dir / "spans.jsonl"))
        save_chrome_trace(events + worker_events, str(work_dir / "chrome.json"))
    record["metrics"] = _as_metrics(metrics)
    return record


def _as_metrics(values: Dict[str, Tuple[float, str]]) -> Dict[str, Dict[str, Any]]:
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}


if __name__ == "__main__":
    try:
        sys.exit(main())
    except common.LedgerError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        sys.exit(1)
