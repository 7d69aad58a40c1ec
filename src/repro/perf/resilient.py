"""Grading work on a worker pool, with one recovery rule.

The workloads this serves (fault-simulating a fault partition, SCAP-
grading a pattern chunk) all share one shape: an expensive read-only
context (netlist, simulators, delay model) plus many small independent
work items.  :func:`resilient_map` therefore takes an *initializer*
that runs once per worker process and stashes the rebuilt context in a
module-level slot; tasks then only ship their small work item.
``n_workers <= 1`` (or a single work item) runs serially in the
calling process, invoking the initializer locally first.  Results are
always returned in input order.

One rule covers infrastructure failure.  When a worker dies (the pool
breaks), every result already delivered is kept, the pool is killed,
and the chunks without a result finish serially in the calling process
(initializer first) under one :class:`RuntimeWarning`.  A task or
initializer that does not pickle, or a pool that cannot start, takes
the same serial route.  A task exception is a bug, not misfortune: it
kills the pool and raises :class:`~repro.errors.ExecutionError` at once
with the cause chained, and never triggers the serial route.

Every call fills an :class:`ExecutionReport`; :func:`collect_reports`
gathers the reports of every map run inside a block, which is how flow
stages fold pool failures into their run report.  Deterministic worker
kills for tests live in :mod:`repro.perf.chaos`.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
import warnings
from concurrent.futures import FIRST_EXCEPTION, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ExecutionError
from ..obs import current_telemetry, worker_event
from . import chaos as _chaos

#: Estimated fixed cost of going parallel: pool creation plus
#: per-worker context rebuild.
POOL_OVERHEAD_S = 0.25
#: Throughput estimates behind the callers' ``est_serial_s``.  They only
#: need to be right within ~an order of magnitude — the ``"auto"``
#: decision is a step function, not a regression.  The divergence walk
#: graded 256 patterns x 3,474 faults of the small SOC at 10.4 M
#: fault-patterns/s (``batch_fault_patterns_per_s`` in BENCH_perf.json,
#: 10.4-11.0 M over three runs on a 2-vCPU VM).
FSIM_FAULT_PATTERNS_PER_S = 10e6
SCAP_S_PER_PATTERN = 1.5e-3


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    ``os.cpu_count()`` reports the machine; a container or cgroup cpuset
    often grants far fewer.  Worker counts (and honest benchmark
    reporting) must use the usable number.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_workers(
    n_workers: Union[int, str, None],
    n_items: int,
    est_serial_s: float = 0.0,
) -> int:
    """Effective worker count for *n_items* work items.

    An int is honoured as given (oversubscription is the caller's
    choice) but never exceeds the number of work items — an idle worker
    is pure fork cost.  ``None`` means every core this process may use
    (:func:`usable_cpus`).  ``"auto"`` weighs the pool against
    *est_serial_s*, the caller's estimate of the serial run time: with
    ``w`` = usable cores capped by the item count, the pool saves at
    most ``est_serial_s * (1 - 1/w)`` and costs about
    :data:`POOL_OVERHEAD_S` to stand up, so ``"auto"`` pools ``w``
    workers only when the saving is larger, and otherwise runs serially.
    """
    if n_workers == "auto":
        w = resolve_workers(None, n_items)
        return w if est_serial_s * (1.0 - 1.0 / w) > POOL_OVERHEAD_S else 1
    if n_workers is None:
        n_workers = usable_cpus()
    return max(1, min(int(n_workers), max(1, n_items)))


def chunk_slices(n_items: int, n_chunks: int) -> List[Tuple[int, int]]:
    """Contiguous near-equal ``(start, stop)`` slices covering *n_items*."""
    n_chunks = max(1, min(n_chunks, n_items)) if n_items else 0
    slices: List[Tuple[int, int]] = []
    base, extra = divmod(n_items, n_chunks) if n_chunks else (0, 0)
    start = 0
    for i in range(n_chunks):
        stop = start + base + (1 if i < extra else 0)
        slices.append((start, stop))
        start = stop
    return slices


def chunked(items: Sequence[Any], n_chunks: int) -> List[List[Any]]:
    """Split *items* into at most *n_chunks* contiguous near-equal runs."""
    return [
        list(items[start:stop])
        for start, stop in chunk_slices(len(items), n_chunks)
    ]


def _mp_context():
    """Prefer fork (cheap copy-on-write context inheritance); fall back
    to spawn where fork is unavailable (Windows, some macOS setups)."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


@dataclass
class ChunkFailure:
    """One chunk's failure: its worker died, or its task raised."""

    chunk_index: int
    kind: str  # "crash" | "error"
    error: str

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class ExecutionReport:
    """What one :func:`resilient_map` call went through."""

    n_chunks: int = 0
    n_workers: int = 0
    failures: List[ChunkFailure] = field(default_factory=list)
    #: True when chunks finished serially because the pool failed.
    serial_fallback: bool = False
    elapsed_s: float = 0.0


_COLLECTOR: Optional[List[ExecutionReport]] = None


@contextmanager
def collect_reports():
    """Gather the report of every resilient map run inside the block.

    Lets a flow stage absorb the execution stats of all its pool calls
    (fault-simulation grading, SCAP profiling, …) into one
    :class:`~repro.reporting.runreport.RunReport` without threading a
    handle through every layer::

        with collect_reports() as reports:
            ...  # any number of resilient_map calls
        failures = [f for r in reports for f in r.failures]
    """
    global _COLLECTOR
    previous = _COLLECTOR
    _COLLECTOR = []
    try:
        yield _COLLECTOR
    finally:
        _COLLECTOR = previous


# ----------------------------------------------------------------------
# worker-side entry point
# ----------------------------------------------------------------------
@dataclass
class _WorkerEnvelope:
    """A chunk result plus the worker's span events for it.

    When the parent run is tracing, workers wrap their result in this
    envelope so span timing rides home on the existing chunk-result
    channel (no side channel, works under fork and spawn); the parent
    unwraps it and feeds the events to its tracer.
    """

    value: Any
    events: List[Dict[str, Any]]


def _invoke_chunk(
    task: Callable[[Any], Any],
    item: Any,
    chunk_index: int,
    spec: Optional[_chaos.ChaosSpec],
    collect_spans: bool,
) -> Any:
    """Run one chunk in a worker, applying any armed chaos first."""
    _chaos.apply(spec, chunk_index)
    if not collect_spans:
        return task(item)
    started = time.time()
    value = task(item)
    return _WorkerEnvelope(
        value,
        [
            worker_event(
                "exec.chunk",
                started,
                time.time() - started,
                chunk=chunk_index,
            )
        ],
    )


def _kill_pool(pool: Optional[ProcessPoolExecutor]) -> None:
    """Stop *pool* at once and reap its workers, busy or idle.

    ``shutdown(wait=False)`` alone leaves a busy worker running its
    task, so the workers are terminated and joined explicitly
    (``_processes`` is a private but long-stable attribute).
    """
    if pool is None:
        return
    procs = list((pool._processes or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        proc.terminate()
    for proc in procs:
        proc.join()


def _task_error(
    report: ExecutionReport, chunk_index: int, exc: BaseException
) -> ExecutionError:
    """Log a task exception on *chunk_index*; the error to raise."""
    report.failures.append(ChunkFailure(chunk_index, "error", repr(exc)))
    current_telemetry().count("exec.failures", kind="error")
    return ExecutionError(
        f"task failed on chunk {chunk_index}: {exc!r}",
        chunk_index=chunk_index,
        cause=exc,
    )


def resilient_map(
    task: Callable[[Any], Any],
    items: Sequence[Any],
    *,
    n_workers: Union[int, str, None] = None,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple = (),
) -> List[Any]:
    """Map *task* over *items* on a worker pool.

    Results are returned in input order and are bit-identical to a
    serial ``[task(i) for i in items]``, a dead worker included.
    *task* and *initializer* must be module-level callables (picklable
    by reference); the initializer runs once per worker before any
    task.  *n_workers* goes through :func:`resolve_workers`.  See the
    module docstring for the recovery rule and :class:`ExecutionReport`
    for what each call records.

    Raises :class:`ExecutionError` when a task raises, carrying
    ``chunk_index`` and the chained cause.
    """
    items = list(items)
    report = ExecutionReport(n_chunks=len(items))
    if _COLLECTOR is not None:
        _COLLECTOR.append(report)
    tel = current_telemetry()
    tel.count("exec.chunks", len(items))
    started = time.monotonic()
    try:
        if not items:
            return []
        report.n_workers = resolve_workers(n_workers, len(items))
        results: Dict[int, Any] = {}
        if report.n_workers > 1:
            reason = _pooled_map(
                task, items, initializer, initargs, report, results
            )
            if reason is None:
                return [results[ci] for ci in range(len(items))]
            warnings.warn(
                f"{reason}; running {len(items) - len(results)} "
                "remaining chunk(s) serially",
                RuntimeWarning,
                stacklevel=2,
            )
            report.serial_fallback = True
            tel.count("exec.serial_fallbacks")
        if initializer is not None:
            initializer(*initargs)
        for ci, item in enumerate(items):
            if ci in results:
                continue
            try:
                with tel.span("exec.chunk", chunk=ci):
                    results[ci] = task(item)
            except Exception as exc:
                raise _task_error(report, ci, exc) from exc
        return [results[ci] for ci in range(len(items))]
    finally:
        report.elapsed_s = time.monotonic() - started
        tel.observe("exec.map_s", report.elapsed_s)


def _pooled_map(
    task: Callable[[Any], Any],
    items: List[Any],
    initializer: Optional[Callable[..., None]],
    initargs: Tuple,
    report: ExecutionReport,
    results: Dict[int, Any],
) -> Optional[str]:
    """One pool pass over *items*, filling *results* by chunk index.

    Returns ``None`` once every chunk has delivered, or why the chunks
    still without a result must finish serially.
    """
    # Only the callables are checked (pickled by reference, cheap);
    # initargs may be huge and are inherited wholesale under fork.
    try:
        pickle.dumps((task, initializer))
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        return f"task/initializer not picklable ({exc!r})"
    tel = current_telemetry()
    spec = _chaos.active_spec()
    collect_spans = tel.wants_worker_spans
    pool: Optional[ProcessPoolExecutor] = None
    futures: List[Future] = []
    try:
        try:
            pool = ProcessPoolExecutor(
                max_workers=report.n_workers,
                mp_context=_mp_context(),
                initializer=initializer,
                initargs=initargs,
            )
            for ci, item in enumerate(items):
                futures.append(
                    pool.submit(
                        _invoke_chunk, task, item, ci, spec, collect_spans
                    )
                )
        except OSError as exc:
            return f"process pool unavailable ({exc!r})"
        except BrokenProcessPool:
            pass  # a worker died while chunks were still being submitted
        else:
            wait(futures, return_when=FIRST_EXCEPTION)
        for ci, fut in enumerate(futures):
            if not fut.done():
                continue
            exc = fut.exception()
            if isinstance(exc, BrokenProcessPool):
                continue
            if exc is not None:
                raise _task_error(report, ci, exc) from exc
            value = fut.result()
            if isinstance(value, _WorkerEnvelope):
                tel.absorb_worker_events(value.events)
                value = value.value
            results[ci] = value
    finally:
        _kill_pool(pool)
    if len(results) == len(items):
        return None
    first = min(ci for ci in range(len(items)) if ci not in results)
    report.failures.append(ChunkFailure(first, "crash", "worker process died"))
    tel.count("exec.failures", kind="crash")
    tel.count("exec.worker_crashes")
    return "a worker process died"
