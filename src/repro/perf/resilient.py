"""Fault-tolerant per-chunk execution on a worker pool.

The workloads this serves (fault-simulating a fault partition, SCAP-
grading a pattern chunk) all share one shape: an expensive read-only
context (netlist, simulators, delay model) plus many small independent
work items.  :func:`resilient_map` therefore takes an *initializer*
that runs once per worker process and stashes the rebuilt context in a
module-level slot; tasks then only ship their small work item.
``n_workers <= 1`` (or a single work item) runs serially in the
calling process, invoking the initializer locally first.  Results are
always returned in input order.

Every work item is its own future, so one crashed, hung, or flaky
worker costs exactly the chunks it was holding — never the completed
results of its neighbours.  The recovery ladder, in order:

1. **Retry with backoff** — a task raising
   :class:`~repro.errors.TransientError` (or anything in the policy's
   ``retry_on``) is requeued up to ``max_attempts`` times, with
   exponential backoff and deterministic jitter.
2. **Crash isolation** — a dead worker breaks the whole
   ``ProcessPoolExecutor``; the chunks that were in flight are requeued
   onto a rebuilt pool (bounded by ``max_pool_rebuilds``) and the chunk
   charged with the crash burns one attempt.  Completed results are
   kept.
3. **Timeout cancellation** — a chunk past its per-task deadline has
   its worker killed (a hung worker cannot be cancelled politely), the
   pool is rebuilt, and the chunk retries; innocent chunks that were
   in flight are requeued without being charged an attempt.
4. **Serial fallback** — reserved for genuine infrastructure failure:
   an unpicklable task/initializer, a pool that cannot be created, or
   a pool that keeps dying past the rebuild cap.  Only the *remaining*
   chunks run serially.

Task exceptions outside ``retry_on`` are real bugs: they propagate
immediately as :class:`~repro.errors.ExecutionError` with the original
exception chained — they never trigger retries or the serial fallback,
which would silently double the runtime of a broken kernel.

Every call fills an :class:`ExecutionReport` (per-chunk attempt counts,
failure log, rebuild/timeout tallies); the most recent report is
available from :func:`last_report` so layered callers (fault
simulation, SCAP grading, flows) can surface it without threading a
handle through every signature.  Deterministic fault injection for all
of these paths lives in :mod:`repro.perf.chaos`.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import random
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from ..errors import (
    ExecutionError,
    TaskTimeoutError,
    TransientError,
    WorkerCrashError,
)
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


def backoff_delay_s(
    base_s: float,
    factor: float,
    max_s: float,
    jitter: float,
    seed: int,
    index: int,
    attempt: int,
) -> float:
    """Exponential backoff with deterministic jitter, shared math.

    Delay before retry *attempt* (0-based) of work unit *index*:
    ``base * factor**attempt`` capped at *max_s*, plus up to
    ``jitter`` fraction extra derived from ``(seed, index, attempt)``
    so every layer that backs off — chunk retries here, shard retries
    in :mod:`repro.service` — is reproducible run to run.
    """
    base = min(max_s, base_s * (factor ** attempt))
    rng = random.Random((seed * 1_000_003) ^ (index * 7_919 + attempt))
    return base * (1.0 + jitter * rng.random())


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the recovery ladder.  Immutable; share freely."""

    #: Tries per chunk, first try included.
    max_attempts: int = 3
    #: Per-chunk wall-clock limit (None = no timeout enforcement).
    timeout_s: Optional[float] = None
    #: Backoff before retry *n* is ``base * factor**n`` capped at
    #: ``backoff_max_s``, plus deterministic jitter.
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    #: Jitter fraction: the delay gains up to ``jitter * delay`` extra,
    #: derived from (seed, chunk, attempt) so runs are reproducible.
    jitter: float = 0.25
    seed: int = 0
    #: Pool rebuilds tolerated before declaring the infrastructure dead.
    max_pool_rebuilds: int = 3
    #: Task exception types that are retried instead of propagated.
    retry_on: Tuple[Type[BaseException], ...] = (TransientError,)
    #: Run remaining chunks serially once the rebuild cap is exhausted
    #: (False raises :class:`WorkerCrashError` instead).
    serial_fallback: bool = True

    def backoff_s(self, chunk_index: int, attempt: int) -> float:
        """Deterministic backoff before retrying *attempt* (0-based)."""
        return backoff_delay_s(
            self.backoff_base_s, self.backoff_factor, self.backoff_max_s,
            self.jitter, self.seed, chunk_index, attempt,
        )


#: Module default; override per call or via :func:`execution_policy`.
DEFAULT_POLICY = RetryPolicy()

_policy_stack: List[RetryPolicy] = [DEFAULT_POLICY]


def default_policy() -> RetryPolicy:
    """The policy used when a call site does not pass one."""
    return _policy_stack[-1]


@contextmanager
def execution_policy(policy: Optional[RetryPolicy] = None, **overrides):
    """Scope a default policy: ``with execution_policy(timeout_s=5):``.

    *overrides* are applied on top of *policy* (or the current
    default), so nested scopes compose.
    """
    base = policy if policy is not None else default_policy()
    scoped = dataclasses.replace(base, **overrides) if overrides else base
    _policy_stack.append(scoped)
    try:
        yield scoped
    finally:
        _policy_stack.pop()


@dataclass
class ChunkFailure:
    """One failed attempt of one chunk (the per-chunk failure log)."""

    chunk_index: int
    attempt: int
    kind: str  # "crash" | "timeout" | "transient" | "error"
    error: str

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass
class ExecutionReport:
    """What one :func:`resilient_map` call went through."""

    n_chunks: int = 0
    n_workers: int = 0
    #: chunk index -> attempts consumed (1 = clean first try).
    chunk_attempts: Dict[int, int] = field(default_factory=dict)
    failures: List[ChunkFailure] = field(default_factory=list)
    pool_rebuilds: int = 0
    n_timeouts: int = 0
    serial_fallback: bool = False
    elapsed_s: float = 0.0

    @property
    def total_retries(self) -> int:
        return sum(max(0, a - 1) for a in self.chunk_attempts.values())

    @property
    def retried_chunks(self) -> List[int]:
        return sorted(
            ci for ci, a in self.chunk_attempts.items() if a > 1
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_chunks": self.n_chunks,
            "n_workers": self.n_workers,
            "chunk_attempts": dict(self.chunk_attempts),
            "failures": [f.to_dict() for f in self.failures],
            "pool_rebuilds": self.pool_rebuilds,
            "n_timeouts": self.n_timeouts,
            "serial_fallback": self.serial_fallback,
            "total_retries": self.total_retries,
            "elapsed_s": self.elapsed_s,
        }


_LAST_REPORT: Optional[ExecutionReport] = None

_COLLECTOR: Optional[List[ExecutionReport]] = None


def last_report() -> Optional[ExecutionReport]:
    """The report of the most recent resilient map in this process."""
    return _LAST_REPORT


@contextmanager
def collect_reports():
    """Gather the report of every resilient map run inside the block.

    Lets a flow stage absorb the execution stats of all its pool calls
    (fault-simulation grading, SCAP profiling, …) into one
    :class:`~repro.reporting.runreport.RunReport` without threading a
    handle through every layer::

        with collect_reports() as reports:
            ...  # any number of resilient_map calls
        retries = sum(r.total_retries for r in reports)
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
    attempt: int,
    spec,
    collect_spans: bool = False,
) -> Any:
    """Run one chunk in a worker, applying any armed chaos first."""
    _chaos.apply(spec, chunk_index, attempt)
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
                attempt=attempt,
            )
        ],
    )


def _run_initializer(initializer, initargs) -> None:
    if initializer is not None:
        initializer(*initargs)


def _kill_pool(pool: Optional[ProcessPoolExecutor]) -> None:
    """Tear a pool down even if its workers are hung.

    ``shutdown`` alone never returns workers stuck in a task, so the
    worker processes are terminated explicitly (``_processes`` is a
    private but long-stable attribute; if it moves, shutdown still
    prevents new work and the leaked sleeper dies with the session).
    """
    if pool is None:
        return
    procs = list((getattr(pool, "_processes", None) or {}).values())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for proc in procs:
        try:
            proc.terminate()
        except Exception:
            pass


def resilient_map(
    task: Callable[[Any], Any],
    items: Sequence[Any],
    *,
    n_workers: Optional[int] = None,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple = (),
    policy: Optional[RetryPolicy] = None,
    report: Optional[ExecutionReport] = None,
) -> List[Any]:
    """Map *task* over *items* with per-chunk fault tolerance.

    Results are returned in input order and are bit-identical to a
    serial ``[task(i) for i in items]`` whatever failures were survived
    along the way.  *task* and *initializer* must be module-level
    callables (picklable by reference); the initializer runs once per
    worker before any task.  *n_workers* goes through
    :func:`resolve_workers`.  See the module docstring for the recovery
    ladder; see :class:`ExecutionReport` for what is recorded about it.
    *policy* (a :class:`RetryPolicy`) defaults to the ambient
    :func:`default_policy`; *report* is filled in place when given.

    Raises :class:`ExecutionError` (task bug), :class:`WorkerCrashError`
    or :class:`TaskTimeoutError` (retries exhausted) — each carrying
    ``chunk_index``, ``attempts`` and the chained cause.
    """
    global _LAST_REPORT
    items = list(items)
    policy = policy if policy is not None else default_policy()
    if report is None:
        report = ExecutionReport()
    report.n_chunks = len(items)
    _LAST_REPORT = report
    if _COLLECTOR is not None:
        _COLLECTOR.append(report)
    tel = current_telemetry()
    tel.count("exec.chunks", len(items))
    started = time.monotonic()
    try:
        if not items:
            return []
        eff = resolve_workers(n_workers, len(items))
        report.n_workers = eff
        if eff <= 1:
            return _serial_with_retries(
                task, items, initializer, initargs, policy, report
            )

        # Infrastructure preflight: a task that cannot cross the
        # process boundary is a platform limitation, not a task bug —
        # the one case that degrades to plain serial up front.  Only
        # the callables are checked (pickled by reference, cheap);
        # initargs may be huge and are inherited wholesale under fork.
        try:
            pickle.dumps((task, initializer))
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            warnings.warn(
                f"task/initializer not picklable ({exc!r}); "
                "running serially",
                RuntimeWarning,
                stacklevel=2,
            )
            report.serial_fallback = True
            return _serial_with_retries(
                task, items, initializer, initargs, policy, report
            )

        return _pooled_map(
            task, items, eff, initializer, initargs, policy, report,
            _mp_context(),
        )
    finally:
        report.elapsed_s = time.monotonic() - started
        tel.count("exec.retries", report.total_retries)
        tel.observe("exec.map_s", report.elapsed_s)


def _serial_with_retries(
    task, items, initializer, initargs, policy, report
) -> List[Any]:
    """The serial path: same retry semantics, no pool, no chaos."""
    tel = current_telemetry()
    _run_initializer(initializer, initargs)
    out: List[Any] = []
    for ci, item in enumerate(items):
        attempt = 0
        while True:
            try:
                with tel.span("exec.chunk", chunk=ci, attempt=attempt):
                    out.append(task(item))
                break
            except policy.retry_on as exc:
                report.failures.append(
                    ChunkFailure(ci, attempt, "transient", repr(exc))
                )
                tel.count("exec.failures", kind="transient")
                attempt += 1
                if attempt >= policy.max_attempts:
                    report.chunk_attempts[ci] = attempt
                    raise ExecutionError(
                        f"chunk {ci} failed after {attempt} attempts",
                        chunk_index=ci,
                        attempts=attempt,
                        cause=exc,
                    ) from exc
                time.sleep(policy.backoff_s(ci, attempt - 1))
            except Exception as exc:
                # Same contract as the pooled path: a task bug is
                # wrapped (with the original chained), never retried.
                report.chunk_attempts[ci] = attempt + 1
                report.failures.append(
                    ChunkFailure(ci, attempt, "error", repr(exc))
                )
                tel.count("exec.failures", kind="error")
                raise ExecutionError(
                    f"task failed on chunk {ci} "
                    f"(attempt {attempt + 1}): {exc!r}",
                    chunk_index=ci,
                    attempts=attempt + 1,
                    cause=exc,
                ) from exc
        report.chunk_attempts[ci] = attempt + 1
    return out


def _pooled_map(
    task, items, eff, initializer, initargs, policy, report, mp_context
) -> List[Any]:
    spec = _chaos.active_spec()
    if spec is not None and spec.is_empty():
        spec = None
    tel = current_telemetry()
    collect_spans = tel.wants_worker_spans

    results: Dict[int, Any] = {}
    attempts: Dict[int, int] = {ci: 0 for ci in range(len(items))}
    pending = deque(range(len(items)))
    inflight: Dict[Any, Tuple[int, int, Optional[float]]] = {}
    pool: Optional[ProcessPoolExecutor] = None

    def new_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=eff,
            mp_context=mp_context,
            initializer=initializer,
            initargs=initargs,
        )

    def charge(ci: int, att: int, kind: str, error: str) -> None:
        """Log a failed attempt and burn it; raise when exhausted."""
        report.failures.append(ChunkFailure(ci, att, kind, error))
        tel.count("exec.failures", kind=kind)
        if kind == "crash":
            tel.count("exec.worker_crashes")
        attempts[ci] = att + 1
        if att + 1 >= policy.max_attempts:
            _kill_pool(pool)
            exc_type = {
                "crash": WorkerCrashError,
                "timeout": TaskTimeoutError,
            }.get(kind, ExecutionError)
            kw: Dict[str, Any] = dict(chunk_index=ci, attempts=att + 1)
            if exc_type is TaskTimeoutError:
                kw["timeout_s"] = policy.timeout_s
            raise exc_type(
                f"chunk {ci} failed after {att + 1} attempts "
                f"(last failure: {kind}: {error})",
                **kw,
            )
        pending.append(ci)

    def drain_requeue_uncharged() -> None:
        """Requeue every in-flight chunk without burning an attempt
        (used when the pool dies for reasons that are not the chunk's
        fault — a neighbour crashed or timed out)."""
        for fut in list(inflight):
            ci, att, _ = inflight.pop(fut)
            pending.append(ci)

    def rebuild_or_fallback() -> Optional[List[Any]]:
        """Replace the dead pool; past the cap, finish serially."""
        nonlocal pool
        _kill_pool(pool)
        pool = None
        report.pool_rebuilds += 1
        tel.count("exec.pool_rebuilds")
        if report.pool_rebuilds <= policy.max_pool_rebuilds:
            try:
                pool = new_pool()
                return None
            except OSError as exc:
                report.failures.append(
                    ChunkFailure(-1, 0, "crash", f"pool rebuild: {exc!r}")
                )
        if not policy.serial_fallback:
            raise WorkerCrashError(
                f"worker pool died {report.pool_rebuilds} times "
                f"(rebuild cap {policy.max_pool_rebuilds}); giving up",
                attempts=report.pool_rebuilds,
            )
        warnings.warn(
            f"worker pool died {report.pool_rebuilds} times; running "
            f"{len(pending)} remaining chunk(s) serially",
            RuntimeWarning,
            stacklevel=4,
        )
        report.serial_fallback = True
        tel.count("exec.serial_fallbacks")
        _run_initializer(initializer, initargs)
        remaining = sorted(set(pending))
        for ci in remaining:
            with tel.span("exec.chunk", chunk=ci, fallback=True):
                results[ci] = task(items[ci])
            attempts[ci] += 1
            report.chunk_attempts[ci] = attempts[ci]
        pending.clear()
        return [results[i] for i in range(len(items))]

    try:
        try:
            pool = new_pool()
        except OSError as exc:
            warnings.warn(
                f"process pool unavailable ({exc!r}); running serially",
                RuntimeWarning,
                stacklevel=3,
            )
            report.serial_fallback = True
            return _serial_with_retries(
                task, items, initializer, initargs, policy, report
            )

        while pending or inflight:
            # Keep exactly eff chunks in flight so per-task deadlines
            # start when a task can actually start.
            broken = False
            while pending and len(inflight) < eff:
                ci = pending.popleft()
                att = attempts[ci]
                try:
                    fut = pool.submit(
                        _invoke_chunk, task, items[ci], ci, att, spec,
                        collect_spans,
                    )
                except (BrokenProcessPool, RuntimeError):
                    pending.appendleft(ci)
                    broken = True
                    break
                deadline = (
                    time.monotonic() + policy.timeout_s
                    if policy.timeout_s is not None
                    else None
                )
                inflight[fut] = (ci, att, deadline)

            if not broken and inflight:
                timeout = None
                if policy.timeout_s is not None:
                    now = time.monotonic()
                    timeout = max(
                        0.0,
                        min(
                            d for (_, _, d) in inflight.values()
                            if d is not None
                        )
                        - now,
                    )
                done, _ = wait(
                    set(inflight), timeout=timeout,
                    return_when=FIRST_COMPLETED,
                )
                for fut in done:
                    ci, att, _ = inflight.pop(fut)
                    try:
                        value = fut.result()
                        if isinstance(value, _WorkerEnvelope):
                            tel.absorb_worker_events(value.events)
                            value = value.value
                        results[ci] = value
                        attempts[ci] = att + 1
                        report.chunk_attempts[ci] = att + 1
                    except BrokenProcessPool:
                        broken = True
                        charge(ci, att, "crash", "worker process died")
                    except policy.retry_on as exc:
                        charge(ci, att, "transient", repr(exc))
                        time.sleep(policy.backoff_s(ci, att))
                    except Exception as exc:
                        # A genuine task bug: propagate, never degrade.
                        attempts[ci] = att + 1
                        report.chunk_attempts[ci] = att + 1
                        report.failures.append(
                            ChunkFailure(ci, att, "error", repr(exc))
                        )
                        _kill_pool(pool)
                        raise ExecutionError(
                            f"task failed on chunk {ci} "
                            f"(attempt {att + 1}): {exc!r}",
                            chunk_index=ci,
                            attempts=att + 1,
                            cause=exc,
                        ) from exc

                # Hung chunks: past-deadline futures still in flight.
                if policy.timeout_s is not None:
                    now = time.monotonic()
                    overdue = [
                        fut
                        for fut, (_, _, dl) in inflight.items()
                        if dl is not None and now >= dl
                    ]
                    if overdue:
                        for fut in overdue:
                            ci, att, _ = inflight.pop(fut)
                            report.n_timeouts += 1
                            charge(
                                ci, att, "timeout",
                                f"exceeded {policy.timeout_s}s",
                            )
                        # The hung workers must die; innocents in
                        # flight are requeued uncharged.
                        drain_requeue_uncharged()
                        fallback = rebuild_or_fallback()
                        if fallback is not None:
                            return fallback
                        continue

            if broken:
                drain_requeue_uncharged()
                fallback = rebuild_or_fallback()
                if fallback is not None:
                    return fallback

        return [results[i] for i in range(len(items))]
    finally:
        _kill_pool(pool)
