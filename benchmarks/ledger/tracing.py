"""Per-layer attribution for the ledger, timed from outside the program.

The benchmark never edits ``src/``.  A traced run replaces the public
entry point of each layer (:data:`HOOKS`) with a thin wrapper that
records one span — name, start, end, parent — in memory and calls the
original.  Spans go into one :class:`repro.obs.tracer.Tracer` per
thread, the same recorder the flow's own telemetry uses, and are
written out when the run ends.  :func:`install` returns the patches it
made and :func:`restore` puts every original back.

A module-level function is rebound wherever the package imported it by
name (``from .podem import generate_test``), so callers inside
``repro`` hit the wrapper too; methods and classmethods are replaced
once on their class.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Event = Dict[str, Any]
Patch = Tuple[Any, str, Any]


class SpanRecorder:
    """In-memory spans from any number of threads.

    Each thread records into its own :class:`~repro.obs.tracer.Tracer`
    (whose span stack is single-threaded); :meth:`events` merges them
    with ids made unique across threads.
    """

    def __init__(self, run_id: str = "ledger") -> None:
        self.run_id = run_id
        self._local = threading.local()
        self._tracers: List[Any] = []
        self._lock = threading.Lock()

    def span(self, name: str, **attrs: Any) -> Any:
        tracer = getattr(self._local, "tracer", None)
        if tracer is None:
            from repro.obs.tracer import Tracer

            tracer = Tracer(self.run_id)
            self._local.tracer = tracer
            with self._lock:
                self._tracers.append(tracer)
        return tracer.span(name, **attrs)

    def events(self, prefix: str = "") -> List[Event]:
        """Every finished span; call once the recording threads are done."""
        with self._lock:
            tracers = list(self._tracers)
        merged: List[Event] = []
        for k, tracer in enumerate(tracers):
            tag = f"{prefix}t{k}."
            for event in tracer.events:
                event = dict(event)
                event["span_id"] = tag + event["span_id"]
                if event["parent_id"] is not None:
                    event["parent_id"] = tag + event["parent_id"]
                merged.append(event)
        return merged


def save_events(events: Iterable[Event], path: str) -> None:
    """Spans as JSONL, readable by ``repro.obs.convert.load_trace_jsonl``."""
    with open(path, "w") as fh:
        for event in events:
            fh.write(json.dumps(event, sort_keys=True, default=str) + "\n")


# -- the layer table ----------------------------------------------------------


@dataclass(frozen=True)
class Hook:
    """One wrapped entry point: ``module:function`` or ``module:Class.method``."""

    span: str
    target: str
    #: ``(args, kwargs) -> span name`` when one entry point feeds two layers.
    name_of: Optional[Callable[[tuple, dict], str]] = None
    #: ``(args, kwargs, result) -> attrs`` recorded on the span.
    attrs_of: Optional[Callable[[tuple, dict, Any], Dict[str, Any]]] = None


def _podem_or_merge(args: tuple, kwargs: dict) -> str:
    base = args[2] if len(args) > 2 else kwargs.get("base")
    return "atpg.podem" if base is None else "atpg.merge"


def _podem_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {
        "status": result.status.value,
        "decisions": result.decisions,
        "backtracks": result.backtracks,
    }


def _fsim_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    matrix = args[1] if len(args) > 1 else kwargs["v1_matrix"]
    faults = args[2] if len(args) > 2 else kwargs["faults"]
    return {"fault_patterns": len(matrix) * len(faults)}


def _prescreen_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {
        "patterns": result.n_patterns,
        "pruned_fraction": result.pruned_endpoint_fraction,
        "resimulated": result.patterns_resimulated,
    }


def _store_op(op: str) -> Hook:
    return Hook(
        "service.store",
        f"repro.service.jobstore:JobStore.{op}",
        attrs_of=lambda a, k, r: {"op": op, "ok": r is not None and r is not False},
    )


#: The public entry point of each layer; the span names are the metric
#: prefixes ``layer_metrics`` reads.
HOOKS: Tuple[Hook, ...] = (
    Hook("soc.build", "repro.soc.generator:build_turbo_eagle"),
    Hook("drc.gate", "repro.core.flow:run_drc_gate"),
    Hook("flow.run", "repro.core.flow:run_noise_tolerant_flow"),
    Hook("atpg.podem", "repro.atpg.podem:generate_test",
         name_of=_podem_or_merge, attrs_of=_podem_attrs),
    Hook("atpg.engine", "repro.atpg.engine:AtpgEngine.run"),
    Hook("atpg.fill", "repro.atpg.fill:apply_fill"),
    Hook("atpg.faults", "repro.atpg.faults:collapse_faults"),
    Hook("atpg.fsim", "repro.atpg.fsim:FaultSimulator.run_batch",
         attrs_of=_fsim_attrs),
    Hook("perf.warm_kernels", "repro.atpg.fsim:FaultSimulator.warm_kernels",
         attrs_of=lambda a, k, r: {"sites": r}),
    Hook("power.scap", "repro.power.calculator:ScapCalculator.profile_patterns",
         attrs_of=lambda a, k, r: {"patterns": len(r)}),
    Hook("pgrid.calibrate", "repro.pgrid.grid:GridModel.calibrated"),
    Hook("pgrid.thresholds", "repro.core.thresholds:derive_scap_thresholds"),
    Hook("timing.prescreen", "repro.timing.prescreen:prescreen_pattern_set",
         attrs_of=_prescreen_attrs),
    Hook("sim.irscaled", "repro.core.irscale:ir_scaled_endpoint_comparison"),
    Hook("checkpoint.save", "repro.reporting.checkpoint:CheckpointStore.save"),
    Hook("checkpoint.load", "repro.reporting.checkpoint:CheckpointStore.try_load",
         attrs_of=lambda a, k, r: {"hit": r is not None}),
    Hook("service.submit", "repro.service.client:HttpServiceClient.submit"),
    Hook("service.result_fetch", "repro.service.client:HttpServiceClient.result"),
    Hook("service.design_rebuild",
         "repro.service.jobstore:JobSpec.build_design_and_plan"),
    _store_op("claim"),
    _store_op("start_shard"),
    _store_op("complete_shard"),
)


def _wrap(fn: Callable, hook: Hook, recorder: SpanRecorder) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        name = hook.span if hook.name_of is None else hook.name_of(args, kwargs)
        with recorder.span(name) as span:
            result = fn(*args, **kwargs)
            if hook.attrs_of is not None:
                span.set(**hook.attrs_of(args, kwargs, result))
        return result

    return traced


def _package_modules() -> List[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def install(recorder: SpanRecorder, hooks: Sequence[Hook] = HOOKS) -> List[Patch]:
    """Wrap every hook's entry point; returns what :func:`restore` undoes."""
    importlib.import_module("repro")
    for hook in hooks:
        importlib.import_module(hook.target.partition(":")[0])
    patches: List[Patch] = []
    for hook in hooks:
        module_name, _, path = hook.target.partition(":")
        module = sys.modules[module_name]
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(_wrap(raw.__func__, hook, recorder))
            else:
                wrapped = _wrap(raw, hook, recorder)
            patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            continue
        original = getattr(module, attr)
        wrapped = _wrap(original, hook, recorder)
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, name, original))
                    setattr(mod, name, wrapped)
    return patches


def restore(patches: Sequence[Patch]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


# -- attribution ----------------------------------------------------------------


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(events: Sequence[Event]) -> Dict[str, float]:
    """span id -> duration minus the part of it its child spans cover."""
    children: Dict[str, List[Tuple[float, float]]] = {}
    for event in events:
        if event.get("parent_id") is not None:
            start = float(event["ts_s"])
            children.setdefault(event["parent_id"], []).append(
                (start, start + float(event["dur_s"]))
            )
    out: Dict[str, float] = {}
    for event in events:
        start, dur = float(event["ts_s"]), float(event["dur_s"])
        covered = _covered(children.get(event["span_id"], []), start, start + dur)
        out[event["span_id"]] = max(0.0, dur - covered)
    return out


def subtree(events: Sequence[Event], root_name: str) -> List[Event]:
    """Every span named *root_name* and all of its descendants."""
    kids: Dict[Optional[str], List[Event]] = {}
    for event in events:
        kids.setdefault(event.get("parent_id"), []).append(event)
    out: List[Event] = []
    stack = [e for e in events if e["name"] == root_name]
    while stack:
        event = stack.pop()
        out.append(event)
        stack.extend(kids.get(event["span_id"], ()))
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    job_events: Sequence[Event],
    setup_events: Sequence[Event],
    n_jobs: int,
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics, per timed job, as ``name -> (value, unit)``.

    *job_events* are the spans recorded while jobs ran (the job subtrees
    plus, for the service, everything the worker recorded);
    *setup_events* the set-up subtree, which the kernel-cache layer is
    read from.  Layers a workload never enters read 0.
    """
    by_name: Dict[str, List[Event]] = {}
    for event in job_events:
        by_name.setdefault(event["name"], []).append(event)
    selfs = self_times(job_events)
    n = max(1, n_jobs)

    def spans(name: str) -> List[Event]:
        return by_name.get(name, [])

    def total(name: str) -> float:
        return sum(float(e["dur_s"]) for e in spans(name))

    def attr_sum(name: str, key: str) -> float:
        return float(sum(e["attrs"].get(key, 0) for e in spans(name)))

    def self_total(name: str) -> float:
        return sum(selfs[e["span_id"]] for e in spans(name))

    podem = spans("atpg.podem")
    merge = spans("atpg.merge")
    podem_ok = sum(1 for e in podem if e["attrs"].get("status") == "success")
    decisions = attr_sum("atpg.podem", "decisions")
    fault_patterns = attr_sum("atpg.fsim", "fault_patterns")
    scap_patterns = attr_sum("power.scap", "patterns")
    prescreens = spans("timing.prescreen")
    flow_total, flow_self = total("flow.run"), self_total("flow.run")
    warm = [e for e in setup_events if e["name"] == "perf.warm_kernels"]
    store_ok = [
        e for e in spans("service.store")
        if e["attrs"].get("op") == "complete_shard" and e["attrs"].get("ok")
    ]
    return {
        "soc.build_s": (total("soc.build") / n, "s"),
        "drc.gate_s": (total("drc.gate") / n, "s"),
        "atpg.podem_s": (total("atpg.podem") / n, "s"),
        "atpg.podem_calls": (len(podem) / n, "count"),
        "atpg.podem_decisions": (decisions / n, "count"),
        "atpg.podem_backtracks": (attr_sum("atpg.podem", "backtracks") / n, "count"),
        "atpg.podem_aborts": (
            sum(1 for e in podem if e["attrs"].get("status") == "abort") / n, "count"),
        "atpg.podem_untestable": (
            sum(1 for e in podem if e["attrs"].get("status") == "untestable") / n,
            "count"),
        "atpg.podem_success_ratio": (_ratio(podem_ok, len(podem)), "fraction"),
        "atpg.podem_us_per_decision": (
            _ratio(total("atpg.podem") * 1e6, decisions), "us"),
        "atpg.merge_s": (total("atpg.merge") / n, "s"),
        "atpg.merge_calls": (len(merge) / n, "count"),
        "atpg.merge_success_ratio": (
            _ratio(sum(1 for e in merge if e["attrs"].get("status") == "success"),
                   len(merge)), "fraction"),
        "atpg.engine_self_s": (self_total("atpg.engine") / n, "s"),
        "atpg.fill_s": (total("atpg.fill") / n, "s"),
        "atpg.faults_s": (total("atpg.faults") / n, "s"),
        "atpg.fsim_s": (total("atpg.fsim") / n, "s"),
        "atpg.fsim_calls": (len(spans("atpg.fsim")) / n, "count"),
        "atpg.fsim_fault_patterns": (fault_patterns / n, "count"),
        "atpg.fsim_ns_per_fault_pattern": (
            _ratio(total("atpg.fsim") * 1e9, fault_patterns), "ns"),
        "perf.kernel_compile_s": (sum(float(e["dur_s"]) for e in warm), "s"),
        "perf.kernel_sites_compiled": (
            float(sum(e["attrs"].get("sites", 0) for e in warm)), "count"),
        "power.scap_s": (total("power.scap") / n, "s"),
        "power.scap_patterns": (scap_patterns / n, "count"),
        "power.scap_ms_per_pattern": (
            _ratio(total("power.scap") * 1e3, scap_patterns), "ms"),
        "pgrid.calibrate_s": (total("pgrid.calibrate") / n, "s"),
        "pgrid.thresholds_s": (total("pgrid.thresholds") / n, "s"),
        "timing.prescreen_s": (total("timing.prescreen") / n, "s"),
        "timing.prescreen_patterns": (attr_sum("timing.prescreen", "patterns") / n,
                                      "count"),
        "timing.pruned_endpoint_fraction": (
            _ratio(attr_sum("timing.prescreen", "pruned_fraction"), len(prescreens)),
            "fraction"),
        "timing.patterns_resimulated": (
            attr_sum("timing.prescreen", "resimulated") / n, "count"),
        "sim.irscaled_s": (total("sim.irscaled") / n, "s"),
        "sim.irscaled_calls": (len(spans("sim.irscaled")) / n, "count"),
        "flow.self_s": (flow_self / n, "s"),
        "flow.attributed_fraction": (
            1.0 - flow_self / flow_total if flow_total else 0.0, "fraction"),
        "checkpoint.save_s": (total("checkpoint.save") / n, "s"),
        "checkpoint.load_s": (total("checkpoint.load") / n, "s"),
        "checkpoint.saves": (len(spans("checkpoint.save")) / n, "count"),
        "checkpoint.loads": (
            sum(1 for e in spans("checkpoint.load") if e["attrs"].get("hit")) / n,
            "count"),
        "service.submit_s": (total("service.submit") / n, "s"),
        "service.result_fetch_s": (total("service.result_fetch") / n, "s"),
        "service.design_rebuild_s": (total("service.design_rebuild") / n, "s"),
        "service.store_s": (total("service.store") / n, "s"),
        "service.shards_per_job": (len(store_ok) / n, "count"),
    }
