"""Hierarchical span tracing for the noise-tolerant flow.

A :class:`Tracer` records *spans* — named, attributed, wall-clock
intervals that nest: the flow run contains its stages, a stage contains
its ATPG run and grading batches, a batch contains its lanes and the
chunk executions that worker processes report back.  Finished spans
accumulate as plain dicts (one per span) that export two ways:

* **JSONL** — one JSON object per line, trivially greppable and
  streamable (the ``repro obs`` subcommand summarises these);
* **Chrome trace-event format** — a ``{"traceEvents": [...]}`` document
  of ``"ph": "X"`` complete events that ``chrome://tracing`` and
  Perfetto load directly, with worker-side events appearing under
  their own pid rows.

Spans opened in *this* process nest through an explicit stack (the
orchestration layers are single-threaded).  Worker processes cannot
share that stack; they instead build leaf events with
:func:`worker_event` and ship them home on the existing chunk-result
channel, where :meth:`Tracer.absorb_events` parents them under the
span that was open at absorb time.
"""

from __future__ import annotations

import json
import os
import time
from types import TracebackType
from typing import Any, Dict, List, Optional, Type

#: A finished span, as stored and exported.  Keys: ``name``, ``span_id``,
#: ``parent_id``, ``ts_s`` (wall-clock start, seconds), ``dur_s``,
#: ``pid`` and free-form ``attrs``.
TraceEvent = Dict[str, Any]


def worker_event(
    name: str, ts_s: float, dur_s: float, **attrs: Any
) -> TraceEvent:
    """Build a leaf trace event inside a worker process.

    The event carries the worker's pid and absolute wall-clock times;
    the parent tracer assigns ids and parentage when it absorbs the
    event (see :meth:`Tracer.absorb_events`).
    """
    return {
        "name": name,
        "span_id": None,
        "parent_id": None,
        "ts_s": ts_s,
        "dur_s": dur_s,
        "pid": os.getpid(),
        "attrs": attrs,
    }


class Span:
    """One open span; use as a context manager (``with tracer.span(...)``)."""

    __slots__ = ("name", "span_id", "parent_id", "start_s", "attrs", "_tracer")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: str,
        parent_id: Optional[str],
        attrs: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.start_s = time.time()

    def set(self, **attrs: Any) -> "Span":
        """Attach/override attributes on the open span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        if exc is not None:
            self.attrs["error"] = repr(exc)
        self._tracer._pop(self)


class Tracer:
    """Collects a run's span tree as a flat list of finished events."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.events: List[TraceEvent] = []
        self._stack: List[Span] = []
        self._next_id = 0
        self._pid = os.getpid()

    # -- span lifecycle -------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        """Open a span nested under the currently-open span."""
        self._next_id += 1
        return Span(
            self,
            name,
            span_id=f"s{self._next_id}",
            parent_id=self.current_span_id(),
            attrs=attrs,
        )

    def current_span_id(self) -> Optional[str]:
        return self._stack[-1].span_id if self._stack else None

    def _push(self, span: Span) -> None:
        # Parentage is fixed at entry, not construction, so a span built
        # early and entered late still nests where it actually ran.
        span.parent_id = self.current_span_id()
        span.start_s = time.time()
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        end_s = time.time()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # pragma: no cover - defensive
            while self._stack and self._stack[-1] is not span:
                self._stack.pop()
            if self._stack:
                self._stack.pop()
        self.events.append(
            {
                "name": span.name,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "ts_s": span.start_s,
                "dur_s": max(0.0, end_s - span.start_s),
                "pid": self._pid,
                "attrs": dict(span.attrs),
            }
        )

    # -- worker events --------------------------------------------------
    def absorb_events(self, events: List[TraceEvent]) -> None:
        """Adopt leaf events reported by worker processes.

        Each event gets a fresh id and is parented under the span open
        at absorb time (the batch/executor span that dispatched the
        work), so the cross-process tree stays well-nested: the parent
        opened before the chunk was submitted and closes after its
        result was received.
        """
        parent = self.current_span_id()
        for event in events:
            self._next_id += 1
            adopted = dict(event)
            adopted["span_id"] = f"s{self._next_id}"
            adopted["parent_id"] = parent
            self.events.append(adopted)

    # -- export ---------------------------------------------------------
    def to_jsonl(self) -> str:
        """One finished span per line, in completion order."""
        return "".join(
            json.dumps(event, sort_keys=True, default=str) + "\n"
            for event in self.events
        )

    def save_jsonl(self, path: str) -> str:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())
        return path

    def chrome_events(self) -> List[Dict[str, Any]]:
        """Chrome trace-event "complete" (``ph: X``) events."""
        return events_to_chrome(self.events)

    def save_chrome(self, path: str) -> str:
        with open(path, "w") as fh:
            json.dump(
                {
                    "traceEvents": self.chrome_events(),
                    "displayTimeUnit": "ms",
                    "otherData": {"run_id": self.run_id},
                },
                fh,
                default=str,
            )
        return path


def events_to_chrome(events: List[TraceEvent]) -> List[Dict[str, Any]]:
    """Convert stored span events to Chrome trace-event dicts.

    Timestamps are rebased to the earliest span so the trace opens at
    t=0; worker events keep their own pid and therefore render as
    separate process rows in ``chrome://tracing``.
    """
    if not events:
        return []
    t0 = min(float(e["ts_s"]) for e in events)
    out: List[Dict[str, Any]] = []
    for event in events:
        out.append(
            {
                "name": event["name"],
                "cat": "repro",
                "ph": "X",
                "ts": (float(event["ts_s"]) - t0) * 1e6,
                "dur": float(event.get("dur_s", 0.0)) * 1e6,
                "pid": int(event.get("pid", 0)),
                "tid": int(event.get("pid", 0)),
                "args": dict(event.get("attrs", {})),
            }
        )
    return out
