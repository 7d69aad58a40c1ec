"""Trace-file utilities behind the ``repro obs`` subcommand.

Loads span JSONL written by :meth:`~repro.obs.tracer.Tracer.save_jsonl`,
converts it to Chrome trace-event JSON, aggregates per-span-name
summaries, and validates well-nestedness (every span's interval inside
its parent's) — the invariant the chaos tests assert even after worker
kills mid-batch.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from .tracer import TraceEvent, events_to_chrome


def load_trace_jsonl(path: str) -> List[TraceEvent]:
    """Parse a span-JSONL file (blank lines tolerated).

    Every line must be a JSON object with a ``name`` and a numeric
    ``ts_s`` (every :class:`~repro.obs.tracer.Tracer` event has both);
    anything else raises :class:`ValueError` naming the line.
    """
    events: List[TraceEvent] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not valid JSON: {exc}"
                ) from exc
            if (
                not isinstance(event, dict)
                or "name" not in event
                or not isinstance(event.get("ts_s"), (int, float))
            ):
                raise ValueError(f"{path}:{lineno}: not a span event")
            events.append(event)
    return events


def save_chrome_trace(events: List[TraceEvent], path: str) -> str:
    """Write events as a ``chrome://tracing``-loadable document."""
    with open(path, "w") as fh:
        json.dump(
            {"traceEvents": events_to_chrome(events), "displayTimeUnit": "ms"},
            fh,
            default=str,
        )
    return path


def summarize(events: List[TraceEvent]) -> List[Dict[str, Any]]:
    """Per-span-name aggregate rows, sorted by total time descending."""
    agg: Dict[str, List[float]] = {}
    for event in events:
        dur = float(event.get("dur_s", 0.0))
        row = agg.setdefault(str(event["name"]), [0.0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur
        row[2] = max(row[2], dur)
    rows = [
        {
            "span": name,
            "count": int(vals[0]),
            "total_s": round(vals[1], 6),
            "mean_s": round(vals[1] / vals[0], 6) if vals[0] else 0.0,
            "max_s": round(vals[2], 6),
        }
        for name, vals in agg.items()
    ]
    rows.sort(key=lambda r: (-float(r["total_s"]), str(r["span"])))
    return rows


def format_summary(events: List[TraceEvent]) -> str:
    """Plain-text summary table for the CLI."""
    rows = summarize(events)
    if not rows:
        return "(empty trace)"
    from ..reporting.tables import format_table

    return format_table(
        rows,
        columns=["span", "count", "total_s", "mean_s", "max_s"],
        title=f"{len(events)} spans:",
    )


def nesting_errors(
    events: List[TraceEvent], tolerance_s: float = 0.05
) -> List[str]:
    """Well-nestedness violations (empty list = tree is sound).

    Checks that every span naming a parent (a) references a recorded
    span and (b) fits inside the parent's wall-clock interval, within
    *tolerance_s* (worker events carry another process's clock reads;
    same host, so skew is bounded but not zero).
    """
    by_id: Dict[str, TraceEvent] = {
        str(e["span_id"]): e for e in events if e.get("span_id")
    }
    problems: List[str] = []
    for event in events:
        parent_id = event.get("parent_id")
        if parent_id is None:
            continue
        parent = by_id.get(str(parent_id))
        if parent is None:
            problems.append(
                f"span {event['span_id']} ({event['name']}) references "
                f"missing parent {parent_id}"
            )
            continue
        child_iv = _interval(event)
        parent_iv = _interval(parent)
        if (
            child_iv[0] < parent_iv[0] - tolerance_s
            or child_iv[1] > parent_iv[1] + tolerance_s
        ):
            problems.append(
                f"span {event['span_id']} ({event['name']}) "
                f"[{child_iv[0]:.6f}, {child_iv[1]:.6f}] escapes parent "
                f"{parent_id} ({parent['name']}) "
                f"[{parent_iv[0]:.6f}, {parent_iv[1]:.6f}]"
            )
    return problems


def _interval(event: TraceEvent) -> Tuple[float, float]:
    start = float(event["ts_s"])
    return start, start + float(event.get("dur_s", 0.0))
