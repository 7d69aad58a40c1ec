"""Counters, gauges and histograms with Prometheus text exposition.

The registry is deliberately small: enough to account for what a
pattern-generation service must watch (patterns generated, faults
detected/dropped, SCAP violations per block, executor crashes and
serial fallbacks, checkpoint resumes) without pulling in a client
library.  Metric names are dotted (``exec.worker_crashes``); the
Prometheus exposition mangles them to the conventional form
(``repro_exec_worker_crashes_total``), while the JSON snapshot keeps the
dotted names for the :class:`~repro.reporting.runreport.RunReport`.

Labels are plain keyword arguments::

    registry.counter("scap.violations").inc(3, block="B5")
    registry.gauge("flow.stage_index").set(2)
    registry.histogram("exec.chunk_s").observe(0.125)
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram buckets (seconds-flavoured, wide dynamic range).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0,
)


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_suffix(key: LabelKey) -> str:
    if not key:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + body + "}"


def prometheus_name(name: str, kind: str) -> str:
    """Dotted metric name -> Prometheus exposition name."""
    base = "repro_" + name.replace(".", "_").replace("-", "_")
    if kind == "counter" and not base.endswith("_total"):
        base += "_total"
    return base


class Counter:
    """Monotonically increasing per-label-set totals."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        self.values[key] = self.values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self.values.get(_label_key(labels), 0.0)

    @property
    def total(self) -> float:
        return sum(self.values.values())


class Gauge:
    """Last-written per-label-set values."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self.values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        self.values[key] = self.values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self.values.get(_label_key(labels), 0.0)


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.help = help
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        # per label set: (bucket counts, sum, count)
        self.values: Dict[LabelKey, Tuple[List[int], float, int]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        counts, total, n = self.values.get(
            key, ([0] * len(self.buckets), 0.0, 0)
        )
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                counts[i] += 1
        self.values[key] = (counts, total + value, n + 1)

    def count(self, **labels: Any) -> int:
        entry = self.values.get(_label_key(labels))
        return entry[2] if entry else 0

    def sum(self, **labels: Any) -> float:
        entry = self.values.get(_label_key(labels))
        return entry[1] if entry else 0.0


class MetricsRegistry:
    """Get-or-create registry of the three metric kinds, unique by name."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, help, Counter)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, help, Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, help, buckets)
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def _get_or_create(self, name: str, help: str, cls: type) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def get(self, name: str) -> Optional[Any]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    # -- export ---------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready dict of every metric's current values.

        Counters/gauges map ``label-suffix -> value`` (the empty suffix
        ``""`` is the unlabelled series); histograms additionally carry
        their bucket bounds, counts and sums.
        """
        out: Dict[str, Any] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                series = {}
                for key, (counts, total, n) in sorted(metric.values.items()):
                    series[_label_suffix(key)] = {
                        "buckets": dict(
                            zip(
                                [str(b) for b in metric.buckets],
                                counts,
                            )
                        ),
                        "sum": total,
                        "count": n,
                    }
                out[name] = {"kind": metric.kind, "series": series}
            else:
                out[name] = {
                    "kind": metric.kind,
                    "series": {
                        _label_suffix(key): value
                        for key, value in sorted(metric.values.items())
                    },
                }
        return out

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            pname = prometheus_name(name, metric.kind)
            if metric.help:
                lines.append(f"# HELP {pname} {metric.help}")
            lines.append(f"# TYPE {pname} {metric.kind}")
            if isinstance(metric, Histogram):
                for key, (counts, total, n) in sorted(metric.values.items()):
                    for bound, count in zip(metric.buckets, counts):
                        labels = dict(key)
                        labels["le"] = repr(float(bound))
                        suffix = _label_suffix(_label_key(labels))
                        lines.append(f"{pname}_bucket{suffix} {count}")
                    inf = dict(key)
                    inf["le"] = "+Inf"
                    lines.append(
                        f"{pname}_bucket{_label_suffix(_label_key(inf))} {n}"
                    )
                    lines.append(f"{pname}_sum{_label_suffix(key)} {total}")
                    lines.append(f"{pname}_count{_label_suffix(key)} {n}")
            else:
                for key, value in sorted(metric.values.items()):
                    lines.append(f"{pname}{_label_suffix(key)} {value}")
        return "\n".join(lines) + "\n"

    def save_prometheus(self, path: str) -> str:
        with open(path, "w") as fh:
            fh.write(self.to_prometheus())
        return path

    def save_json(self, path: str) -> str:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")
        return path
