"""Shared pieces of the flow ledger: paths, the spec, statistics, host.

Nothing here imports ``repro``: the orchestrating process (``run.py``)
and ``compare.py`` stay independent of the code under test, which only
the workload processes load.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
#: The checkout the benchmark measures (``benchmarks/ledger/..``).
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
REFERENCE_PATH = HERE / "reference.json"

WORKLOADS = ("flow_tiny", "flow_small", "grade_small", "service_tiny")
DEFAULT_SEED = 2007
#: Every workload runs on the paper's reference SOC (generator seed
#: 2007).  The workload seed drives the inputs given to that design —
#: the ATPG target order, the random launch vectors — not the design,
#: whose size varies enough between generator seeds to swamp the
#: run-to-run spread the bounds are set from.
DESIGN_SEED = 2007


class LedgerError(RuntimeError):
    """A workload could not be run or measured."""


def load_spec(path: Path = SPEC_PATH) -> Dict[str, Any]:
    """``BENCHMARK.json``: workloads, metrics, units, directions, bounds."""
    with open(path) as fh:
        return json.load(fh)


def load_reference() -> Dict[str, Any]:
    """Output digests recorded at :data:`DEFAULT_SEED`."""
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` the way ``statistics.quantiles(n=4)`` cuts them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 when flat)."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)


def percentile(samples: Sequence[float], q: int) -> Optional[float]:
    """The *q*-th percentile (*q* above 50), or ``None`` when unreportable.

    A tail percentile is reported only when at least ten samples lie
    beyond it; with fewer its value is an accident of the one or two
    slowest samples.  (The median needs no such rule.)
    """
    beyond = len(samples) - math.ceil(len(samples) * q / 100)
    if beyond < 10:
        return None
    return float(statistics.quantiles(samples, n=100, method="inclusive")[q - 1])


def tail_percentile(
    samples: Sequence[float], choices: Sequence[int] = (99, 95, 90, 75)
) -> Optional[Tuple[int, float]]:
    """The highest of *choices* that :func:`percentile` may report."""
    for q in choices:
        value = percentile(samples, q)
        if value is not None:
            return q, value
    return None


def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():  # an exported checkout: nothing to ask
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def source_digest() -> str:
    """sha256 over every ``src/**/*.py`` path and content.

    Identifies the code under test in checkouts that are not git
    repositories; ``compare.py`` uses it to tell "same code" runs apart.
    """
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def host_record(seed: int) -> Dict[str, Any]:
    """Where and on what a result was measured."""
    import numpy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        usable = os.cpu_count()
    return {
        "nproc": os.cpu_count(),
        "usable_cores": usable,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": source_digest(),
        "seed": seed,
    }
