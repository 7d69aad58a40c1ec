"""Compare ledger results: one baseline against one or more other sides.

    python benchmarks/ledger/compare.py BASE.jsonl OTHER.jsonl [OTHER.jsonl ...]

Each file holds the JSON lines ``run.py --out`` appends, one per run;
every file is one side (run it several times, with several seeds, into
the same file).  Only runs whose seed and run length (``--seconds``)
both sides have are compared; the others are listed and left out.  For
each end-to-end metric and workload the table shows each side's median
and quartiles and a verdict from the bounds in ``BENCHMARK.json``:

* ``worse`` / ``better`` — the other side's median moved past the bound;
* ``unchanged`` — it moved less than the bound;
* ``unresolved`` — either side's inter-quartile spread is wider than the
  bound, so a move of that size could be noise (unless every run of the
  other side beats every baseline run: then ``better``).

The quality metrics (:data:`EXACT_E2E`) are deterministic for a seed, so
they are judged seed by seed with a bound of 0: ``worse`` when any seed
got worse, else ``better`` when any got better, else ``unchanged``.

Then every per-layer work count (unit ``count``) that differs between
the sides for the same workload and seed is listed.  Runs of the same
code (same ``src_sha256``) must repeat PODEM's decision and backtrack
counts exactly; a mismatch is reported as nondeterminism.

Exit status 1 when a row is ``worse`` or a count is nondeterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import common

#: Counts that must repeat exactly between runs of the same code.
EXACT_COUNTS = ("atpg.podem_decisions", "atpg.podem_backtracks")
#: End-to-end metrics judged per seed with a bound of 0.
EXACT_E2E = ("n_patterns", "test_coverage")

Key = Tuple[int, float]


def load_runs(path: Path) -> List[Dict[str, Any]]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(
    base: Sequence[float], other: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """``(verdict, change)``; *change* is the share by which the other
    side's median is worse than the baseline's (negative: better)."""
    base_med, other_med = common.median(base), common.median(other)
    if base_med == 0:
        change = 0.0 if other_med == 0 else float("inf")
    else:
        change = (other_med - base_med) / abs(base_med)
    if better == "higher":
        change = -change
    if max(common.spread(base), common.spread(other)) > bound:
        if all(_beats(o, b, better) for o in other for b in base):
            return "better", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "unchanged", change


def exact_verdict(
    base: Dict[Key, float], other: Dict[Key, float], better: str
) -> str:
    """Verdict for a metric deterministic per seed, compared seed by seed
    over the keys both sides have."""
    keys = set(base) & set(other)
    if any(_beats(base[k], other[k], better) for k in keys):
        return "worse"
    if any(_beats(other[k], base[k], better) for k in keys):
        return "better"
    return "unchanged"


def _key(run: Dict[str, Any]) -> Key:
    return run["seed"], run["seconds"]


def paired(
    base: Sequence[Dict[str, Any]], other: Sequence[Dict[str, Any]],
    workload: str, traced: bool,
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]], List[Key]]:
    """The runs of *workload* whose (seed, seconds) both sides have, and
    the keys only one side has."""
    a = [r for r in base if r["workload"] == workload and r["traced"] == traced]
    b = [r for r in other if r["workload"] == workload and r["traced"] == traced]
    shared = {_key(r) for r in a} & {_key(r) for r in b}
    unmatched = sorted({_key(r) for r in a + b} - shared)
    return ([r for r in a if _key(r) in shared],
            [r for r in b if _key(r) in shared], unmatched)


def _values(runs: Sequence[Dict[str, Any]], metric: str) -> List[float]:
    return [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]


def _by_key(runs: Sequence[Dict[str, Any]], metric: str) -> Dict[Key, float]:
    keyed: Dict[Key, List[float]] = {}
    for r in runs:
        if metric in r["metrics"]:
            keyed.setdefault(_key(r), []).append(r["metrics"][metric]["value"])
    return {k: common.median(v) for k, v in keyed.items()}


def _fmt(values: Sequence[float]) -> str:
    q1, med, q3 = common.quartiles(values)
    return f"{med:11.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def compare_e2e(
    spec: Dict[str, Any], base: List[Dict[str, Any]], other: List[Dict[str, Any]]
) -> List[str]:
    """Print the end-to-end table; returns the rows judged worse."""
    worse = []
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in other})
    print(f"{'workload':13s} {'metric':14s} {'unit':9s} {'base':>40s} "
          f"{'other':>40s} {'worse by':>9s}  verdict")
    for workload in workloads:
        base_runs, other_runs, unmatched = paired(base, other, workload, traced=False)
        if unmatched:
            print(f"{workload}: left out (seed, seconds) only one side ran: {unmatched}")
        for metric in spec["end_to_end"]:
            a = _values(base_runs, metric["name"])
            b = _values(other_runs, metric["name"])
            if not a or not b:
                continue
            result, change = verdict(a, b, metric["better"], metric["bound"])
            if metric["name"] in EXACT_E2E:
                result = exact_verdict(_by_key(base_runs, metric["name"]),
                                       _by_key(other_runs, metric["name"]),
                                       metric["better"])
            print(f"{workload:13s} {metric['name']:14s} {metric['unit']:9s} "
                  f"{_fmt(a):>40s} {_fmt(b):>40s} {100 * change:8.2f}%  {result}")
            if result == "worse":
                worse.append(f"{workload} {metric['name']}")
    return worse


def _counts(runs: Sequence[Dict[str, Any]], names: Sequence[str]
            ) -> Dict[Tuple[str, int, float, str], Dict[str, set]]:
    """(workload, seed, seconds, metric) -> {src digest: set of values}
    over traced runs."""
    out: Dict[Tuple[str, int, float, str], Dict[str, set]] = {}
    for run in runs:
        if not run["traced"]:
            continue
        for name in names:
            if name in run["metrics"]:
                key = (run["workload"], run["seed"], run["seconds"], name)
                out.setdefault(key, {}).setdefault(
                    run["host"]["src_sha256"], set()
                ).add(run["metrics"][name]["value"])
    return out


def compare_counts(
    spec: Dict[str, Any], base: List[Dict[str, Any]], other: List[Dict[str, Any]]
) -> List[str]:
    """Print differing work counts; returns the nondeterministic ones."""
    names = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    a, b = _counts(base, names), _counts(other, names)
    differing, unstable = [], []
    for key in sorted(set(a) | set(b)):
        by_code: Dict[str, set] = {}
        for side in (a, b):
            for digest, values in side.get(key, {}).items():
                by_code.setdefault(digest, set()).update(values)
        workload, seed, seconds, name = key
        where = f"{workload} seed {seed} ({seconds:g} s) {name}"
        if name in EXACT_COUNTS:
            unstable += [f"{where}: {sorted(values)}"
                         for values in by_code.values() if len(values) > 1]
        base_values = set().union(*a.get(key, {}).values())
        other_values = set().union(*b.get(key, {}).values())
        if base_values and other_values and base_values != other_values:
            differing.append(f"{where}: {sorted(base_values)} -> {sorted(other_values)}")
    print("work counts that differ:" if differing else "work counts: identical")
    for line in differing:
        print("  " + line)
    for line in unstable:
        print("  NONDETERMINISTIC (same code): " + line)
    return unstable


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Compare ledger result files.")
    parser.add_argument("base", type=Path)
    parser.add_argument("others", type=Path, nargs="+")
    args = parser.parse_args(argv)
    spec = common.load_spec()
    base = load_runs(args.base)
    status = 0
    for path in args.others:
        other = load_runs(path)
        print(f"--- {args.base} vs {path}")
        worse = compare_e2e(spec, base, other)
        unstable = compare_counts(spec, base, other)
        if worse or unstable:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
