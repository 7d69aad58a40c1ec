"""The flow ledger: end-to-end and per-layer numbers for four workloads.

    python benchmarks/ledger/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace 0|1] [--out FILE]

Each workload runs in its own subprocess (``workloads.py``) with a
fresh kernel-cache directory and scratch directory inside the checkout,
so nothing another commit compiled into ``~/.cache/repro`` is measured.
``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with tracing off; ``--trace 1`` is a separate traced run that reports
the per-layer metrics.  Without ``--trace`` both run, and the tracing
overhead is reported.  ``--seconds`` defaults to ``run_seconds`` in
``BENCHMARK.json``; every record carries it, and ``compare.py`` only
pairs runs of the same length.  Every metric is printed by name with
its unit; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out``
appends one JSON line per run to FILE (see ``compare.py``) and keeps
traced runs' spans beside it.

Exit status: 0 when every check passed, 1 when a check failed (the
error rate is not zero), 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import common

#: Set-up samples per untraced run; ``setup_s`` is their median.  Over
#: ten seeds on a 2-vCPU Xeon VM one sample alone spread 8-17% (IQR over
#: median), the median of three 6-12%.
SETUP_RUNS = 3
#: Wall-clock budget for one invocation on one workload.
WORKLOAD_BUDGET_S = 170.0


def child_env(run_dir: Path) -> Dict[str, str]:
    """The environment of a workload process: only this checkout's code,
    fresh caches, one thread per process."""
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONPATH"
    }
    tmp = run_dir / "tmp"
    tmp.mkdir()
    env.update(
        PYTHONPATH=str(common.ROOT / "src"),
        REPRO_KERNEL_CACHE_DIR=str(run_dir / "kernels"),
        TMPDIR=str(tmp),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(
    workload: str, seed: int, seconds: float, traced: bool, work_dir: Path,
    deadline: float, setup_only: bool = False,
) -> Dict[str, Any]:
    """Run one workload process; returns its record."""
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_dir))
    env = child_env(run_dir)
    cmd = [
        sys.executable, str(common.HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", "1" if traced else "0", "--work-dir", str(run_dir),
        "--spawned-at", repr(time.time()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    # Its own process group, so a timeout also stops the service worker.
    proc = subprocess.Popen(
        cmd, cwd=common.ROOT, env=env, stdout=sys.stderr, start_new_session=True
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise common.LedgerError(f"{workload}: out of time") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise common.LedgerError(f"{workload}: workload process exited {code}")
    record = json.loads((run_dir / "result.json").read_text())
    record["run_dir"] = str(run_dir)
    return record


def run_workload(
    workload: str, seed: int, seconds: float, traced: bool, work_dir: Path
) -> Dict[str, Any]:
    """One measured run; an untraced run also takes extra set-up samples,
    half before and half after it, so that a burst of load from other
    tenants of the host slows at most one of the samples."""
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    extra = 0 if traced else SETUP_RUNS - 1

    def setup_sample() -> float:
        return spawn(workload, seed, seconds, traced, work_dir, deadline,
                     setup_only=True)["setup_s"]

    setups = [setup_sample() for _ in range(extra // 2)]
    record = spawn(workload, seed, seconds, traced, work_dir, deadline)
    setups.append(record["setup_s"])
    setups += [setup_sample() for _ in range(extra - extra // 2)]
    record["samples"]["setup_s"] = setups
    if not traced:
        record["metrics"]["setup_s"] = {"value": common.median(setups), "unit": "s"}
    record.update(seed=seed, seconds=seconds, traced=traced)
    return record


def print_record(record: Dict[str, Any], names: List[str]) -> None:
    mode = "traced" if record["traced"] else "untraced"
    n_jobs = len(record["samples"]["job_s"])
    print(f"== {record['workload']} (seed {record['seed']}, {record['seconds']:g} s, "
          f"{mode}): {n_jobs} job(s), {record['failed']} failed ==")
    rows = [(name, record["metrics"][name]) for name in names]
    if not record["traced"]:
        rows += sorted(record["extra"].items())
    for name, metric in rows:
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    for name, digest in sorted(record["digests"].items()):
        print(f"  {name:34s} {digest}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the flow ledger benchmark.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", default="all",
                        choices=("all",) + common.WORKLOADS)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED,
                        help="workload seed (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", choices=("0", "1"), default=None,
                        help="0: untraced run only; 1: traced run only "
                             "(default: both, and the tracing overhead)")
    parser.add_argument("--out", type=Path, default=None,
                        help="append one JSON line per run to this file")
    args = parser.parse_args(argv)

    if not (common.ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"ledger: no program source under {common.ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = common.load_spec()
    except (OSError, ValueError) as exc:
        print(f"ledger: cannot read {common.SPEC_PATH}: {exc}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    workloads = common.WORKLOADS if args.workload == "all" else (args.workload,)
    modes = {"0": (False,), "1": (True,), None: (False, True)}[args.trace]
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    host = common.host_record(args.seed)

    work_root = common.ROOT / ".ledger_work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    records = []
    try:
        for workload in workloads:
            for traced in modes:
                record = run_workload(workload, args.seed, seconds, traced, work_dir)
                record["host"] = host
                print_record(record, layers if traced else e2e)
                if args.out is not None:
                    keep_spans(record, args.out)
                    with open(args.out, "a") as fh:
                        fh.write(json.dumps(
                            {k: v for k, v in record.items() if k != "run_dir"}) + "\n")
                records.append(record)
    except common.LedgerError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics: Dict[str, Any] = {}
    for record in records:
        prefix = "" if len(workloads) == 1 else record["workload"] + "/"
        for name in layers if record["traced"] else e2e:
            metrics[prefix + name] = record["metrics"][name]
    if len(modes) == 2:
        for workload in workloads:
            plain, traced = (r for r in records if r["workload"] == workload)
            overhead = 100.0 * (traced["metrics"]["trace.job_s_p50"]["value"]
                                / plain["metrics"]["job_s_p50"]["value"] - 1.0)
            prefix = "" if len(workloads) == 1 else workload + "/"
            metrics[prefix + "trace_overhead_pct"] = {"value": overhead, "unit": "%"}
            print(f"{workload}: trace_overhead_pct {overhead:.2f} %")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def keep_spans(record: Dict[str, Any], out: Path) -> None:
    """Copy a traced run's spans (JSONL and Chrome trace JSON) next to *out*."""
    if not record["traced"]:
        return
    stem = f"{out.stem}.{record['workload']}.seed{record['seed']}"
    for name in ("spans.jsonl", "chrome.json"):
        source = Path(record["run_dir"]) / name
        if source.exists():
            shutil.copyfile(source, out.with_name(f"{stem}.{name}"))


if __name__ == "__main__":
    sys.exit(main())
