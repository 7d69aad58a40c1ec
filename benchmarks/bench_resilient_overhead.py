"""Overhead of the worker pool, and the price of one dead worker.

The pool's clean path must pay for itself, and the one recovery rule
(a dead worker's chunks finish serially in the calling process) costs
wall time only after a crash.  This bench grades one SCAP batch three
ways — serial reference, clean pool, and the pool losing one worker to
an injected kill — and reports all three.
"""

from __future__ import annotations

import time
import warnings

import numpy as np

from repro import ScapCalculator
from repro.perf import chaos, collect_reports


def test_resilient_overhead_and_recovery_cost(benchmark, tiny_study):
    design = tiny_study.design
    domain = tiny_study.domain
    rng = np.random.default_rng(17)
    matrix = rng.integers(0, 2, size=(192, design.netlist.n_flops))

    serial_calc = ScapCalculator(design, domain)
    t0 = time.perf_counter()
    reference = serial_calc.profile_patterns(matrix)
    serial_s = time.perf_counter() - t0

    def clean_parallel():
        return ScapCalculator(design, domain).profile_patterns(
            matrix, n_workers=2
        )

    with collect_reports() as reports:
        clean = benchmark.pedantic(clean_parallel, rounds=1, iterations=1)
    (clean_report,) = reports
    clean_s = clean_report.elapsed_s
    assert clean == reference and not clean_report.serial_fallback

    chaos_calc = ScapCalculator(design, domain)
    t0 = time.perf_counter()
    with chaos.inject(chaos.ChaosSpec(kill={0})), collect_reports() as \
            reports, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        survived = chaos_calc.profile_patterns(matrix, n_workers=2)
    chaos_s = time.perf_counter() - t0
    assert survived == reference
    (report,) = reports
    assert report.serial_fallback

    print()
    print(
        f"SCAP grading of {matrix.shape[0]} patterns: serial "
        f"{serial_s*1000:.0f} ms, resilient pool {clean_s*1000:.0f} ms "
        f"clean, {chaos_s*1000:.0f} ms surviving one SIGKILL "
        f"({len(report.failures)} crash; the chunks without a result "
        f"finished serially)"
    )
