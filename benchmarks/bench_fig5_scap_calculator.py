"""Figure 5 — the SCAP calculator flow, exercised as working code.

The paper's figure is an architecture diagram (VCS + PLI + STAR-RCXT
capacitances); its reproduction is the ScapCalculator pipeline itself.
This bench measures the calculator's per-pattern throughput with its
event-driven timing simulation.
"""

from __future__ import annotations

import numpy as np


def test_fig5_scap_calculator_throughput(benchmark, study):
    patterns = list(study.conventional().pattern_set)[:20]
    calc = study.calculator

    def profile_all():
        return [calc.profile_pattern(p) for p in patterns]

    profiles = benchmark.pedantic(profile_all, rounds=1, iterations=1)

    print()
    print(f"Figure 5: SCAP calculator on {len(patterns)} patterns")
    mean_scap = np.mean([p.scap_mw() for p in profiles])
    mean_ratio = np.mean([
        p.scap_to_cap_ratio for p in profiles if p.stw_ns > 0
    ])
    print(f"  mean SCAP {mean_scap:.2f} mW, mean SCAP/CAP {mean_ratio:.2f}x")

    assert mean_ratio > 1.3  # STW well below the full cycle
