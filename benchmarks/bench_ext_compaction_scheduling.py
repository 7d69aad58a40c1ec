"""Extensions — reverse-order pattern compaction and power-aware SOC
test scheduling (the paper's refs [5][6] motivation)."""

from __future__ import annotations

from repro.atpg import (
    FaultSimulator,
    build_fault_universe,
    collapse_faults,
    coverage_of_set,
    reverse_order_compaction,
)
from repro.core import ScheduleBudget, schedule_tests, specs_from_flow
from repro.reporting import format_table


def test_ext_reverse_order_compaction(benchmark, tiny_study):
    design = tiny_study.design
    patterns = tiny_study.conventional().pattern_set
    fsim = FaultSimulator(design.netlist, design.dominant_domain())
    reps, _ = collapse_faults(
        design.netlist, build_fault_universe(design.netlist)
    )

    def run():
        return reverse_order_compaction(fsim, patterns, reps)

    compacted, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    before = coverage_of_set(fsim, patterns, reps)
    after = coverage_of_set(fsim, compacted, reps)
    print()
    print(
        f"compaction: {len(patterns)} -> {len(compacted)} patterns "
        f"({stats['dropped']} dropped), coverage {before} -> {after} faults"
    )
    assert after == before
    assert len(compacted) <= len(patterns)


def test_ext_power_aware_scheduling(benchmark, tiny_study):
    design = tiny_study.design
    thresholds = tiny_study.thresholds_mw
    specs = specs_from_flow(design, tiny_study.staged(), thresholds)
    budget = ScheduleBudget(
        power_mw=sum(thresholds.values()) * 0.6,  # chip functional budget
        tam_width=design.tam_width,
    )

    def run():
        return schedule_tests(specs, budget)

    schedule = benchmark.pedantic(run, rounds=1, iterations=1)
    schedule.validate()
    print()
    rows = [
        p.to_dict()
        for p in sorted(
            schedule.placements, key=lambda p: (p.start_us, p.tam_offset)
        )
    ]
    print(format_table(
        rows,
        title=f"Schedule (budget {budget.power_mw:.2f} mW, "
              f"TAM width {budget.tam_width}):",
    ))
    print(
        f"makespan {schedule.makespan_us:.1f} us vs serial "
        f"{schedule.serial_time_us:.1f} us "
        f"(speedup {schedule.speedup:.2f}x, peak "
        f"{schedule.peak_power_mw:.2f} mW)"
    )
    assert schedule.peak_power_mw <= budget.power_mw
    assert schedule.speedup >= 1.0
