#!/usr/bin/env python
"""Tour of the toolkit beyond the paper's core flow.

* corner-style STA vs per-instance IR derating,
* faster-than-at-speed (FTAS) frequency binning,
* reverse-order pattern compaction,
* power-constrained SOC test scheduling,
* scan shift power by fill policy,
* peak-power waveform and VCD export of one pattern.

Run:  python examples/advanced_toolkit.py [tiny|small]
"""

import io
import sys

import numpy as np

from repro import CaseStudy
from repro.atpg import (
    FaultSimulator,
    build_fault_universe,
    collapse_faults,
    reverse_order_compaction,
)
from repro.core import ftas_analysis
from repro.dft import shift_activity_summary
from repro.pgrid import dynamic_ir_for_pattern
from repro.power import power_waveform, render_waveform_ascii
from repro.reporting import format_table
from repro.sim import (
    DelayModel,
    StaticTimingAnalyzer,
    SwitchingTrace,
    derates_from_ir,
    write_vcd,
)


def main(scale: str = "tiny") -> None:
    study = CaseStudy(scale=scale)
    design = study.design
    patterns = study.conventional().pattern_set

    print("== STA: signoff corner vs per-instance IR derating ==")
    dm = DelayModel(design.netlist, design.parasitics)
    sta = StaticTimingAnalyzer(
        design.netlist, dm, design.clock_trees[study.domain],
        period_ns=study.calculator.period_ns, domain=study.domain,
    )
    picks = study.validation("conventional").extreme_patterns("B5")
    p1 = patterns[picks["P1"]]
    timing = study.calculator.simulate_pattern(p1.v1_dict())
    ir = dynamic_ir_for_pattern(study.model, timing, domain=study.domain)
    gate_d, flop_d = derates_from_ir(ir)
    rows = []
    for name, rep in (
        ("nominal", sta.analyze()),
        ("worst corner", sta.analyze(
            gate_derate=np.full(design.netlist.n_gates, float(gate_d.max())),
            flop_derate=np.full(design.netlist.n_flops, float(flop_d.max())),
        )),
        ("IR-aware", sta.analyze(gate_derate=gate_d, flop_derate=flop_d)),
    ):
        rows.append({"analysis": name,
                     "worst_slack_ns": rep.worst_slack_ns})
    print(format_table(rows))

    print("\n== FTAS: how fast can each pattern safely run? ==")
    report = ftas_analysis(study.calculator, study.model, patterns,
                           sample=8)
    nominal = 1000.0 / report.nominal_period_ns
    freqs = [nominal, nominal * 1.5, nominal * 2.0]
    for label, aware in (("nominal delays", False), ("IR-aware", True)):
        bins = report.bin_patterns(freqs, ir_aware=aware)
        pretty = ", ".join(
            f"{f:.0f}MHz:{bins[f]}" for f in sorted(bins, reverse=True)
        )
        print(f"   {label:>16}: {pretty}")
    print(f"   mean IR headroom loss {report.mean_headroom_loss_pct():.1f}%")

    print("\n== reverse-order compaction ==")
    fsim = FaultSimulator(design.netlist, study.domain)
    reps, _ = collapse_faults(design.netlist,
                              build_fault_universe(design.netlist))
    compacted, stats = reverse_order_compaction(fsim, patterns, reps)
    print(f"   {len(patterns)} -> {len(compacted)} patterns "
          f"({stats['dropped']} dropped at zero coverage cost)")

    print("\n== power-constrained test scheduling ==")
    schedule = study.schedule()
    print(f"   budget {schedule.power_budget_mw:.2f} mW -> "
          f"{len(schedule.placements)} blocks on {schedule.tam_width} TAM "
          f"lines, speedup {schedule.speedup:.2f}x over serial, peak "
          f"{schedule.peak_power_mw:.2f} mW")

    print("\n== shift activity (scan-cell toggles per load) ==")
    summary = shift_activity_summary(patterns, design.scan)
    print(f"   {summary['patterns']:.0f} patterns, mean total "
          f"{summary['mean_total']:.0f} toggles, mean peak/cycle "
          f"{summary['mean_peak']:.1f}")

    print("\n== current waveform + VCD of the P1 pattern ==")
    traced = study.calculator.simulate_pattern(p1.v1_dict(),
                                               record_trace=True)
    wf = power_waveform(design.netlist, design.parasitics, traced,
                        n_bins=36)
    print(render_waveform_ascii(wf))
    buf = io.StringIO()
    write_vcd(SwitchingTrace(design.netlist, traced), buf)
    print(f"   VCD dump: {len(buf.getvalue().splitlines())} lines "
          f"({int(traced.toggles.sum())} events)")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "tiny")
