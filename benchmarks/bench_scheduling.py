"""SOC test-scheduling Pareto benchmark: greedy sessions vs rectangle
bin-packing with wrapper/TAM co-optimisation.

For generated SOCs of increasing block count — each block offering
several wrapper-width candidates, so the schedulers genuinely trade
TAM lines against test time — both strategies sweep a range of
chip-wide power budgets.  The resulting (budget, makespan) Pareto
curves are asserted, not just reported:

* bin packing never loses to greedy at any swept budget,
* every schedule respects the power envelope and the TAM width at
  every instant (``TestSchedule.validate``).

A second section schedules the real Turbo-Eagle design from its staged
flow's pattern counts, with block powers from the sound
:class:`~repro.power.static_bound.StaticScapBound` chip-wide bounds.

Emits machine-readable ``BENCH_sched.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.core.scheduling import (
    ScheduleBudget,
    budget_sweep,
    generate_block_specs,
    schedule_tests,
    specs_from_flow,
)
from repro.power.static_bound import StaticScapBound
from repro.reporting import format_table

_OUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_sched.json"

#: TAM lines available chip-wide for the synthetic SOC families.
TAM_WIDTH = 16


def _block_counts():
    scale = os.environ.get("REPRO_BENCH_SCALE", "small")
    if scale == "tiny":
        return [8]
    if scale == "small":
        return [8, 16, 32]
    return [8, 16, 32, 64]


def _sweep(specs, tam_width):
    """Both schedulers over the budget sweep; returns Pareto rows."""
    rows = []
    for budget_mw in budget_sweep(specs):
        budget = ScheduleBudget(power_mw=budget_mw, tam_width=tam_width)
        row = {"budget_mw": round(budget_mw, 4)}
        for strategy in ("greedy", "binpack"):
            schedule = schedule_tests(specs, budget, strategy=strategy)
            schedule.validate()
            assert schedule.peak_power_mw <= budget_mw + 1e-9
            row[f"{strategy}_makespan_us"] = round(schedule.makespan_us, 4)
            row[f"{strategy}_peak_mw"] = round(schedule.peak_power_mw, 4)
        # The acceptance bar: packing never loses to the greedy
        # baseline at any budget.
        assert (
            row["binpack_makespan_us"] <= row["greedy_makespan_us"] + 1e-9
        )
        row["gain_pct"] = round(
            100.0
            * (row["greedy_makespan_us"] - row["binpack_makespan_us"])
            / row["greedy_makespan_us"],
            2,
        )
        rows.append(row)
    return rows


def _merge_out(section, payload):
    data = {}
    if _OUT_PATH.exists():
        data = json.loads(_OUT_PATH.read_text())
    data[section] = payload
    _OUT_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def test_sched_pareto_synthetic(benchmark):
    counts = _block_counts()

    def run():
        return {
            n: _sweep(generate_block_specs(n, seed=2007), TAM_WIDTH)
            for n in counts
        }

    curves = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for n, rows in curves.items():
        print(format_table(
            rows,
            columns=[
                "budget_mw", "greedy_makespan_us", "binpack_makespan_us",
                "gain_pct",
            ],
            title=f"{n}-block synthetic SOC (TAM width {TAM_WIDTH}):",
        ))
    _merge_out("synthetic", {
        "tam_width": TAM_WIDTH,
        "curves": {str(n): rows for n, rows in curves.items()},
    })
    # On every multi-width design the packer must strictly beat greedy
    # somewhere along the curve, not merely tie via its fallback.
    for n, rows in curves.items():
        assert any(row["gain_pct"] > 0.0 for row in rows), (
            f"bin packing never improved on greedy for the {n}-block SOC"
        )


def test_sched_pareto_real_design(benchmark, tiny_study):
    design = tiny_study.design
    flow = tiny_study.staged()
    bound = StaticScapBound(design, design.dominant_domain())
    specs = specs_from_flow(design, flow, bound.test_power_bounds_mw())

    def run():
        return _sweep(specs, design.tam_width)

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(
        rows,
        columns=[
            "budget_mw", "greedy_makespan_us", "binpack_makespan_us",
            "gain_pct",
        ],
        title=(
            f"{design.name} staged flow "
            f"(TAM width {design.tam_width}):"
        ),
    ))
    _merge_out("real_design", {
        "design": design.name,
        "tam_width": design.tam_width,
        "n_blocks": len(specs),
        "rows": rows,
    })
