"""Throughput of the batched fault-sim / SCAP grading pipeline.

Measures the perf-critical engines against *seed references* — faithful
re-implementations of the original algorithms (quadratic pack loop,
full-cone interpreted fault simulation, registry-dispatch event loop) —
so the reported speedups are against the pre-optimisation code path,
not a moving target.  Every optimised result is asserted bit-identical
to its reference before a number is written.

Host reporting is honest: ``host_cpus`` is the *usable* core count
(affinity/cgroup aware, not ``os.cpu_count()``), and when it is below
the requested worker count the parallel numbers are flagged
``parallel_comparable: false`` instead of being read as regressions.
The parallel-beats-seed gate is asserted only on comparable hosts.

Emits machine-readable ``BENCH_perf.json`` at the repo root.
"""

from __future__ import annotations

import heapq
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.atpg.faults import build_fault_universe, collapse_faults
from repro.atpg.fsim import FaultSimulator
from repro.config import VDD_NOMINAL
from repro.netlist.cells import CELL_FUNCTIONS
from repro.perf import resolve_workers, usable_cpus
from repro.power.calculator import ScapCalculator
from repro.power.scap import PatternPowerProfile
from repro.sim.event import TimingResult, build_launch_events
from repro.sim.logic import loc_launch_capture, pack_matrix
from repro.soc import build_turbo_eagle

N_FSIM_PATTERNS = 256
N_SCAP_PATTERNS = 64
REQUESTED_WORKERS = 4

_OUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_perf.json"


@pytest.fixture(scope="module")
def rig():
    scale = os.environ.get("REPRO_BENCH_SCALE", "small")
    design = build_turbo_eagle(scale, seed=2007)
    domain = design.dominant_domain()
    nl = design.netlist
    reps, _ = collapse_faults(nl, build_fault_universe(nl))
    rng = np.random.default_rng(2007)
    matrix = rng.integers(
        0, 2, size=(N_FSIM_PATTERNS, nl.n_flops), dtype=np.uint8
    )
    return scale, design, domain, list(reps), matrix


# ----------------------------------------------------------------------
# seed references
# ----------------------------------------------------------------------
def seed_pack(v1_matrix):
    """The original quadratic bit loop."""
    n_pat, n_cols = v1_matrix.shape
    packed = {}
    for col in range(n_cols):
        word = 0
        for row in range(n_pat):
            if v1_matrix[row, col]:
                word |= 1 << row
        packed[col] = word
    return packed, (1 << n_pat) - 1


def seed_fault_sim(fsim, domain, matrix, faults):
    """The original algorithm: quadratic pack, one full-width word,
    whole-cone interpreted evaluation, no activation restriction."""
    nl = fsim.netlist
    packed, mask = seed_pack(matrix)
    cyc = loc_launch_capture(fsim.sim, packed, domain, mask=mask)
    f1, g2 = cyc.frame1, cyc.frame2
    detections = {}
    for fault in faults:
        site = fault.net
        if fault.initial_value == 1:
            act = f1[site] & mask
            forced = mask
        else:
            act = ~f1[site] & mask
            forced = 0
        if act == 0:
            continue
        gates, captures = fsim.cone_of(site)
        if not captures:
            continue
        faulty = {site: forced}
        get = faulty.get
        for gi in gates:
            g = nl.gates[gi]
            faulty[g.output] = CELL_FUNCTIONS[g.kind](
                [get(p, g2[p]) for p in g.inputs], mask
            )
        diff = 0
        for c in captures:
            diff |= get(c, g2[c]) ^ g2[c]
        det = diff & act
        if det:
            detections[fault] = det
    return detections


def seed_event_tables(calc):
    """The seed loop's flat connectivity, delay and energy tables."""
    nl = calc.design.netlist
    block_of_net = [None] * nl.n_nets
    for g in nl.gates:
        block_of_net[g.output] = g.block
    for f in nl.flops:
        block_of_net[f.q] = f.block
    return {
        "n_nets": nl.n_nets,
        "fanouts": [
            tuple(gi for gi, _pin in nl.gate_fanouts_of(net))
            for net in range(nl.n_nets)
        ],
        "gate_fn": [CELL_FUNCTIONS[g.kind] for g in nl.gates],
        "gate_ins": [g.inputs for g in nl.gates],
        "gate_out": [g.output for g in nl.gates],
        "gate_delay": calc.delays.gate_delay_ns,
        "energy_of_net": (
            calc.design.parasitics.net_cap_ff * VDD_NOMINAL * VDD_NOMINAL
        ),
        "block_of_net": block_of_net,
    }


def seed_event_simulate(tables, initial_values, launch_events, capture_time_ns):
    """The original event loop: registry dispatch through
    ``CELL_FUNCTIONS`` with a per-event input list comprehension."""
    n_nets = tables["n_nets"]
    horizon_ns = 2.0 * capture_time_ns
    values = list(initial_values)
    toggles = np.zeros(n_nets, dtype=np.int32)
    last_arrival = np.full(n_nets, np.nan)
    energy_total = 0.0
    energy_by_block = {}
    heap = []
    seq = 0
    for t, net, val in launch_events:
        heapq.heappush(heap, (t, seq, net, val & 1))
        seq += 1
    stw = 0.0
    n_transitions = 0
    truncated = False
    fanouts = tables["fanouts"]
    gate_fn = tables["gate_fn"]
    gate_ins = tables["gate_ins"]
    gate_out = tables["gate_out"]
    gate_delay = tables["gate_delay"]
    energy_of_net = tables["energy_of_net"]
    block_of_net = tables["block_of_net"]
    while heap:
        t, _s, net, val = heapq.heappop(heap)
        if t > horizon_ns:
            truncated = True
            break
        if values[net] == val:
            continue
        values[net] = val
        n_transitions += 1
        toggles[net] += 1
        last_arrival[net] = t
        if t > stw:
            stw = t
        energy = energy_of_net[net]
        energy_total += energy
        block = block_of_net[net]
        if block is not None:
            energy_by_block[block] = energy_by_block.get(block, 0.0) + energy
        for gi in fanouts[net]:
            new_out = gate_fn[gi]([values[p] for p in gate_ins[gi]], 1)
            heapq.heappush(
                heap, (t + gate_delay[gi], seq, gate_out[gi], new_out)
            )
            seq += 1
    return TimingResult(
        stw_ns=stw,
        capture_time_ns=capture_time_ns,
        n_transitions=n_transitions,
        toggles=toggles,
        last_arrival_ns=last_arrival,
        energy_fj_total=energy_total,
        energy_fj_by_block=energy_by_block,
        truncated=truncated,
    )


def seed_profile_patterns(calc, tables, matrix):
    """The original grading loop: one logic + one timing simulation per
    pattern, no lanes, no pool."""
    profiles = []
    for idx, row in enumerate(matrix):
        v1 = {fi: int(b) for fi, b in enumerate(row)}
        cyc = loc_launch_capture(calc.logic, v1, calc.domain)
        launch = {fi: cyc.launch_state[fi] for fi in calc.launch_time}
        events = build_launch_events(
            calc.design.netlist,
            cyc.frame1,
            launch,
            calc.launch_time,
            calc.delays.flop_ck2q_ns,
        )
        result = seed_event_simulate(
            tables, cyc.frame1, events, calc.period_ns
        )
        profiles.append(
            PatternPowerProfile.from_timing(idx, calc.period_ns, result)
        )
    return profiles


# ----------------------------------------------------------------------
def test_perf_pipeline(benchmark, rig):
    scale, design, domain, faults, matrix = rig
    nl = design.netlist
    host_cpus = usable_cpus()
    parallel_comparable = host_cpus >= REQUESTED_WORKERS
    report = {
        "scale": scale,
        "design": {
            "gates": nl.n_gates,
            "nets": nl.n_nets,
            "flops": nl.n_flops,
            "collapsed_faults": len(faults),
        },
        # Usable cores (affinity/cgroup aware), not the machine total:
        # grading pools can only ever run on these.
        "host_cpus": host_cpus,
        "host_cpus_total": os.cpu_count(),
        "requested_workers": REQUESTED_WORKERS,
        "effective_workers": resolve_workers(REQUESTED_WORKERS, len(faults)),
        # With fewer usable cores than workers, pool numbers measure
        # oversubscription, not parallelism — flag them, don't read
        # them as regressions.
        "parallel_comparable": parallel_comparable,
    }

    # -- pack ----------------------------------------------------------
    t0 = time.perf_counter()
    packed_seed, mask_seed = seed_pack(matrix)
    t1 = time.perf_counter()
    packed_vec, mask_vec = pack_matrix(matrix)
    t2 = time.perf_counter()
    assert packed_vec == packed_seed and mask_vec == mask_seed
    report["pack"] = {
        "n_patterns": int(matrix.shape[0]),
        "seed_s": t1 - t0,
        "vectorized_s": t2 - t1,
        "speedup_vs_seed": (t1 - t0) / max(1e-9, t2 - t1),
    }

    # -- bit-parallel logic sim ----------------------------------------
    lsim = FaultSimulator(nl, domain).sim
    loc_launch_capture(lsim, packed_vec, domain, mask=mask_vec)  # warm
    t0 = time.perf_counter()
    for _ in range(3):
        loc_launch_capture(lsim, packed_vec, domain, mask=mask_vec)
    logic_s = (time.perf_counter() - t0) / 3
    report["logic_sim"] = {
        "n_patterns": int(matrix.shape[0]),
        "patterns_per_s": matrix.shape[0] / logic_s,
    }

    # -- fault simulation ----------------------------------------------
    # A fresh simulator's first grade is what the first flow on a design
    # and every uploaded netlist pay: it must cost about what a
    # steady-state grade costs, with no per-design set-up hidden in it.
    fsim = FaultSimulator(nl, domain)
    t0 = time.perf_counter()
    det_fresh = fsim.run_batch(matrix, faults, lane_width=matrix.shape[0])
    fresh_first_grade_s = time.perf_counter() - t0

    det_seed = seed_fault_sim(fsim, domain, matrix, faults)  # warm cones
    t0 = time.perf_counter()
    det_seed = seed_fault_sim(fsim, domain, matrix, faults)
    seed_s = time.perf_counter() - t0

    det_batch = benchmark.pedantic(
        lambda: fsim.run_batch(matrix, faults, lane_width=matrix.shape[0]),
        rounds=3,
        iterations=1,
    )
    t0 = time.perf_counter()
    fsim.run_batch(matrix, faults, lane_width=matrix.shape[0])
    batch_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    det_par = fsim.run_batch(
        matrix, faults, lane_width=matrix.shape[0],
        n_workers=REQUESTED_WORKERS,
    )
    par_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    det_drop = fsim.run_batch(matrix, faults, lane_width=64, drop=True)
    drop_s = time.perf_counter() - t0

    assert det_fresh == det_seed, "fresh fault sim is not bit-identical"
    assert det_batch == det_seed, "batched fault sim is not bit-identical"
    assert det_par == det_seed, "parallel fault sim is not bit-identical"
    assert set(det_drop) == set(det_seed)

    fp = len(faults) * matrix.shape[0]
    modes = {
        "batch": seed_s / batch_s,
        "parallel": seed_s / par_s,
    }
    best_mode = max(modes, key=modes.get)
    report["fault_sim"] = {
        "n_patterns": int(matrix.shape[0]),
        "n_faults": len(faults),
        "detected": len(det_seed),
        "seed_s": seed_s,
        "fresh_first_grade_s": fresh_first_grade_s,
        "batch_s": batch_s,
        "parallel_s": par_s,
        "drop_grading_s": drop_s,
        "seed_fault_patterns_per_s": fp / seed_s,
        "batch_fault_patterns_per_s": fp / batch_s,
        "speedup_batch_vs_seed": modes["batch"],
        "speedup_parallel_vs_seed": modes["parallel"],
        "best_mode": best_mode,
        "speedup_vs_seed": modes[best_mode],
        "bit_identical": True,
    }

    # -- SCAP grading --------------------------------------------------
    scap_matrix = matrix[:N_SCAP_PATTERNS]
    calc = ScapCalculator(design, domain)
    calc.profile_patterns(scap_matrix[:2])  # warm

    tables = seed_event_tables(calc)
    t0 = time.perf_counter()
    prof_seed = seed_profile_patterns(calc, tables, scap_matrix)
    seed_scap_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    prof_batch = calc.profile_patterns(scap_matrix)
    batch_scap_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    prof_par = calc.profile_patterns(
        scap_matrix, n_workers=REQUESTED_WORKERS
    )
    par_scap_s = time.perf_counter() - t0

    assert prof_batch == prof_seed, "batched SCAP profiles differ from seed"
    assert prof_par == prof_seed, "parallel SCAP profiles differ from seed"

    n = scap_matrix.shape[0]
    modes = {
        "batch": seed_scap_s / batch_scap_s,
        "parallel": seed_scap_s / par_scap_s,
    }
    best_mode = max(modes, key=modes.get)
    report["scap"] = {
        "n_patterns": n,
        "seed_ms_per_pattern": 1000 * seed_scap_s / n,
        "batch_ms_per_pattern": 1000 * batch_scap_s / n,
        "parallel_ms_per_pattern": 1000 * par_scap_s / n,
        "speedup_batch_vs_seed": modes["batch"],
        "speedup_parallel_vs_seed": modes["parallel"],
        "best_mode": best_mode,
        "speedup_vs_seed": modes[best_mode],
        "profiles_identical": True,
    }

    _OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {_OUT_PATH}")
    print(json.dumps(report, indent=2))

    # Lenient floors: the exact factors are hardware-dependent, but the
    # optimised paths must never lose to the seed algorithms.
    assert report["pack"]["speedup_vs_seed"] > 1.0
    assert report["fault_sim"]["speedup_vs_seed"] > 1.0
    assert report["scap"]["speedup_vs_seed"] > 1.0
    # A fresh simulator grades at steady-state speed on any hardware:
    # its first grade pays no per-design set-up.
    assert (
        report["fault_sim"]["fresh_first_grade_s"]
        < 3 * report["fault_sim"]["batch_s"]
    )
    # On a host with enough usable cores the pool must *win* —
    # enforced, not hoped for.  Oversubscribed hosts (host_cpus <
    # workers) are flagged non-comparable instead; their numbers are
    # still reported above.
    if parallel_comparable:
        assert (
            report["fault_sim"]["speedup_parallel_vs_seed"] > 1.0
        ), "parallel fault sim lost to the seed"
