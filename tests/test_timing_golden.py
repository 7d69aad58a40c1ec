"""Golden pins for the noise-aware timing pre-screen and its sweeps.

Every digest below was recorded from the straightforward one-pattern-
at-a-time implementation (scalar launch pass, per-gate STA and toggle
loops).  Any faster implementation must reproduce them bit for bit:
per-pattern endpoint classifications and bounds (as ``float.hex``),
block droop bounds, toggling seeds, misses, the pre-screen summary, STA
arrivals and worst paths, and the static SCAP toggle/energy bounds.

The pre-screen inputs straddle the 64-pattern lane boundaries (1, 63,
64 and 65 patterns, a ``max_patterns`` cap that ends mid-lane, an audit
window wider than one lane), mix ``Pattern`` objects with v1 dicts that
omit flops, and include a quiet pattern (no launch flop toggles).  A
hypothesis check compares the levelised sweeps with a naive per-gate
loop on random netlists.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.patterns import Pattern
from repro.config import ElectricalEnv
from repro.core.flow import run_noise_tolerant_flow
from repro.netlist.netlist import Netlist
from repro.pgrid import GridModel
from repro.power import ScapCalculator
from repro.power.static_bound import StaticScapBound
from repro.sim.delays import DelayModel
from repro.sim.logic import loc_launch_capture
from repro.sim.sta import StaticTimingAnalyzer
from repro.soc import build_turbo_eagle
from repro.soc.clocks import ClockDomainSpec, build_clock_tree
from repro.soc.design import SocDesign
from repro.timing import (
    DroopBoundAnalyzer,
    prescreen_pattern_set,
    prescreened_endpoint_comparison,
)
from tests.strategies import random_netlist

SEED = 2007

DIGESTS: Dict[str, str] = {
    "flow_tiny.report": (
        "c7550879292ba74174ac18b85063c5361144a0d274dc1d58f4b9a4169ce619e2"
    ),
    "flow_tiny.patterns": (
        "1aa2f45d398b550d111a1fc1986469f3df81ac819933042120234669e081e9dc"
    ),
    "small_random64.summary": (
        "60cfa9bc998522df62819cd68e4e6787732c0c445994333c4d7280e4124f3a23"
    ),
    "small_random64.patterns": (
        "1287a55f4be12578ce99903a31fa274abddca51efa885eed8c8e3faf69960011"
    ),
    "tiny_kvolt40.summary": (
        "f3723500ce4fc7cce0af7ba5f30a27ed14d552e72878db4a73c020170a3a06be"
    ),
    "tiny_kvolt40.patterns": (
        "6b36235a0337bca6ca0ab975b42f16615900694d50f3b67a05a9b3e71f9b478f"
    ),
    "lane_1": (
        "4c7efb94b0e87a7890b0c44bc4ee8a992bd8989a2c472cbe13ce0d178fb69ab6"
    ),
    "lane_63": (
        "a6fa852bb3105777b341704e1580f1b1ecc9d36cc94540964e10391170925caa"
    ),
    "lane_64": (
        "9612729a8a6e04c0524672a407d2d509a5c91707b90e2db8e486625add9dc9d6"
    ),
    "lane_65": (
        "64dac1828cb44a732f3afad154e914c46a4c69c6ee61fb13aa26a05d2569cbe4"
    ),
    "lane_cap_mid": (
        "d2ef2122426052e11ff019f94e2aa24b448ec84df74d8d491b779d90b78537ec"
    ),
    "lane_audit_wide": (
        "b4e6ed649a3000d076480c930974585722a44b8910cac0b0f92f476e2e44b8ba"
    ),
    "dict_missing_flops.summary": (
        "9d0f9669cdbfe75939f6e527925db1d1e7bd0db516945893dd96f1883e2a10b6"
    ),
    "dict_missing_flops.patterns": (
        "0247266a04a54645322ad19ab4296111a4e7c9490fbb9610862cd859c737ddd7"
    ),
    "quiet.summary": (
        "6242984b45db7646c239cfa62924914208129482df576c56567f28927e243bba"
    ),
    "quiet.patterns": (
        "5f4c6249d5989d555b3706cfb7dc2a2540432d83fd5410bf0ab9f7dc8ddf30d3"
    ),
    "sta.tiny": (
        "561f5e97709a8e8ea12a688f0c2fa73db2f5de673d06b685a2730a58b8d8d0a2"
    ),
    "sta.small": (
        "fce5dce5062cc5976153b7f2cf07074ebeebd4d623220fe5efdde76e703b8fde"
    ),
    "scap_bound.tiny": (
        "7b498e121d8313e9c6a48dd5062a1f7c2e8f230351b4713e91ce358e32e35cbb"
    ),
    "scap_bound.small": (
        "65f27f0fa5d4d7a709bbb41379a9d3a5eadf521d466ffbf88d8d4306ab6a31e3"
    ),
}


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _summary_payload(summary) -> Dict[str, Any]:
    data = summary.to_dict()
    data.pop("elapsed_s")
    return data


def _comparison_payload(pres) -> Dict[str, Any]:
    report = pres.report
    return {
        "index": report.pattern_index,
        "endpoints": [
            [fi, ep.classification, float.hex(float(ep.measured_bound_ns))]
            for fi, ep in sorted(report.endpoints.items())
        ],
        "block_droop": [
            [block, float.hex(float(v))]
            for block, v in sorted(report.block_droop_bound_v.items())
        ],
        "seeds": sorted(report.seeds),
        "misses": sorted(pres.misses()),
        "tiers": [pres.skipped_all_simulation, pres.skipped_scaled_sim],
    }


def _per_pattern(calc, model, patterns, env) -> List[Dict[str, Any]]:
    analyzer = DroopBoundAnalyzer(
        calc.design, calc.domain, model=model, env=env, delays=calc.delays
    )
    return [
        _comparison_payload(
            prescreened_endpoint_comparison(
                calc, model, pattern, index=pi, env=env, analyzer=analyzer
            )
        )
        for pi, pattern in enumerate(patterns)
    ]


def _random_patterns(design, n: int, seed: int) -> List[Pattern]:
    rng = np.random.default_rng(seed)
    domain = design.dominant_domain()
    matrix = rng.integers(
        0, 2, size=(n, design.netlist.n_flops), dtype=np.uint8
    )
    return [
        Pattern(
            index=i, v1=row, care=np.zeros(row.shape, dtype=bool),
            domain=domain, fill="random",
        )
        for i, row in enumerate(matrix)
    ]


@pytest.fixture(scope="module")
def tiny():
    design = build_turbo_eagle("tiny", SEED)
    model = GridModel.calibrated(design)
    calc = ScapCalculator(design, design.dominant_domain())
    return design, model, calc


@pytest.fixture(scope="module")
def small():
    design = build_turbo_eagle("small", SEED)
    model = GridModel.calibrated(design)
    calc = ScapCalculator(design, design.dominant_domain())
    return design, model, calc


HOT = ElectricalEnv(k_volt=40.0)


class TestPrescreenGolden:
    def test_flow_tiny(self):
        design = build_turbo_eagle("tiny", SEED)
        result, report = run_noise_tolerant_flow(
            design, seed=SEED, timing_prescreen=True
        )
        timing = dict(report.timing)
        timing.pop("elapsed_s")
        assert _digest(timing) == DIGESTS["flow_tiny.report"]
        model = GridModel.calibrated(design)
        calc = ScapCalculator(design, design.dominant_domain())
        payload = _per_pattern(
            calc, model, result.pattern_set, ElectricalEnv()
        )
        assert _digest(payload) == DIGESTS["flow_tiny.patterns"]

    def test_small_random_vectors(self, small):
        design, model, calc = small
        patterns = _random_patterns(design, 64, SEED)
        summary = prescreen_pattern_set(calc, model, patterns)
        assert _digest(_summary_payload(summary)) == (
            DIGESTS["small_random64.summary"]
        )
        payload = _per_pattern(calc, model, patterns, ElectricalEnv())
        assert _digest(payload) == DIGESTS["small_random64.patterns"]

    def test_tiny_hot_env_runs_every_tier(self, tiny):
        design, model, calc = tiny
        patterns = _random_patterns(design, 70, SEED + 1)
        summary = prescreen_pattern_set(calc, model, patterns, env=HOT)
        assert summary.patterns_resimulated > 0
        assert summary.patterns_derated_safe + summary.patterns_static_safe
        assert summary.soundness_violations == 0
        assert _digest(_summary_payload(summary)) == (
            DIGESTS["tiny_kvolt40.summary"]
        )
        payload = _per_pattern(calc, model, patterns, HOT)
        assert _digest(payload) == DIGESTS["tiny_kvolt40.patterns"]

    @pytest.mark.parametrize("n", [1, 63, 64, 65])
    def test_lane_edges(self, tiny, n):
        design, model, calc = tiny
        patterns = _random_patterns(design, n, SEED + n)
        summary = prescreen_pattern_set(calc, model, patterns, env=HOT)
        assert summary.n_patterns == n
        assert _digest(_summary_payload(summary)) == DIGESTS[f"lane_{n}"]

    def test_cap_ends_mid_lane(self, tiny):
        design, model, calc = tiny
        patterns = _random_patterns(design, 100, SEED + 100)
        summary = prescreen_pattern_set(
            calc, model, patterns, env=HOT, max_patterns=70
        )
        assert summary.n_patterns == 70
        assert _digest(_summary_payload(summary)) == DIGESTS["lane_cap_mid"]

    def test_audit_wider_than_a_lane(self, tiny):
        design, model, calc = tiny
        patterns = _random_patterns(design, 80, SEED + 80)
        summary = prescreen_pattern_set(
            calc, model, patterns, env=HOT, audit_patterns=70
        )
        assert summary.soundness_violations == 0
        assert _digest(_summary_payload(summary)) == (
            DIGESTS["lane_audit_wide"]
        )

    def test_dict_patterns_missing_flops(self, tiny):
        design, model, calc = tiny
        rng = np.random.default_rng(SEED + 7)
        n_flops = design.netlist.n_flops
        patterns = [
            {
                fi: int(rng.integers(0, 2))
                for fi in range(n_flops)
                if rng.random() < 0.6
            }
            for _ in range(67)
        ]
        summary = prescreen_pattern_set(calc, model, patterns, env=HOT)
        assert _digest(_summary_payload(summary)) == (
            DIGESTS["dict_missing_flops.summary"]
        )
        payload = _per_pattern(calc, model, patterns, HOT)
        assert _digest(payload) == DIGESTS["dict_missing_flops.patterns"]

    def test_quiet_pattern_has_no_seed(self, tiny):
        design, model, calc = tiny
        zero = {fi: 0 for fi in range(design.netlist.n_flops)}
        quiet = _quiet_pattern(calc, zero)
        patterns = _random_patterns(design, 3, SEED + 3)
        mixed: List[Any] = [quiet, patterns[0], zero, quiet, patterns[1]]
        summary = prescreen_pattern_set(calc, model, mixed, env=HOT)
        payload = _per_pattern(calc, model, mixed, HOT)
        assert payload[0]["seeds"] == []
        assert payload[0]["tiers"] == [True, True]
        assert _digest(_summary_payload(summary)) == (
            DIGESTS["quiet.summary"]
        )
        assert _digest(payload) == DIGESTS["quiet.patterns"]


def _quiet_pattern(calc, v1: Dict[int, int]) -> Dict[int, int]:
    """Iterate the LOC launch until no launch flop toggles."""
    netlist = calc.design.netlist
    for _ in range(8):
        cyc = loc_launch_capture(calc.logic, v1, calc.domain)
        toggling = [
            fi
            for fi in calc.launch_time
            if cyc.launch_state[fi] != cyc.frame1[netlist.flops[fi].q]
        ]
        if not toggling:
            return v1
        v1 = {fi: cyc.launch_state[fi] for fi in v1}
    raise AssertionError("no quiet launch state within 8 LOC steps")


def _sta_payload(design, calc) -> List[Any]:
    domain = design.dominant_domain()
    sta = StaticTimingAnalyzer(
        design.netlist,
        calc.delays,
        design.clock_trees[domain],
        design.domains[domain].period_ns,
        domain,
    )
    netlist = design.netlist
    launch = sorted(calc.launch_time)
    cases = {
        "nominal": {},
        "uniform_1.3": {
            "gate_derate": np.full(netlist.n_gates, 1.3),
            "flop_derate": np.full(netlist.n_flops, 1.3),
        },
        "clock_scale": {
            "clock_delay_scale": (
                lambda buf, d: d * (1.0 + 0.15 * (len(buf.name) % 4))
            ),
        },
        "launch_subset": {"launch_flops": launch[::3]},
    }
    out: List[Any] = []
    for name, kwargs in cases.items():
        report = sta.analyze(**kwargs)
        endpoints = [
            [e.flop, float.hex(e.arrival_ns), float.hex(e.required_ns)]
            for e in report.endpoints
        ]
        paths = [
            [
                [p.net, float.hex(p.arrival_ns), p.through]
                for p in sta.trace_path(e)
            ]
            for e in report.worst_endpoints(3)
        ]
        out.append([name, endpoints, paths])
    return out


def _scap_bound_payload(design) -> List[Any]:
    bound = StaticScapBound(design)
    launch = sorted(bound.launch_time_ns)
    blocks, matrix = bound.block_bound_matrix()
    return [
        hashlib.sha256(bound.toggle_bounds().tobytes()).hexdigest(),
        hashlib.sha256(
            bound.toggle_bounds(set(launch[1::4])).tobytes()
        ).hexdigest(),
        sorted(
            [b, float.hex(v)] for b, v in bound.test_power_bounds_mw().items()
        ),
        blocks,
        hashlib.sha256(matrix.tobytes()).hexdigest(),
    ]


class TestSweepGolden:
    @pytest.mark.parametrize("scale", ["tiny", "small"])
    def test_sta_arrivals_and_paths(self, scale, tiny, small):
        design, _model, calc = tiny if scale == "tiny" else small
        assert _digest(_sta_payload(design, calc)) == DIGESTS[f"sta.{scale}"]

    @pytest.mark.parametrize("scale", ["tiny", "small"])
    def test_static_scap_bounds(self, scale, tiny, small):
        design = (tiny if scale == "tiny" else small)[0]
        assert _digest(_scap_bound_payload(design)) == (
            DIGESTS[f"scap_bound.{scale}"]
        )


# ----------------------------------------------------------------------
# the levelised sweeps against a naive per-gate reference
# ----------------------------------------------------------------------
def _naive_order(netlist: Netlist) -> List[int]:
    """Gates in an order where every driver precedes its loads."""
    driver = {g.output: gi for gi, g in enumerate(netlist.gates)}
    done: List[int] = []
    seen = set()

    def visit(gi: int) -> None:
        if gi in seen:
            return
        seen.add(gi)
        for net in netlist.gates[gi].inputs:
            if net in driver:
                visit(driver[net])
        done.append(gi)

    for gi in range(netlist.n_gates):
        visit(gi)
    return done


def _naive_toggles(netlist: Netlist, seeds: Sequence[int]) -> np.ndarray:
    bound = [0.0] * netlist.n_nets
    for fi in seeds:
        bound[netlist.flops[fi].q] = 1.0
    for gi in _naive_order(netlist):
        gate = netlist.gates[gi]
        total = 0.0
        for net in gate.inputs:
            total += bound[net]
        bound[gate.output] = total
    return np.array(bound)


def _naive_arrivals(
    netlist: Netlist,
    sta: StaticTimingAnalyzer,
    seeds: Sequence[int],
    gate_derate: np.ndarray,
    flop_derate: np.ndarray,
):
    arrival = [float("-inf")] * netlist.n_nets
    pred: Dict[int, int] = {}
    for fi in seeds:
        q = netlist.flops[fi].q
        t = sta.tree.insertion_delay_ns(fi) + float(
            sta.delays.flop_ck2q_ns[fi]
        ) * float(flop_derate[fi])
        arrival[q] = max(arrival[q], t)
    for gi in _naive_order(netlist):
        gate = netlist.gates[gi]
        worst, worst_net = float("-inf"), -1
        for net in gate.inputs:
            if arrival[net] > worst:
                worst, worst_net = arrival[net], net
        if worst == float("-inf"):
            continue
        arrival[gate.output] = worst + float(
            sta.delays.gate_delay_ns[gi]
        ) * float(gate_derate[gi])
        pred[gate.output] = worst_net
    return arrival, pred


def _hypo_design(netlist: Netlist) -> SocDesign:
    positions = {
        fi: f.pos if f.pos is not None else (float(fi), 0.0)
        for fi, f in enumerate(netlist.flops)
    }
    tree = build_clock_tree("clka", positions, (0.0, 0.0), leaf_size=2)
    return SocDesign(
        name="hypo",
        netlist=netlist,
        floorplan=None,  # type: ignore[arg-type]
        domains={"clka": ClockDomainSpec("clka", 250.0, ())},
        clock_trees={"clka": tree},
        scale_name="hypo",
        seed=0,
    )


@settings(max_examples=40, deadline=None)
@given(nl=random_netlist(), data=st.data())
def test_level_sweeps_match_naive_loop(nl, data):
    design = _hypo_design(nl)
    delays = DelayModel(nl, design.parasitics)
    sta = StaticTimingAnalyzer(
        nl, delays, design.clock_trees["clka"], 4.0, "clka"
    )
    bound = StaticScapBound(design, "clka", delays=delays)
    flops = list(range(nl.n_flops))
    seeds = sorted(data.draw(st.sets(st.sampled_from(flops))))
    derate = st.floats(1.0, 2.0, allow_nan=False)
    gate_derate = np.array(
        data.draw(st.lists(derate, min_size=nl.n_gates, max_size=nl.n_gates))
    )
    flop_derate = np.array(
        data.draw(st.lists(derate, min_size=nl.n_flops, max_size=nl.n_flops))
    )

    expected = _naive_toggles(nl, seeds)
    assert bound.toggle_bounds(set(seeds)).tobytes() == expected.tobytes()
    many = bound.toggle_bounds_many([set(seeds), set(flops)])
    assert many[0].tobytes() == expected.tobytes()
    assert many[1].tobytes() == _naive_toggles(nl, flops).tobytes()

    arrival, pred = _naive_arrivals(nl, sta, seeds, gate_derate, flop_derate)
    report = sta.analyze(
        gate_derate=gate_derate, flop_derate=flop_derate, launch_flops=seeds
    )
    reached = {
        fi: arrival[f.d]
        for fi, f in enumerate(nl.flops)
        if arrival[f.d] != float("-inf")
    }
    assert {e.flop: e.arrival_ns for e in report.endpoints} == reached
    for e in report.endpoints:
        path = sta.trace_path(e)
        net = nl.flops[e.flop].d
        walk = [net]
        while net in pred:
            net = pred[net]
            walk.append(net)
        assert [p.net for p in path] == walk[::-1]
        assert [p.arrival_ns for p in path] == [arrival[n] for n in walk[::-1]]
