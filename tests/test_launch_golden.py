"""Golden pins for the at-speed launch model under LOC, LOS and ES.

Launch-off-capture, launch-off-shift and enhanced scan all feed the
same launch-to-capture cycle to the SCAP calculator, the fault
simulator and the MISR response model.  Every digest below was recorded
from the per-protocol launch code before it was merged into one
function (floats as ``float.hex``):

* SCAP profiles of 70 seeded random patterns on the tiny SOC (two
  lanes, the second partial) under each protocol,
* LOS and ES fault-simulation detection words,
* the toggles and full trace of one traced single-pattern simulation
  per protocol,
* good-machine MISR capture responses.

A second family checks, for every protocol, that a lane equals its
lanes of one: frames, launch states, seeds, profiles, timing results
and detection words.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List

import numpy as np
import pytest

from repro.atpg.faults import build_fault_universe, collapse_faults
from repro.atpg.fsim import FaultSimulator
from repro.atpg.patterns import Pattern, PatternSet
from repro.dft.misr import capture_responses
from repro.power import ScapCalculator
from repro.soc import build_turbo_eagle

SEED = 2007
N_ROWS = 70
PROTOCOLS = ("loc", "los", "es")

DIGESTS: Dict[str, str] = {
    "profiles.loc.event": (
        "1ee0245fd6e520a2d4d911917ce8cd2177b55b1beba6be64255d17f9802f7d5b"
    ),
    "profiles.los.event": (
        "5e16574c6b3e2215f7f712649069fcebef157eb779c1167a44933b42d6cb9f80"
    ),
    "profiles.es.event": (
        "5d07564fcab86081d073a5d28cdec9167fd01434fdfeb6828d7b9258fbcec668"
    ),
    "fsim.loc": (
        "52d45a173c8cbd07411f8cac7ab20bd4b2a8ac966fd4b9c099e536cee19f8b34"
    ),
    "fsim.los": (
        "7daf6e3179a4152f40e99f2851e5a098b53448262a193602dd71cce28d3c5bd3"
    ),
    "fsim.es": (
        "d6deb488a24e5a146f80100f84cd6a5bf327c73ab124ea6ab78e472cda62b209"
    ),
    "trace.loc": (
        "8627bacefcbf1334b51373f78141673712ac6f8a23e89303afb5f887e62aa669"
    ),
    "trace.los": (
        "7d51ae1b1dd9a8d95a1d25c5ce23ef45dce3d92d30b14eb5ad7e14781fd35995"
    ),
    "trace.es": (
        "563f6dd317455ccf63e1ab7c9cfa0c2e1073d96d7dfa168ae41ea517fe0e2e72"
    ),
    "misr.responses": (
        "83ab6a9b1348af889e24b2df1add89fd26fe7b3fd9b411c63e94bc1e340f03b7"
    ),
}


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def tiny():
    design = build_turbo_eagle("tiny", seed=SEED)
    rng = np.random.default_rng(SEED + 16)
    shape = (N_ROWS, design.netlist.n_flops)
    v1 = rng.integers(0, 2, size=shape, dtype=np.uint8)
    v2 = rng.integers(0, 2, size=shape, dtype=np.uint8)
    return design, design.dominant_domain(), v1, v2


@pytest.fixture(scope="module")
def faults(tiny):
    design = tiny[0]
    reps, _ = collapse_faults(
        design.netlist, build_fault_universe(design.netlist)
    )
    return list(reps)


def _profile_payload(profiles) -> List[Any]:
    return [
        [
            p.pattern_index,
            float(p.period_ns).hex(),
            float(p.stw_ns).hex(),
            p.n_transitions,
            float(p.energy_fj_total).hex(),
            sorted(
                (block, float(e).hex())
                for block, e in p.energy_fj_by_block.items()
            ),
        ]
        for p in profiles
    ]


def _timing_payload(timing) -> List[Any]:
    return [
        float(timing.stw_ns).hex(),
        timing.n_transitions,
        np.asarray(timing.toggles).tolist(),
        [float(a).hex() for a in np.asarray(timing.last_arrival_ns)],
        float(timing.energy_fj_total).hex(),
        sorted(
            (block, float(e).hex())
            for block, e in timing.energy_fj_by_block.items()
        ),
        bool(timing.truncated),
    ]


def _bits(row: np.ndarray) -> Dict[int, int]:
    return {fi: int(b) for fi, b in enumerate(row)}


def _v2_for(protocol: str, v2: np.ndarray):
    return v2 if protocol == "es" else None


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_profiles_pinned(tiny, protocol):
    design, domain, v1, v2 = tiny
    calc = ScapCalculator(design, domain)
    profiles = calc.profile_patterns(
        v1, protocol=protocol, v2_matrix=_v2_for(protocol, v2)
    )
    assert len(profiles) == N_ROWS
    assert _digest(_profile_payload(profiles)) == (
        DIGESTS[f"profiles.{protocol}.event"]
    )


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_fault_sim_words_pinned(tiny, faults, protocol):
    design, domain, v1, v2 = tiny
    fsim = FaultSimulator(design.netlist, domain)
    words = fsim.run_batch(
        v1, faults, protocol=protocol, scan=design.scan,
        v2_matrix=_v2_for(protocol, v2),
    )
    assert words
    payload = sorted((f.net, f.kind, word) for f, word in words.items())
    assert _digest(payload) == DIGESTS[f"fsim.{protocol}"]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_traced_single_pattern_pinned(tiny, protocol):
    design, domain, v1, v2 = tiny
    calc = ScapCalculator(design, domain)
    timing = calc.simulate_pattern(
        _bits(v1[3]),
        record_trace=True,
        protocol=protocol,
        v2=_bits(v2[3]) if protocol == "es" else None,
    )
    assert timing.trace
    payload = _timing_payload(timing) + [
        [[float(t).hex(), int(net), int(val)] for t, net, val in timing.trace]
    ]
    assert _digest(payload) == DIGESTS[f"trace.{protocol}"]


def test_misr_capture_responses_pinned(tiny):
    design, domain, v1, _v2 = tiny
    patterns = PatternSet(domain)
    for i, row in enumerate(v1):
        patterns.append(
            Pattern(
                index=i, v1=row, care=np.zeros(row.shape, dtype=bool),
                domain=domain, fill="random",
            )
        )
    responses = capture_responses(design.netlist, patterns, domain)
    assert len(responses) == N_ROWS
    payload = [sorted(r.items()) for r in responses]
    assert _digest(payload) == DIGESTS["misr.responses"]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_lane_equals_lanes_of_one(tiny, protocol):
    design, domain, v1, v2 = tiny
    calc = ScapCalculator(design, domain)
    lane = v1[:64]
    v2_lane = _v2_for(protocol, v2[:64])
    frames = calc.lane_frames(lane, protocol, v2_lane)
    for p in range(lane.shape[0]):
        one = calc.lane_frames(
            lane[p:p + 1], protocol,
            None if v2_lane is None else v2_lane[p:p + 1],
        )
        assert one.frame1_of(0) == frames.frame1_of(p)
        assert one.launch_of(0) == frames.launch_of(p)
        assert one.seeds_of(0) == frames.seeds_of(p)
    for p in (0, 17, 63):
        single = calc.simulate_pattern(
            _bits(lane[p]),
            protocol=protocol,
            v2=None if v2_lane is None else _bits(v2_lane[p]),
        )
        assert _timing_payload(single) == _timing_payload(
            calc.simulate_lane(frames, p)
        )
    v2_all = _v2_for(protocol, v2)
    assert calc.profile_patterns(
        v1, protocol=protocol, v2_matrix=v2_all, lane_width=1
    ) == calc.profile_patterns(v1, protocol=protocol, v2_matrix=v2_all)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_fault_sim_lane_equals_lanes_of_one(tiny, faults, protocol):
    design, domain, v1, v2 = tiny
    fsim = FaultSimulator(design.netlist, domain)
    kwargs = {
        "protocol": protocol,
        "scan": design.scan,
        "v2_matrix": _v2_for(protocol, v2),
    }
    assert fsim.run_batch(v1, faults, lane_width=1, **kwargs) == (
        fsim.run_batch(v1, faults, **kwargs)
    )
