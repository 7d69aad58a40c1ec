"""Golden pin of whole ATPG engine runs on the tiny SOC.

Each case runs :meth:`AtpgEngine.run` on ``turbo_eagle_tiny`` (seed
2007) and hashes its pattern matrix (V1 and care bits) together with the
detected, aborted and untestable counts.  The cases cover the engine
paths a PODEM or compaction change can move: LOC with fill 0 and with
random fill, LOS, the per-block target cap, isolation ``forced_bits``
(through the staged generator), N-detect and timing-aware backtrace.
The ledger's reference digest covers only the staged LOC fill-0 flow.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.atpg.engine import AtpgEngine
from repro.core.flow import NoiseAwarePatternGenerator
from repro.soc import build_turbo_eagle

GOLDEN = {
    "loc_fill0": (
        "b5ca16ab900f74c4078531d9e27d472b"
        "a864446ae4e8f7941e952b3486f5793a"
    ),
    "loc_random": (
        "96dc5a36a853aa1536cb5b8d1718c1d5"
        "6c2949075d4a43f771d743054c656e5f"
    ),
    "los_fill0": (
        "53f45619ed7f3d1482ddd92cd194731f"
        "c6a64fa68104876fcb8d022aa6d5066f"
    ),
    "block_cap2": (
        "51e36f883d8e817d47724ac6760cfd12"
        "869a3e95e2c320b7d8a9df9b9ba2f16c"
    ),
    "isolation": (
        "a41f133a8a1664b3d4eb1e4a2089791a"
        "9dda351e0c7a4b6ee3d04d641fc5d59f"
    ),
    "ndetect2": (
        "c5f04f70ff489686b3787ea0ffc3eb9c"
        "98a35115ce1a3ab9143ab017f8e025f5"
    ),
    "timing_aware": (
        "48f673e13870adf463b53abfde3cd2aa"
        "6b53620f7d97842dc3d357b4520ba258"
    ),
}


@pytest.fixture(scope="module")
def tiny():
    return build_turbo_eagle("tiny", seed=2007)


def _digest(patterns, detected: int, aborted: int, untestable: int) -> str:
    h = hashlib.sha256()
    h.update(np.stack([p.v1 for p in patterns]).astype(np.uint8).tobytes())
    h.update(np.stack([p.care for p in patterns]).astype(np.uint8).tobytes())
    h.update(repr((len(patterns), detected, aborted, untestable)).encode())
    return h.hexdigest()


def _engine_digest(design, run_kwargs=None, **engine_kwargs) -> str:
    engine = AtpgEngine(
        design.netlist, design.dominant_domain(), scan=design.scan,
        seed=2007, **engine_kwargs,
    )
    result = engine.run(**(run_kwargs or {}))
    assert not result.inconsistent
    return _digest(
        list(result.pattern_set), len(result.detected),
        len(result.aborted), len(result.untestable),
    )


CASES = {
    "loc_fill0": ({"fill": "0"}, {}),
    "loc_random": ({"fill": "random"}, {}),
    "los_fill0": ({"fill": "0"}, {"protocol": "los"}),
    "block_cap2": ({"fill": "0"}, {"max_targets_per_block": 2}),
    "ndetect2": ({"fill": "0", "n_detect": 2}, {}),
    "timing_aware": ({"fill": "0"}, {"timing_aware": True}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_run_pinned(tiny, case):
    run_kwargs, engine_kwargs = CASES[case]
    assert _engine_digest(tiny, run_kwargs, **engine_kwargs) == GOLDEN[case]


def test_isolation_forced_bits_pinned(tiny):
    """The staged generator holds untargeted blocks' load-enables at 0
    through ``forced_bits`` in every ``AtpgEngine.run`` it makes."""
    flow = NoiseAwarePatternGenerator(
        tiny, seed=2007, isolate_untargeted=True
    ).run()
    steps = flow.step_results
    assert not any(r.inconsistent for r in steps)
    digest = _digest(
        list(flow.pattern_set),
        sum(len(r.detected) for r in steps),
        sum(len(r.aborted) for r in steps),
        sum(len(r.untestable) for r in steps),
    )
    assert digest == GOLDEN["isolation"]
