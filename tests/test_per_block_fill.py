"""Tests for per-block fill (the paper's 'more ideal scenario')."""

from __future__ import annotations

import numpy as np
import pytest

from repro import CaseStudy
from repro.atpg import AtpgEngine
from repro.atpg.fill import apply_per_block_fill
from repro.core import NoiseAwarePatternGenerator, validate_pattern_set
from repro.errors import AtpgError
from repro.soc import build_turbo_eagle


@pytest.fixture(scope="module")
def design():
    return build_turbo_eagle("tiny", seed=107)


class TestApplyPerBlockFill:
    def test_policies_applied_by_block(self, design):
        n = design.netlist.n_flops
        blocks = [f.block for f in design.netlist.flops]
        cube = {0: 1}
        v1 = apply_per_block_fill(
            cube, n, blocks, {"B1": "1"}, default_fill="0",
            scan=design.scan,
        )
        for fi in range(1, n):
            if blocks[fi] == "B1":
                assert v1[fi] == 1
            elif blocks[fi] is not None:
                assert v1[fi] == 0
        assert v1[0] == 1  # care bit wins everywhere

    def test_random_policy_needs_rng_zone_only(self, design):
        n = design.netlist.n_flops
        blocks = [f.block for f in design.netlist.flops]
        rng = np.random.default_rng(3)
        v1 = apply_per_block_fill(
            {}, n, blocks, {"B5": "random"}, default_fill="0",
            scan=design.scan, rng=rng,
        )
        b5 = [v1[fi] for fi in range(n) if blocks[fi] == "B5"]
        others = [v1[fi] for fi in range(n)
                  if blocks[fi] not in (None, "B5")]
        assert any(b5)          # random zone switches
        assert not any(others)  # quiet zone stays 0

    def test_validation(self, design):
        n = design.netlist.n_flops
        blocks = [f.block for f in design.netlist.flops]
        with pytest.raises(AtpgError):
            apply_per_block_fill({}, n, blocks, {"B1": "chaotic"})
        with pytest.raises(AtpgError):
            apply_per_block_fill({}, n, ["B1"], {})


class TestPerBlockFlow:
    @pytest.fixture(scope="class")
    def study(self):
        return CaseStudy(scale="tiny", seed=2007, backtrack_limit=60)

    @pytest.fixture(scope="class")
    def flows(self, study):
        out = {}
        for label, fill in (("fill0", "0"), ("per-block", "per-block")):
            out[label] = NoiseAwarePatternGenerator(
                study.design, seed=1, backtrack_limit=60, fill=fill,
            ).run()
        return out

    def test_prefix_still_quiet(self, study, flows):
        report = validate_pattern_set(
            study.calculator, flows["per-block"].pattern_set,
            study.thresholds_mw,
        )
        series = report.scap_series("B5")
        b5_start = flows["per-block"].step_boundaries[-1]
        assert (series[:b5_start] == 0.0).all()

    def test_coverage_recovers(self, flows):
        """Random fill inside targeted blocks restores the fortuitous
        detection that pure fill-0 loses."""
        assert (
            flows["per-block"].test_coverage
            >= flows["fill0"].test_coverage - 0.01
        )

    def test_engine_rejects_missing_blocks(self, design):
        engine = AtpgEngine(design.netlist, "clka", scan=design.scan,
                            seed=1)
        # per-block with an empty map = fill-0 everywhere; must run.
        result = engine.run(fill="per-block", max_patterns=5)
        assert result.n_patterns <= 5
        for pattern in result.pattern_set:
            assert pattern.fill == "per-block"
