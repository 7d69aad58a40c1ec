"""Tests for fill policies, fault simulation and the ATPG engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg import (
    AtpgEngine,
    FaultSimulator,
    apply_fill,
    build_fault_universe,
    collapse_faults,
)
from repro.atpg.fill import care_mask
from repro.atpg.fsim import first_detection_index
from repro.atpg.patterns import Pattern, PatternSet, pattern_rows
from repro.errors import AtpgError, ConfigError
from repro.soc import build_turbo_eagle


@pytest.fixture(scope="module")
def design():
    return build_turbo_eagle("tiny", seed=13)


class TestFill:
    def test_fill0_and_fill1(self, design):
        n = design.netlist.n_flops
        cube = {0: 1, 5: 0}
        v0 = apply_fill(cube, n, "0")
        assert v0[0] == 1 and v0[5] == 0
        assert v0.sum() == 1
        v1 = apply_fill(cube, n, "1")
        assert v1[5] == 0
        assert v1.sum() == n - 1

    def test_random_fill_preserves_care_bits(self, design):
        n = design.netlist.n_flops
        cube = {2: 1, 7: 0, 11: 1}
        rng = np.random.default_rng(5)
        v = apply_fill(cube, n, "random", rng=rng)
        assert v[2] == 1 and v[7] == 0 and v[11] == 1
        # Random fill must actually vary.
        v2 = apply_fill(cube, n, "random", rng=rng)
        assert (v != v2).any()

    def test_random_fill_needs_rng(self, design):
        with pytest.raises(AtpgError):
            apply_fill({0: 1}, 4, "random")

    def test_adjacent_fill_follows_chain(self, design):
        scan = design.scan
        chain = scan.chains[0]
        n = design.netlist.n_flops
        # One care bit in the middle of chain 0.
        mid = chain.flops[len(chain.flops) // 2]
        cube = {mid: 1}
        v = apply_fill(cube, n, "adjacent", scan=scan)
        # Everything after the care bit on this chain copies it; leading
        # cells copy the first care value.
        for fi in chain.flops:
            assert v[fi] == 1
        # Chains without care bits stay 0.
        other = scan.chains[1]
        assert all(v[fi] == 0 for fi in other.flops)

    def test_adjacent_fill_needs_scan(self):
        with pytest.raises(AtpgError):
            apply_fill({0: 1}, 4, "adjacent")

    def test_unknown_policy(self):
        with pytest.raises(AtpgError):
            apply_fill({0: 1}, 4, "majority")

    def test_care_mask(self):
        mask = care_mask({1: 0, 3: 1}, 5)
        assert mask.tolist() == [False, True, False, True, False]


class TestPatterns:
    def test_pattern_container(self, design):
        n = design.netlist.n_flops
        v1 = np.zeros(n, dtype=np.uint8)
        care = np.zeros(n, dtype=bool)
        care[3] = True
        p = Pattern(0, v1, care, "clka", "0")
        assert p.care_count == 1
        assert 0 < p.care_ratio < 1
        assert p.v1_dict()[3] == 0

    def test_pattern_set_domain_check(self, design):
        n = design.netlist.n_flops
        ps = PatternSet("clka")
        p = Pattern(0, np.zeros(n, np.uint8), np.zeros(n, bool), "clkb", "0")
        with pytest.raises(AtpgError):
            ps.append(p)

    def test_as_matrix(self, design):
        n = design.netlist.n_flops
        ps = PatternSet("clka")
        for i in range(3):
            ps.append(Pattern(i, np.full(n, i % 2, np.uint8),
                              np.zeros(n, bool), "clka", "0"))
        m = ps.as_matrix()
        assert m.shape == (3, n)
        assert m[1].sum() == n

    def test_pattern_rows_forms_agree(self, design):
        n = design.netlist.n_flops
        ps = PatternSet("clka")
        for i in range(3):
            ps.append(Pattern(10 + i, np.full(n, i % 2, np.uint8),
                              np.zeros(n, bool), "clka", "0"))
        indices, m = pattern_rows(ps, n)
        assert indices == [10, 11, 12]
        assert m.dtype == np.uint8 and (m == ps.as_matrix()).all()
        # Dicts and matrix rows are indexed by position; flops a dict
        # omits load 0.
        dicts = [{fi: 1 for fi in range(0, n, 2)}, {}]
        indices, from_dicts = pattern_rows(dicts, n)
        assert indices == [0, 1]
        assert from_dicts[0].tolist() == [1 - fi % 2 for fi in range(n)]
        assert not from_dicts[1].any()
        indices, from_matrix = pattern_rows(from_dicts.astype(bool), n)
        assert indices == [0, 1] and (from_matrix == from_dicts).all()
        assert pattern_rows([], n)[1].shape == (0, n)

    def test_pattern_rows_rejects_other_inputs(self, design):
        n = design.netlist.n_flops
        with pytest.raises(ConfigError, match="2-D"):
            pattern_rows(np.zeros(n), n)
        with pytest.raises(ConfigError, match=f"names flop -1, design has {n}"):
            pattern_rows([{-1: 1}], n)
        with pytest.raises(ConfigError, match="Pattern objects"):
            pattern_rows([np.zeros(n)], n)


class TestFaultSimulator:
    def test_first_detection_index(self):
        assert first_detection_index(0b1000) == 3
        assert first_detection_index(1) == 0
        with pytest.raises(AtpgError):
            first_detection_index(0)

    def test_shape_checks(self, design):
        fsim = FaultSimulator(design.netlist, "clka")
        with pytest.raises(AtpgError):
            fsim.run(np.zeros((2, 3), dtype=np.uint8), [])

    def test_no_activation_no_detection(self, design):
        """A fault whose stem never takes the initial value in frame 1
        cannot be detected."""
        nl = design.netlist
        fsim = FaultSimulator(nl, "clka")
        faults = build_fault_universe(nl)
        v1 = np.zeros((4, nl.n_flops), dtype=np.uint8)  # all-zero states
        words = fsim.run(v1, faults)
        from repro.sim.logic import LogicSim
        sim = LogicSim(nl)
        values = sim.run({fi: 0 for fi in range(nl.n_flops)})
        for fault, word in words.items():
            init = fault.initial_value
            assert values[fault.net] == init  # activation really held

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_detection_word_subset_of_activation(self, seed):
        design = build_turbo_eagle("tiny", seed=13)
        nl = design.netlist
        fsim = FaultSimulator(nl, "clka")
        rng = np.random.default_rng(seed)
        v1 = rng.integers(0, 2, size=(8, nl.n_flops), dtype=np.uint8)
        faults = build_fault_universe(nl)[:200]
        words = fsim.run(v1, faults)
        from repro.sim.logic import LogicSim, loc_launch_capture, pack_matrix
        packed, mask = pack_matrix(v1)
        cyc = loc_launch_capture(LogicSim(nl), packed, "clka", mask=mask)
        for fault, word in words.items():
            f1 = cyc.frame1[fault.net]
            act = f1 if fault.initial_value else (~f1 & mask)
            assert word & ~act == 0, "detection without activation"


class TestEngine:
    @pytest.fixture(scope="class")
    def results(self, design):
        eng = AtpgEngine(design.netlist, "clka", scan=design.scan, seed=9)
        return {
            "random": eng.run(fill="random"),
            "0": eng.run(fill="0"),
        }

    def test_coverage_reasonable(self, results):
        assert results["random"].test_coverage > 0.6
        assert results["0"].test_coverage > 0.6

    def test_fill0_needs_more_patterns(self, results):
        """The paper's ~8-16 % pattern-count increase for fill-0."""
        assert results["0"].n_patterns >= results["random"].n_patterns

    def test_no_inconsistencies(self, results):
        assert results["random"].inconsistent == []
        assert results["0"].inconsistent == []

    def test_coverage_curve_monotone(self, results):
        curve = results["random"].coverage_curve()
        ys = [y for _x, y in curve]
        assert all(b >= a for a, b in zip(ys, ys[1:]))
        assert ys[-1] == pytest.approx(results["random"].test_coverage)

    def test_detected_indices_valid(self, results):
        res = results["random"]
        for fault, idx in res.detected.items():
            assert 0 <= idx < res.n_patterns

    def test_patterns_have_metadata(self, results):
        for p in results["0"].pattern_set:
            assert p.fill == "0"
            assert p.domain == "clka"
            assert p.care_count > 0

    def test_max_patterns_cap(self, design):
        eng = AtpgEngine(design.netlist, "clka", scan=design.scan, seed=9)
        res = eng.run(fill="random", max_patterns=5)
        assert res.n_patterns <= 5

    def test_detected_faults_verify_against_fsim(self, design, results):
        """Cross-check: every fault the engine says pattern i detects is
        really detected by pattern i (re-simulated independently)."""
        res = results["random"]
        fsim = FaultSimulator(design.netlist, "clka")
        matrix = res.pattern_set.as_matrix()
        sample = list(res.detected.items())[:50]
        for fault, idx in sample:
            words = fsim.run(matrix[idx:idx + 1], [fault])
            assert words.get(fault, 0) & 1, (fault, idx)
