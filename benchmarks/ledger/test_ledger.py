"""Self-tests of the ledger's own logic; they run no workload.

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q
"""

from __future__ import annotations

import common
import compare
import tracing


def _event(span_id, parent_id, start, dur, name="x", **attrs):
    return {"name": name, "span_id": span_id, "parent_id": parent_id,
            "ts_s": start, "dur_s": dur, "pid": 1, "attrs": attrs}


class TestPercentileRule:
    def test_tail_needs_ten_samples_beyond(self):
        assert common.percentile(list(range(39)), 75) is None
        assert common.percentile(list(range(40)), 75) is not None
        assert common.percentile(list(range(99)), 90) is None
        assert common.percentile(list(range(100)), 90) is not None

    def test_highest_reportable_percentile_wins(self):
        assert common.tail_percentile(list(range(20))) is None
        assert common.tail_percentile(list(range(40)))[0] == 75
        assert common.tail_percentile(list(range(1000)))[0] == 99

    def test_spread_is_iqr_share_of_median(self):
        assert common.spread([10.0]) == 0.0
        q1, med, q3 = common.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
        assert common.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == (q3 - q1) / med


class TestSelfTime:
    def test_nested_spans(self):
        events = [
            _event("p", None, 0.0, 10.0),
            _event("a", "p", 1.0, 2.0),      # [1, 3]
            _event("b", "p", 2.0, 2.0),      # [2, 4], overlaps a
            _event("c", "p", 5.0, 1.0),      # [5, 6]
            _event("d", "c", 5.0, 0.5),
            _event("e", "p", 9.5, 2.0),      # escapes the parent at 10
        ]
        selfs = tracing.self_times(events)
        assert selfs["p"] == 10.0 - (3.0 + 1.0 + 0.5)
        assert selfs["c"] == 0.5
        assert selfs["a"] == 2.0

    def test_subtree_and_layer_metrics(self):
        events = [
            _event("j", None, 0.0, 4.0, name="ledger.job"),
            _event("f", "j", 0.0, 4.0, name="flow.run"),
            _event("p1", "f", 0.0, 1.0, name="atpg.podem", status="success",
                   decisions=6, backtracks=1),
            _event("p2", "f", 1.0, 1.0, name="atpg.podem", status="abort",
                   decisions=4, backtracks=61),
            _event("m", "f", 2.0, 1.0, name="atpg.merge", status="success",
                   decisions=2, backtracks=0),
            _event("s", None, 5.0, 1.0, name="ledger.setup"),
        ]
        jobs = tracing.subtree(events, "ledger.job")
        assert {e["span_id"] for e in jobs} == {"j", "f", "p1", "p2", "m"}
        layers = tracing.layer_metrics(jobs, tracing.subtree(events, "ledger.setup"), 2)
        assert layers["atpg.podem_calls"] == (1.0, "count")
        assert layers["atpg.podem_decisions"] == (5.0, "count")
        assert layers["atpg.podem_aborts"] == (0.5, "count")
        assert layers["atpg.podem_success_ratio"] == (0.5, "fraction")
        assert layers["atpg.merge_calls"] == (0.5, "count")
        assert layers["flow.self_s"] == (0.5, "s")
        assert layers["flow.attributed_fraction"] == (0.75, "fraction")


class TestWrappers:
    def test_install_wraps_every_binding_and_restore_puts_originals_back(self):
        import repro
        import repro.atpg.engine as engine
        import repro.atpg.podem as podem
        import repro.pgrid.grid as grid
        import repro.soc.generator as generator

        originals = (podem.generate_test, engine.generate_test,
                     generator.build_turbo_eagle, repro.build_turbo_eagle,
                     grid.GridModel.__dict__["calibrated"])
        recorder = tracing.SpanRecorder()
        patches = tracing.install(recorder)
        try:
            assert podem.generate_test is not originals[0]
            assert engine.generate_test is podem.generate_test
            assert repro.build_turbo_eagle is generator.build_turbo_eagle
            assert isinstance(grid.GridModel.__dict__["calibrated"], classmethod)
            repro.build_turbo_eagle("tiny", 2007)
        finally:
            tracing.restore(patches)
        assert (podem.generate_test, engine.generate_test,
                generator.build_turbo_eagle, repro.build_turbo_eagle,
                grid.GridModel.__dict__["calibrated"]) == originals
        assert [e["name"] for e in recorder.events()] == ["soc.build"]


class TestCompareVerdicts:
    def test_verdicts(self):
        base = [1.00, 1.01, 0.99, 1.00, 1.02]
        assert compare.verdict(base, [1.01, 1.00, 1.02, 0.99, 1.00], "lower", 0.1)[0] \
            == "unchanged"
        assert compare.verdict(base, [1.30, 1.31, 1.29, 1.30], "lower", 0.1)[0] == "worse"
        assert compare.verdict(base, [0.70, 0.71, 0.69, 0.70], "lower", 0.1)[0] == "better"
        # "higher is better" flips the sign of the change.
        assert compare.verdict(base, [1.30, 1.31, 1.29, 1.30], "higher", 0.1)[0] \
            == "better"

    def test_wide_spread_is_unresolved_unless_every_run_wins(self):
        noisy = [1.0, 2.0, 1.5, 0.8, 1.7]
        assert compare.verdict(noisy, [1.4, 1.5, 1.6], "lower", 0.1)[0] == "unresolved"
        assert compare.verdict(noisy, [0.5, 0.6, 0.55], "lower", 0.1)[0] == "better"

    def test_quality_is_judged_seed_by_seed_with_no_slack(self):
        base = {(1, 20.0): 100.0, (2, 20.0): 110.0}
        assert compare.exact_verdict(base, dict(base), "lower") == "unchanged"
        # One pattern more on one seed is worse, whatever the median does.
        assert compare.exact_verdict(base, {(1, 20.0): 101.0, (2, 20.0): 100.0},
                                     "lower") == "worse"
        assert compare.exact_verdict(base, {(1, 20.0): 99.0, (2, 20.0): 110.0},
                                     "lower") == "better"
        # A seed only the other side ran does not count.
        assert compare.exact_verdict(base, {(1, 20.0): 100.0, (3, 20.0): 500.0},
                                     "lower") == "unchanged"

    def test_only_runs_with_the_same_seed_and_length_are_paired(self):
        def run(seed, seconds):
            return {"workload": "flow_tiny", "traced": False, "seed": seed,
                    "seconds": seconds, "metrics": {}}

        base = [run(1, 20.0), run(2, 20.0), run(3, 20.0)]
        other = [run(1, 20.0), run(2, 5.0), run(4, 20.0)]
        a, b, unmatched = compare.paired(base, other, "flow_tiny", traced=False)
        assert [r["seed"] for r in a] == [1] and [r["seed"] for r in b] == [1]
        assert unmatched == [(2, 5.0), (2, 20.0), (3, 20.0), (4, 20.0)]

    def test_e2e_rows_flag_a_worse_quality_metric(self, capsys):
        spec = {"end_to_end": [
            {"name": "n_patterns", "unit": "count", "better": "lower", "bound": 0.15}]}

        def run(seed, value):
            return {"workload": "flow_tiny", "traced": False, "seed": seed,
                    "seconds": 20.0, "metrics": {"n_patterns": {"value": value}}}

        base = [run(s, 100.0 + s) for s in range(1, 6)]
        assert compare.compare_e2e(spec, base, list(base)) == []
        other = [run(s, 100.0 + s + (s == 3)) for s in range(1, 6)]
        assert compare.compare_e2e(spec, base, other) == ["flow_tiny n_patterns"]

    def test_counts_must_repeat_for_the_same_code(self, capsys):
        spec = {"per_layer": [{"name": "atpg.podem_decisions", "unit": "count"}]}

        def run(value, digest="same"):
            return {"workload": "flow_tiny", "seed": 1, "seconds": 20.0, "traced": True,
                    "host": {"src_sha256": digest},
                    "metrics": {"atpg.podem_decisions": {"value": value}}}

        assert compare.compare_counts(spec, [run(5)], [run(5)]) == []
        assert "identical" in capsys.readouterr().out
        assert len(compare.compare_counts(spec, [run(5)], [run(6)])) == 1
        # Changed code may change the count: listed, not an error.
        assert compare.compare_counts(spec, [run(5)], [run(6, "changed")]) == []
        assert "[5] -> [6]" in capsys.readouterr().out
