"""Tests for the static DRC & testability lint subsystem (repro.drc)."""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.drc import (
    DrcContext,
    ERROR,
    INFO,
    WARN,
    Violation,
    WaiverSet,
    check_netlist_drc,
    default_registry,
    load_waivers,
    run_drc,
)
from repro.errors import ConfigError, DrcError
from repro.netlist import Netlist
from repro.netlist.verilog import parse_verilog, write_verilog
from repro.soc import build_turbo_eagle


# ----------------------------------------------------------------------
# deliberately broken netlists, one per defect class
# ----------------------------------------------------------------------
def _base(name: str) -> Netlist:
    """a --inv--> y with one scan flop hanging off the input."""
    nl = Netlist(name)
    a = nl.add_net("a")
    y = nl.add_net("y")
    nl.add_primary_input(a)
    nl.add_primary_output(y)
    nl.add_gate("u_y", "INVX1", [a], y)
    return nl


def broken_loop() -> Netlist:
    nl = _base("has_loop")
    l1 = nl.add_net("l1")
    l2 = nl.add_net("l2")
    z = nl.add_net("z")
    nl.add_gate("u_loop1", "INVX1", [l2], l1)
    nl.add_gate("u_loop2", "INVX1", [l1], l2)
    nl.add_gate("u_z", "INVX1", [l1], z)
    nl.add_primary_output(z)
    return nl


def broken_float() -> Netlist:
    nl = _base("has_float")
    ghost = nl.add_net("ghost")
    z = nl.add_net("z")
    nl.add_gate("u_f", "INVX1", [ghost], z)
    nl.add_primary_output(z)
    return nl


def broken_contention() -> Netlist:
    nl = _base("has_contention")
    b = nl.add_net("b")
    nl.add_primary_input(b)
    z = nl.add_net("z")
    nl.add_gate("u_c1", "INVX1", [nl.net_id("a")], z)
    nl.add_gate("u_c2", "INVX1", [b], z)
    nl.add_primary_output(z)
    return nl


def broken_chain() -> Netlist:
    """Two scan flops claiming the same shift position on chain 0."""
    nl = _base("has_broken_chain")
    q0 = nl.add_net("q0")
    q1 = nl.add_net("q1")
    d01 = nl.add_net("d01")
    nl.add_gate("u_d", "INVX1", [q0], d01)
    f0 = nl.add_flop("f0", "SDFFX1", d=d01, q=q0,
                     clock_domain="clka", is_scan=True)
    f1 = nl.add_flop("f1", "SDFFX1", d=d01, q=q1,
                     clock_domain="clka", is_scan=True)
    nl.flops[f0].chain, nl.flops[f0].chain_pos = 0, 0
    nl.flops[f1].chain, nl.flops[f1].chain_pos = 0, 0
    nl.add_primary_output(q1)
    return nl


def broken_cdc() -> Netlist:
    """clka flop feeds a clkb flop combinationally."""
    nl = _base("has_cdc")
    q0 = nl.add_net("q0")
    q1 = nl.add_net("q1")
    d0 = nl.add_net("d0")
    d1 = nl.add_net("d1")
    nl.add_gate("u_d1", "INVX1", [q0], d1)
    nl.add_gate("u_d0", "INVX1", [q1], d0)
    f0 = nl.add_flop("f0", "SDFFX1", d=d0, q=q0,
                     clock_domain="clka", is_scan=True)
    f1 = nl.add_flop("f1", "SDFFX1", d=d1, q=q1,
                     clock_domain="clkb", is_scan=True)
    nl.flops[f0].chain, nl.flops[f0].chain_pos = 0, 0
    nl.flops[f1].chain, nl.flops[f1].chain_pos = 0, 1
    nl.add_primary_output(q1)
    return nl


def _run(nl: Netlist):
    return run_drc(DrcContext.for_netlist(nl))


# ----------------------------------------------------------------------
class TestStructuralRules:
    def test_clean_base_is_error_free(self):
        assert _run(_base("clean")).is_clean("error")

    def test_loop_detected_with_cycle_gates(self):
        report = _run(broken_loop())
        hits = report.by_rule("STR-LOOP")
        assert len(hits) == 1
        assert hits[0].severity == ERROR
        assert "combinational loop" in hits[0].message
        # the reported walk names the actual cycle, not just "a loop"
        assert {"u_loop1", "u_loop2"} <= set(hits[0].location["gates"])

    def test_floating_input_detected(self):
        report = _run(broken_float())
        hits = report.by_rule("STR-FLOAT")
        assert any("ghost" in v.message for v in hits)
        assert all(v.severity == ERROR for v in hits)

    def test_contention_detected_with_both_drivers(self):
        report = _run(broken_contention())
        hits = report.by_rule("STR-DRIVE")
        assert len(hits) == 1
        assert "u_c1" in hits[0].message and "u_c2" in hits[0].message

    def test_dangling_output_is_warn_only(self):
        nl = _base("has_dangle")
        z = nl.add_net("z")
        nl.add_gate("u_dangle", "INVX1", [nl.net_id("a")], z)
        report = _run(nl)
        assert report.is_clean("error")
        assert any(
            v.rule_id == "STR-DANGLE" and "u_dangle" in v.message
            for v in report.warnings()
        )

    def test_unknown_cell_detected(self):
        nl = _base("has_bad_cell")
        nl.gates[0].cell = "NAND99X7"  # mutate past the add_gate check
        report = _run(nl)
        assert "STR-CELL" in report.rule_ids_hit()


class TestScanRules:
    def test_duplicate_position_breaks_chain(self):
        report = _run(broken_chain())
        hits = report.by_rule("SCN-CHAIN")
        assert hits and all(v.severity == ERROR for v in hits)
        assert any("shift order is broken" in v.message for v in hits)

    def test_field_mismatch_chain_without_pos(self):
        nl = broken_cdc()
        nl.flops[0].chain_pos = None  # chain still set
        report = _run(nl)
        assert any(
            "inconsistent chain assignment" in v.message
            for v in report.by_rule("SCN-FIELD")
        )

    def test_field_mismatch_nonscan_on_chain(self):
        nl = broken_cdc()
        nl.flops[0].is_scan = False
        report = _run(nl)
        assert any(
            "not a scan cell" in v.message
            for v in report.by_rule("SCN-FIELD")
        )

    def test_orphan_scan_cell_is_warn(self):
        nl = broken_cdc()
        q2 = nl.add_net("q2")
        d2 = nl.add_net("d2")
        nl.add_gate("u_d2", "INVX1", [nl.net_id("q0")], d2)
        nl.add_flop("f_orphan", "SDFFX1", d=d2, q=q2,
                    clock_domain="clka", is_scan=True)
        nl.add_primary_output(q2)
        report = _run(nl)
        assert any(
            v.rule_id == "SCN-ORPHAN" and "f_orphan" in v.message
            for v in report.warnings()
        )

    def test_mixed_edges_in_chain(self):
        nl = broken_cdc()
        nl.flops[1].edge = "neg"
        report = _run(nl)
        assert "SCN-EDGE" in report.rule_ids_hit()

    def test_domain_crossing_chain_needs_lockup(self):
        report = _run(broken_cdc())
        hits = report.by_rule("SCN-LOCKUP")
        assert hits and all(v.severity == WARN for v in hits)
        assert "lockup" in hits[0].message

    def test_scan_rules_skipped_without_chain_metadata(self):
        report = _run(_base("no_scan"))
        assert "SCN-CHAIN" in report.rules_skipped
        # SCN-FIELD needs only flop metadata and must still run
        assert "SCN-FIELD" in report.rules_run


class TestClockingRules:
    def test_cdc_reported_per_domain_pair(self):
        report = _run(broken_cdc())
        hits = report.by_rule("CLK-CDC")
        pairs = {
            (v.location["from_domain"], v.location["to_domain"])
            for v in hits
        }
        assert ("clka", "clkb") in pairs and ("clkb", "clka") in pairs

    def test_cdc_still_fires_when_netlist_also_loops(self):
        nl = broken_cdc()
        l1 = nl.add_net("l1")
        l2 = nl.add_net("l2")
        nl.add_gate("u_loop1", "INVX1", [l2], l1)
        nl.add_gate("u_loop2", "INVX1", [l1], l2)
        report = _run(nl)
        assert "STR-LOOP" in report.rule_ids_hit()
        assert "CLK-CDC" in report.rule_ids_hit()

    def test_chain_spanning_domains_flagged(self):
        report = _run(broken_cdc())
        assert any(
            "spans clock domains" in v.message
            for v in report.by_rule("CLK-CHAIN")
        )

    def test_undeclared_domain_is_error(self):
        design = build_turbo_eagle("tiny", seed=3)
        design.netlist.flops[0].clock_domain = "clk_rogue"
        report = run_drc(DrcContext.for_design(design))
        assert any(
            v.severity == ERROR and "undeclared domain" in v.message
            for v in report.by_rule("CLK-CHAIN")
        )


class TestRegistryAndReport:
    def test_registry_covers_five_families(self):
        reg = default_registry()
        families = {r.family for r in reg.rules()}
        assert families == {
            "structural", "scan", "clocking", "power", "timing",
        }
        assert len(reg) >= 16

    def test_family_filter(self):
        report = run_drc(
            DrcContext.for_netlist(broken_cdc()), families=["structural"]
        )
        assert all(r.startswith("STR-") for r in report.rules_run)

    def test_report_json_roundtrip(self, tmp_path):
        report = _run(broken_loop())
        path = tmp_path / "drc.json"
        report.save(str(path))
        data = json.loads(path.read_text())
        assert data["counts"]["ERROR"] == len(report.errors())
        assert any(
            v["rule_id"] == "STR-LOOP" for v in data["violations"]
        )

    def test_severity_ordering(self):
        report = _run(broken_loop())
        sevs = [v.severity for v in report.violations]
        order = {ERROR: 0, WARN: 1, INFO: 2}
        assert sevs == sorted(sevs, key=order.__getitem__)


class TestWaivers:
    def test_waived_error_does_not_gate(self):
        waivers = WaiverSet.from_dict(
            {
                "waivers": [
                    {
                        "rule": "STR-LOOP",
                        "match": "u_loop1",
                        "reason": "known ring oscillator",
                    }
                ]
            }
        )
        report = run_drc(
            DrcContext.for_netlist(broken_loop()), waivers=waivers
        )
        loop = report.by_rule("STR-LOOP")[0]
        assert loop.waived
        assert not report.gating_violations("error")
        # the finding stays visible in the report
        assert loop in report.errors(include_waived=True)

    def test_wildcard_rule_patterns(self):
        waivers = WaiverSet.from_dict(
            {"waivers": [{"rule": "STR-*", "reason": "bring-up"}]}
        )
        report = run_drc(
            DrcContext.for_netlist(broken_contention()), waivers=waivers
        )
        assert not report.gating_violations("error")

    def test_load_waivers_file(self, tmp_path):
        path = tmp_path / "waivers.json"
        path.write_text(json.dumps(
            {"waivers": [{"rule": "STR-LOOP", "reason": "x"}]}
        ))
        ws = load_waivers(str(path))
        assert len(ws.waivers) == 1

    def test_malformed_waiver_file_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_waivers(str(path))


class TestCheckNetlistDrc:
    def test_check_netlist_returns_error_strings(self):
        errors = check_netlist_drc(broken_float()).errors()
        assert errors and any("floating" in v.message for v in errors)

    def test_check_netlist_clean(self):
        assert check_netlist_drc(_base("clean2")).errors() == []

    def test_check_netlist_drc_returns_report(self):
        report = check_netlist_drc(broken_contention())
        assert report.by_rule("STR-DRIVE")


class TestFlowGate:
    def test_generated_design_passes_gate(self):
        from repro.core.flow import run_drc_gate

        design = build_turbo_eagle("tiny", seed=3)
        report = run_drc_gate(design)
        assert report.is_clean("error")

    def test_corrupted_design_raises_drc_error(self):
        from repro.core.flow import run_drc_gate

        design = build_turbo_eagle("tiny", seed=3)
        design.netlist.flops[0].chain_pos = None  # break scan metadata
        with pytest.raises(DrcError) as excinfo:
            run_drc_gate(design)
        assert excinfo.value.report is not None
        assert "SCN-FIELD" in excinfo.value.report.rule_ids_hit()

    def test_waived_corruption_passes_gate(self):
        from repro.core.flow import run_drc_gate

        design = build_turbo_eagle("tiny", seed=3)
        design.netlist.flops[0].chain_pos = None
        waivers = WaiverSet.from_dict(
            {"waivers": [{"rule": "SCN-FIELD", "reason": "bring-up"}]}
        )
        report = run_drc_gate(design, waivers=waivers)
        assert report.by_rule("SCN-FIELD")[0].waived

    def test_flow_records_drc_in_run_report(self):
        from repro.core.flow import run_noise_tolerant_flow

        design = build_turbo_eagle("tiny", seed=3)
        result, report = run_noise_tolerant_flow(design, max_patterns=2)
        assert result is not None
        assert report.drc is not None and report.drc["clean"]

    def test_flow_fails_fast_on_corrupt_design(self, tmp_path):
        from repro.core.flow import run_noise_tolerant_flow
        from repro.reporting import RUN_FAILED

        design = build_turbo_eagle("tiny", seed=3)
        design.netlist.flops[0].chain_pos = None
        report_path = tmp_path / "run.json"
        with pytest.raises(DrcError):
            run_noise_tolerant_flow(
                design, max_patterns=2, report_path=str(report_path)
            )
        data = json.loads(report_path.read_text())
        assert data["status"] == RUN_FAILED
        assert not data["drc"]["clean"]


# ----------------------------------------------------------------------
# property: generated designs are DRC-clean at ERROR severity, for any
# generation seed (the gate should only ever trip on *modified* designs)
# ----------------------------------------------------------------------
class TestGeneratedDesignsClean:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_tiny_design_error_clean_for_any_seed(self, seed):
        design = build_turbo_eagle("tiny", seed=seed)
        report = run_drc(DrcContext.for_design(design))
        assert report.is_clean("error"), report.format_text()

    def test_regenerated_design_stays_clean(self):
        # regeneration with the same seed is deterministic and clean
        for _ in range(2):
            design = build_turbo_eagle("tiny", seed=2007)
            assert run_drc(DrcContext.for_design(design)).is_clean("error")


# ----------------------------------------------------------------------
# Verilog round-trip of scan-chain metadata (chain=c:p pragma)
# ----------------------------------------------------------------------
class TestVerilogChainPragma:
    def test_chain_metadata_roundtrips(self):
        design = build_turbo_eagle("tiny", seed=3)
        buf = io.StringIO()
        write_verilog(design.netlist, buf)
        text = buf.getvalue()
        assert "chain=" in text
        parsed = parse_verilog(io.StringIO(text))
        orig = [(f.name, f.chain, f.chain_pos)
                for f in design.netlist.flops]
        back = [(f.name, f.chain, f.chain_pos) for f in parsed.flops]
        assert back == orig

    def test_parsed_netlist_runs_scan_rules(self):
        design = build_turbo_eagle("tiny", seed=3)
        buf = io.StringIO()
        write_verilog(design.netlist, buf)
        report = _run(parse_verilog(io.StringIO(buf.getvalue())))
        assert "SCN-CHAIN" in report.rules_run
        assert report.is_clean("error")


# ----------------------------------------------------------------------
# timing rule family (TIM-*)
# ----------------------------------------------------------------------
def uncon_endpoint() -> Netlist:
    """A scan flop whose D cone is fed only by a primary input."""
    nl = _base("has_uncon")
    q0 = nl.add_net("q0")
    d0 = nl.add_net("d0")
    nl.add_gate("u_d0", "INVX1", [0], d0)  # net 0 is PI "a"
    f0 = nl.add_flop("f0", "SDFFX1", d=d0, q=q0,
                     clock_domain="clka", is_scan=True)
    nl.flops[f0].chain, nl.flops[f0].chain_pos = 0, 0
    nl.add_primary_output(q0)
    return nl


def launched_endpoint() -> Netlist:
    """Two scan flops, the second launched by the first."""
    nl = _base("has_launch")
    q0 = nl.add_net("q0")
    q1 = nl.add_net("q1")
    d0 = nl.add_net("d0")
    d1 = nl.add_net("d1")
    nl.add_gate("u_d0", "INVX1", [0], d0)
    nl.add_gate("u_d1", "INVX1", [q0], d1)
    f0 = nl.add_flop("f0", "SDFFX1", d=d0, q=q0,
                     clock_domain="clka", is_scan=True)
    f1 = nl.add_flop("f1", "SDFFX1", d=d1, q=q1,
                     clock_domain="clka", is_scan=True)
    nl.flops[f0].chain, nl.flops[f0].chain_pos = 0, 0
    nl.flops[f1].chain, nl.flops[f1].chain_pos = 0, 1
    nl.add_primary_output(q1)
    return nl


def _fast_domain(design, name: str, freq_mhz: float):
    """Swap one clock domain for an impossibly fast copy."""
    from repro.soc.clocks import ClockDomainSpec

    old = design.domains[name]
    design.domains[name] = ClockDomainSpec(
        name=name, freq_mhz=freq_mhz, blocks=old.blocks
    )
    return design


class TestTimingRules:
    def test_clean_design_reports_closure(self):
        design = build_turbo_eagle("tiny", seed=3)
        report = run_drc(
            DrcContext.for_design(design), families=["timing"]
        )
        assert set(report.rules_run) == {
            "TIM-SLACK", "TIM-MARGIN", "TIM-UNCON",
        }
        assert report.rules_skipped["TIM-DROOP"] == "no power-grid model"
        closures = report.by_rule("TIM-SLACK")
        assert closures and all(v.severity == INFO for v in closures)
        assert all("timing closed" in v.message for v in closures)

    def test_droop_rule_needs_grid(self):
        from repro.pgrid import GridModel

        design = build_turbo_eagle("tiny", seed=3)
        model = GridModel.calibrated(design, nx=12, ny=12)
        ctx = DrcContext.for_design(design, grid=model)
        report = run_drc(ctx, families=["timing"])
        assert "TIM-DROOP" in report.rules_run
        droop = report.by_rule("TIM-DROOP")
        assert droop, "TIM-DROOP reported nothing"
        # every domain gets exactly one summary finding
        assert len(droop) == len(
            {v.location["domain"] for v in droop}
        )

    def test_slack_errors_on_impossible_period(self):
        design = _fast_domain(
            build_turbo_eagle("tiny", seed=3), "clka", 5000.0
        )
        report = run_drc(
            DrcContext.for_design(design), families=["timing"]
        )
        errors = [
            v for v in report.by_rule("TIM-SLACK")
            if v.severity == ERROR
        ]
        assert errors
        assert all(v.location["slack_ns"] < 0 for v in errors)
        assert report.gating_violations("error")

    def test_slack_errors_waivable(self):
        design = _fast_domain(
            build_turbo_eagle("tiny", seed=3), "clka", 5000.0
        )
        waivers = WaiverSet.from_dict(
            {"waivers": [{"rule": "TIM-SLACK", "reason": "bring-up"}]}
        )
        report = run_drc(
            DrcContext.for_design(design), families=["timing"],
            waivers=waivers,
        )
        assert not report.gating_violations("error")

    def test_margin_guard_band(self):
        design = build_turbo_eagle("tiny", seed=3)
        # Huge guard band: every closing endpoint is inside it.
        wide = run_drc(
            DrcContext.for_design(design, timing_guard_band_ns=1e6),
            families=["timing"],
        )
        assert wide.by_rule("TIM-MARGIN")
        # Zero guard band: nothing can sit inside it.
        none = run_drc(
            DrcContext.for_design(design, timing_guard_band_ns=0.0),
            families=["timing"],
        )
        assert not none.by_rule("TIM-MARGIN")

    def test_uncon_flags_pi_only_cone(self):
        report = run_drc(
            DrcContext.for_netlist(uncon_endpoint()),
            families=["timing"],
        )
        uncon = report.by_rule("TIM-UNCON")
        assert len(uncon) == 1
        assert uncon[0].location["flop_name"] == "f0"
        # ... and a launched endpoint is not flagged
        report2 = run_drc(
            DrcContext.for_netlist(launched_endpoint()),
            families=["timing"],
        )
        flagged = {
            v.location["flop_name"]
            for v in report2.by_rule("TIM-UNCON")
        }
        assert "f1" not in flagged

    def test_bare_netlist_skips_design_rules(self):
        report = run_drc(
            DrcContext.for_netlist(uncon_endpoint()),
            families=["timing"],
        )
        assert report.rules_run == ["TIM-UNCON"]
        for rule_id in ("TIM-SLACK", "TIM-MARGIN", "TIM-DROOP"):
            assert rule_id in report.rules_skipped

    def test_timing_findings_json_roundtrip(self, tmp_path):
        design = _fast_domain(
            build_turbo_eagle("tiny", seed=3), "clka", 5000.0
        )
        report = run_drc(
            DrcContext.for_design(design), families=["timing"]
        )
        path = tmp_path / "tim.json"
        report.save(str(path))
        data = json.loads(path.read_text())
        assert any(
            v["rule_id"] == "TIM-SLACK" and v["severity"] == ERROR
            for v in data["violations"]
        )

    def test_flow_gate_ignores_timing_family(self):
        # The pre-flow gate runs structural/scan/clocking only: a
        # timing-broken (but structurally clean) design still flows.
        from repro.core.flow import run_drc_gate

        design = _fast_domain(
            build_turbo_eagle("tiny", seed=3), "clka", 5000.0
        )
        report = run_drc_gate(design)
        assert report.is_clean("error")
        assert "TIM-SLACK" not in report.rules_run
