"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main


class TestCli:
    def test_floorplan(self, capsys):
        assert main(["floorplan", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "5" in out and "+" in out

    def test_table1(self, capsys):
        assert main(["table", "1", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "clock_domains" in out
        assert "transition_delay_faults" in out

    def test_table2(self, capsys):
        assert main(["table", "2", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "clka" in out

    def test_atpg_writes_stil(self, tmp_path, capsys):
        out_file = tmp_path / "pats.stil"
        assert main([
            "atpg", "--scale", "tiny", "--fill", "0",
            "--output", str(out_file),
        ]) == 0
        text = out_file.read_text()
        assert text.startswith("STIL 1.0;")
        assert "Pattern 0 {" in text
        printed = capsys.readouterr().out
        assert "patterns" in printed

    def test_atpg_los_protocol(self, capsys):
        assert main(["atpg", "--scale", "tiny", "--protocol", "los"]) == 0
        assert "coverage" in capsys.readouterr().out

    def test_scap_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "pats.stil"
        main(["atpg", "--scale", "tiny", "--fill", "0",
              "--output", str(out_file)])
        capsys.readouterr()
        code = main(["scap", str(out_file), "--scale", "tiny"])
        out = capsys.readouterr().out
        assert "patterns exceed" in out
        assert code in (0, 1)  # 1 when violations exist

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "no pattern file"),
            ("", "not a STIL pattern file"),
            ("STIL 1.0;\nPattern 0 {\n  Load 01;\n}\n", "missing Load/Mask"),
            ("STIL 1.0;\nPattern 0 {\n  Load 0z;\n  Mask 11;\n}\n",
             "unreadable pattern file"),
        ],
        ids=["missing", "empty", "truncated", "corrupt"],
    )
    def test_scap_bad_pattern_file_is_one_line_error(
        self, tmp_path, capsys, monkeypatch, content, message
    ):
        from repro import cli

        def no_study(args):  # the file must be rejected before the build
            raise AssertionError("case study built for a bad pattern file")

        monkeypatch.setattr(cli, "_study", no_study)
        path = tmp_path / "pats.stil"
        if content is not None:
            path.write_text(content)
        assert main(["scap", str(path), "--scale", "tiny"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and message in lines[0]

    @pytest.mark.parametrize(
        "argv, files, message",
        [
            (["drc", "--netlist", "n.v"], {}, "no netlist file"),
            (["drc", "--netlist", "n.v"], {"n.v": ""},
             "no module declaration"),
            (["drc", "--netlist", "n.v"], {"n.v": "module x(;\n"},
             "not closed by endmodule"),
            (["drc", "--netlist", "n.v"],
             {"n.v": "module m (a);\n  assign b = a;\nendmodule\n"},
             "unsupported construct"),
            (["drc", "--waivers", "w.json"], {}, "cannot read waiver file"),
            (["drc", "--waivers", "w.json"], {"w.json": ""},
             "cannot read waiver file"),
            (["drc", "--waivers", "w.json"], {"w.json": "3"},
             "must be a list"),
            (["drc", "--waivers", "w.json"], {"w.json": "[{\"match\": 1}]"},
             "'rule' key"),
            (["obs", "summary", "t.jsonl"], {}, "no trace file"),
            (["obs", "summary", "t.jsonl"], {"t.jsonl": "{oops\n"},
             "not valid JSON"),
            (["obs", "check", "t.jsonl"], {}, "no trace file"),
            (["obs", "check", "t.jsonl"], {"t.jsonl": "[1, 2]\n"},
             "not a span event"),
            (["obs", "chrome", "t.jsonl"], {}, "no trace file"),
            (["obs", "chrome", "t.jsonl"], {"t.jsonl": "{oops\n"},
             "not valid JSON"),
            (["jobs", "store"], {}, "no job store"),
            (["jobs", "."], {}, "no job store"),
            (["jobs", "store", "--cancel", "job-1"], {}, "no job store"),
            (["jobs", "store"], {"store/jobs/.keep": "",
                                 "store/workers/.keep": "",
                                 "store/config.json": "{oops"},
             "unreadable job store"),
            (["jobs", "store"], {"store/jobs/.keep": "",
                                 "store/workers/.keep": "",
                                 "store/config.json": "[1]"},
             "not a JSON object"),
            (["submit", "st"], {"st/config.json": "{not json"},
             "unreadable job store"),
            (["submit", "st"], {"st/config.json": "[1]"},
             "not a JSON object"),
            (["submit", "st"], {"st": ""}, "not a directory"),
            (["serve", "st", "--drain"], {"st/config.json": "[1]"},
             "not a JSON object"),
            (["obs", "report", "r.json"], {"r.json": "[1]"},
             "not a JSON object"),
            (["obs", "report", "r.json"], {"r.json": '{"stages": "x"}'},
             "not a list of objects"),
            (["obs", "summary", "t.jsonl"], {"t.jsonl": '{"name": "x"}\n'},
             "not a span event"),
            (["obs", "check", "t.jsonl"], {"t.jsonl": '{"name": "x"}\n'},
             "not a span event"),
            (["obs", "chrome", "t.jsonl"], {"t.jsonl": '{"name": "x"}\n'},
             "not a span event"),
            (["obs", "report", "r.json"],
             {"r.json": '{"stages": [], "failures": [1]}'},
             "'failures' is not a list of objects"),
            (["obs", "report", "r.json"],
             {"r.json": '{"stages": [], "failures": "ab"}'},
             "'failures' is not a list of objects"),
            (["obs", "report", "r.json"], {"r.json": '{"telemetry": [1]}'},
             "'telemetry' is not an object"),
            (["obs", "report", "r.json"],
             {"r.json": '{"telemetry": {"metrics": [1]}}'},
             "'telemetry' is not an object"),
            (["obs", "report", "r.json"],
             {"r.json": '{"telemetry": {"metrics": {"a": 1}}}'},
             "'telemetry' is not an object"),
            (["obs", "report", "r.json"],
             {"r.json": '{"stages": [{"detail": {"elapsed_s": "abc"}}]}'},
             "numeric 'elapsed_s'"),
            (["serve", "st", "--http", "127.0.0.1:0", "--drain"],
             {"st": ""}, "not a directory"),
            (["serve", "st", "--http", "127.0.0.1:0", "--drain"],
             {"st/tenants": ""}, "not a directory"),
            (["serve", "st", "--http", "127.0.0.1:0", "--drain"],
             {"st/tenants/bad/config.json": "{not json"},
             "unreadable job store"),
        ],
        ids=[
            "drc-netlist-missing", "drc-netlist-empty",
            "drc-netlist-truncated", "drc-netlist-corrupt",
            "drc-waivers-missing", "drc-waivers-empty",
            "drc-waivers-not-a-list", "drc-waivers-corrupt",
            "obs-summary-missing", "obs-summary-corrupt",
            "obs-check-missing", "obs-check-corrupt",
            "obs-chrome-missing", "obs-chrome-corrupt",
            "jobs-missing", "jobs-not-a-store", "jobs-cancel-missing",
            "jobs-corrupt-config", "jobs-config-not-object",
            "submit-corrupt-config", "submit-config-not-object",
            "submit-store-is-file", "serve-config-not-object",
            "obs-report-not-object", "obs-report-stages-not-list",
            "obs-summary-no-timestamp", "obs-check-no-timestamp",
            "obs-chrome-no-timestamp",
            "obs-report-failures-not-objects",
            "obs-report-failures-not-list",
            "obs-report-telemetry-not-object",
            "obs-report-metrics-not-object", "obs-report-metric-not-object",
            "obs-report-elapsed-not-number", "serve-http-root-is-file",
            "serve-http-tenants-is-file", "serve-http-corrupt-tenant",
        ],
    )
    def test_bad_input_file_is_one_line_error(
        self, tmp_path, capsys, monkeypatch, argv, files, message
    ):
        """Missing, empty and corrupt inputs: one ``error:`` line on
        stderr and exit 2, before any design is built, and a listing
        creates nothing."""
        from repro import cli

        def no_study(args):
            raise AssertionError("case study built for a bad input file")

        monkeypatch.setattr(cli, "_study", no_study)
        monkeypatch.chdir(tmp_path)
        for name, content in files.items():
            path = tmp_path / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)
        before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("error: ") and message in lines[0]
        after = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
        assert after == before

    def test_serve_http_port_in_use_is_one_line_error(self, tmp_path, capsys):
        import socket

        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            port = busy.getsockname()[1]
            argv = ["serve", str(tmp_path / "data"), "--http",
                    f"127.0.0.1:{port}", "--drain"]
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("error: ") and "in use" in lines[0]

    @pytest.mark.parametrize("command", ["flow", "casestudy", "export"])
    @pytest.mark.parametrize(
        "files, message",
        [
            ({"ck/manifest.json": "garbage"}, "unreadable checkpoint manifest"),
            ({"ck/manifest.json": "[1, 2]"}, "not a JSON object"),
            ({"ck": ""}, "cannot create checkpoint directory"),
        ],
        ids=["corrupt-manifest", "manifest-not-object", "path-is-file"],
    )
    def test_bad_checkpoint_dir_is_one_line_error(
        self, tmp_path, capsys, monkeypatch, command, files, message
    ):
        """These commands build the design before they open the store
        (its fingerprint covers the design), so they are kept apart
        from the build-free cases above."""
        monkeypatch.chdir(tmp_path)
        for name, content in files.items():
            path = tmp_path / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)
        before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
        assert main([command, "--scale", "tiny", "--checkpoint", "ck"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("error: ") and message in lines[0]
        after = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
        assert after == before

    @pytest.mark.parametrize("index", ["3", "100000"])
    def test_irmap_pattern_out_of_range_names_the_count(
        self, capsys, monkeypatch, index
    ):
        from types import SimpleNamespace

        from repro import cli

        flow = SimpleNamespace(pattern_set=[object()] * 3)
        study = SimpleNamespace(conventional=lambda: flow)
        monkeypatch.setattr(cli, "_study", lambda args: study)
        assert main(["irmap", "--pattern", index]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0] == (
            f"error: no pattern #{index}: the conventional flow has 3 "
            f"patterns"
        )

    def test_irmap_negative_pattern_is_usage_error(self, capsys, monkeypatch):
        from repro import cli

        def no_study(args):
            raise AssertionError("case study built for a bad index")

        monkeypatch.setattr(cli, "_study", no_study)
        with pytest.raises(SystemExit) as exc:
            main(["irmap", "--pattern", "-1"])
        assert exc.value.code == 2
        assert "non-negative integer" in capsys.readouterr().err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["transmogrify"])

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["floorplan", "--scale", "huge"])

    @pytest.mark.parametrize("value", ["foo", "0"])
    @pytest.mark.parametrize("command", ["casestudy", "flow", "atpg"])
    def test_bad_workers_is_usage_error(self, capsys, command, value):
        with pytest.raises(SystemExit) as info:
            main([command, "--workers", value])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1].endswith(
            f"argument --workers: expected a positive integer or "
            f"'auto', got {value!r}"
        )

    def test_flow_and_atpg_pass_workers_on(self, monkeypatch):
        import repro.atpg
        import repro.core

        seen = {}

        class Stop(Exception):
            pass

        def fake_flow(design, **kwargs):
            seen["flow"] = kwargs["n_workers"]
            raise Stop

        def fake_engine(*args, **kwargs):
            seen["atpg"] = kwargs["n_workers"]
            raise Stop

        monkeypatch.setattr(repro.core, "run_noise_tolerant_flow", fake_flow)
        monkeypatch.setattr(repro.atpg, "AtpgEngine", fake_engine)
        with pytest.raises(Stop):
            main(["flow", "--scale", "tiny", "--workers", "auto"])
        with pytest.raises(Stop):
            main(["atpg", "--scale", "tiny", "--workers", "3"])
        assert seen == {"flow": "auto", "atpg": 3}


class TestScheduleCli:
    def test_synthetic_schedule_writes_json(self, tmp_path, capsys):
        out_file = tmp_path / "sched.json"
        assert main([
            "schedule", "--synthetic", "8", "--power-budget", "15",
            "--json", str(out_file),
        ]) == 0
        assert "8 blocks" in capsys.readouterr().out
        rows = json.loads(out_file.read_text())["rows"]
        assert [r["strategy"] for r in rows] == ["greedy", "binpack"]
        for row in rows:
            assert row["budget_mw"] == 15.0
            assert row["peak_power_mw"] <= 15.0
            assert row["speedup"] >= 1.0
        assert rows[1]["makespan_us"] <= rows[0]["makespan_us"]

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--synthetic", "0"),
            ("--synthetic", "-3"),
            ("--patterns", "0"),
            ("--tam-width", "0"),
        ],
    )
    def test_bad_count_is_usage_error(self, capsys, option, value):
        with pytest.raises(SystemExit) as info:
            main(["schedule", option, value])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"repro schedule: error: argument {option}: expected a "
            f"positive integer, got {value!r}"
        ]


class TestFlowCli:
    def test_flow_stop_resume_and_report(self, tmp_path, capsys):
        import json

        ck = str(tmp_path / "ck")
        report1 = tmp_path / "partial.json"
        assert main([
            "flow", "--scale", "tiny", "--stop-after", "1",
            "--checkpoint", ck, "--report", str(report1),
        ]) == 0
        out = capsys.readouterr().out
        assert "flow status: partial" in out
        data = json.loads(report1.read_text())
        assert data["status"] == "partial"
        assert data["completed_stages"] and data["pending_stages"]

        report2 = tmp_path / "full.json"
        assert main([
            "flow", "--scale", "tiny",
            "--checkpoint", ck, "--report", str(report2),
        ]) == 0
        out = capsys.readouterr().out
        assert "flow status: completed" in out
        assert "(from checkpoint)" in out
        data = json.loads(report2.read_text())
        assert data["status"] == "completed"
        assert data["resumed_stages"]  # stage 0 came from the checkpoint
        assert not data["pending_stages"]

    def test_flow_no_resume_recomputes(self, tmp_path, capsys):
        ck = str(tmp_path / "ck")
        assert main(["flow", "--scale", "tiny", "--checkpoint", ck]) == 0
        capsys.readouterr()
        assert main([
            "flow", "--scale", "tiny", "--checkpoint", ck, "--no-resume",
        ]) == 0
        out = capsys.readouterr().out
        assert "(from checkpoint)" not in out

    @pytest.mark.parametrize(
        "argv, option, value, kind",
        [
            (["flow", "--timing-prescreen"], "--timing-max-patterns", "0",
             "positive"),
            (["flow", "--timing-prescreen"], "--timing-max-patterns", "-3",
             "positive"),
            (["flow"], "--max-patterns", "-5", "positive"),
            (["flow"], "--max-patterns", "0", "positive"),
            (["flow"], "--stop-after", "-1", "non-negative"),
            (["submit", "store"], "--max-patterns", "0", "positive"),
        ],
    )
    def test_bad_count_fails_before_any_work(
        self, monkeypatch, tmp_path, capsys, argv, option, value, kind
    ):
        import repro.core

        def no_flow(*args, **kwargs):
            raise AssertionError("the flow ran on an invalid count")

        monkeypatch.setattr(repro.core, "run_noise_tolerant_flow", no_flow)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            main([*argv, "--scale", "tiny", option, value])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"repro {argv[0]}: error: argument {option}: expected a "
            f"{kind} integer, got {value!r}"
        ]
        assert not (tmp_path / "store").exists()

    def test_stop_after_zero_is_accepted(self, tmp_path, capsys):
        report = tmp_path / "partial.json"
        assert main([
            "flow", "--scale", "tiny", "--stop-after", "0",
            "--report", str(report),
        ]) == 0
        data = json.loads(report.read_text())
        assert data["status"] == "partial"
        assert not data["completed_stages"] and data["pending_stages"]


CORRUPT_VERILOG = """\
module corrupt (
    a,
    clk_clka,
    clk_clkb,
    y
);
  input a;
  input clk_clka;
  input clk_clkb;
  output y;
  wire l1;
  wire l2;
  wire d0;
  wire q0;
  wire d1;
  wire q1;
  wire cont;
  INVX1 u_loop1 (.A(l2), .Y(l1));
  INVX1 u_loop2 (.A(l1), .Y(l2));
  AND2X1 u_cont1 (.A(a), .B(q0), .Y(cont));
  AND2X1 u_cont2 (.A(a), .B(q1), .Y(cont));
  INVX1 u_d0 (.A(q1), .Y(d0));
  INVX1 u_d1 (.A(q0), .Y(d1));
  INVX1 u_y (.A(cont), .Y(y));
  SDFFX1 f0 (.D(d0), .Q(q0), .CK(clk_clka));  // pragma edge=pos scan=1 chain=0:0
  SDFFX1 f1 (.D(d1), .Q(q1), .CK(clk_clkb));  // pragma edge=pos scan=1 chain=0:0
endmodule
"""


class TestDrcCli:
    def test_generated_design_is_clean(self, capsys):
        assert main(["drc", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_corrupted_netlist_reports_all_injected_defects(
        self, tmp_path, capsys
    ):
        """The acceptance scenario: a netlist with an injected loop,
        broken chain, clock-domain crossing and bus contention must
        report each with its rule id, and exit non-zero."""
        path = tmp_path / "corrupt.v"
        path.write_text(CORRUPT_VERILOG)
        json_path = tmp_path / "report.json"
        code = main([
            "drc", "--netlist", str(path), "--json", str(json_path),
        ])
        assert code == 2
        out = capsys.readouterr().out
        for rule_id in ("STR-LOOP", "SCN-CHAIN", "CLK-CDC", "STR-DRIVE"):
            assert rule_id in out, f"{rule_id} missing from report"
        data = json.loads(json_path.read_text())
        hit = {v["rule_id"] for v in data["violations"]}
        assert {"STR-LOOP", "SCN-CHAIN", "CLK-CDC", "STR-DRIVE"} <= hit

    def test_waivers_excuse_errors(self, tmp_path, capsys):
        path = tmp_path / "corrupt.v"
        path.write_text(CORRUPT_VERILOG)
        waivers = tmp_path / "waivers.json"
        waivers.write_text(json.dumps({"waivers": [
            {"rule": "STR-*", "reason": "bring-up"},
            {"rule": "SCN-*", "reason": "bring-up"},
        ]}))
        code = main([
            "drc", "--netlist", str(path), "--waivers", str(waivers),
        ])
        assert code == 0
        assert "(waived)" in capsys.readouterr().out

    def test_fail_on_warn_trips_on_clean_design(self, capsys):
        # the generated tiny SOC is ERROR-clean but carries WARN
        # findings (CDC, lockup advisories): --fail-on warn must trip
        assert main(["drc", "--scale", "tiny", "--fail-on", "warn"]) == 2
        assert "FAIL" in capsys.readouterr().err


class TestVersionAndLogging:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        from repro.cli import package_version

        assert out.strip() == f"repro {package_version()}"
        assert package_version()  # non-empty whichever source it came from

    def test_module_and_script_share_main(self):
        from repro import cli
        from repro import __main__ as module_entry

        assert module_entry.main is cli.main

    def test_every_subcommand_takes_log_level(self, capsys):
        assert main([
            "floorplan", "--scale", "tiny", "--log-level", "debug",
        ]) == 0
        capsys.readouterr()
        assert main([
            "table", "1", "--scale", "tiny", "--log-level", "error",
        ]) == 0
        capsys.readouterr()

    def test_bad_log_level_rejected(self):
        with pytest.raises(SystemExit):
            main(["floorplan", "--log-level", "loud"])

    def test_flow_log_level_emits_run_id_lines(self, tmp_path, capsys):
        import io
        import re

        from repro.obs import setup_logging

        stream = io.StringIO()
        setup_logging("info", stream=stream)  # redirect the shared handler
        assert main([
            "flow", "--scale", "tiny", "--max-patterns", "8",
            "--log-level", "info",
            "--trace", str(tmp_path / "t.jsonl"),  # enables real telemetry
        ]) == 0
        logged = stream.getvalue()
        assert "flow start" in logged and "flow completed" in logged
        # with telemetry enabled the lines carry the run's id, not "-"
        assert re.search(r"run=[0-9a-f]+-\d+ flow start", logged)


class TestObsCli:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        """One telemetry-instrumented flow run shared by every test."""
        tmp = tmp_path_factory.mktemp("obs_cli")
        paths = {
            "trace": str(tmp / "trace.jsonl"),
            "chrome": str(tmp / "trace.chrome.json"),
            "metrics": str(tmp / "metrics.prom"),
            "metrics_json": str(tmp / "metrics.json"),
            "report": str(tmp / "report.json"),
            "tmp": tmp,
        }
        code = main([
            "flow", "--scale", "tiny", "--max-patterns", "10",
            "--trace", paths["trace"],
            "--chrome", paths["chrome"],
            "--metrics", paths["metrics"],
            "--metrics-json", paths["metrics_json"],
            "--report", paths["report"],
            "--profile",
        ])
        assert code == 0
        return paths

    def test_flow_writes_all_artifacts(self, artifacts, capsys):
        import os

        for key in ("trace", "chrome", "metrics", "metrics_json", "report"):
            assert os.path.exists(artifacts[key]), key

    def test_trace_is_well_nested_jsonl(self, artifacts):
        from repro.obs import load_trace_jsonl, nesting_errors

        events = load_trace_jsonl(artifacts["trace"])
        assert events
        assert {"flow.run", "atpg.stage"} <= {e["name"] for e in events}
        assert not nesting_errors(events)

    def test_prometheus_exposition_format(self, artifacts):
        text = open(artifacts["metrics"]).read()
        assert "# TYPE repro_atpg_patterns_generated_total counter" in text
        metrics = json.loads(open(artifacts["metrics_json"]).read())
        assert "atpg.patterns_generated" in metrics

    def test_report_embeds_telemetry_digest(self, artifacts):
        data = json.loads(open(artifacts["report"]).read())
        assert data["telemetry"]["metrics"]
        assert data["telemetry"]["hotspots"]  # --profile was on

    def test_flow_report_prints_stage_wall_times(self, artifacts, capsys):
        assert main(["flow", "--scale", "tiny", "--max-patterns", "10",
                     "--report", str(artifacts["tmp"] / "r2.json")]) == 0
        out = capsys.readouterr().out
        assert "stage wall times:" in out
        assert "elapsed_s" in out

    def test_obs_summary(self, artifacts, capsys):
        assert main(["obs", "summary", artifacts["trace"]]) == 0
        out = capsys.readouterr().out
        assert "flow.run" in out and "count" in out

    def test_obs_check_clean(self, artifacts, capsys):
        assert main(["obs", "check", artifacts["trace"]]) == 0
        assert "well-nested" in capsys.readouterr().out

    def test_obs_check_flags_orphans(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({
            "name": "x", "span_id": "s1", "parent_id": "gone",
            "ts_s": 1.0, "dur_s": 0.5, "pid": 1, "attrs": {},
        }) + "\n")
        assert main(["obs", "check", str(bad)]) == 2
        assert "missing parent" in capsys.readouterr().err

    def test_obs_chrome_conversion(self, artifacts, capsys):
        out_path = str(artifacts["tmp"] / "converted.chrome.json")
        assert main([
            "obs", "chrome", artifacts["trace"], "-o", out_path,
        ]) == 0
        doc = json.loads(open(out_path).read())
        assert doc["traceEvents"]
        assert all(e["ph"] == "X" for e in doc["traceEvents"])

    def test_obs_report_digest(self, artifacts, capsys):
        assert main(["obs", "report", artifacts["report"]]) == 0
        out = capsys.readouterr().out
        assert "run id:" in out
        assert "atpg.patterns_generated" in out
