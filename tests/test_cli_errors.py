"""The CLI's one error boundary: ``repro.cli.main`` turns a library or
file error into one ``error:`` line on stderr and exit 2, and checks
output paths, ``--http`` and ``--derate`` before any design is built."""

from __future__ import annotations

import io
import os
import subprocess
import sys

import pytest

from repro.__main__ import main
from repro.errors import DrcError


@pytest.fixture(scope="module")
def tiny_stil(tmp_path_factory):
    """A pattern file written for the tiny SOC."""
    path = tmp_path_factory.mktemp("cli_errors") / "tiny.stil"
    assert main(["atpg", "--scale", "tiny", "--output", str(path)]) == 0
    return str(path)


def _one_error_line(capsys, argv):
    """Run *argv*; return its exit code and its one ``error:`` line."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejected a value
        code = exc.code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1, err
    return code, errors[0]


# Values a command cannot use: each fails before any design is built,
# most while the arguments are parsed.
BAD_VALUE_CASES = [
    (["atpg", "--scale", "tiny", "--output", "/missing/p.stil"],
     "argument --output: directory does not exist: '/missing'"),
    (["drc", "--scale", "tiny", "--json", "/missing/x.json"],
     "argument --json: directory does not exist"),
    (["sta", "--scale", "tiny", "--json", "/missing/x.json"],
     "argument --json: directory does not exist"),
    (["schedule", "--synthetic", "3", "--json", "/missing/x.json"],
     "argument --json: directory does not exist"),
    (["flow", "--scale", "tiny", "--trace", "/missing/t.jsonl"],
     "argument --trace: directory does not exist: '/missing'"),
    (["flow", "--scale", "tiny", "--metrics-json", "/missing/m.json"],
     "argument --metrics-json: directory does not exist"),
    (["flow", "--scale", "tiny", "--chrome", "/missing/c.json"],
     "argument --chrome: directory does not exist"),
    (["flow", "--scale", "tiny", "--metrics", "/missing/m.prom"],
     "argument --metrics: directory does not exist"),
    (["flow", "--scale", "tiny", "--report", "/missing/r.json"],
     "argument --report: directory does not exist"),
    (["obs", "chrome", "t.jsonl", "-o", "/missing/c.json"],
     "argument -o/--output: directory does not exist"),
    (["export", "--scale", "tiny", "--out", "/dev/null/x"],
     "argument --out: not a directory: '/dev/null'"),
    (["serve", "st", "--http", "notaport"],
     "argument --http: expected HOST:PORT, got 'notaport'"),
    (["serve", "st", "--http", "127.0.0.1:70000"],
     "argument --http: expected HOST:PORT"),
    (["sta", "--scale", "tiny", "--derate", "0.5"],
     "argument --derate: expected a factor >= 1.0"),
    (["jobs", "DATA", "--tenant", "ghost"],
     "error: no such tenant 'ghost' under DATA/tenants"),
]


class TestErrorBoundary:
    @pytest.mark.parametrize(
        "argv, message", BAD_VALUE_CASES,
        ids=[" ".join(argv[:1] + argv[-2:-1]) for argv, _ in BAD_VALUE_CASES],
    )
    def test_bad_value_fails_before_any_build(
        self, tmp_path, capsys, monkeypatch, argv, message
    ):
        import repro.soc
        from repro import cli

        def no_build(*args, **kwargs):
            raise AssertionError("a design was built for a bad value")

        monkeypatch.setattr(cli, "_study", no_build)
        monkeypatch.setattr(repro.soc, "build_turbo_eagle", no_build)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.jsonl").write_text(
            '{"name": "x", "span_id": "s1", "parent_id": null, '
            '"ts_s": 1.0, "dur_s": 0.5, "pid": 1, "attrs": {}}\n'
        )
        code, line = _one_error_line(capsys, argv)
        assert code == 2
        assert message in line
        assert sorted(os.listdir(tmp_path)) == ["t.jsonl"]

    def test_pattern_file_of_another_design(self, tiny_stil, capsys):
        """A library error raised after the design is built is one
        line too, not a traceback."""
        code, line = _one_error_line(
            capsys, ["scap", tiny_stil, "--scale", "small"]
        )
        assert code == 2
        assert line == "error: pattern 0 covers 62 flops, design has 256"

    def test_repro_error_inside_a_command_is_one_line(
        self, capsys, monkeypatch
    ):
        """A multi-line message is folded onto the one line; the
        traceback goes to the debug log."""
        from repro import cli
        from repro.obs import setup_logging

        def failing_study(args):
            raise DrcError("design 'x' failed DRC:\n  ERROR STR-LOOP: loop")

        monkeypatch.setattr(cli, "_study", failing_study)
        code, line = _one_error_line(capsys, ["floorplan"])
        assert code == 2
        assert line == "error: design 'x' failed DRC:   ERROR STR-LOOP: loop"

        stream = io.StringIO()
        setup_logging("debug", stream=stream)  # redirect the shared handler
        code, _ = _one_error_line(capsys, ["floorplan", "--log-level", "debug"])
        setup_logging("warning")
        assert code == 2
        logged = stream.getvalue()
        assert "repro floorplan failed" in logged
        assert "Traceback" in logged and "DrcError" in logged

    def test_programming_error_keeps_its_traceback(self, monkeypatch):
        from repro import cli

        def buggy_study(args):
            raise KeyError("not a library error")

        monkeypatch.setattr(cli, "_study", buggy_study)
        with pytest.raises(KeyError):
            main(["floorplan"])

    @pytest.mark.parametrize(
        "argv",
        [["serve", "st"], ["submit", "st"], ["jobs", "st"],
         ["obs", "summary", "t.jsonl"]],
        ids=lambda argv: argv[0],
    )
    def test_every_command_takes_log_level(self, argv):
        """The commands that declared ``--log-level`` themselves."""
        from repro.cli import _parser

        args = _parser().parse_args([*argv, "--log-level", "debug"])
        assert args.log_level == "debug"

    def test_module_entry_point(self, tiny_stil, tmp_path):
        """``python -m repro``: exit status 2 and one stderr line."""
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            sys.modules["repro"].__file__
        )))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "scap", tiny_stil,
             "--scale", "small"],
            capture_output=True, text=True, cwd=str(tmp_path), env=env,
            timeout=300,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: pattern 0 covers 62 flops, design has 256"
        ]
