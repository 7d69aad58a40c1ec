"""Tests for the reporting helpers."""

from __future__ import annotations

import pytest

from repro.reporting import curve_to_csv, format_table, series_to_csv


class TestFormatTable:
    def test_basic_alignment(self):
        rows = [
            {"block": "B1", "power": 1.23456},
            {"block": "B5", "power": 10.5},
        ]
        out = format_table(rows)
        lines = out.splitlines()
        assert lines[0].startswith("block")
        assert "1.235" in out  # default float format
        assert "10.500" in out
        # All rows same width.
        assert len({len(line) for line in lines}) <= 2

    def test_column_selection_and_title(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        out = format_table(rows, columns=["c", "a"], title="T")
        assert out.splitlines()[0] == "T"
        header = out.splitlines()[1]
        assert header.index("c") < header.index("a")
        assert "b" not in header

    def test_empty(self):
        assert "(no rows)" in format_table([])
        assert format_table([], title="X").startswith("X")

    def test_missing_keys_blank(self):
        rows = [{"a": 1}, {"a": 2, "b": 3}]
        out = format_table(rows, columns=["a", "b"])
        assert "3" in out


class TestSeriesCsv:
    def test_series(self):
        csv = series_to_csv([1.5, 2.5])
        assert csv.splitlines() == ["index,value", "0,1.5", "1,2.5"]

    def test_curve(self):
        csv = curve_to_csv([(0, 0.5), (3, 0.75)])
        assert csv.splitlines() == [
            "pattern,coverage", "0,0.5", "3,0.75",
        ]


class TestRunReportRoundTrip:
    def _build(self):
        from repro.reporting import RunReport

        report = RunReport(flow="noise_aware_staged", status="completed")
        report.record_stage(
            "stage0", "completed",
            detail={"patterns": 12, "elapsed_s": 1.25},
        )
        report.record_stage(
            "stage1", "completed", from_checkpoint=True,
            detail={"patterns": 7},
        )
        report.failures = [{
            "stage": "stage0", "kind": "crash", "chunk_index": 3,
            "error": "worker process died",
        }]
        report.drc = {"status": "clean", "violations": 0}
        report.telemetry = {
            "run_id": "rt1",
            "metrics": {"atpg.patterns_generated": {
                "kind": "counter", "series": {"": 19.0}}},
        }
        return report

    def test_save_load_round_trip(self, tmp_path):
        from repro.reporting import RunReport

        report = self._build()
        path = str(tmp_path / "run_report.json")
        report.save(path)
        loaded = RunReport.load(path)
        assert loaded.to_dict() == report.to_dict()
        assert loaded.completed_stages() == ["stage0", "stage1"]
        assert loaded.resumed_stages() == ["stage1"]
        assert loaded.failures == report.failures
        assert loaded.telemetry["run_id"] == "rt1"

    def test_failed_save_keeps_the_previous_report(self, tmp_path):
        """A save that raises mid-serialisation leaves the file it
        would have replaced whole and loadable."""
        from repro.reporting import RunReport

        class Unprintable:
            def __str__(self):
                raise RuntimeError("cannot serialise")

        path = str(tmp_path / "run_report.json")
        report = self._build()
        report.save(path)
        saved = report.to_dict()
        report.drc = {"status": Unprintable()}
        with pytest.raises(RuntimeError):
            report.save(path)
        assert RunReport.load(path).to_dict() == saved

    def test_from_dict_recomputes_derived_and_skips_unknown(self):
        from repro.reporting import RunReport

        data = self._build().to_dict()
        data["completed_stages"] = ["lies"]  # derived: must be recomputed
        data["future_key"] = {"ignored": True}
        loaded = RunReport.from_dict(data)
        assert loaded.completed_stages() == ["stage0", "stage1"]
        assert not hasattr(loaded, "future_key")

    def test_stage_times_rows(self):
        rows = self._build().stage_times()
        assert rows[0] == {
            "stage": "stage0", "status": "completed",
            "elapsed_s": 1.25, "patterns": 12,
        }
        assert rows[1]["status"] == "completed (checkpoint)"
        assert rows[1]["elapsed_s"] == 0.0
