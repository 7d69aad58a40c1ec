"""Tests for the case-study artifact exporter, its CLI command, the
checkpoint store and the structured run report."""

from __future__ import annotations

import json
import os

import pytest

from repro import CaseStudy
from repro.__main__ import main
from repro.errors import CheckpointError
from repro.perf.resilient import ChunkFailure, ExecutionReport
from repro.reporting import (
    RUN_COMPLETED,
    RUN_PARTIAL,
    CheckpointStore,
    RunReport,
    config_fingerprint,
    export_case_study,
)


@pytest.fixture(scope="module")
def study():
    return CaseStudy(scale="tiny", seed=2007, backtrack_limit=60)


class TestExport:
    def test_all_artifacts_written(self, study, tmp_path):
        written = export_case_study(study, str(tmp_path))
        names = {os.path.basename(p) for p in written}
        expected = {
            "table1_design.txt",
            "table2_domains.txt",
            "table3_case1_full_cycle.csv",
            "table3_case2_half_cycle.csv",
            "table4_cap_vs_scap.txt",
            "fig1_floorplan.txt",
            "fig2_scap_conventional_b5.csv",
            "fig6_scap_staged_b5.csv",
            "fig6_meta.txt",
            "fig3_P1_vdd_map.csv",
            "fig3_P1_vdd_map.txt",
            "fig3_P2_vdd_map.csv",
            "fig3_P2_vdd_map.txt",
            "fig4_coverage_conventional.csv",
            "fig4_coverage_staged.csv",
            "fig7_endpoint_delays.csv",
            "headline.txt",
        }
        assert expected.issubset(names)
        for path in written:
            assert os.path.getsize(path) > 0

    def test_csv_contents_parse(self, study, tmp_path):
        export_case_study(study, str(tmp_path))
        fig2 = (tmp_path / "fig2_scap_conventional_b5.csv").read_text()
        header, *rows = fig2.strip().splitlines()
        assert header == "pattern,scap_mw"
        assert len(rows) == study.conventional().n_patterns
        for row in rows[:5]:
            idx, val = row.split(",")
            int(idx)
            float(val)

    def test_export_idempotent(self, study, tmp_path):
        first = export_case_study(study, str(tmp_path))
        second = export_case_study(study, str(tmp_path))
        assert sorted(first) == sorted(second)


class TestExportCli:
    def test_cli_export(self, tmp_path, capsys):
        out = tmp_path / "arts"
        assert main([
            "export", "--scale", "tiny", "--out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "wrote" in printed
        assert (out / "headline.txt").exists()


class TestCheckpointStore:
    def test_save_load_roundtrip_and_order(self, tmp_path):
        store = CheckpointStore(str(tmp_path), fingerprint="fp")
        store.save("stage_b", {"x": 1}, meta={"n": 1})
        store.save("stage_a", [1, 2, 3])
        assert store.has("stage_a") and store.has("stage_b")
        assert not store.has("stage_c")
        assert store.keys() == ["stage_b", "stage_a"]  # completion order
        assert store.load("stage_b") == {"x": 1}
        assert store.meta("stage_b") == {"n": 1}
        assert store.saves == 2 and store.loads == 1

    def test_reopen_same_fingerprint_resumes(self, tmp_path):
        CheckpointStore(str(tmp_path), "fp").save("s", 42)
        again = CheckpointStore(str(tmp_path), "fp")
        assert again.load("s") == 42

    def test_fingerprint_mismatch_starts_fresh(self, tmp_path):
        CheckpointStore(str(tmp_path), "fp1").save("s", 42)
        with pytest.warns(RuntimeWarning, match="different .*configuration"):
            fresh = CheckpointStore(str(tmp_path), "fp2")
        assert not fresh.has("s")

    def test_reset_deletes_the_payloads_it_discards(self, tmp_path):
        CheckpointStore(str(tmp_path), "fp1").save("s", 42)
        assert len(list(tmp_path.glob("*.pkl"))) == 1
        with pytest.warns(RuntimeWarning, match="different .*configuration"):
            fresh = CheckpointStore(str(tmp_path), "fp2")
        assert not list(tmp_path.glob("*.pkl"))
        fresh.save("s", 7)
        assert CheckpointStore(str(tmp_path), "fp2").load("s") == 7

    def test_reset_deletes_only_plain_payload_names(self, tmp_path):
        """A tampered manifest cannot make a reset delete anything but
        a ``*.pkl`` file directly inside the store's directory."""
        ck = tmp_path / "ck"
        (ck / "sub").mkdir(parents=True)
        keep = [tmp_path / "outside.pkl", ck / "sub" / "nested.pkl",
                ck / "notes.txt"]
        for path in keep + [ck / "stale.pkl"]:
            path.write_bytes(b"x")
        files = ["../outside.pkl", str(tmp_path / "outside.pkl"),
                 "sub/nested.pkl", "notes.txt", "stale.pkl", "gone.pkl", 3]
        stages = {f"k{i}": {"file": f, "seq": i} for i, f in enumerate(files)}
        stages["junk"] = "not an entry"
        (ck / "manifest.json").write_text(json.dumps(
            {"version": 1, "fingerprint": "fp1", "seq": 9, "stages": stages}
        ))
        with pytest.warns(RuntimeWarning, match="different .*configuration"):
            CheckpointStore(str(ck), "fp2")
        assert all(path.exists() for path in keep)
        assert not (ck / "stale.pkl").exists()

    def test_corrupt_manifest_is_left_as_it_was(self, tmp_path):
        (tmp_path / "manifest.json").write_text("garbage")
        (tmp_path / "stage.pkl").write_bytes(b"x")
        with pytest.raises(CheckpointError, match="unreadable"):
            CheckpointStore(str(tmp_path), "fp")
        assert sorted(os.listdir(tmp_path)) == ["manifest.json", "stage.pkl"]

    def test_discard_and_clear(self, tmp_path):
        store = CheckpointStore(str(tmp_path), "fp")
        store.save("a", 1)
        store.save("b", 2)
        store.discard("a")
        assert not store.has("a") and store.has("b")
        store.clear()
        assert store.keys() == []

    def test_corrupt_payload_raises_checkpoint_error(self, tmp_path):
        store = CheckpointStore(str(tmp_path), "fp")
        store.save("s", {"big": list(range(100))})
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        payload = tmp_path / manifest["stages"]["s"]["file"]
        payload.write_bytes(b"not a pickle")
        with pytest.raises(CheckpointError, match="corrupt"):
            store.load("s")

    def test_missing_key_raises(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        with pytest.raises(CheckpointError):
            store.load("nope")

    def test_try_load_treats_truncated_payload_as_absent(self, tmp_path):
        """A partially-written stage file means "recompute", not death.

        The payload is truncated mid-pickle (a crash on a filesystem
        without atomic rename); ``try_load`` warns, drops the stale
        manifest entry, and returns None so the flow recomputes.
        """
        store = CheckpointStore(str(tmp_path), "fp")
        store.save("s", {"big": list(range(100))})
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        payload = tmp_path / manifest["stages"]["s"]["file"]
        payload.write_bytes(payload.read_bytes()[:10])  # truncate
        with pytest.warns(RuntimeWarning, match="recomputed"):
            assert store.try_load("s") is None
        # the broken entry was discarded: later calls are silent misses
        assert not store.has("s")
        assert store.try_load("s") is None
        # and the stage can simply be saved again
        store.save("s", {"big": [1]})
        assert store.try_load("s") == {"big": [1]}

    def test_try_load_missing_stage_is_silent_none(self, tmp_path):
        store = CheckpointStore(str(tmp_path), "fp")
        assert store.try_load("never-saved") is None

    def test_filesystem_hostile_keys(self, tmp_path):
        store = CheckpointStore(str(tmp_path), "fp")
        key = "stage/with:odd*chars and spaces" + "x" * 200
        store.save(key, "payload")
        assert CheckpointStore(str(tmp_path), "fp").load(key) == "payload"

    def test_config_fingerprint_sensitivity(self):
        a = config_fingerprint(scale="tiny", seed=1)
        assert a == config_fingerprint(seed=1, scale="tiny")  # order-free
        assert a != config_fingerprint(scale="tiny", seed=2)
        assert a != config_fingerprint(scale="small", seed=1)


class TestRunReport:
    def _report(self):
        rep = RunReport(flow="demo", checkpoint_dir="/tmp/ck")
        rep.record_stage("s0", "completed", from_checkpoint=True)
        rep.record_stage("s1", "completed")
        rep.record_stage("s2", "pending")
        return rep

    def test_stage_queries(self):
        rep = self._report()
        assert rep.completed_stages() == ["s0", "s1"]
        assert rep.resumed_stages() == ["s0"]
        assert rep.pending_stages() == ["s2"]

    def test_absorb_execution_report(self):
        rep = self._report()
        exec_rep = ExecutionReport(
            n_chunks=4,
            failures=[ChunkFailure(1, "crash", "worker process died")],
            serial_fallback=True,
        )
        rep.absorb_execution_report("s1", exec_rep)
        assert rep.failures == [{
            "chunk_index": 1, "kind": "crash",
            "error": "worker process died", "stage": "s1",
        }]
        assert "retries" not in rep.to_dict()

    def test_json_roundtrip_and_save(self, tmp_path):
        rep = self._report()
        rep.status = RUN_PARTIAL
        rep.error = "RuntimeError('x')"
        path = tmp_path / "report.json"
        rep.save(str(path))
        data = json.loads(path.read_text())
        assert data["flow"] == "demo"
        assert data["status"] == RUN_PARTIAL
        assert data["completed_stages"] == ["s0", "s1"]
        assert data["error"] == "RuntimeError('x')"
        assert data == rep.to_dict()

    def test_default_status_completed(self):
        assert RunReport(flow="f").status == RUN_COMPLETED
