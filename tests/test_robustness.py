"""Seed-robustness and fault-tolerance of the full pipeline.

Part one: the headline result is not one lucky seed — the
conventional-vs-staged comparison holds on three independently
generated tiny SOCs.

Part two (``-m chaos``): the execution layer survives workers
SIGKILLed mid-batch (their chunks finish serially), and interrupted
flows resume from checkpoints, all **bit-identical** to an undisturbed
serial run.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro import CaseStudy
from repro.core.flow import NoiseAwarePatternGenerator, run_noise_tolerant_flow
from repro.obs import Telemetry, use_telemetry
from repro.perf import chaos
from repro.perf.resilient import collect_reports
from repro.power.calculator import ScapCalculator
from repro.soc import build_turbo_eagle

SEEDS = (11, 97, 2024)


def _counter(tel, name):
    """The unlabelled value of counter *name* (0 when never counted)."""
    return tel.metrics.snapshot().get(name, {"series": {}})["series"].get(
        "", 0
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_headline_holds_across_seeds(seed):
    study = CaseStudy(scale="tiny", seed=seed, backtrack_limit=60)
    conv = study.validation("conventional")
    stag = study.validation("staged")

    # Claim 1: staged never violates B5 more than conventional.
    assert (
        stag.violation_fraction("B5") <= conv.violation_fraction("B5")
    ), seed

    # Claim 2: the pre-B5 prefix of the staged flow is under threshold.
    boundaries = study.staged().step_boundaries
    series = stag.scap_series("B5")
    prefix = series[: boundaries[-1]]
    threshold = study.thresholds_mw["B5"]
    assert prefix.size == 0 or (prefix <= threshold).all(), seed

    # Claim 3: coverage comparable between the two flows.
    assert abs(
        study.conventional().test_coverage - study.staged().test_coverage
    ) < 0.15, seed

    # Claim 4: SCAP > CAP for active patterns (STW below the cycle).
    actives = [p for p in conv.profiles if p.stw_ns > 0]
    assert actives
    assert all(p.scap_mw() >= p.cap_mw() for p in actives), seed


# ----------------------------------------------------------------------
# chaos: injected infrastructure failures on the real pipeline
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_design():
    return build_turbo_eagle("tiny", seed=2007)


@pytest.fixture(scope="module")
def fault_batch(tiny_design):
    from repro.atpg.faults import build_fault_universe, collapse_faults

    nl = tiny_design.netlist
    reps, _ = collapse_faults(nl, build_fault_universe(nl))
    rng = np.random.default_rng(5)
    matrix = rng.integers(0, 2, size=(120, nl.n_flops), dtype=np.int8)
    return list(reps), matrix


def _survive_kills(kill, run):
    """Run *run* under worker kills on the chunk indices *kill*.

    Returns its result, the RuntimeWarnings raised and the reports of
    every pool map inside.
    """
    with chaos.inject(chaos.ChaosSpec(kill=kill)), collect_reports() as \
            reports, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = run()
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return out, runtime, reports


def _flow_matrix(design, **kwargs):
    result, report = run_noise_tolerant_flow(design, **kwargs)
    return result.pattern_set.as_matrix(), report


def test_flow_on_the_pool_matches_serial(tiny_design):
    serial, _ = _flow_matrix(tiny_design)
    pooled, report = _flow_matrix(tiny_design, n_workers=2)
    assert report.status == "completed"
    assert not report.failures
    assert np.array_equal(pooled, serial)


@pytest.mark.chaos
class TestChaosPipeline:
    """Kill workers under the paper's real workloads."""

    @staticmethod
    def _fsim_survives_kill(tiny_design, fault_batch, drop):
        from repro.atpg.fsim import FaultSimulator

        faults, matrix = fault_batch
        fsim = FaultSimulator(tiny_design.netlist, tiny_design.dominant_domain())
        serial = fsim.run_batch(matrix, faults, lane_width=64, drop=drop)
        survived, runtime, reports = _survive_kills(
            {1},
            lambda: fsim.run_batch(
                matrix, faults, lane_width=64, drop=drop, n_workers=2
            ),
        )
        assert survived == serial
        assert len(runtime) == 1
        (report,) = reports
        assert report.serial_fallback
        assert [f.kind for f in report.failures] == ["crash"]

    def test_fsim_survives_worker_kill_bit_identical(
        self, tiny_design, fault_batch
    ):
        self._fsim_survives_kill(tiny_design, fault_batch, drop=False)

    def test_fsim_with_drop_survives_worker_kill_bit_identical(
        self, tiny_design, fault_batch
    ):
        self._fsim_survives_kill(tiny_design, fault_batch, drop=True)

    def test_scap_survives_worker_kill_bit_identical(
        self, tiny_design, fault_batch
    ):
        _faults, matrix = fault_batch
        domain = tiny_design.dominant_domain()
        serial = ScapCalculator(tiny_design, domain).profile_patterns(
            matrix[:60]
        )
        calc = ScapCalculator(tiny_design, domain)
        survived, runtime, reports = _survive_kills(
            {0}, lambda: calc.profile_patterns(matrix[:60], n_workers=2)
        )
        assert survived == serial
        assert len(runtime) == 1
        (report,) = reports
        assert report.serial_fallback
        assert [f.kind for f in report.failures] == ["crash"]

    def test_flow_survives_worker_kills(self, tiny_design):
        serial, _ = _flow_matrix(tiny_design)
        (survived, report), runtime, _ = _survive_kills(
            {1}, lambda: _flow_matrix(tiny_design, n_workers=2)
        )
        assert report.status == "completed"
        assert np.array_equal(survived, serial)
        # every pooled grading call lost a worker: one warning and one
        # crash entry each, tagged with the stage that ran it
        crashes = [f for f in report.failures if f["kind"] == "crash"]
        assert len(crashes) == len(runtime) == len(report.failures)
        assert {f["stage"] for f in crashes} == set(
            report.completed_stages()
        )


@pytest.mark.chaos
class TestCheckpointResume:
    """Interrupted flows resume and finish bit-identical."""

    def test_flow_stop_and_resume_bit_identical(self, tiny_design, tmp_path):
        kwargs = dict(seed=1, backtrack_limit=60)
        reference = NoiseAwarePatternGenerator(
            tiny_design, **kwargs
        ).run()

        ckdir = str(tmp_path / "ck")
        partial, rep1 = run_noise_tolerant_flow(
            tiny_design, checkpoint_dir=ckdir, stop_after_stage=1,
            **kwargs,
        )
        assert rep1.status == "partial"
        assert rep1.completed_stages() and rep1.pending_stages()

        resumed, rep2 = run_noise_tolerant_flow(
            tiny_design, checkpoint_dir=ckdir, **kwargs
        )
        assert rep2.status == "completed"
        assert rep2.resumed_stages() == rep1.completed_stages()
        assert np.array_equal(
            resumed.pattern_set.as_matrix(),
            reference.pattern_set.as_matrix(),
        )
        assert resumed.step_boundaries == reference.step_boundaries
        assert resumed.test_coverage == reference.test_coverage

    def test_flow_crash_midway_reports_partial_then_resumes(
        self, tiny_design, tmp_path, monkeypatch
    ):
        kwargs = dict(seed=1, backtrack_limit=60)
        reference = NoiseAwarePatternGenerator(
            tiny_design, **kwargs
        ).run()

        real_run_stage = NoiseAwarePatternGenerator._run_stage

        def sabotaged(self, fsim, step, combined, next_index, max_patterns):
            if step == ("B6",):
                raise RuntimeError("simulated crash in stage 1")
            return real_run_stage(
                self, fsim, step, combined, next_index, max_patterns
            )

        ckdir = str(tmp_path / "ck")
        monkeypatch.setattr(
            NoiseAwarePatternGenerator, "_run_stage", sabotaged
        )
        crashed, rep1 = run_noise_tolerant_flow(
            tiny_design, checkpoint_dir=ckdir,
            report_path=str(tmp_path / "partial.json"), **kwargs,
        )
        assert crashed is None
        assert rep1.status == "partial"
        assert "simulated crash" in rep1.error
        assert (tmp_path / "partial.json").exists()

        monkeypatch.setattr(
            NoiseAwarePatternGenerator, "_run_stage", real_run_stage
        )
        resumed, rep2 = run_noise_tolerant_flow(
            tiny_design, checkpoint_dir=ckdir, **kwargs
        )
        assert rep2.status == "completed"
        assert rep2.resumed_stages()  # stage 0 came from the checkpoint
        assert np.array_equal(
            resumed.pattern_set.as_matrix(),
            reference.pattern_set.as_matrix(),
        )

    def test_strict_mode_reraises(self, tiny_design, tmp_path, monkeypatch):
        def explode(self, fsim, step, combined, next_index, max_patterns):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(
            NoiseAwarePatternGenerator, "_run_stage", explode
        )
        with pytest.raises(RuntimeError, match="kaboom"):
            run_noise_tolerant_flow(
                tiny_design, checkpoint_dir=str(tmp_path / "ck"),
                strict=True, seed=1, backtrack_limit=60,
            )

    def test_casestudy_checkpoint_roundtrip(self, tmp_path):
        """A second study resumes the staged flow's three stages from
        ``<dir>/staged`` and its validation chunk from the study's own
        store, which holds no whole-flow or whole-report copy."""
        ckdir = tmp_path / "cs"
        first = CaseStudy(
            scale="tiny", seed=11, backtrack_limit=60,
            checkpoint_dir=str(ckdir),
        )
        staged1 = first.staged()
        val1 = first.validation("staged")

        second = CaseStudy(
            scale="tiny", seed=11, backtrack_limit=60,
            checkpoint_dir=str(ckdir),
        )
        tel = Telemetry(tracing=False)
        with use_telemetry(tel):
            staged2 = second.staged()
            val2 = second.validation("staged")
        assert _counter(tel, "flow.stages_resumed") == 3
        assert _counter(tel, "flow.checkpoint_resumes") == 1  # one chunk
        assert second._checkpoint.saves == 0
        assert [
            key.split("_rows")[0] for key in second._checkpoint.keys()
        ] == ["validation_staged"]
        staged_manifest = json.loads(
            (ckdir / "staged" / "manifest.json").read_text()
        )
        assert sorted(staged_manifest["stages"]) == [
            "stage0_B1+B2+B3+B4", "stage1_B6", "stage2_B5",
        ]
        assert np.array_equal(
            staged1.pattern_set.as_matrix(), staged2.pattern_set.as_matrix()
        )
        assert staged1.step_boundaries == staged2.step_boundaries
        assert staged1.cross_detected == staged2.cross_detected
        assert val1.profiles == val2.profiles
        assert val1.violations == val2.violations

    def test_stale_checkpoint_is_reset_not_reused(self, tmp_path):
        ckdir = str(tmp_path / "cs")
        CaseStudy(
            scale="tiny", seed=11, backtrack_limit=60, checkpoint_dir=ckdir
        ).staged()
        # Same directory, another design of the same name and size: the
        # staged flow's fingerprint must discard its stages, never serve
        # the seed-11 patterns.
        tel = Telemetry(tracing=False)
        with warnings.catch_warnings(record=True) as caught, \
                use_telemetry(tel):
            warnings.simplefilter("always")
            other = CaseStudy(
                scale="tiny", seed=97, backtrack_limit=60,
                checkpoint_dir=ckdir,
            )
            staged = other.staged()
        assert any(
            "different run configuration" in str(w.message)
            and "staged" in str(w.message)
            for w in caught
        )
        assert _counter(tel, "flow.stages_resumed") == 0
        fresh = CaseStudy(scale="tiny", seed=97, backtrack_limit=60).staged()
        assert np.array_equal(
            staged.pattern_set.as_matrix(), fresh.pattern_set.as_matrix()
        )
        assert staged.step_boundaries == fresh.step_boundaries

    def test_flow_checkpoint_of_other_engine_settings_is_not_resumed(
        self, tiny_design, tmp_path
    ):
        """The fingerprint covers the engine's settings, not only its
        seed: a directory written with one backtrack limit is not
        resumed under another."""
        ckdir = str(tmp_path / "ck")
        run_noise_tolerant_flow(
            tiny_design, checkpoint_dir=ckdir, seed=1, backtrack_limit=60
        )
        with pytest.warns(RuntimeWarning, match="different run configuration"):
            result, report = run_noise_tolerant_flow(
                tiny_design, checkpoint_dir=ckdir, seed=1, backtrack_limit=0
            )
        assert report.resumed_stages() == []
        fresh, _ = run_noise_tolerant_flow(
            tiny_design, seed=1, backtrack_limit=0
        )
        assert np.array_equal(
            result.pattern_set.as_matrix(), fresh.pattern_set.as_matrix()
        )
        assert result.test_coverage == fresh.test_coverage

    def test_interrupted_validation_resumes_from_its_chunks(
        self, tmp_path, monkeypatch
    ):
        from repro.core import validation

        monkeypatch.setattr(validation, "CHECKPOINT_CHUNK", 64)
        reference = CaseStudy(
            scale="tiny", seed=11, backtrack_limit=60
        ).validation("staged")
        assert reference.n_patterns > 64  # two chunks

        ckdir = str(tmp_path / "cs")
        first = CaseStudy(
            scale="tiny", seed=11, backtrack_limit=60, checkpoint_dir=ckdir
        )
        first.staged()
        real = ScapCalculator.profile_patterns
        calls = []

        def interrupted(self, patterns, *args, **kwargs):
            calls.append(len(patterns))
            if len(calls) == 2:
                raise RuntimeError("interrupted in the second chunk")
            return real(self, patterns, *args, **kwargs)

        monkeypatch.setattr(ScapCalculator, "profile_patterns", interrupted)
        with pytest.raises(RuntimeError, match="second chunk"):
            first.validation("staged")
        monkeypatch.setattr(ScapCalculator, "profile_patterns", real)

        second = CaseStudy(
            scale="tiny", seed=11, backtrack_limit=60, checkpoint_dir=ckdir
        )
        tel = Telemetry(tracing=False)
        with use_telemetry(tel):
            resumed = second.validation("staged")
        assert _counter(tel, "flow.checkpoint_resumes") == 1  # chunk 0
        assert resumed.profiles == reference.profiles
        assert resumed.violations == reference.violations


class TestRunReportExits:
    """Every exit of the flow writes its report once, to *report_path*."""

    def test_unopenable_checkpoint_writes_failed_report(
        self, tiny_design, tmp_path
    ):
        from repro.errors import CheckpointError
        from repro.reporting import RUN_FAILED, RunReport

        not_a_dir = tmp_path / "ck"
        not_a_dir.write_text("")
        report_path = str(tmp_path / "run.json")
        with pytest.raises(CheckpointError):
            run_noise_tolerant_flow(
                tiny_design, checkpoint_dir=str(not_a_dir),
                report_path=report_path, max_patterns=4,
            )
        report = RunReport.load(report_path)
        assert report.status == RUN_FAILED
        assert "cannot create checkpoint directory" in report.error
        assert report.drc is not None and report.stages == []

    @pytest.mark.parametrize("stage", ["schedule", "timing"])
    def test_unexpected_stage_error_writes_failed_report(
        self, tiny_design, tmp_path, monkeypatch, stage
    ):
        import repro.core.flow as flow_module
        from repro.reporting import RUN_FAILED, RunReport

        def broken(*args, **kwargs):
            raise KeyError(f"{stage} bug")

        target = "schedule_flow" if stage == "schedule" else "_timing_from_flow"
        monkeypatch.setattr(flow_module, target, broken)
        report_path = str(tmp_path / "run.json")
        with pytest.raises(KeyError, match=f"{stage} bug"):
            run_noise_tolerant_flow(
                tiny_design, max_patterns=4, report_path=report_path,
                schedule_budget_mw=1e6, timing_prescreen=True,
            )
        report = RunReport.load(report_path)
        assert report.status == RUN_FAILED
        assert f"{stage} bug" in report.error
        assert report.completed_stages()  # generation finished

    def test_strict_stage_failure_stays_partial(self, tiny_design, tmp_path):
        from repro.errors import ConfigError
        from repro.reporting import RUN_PARTIAL, RunReport

        report_path = str(tmp_path / "run.json")
        with pytest.raises(ConfigError):
            run_noise_tolerant_flow(
                tiny_design, max_patterns=4, report_path=report_path,
                schedule_budget_mw=0.001, strict=True,
            )
        report = RunReport.load(report_path)
        assert report.status == RUN_PARTIAL
        assert report.error is None
        assert "error" in report.schedule
        assert report.stages[-1].name == "schedule"
        assert report.stages[-1].status == "failed"
