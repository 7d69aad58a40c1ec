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

import warnings

import numpy as np
import pytest

from repro import CaseStudy
from repro.core.flow import NoiseAwarePatternGenerator, run_noise_tolerant_flow
from repro.perf import chaos
from repro.perf.resilient import collect_reports
from repro.power.calculator import ScapCalculator
from repro.soc import build_turbo_eagle

SEEDS = (11, 97, 2024)


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
        ckdir = str(tmp_path / "cs")
        first = CaseStudy(
            scale="tiny", seed=11, backtrack_limit=60, checkpoint_dir=ckdir
        )
        staged1 = first.staged()
        val1 = first.validation("staged")
        assert first._checkpoint.saves >= 2

        second = CaseStudy(
            scale="tiny", seed=11, backtrack_limit=60, checkpoint_dir=ckdir
        )
        staged2 = second.staged()
        val2 = second.validation("staged")
        assert second._checkpoint.loads >= 1  # reran nothing from scratch
        assert np.array_equal(
            staged1.pattern_set.as_matrix(), staged2.pattern_set.as_matrix()
        )
        assert val1.profiles == val2.profiles
        assert val1.violations == val2.violations

    def test_stale_checkpoint_is_reset_not_reused(self, tmp_path):
        ckdir = str(tmp_path / "cs")
        CaseStudy(
            scale="tiny", seed=11, backtrack_limit=60, checkpoint_dir=ckdir
        ).staged()
        # Same directory, different configuration: the fingerprint
        # mismatch must discard the store, never serve stale results.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            other = CaseStudy(
                scale="tiny", seed=97, backtrack_limit=60,
                checkpoint_dir=ckdir,
            )
        assert any("checkpoint" in str(w.message) for w in caught)
        assert not other._checkpoint.keys()
