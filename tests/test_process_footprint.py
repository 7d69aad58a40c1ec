"""Only a process that solves a power grid loads scipy.

scipy serves one purpose here, the SuperLU factorisation of the rail
meshes, and :class:`repro.pgrid.PowerGrid` imports it when the first
grid is built.  A service worker, the HTTP front-end and the ATPG-only
commands import the whole package but never solve a grid, so they must
not pay scipy's import time and memory.  The check runs in a fresh
interpreter: this test process has scipy loaded already.
"""

from __future__ import annotations

import os
import subprocess
import sys

import repro

CHECK = """
import sys

import repro
import repro.cli
import repro.service.worker
from repro.core.flow import run_noise_tolerant_flow
from repro.pgrid import GridModel
from repro.soc import build_turbo_eagle


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


design = build_turbo_eagle("tiny", seed=2007)
result, report = run_noise_tolerant_flow(design, max_patterns=8)
assert report.status == "completed", (report.status, report.error)
assert result.n_patterns == 8, result.n_patterns
loaded = scipy_modules()
assert not loaded, f"{len(loaded)} scipy modules loaded: {loaded[:3]}..."
GridModel.calibrated(design)
assert "scipy.sparse.linalg" in scipy_modules(), scipy_modules()
print("ok")
"""


def test_scipy_loads_with_the_first_grid(tmp_path):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", CHECK],
        capture_output=True, text=True, cwd=str(tmp_path), env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["ok"]
