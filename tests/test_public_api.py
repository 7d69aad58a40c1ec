"""Public-API integrity: every module imports, every __all__ resolves.

Guards against broken exports, dangling names after refactors, and
accidental import cycles anywhere in the package.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.atpg",
    "repro.core",
    "repro.core.scheduling",
    "repro.dft",
    "repro.drc",
    "repro.netlist",
    "repro.obs",
    "repro.perf",
    "repro.pgrid",
    "repro.power",
    "repro.reporting",
    "repro.service",
    "repro.sim",
    "repro.soc",
    "repro.timing",
]


def _walk_modules():
    names = []
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        names.append(pkg_name)
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                names.append(f"{pkg_name}.{info.name}")
    return sorted(set(names))


@pytest.mark.parametrize("module_name", _walk_modules())
def test_module_imports(module_name):
    importlib.import_module(module_name)


@pytest.mark.parametrize("pkg_name", PACKAGES)
def test_all_names_resolve(pkg_name):
    pkg = importlib.import_module(pkg_name)
    exported = getattr(pkg, "__all__", [])
    assert exported, f"{pkg_name} exports nothing"
    for name in exported:
        assert hasattr(pkg, name), f"{pkg_name}.{name} missing"


@pytest.mark.parametrize("pkg_name", PACKAGES)
def test_all_is_sorted_and_unique(pkg_name):
    pkg = importlib.import_module(pkg_name)
    exported = list(getattr(pkg, "__all__", []))
    assert len(exported) == len(set(exported)), f"{pkg_name}: duplicates"


def test_top_level_version():
    assert repro.__version__ == "1.0.0"


def test_every_public_symbol_documented():
    """Everything re-exported at the top level carries a docstring."""
    for name in repro.__all__:
        if name.startswith("__") or name in ("K_VOLT", "VDD_NOMINAL"):
            continue
        obj = getattr(repro, name)
        doc = getattr(obj, "__doc__", None)
        assert doc and doc.strip(), f"repro.{name} lacks a docstring"
