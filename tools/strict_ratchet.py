#!/usr/bin/env python
"""Mypy strictness ratchet lint.

Packages that have been brought up to strict mypy must never silently
fall back to the permissive global gate: once a package earns a strict
override block in ``pyproject.toml``, removing (or watering down) that
block is a CI failure, not a quiet regression.

The floor below lists every module pattern that is currently strict.
For each one this script checks that ``pyproject.toml`` still carries a
``[[tool.mypy.overrides]]`` block naming it with ``ignore_errors =
false`` and all of the strictness settings in :data:`STRICT_SETTINGS`
set to ``true``.  Growing the floor is encouraged (add the new package
here *and* in pyproject); shrinking it requires editing this file,
which is the point — the ratchet only turns one way.

The file is parsed textually because the repo supports Python 3.9,
which has no ``tomllib``.  The parser only understands the subset of
TOML that mypy override blocks actually use (``[[...]]`` array headers,
``key = value`` lines, single-line string arrays), which is all it
needs.

Usage: ``python tools/strict_ratchet.py`` — exits 0 when the floor
holds, 1 with one line per violation otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Dict, List

#: Module patterns that must stay under strict mypy.  Append-only: an
#: entry leaves only together with the module it names.
STRICT_FLOOR = [
    "repro.drc.*",
    "repro.obs.*",
    "repro.core.scheduling.*",
    "repro.service.*",
    "repro.timing.*",
]

#: Settings every strict override block must carry, with the value the
#: ratchet demands.
STRICT_SETTINGS = {
    "ignore_errors": False,
    "disallow_untyped_defs": True,
    "disallow_incomplete_defs": True,
    "check_untyped_defs": True,
    "no_implicit_optional": True,
    "warn_return_any": True,
    "warn_unused_ignores": True,
}

_HEADER = re.compile(r"^\[\[tool\.mypy\.overrides\]\]\s*$")
_ANY_HEADER = re.compile(r"^\[")
_KEY_VALUE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+?)\s*$")


def _parse_value(raw: str) -> object:
    """Decode the few TOML value shapes override blocks use."""
    raw = raw.strip()
    if raw == "true":
        return True
    if raw == "false":
        return False
    if raw.startswith("[") and raw.endswith("]"):
        inner = raw[1:-1].strip()
        if not inner:
            return []
        return [
            part.strip().strip("\"'")
            for part in inner.split(",")
            if part.strip()
        ]
    return raw.strip("\"'")


def parse_override_blocks(text: str) -> List[Dict[str, object]]:
    """All ``[[tool.mypy.overrides]]`` blocks as key/value dicts."""
    blocks: List[Dict[str, object]] = []
    current: Dict[str, object] = {}
    in_block = False
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].rstrip()
        if not stripped:
            continue
        if _HEADER.match(stripped):
            if in_block:
                blocks.append(current)
            current, in_block = {}, True
            continue
        if _ANY_HEADER.match(stripped):
            if in_block:
                blocks.append(current)
            current, in_block = {}, False
            continue
        if in_block:
            match = _KEY_VALUE.match(stripped)
            if match:
                current[match.group(1)] = _parse_value(match.group(2))
    if in_block:
        blocks.append(current)
    return blocks


def _modules_of(block: Dict[str, object]) -> List[str]:
    module = block.get("module")
    if isinstance(module, str):
        return [module]
    if isinstance(module, list):
        return [str(m) for m in module]
    return []


def check_floor(text: str) -> List[str]:
    """Return one message per floor violation (empty when clean)."""
    blocks = parse_override_blocks(text)
    by_module: Dict[str, Dict[str, object]] = {}
    for block in blocks:
        for module in _modules_of(block):
            by_module[module] = block
    problems: List[str] = []
    for pattern in STRICT_FLOOR:
        block = by_module.get(pattern)
        if block is None:
            problems.append(
                f"{pattern}: no [[tool.mypy.overrides]] block names it "
                "— the package fell back to the permissive global gate"
            )
            continue
        for key, required in STRICT_SETTINGS.items():
            actual = block.get(key)
            if actual != required:
                problems.append(
                    f"{pattern}: {key} is {actual!r}, the strict floor "
                    f"requires {required!r}"
                )
    return problems


def main(argv: List[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    pyproject = root / "pyproject.toml"
    if len(argv) > 1:
        pyproject = Path(argv[1])
    problems = check_floor(pyproject.read_text())
    if problems:
        for problem in problems:
            print(f"strict-ratchet: {problem}", file=sys.stderr)
        print(
            f"strict-ratchet: FAIL — {len(problems)} violation(s); "
            "strict mypy coverage only ratchets up "
            "(see tools/strict_ratchet.py)",
            file=sys.stderr,
        )
        return 1
    print(
        "strict-ratchet: OK — "
        f"{len(STRICT_FLOOR)} package pattern(s) held strict"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
