"""Waiver files: reviewed exceptions to DRC violations.

A waiver file is JSON::

    {
      "waivers": [
        {"rule": "SCN-LOCKUP", "match": "chain 3", "reason": "lockup
         latches inserted downstream of this netlist snapshot"},
        {"rule": "CLK-*", "reason": "single-domain test mode"}
      ]
    }

``rule`` is an ``fnmatch`` pattern over rule ids; ``match`` (optional)
is a case-sensitive substring applied to the violation's message plus
location values.  A waived violation stays in the report but no longer
gates the flow.  Waivers that match nothing are reported so stale
entries are noticed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Any, Iterable, List, Sequence

from ..errors import ConfigError
from .violation import Violation


@dataclass(frozen=True)
class Waiver:
    """One reviewed exception: which rule, which locations, and why."""

    rule: str
    match: str = ""
    reason: str = ""

    def covers(self, violation: Violation) -> bool:
        if not fnmatchcase(violation.rule_id, self.rule):
            return False
        return (not self.match) or self.match in violation.matches_text()

    def describe(self) -> str:
        scope = f" match={self.match!r}" if self.match else ""
        return f"{self.rule}{scope}: {self.reason or 'no reason given'}"


class WaiverSet:
    """An ordered collection of waivers plus application bookkeeping."""

    def __init__(self, waivers: Sequence[Waiver] = ()):
        self.waivers: List[Waiver] = list(waivers)

    def __len__(self) -> int:
        return len(self.waivers)

    def __iter__(self) -> "Iterable[Waiver]":
        return iter(self.waivers)

    def apply(self, violations: Iterable[Violation]) -> List[str]:
        """Mark covered violations waived; return used waiver summaries."""
        used: List[str] = []
        for waiver in self.waivers:
            hit = False
            for violation in violations:
                if not violation.waived and waiver.covers(violation):
                    violation.waived = True
                    violation.waived_reason = waiver.reason or waiver.describe()
                    hit = True
            if hit:
                used.append(waiver.describe())
        return used

    @classmethod
    def from_dict(cls, payload: Any) -> "WaiverSet":
        entries = (
            payload.get("waivers", payload)
            if isinstance(payload, dict)
            else payload
        )
        if not isinstance(entries, list):
            raise ConfigError(
                "waiver file must be a list or contain a 'waivers' list"
            )
        waivers: List[Waiver] = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict) or "rule" not in entry:
                raise ConfigError(
                    f"waiver entry {i} must be an object with a 'rule' key"
                )
            waivers.append(
                Waiver(
                    rule=str(entry["rule"]),
                    match=str(entry.get("match", "")),
                    reason=str(entry.get("reason", "")),
                )
            )
        return cls(waivers)


def load_waivers(path: str) -> WaiverSet:
    """Load a waiver JSON file (see module docstring for the format)."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read waiver file {path!r}: {exc}") from exc
    return WaiverSet.from_dict(payload)
