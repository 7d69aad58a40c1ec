"""Data model of SOC-level test scheduling.

The scheduling plane is the one from the rectangle bin-packing
literature (Iyengar/Chakrabarty/Marinissen): the x-axis is time, the
y-axis is the chip's TAM (Test Access Mechanism) width in TAM lines.
Each block under test occupies a rectangle — its wrapper is configured
to some width ``w`` out of a discrete candidate set, and testing then
takes ``t(w)`` (roughly ``t(1)/w``: wider wrappers shift the same scan
data through more, shorter wrapper chains).  A schedule places one
rectangle per block so that rectangles never overlap on TAM lines and
the *sum of the active blocks' test power* stays under the chip-wide
envelope at every instant.

Model vocabulary:

* :class:`TamCandidate` — one (width, time, power) choice for a block;
* :class:`BlockTestSpec` — a block plus its candidate rectangles (a
  fixed-width test is a single-candidate spec);
* :class:`ScheduleBudget` — the chip-wide power envelope and TAM width;
* :class:`Placement` — one block's chosen rectangle placed in the plane;
* :class:`TestSchedule` — the full placed schedule with its invariants
  (:meth:`~TestSchedule.validate`) and figures of merit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ...errors import ConfigError

#: Round-off slack, in mW and us, that :meth:`TestSchedule.validate`
#: allows on the power envelope and on TAM-line overlaps.
VALIDATE_TOL = 1e-9


@dataclass(frozen=True)
class TamCandidate:
    """One wrapper/TAM configuration a block may be tested under."""

    #: Wrapper width in TAM lines (the rectangle's height).
    width: int
    #: Test time at this width (the rectangle's length).
    time_us: float
    #: Block test power while this configuration is active.
    power_mw: float

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ConfigError("TAM candidate width must be >= 1")
        if self.time_us <= 0:
            raise ConfigError("TAM candidate test time must be positive")
        if self.power_mw < 0:
            raise ConfigError("TAM candidate power must be >= 0")

    @property
    def diagonal(self) -> float:
        """Rectangle diagonal length — the bin-packing paper's
        preference key when two placements complete equally fast."""
        return math.hypot(float(self.width), self.time_us)


@dataclass(frozen=True)
class BlockTestSpec:
    """A block plus its candidate wrapper/TAM rectangles."""

    block: str
    candidates: Tuple[TamCandidate, ...]

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ConfigError(
                f"block {self.block!r} has no TAM candidates"
            )
        widths = [c.width for c in self.candidates]
        if len(set(widths)) != len(widths):
            raise ConfigError(
                f"block {self.block!r} has duplicate TAM widths"
            )

    @classmethod
    def from_base(
        cls,
        block: str,
        time_at_width1_us: float,
        power_mw: float,
        widths: Sequence[int],
    ) -> "BlockTestSpec":
        """Candidates under the first-order model ``t(w) = t(1) / w``."""
        if not widths:
            raise ConfigError(f"block {block!r}: empty width list")
        return cls(
            block,
            tuple(
                TamCandidate(w, time_at_width1_us / w, power_mw)
                for w in sorted(set(widths))
            ),
        )

    @property
    def min_width(self) -> int:
        return min(c.width for c in self.candidates)

    @property
    def min_power_mw(self) -> float:
        return min(c.power_mw for c in self.candidates)

    def feasible(
        self, power_budget_mw: float, tam_width: Optional[int]
    ) -> List[TamCandidate]:
        """Candidates that fit the envelope and TAM width at all."""
        return [
            c
            for c in self.candidates
            if c.power_mw <= power_budget_mw
            and (tam_width is None or c.width <= tam_width)
        ]


@dataclass(frozen=True)
class ScheduleBudget:
    """Chip-wide scheduling constraints."""

    #: Power envelope: the sum of active blocks' test power must stay
    #: at or below this at every instant.
    power_mw: float
    #: Total TAM width in lines (``None`` = unconstrained: every block
    #: may use its widest wrapper and only power limits parallelism).
    tam_width: Optional[int] = None

    def __post_init__(self) -> None:
        if self.power_mw <= 0:
            raise ConfigError("power budget must be positive")
        if self.tam_width is not None and self.tam_width < 1:
            raise ConfigError("TAM width must be >= 1")


@dataclass(frozen=True)
class Placement:
    """One block's rectangle, placed: when, how wide, where on the TAM."""

    block: str
    start_us: float
    time_us: float
    power_mw: float
    tam_width: int = 1
    #: First TAM line the wrapper occupies (lines are contiguous).
    tam_offset: int = 0

    @property
    def end_us(self) -> float:
        return self.start_us + self.time_us

    def active_at(self, t_us: float) -> bool:
        return self.start_us <= t_us < self.end_us

    def to_dict(self) -> Dict[str, Any]:
        return {
            "block": self.block,
            "start_us": self.start_us,
            "time_us": self.time_us,
            "power_mw": self.power_mw,
            "tam_width": self.tam_width,
            "tam_offset": self.tam_offset,
        }


@dataclass
class TestSchedule:
    """A complete schedule: placed rectangles in the TAM × time plane.

    The greedy strategy produces placements whose start times group
    into back-to-back sessions; rectangle packing produces free-form
    placements.
    """

    placements: List[Placement]
    power_budget_mw: float
    tam_width: Optional[int] = None
    strategy: str = "greedy"

    # ------------------------------------------------------------------
    # figures of merit
    # ------------------------------------------------------------------
    @property
    def makespan_us(self) -> float:
        """Total test time: when the last block finishes."""
        return max((p.end_us for p in self.placements), default=0.0)

    @property
    def peak_power_mw(self) -> float:
        """Worst instantaneous power (must respect the budget)."""
        return max(
            (power for _t, power in self.power_profile()), default=0.0
        )

    @property
    def serial_time_us(self) -> float:
        """Baseline: every block tested alone, sequentially, at its
        scheduled wrapper width."""
        return sum(p.time_us for p in self.placements)

    @property
    def speedup(self) -> float:
        """Serial time over makespan.

        Raises
        ------
        ConfigError
            On an empty schedule — a speedup of "nothing over nothing"
            is a caller bug, not 1.0.
        """
        if not self.placements:
            raise ConfigError(
                "schedule has no tasks; speedup is undefined"
            )
        return self.serial_time_us / self.makespan_us

    def blocks(self) -> List[str]:
        """Scheduled block names in session/start order."""
        return [
            p.block
            for p in sorted(
                self.placements, key=lambda p: (p.start_us, p.tam_offset)
            )
        ]

    # ------------------------------------------------------------------
    # structure views
    # ------------------------------------------------------------------
    def power_profile(self) -> List[Tuple[float, float]]:
        """Instantaneous power as a step function.

        Returns ``(time_us, power_mw)`` pairs at every event point
        (each placement start/end), where the power holds from that
        time until the next event.
        """
        events = sorted(
            {p.start_us for p in self.placements}
            | {p.end_us for p in self.placements}
        )
        return [
            (
                t,
                sum(p.power_mw for p in self.placements if p.active_at(t)),
            )
            for t in events
        ]

    def tam_profile(self) -> List[Tuple[float, int]]:
        """Occupied TAM lines as a step function over event points."""
        events = sorted(
            {p.start_us for p in self.placements}
            | {p.end_us for p in self.placements}
        )
        return [
            (
                t,
                sum(p.tam_width for p in self.placements if p.active_at(t)),
            )
            for t in events
        ]

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check every schedule invariant; raise :class:`ConfigError`
        on the first violation.

        Invariants: each block placed exactly once; instantaneous power
        under the envelope everywhere; concurrent placements fit the
        TAM width; no two concurrent placements overlap on TAM lines.
        """
        names = [p.block for p in self.placements]
        if len(set(names)) != len(names):
            raise ConfigError("schedule places a block more than once")
        for t, power in self.power_profile():
            if power > self.power_budget_mw + VALIDATE_TOL:
                raise ConfigError(
                    f"power envelope violated at t={t:.3f} us: "
                    f"{power:.3f} mW > {self.power_budget_mw:.3f} mW"
                )
        if self.tam_width is not None:
            for t, used in self.tam_profile():
                if used > self.tam_width:
                    raise ConfigError(
                        f"TAM width violated at t={t:.3f} us: "
                        f"{used} lines > {self.tam_width}"
                    )
            for p in self.placements:
                if p.tam_offset < 0 or (
                    p.tam_offset + p.tam_width > self.tam_width
                ):
                    raise ConfigError(
                        f"block {p.block!r} placed outside the TAM "
                        f"(lines {p.tam_offset}..{p.tam_offset + p.tam_width}"
                        f" of {self.tam_width})"
                    )
            ordered = sorted(
                self.placements, key=lambda p: (p.tam_offset, p.start_us)
            )
            for i, a in enumerate(ordered):
                for b in ordered[i + 1:]:
                    if b.tam_offset >= a.tam_offset + a.tam_width:
                        break
                    overlap_t = (
                        min(a.end_us, b.end_us)
                        - max(a.start_us, b.start_us)
                    )
                    if overlap_t > VALIDATE_TOL:
                        raise ConfigError(
                            f"blocks {a.block!r} and {b.block!r} overlap "
                            f"on TAM lines"
                        )

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """JSON-friendly digest (recorded in ``RunReport.schedule``)."""
        return {
            "strategy": self.strategy,
            "n_blocks": len(self.placements),
            "power_budget_mw": self.power_budget_mw,
            "tam_width": self.tam_width,
            "makespan_us": self.makespan_us,
            "serial_time_us": self.serial_time_us,
            "speedup": self.speedup if self.placements else None,
            "peak_power_mw": self.peak_power_mw,
            "placements": [p.to_dict() for p in self.placements],
        }
