"""At-speed scan test protocols: launch-off-capture, launch-off-shift,
enhanced scan.

A protocol defines *how the launch state V2 is derived from the shifted
state V1* (paper Section 1.1) and the clocking of the launch-to-capture
cycle.  The actual state computation needs a logic simulator and lives
in :mod:`repro.sim.logic`; this module holds the protocol descriptors
and the pure-data transformations (e.g. the shift-by-one of LOS).

Only the launch-to-capture window matters for supply noise here — shift
power is explicitly out of scope (slow 10 MHz shift clock), matching the
paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence

from ..errors import ScanError
from ..sim.logic import los_shift

if TYPE_CHECKING:  # pragma: no cover
    from .scan import ScanConfig


@dataclass(frozen=True)
class AtSpeedProtocol:
    """Descriptor of one launch mechanism.

    ``style`` is one of ``"loc"`` (launch-off-capture, a.k.a. broadside:
    V2 is the functional response to V1), ``"los"`` (launch-off-shift,
    a.k.a. skewed-load: V2 is V1 shifted one position along each chain)
    or ``"es"`` (enhanced scan: V2 arbitrary, needs hold-scan cells).
    """

    style: str
    description: str

    def __post_init__(self) -> None:
        if self.style not in ("loc", "los", "es"):
            raise ScanError(f"unknown protocol style {self.style!r}")

    @property
    def v2_is_functional(self) -> bool:
        """True when V2 is computed by the circuit itself (LOC)."""
        return self.style == "loc"

    def shift_state(
        self,
        v1: Dict[int, int],
        scan: "ScanConfig",
        scan_in_bits: Dict[int, int] | None = None,
    ) -> Dict[int, int]:
        """The LOS launch state: each cell takes its upstream neighbour.

        ``v1`` maps flop index -> bit.  The scan-in end of each chain
        takes the corresponding bit of *scan_in_bits* (keyed by chain
        index; defaults to 0), mimicking the final shift-in bit.

        Raises
        ------
        ScanError
            If called on a protocol other than LOS.
        """
        if self.style != "los":
            raise ScanError(f"shift_state is LOS-only, not {self.style!r}")
        return los_shift(v1, scan, scan_in_bits)


#: The paper's protocol: V2 = functional response (broadside).
LAUNCH_OFF_CAPTURE = AtSpeedProtocol(
    "loc",
    "launch-off-capture / broadside: V2 is the functional response to V1",
)

#: Related-work baseline: V2 = one-bit shift of V1 (skewed-load).
LAUNCH_OFF_SHIFT = AtSpeedProtocol(
    "los",
    "launch-off-shift / skewed-load: V2 is V1 shifted by one chain position",
)

#: Related-work baseline: arbitrary (V1, V2) pairs via hold-scan cells.
ENHANCED_SCAN = AtSpeedProtocol(
    "es",
    "enhanced scan: V1 and V2 are both fully controllable",
)
