"""Chip floorplan: block regions and instance placement.

Reproduces the topology of the paper's Figure 1: six blocks B1–B6.
B5 is the large central block — the farthest from the periphery supply
pads and the most power-dense, which is why it shows the worst IR-drop
in Tables 3/4 and Figures 2/3.  The remaining blocks hug the periphery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..errors import ConfigError

#: A scalar coordinate or flag or, elementwise, an array of them.
Coord = Union[float, np.ndarray]
Flag = Union[bool, np.ndarray]

#: Canonical block names of the Turbo-Eagle case study.
BLOCK_NAMES = ("B1", "B2", "B3", "B4", "B5", "B6")


@dataclass(frozen=True)
class BlockRegion:
    """An axis-aligned rectangular block region, in micrometres."""

    name: str
    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ConfigError(f"degenerate region for block {self.name!r}")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Tuple[float, float]:
        return ((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)

    def contains(self, x: Coord, y: Coord) -> Flag:
        """Half-open ``[x0, x1) x [y0, y1)`` test, elementwise over
        arrays."""
        return (self.x0 <= x) & (x < self.x1) & (self.y0 <= y) & (y < self.y1)

    def random_point(self, rng: np.random.Generator) -> Tuple[float, float]:
        """A uniform random placement location inside the region."""
        return (
            float(rng.uniform(self.x0, self.x1)),
            float(rng.uniform(self.y0, self.y1)),
        )


class Floorplan:
    """Chip outline plus named block regions."""

    def __init__(self, width: float, height: float,
                 regions: Dict[str, BlockRegion],
                 tam_width: Optional[int] = None):
        if width <= 0 or height <= 0:
            raise ConfigError("chip dimensions must be positive")
        if tam_width is not None and tam_width < 1:
            raise ConfigError("TAM width must be >= 1")
        self.width = width
        self.height = height
        #: Test Access Mechanism trunk width in lines; the scheduling
        #: plane's height.  The SOC generator records the scan chain
        #: count here (one line per chain).
        self.tam_width = tam_width
        self.regions = dict(regions)
        for region in self.regions.values():
            if not (0 <= region.x0 and region.x1 <= width
                    and 0 <= region.y0 and region.y1 <= height):
                raise ConfigError(
                    f"block {region.name!r} extends outside the chip"
                )

    def __iter__(self) -> Iterator[BlockRegion]:
        return iter(self.regions.values())

    def region(self, block: str) -> BlockRegion:
        try:
            return self.regions[block]
        except KeyError:
            raise ConfigError(f"no block named {block!r}") from None

    def block_at(self, x: float, y: float) -> Optional[str]:
        """Name of the block containing point (x, y), if any."""
        for region in self.regions.values():
            if region.contains(x, y):
                return region.name
        return None

    @property
    def center(self) -> Tuple[float, float]:
        return (self.width / 2.0, self.height / 2.0)

    def distance_to_periphery(self, x: float, y: float) -> float:
        """Shortest distance from a point to the chip edge (pad ring)."""
        return min(x, y, self.width - x, self.height - y)

    def adjacent_blocks(self, block: str, tol: float = 1e-6) -> List[str]:
        """Blocks sharing a boundary segment (not just a corner) with
        *block* — the neighbours its power-grid droop couples into."""
        a = self.region(block)
        return sorted(
            name
            for name, b in self.regions.items()
            if name != block and _regions_abut(a, b, tol)
        )

    def adjacency(self) -> Dict[str, List[str]]:
        """Block-name -> sorted adjacent block names, for every block."""
        return {name: self.adjacent_blocks(name) for name in self.regions}

    def render_ascii(self, cols: int = 48, rows: int = 18) -> str:
        """ASCII rendering of the floorplan (the Figure 1 substitute)."""
        canvas = [[" "] * cols for _ in range(rows)]
        for r in range(rows):
            for c in range(cols):
                x = (c + 0.5) / cols * self.width
                y = (1.0 - (r + 0.5) / rows) * self.height
                block = self.block_at(x, y)
                canvas[r][c] = block[-1] if block else "."
        border = "+" + "-" * cols + "+"
        body = "\n".join("|" + "".join(row) + "|" for row in canvas)
        return f"{border}\n{body}\n{border}"


def _regions_abut(a: BlockRegion, b: BlockRegion, tol: float) -> bool:
    """True when two rectangles share a boundary segment of length > tol."""
    x_overlap = min(a.x1, b.x1) - max(a.x0, b.x0)
    y_overlap = min(a.y1, b.y1) - max(a.y0, b.y0)
    share_vertical = (
        x_overlap > tol
        and (abs(a.y1 - b.y0) <= tol or abs(b.y1 - a.y0) <= tol)
    )
    share_horizontal = (
        y_overlap > tol
        and (abs(a.x1 - b.x0) <= tol or abs(b.x1 - a.x0) <= tol)
    )
    return share_vertical or share_horizontal


def make_turbo_eagle_floorplan(chip_um: float = 1000.0) -> Floorplan:
    """Six-block floorplan shaped like the paper's Figure 1.

    B5 occupies the large central area; B1/B2 sit along the top edge,
    B3/B4 along the bottom, and B6 is a tall strip on the right.
    Region sizes track the flop-count proportions used by the SOC
    generator so that placement density stays roughly uniform.
    """
    w = h = chip_um
    regions = {
        # top edge
        "B1": BlockRegion("B1", 0.00 * w, 0.72 * h, 0.48 * w, 1.00 * h),
        "B2": BlockRegion("B2", 0.48 * w, 0.72 * h, 0.80 * w, 1.00 * h),
        # bottom edge
        "B3": BlockRegion("B3", 0.00 * w, 0.00 * h, 0.40 * w, 0.26 * h),
        "B4": BlockRegion("B4", 0.40 * w, 0.00 * h, 0.80 * w, 0.26 * h),
        # central power-dense block
        "B5": BlockRegion("B5", 0.10 * w, 0.26 * h, 0.80 * w, 0.72 * h),
        # right-hand strip
        "B6": BlockRegion("B6", 0.80 * w, 0.00 * h, 1.00 * w, 1.00 * h),
    }
    return Floorplan(w, h, regions)


def periphery_pad_positions(
    floorplan: Floorplan, n_pads: int
) -> List[Tuple[float, float]]:
    """Evenly spaced pad locations around the die edge.

    Used for both the VDD and the VSS pad rings (the paper places 37 of
    each uniformly around the periphery).
    """
    if n_pads < 1:
        raise ConfigError("need at least one pad")
    w, h = floorplan.width, floorplan.height
    perimeter = 2.0 * (w + h)
    positions: List[Tuple[float, float]] = []
    for i in range(n_pads):
        s = (i + 0.5) / n_pads * perimeter
        if s < w:
            positions.append((s, 0.0))
        elif s < w + h:
            positions.append((w, s - w))
        elif s < 2 * w + h:
            positions.append((2 * w + h - s, h))
        else:
            positions.append((0.0, perimeter - s))
    return positions
