"""Don't-care fill policies for test cubes (paper Section 3.1).

TetraMAX offers four relevant fills and the paper's key lever is
choosing among them:

* ``random`` — conventional: maximises fortuitous fault detection and
  (the paper's point) switching activity,
* ``0`` / ``1`` — force all don't-care cells low / high; ``0`` gave the
  paper its best supply-noise results,
* ``adjacent`` — each don't-care cell copies the nearest preceding care
  value along its scan chain (repeating values minimise shift toggles).

As an extension we also provide ``preferred`` fill (the
signal-probability-guided technique from the later low-power-fill
literature): each don't-care cell takes the value its flop is most
likely to *hold through the launch edge*, minimising expected launch
transitions.  The per-flop preferred bits come from
:func:`preferred_fill_bits`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..dft.scan import ScanConfig
from ..errors import AtpgError

FILL_POLICIES = ("random", "0", "1", "adjacent", "preferred")


def apply_fill(
    cube: Dict[int, int],
    n_flops: int,
    policy: str,
    scan: Optional[ScanConfig] = None,
    rng: Optional[np.random.Generator] = None,
    preferred: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Complete a care-bit cube into a full V1 vector.

    Parameters
    ----------
    cube:
        flop index -> care bit.
    n_flops:
        Total scan cells.
    policy:
        One of :data:`FILL_POLICIES`.
    scan:
        Required for ``adjacent`` (fill follows chain order).
    rng:
        Required for ``random``.
    preferred:
        Required for ``preferred``: per-flop bits from
        :func:`preferred_fill_bits`.

    Returns
    -------
    numpy.ndarray
        uint8 vector of length *n_flops*.
    """
    if policy not in FILL_POLICIES:
        raise AtpgError(
            f"unknown fill policy {policy!r}; choose from {FILL_POLICIES}"
        )
    v1 = np.zeros(n_flops, dtype=np.uint8)
    care = np.zeros(n_flops, dtype=bool)
    for fi, bit in cube.items():
        v1[fi] = bit & 1
        care[fi] = True

    if policy == "0":
        return v1  # don't-cares already zero
    if policy == "1":
        v1[~care] = 1
        return v1
    if policy == "random":
        if rng is None:
            raise AtpgError("random fill needs an rng")
        noise = rng.integers(0, 2, size=n_flops, dtype=np.uint8)
        v1[~care] = noise[~care]
        return v1
    if policy == "preferred":
        if preferred is None or len(preferred) != n_flops:
            raise AtpgError(
                "preferred fill needs a per-flop bit table "
                "(preferred_fill_bits)"
            )
        table = np.asarray(preferred, dtype=np.uint8)
        v1[~care] = table[~care]
        return v1

    # adjacent
    if scan is None:
        raise AtpgError("adjacent fill needs the scan configuration")
    for chain in scan.chains:
        last: Optional[int] = None
        # First pass: propagate the nearest preceding care value.
        for fi in chain.flops:
            if care[fi]:
                last = int(v1[fi])
            elif last is not None:
                v1[fi] = last
        # Leading don't-cares copy the first care value (or stay 0).
        first_care = next((fi for fi in chain.flops if care[fi]), None)
        if first_care is not None:
            lead_val = int(v1[first_care])
            for fi in chain.flops:
                if care[fi]:
                    break
                v1[fi] = lead_val
    return v1


def care_mask(cube: Dict[int, int], n_flops: int) -> np.ndarray:
    """Boolean care-bit mask for a cube."""
    mask = np.zeros(n_flops, dtype=bool)
    for fi in cube:
        mask[fi] = True
    return mask


def apply_per_block_fill(
    cube: Dict[int, int],
    n_flops: int,
    flop_blocks: Sequence[Optional[str]],
    block_policies: Dict[str, str],
    default_fill: str = "0",
    scan: Optional[ScanConfig] = None,
    rng: Optional[np.random.Generator] = None,
    preferred: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Different fill per block — the paper's "more ideal scenario".

    "A more ideal scenario would be that the ATPG tool provides
    different fill options for don't-care bits in different blocks.
    This would allow us to generate patterns in some blocks with random
    options yet keep the switching activity in other blocks to a
    minimum." (Section 3.1.)

    Each block's don't-care cells are filled with its own policy
    (``block_policies``, falling back to *default_fill*); care bits
    are preserved everywhere.
    """
    if len(flop_blocks) != n_flops:
        raise AtpgError("flop_blocks must cover every scan cell")
    policies = set(block_policies.values()) | {default_fill}
    unknown = policies - set(FILL_POLICIES)
    if unknown:
        raise AtpgError(f"unknown fill policies {sorted(unknown)}")

    # Fill the whole vector once per distinct policy, then stitch by
    # block membership (keeps 'adjacent' semantics chain-consistent
    # within each policy's view).
    filled: Dict[str, np.ndarray] = {}
    for policy in policies:
        filled[policy] = apply_fill(
            cube, n_flops, policy, scan=scan, rng=rng,
            preferred=preferred,
        )
    v1 = np.zeros(n_flops, dtype=np.uint8)
    for fi in range(n_flops):
        block = flop_blocks[fi]
        policy = block_policies.get(block, default_fill) \
            if block is not None else default_fill
        v1[fi] = filled[policy][fi]
    for fi, bit in cube.items():
        v1[fi] = bit & 1
    return v1


def preferred_fill_bits(
    netlist,
    domain: str,
    n_samples: int = 64,
    seed: int = 0,
) -> np.ndarray:
    """Per-flop preferred V1 bits minimising expected launch toggles.

    For each pulsed flop, sample random scan states, compute the LOC
    launch state S2 in one bit-parallel pass, and choose the V1 bit the
    flop is most likely to still hold after the launch edge —
    ``round(P(S2 = 1))``.  Held (non-pulsed) flops never toggle at
    launch, so their preferred bit is 0 (quiet shift).
    """
    from ..sim.logic import LogicSim, launch_capture, pack_matrix

    rng = np.random.default_rng(seed)
    sim = LogicSim(netlist)
    n_flops = netlist.n_flops
    bits = rng.integers(0, 2, size=(n_samples, n_flops))
    packed, mask = pack_matrix(bits)
    cyc = launch_capture(sim, packed, domain, mask=mask)
    preferred = np.zeros(n_flops, dtype=np.uint8)
    for fi in cyc.pulsed_flops:
        ones = bin(cyc.launch_state[fi]).count("1")
        preferred[fi] = 1 if ones * 2 > n_samples else 0
    return preferred
