"""Three-valued (0 / 1 / X) logic used by the implication engine.

Values are plain ints: ``ZERO = 0``, ``ONE = 1``, ``X = 2``.  The
evaluators are pessimistic-exact for each cell kind: an output is X only
when the defined inputs cannot determine it (e.g. AND with a 0 input is
0 even if other inputs are X).
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Sequence, Tuple

from ..errors import AtpgError

ZERO = 0
ONE = 1
X = 2

_VALUES = (ZERO, ONE, X)


def v_not(a: int) -> int:
    if a == X:
        return X
    return 1 - a


def v_and(vals: Sequence[int]) -> int:
    out = ONE
    for v in vals:
        if v == ZERO:
            return ZERO
        if v == X:
            out = X
    return out


def v_or(vals: Sequence[int]) -> int:
    out = ZERO
    for v in vals:
        if v == ONE:
            return ONE
        if v == X:
            out = X
    return out


def v_xor2(a: int, b: int) -> int:
    if a == X or b == X:
        return X
    return a ^ b


def v_mux2(d0: int, d1: int, sel: int) -> int:
    if sel == ZERO:
        return d0
    if sel == ONE:
        return d1
    # sel unknown: output known only if both data inputs agree.
    if d0 == d1 and d0 != X:
        return d0
    return X


def _e_inv(v: Sequence[int]) -> int:
    return v_not(v[0])


def _e_buf(v: Sequence[int]) -> int:
    return v[0]


def _e_and(v: Sequence[int]) -> int:
    return v_and(v)


def _e_nand(v: Sequence[int]) -> int:
    return v_not(v_and(v))


def _e_or(v: Sequence[int]) -> int:
    return v_or(v)


def _e_nor(v: Sequence[int]) -> int:
    return v_not(v_or(v))


def _e_xor2(v: Sequence[int]) -> int:
    return v_xor2(v[0], v[1])


def _e_xnor2(v: Sequence[int]) -> int:
    return v_not(v_xor2(v[0], v[1]))


def _e_mux2(v: Sequence[int]) -> int:
    return v_mux2(v[0], v[1], v[2])


def _e_aoi21(v: Sequence[int]) -> int:
    return v_not(v_or([v_and(v[:2]), v[2]]))


def _e_oai21(v: Sequence[int]) -> int:
    return v_not(v_and([v_or(v[:2]), v[2]]))


def _e_tie0(v: Sequence[int]) -> int:
    return ZERO


def _e_tie1(v: Sequence[int]) -> int:
    return ONE


#: Kind -> three-valued evaluator.
EVAL3: Dict[str, Callable[[Sequence[int]], int]] = {
    "INV": _e_inv,
    "BUF": _e_buf,
    "CLKBUF": _e_buf,
    "AND2": _e_and,
    "AND3": _e_and,
    "AND4": _e_and,
    "NAND2": _e_nand,
    "NAND3": _e_nand,
    "NAND4": _e_nand,
    "OR2": _e_or,
    "OR3": _e_or,
    "OR4": _e_or,
    "NOR2": _e_nor,
    "NOR3": _e_nor,
    "NOR4": _e_nor,
    "XOR2": _e_xor2,
    "XNOR2": _e_xnor2,
    "MUX2": _e_mux2,
    "AOI21": _e_aoi21,
    "OAI21": _e_oai21,
    "TIE0": _e_tie0,
    "TIE1": _e_tie1,
}


def eval3(kind: str, inputs: Sequence[int]) -> int:
    """Evaluate a cell kind in three-valued logic."""
    fn = EVAL3.get(kind)
    if fn is None:
        raise AtpgError(f"no three-valued evaluator for kind {kind!r}")
    return fn(inputs)


#: Widest gate a base-3 truth table covers (3**4 = 81 entries).
MAX_TABLE_ARITY = 4


@functools.lru_cache(maxsize=None)
def truth_table(kind: str, arity: int) -> Tuple[int, ...]:
    """Base-3 truth table of *kind* with *arity* inputs, built from
    :data:`EVAL3`.

    Entry ``v[0] + 3*v[1] + 9*v[2] + 27*v[3]`` is the output for input
    values ``v`` (pin 0 is the least significant digit), so an input
    slot that always reads 0 leaves the index unchanged.
    """
    fn = EVAL3.get(kind)
    if fn is None:
        raise AtpgError(f"no three-valued evaluator for kind {kind!r}")
    if not 0 <= arity <= MAX_TABLE_ARITY:
        raise AtpgError(
            f"{kind} with {arity} inputs exceeds the "
            f"{MAX_TABLE_ARITY}-input truth-table limit"
        )
    return tuple(
        fn([(index // 3 ** pin) % 3 for pin in range(arity)])
        for index in range(3 ** arity)
    )
