"""Exhaustive verification of classical laws over a finite range.

Laws are data: an arity and equations whose sides compose add and mul over
broadcast index axes, each operation gathered from one table over its
distinct operands (``Arithmetic.index_table``).  A scan of carrier indices
[0, R] holds O((R+1)^arity) cells at once; one of more than MAX_SCAN_CELLS
cells is refused before anything is allocated.  Reports give holds / fails /
not-applicable, the exact violation count and the smallest counterexample:
least largest component, then lexicographic, which is the first violation
in C order of the least cube [0..k]^arity that holds one.

Op tables clamp a dual sum past f(top) to the top, so every tuple is
defined and reports are finite-window approximations of an infinite family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .arith import Arithmetic
from .errors import CarrierExhaustedError

HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not-applicable"

CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"

# A scan holds two gathered int32 sides and a violation mask, 9 bytes a cell:
# 32M cells are some 290 MB.  That admits the 3-ary laws up to R = 316 and
# refuses R = 1000 (1G cells, 9 GB).
MAX_SCAN_CELLS = 32_000_000


@dataclass(frozen=True)
class LawReport:
    """Outcome of one law check over the sub-carrier [0..R]."""

    law: str
    status: str
    witness: tuple | None
    upper: int  # R: highest carrier index scanned
    pairs_checked: int
    violations: int | None = None

    @property
    def range_text(self) -> str:
        return f"0..{self.upper}"


@dataclass(frozen=True)
class ArchimedeanReport:
    """Whether repeated addition of any m <= R eventually exceeds every n <= R."""

    archimedean: bool
    upper: int
    witness: tuple | None = None  # (m, n) with the sums of m stuck below n
    fixed_point: int | float | None = None
    candidates_checked: int = 0


@dataclass(frozen=True)
class TheoremReport:
    """Machine check of: Archimedean  <=>  (a << b always implies a = 0)."""

    status: str  # consistent | inconsistent
    archimedean: bool
    mll_only_zero: bool
    upper: int
    mll_witness: tuple | None = None  # (a, b) with a << b and a > 0, if any


def _check_upper(arith: Arithmetic, upper: int) -> None:
    if not 0 <= upper < arith.carrier.size:
        raise ValueError(f"range bound {upper} outside carrier of size {arith.carrier.size}")


def _axes(upper: int, arity: int) -> tuple[np.ndarray, ...]:
    """Index axes that broadcast to the cube [0..upper]^arity; refuses an oversize cube."""
    if (upper + 1) ** arity > MAX_SCAN_CELLS:
        raise ValueError(f"scan of {(upper + 1) ** arity} cells exceeds the limit {MAX_SCAN_CELLS}; lower R")
    return np.ix_(*[np.arange(upper + 1)] * arity)


def _apply(scan: Arithmetic, op: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """op over broadcastable index arrays, through one table over their distinct values."""
    ux, ix = np.unique(x, return_inverse=True)
    uy, iy = np.unique(y, return_inverse=True)
    table = scan.index_table(op, ux[:, None], uy[None, :])
    return table[ix.reshape(x.shape), iy.reshape(y.shape)]


def _side(scan: Arithmetic, side, axes: tuple[np.ndarray, ...]) -> np.ndarray:
    """Indices of one side of an equation: an axis name, a carrier value, or (op, side, side)."""
    if isinstance(side, str):
        return axes["abc".index(side)]
    if isinstance(side, int):
        return np.array(scan.carrier.index_of(side))
    op, x, y = side
    return _apply(scan, op, _side(scan, x, axes), _side(scan, y, axes))


# name -> (arity, needs_mul, equations), each equation an (lhs, rhs) pair of sides
_LAWS = {
    "commutativity-add": (2, False, [(("add", "a", "b"), ("add", "b", "a"))]),
    "commutativity-mul": (2, True, [(("mul", "a", "b"), ("mul", "b", "a"))]),
    "assoc-add": (3, False, [(("add", ("add", "a", "b"), "c"), ("add", "a", ("add", "b", "c")))]),
    "assoc-mul": (3, True, [(("mul", ("mul", "a", "b"), "c"), ("mul", "a", ("mul", "b", "c")))]),
    "distributivity": (3, True, [(("mul", "a", ("add", "b", "c")), ("add", ("mul", "a", "b"), ("mul", "a", "c")))]),
    "neutral-zero": (1, False, [(("add", "a", 0), "a"), (("add", 0, "a"), "a")]),
    "neutral-one": (1, True, [(("mul", "a", 1), "a"), (("mul", 1, "a"), "a")]),
}
ALL_LAWS = tuple(_LAWS)


def _smallest_witness(mask: np.ndarray) -> tuple[int, ...] | None:
    """Least violation by largest component, then lexicographic: first in C order in the least cube."""
    for k in range(mask.shape[0]):
        cube = mask[(slice(0, k + 1),) * mask.ndim]
        if any(cube[(slice(None),) * d + (k,)].any() for d in range(mask.ndim)):
            return tuple(int(i) for i in np.unravel_index(np.argmax(cube), cube.shape))
    return None


def check_law(arith: Arithmetic, law: str, upper: int) -> LawReport:
    """Scan one law exhaustively over carrier indices [0, upper]."""
    if law not in _LAWS:
        raise ValueError(f"unknown law {law!r}; choose from {', '.join(ALL_LAWS)}")
    _check_upper(arith, upper)
    arity, needs_mul, equations = _LAWS[law]
    if needs_mul and not arith.multiplicative:
        return LawReport(law, NOT_APPLICABLE, None, upper, 0, None)
    axes = _axes(upper, arity)
    mask = reduce(np.logical_or, (_side(arith, lhs, axes) != _side(arith, rhs, axes) for lhs, rhs in equations))
    count = int(np.count_nonzero(mask))
    if not count:
        return LawReport(law, HOLDS, None, upper, mask.size, 0)
    witness = tuple(arith.carrier.value_at(i) for i in _smallest_witness(mask))
    return LawReport(law, FAILS, witness, upper, mask.size, count)


def _fixed_point_index(arith: Arithmetic, mi: int) -> int:
    s = mi
    for _ in range(arith.carrier.size):
        try:
            nxt = arith.add_index(s, mi)
        except CarrierExhaustedError:  # a dual sum left the window: it stops at the top
            return arith.carrier.size - 1
        if nxt == s:
            return s
        s = nxt
    return s


def check_archimedean(arith: Arithmetic, upper: int) -> ArchimedeanReport:
    """Search for m whose repeated sums get stuck below some n <= R.

    Repeated sums on the finite window either reach a genuine fixed point or
    climb to the saturated top.  The top is excluded as evidence: a sum that
    reaches it may well have kept growing on a larger carrier, so only a
    fixed point strictly below some n in range counts as a witness.
    """
    _check_upper(arith, upper)
    top = arith.carrier.size - 1
    for mi in range(1, upper + 1):
        fp = _fixed_point_index(arith, mi)
        if fp == top:
            continue
        ni = fp + 1
        if ni <= upper:
            return ArchimedeanReport(
                False, upper,
                witness=(arith.carrier.value_at(mi), arith.carrier.value_at(ni)),
                fixed_point=arith.carrier.value_at(fp),
                candidates_checked=mi,
            )
    return ArchimedeanReport(True, upper, candidates_checked=upper)


def verify_archimedean_theorem(arith: Arithmetic, upper: int) -> TheoremReport:
    """Check Archimedean <=> (a << b only for a = 0), both sides computed."""
    archimedean = check_archimedean(arith, upper).archimedean  # validates upper
    b, a = _axes(upper, 2)
    # a << b  <=>  add(b, a) == b; a = 0 holds by neutrality and is no evidence
    cell = _smallest_witness((_apply(arith, "add", b, a) == b) & (a > 0))
    mll_witness = None if cell is None else tuple(arith.carrier.value_at(i) for i in cell[::-1])
    only_zero = cell is None
    status = CONSISTENT if archimedean == only_zero else INCONSISTENT
    return TheoremReport(status, archimedean, only_zero, upper, mll_witness)
