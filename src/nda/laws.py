"""Exhaustive verification of classical laws over a finite range.

Laws are data: an arity and one equation whose sides compose add and mul over
index axes a, b, c.  Scans read each op off its memoised int32 table over
[0..L] x [0..W] (``Arithmetic.op_table``), W being the largest smaller operand
that the law gives op and L the largest larger one; op commutes, so a scan
indexes the rows by the operand of the larger range.  Op is monotone in each
argument, so L and W are read off the equation's sides at the corner
(R, ..., R) before anything is built: mul's table is [0..mul(R, R)] x [0..R]
for assoc-mul and [0..add(R, R)] x [0..R] for distributivity, add's
[0..add(R, R)] x [0..R] for assoc-add and [0..mul(R, R)]^2 for distributivity
(each side at least R).
Commutativity and the neutral laws have no equation: they hold by
construction, and are reported unscanned, with the (R+1)^arity cells decided.
a (op) b is rho(f(a) o f(b)), where rho rounds onto the carrier and
rho(f(k)) = k, f being strictly increasing; o commutes over int, float and
mixed operands, as does the 0 * inf mask, and bind makes f(a) + f(0) and
f(a) * f(1) exactly f(a) (see funcparam).  With P[a, b, c] = op(op(a, b), c),
associativity thus fails exactly where P[a, b, c] != P[c, b, a].  Its scans
tile the (a, c) plane in blocks of ASSOC_TILE indices and compare P[A, :, C]
with the transpose of P[C, :, A] for each pair of blocks A <= C, in
O(R * ASSOC_TILE^2) memory, over narrow copies of each block's columns.
Distributivity reads its sides off the add table S and the mul table M as
a(b + c) = M[S[b, c], a] and ab + ac = S[M[a, b], M[a, c]], in chunks of the
leading index of at most MAX_SCAN_CELLS cells, 9 bytes each (two int32 sides
and a bool mask), in buffers each scan allocates once.  An op whose table would
pass MAX_TABLE_CELLS cells (32 MB) is computed by index_table over its operands
instead: b + c once a scan, ab and a(b + c) once a chunk, and p + p once an a,
p = ab over b in [0..R].  Such a scan takes one leading index a chunk, (R+1)^2
cells.  An associativity scan that needs one reads the outer op over its
distinct inner values x [0..R] and the inner op over [0..R]^2.  Any scan with
an op so computed is refused past MAX_SCAN_CELLS cells in all.  Reports give
holds / fails / not-applicable, the exact violation count and the smallest
counterexample: least largest component, then lexicographic, which is the
first violation in C order of the least cube [0..k]^arity that holds one.
check_laws also reports the Archimedean rows, their extra fields as details.
Both read one index_table column, s + 1 for s in [1, R), up to its least fixed
point b (_stuck); the theorem holds by construction, as both of its sides come
down to whether b exists.

Op tables clamp a dual sum past f(top) to the top, so every tuple is
defined and reports are finite-window approximations of an infinite family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .arith import BLOCK_CELLS, Arithmetic

HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not-applicable"

CONSISTENT = "consistent"

# Cells in one chunk of a scan (9 bytes each), and in the largest op table (4 bytes each)
MAX_SCAN_CELLS = 32_000_000
MAX_TABLE_CELLS = MAX_SCAN_CELLS // 4
ASSOC_TILE = 16  # indices per side of an (a, c) tile of the associativity scans


@dataclass(frozen=True)
class LawReport:
    """Outcome of one law check over the sub-carrier [0..R]."""

    law: str
    status: str
    witness: tuple | None
    upper: int  # R: highest carrier index scanned
    pairs_checked: int
    violations: int | None = None
    details: tuple = ()  # (name, value) pairs a row carries after its columns


def _check_upper(arith: Arithmetic, upper: int) -> None:
    if not 0 <= upper < arith.carrier.size:
        raise ValueError(f"range bound {upper} outside carrier of size {arith.carrier.size}")


def _corner(arith: Arithmetic, side, upper: int, extents: dict[str, tuple[int, int]]) -> int:
    """A side (an axis name or (op, side, side)) at (upper, ..., upper); raises each op's (L, W) to its operands."""
    if isinstance(side, str):
        return upper
    op, i, j = side[0], _corner(arith, side[1], upper, extents), _corner(arith, side[2], upper, extents)
    larger, smaller = extents.get(op, (0, 0))
    extents[op] = (max(larger, i, j), max(smaller, min(i, j)))
    return int(arith.index_table(op, i, j))  # a dual sum past f(top) clamped to the top, as op tables do


def _cells(extent: tuple[int, int]) -> int:
    return (extent[0] + 1) * (extent[1] + 1)


def _extents(arith: Arithmetic, equation, upper: int, arity: int) -> dict[str, tuple[int, int] | None]:
    """Each op's table extents (L, W) in the equation, None past MAX_TABLE_CELLS; refuses a scan it cannot chunk."""
    extents: dict[str, tuple[int, int]] = {}
    for side in equation:  # op is monotone, so the sides at the corner reach each op's largest operands
        _corner(arith, side, upper, extents)
    fits = {op: _cells(extent) <= MAX_TABLE_CELLS for op, extent in extents.items()}
    cube = (upper + 1) ** arity
    for op, (larger, smaller) in extents.items():
        if not fits[op] and cube > MAX_SCAN_CELLS:
            raise ValueError(f"{op} table over [0..{larger}] x [0..{smaller}] for R = {upper} exceeds the limit "
                             f"{MAX_TABLE_CELLS} cells and the scan of {cube} cells the limit {MAX_SCAN_CELLS}; "
                             "lower R")
    return {op: extent if fits[op] else None for op, extent in extents.items()}


def _tables(arith: Arithmetic, extents: dict[str, tuple[int, int] | None]) -> dict[str, np.ndarray]:
    """The memoised op table of each op with extents (L, W): [0..L] x [0..W]."""
    return {op: arith.op_table(op, *extent) for op, extent in extents.items() if extent is not None}


# name -> (arity, needs_mul, equation): an (lhs, rhs) pair of sides, None for a law that holds by construction
_LAWS = {
    "commutativity-add": (2, False, None),
    "commutativity-mul": (2, True, None),
    "assoc-add": (3, False, (("add", ("add", "a", "b"), "c"), ("add", "a", ("add", "b", "c")))),
    "assoc-mul": (3, True, (("mul", ("mul", "a", "b"), "c"), ("mul", "a", ("mul", "b", "c")))),
    "distributivity": (3, True, (("mul", "a", ("add", "b", "c")), ("add", ("mul", "a", "b"), ("mul", "a", "c")))),
    "neutral-zero": (1, False, None),
    "neutral-one": (1, True, None),
}
ALL_LAWS = tuple(_LAWS)
LAW_NAMES = ALL_LAWS + ("archimedean", "theorem-archimedean-mll")  # every row check_laws reports
_TRANSPOSED = {"assoc-add": "add", "assoc-mul": "mul"}  # laws scanned in tiles, and their op


def _least_violation(mask: np.ndarray, offsets: tuple[int, ...]) -> tuple[int, ...]:
    """Least True cell (largest component, then lexicographic) of a block of the cube starting at offsets; one must be."""
    first = mask.argmax(axis=-1)  # only the first True cell along the last axis can be least
    hit = np.take_along_axis(mask, first[..., None], axis=-1)[..., 0]
    lead = np.indices(first.shape, sparse=True)
    key = reduce(np.maximum, [i + o for i, o in zip(lead, offsets)], first + offsets[-1])
    above = max(o + size for o, size in zip(offsets, mask.shape))  # above every key
    cell = np.unravel_index(np.argmin(np.where(hit, key, above)), first.shape)
    return tuple(int(i) + o for i, o in zip(cell + (first[cell],), offsets))


def _plan(arith: Arithmetic, law: str, upper: int):
    """(arity, equation, op extents) of a law, None where it is not applicable; refuses an oversize scan."""
    if law not in _LAWS:
        raise ValueError(f"unknown law {law!r}; choose from {', '.join(ALL_LAWS)}")
    _check_upper(arith, upper)
    arity, needs_mul, equation = _LAWS[law]
    if needs_mul and not arith.multiplicative:
        return None
    return arity, equation, _extents(arith, equation, upper, arity) if equation else {}


def _bounded(op: str, table: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """Refuses operands past op's table, which np.take's mode="wrap" would wrap round instead of raising."""
    if rows.max() >= table.shape[0] or cols.max() >= table.shape[1]:
        raise IndexError(f"{op} operand past its table of shape {table.shape}")


def _distributivity(arith: Arithmetic, tables: dict, n: int):
    """(mask, 1, (lo, 0, 0)) of each chunk of leading indices of [0..n-1]^3, True where a(b + c) != ab + ac.

    a(b + c) is one take of the chunk's columns of M by S[:n, :n], M's rows being the sums, whose range is
    the larger, and ab + ac two takes of S for each a.
    """
    add, mul, index = tables.get("add"), tables.get("mul"), np.arange(n)
    rows = min(n, max(1, MAX_SCAN_CELLS // (n * n))) if add is not None and mul is not None else 1
    sums = (add[:n, :n] if add is not None else arith.index_table("add", index[:, None], index)).astype(np.intp)
    if mul is not None:
        _bounded("mul", mul, sums, index)
    # two sides and a mask, reused by every chunk; a short last chunk takes a prefix
    left, right, masks = (np.empty((rows, n, n), dtype) for dtype in (np.int32, np.int32, bool))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        if mul is None:
            a = index[lo:hi, None]
            lhs, products = arith.index_table("mul", a[:, None], sums), arith.index_table("mul", a, index)
        else:
            lhs, products = np.take(mul[:, lo:hi].T, sums, axis=1, out=left[:hi - lo], mode="wrap"), mul[lo:hi, :n]
        if add is not None:
            _bounded("add", add, products, products)
        for p, out in zip(products, right):
            if add is None:
                out[...] = arith.index_table("add", p[:, None], p)
            else:
                np.take(np.take(add, p, axis=0), p, axis=1, out=out, mode="wrap")
        yield np.not_equal(lhs, right[:hi - lo], out=masks[:hi - lo]), 1, (lo, 0, 0)


def _tiles(arith: Arithmetic, op: str, table: np.ndarray | None, n: int):
    """(mask, weight, offsets) of each tile A x [0..n-1] x C, A <= C, True where P[a, b, c] != P[c, b, a].

    Tiles read copies of each block's columns: outer's in the narrowest unsigned type that holds its
    largest index, inner's as intp, which np.take would otherwise convert them to on every tile.
    """
    index = np.arange(n)  # P[a, b, c] = op(op(a, b), c) = outer[inner[a, b], c]
    if table is None:  # too large: the outer op over the distinct inner values x [0..n-1]
        values, inner = np.unique(arith.index_table(op, index[:, None], index), return_inverse=True)
        inner, outer = inner.reshape(n, n), arith.index_table(op, values[:, None], index)
    else:  # the takes below wrap, so every operand is checked first
        _bounded(op, table, index, index)
        inner, outer = table[:n, :n], table[:, :n]
        _bounded(op, table, inner, index)
    starts, narrow = range(0, n, ASSOC_TILE), np.min_scalar_type(outer.max())
    cols = [np.ascontiguousarray(outer[:, lo:lo + ASSOC_TILE], narrow) for lo in starts]  # every row read
    rows = [np.ascontiguousarray(inner[:, lo:lo + ASSOC_TILE], np.intp) for lo in starts]
    for k, c0 in enumerate(starts):
        for j, a0 in enumerate(starts[:k + 1]):  # inner[:, A] is inner[A, :].T, inner being symmetric
            lhs = np.take(cols[k], rows[j], axis=0, mode="wrap")  # P[A, :, C] as [b, a, c]
            rhs = lhs if j == k else np.take(cols[j], rows[k], axis=0, mode="wrap")
            mask = (lhs != rhs.transpose(0, 2, 1)).transpose(1, 0, 2)  # rhs is P[C, :, A] as [b, c, a]
            del lhs, rhs  # only the mask lives on while the caller reads it
            yield mask, 1 if j == k else 2, (a0, 0, c0)  # a tile off the diagonal stands for its mirror too


def _fold(masks, n: int) -> tuple[int, tuple | None]:
    """(weighted count of True cells, least True cell or None) over the (mask, weight, offsets) blocks of a scan."""
    count, best = 0, (n, None)  # (largest component, cell) of the least True cell so far
    for mask, weight, offsets in masks:
        hits = int(np.count_nonzero(mask))
        count += weight * hits
        if hits and max(offsets) <= best[0]:  # a block's largest components are at least its offsets
            cell = _least_violation(mask, offsets)
            best = min(best, (max(cell), cell))
    return count, best[1]


def check_law(arith: Arithmetic, law: str, upper: int) -> LawReport:
    """Scan one law exhaustively over carrier indices [0, upper].

    Associativity is scanned in tiles (_tiles).  pairs_checked is still
    (R+1)^3: commutativity decides the mirrored half.  Distributivity scans
    chunks of leading indices off its add and mul tables (_distributivity),
    and computes an op with no table over each chunk's operands.  A law
    without an equation holds by construction (see the module docstring).
    """
    plan = _plan(arith, law, upper)
    if plan is None:
        return LawReport(law, NOT_APPLICABLE, None, upper, 0, None)
    arity, equation, extents = plan
    n, op = upper + 1, _TRANSPOSED.get(law)
    if equation is None:
        return LawReport(law, HOLDS, None, upper, n ** arity, 0)
    tables = _tables(arith, extents)
    masks = _tiles(arith, op, tables.get(op), n) if op else _distributivity(arith, tables, n)
    count, cell = _fold(masks, n)
    witness = cell and tuple(arith.carrier.value_at(i) for i in cell)
    return LawReport(law, FAILS if count else HOLDS, witness, upper, n ** arity, count)


def check_laws(arith: Arithmetic, names: list[str] | tuple[str, ...], upper: int) -> list[LawReport]:
    """The report of each of LAW_NAMES in names, in order, each op table built once, over every scan's rectangle.

    Every name is validated, and an oversize scan refused, before any table is
    built.  An op whose scans' rectangles span more than MAX_TABLE_CELLS
    together (add, where assoc-add reads [0..add(R, R)] x [0..R] and
    distributivity [0..mul(R, R)]^2) is left to each scan, which replaces
    the memoised table with its own.  Each scan allocates its own chunk
    buffers, so nothing outlives the call but the memoised op tables.
    """
    if unknown := [name for name in names if name not in LAW_NAMES]:
        raise ValueError(f"unknown law {unknown[0]!r}; choose from {', '.join(LAW_NAMES)}")
    extents = {}
    for law in names:
        plan = _plan(arith, law, upper) if law in _LAWS else None  # None for an Archimedean row, or not applicable
        for op, extent in (plan[2] if plan else {}).items():
            if extent is not None:
                larger, smaller = extents.get(op, extent)
                extents[op] = (max(larger, extent[0]), max(smaller, extent[1]))
    _tables(arith, {op: extent for op, extent in extents.items() if _cells(extent) <= MAX_TABLE_CELLS})
    return [check_law(arith, law, upper) if law in _LAWS else
            check_archimedean(arith, upper) if law == "archimedean" else
            verify_archimedean_theorem(arith, upper) for law in names]


def _stuck(arith: Arithmetic, upper: int) -> int | None:
    """Least b in [1, R) with b + 1 = b, or None: index_table in blocks of BLOCK_CELLS cells, to the first hit."""
    _check_upper(arith, upper)
    for lo in range(1, upper, BLOCK_CELLS):
        b = np.arange(lo, min(upper, lo + BLOCK_CELLS))
        stuck = np.flatnonzero(arith.index_table("add", b, 1) == b)
        if stuck.size:
            return lo + int(stuck[0])
    return None


def check_archimedean(arith: Arithmetic, upper: int) -> LawReport:
    """Search for m whose repeated sums get stuck below some n <= R.

    Only a fixed point below R (the report's detail) gives a witness (m, n),
    n = the fixed point + 1; the saturated top is none, as its sums may have
    kept growing on a larger carrier.  Add is monotone and s + m >= s, so
    s + m = s forces s + 1 = s, and the sums of 1 climb to exactly the least
    such s, b (_stuck): below it s < s + 1 <= b + 1 = b.  pairs_checked counts
    the m decided, 1 where it fails, R where it holds.
    """
    b, value = _stuck(arith, upper), arith.carrier.value_at
    if b is None:
        return LawReport("archimedean", HOLDS, None, upper, upper, None, (("fixed_point", None),))
    return LawReport("archimedean", FAILS, (value(1), value(b + 1)), upper, 1, None, (("fixed_point", value(b)),))


def verify_archimedean_theorem(arith: Arithmetic, upper: int) -> LawReport:
    """Check Archimedean <=> (a << b only for a = 0); holds by construction.

    a << b counts only where b < R, as only a fixed point below R is an
    Archimedean witness.  b + a = b forces b + 1 = b (see check_archimedean),
    so the least (a, b) with a << b and a > 0, the witness, is (1, the least
    such b), the b at which the sums of 1 get stuck.  Either side is thus
    whether that b exists.  pairs_checked counts the (R+1)^2 cells decided.
    """
    b, value = _stuck(arith, upper), arith.carrier.value_at
    return LawReport("theorem-archimedean-mll", HOLDS, None if b is None else (value(1), value(b)), upper,
                     (upper + 1) ** 2, None, (("consistency", CONSISTENT), ("archimedean", b is None)))
