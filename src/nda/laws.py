"""Exhaustive verification of classical laws over a finite range.

Each law of _LAWS names its scan: associativity tiles (_tiles) of add or mul,
distributivity's interval scan (_intervals), which falls back to its chunks
(_distributivity) for any f but an integral power on an int carrier, or none.
Commutativity and the neutral laws name none: they hold by construction, and
are reported unscanned, with the (R+1)^arity cells decided.  The tiles and
chunks read each op off its memoised int32 table over [0..L] x [0..W]
(``Arithmetic.op_table``), whose extents _plan states before anything is built
(see _LAWS); op commutes, so a scan indexes the rows by the operand of the
larger range.  The interval scan reads b + c off index_table, and no table.
a (op) b is rho(f(a) o f(b)), where rho rounds onto the carrier and
rho(f(k)) = k, f being strictly increasing; o commutes over int, float and
mixed operands, as does the 0 * inf mask, and bind makes f(a) + f(0) and
f(a) * f(1) exactly f(a) (see funcparam).  With P[a, b, c] = op(op(a, b), c),
associativity thus fails exactly where P[a, b, c] != P[c, b, a].  Its scans
tile the (a, c) plane in blocks of ASSOC_TILE indices and compare P[A, :, C]
with the transpose of P[C, :, A] for each pair of blocks A <= C, in
O(R * ASSOC_TILE^2) memory, over narrow copies of each block's columns.
Distributivity's chunks read its sides off the add table S and mul table M as
a(b + c) = M[S[b, c], a] and ab + ac = S[M[a, b], M[a, c]], in chunks of the
leading index of at most MAX_SCAN_CELLS cells, 8 bytes each (two int32 sides),
in buffers each scan allocates once.  A violation is a nonzero cell of
a(b + c) - (ab + ac), written over the left side (carrier indices stay below
carrier.MAX_SIZE = 2^22, so no difference wraps) and folded one leading index
at a time.  The top T absorbs, so no scan gathers a cell T decides: with
monotone op tables and 0 + x and 1 * x exactly x, T + x = T, T * x = T for
x >= 1 and x o y >= y (x >= 1 for mul), so a cell of associativity holds once
op(a, b) or op(c, b) is T, and one of distributivity with a >= 1 once ab or ac
is T, both sides then being T.  With k(x) the least b with op(x, b) = T (n less
the T cells of x's row), a tile gathers only b < k(c0) and a chunk from lo
only b, c < k(lo); pairs_checked still counts the cells so decided.  An int +
float target rounds, so where f has a float below its top beside ints k = n.
An op whose table would pass MAX_TABLE_CELLS cells (32 MB) is computed by
index_table over its operands instead: b + c once a scan, ab and a(b + c) once
a chunk, and p + p once an a, p = ab over b in [0..R].  Such a scan takes one
leading index a chunk, (R+1)^2 cells.  An associativity scan that needs one
reads the outer op over its distinct inner values x [0..R] and the inner op
over [0..R]^2.  Any scan with an op so computed is refused past MAX_SCAN_CELLS
cells in all; the interval scan never is.  Reports give holds / fails /
not-applicable, the exact violation count and the smallest counterexample:
least largest component, then lexicographic, which is the first violation in
C order of the least cube [0..k]^arity that holds one.
Distributivity holds on the rows a = 0 and a = 1 by construction: 0 * x = 0,
and 1 * x = x exactly, as bind makes f(1) = 1.  So both its scans begin at
a = 2 (the chunks at 1 on a grid, whose index 1 is not the value 1).  Where
f(v) = v^p for a whole p on an int carrier of top T, a * x = min(ax, T) and
f(ab) + f(ac) = f(as), with s = (b^p + c^p)^(1/p).  So for b <= c, with
m = b + c, a(b + c) = min(am, T) and ab + ac = min(rho(as), T) while ac <= T,
and both sides are T once ac > T.  Projective rho is floor, and the sides
differ exactly where ac <= T, am < T and a frac(s) >= 1; dual rho is ceil, and
they differ where ac <= T, as <= T - 1 and a (m - s) >= 1.  Each condition is
monotone in a, so the a that violate form one interval [lo, hi] for each
pair.  _bounds decides both ends by exact integer tests, which float64
estimates of s only propose.  The count is the sum of hi - lo + 1, twice where
b < c, as (a, c, b) violates where (a, b, c) does, and the least violation is
the least (lo, b, c): O(R^2) time, and O(BLOCK_CELLS) memory.
check_laws also reports the Archimedean rows, their extra fields as details.
Both read one index_table column, s + 1 for s in [1, R), up to its least fixed
point b (_stuck); the theorem holds by construction, as both of its sides come
down to whether b exists.

Op tables clamp a dual sum past f(top) to the top, so every tuple is
defined and reports are finite-window approximations of an infinite family.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .arith import BLOCK_CELLS, PROJECTIVE, Arithmetic
from .carrier import INTEGER_RANGE
from .funcparam import POWER

HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not-applicable"

CONSISTENT = "consistent"

# Cells in one chunk of a scan (8 bytes each: two int32 sides), and in the largest op table (4 bytes each)
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


def _cells(extent: tuple[int, int]) -> int:
    return (extent[0] + 1) * (extent[1] + 1)


def _tables(arith: Arithmetic, extents: dict[str, tuple[int, int] | None]) -> dict[str, np.ndarray]:
    """The memoised op table of each op with extents (L, W): [0..L] x [0..W]."""
    return {op: arith.op_table(op, *extent) for op, extent in extents.items() if extent is not None}


# name -> (arity, needs_mul, scan): "add" or "mul" for the tiles of that op's associativity, "intervals" for the
# interval scan of distributivity where f is an integral power on an int carrier and its chunks ("distributivity")
# elsewhere, None for a law that holds by construction.  Op is monotone, so at(op) = max(R, op(R, R)) bounds its
# values over [0..R]^2, and the scans read: assoc op(op(a, b), c), op over [0..at(op)] x [0..R]; the chunks
# a(b + c), mul over [0..at(add)] x [0..R], and ab + ac, add over [0..at(mul)]^2; the interval scan no table.
_LAWS = {
    "commutativity-add": (2, False, None),
    "commutativity-mul": (2, True, None),
    "assoc-add": (3, False, "add"),
    "assoc-mul": (3, True, "mul"),
    "distributivity": (3, True, "intervals"),
    "neutral-zero": (1, False, None),
    "neutral-one": (1, True, None),
}
ALL_LAWS = tuple(_LAWS)
LAW_NAMES = ALL_LAWS + ("archimedean", "theorem-archimedean-mll")  # every row check_laws reports


def _least_violation(block: np.ndarray, offsets: tuple[int, ...]) -> tuple[int, ...]:
    """Least nonzero cell (largest component, then lexicographic) of a block of the cube at offsets; one must be."""
    cells = np.argwhere(block) + offsets  # in C order, which is lexicographic
    return tuple(int(i) for i in cells[np.argmin(cells.max(axis=1))])


def _plan(arith: Arithmetic, law: str, upper: int):
    """(arity, scan, op extents) of a law, None where it is not applicable; extents None past MAX_TABLE_CELLS.

    The scan is the one the law runs: distributivity's chunks where its interval scan does not apply to f.

    Refuses a scan with an op past MAX_TABLE_CELLS whose cube passes MAX_SCAN_CELLS.
    """
    if law not in _LAWS:
        raise ValueError(f"unknown law {law!r}; choose from {', '.join(ALL_LAWS)}")
    _check_upper(arith, upper)
    arity, needs_mul, scan = _LAWS[law]
    if needs_mul and not arith.multiplicative:
        return None
    if scan == "intervals" and _integral_power(arith) is None:
        scan = "distributivity"
    ops = {"add": ("add",), "mul": ("mul",), "distributivity": ("add", "mul")}.get(scan, ())
    # at(op): op(R, R), a dual sum past f(top) clamped to the top as in the op tables, and at least R
    at = {op: max(upper, int(arith.index_table(op, upper, upper))) for op in ops}
    extents = ({"add": (at["mul"], at["mul"]), "mul": (at["add"], upper)} if scan == "distributivity" else
               {op: (at[op], upper) for op in ops})
    fits, cube = {op: _cells(extent) <= MAX_TABLE_CELLS for op, extent in extents.items()}, (upper + 1) ** arity
    for op, (larger, smaller) in extents.items():
        if not fits[op] and cube > MAX_SCAN_CELLS:
            raise ValueError(f"{op} table over [0..{larger}] x [0..{smaller}] for R = {upper} exceeds the limit "
                             f"{MAX_TABLE_CELLS} cells and the scan of {cube} cells the limit {MAX_SCAN_CELLS}; "
                             "lower R")
    return arity, scan, {op: extent if fits[op] else None for op, extent in extents.items()}


def _bounded(op: str, table: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """Refuses operands past op's table, which np.take's mode="wrap" would wrap round instead of raising."""
    if rows.max() >= table.shape[0] or cols.max() >= table.shape[1]:
        raise IndexError(f"{op} operand past its table of shape {table.shape}")


def _top(arith: Arithmetic) -> int:
    """The index that absorbs (see the module docstring): the carrier's top, or -1, which no cell holds, where f
    has a float below its top beside ints, as an int + float target rounds and an op table need not be monotone."""
    values = arith._f_array
    return -1 if values.dtype == object and any(isinstance(v, float) for v in values[:-1]) else len(values) - 1


def _distributivity(arith: Arithmetic, tables: dict, n: int):
    """(diff, 1, (a, 0, 0)) of each leading index a from 2 on, diff nonzero where a(b + c) != ab + ac over [0..n-1]^2.

    Rows 0 and 1 hold (see the module docstring), so the first chunk starts at a = 2, or at 1 on a grid, whose
    index 1 is not the unit.  A chunk [lo, hi) x [0..k)^2, k = k(lo) >= k(a), has as many rows as fill the
    buffers, sized at the first chunk, k(2).  a(b + c) is one take of the chunk's columns of M by S[:k, :k],
    M's rows being the sums, whose range is the larger; ab + ac two takes of S over [0..k(a)) x [0..k) for each
    a, and T in its rows past k(a).  a(b + c) - (ab + ac) is written over the left side, a (1, k, k) block an a.
    """
    add, mul, index, top = tables.get("add"), tables.get("mul"), np.arange(n), _top(arith)
    start = 2 if arith.carrier.value_at(1) == 1 else 1
    if n <= start:
        return
    tabled = add is not None and mul is not None  # else one leading index a chunk
    sums = add[:n, :n] if add is not None else arith.index_table("add", index[:, None], index)
    if mul is not None:
        _bounded("mul", mul, sums, index)
    row = (lambda a: mul[a, :n]) if mul is not None else (lambda a: arith.index_table("mul", a, index))
    k = n - int(np.count_nonzero(row(start) == top))  # M is monotone: T ends each row, and k(a) <= k(start)
    cells = min(n - start, max(1, MAX_SCAN_CELLS // (k * k))) * k * k if tabled else k * k
    left, right, lo = np.empty(cells, np.int32), np.empty(cells, np.int32), start  # each chunk takes a prefix
    while lo < n:
        first = row(lo)
        k = n - int(np.count_nonzero(first == top))
        hi = min(n, lo + (max(1, cells // (k * k)) if tabled else 1))
        if mul is None:
            lhs, products = arith.index_table("mul", lo, sums[:k, :k])[None], first[None]
        else:
            lhs, products = left[:(hi - lo) * k * k].reshape(-1, k, k), mul[lo:hi, :n]
            np.take(mul[:, lo:hi].T, sums[:k, :k], axis=1, out=lhs, mode="wrap")
        if add is not None:
            _bounded("add", add, products, products)
        ends = n - np.count_nonzero(products == top, axis=1)
        for p, end, out in zip(products, ends, right[:(hi - lo) * k * k].reshape(-1, k, k)):
            if add is None:
                out[:end] = arith.index_table("add", p[:end, None], p[:k])
            else:  # rows [0..end) of out are contiguous; past end in a row, p is the top and so is the sum
                np.take(np.take(add, p[:end], axis=0), p[:k], axis=1, out=out[:end], mode="wrap")
            out[end:] = top
        diff = np.subtract(lhs, right[:lhs.size].reshape(lhs.shape), out=lhs)  # indices below 2^22: no wrap
        for i in range(hi - lo):
            yield diff[i:i + 1], 1, (lo + i, 0, 0)
        lo = hi


def _integral_power(arith: Arithmetic) -> int | None:
    """p where f is v^p for a whole p on an int carrier, the interval scan's input; None for any other f."""
    f = arith.f
    whole = f.family == POWER and arith.carrier.kind == INTEGER_RANGE and float(f.param).is_integer()
    return int(f.param) if whole else None


def _pairs(n: int):
    """(b, c) of each pair 1 <= b <= c < n, by c then b, in blocks of about BLOCK_CELLS pairs."""
    c0 = 1
    while c0 < n:
        c1 = min(n, c0 + max(1, isqrt(c0 * c0 + 2 * BLOCK_CELLS) - c0))  # rows c0..c1-1 hold c0 + ... + c1-1
        rows = np.arange(c0, c1)
        c = np.repeat(rows, rows)
        yield np.arange(1, c.size + 1) - np.repeat(np.cumsum(rows) - rows, rows), c
        c0 = c1


def _least(test, guess: np.ndarray, lo: int, hi: np.ndarray) -> np.ndarray:
    """Least a in [lo, hi] at which each cell passes test, hi + 1 where none does.

    test(i, a) tells whether cells i pass at a, and is monotone in a: False, then True.  It is called at no a
    outside [lo, hi].  guess, a float estimate of the answer, is confirmed or moved one a at a time.
    """
    a = np.clip(guess, lo, hi + 1).astype(np.int64)  # an infinite guess is finite once clipped
    cells = np.arange(a.size)
    up, down = cells[a <= hi], cells[a > lo]
    up, down = up[~test(up, a[up])], down[test(down, a[down] - 1)]
    while up.size:
        a[up] += 1
        up = up[a[up] <= hi[up]]
        up = up[~test(up, a[up])]
    while down.size:
        a[down] -= 1
        down = down[a[down] > lo]
        down = down[test(down, a[down] - 1)]
    return a


def _bounds(arith: Arithmetic, p: int, b: np.ndarray, c: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of each pair 1 <= b <= c <= T/2: it violates distributivity at the a of [2..n-1] in [lo, hi].

    f(v) = v^p on an int carrier (see the module docstring).  With m = b + c off index_table and S = b^p + c^p, hi
    comes from the clamps: ac <= T, and projective am < T, dual a^p S <= (T-1)^p; lo is the least a >= 2 that
    passes the rounding test, projective (am + 1)^p <= a^p S, dual a^p S <= (am - 1)^p, hi + 1 where none does.
    Each exact test is a difference of terms of at most f(T) = T^p, so it stays in f's own dtype: int64 wherever
    f(T) fits it, else Python ints.  float64 estimates of s = S^(1/p) only propose each bound.
    """
    top, exact, projective = arith.carrier.size - 1, arith._f_array.dtype, arith.kind == PROJECTIVE
    m = arith.index_table("add", b, c).astype(np.int64)

    def power(x):  # x^p of int64 operands of at most T
        return x.astype(exact) ** p

    def rounds(i, a):
        if projective:
            return power(a * m[i] + 1) - power(a * c[i]) <= power(a * b[i])
        return power(a * b[i]) <= power(np.minimum(a * m[i], top) - 1) - power(a * c[i])  # am >= T: a^p S fits

    hi = np.minimum(n - 1, top // c)
    lift = c * np.expm1(np.log1p((b / c) ** p) / p)  # s - c, for any p
    if projective:
        hi, gap = np.minimum(hi, (top - 1) // m), lift - (m - c)  # gap: frac(s)
    else:  # the least a with a^p S > (T-1)^p, less one
        hi = _least(lambda i, a: power(a * c[i]) > (top - 1) ** p - power(a * b[i]),
                    np.floor((top - 1) / (c + lift)) + 1, 1, hi) - 1
        gap = (m - c) - lift  # m - s
    lo, keep = np.full(b.size, 2), np.flatnonzero(hi >= 2)
    with np.errstate(divide="ignore"):  # guess: the least a with a gap >= 1, infinite where s is whole
        lo[keep] = _least(lambda i, a: rounds(keep[i], a), np.ceil(1 / np.maximum(gap[keep], 0)), 2, hi[keep])
    return lo, hi


def _intervals(arith: Arithmetic, p: int, n: int) -> tuple[int, tuple | None]:
    """(violations, least violation or None) of distributivity over [0..n-1]^3 where f(v) = v^p on an int carrier.

    The scan runs _bounds over the pairs b <= c: (c, b) violates where (b, c) does, and from c > T/2 on, ac
    passes T at every a >= 2.  The least violation of a pair is (lo, b, c).
    """
    count, best = 0, (n,)  # (largest component, a, b, c) of the least violation so far
    for b, c in _pairs(min(n, (arith.carrier.size - 1) // 2 + 1)):
        lo, hi = _bounds(arith, p, b, c, n)
        i = np.flatnonzero(hi >= lo)
        count += int(np.sum(np.where(b[i] == c[i], 1, 2) * (hi[i] - lo[i] + 1)))
        if i.size:
            largest = np.maximum(lo[i], c[i])
            i = i[largest == largest.min()]
            best = min(best, *zip(np.maximum(lo[i], c[i]).tolist(), lo[i].tolist(), b[i].tolist(), c[i].tolist()))
    return count, best[1:] or None


def _tiles(arith: Arithmetic, op: str, table: np.ndarray | None, n: int):
    """(mask, weight, offsets) of each tile A x [0..n-1] x C, A <= C, True where P[a, b, c] != P[c, b, a].

    Tiles read copies of each block's columns: outer's in the narrowest unsigned type that holds its
    largest index, inner's as intp, which np.take would otherwise convert them to on every tile.
    """
    index = np.arange(n)  # P[a, b, c] = op(op(a, b), c) = outer[inner[a, b], c]
    if table is None:  # too large: the outer op over the distinct inner values x [0..n-1]
        inner = arith.index_table(op, index[:, None], index)
        values, codes = np.unique(inner, return_inverse=True)
        codes, outer = codes.reshape(n, n), arith.index_table(op, values[:, None], index)
    else:  # the takes below wrap, so every operand is checked first
        _bounded(op, table, index, index)
        inner, outer = table[:n, :n], table[:, :n]
        _bounded(op, table, inner, index)
        codes = inner
    # k(c): op(c, b) is the top from b = k(c) on, and such a cell holds (see the module docstring); k(c) <= k(c0)
    ends = n - np.count_nonzero(inner == _top(arith), axis=1)
    starts, narrow = range(0, n, ASSOC_TILE), np.min_scalar_type(outer.max())
    cols = [np.ascontiguousarray(outer[:, lo:lo + ASSOC_TILE], narrow) for lo in starts]  # every row read
    rows = [np.ascontiguousarray(codes[:, lo:lo + ASSOC_TILE], np.intp) for lo in starts]
    for k, c0 in enumerate(starts):
        end = ends[c0]
        for j, a0 in enumerate(starts[:k + 1]):  # inner[:, A] is inner[A, :].T, inner being symmetric
            lhs = np.take(cols[k], rows[j][:end], axis=0, mode="wrap")  # P[A, :k(c0), C] as [b, a, c]
            rhs = lhs if j == k else np.take(cols[j], rows[k][:end], axis=0, mode="wrap")
            mask = (lhs != rhs.transpose(0, 2, 1)).transpose(1, 0, 2)  # rhs is P[C, :k(c0), A] as [b, c, a]
            del lhs, rhs  # only the mask lives on while the caller reads it
            yield mask, 1 if j == k else 2, (a0, 0, c0)  # a tile off the diagonal stands for its mirror too


def _fold(blocks, n: int) -> tuple[int, tuple | None]:
    """(weighted count of nonzero cells, least nonzero cell or None) over the (block, weight, offsets) of a scan."""
    count, best = 0, (n, None)  # (largest component, cell) of the least nonzero cell so far
    for block, weight, offsets in blocks:
        hits = int(np.count_nonzero(block))
        count += weight * hits
        if hits and max(offsets) <= best[0]:  # a block's largest components are at least its offsets
            cell = _least_violation(block, offsets)
            best = min(best, (max(cell), cell))
    return count, best[1]


def check_law(arith: Arithmetic, law: str, upper: int) -> LawReport:
    """Scan one law exhaustively over carrier indices [0, upper].

    The law runs the scan _plan gives it: _intervals, which counts the violations and finds the least witness
    itself, or _tiles or _distributivity over the op tables of _plan's extents, whose blocks _fold counts and
    searches.  A law that names no scan holds by construction; one that _plan finds not applicable reports so.
    pairs_checked is (R+1)^arity, the cells a scan skips or decides by interval included.
    """
    plan = _plan(arith, law, upper)
    if plan is None:
        return LawReport(law, NOT_APPLICABLE, None, upper, 0, None)
    arity, scan, extents = plan
    n = upper + 1
    if scan is None:
        return LawReport(law, HOLDS, None, upper, n ** arity, 0)
    if scan == "intervals":
        count, cell = _intervals(arith, _integral_power(arith), n)
    else:
        tables = _tables(arith, extents)
        blocks = (_distributivity(arith, tables, n) if scan == "distributivity" else
                  _tiles(arith, scan, tables.get(scan), n))
        count, cell = _fold(blocks, n)
    witness = cell and tuple(arith.carrier.value_at(i) for i in cell)
    return LawReport(law, FAILS if count else HOLDS, witness, upper, n ** arity, count)


def check_laws(arith: Arithmetic, names: list[str] | tuple[str, ...], upper: int) -> list[LawReport]:
    """The report of each of LAW_NAMES in names, in order, each op table built once, over every scan's rectangle.

    Every name is validated, and an oversize scan refused, before any table is
    built.  An op whose scans' rectangles span more than MAX_TABLE_CELLS
    together (add, where assoc-add reads [0..add(R, R)] x [0..R] and
    distributivity's chunks [0..mul(R, R)]^2) is left to each scan, which replaces
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
