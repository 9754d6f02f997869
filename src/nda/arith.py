"""Projective and dual arithmetics over a finite carrier.

Both families realise a (+) b = "f applied backwards"(f(a) + f(b)), with the
two kinds differing only in how the backwards step rounds onto the carrier:

* projective: greatest carrier value v with f(v) <= target (round down);
  saturates at the top, admits fixed points, absorption and a largest number.
* dual: least carrier value v with f(v) >= target (round up); adding a
  positive element always strictly grows, so the finite window can be
  exhausted.  A single operation past f(top) raises; op tables
  (``index_table``) clamp it to the top instead, the finite-window view that
  law scans use.

No numeric inverse of f is ever computed: the f values bind returns form
a strictly increasing array, the arithmetic's one copy of f, and every
operation is a search over it, decided by exact comparisons.  Single
operations bisect a Python list of the same values and types, built from
the array by tolist() on the first of them, so a law audit never builds
it.  Whole tables of operations (``index_table``) search the array in its
own dtype: one ``np.searchsorted`` over float64 or int64, where a target
past f(top), which lands on the top in either kind, is searched as f(top),
so no int64 sum or product wraps.  Over exact Python numbers (ints past
int64, or ints mixed with floats) a float64 log2 key of each target only
ranks a candidate index: exact comparisons with f there and at its
neighbour confirm it or move it one index, twice at most, and the cells
still unbracketed go to the exact ``np.searchsorted``, so float64 never
decides a cell.  ``op_table`` memoises one such table per operation over a
rectangle [0..rows] x [0..cols] of leading indices, cols <= rows.  Its
[0..cols]^2 block is built as its upper triangle in row blocks, each mirrored
into the lower triangle, and the rows past cols against [0..cols]: f(i) + f(j)
and f(i) * f(j) commute in float64, int64 and exact Python numbers alike, and
so do the zero mask and the search that follows.
Extended reals participate: +inf is an absorbing target and the projective
search maps it to the top element.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property
from math import inf, log2

import numpy as np

from .carrier import Carrier
from .errors import (
    CarrierExhaustedError,
    MultiplicationUnavailableError,
    SpecError,
    ValidationError,
)
from .funcparam import FLOAT_RANGE_END, FunctionalParameter, bind
from .funcparam import from_spec as f_from_spec

PROJECTIVE = "projective"
DUAL = "dual"
BLOCK_CELLS = 1 << 16  # about the cells of one index_table call in a blocked build or scan: temporaries stay small


class Arithmetic:
    """A carrier + validated f + family kind; immutable after construction.

    All operations are pure functions of (self, inputs) and safe to share
    across threads.
    """

    def __init__(self, carrier: Carrier, f: FunctionalParameter, kind: str):
        if kind not in (PROJECTIVE, DUAL):
            raise SpecError(f"kind must be {PROJECTIVE!r} or {DUAL!r}, got {kind!r}")
        report, values = bind(f, carrier)
        if not report.ok:
            raise ValidationError(f"f {f.name!r} rejected on {carrier.spec}: {report.message()}")
        self.carrier = carrier
        self.f = f
        self.kind = kind
        self.multiplicative = report.multiplicative
        self._f_array = values
        self._fvals: list = []  # the values as Python numbers for the scalar ops, built by the first of them
        self._op_tables: dict[str, np.ndarray] = {}

    @classmethod
    def from_spec(cls, spec: str) -> "Arithmetic":
        """Parse ``<kind>:<f-spec>@<carrier-spec>``, e.g. ``projective:pow:1.5@int:0:1000``."""
        head, sep, carrier_spec = spec.partition("@")
        kind, sep2, f_spec = head.partition(":")
        if not sep or not sep2:
            raise SpecError(f"bad arithmetic spec {spec!r} (want <kind>:<f-spec>@<carrier-spec>)")
        if kind not in (PROJECTIVE, DUAL):
            raise SpecError(f"unknown kind {kind!r} in {spec!r}")
        return cls(Carrier.from_spec(carrier_spec), f_from_spec(f_spec), kind)

    @property
    def spec(self) -> str:
        return f"{self.kind}:{self.f.name}@{self.carrier.spec}"

    def __repr__(self) -> str:
        return f"Arithmetic({self.spec!r})"

    # ------------------------------------------------------------------
    # index-level core (used by law scans, expressions and folds; values derive from these)
    # ------------------------------------------------------------------

    def _python_values(self) -> list:
        # a plain attribute, not a cached_property, whose shadowed descriptor slows each read by some 20 ns
        self._fvals = self._f_array.tolist()
        return self._fvals

    def _locate(self, target, fv: list) -> int:
        if self.kind == PROJECTIVE:
            # greatest v with f(v) <= target; target >= f(0) = 0 always
            return bisect_right(fv, target) - 1
        i = bisect_left(fv, target)
        if i == len(fv):
            raise CarrierExhaustedError(
                f"target {target} exceeds f(top) = {fv[-1]} on {self.carrier.spec}")
        return i

    @cached_property
    def _f_log2(self) -> np.ndarray:
        # float64 keys that rank the candidates of an object f's search, built on its first table; float() refuses
        # an int from FLOAT_RANGE_END on, and past it bind keeps only ints (and +inf at the top), as math.log2 takes
        fv = self._f_array
        big = int(np.searchsorted(fv, FLOAT_RANGE_END))
        with np.errstate(divide="ignore"):  # log2 0 is -inf
            return np.concatenate([np.log2(fv[:big].astype(np.float64)), np.fromiter(map(log2, fv[big:]), float)])

    def _search(self, fv: np.ndarray, target) -> np.ndarray:
        if self.kind == PROJECTIVE:
            return np.searchsorted(fv, target, side="right") - 1
        return np.minimum(np.searchsorted(fv, target, side="left"), len(fv) - 1)

    def _settle(self, fv: np.ndarray, target: np.ndarray, k: np.ndarray) -> np.ndarray:
        """The exact _search of object targets, starting from candidate indices k.

        A cell is bracketed where f at k and at its neighbour enclose its
        target.  Each cell first tests the side that a float64 tie leaves its
        candidate on, above a projective target and below a dual one, then the
        other side; a cell that moved rechecks only the side it moved toward.
        Cells left unbracketed after two moves fall back to _search.
        """
        top, shape = len(fv) - 1, np.shape(target)
        t, k = np.ravel(target), np.ravel(k)

        def off(j, tj, step, where=True):  # True where j must move by step (1 up, -1 down) to bracket tj
            if self.kind == PROJECTIVE:  # fv[j] <= tj < fv[j + 1]
                at, test, can = (j, np.greater, True) if step < 0 else (np.minimum(j + 1, top), np.less_equal, j < top)
            else:  # fv[j - 1] < tj <= fv[j], or j the top
                at, test, can = (j, np.less, j < top) if step > 0 else (np.maximum(j - 1, 0), np.greater_equal, j > 0)
            return test(fv[at], tj, where=where & can, out=np.zeros(j.shape, bool))  # compares only where

        first = -1 if self.kind == PROJECTIVE else 1
        moving = off(k, t, first)
        groups = [(first, np.flatnonzero(moving)), (-first, np.flatnonzero(off(k, t, -first, ~moving)))]
        left = []
        for step, group in groups:
            for _ in range(2):
                k[group] += step
                group = group[off(k[group], t[group], step)]
            left.append(group)
        left = np.concatenate(left)
        if left.size:
            k[left] = self._search(fv, t[left])
        return k.reshape(shape)

    def index_table(self, op: str, rows, cols) -> np.ndarray:
        """Array form of add_index / mul_index (op "add" / "mul") over broadcastable index arrays.

        Where a dual target passes f(top), the cell is clamped to the top
        instead of raising: this is the finite-window view that law scans use,
        so every cell of a table is defined.  Over float64 and int64 values
        each cell is one np.searchsorted, an int64 target past f(top) searched
        as f(top); over exact Python numbers a float64 log2 key of each target
        picks a candidate index that _settle confirms or moves by exact
        comparisons, so float64 only ranks candidates.
        """
        if op == "mul":
            self._require_mul()
        fv = self._f_array
        x, y, top = fv[rows], fv[cols], fv[-1]
        if fv.dtype == np.int64 and (2 * int(top) if op == "add" else int(top) ** 2) >= 2 ** 63:
            past = x > top - y if op == "add" else y > top // np.maximum(x, 1)  # x + y or x * y > f(top), exactly
            y = np.where(past, 0, y)  # so no int64 op wraps
            return self._search(fv, np.where(past, top, x + y if op == "add" else x * y)).astype(np.int32)
        with np.errstate(over="ignore", invalid="ignore"):  # a float past the double range is inf, as in the scalar ops
            target = x + y if op == "add" else x * y
            if op == "mul" and top == inf:  # inf * 0 is NaN: masked to 0
                target = np.where((x == 0) | (y == 0), 0, target)
        if fv.dtype != object:
            return self._search(fv, target).astype(np.int32)  # half the memory of intp in gathered law scans
        lx, ly = self._f_log2[rows], self._f_log2[cols]
        with np.errstate(invalid="ignore"):  # log2 0 + log2 inf is NaN: its cell, masked to 0, is searched exactly
            key = np.logaddexp2(lx, ly) if op == "add" else lx + ly
        return self._settle(fv, target, self._search(self._f_log2, key)).astype(np.int32)

    def op_table(self, op: str, rows: int, cols: int | None = None) -> np.ndarray:
        """index_table of op over [0..rows] x [0..cols], cols <= rows (rows by default), memoised.

        A memoised table that does not cover the rectangle is replaced by one
        over exactly that rectangle, so a table is never larger than asked for.
        """
        cols = rows if cols is None else cols
        if not 0 <= cols <= rows:
            raise ValueError(f"op table over [0..{rows}] x [0..{cols}]: want 0 <= cols <= rows")
        table = self._op_tables.get(op)
        if table is None or table.shape[0] <= rows or table.shape[1] <= cols:
            n, w = rows + 1, cols + 1
            table = np.empty((n, w), dtype=np.int32)
            index, lo = np.arange(n), 0
            while lo < w:  # [0..cols]^2 as upper-triangle blocks of some BLOCK_CELLS cells
                hi = min(w, lo + max(1, BLOCK_CELLS // (w - lo)))
                table[lo:hi, lo:] = block = self.index_table(op, index[lo:hi, None], index[None, lo:w])
                table[lo:w, lo:hi] = block.T  # op commutes: its targets f(i) + f(j) and f(i) * f(j) do
                lo = hi
            step = max(1, BLOCK_CELLS // w)
            for lo in range(w, n, step):  # then the rows past cols, against [0..cols]
                table[lo:lo + step] = self.index_table(op, index[lo:lo + step, None], index[None, :w])
            self._op_tables[op] = table
        return table[:rows + 1, :cols + 1]

    def add_index(self, i: int, j: int) -> int:
        fv = self._fvals or self._python_values()
        return self._locate(fv[i] + fv[j], fv)

    def sub_index(self, i: int, j: int) -> int:
        """a (-) b, clamped at 0; an extension, not part of either family's core."""
        fv = self._fvals or self._python_values()
        fa, fb = fv[i], fv[j]
        target = fa - fb if fa > fb else 0  # so inf - inf and finite - inf clamp to 0, and inf - finite is inf
        return self._locate(target, fv)

    def _require_mul(self) -> None:
        if not self.multiplicative:
            raise MultiplicationUnavailableError(
                f"f {self.f.name!r} has f(1) != 1 on {self.carrier.spec}; multiplication is undefined")

    def mul_index(self, i: int, j: int) -> int:
        self._require_mul()
        fv = self._fvals or self._python_values()
        fa, fb = fv[i], fv[j]
        target = 0 if (fa == 0 or fb == 0) else fa * fb  # avoids inf * 0
        return self._locate(target, fv)

    # ------------------------------------------------------------------
    # value-level operations (expressions evaluate on indices, see exprlang)
    # ------------------------------------------------------------------

    def add(self, a, b):
        """a (+) b."""
        c = self.carrier
        return c.value_at(self.add_index(c.index_of(a), c.index_of(b)))

    def mul(self, a, b):
        """a (x) b; requires f(1) = 1."""
        c = self.carrier
        return c.value_at(self.mul_index(c.index_of(a), c.index_of(b)))
