"""The functional parameter f that induces an arithmetic.

f must be strictly increasing over the carrier, fix 0, and (when
multiplication is wanted) fix 1 exactly.  Families that take integer values
on integer carriers (identity, integral powers, exp2m1, quad) are evaluated
in exact integer arithmetic so order comparisons never suffer float
truncation.  artanh is defined by _atanh_scaled: mpmath's low-level libmp
kernel at 136 bits (40 decimal digits), rounded to the nearest double, so
each bound value is the correctly rounded double.  Grid points are rounded
too, so velocity addition (u+v)/(1+uv) can land one point low where its
exact sum is a grid point: 0.35 (+) 0.625 is 0.799 on grid:0:1:0.001.

bind evaluates f at every carrier point into one array and validates that
array with numpy; only a table f runs Python code per point.  The carrier
values come from np.arange; the integer families from int64 arithmetic, or
from Python ints in an object array where f(top) passes 2^63; other powers
and exp2m1 from math.pow mapped by np.fromiter, so each value is
bit-identical to evaluate's; a table from evaluate, point by point, as a
table is small (2,000 points bind in some 2.5 ms, as long as reading their
file takes).  artanh takes one long-double np.arctanh per ATANH_BLOCK
points, which bounds its temporaries, and keeps a point's rounding to
double where a rounding test shows it cannot differ from _atanh_scaled's
(see _atanh_block); libmp settles only the points left in doubt, 2-7% of a
fine grid, and is loaded on the first of them, not by ``import nda``.  The
array is int64 or float64 where that dtype holds every value exactly and
every value has that Python type, and object otherwise (ints past int64, or
ints beside floats), so its tolist() is evaluate's values with their types.

Validation happens once, at binding time; evaluation afterwards is total.
Where any f value is an int, bind stores a float f(0) = 0.0 or f(1) = 1.0 as
the int, so f(a) + f(0) and f(a) * f(1) are f(a) exactly (see laws), and
refuses an int past the float range beside a float value, as their sum raises.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import repeat
from operator import length_hint

import numpy as np

from .carrier import INTEGER_RANGE, MAX_SIZE, Carrier, within_tolerance
from .errors import OffCarrierError, SpecError, TableError, ValidationError

# the families, each named by the head of its spec
IDENTITY = "id"
POWER = "pow"
EXP2M1 = "exp2m1"
QUAD = "quad"
ATANH = "atanh"
TABLE = "table"

# bits of artanh's working precision: what mpmath.workdps(40) sets
ATANH_PREC = 136

# carrier points of one long-double artanh evaluation in bind: each of its temporaries takes 64 KB
ATANH_BLOCK = 4096

# K of _atanh_block's rounding test.  np.arctanh on long doubles (glibc's
# atanhl on x86-64) errs by at most 2.36 eps_ld |y|, measured against mpmath
# at 200 bits over the grids and scattered points of the tests; K is over 4x that
ATANH_ERROR = 16

# the least int that float() refuses: from it on, float(x) and a sum with a float raise OverflowError
FLOAT_RANGE_END = 2 ** 1024 - 2 ** 970


@dataclass(frozen=True)
class FunctionalParameter:
    """A named, evaluable, strictly increasing map from carrier values to [0, +inf]."""

    name: str
    family: str
    param: float | None = None
    points: tuple[tuple[int | float, int | float], ...] = ()

    def __post_init__(self):
        if self.family != TABLE and self.family not in _FORMULAS:
            raise SpecError(f"unknown f family {self.family!r}")

    def evaluate(self, v: int | float) -> int | float:
        """f(v); deterministic, bit-identical for identical v."""
        if self.family == TABLE:
            return self._table_lookup(v)
        exact, real = _FORMULAS[self.family]
        fv = exact(v, self.param) if isinstance(v, int) else None
        return real(v, self.param, math.pow) if fv is None else fv

    @cached_property
    def _table_xs(self) -> list:
        return [x for x, _ in self.points]

    def _table_lookup(self, v: int | float):
        # the x values strictly increase, so only the entries either side of v can match
        i = bisect_left(self._table_xs, v)
        for x, y in self.points[max(i - 1, 0):i + 1]:
            if x == v or within_tolerance(x, v):
                return y
        raise ValidationError(f"table f has no entry for carrier point {v}")

    def __str__(self) -> str:
        return self.name


# Each family's f, read by evaluate and by bind's _evaluate: family -> (exact, real).  exact(v, p) is f at an
# int point, on a Python int or on an int64 or object array alike, or None where the family has none (a power
# whose exponent is not whole).  real(v, p, pow) is f at a float point with pow = math.pow, and f at each point
# of an array with pow = math.pow mapped over it (_mapped); bind takes artanh's array in long-double blocks.
_FORMULAS = {
    IDENTITY: (lambda v, p: v, lambda v, p, pow: v),
    POWER: (lambda v, p: v ** int(p) if float(p).is_integer() else None, lambda v, p, pow: pow(v, p)),
    EXP2M1: (lambda v, p: (1 << v) - 1, lambda v, p, pow: pow(2.0, v) - 1.0),
    QUAD: (lambda v, p: (v + v * v) // 2, lambda v, p, pow: (v + v * v) / 2.0),
    ATANH: (lambda v, p: None, lambda v, p, pow: _atanh_scaled(v, p)),
}


def _atanh_scaled(v: float, c: float) -> float:
    """artanh(v/c), correctly rounded to double; +inf at and beyond v = c.

    The one definition of an artanh f value: _atanh_block agrees with it
    bit for bit and calls it wherever its own rounding is in doubt.
    """
    if v >= c:
        return math.inf
    if v == 0:
        return 0.0
    # mpmath.atanh(mpf(v) / mpf(c)) under workdps(40), then float(), without the mpf objects
    libmp = _libmp()
    x = libmp.mpf_div(_to_mpf(libmp, v), _scale_mpf(c), ATANH_PREC, "n")
    return libmp.to_float(libmp.mpf_atanh(x, ATANH_PREC, "n"), rnd="n")  # to_float rounds down by default


def _atanh_block(points: np.ndarray, c: float) -> np.ndarray:
    """_atanh_scaled(v, c) at each v of points, from one long-double arctanh.

    With x = v/c and y = arctanh(x) in long double, the exact artanh(v/c)
    lies within ATANH_ERROR * eps_ld * (|y| + |x| / (1 - x^2)) of y: the
    first term is arctanh's own error, the second the rounding of v/c
    carried through atanh' = 1/(1 - x^2), dropped where c is a power of two
    and v/c is exact.  y rounded to double is then the correctly rounded
    value unless y lies within that margin of a midpoint between the double
    and a neighbour.  Such points, and every non-finite y, are settled by
    _atanh_scaled.  Where long double is only double the margin passes half
    an ulp, so every point is, at the old speed.
    """
    ld = np.longdouble
    with np.errstate(divide="ignore", invalid="ignore"):  # v >= c gives x >= 1 and a non-finite y
        x = points.astype(ld) / ld(c)
        y = np.arctanh(x)
        spread = np.abs(y) if math.frexp(c)[0] == 0.5 else np.abs(y) + np.abs(x) / ((1 - x) * (1 + x))
        margin = ATANH_ERROR * np.finfo(ld).eps * spread
        d = y.astype(np.float64)
        below = (d + np.nextafter(d, -np.inf).astype(ld)) / 2  # exact: two adjacent doubles fit a long double
        above = (d + np.nextafter(d, np.inf).astype(ld)) / 2
        unsure = np.flatnonzero(~np.isfinite(y) | ~(y - below > margin) | ~(above - y > margin))
    d[unsure] = [_atanh_scaled(v, c) for v in points[unsure].tolist()]  # tolist: value_at's int or float
    return d


@cache
def _libmp():
    from mpmath import libmp
    return libmp


@cache
def _scale_mpf(c: int | float) -> tuple:
    """The scale c converted once, not at every point."""
    return _to_mpf(_libmp(), c)


def _to_mpf(libmp, v: int | float) -> tuple:
    """v as mpmath.mpf(v) holds it: a float exactly, an int rounded to ATANH_PREC bits."""
    if isinstance(v, int):
        return libmp.from_int(v, ATANH_PREC, "n")
    return libmp.from_float(v)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking f against a concrete carrier."""

    ok: bool
    multiplicative: bool
    points_checked: int
    failure_index: int | None = None
    reason: str | None = None

    def message(self) -> str:
        if self.ok:
            mult = "multiplication enabled" if self.multiplicative else "multiplication unavailable"
            return f"pass ({self.points_checked} points, {mult})"
        return f"fail at index {self.failure_index}: {self.reason}"


def bind(f: FunctionalParameter, carrier: Carrier) -> tuple[ValidationReport, np.ndarray]:
    """Validate f over every carrier point and return (report, bound values).

    The values are the single source of truth for the arithmetic built on
    top of them: all rounding searches run against them.  They are int64 or
    float64 where that dtype holds every value exactly and every value has
    that Python type, and object (exact Python numbers) otherwise.  A
    rejected f returns the values before the failing check's point, and an
    integral power whose f(top) would pass MAX_SIZE bits is refused with none.
    """
    if carrier.kind == INTEGER_RANGE and f.family == POWER and float(f.param).is_integer() \
            and f.param * math.log2(carrier.max) >= MAX_SIZE:  # f(top) has floor(p log2 top) + 1 bits
        return _failure(carrier.size - 1, f"f({carrier.max}) has more than {MAX_SIZE:,} bits", 0), np.empty(0, np.int64)
    values, undefined = _evaluate(f, carrier)
    failed = _first_failing_point(values)
    if failed is not None:
        return _failure_at(values, carrier, failed), values[:failed]
    if undefined:
        i, exc = undefined[0]
        return _failure(i, f"f undefined at {carrier.value_at(i)}: {exc}", i), values
    try:
        one = carrier.index_of(1)  # multiplication needs the carrier value 1
    except OffCarrierError:
        one = None
    multiplicative = one is not None and values.item(one) == 1
    if values.dtype == object:
        floats = np.fromiter(map(isinstance, values, repeat(float)), bool, len(values))
        if not floats.all():  # a float 0 or 1 beside an exact int would round f(a) + f(0) or f(a) * f(1)
            values[0], floats[0] = 0, False
            if multiplicative:
                values[one], floats[one] = 1, False
            big = int(np.searchsorted(values, FLOAT_RANGE_END))  # the first int that a sum with a float refuses
            if big < len(values) and values[big] != math.inf and floats.any():
                return _failure(big, f"f({carrier.value_at(big)}) is an int past the float range beside float values",
                                carrier.size), values
        if floats.all():
            values = values.astype(np.float64)
        elif not floats.any() and values[-1] < 2 ** 63:
            values = values.astype(np.int64)
    return ValidationReport(True, multiplicative, carrier.size), values


def _evaluate(f: FunctionalParameter, carrier: Carrier) -> tuple[np.ndarray, list[tuple[int, Exception]]]:
    """f at the carrier points in order, up to the first point where f is undefined, and [(index, error)] there."""
    family, p, n = f.family, f.param, carrier.size
    points = np.arange(n) if carrier.kind == INTEGER_RANGE else np.arange(n) * carrier.step  # value_at's i * step
    undefined = []
    if family == ATANH:
        values = np.empty(n)
        for lo in range(0, n, ATANH_BLOCK):
            values[lo:lo + ATANH_BLOCK] = _atanh_block(points[lo:lo + ATANH_BLOCK], p)
        return values, undefined
    if family == TABLE:  # tolist: value_at's ints or floats
        return _mapped(undefined, f._table_lookup, points.tolist(), dtype=object), undefined
    exact, real = _FORMULAS[family]
    pow = lambda x, y: _mapped(undefined, math.pow, x, y)  # math.pow mapped over the points x or y
    if carrier.kind != INTEGER_RANGE:
        with np.errstate(over="ignore"):  # a float product past the double range is +inf, as in Python
            return real(points, p, pow), undefined
    top = exact(n - 1, p)
    if top is None:  # a power whose exponent is not whole: math.pow maps a range's ints faster than int64s
        return real(range(n), p, pow), undefined
    # exact ints, as evaluate's at an int point; f increases, so f(top) bounds them all
    return exact(points if top < 2 ** 63 else points.astype(object), p), undefined


def _mapped(undefined: list, g, *args, dtype=np.float64) -> np.ndarray:
    """np.fromiter of g over the one sequence among args, each other arg fixed, up to the first point at which
    g raises; that point's (index, error) goes on undefined."""
    points = args[0] if isinstance(args[-1], (int, float)) else args[-1]
    index = iter(points)  # the points it has left tell where g raised
    try:
        return np.fromiter(map(g, *[index if arg is points else repeat(arg) for arg in args]), dtype, len(points))
    except (ValidationError, ValueError, OverflowError) as exc:
        failed = len(points) - 1 - length_hint(index)
        undefined.append((failed, exc))
        return _mapped(undefined, g, *[points[:failed] if arg is points else arg for arg in args], dtype=dtype)


def _failure(index: int, reason: str, checked: int) -> ValidationReport:
    return ValidationReport(False, False, checked, failure_index=index, reason=reason)


def _first_failing_point(values: np.ndarray) -> int | None:
    """The first point i at which a check of f fails (see _failure_at), or None."""
    if not len(values):
        return None
    with np.errstate(invalid="ignore"):
        bad = values != values
        bad[0] |= values[0] != 0
        bad[1:] |= (values[:-1] == math.inf) | ~(values[1:] > values[:-1])  # exact for an int past 2^1024
    i = int(bad.argmax())
    return i if bad[i] else None


def _failure_at(values: np.ndarray, carrier: Carrier, i: int) -> ValidationReport:
    """The first of the checks of f at point i that fails, in their order; a pair's failure blames i - 1."""
    v, fv = carrier.value_at(i), values.item(i)
    if fv != fv:  # NaN
        return _failure(i, f"f({v}) is NaN", i)
    if i == 0:
        return _failure(0, f"f(0) must be 0 exactly, got {fv}", 1)
    prev = values.item(i - 1)
    if prev == math.inf:
        return _failure(i - 1, "f reaches +inf before the top element", i)
    return _failure(i - 1, f"not strictly increasing: f({v}) = {fv} <= f(prev) = {prev}", i + 1)


def validate(f: FunctionalParameter, carrier: Carrier) -> ValidationReport:
    """Check strict increase, f(0) = 0 and the exact f(1) = 1 flag over all carrier points."""
    report, _ = bind(f, carrier)
    return report


def load_table(path: str) -> FunctionalParameter:
    """Read a table-backed f: two numbers per line, ``#`` comments, strictly increasing, x finite, f not NaN."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise TableError(f"cannot read table file {path!r}: {exc}") from None
    points: list[tuple[int | float, int | float]] = []
    for lineno, line in enumerate(raw, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        fields = text.split()
        if len(fields) != 2:
            raise TableError(f"expected two numbers, got {text!r}", lineno)
        try:
            x, y = (parse_number(field) for field in fields)
        except ValueError:
            raise TableError(f"bad number in {text!r}", lineno) from None
        if not -math.inf < x < math.inf or y != y:  # f may reach +inf at the top; a NaN defeats the order checks
            raise TableError(f"carrier values must be finite and f values numbers, got {text!r}", lineno)
        if points:
            if x <= points[-1][0]:
                raise TableError(f"carrier values must strictly increase ({x} after {points[-1][0]})", lineno)
            if y <= points[-1][1]:
                raise TableError(f"f values must strictly increase ({y} after {points[-1][1]})", lineno)
        points.append((x, y))
    if not points:
        raise TableError(f"table file {path!r} has no data lines")
    return FunctionalParameter(name=f"table:{path}", family=TABLE, points=tuple(points))


def parse_number(text: str) -> int | float:
    """A number field of a spec or table: an int where it reads as one, else a float."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def from_spec(spec: str) -> FunctionalParameter:
    """Parse ``id``, ``pow:<p>``, ``exp2m1``, ``quad``, ``atanh:<c>`` or ``table:<path>``."""
    head, _, rest = spec.partition(":")
    if head in (IDENTITY, EXP2M1, QUAD) and not rest:
        return FunctionalParameter(head, head)
    if head in (POWER, ATANH):
        word = "exponent" if head == POWER else "scale"
        try:
            p = float(rest)
        except ValueError:
            raise SpecError(f"bad {word} in {spec!r}") from None
        if not p > 0:  # NaN too
            raise ValidationError(f"{head} {word} must be positive, got {p}")
        return FunctionalParameter(spec, head, param=p)
    if head == TABLE and rest:
        return load_table(rest)
    raise SpecError(f"unknown f spec {spec!r} (want id, pow:<p>, exp2m1, quad, atanh:<c>, table:<path>)")
