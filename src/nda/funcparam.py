"""The functional parameter f that induces an arithmetic.

f must be strictly increasing over the carrier, fix 0, and (when
multiplication is wanted) fix 1 exactly.  Families that take integer values
on integer carriers (identity, integral powers, exp2m1, quad) are evaluated
in exact integer arithmetic so order comparisons never suffer float
truncation.  artanh is defined by _atanh_scaled: mpmath's low-level libmp
kernel at 136 bits (40 decimal digits), rounded to the nearest double, so
each memoised value is the correctly rounded double.  bind evaluates it a
block of ATANH_BLOCK points at a time with one long-double np.arctanh and
keeps a point's rounding to double where a rounding test shows it cannot
differ from _atanh_scaled's (see _atanh_block); libmp settles only the
points left in doubt, 2-7% of a fine grid, and is loaded on the first
of them, not by ``import nda``.  Grid points are rounded too, so velocity
addition (u+v)/(1+uv) can land one point low where its exact sum is a grid
point: 0.35 (+) 0.625 is 0.799 on grid:0:1:0.001.

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

import numpy as np

from .carrier import GRID_TOLERANCE, Carrier
from .errors import OffCarrierError, SpecError, TableError, ValidationError

IDENTITY = "identity"
POWER = "power"
EXP2M1 = "exp2m1"
QUAD = "quad"
ATANH = "atanh"
TABLE = "table"

# bits of artanh's working precision: what mpmath.workdps(40) sets
ATANH_PREC = 136

# carrier points of one long-double artanh evaluation in bind
ATANH_BLOCK = 4096

# K of _atanh_block's rounding test.  np.arctanh on long doubles (glibc's
# atanhl on x86-64) errs by at most 2.36 eps_ld |y|, measured against mpmath
# at 200 bits over the grids and scattered points of the tests; K is over 4x that
ATANH_ERROR = 16


@dataclass(frozen=True)
class FunctionalParameter:
    """A named, evaluable, strictly increasing map from carrier values to [0, +inf]."""

    name: str
    family: str
    param: float | None = None
    points: tuple[tuple[int | float, int | float], ...] = ()

    def evaluate(self, v: int | float) -> int | float:
        """f(v); deterministic, bit-identical for identical v."""
        if self.family == IDENTITY:
            return v
        if self.family == POWER:
            p = self.param
            if isinstance(v, int) and float(p).is_integer():
                return v ** int(p)
            return math.pow(v, p)
        if self.family == EXP2M1:
            if isinstance(v, int):
                return (1 << v) - 1
            return math.pow(2.0, v) - 1.0
        if self.family == QUAD:
            if isinstance(v, int):
                return (v + v * v) // 2
            return (v + v * v) / 2.0
        if self.family == ATANH:
            return _atanh_scaled(v, self.param)
        if self.family == TABLE:
            return self._table_lookup(v)
        raise SpecError(f"unknown f family {self.family!r}")

    @cached_property
    def _table_xs(self) -> list:
        return [x for x, _ in self.points]

    def _table_lookup(self, v: int | float):
        # the x values strictly increase, so only the entries either side of v can match
        i = bisect_left(self._table_xs, v)
        for x, y in self.points[max(i - 1, 0):i + 1]:
            if x == v or abs(x - v) <= GRID_TOLERANCE * max(1.0, abs(x), abs(v)):
                return y
        raise ValidationError(f"table f has no entry for carrier point {v}")

    def __str__(self) -> str:
        return self.name


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


def _atanh_block(points: list, c: float) -> list[float]:
    """[_atanh_scaled(v, c) for v in points], from one long-double arctanh.

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
        x = np.array(points, dtype=ld) / ld(c)
        y = np.arctanh(x)
        spread = np.abs(y) if math.frexp(c)[0] == 0.5 else np.abs(y) + np.abs(x) / ((1 - x) * (1 + x))
        margin = ATANH_ERROR * np.finfo(ld).eps * spread
        d = y.astype(np.float64)
        below = (d + np.nextafter(d, -np.inf).astype(ld)) / 2  # exact: two adjacent doubles fit a long double
        above = (d + np.nextafter(d, np.inf).astype(ld)) / 2
        unsure = ~np.isfinite(y) | ~(y - below > margin) | ~(above - y > margin)
    values = d.tolist()
    for i in np.flatnonzero(unsure).tolist():
        values[i] = _atanh_scaled(points[i], c)
    return values


def _atanh_blocks(c: float, carrier: Carrier):
    """_atanh_scaled(v, c) at each carrier point v in order, evaluated ATANH_BLOCK points at a time."""
    for lo in range(0, carrier.size, ATANH_BLOCK):
        yield from _atanh_block([carrier.value_at(i) for i in range(lo, min(lo + ATANH_BLOCK, carrier.size))], c)


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


def bind(f: FunctionalParameter, carrier: Carrier) -> tuple[ValidationReport, list]:
    """Validate f over every carrier point and return (report, memoised values).

    The memo list is the single source of truth for the arithmetic built on
    top of it: all rounding searches run against these values.
    """
    values: list = []
    blocks = _atanh_blocks(f.param, carrier) if f.family == ATANH else None
    for i in range(carrier.size):
        v = carrier.value_at(i)
        try:
            fv = f.evaluate(v) if blocks is None else next(blocks)
        except (ValidationError, ValueError, OverflowError) as exc:
            return _failure(i, f"f undefined at {v}: {exc}", i), values
        if fv != fv:  # NaN
            return _failure(i, f"f({v}) is NaN", i), values
        if i == 0:
            if fv != 0:
                return _failure(0, f"f(0) must be 0 exactly, got {fv}", 1), values
        else:
            if values[-1] == math.inf:  # exact for an int past 2^1024, which isinf would convert to float
                return _failure(i - 1, "f reaches +inf before the top element", i), values
            if not fv > values[-1]:
                # blame the first index of the violating pair (i-1, i)
                return _failure(i - 1, f"not strictly increasing: f({v}) = {fv} <= f(prev) = {values[-1]}", i + 1), values
        if fv < 0:
            return _failure(i, f"f({v}) = {fv} is negative", i + 1), values
        values.append(fv)
    try:
        one = carrier.index_of(1)  # multiplication needs the carrier value 1
    except OffCarrierError:
        one = None
    multiplicative = one is not None and values[one] == 1
    if int in map(type, values):  # a float 0 or 1 beside an exact int would round f(a) + f(0) or f(a) * f(1)
        values[0] = 0
        if multiplicative:
            values[one] = 1
        big = bisect_left(values, 2 ** 1024 - 2 ** 970)  # the least int that float() refuses, as a sum with a float does
        if big < len(values) and values[big] != math.inf and float in map(type, values):
            return _failure(big, f"f({carrier.value_at(big)}) is an int past the float range beside float values",
                            carrier.size), values
    return ValidationReport(True, multiplicative, carrier.size), values


def _failure(index: int, reason: str, checked: int) -> ValidationReport:
    return ValidationReport(False, False, checked, failure_index=index, reason=reason)


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
    if head == "id" and not rest:
        return FunctionalParameter("id", IDENTITY)
    if head == "exp2m1" and not rest:
        return FunctionalParameter("exp2m1", EXP2M1)
    if head == "quad" and not rest:
        return FunctionalParameter("quad", QUAD)
    if head == "pow":
        try:
            p = float(rest)
        except ValueError:
            raise SpecError(f"bad exponent in {spec!r}") from None
        if not p > 0:  # NaN too
            raise ValidationError(f"pow exponent must be positive, got {p}")
        return FunctionalParameter(f"pow:{rest}", POWER, param=p)
    if head == "atanh":
        try:
            c = float(rest)
        except ValueError:
            raise SpecError(f"bad scale in {spec!r}") from None
        if not c > 0:  # NaN too
            raise ValidationError(f"atanh scale must be positive, got {c}")
        return FunctionalParameter(f"atanh:{rest}", ATANH, param=c)
    if head == "table" and rest:
        return load_table(rest)
    raise SpecError(f"unknown f spec {spec!r} (want id, pow:<p>, exp2m1, quad, atanh:<c>, table:<path>)")
