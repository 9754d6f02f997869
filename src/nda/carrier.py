"""Finite ordered universes of representable values.

A carrier is either an integer range ``0..max`` (step 1) or a real grid
``0, eps, 2*eps, ..., max``.  All navigation is done in index space; grid
values are always derived as ``i * step`` and never accumulated, so two
routes to the same grid point produce bit-identical floats.

The minimum is pinned to 0 so the additive neutral element exists in every
arithmetic built on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    CarrierIndexError,
    OffCarrierError,
    SpecError,
    ValidationError,
)

INTEGER_RANGE = "integer-range"
REAL_GRID = "real-grid"

# How far (relative) a value may sit from the nearest grid point and still
# be accepted by index_of.
GRID_TOLERANCE = 1e-9

# Points in a carrier, checked before any f is bound on it (binding keeps one
# array element a point, a Python number for an exact f past int64): a float f
# such as pow:1.5 binds 2^22 in some 0.45 s at a 93 MB peak RSS on a 2-vCPU x86-64
MAX_SIZE = 1 << 22


def number_text(v: int | float) -> str:
    """v in its shortest form that reads back as v: :g where that is exact, else repr."""
    if isinstance(v, int):
        return str(v)
    text = f"{v:g}"
    return text if float(text) == v else repr(v)


def within_tolerance(a: int | float, b: int | float) -> bool:
    """Whether a and b are one point: apart by at most GRID_TOLERANCE of the larger of 1, |a| and |b|."""
    return abs(a - b) <= GRID_TOLERANCE * max(1.0, abs(a), abs(b))


def _bounded(size: int) -> int:
    if size > MAX_SIZE:
        raise ValidationError(f"carrier exceeds the limit of {MAX_SIZE:,} points")
    return size


@dataclass(frozen=True)
class Carrier:
    """A finite ordered set of values, navigated by index."""

    kind: str
    max: int | float
    step: int | float
    size: int

    @classmethod
    def integers(cls, max_value: int) -> "Carrier":
        """Integer range 0..max_value inclusive, step 1."""
        if max_value != int(max_value) or max_value < 1:
            raise ValidationError(f"integer carrier needs an integer max >= 1, got {max_value}")
        return cls(INTEGER_RANGE, int(max_value), 1, _bounded(int(max_value) + 1))

    @classmethod
    def grid(cls, max_value: float, step: float) -> "Carrier":
        """Real grid 0, step, 2*step, ..., max_value."""
        if not (math.isfinite(max_value) and math.isfinite(step) and step > 0):
            raise ValidationError(f"grid needs a finite max and a finite positive step, got {max_value} and {step}")
        _bounded(max_value / step + 1)  # before round(), which fails on an infinite ratio
        steps = round(max_value / step)
        if steps < 1 or abs(steps * step - max_value) > GRID_TOLERANCE * max(1.0, abs(max_value)):
            raise ValidationError(f"grid max {max_value} is not a whole number of steps of {step}")
        return cls(REAL_GRID, max_value, step, steps + 1)

    @classmethod
    def from_spec(cls, spec: str) -> "Carrier":
        """Parse ``int:<min>:<max>`` or ``grid:<min>:<max>:<step>``."""
        parts = spec.split(":")
        try:
            if parts[0] == "int" and len(parts) == 3:
                lo, hi = int(parts[1]), int(parts[2])
            elif parts[0] == "grid" and len(parts) == 4:
                lo, hi, step = float(parts[1]), float(parts[2]), float(parts[3])
            else:
                raise SpecError(f"bad carrier spec {spec!r} (want int:<min>:<max> or grid:<min>:<max>:<step>)")
        except ValueError as exc:
            raise SpecError(f"bad number in carrier spec {spec!r}: {exc}") from None
        if lo != 0:
            raise ValidationError(f"carrier min must be 0 (got {lo}); the additive neutral lives there")
        if parts[0] == "int":
            return cls.integers(hi)
        return cls.grid(hi, step)

    @property
    def spec(self) -> str:
        if self.kind == INTEGER_RANGE:
            return f"int:0:{self.max}"
        return f"grid:0:{number_text(self.max)}:{number_text(self.step)}"

    def value_at(self, i: int) -> int | float:
        """The i-th carrier value, derived from the index (never accumulated)."""
        if not 0 <= i < self.size:
            raise CarrierIndexError(f"index {i} outside [0, {self.size})")
        if self.kind == INTEGER_RANGE:
            return i
        return i * self.step

    def index_of(self, v: int | float) -> int:
        """Inverse of value_at; rejects values off the grid beyond tolerance."""
        if type(v) is int and self.kind == INTEGER_RANGE and 0 <= v < self.size:  # a bool takes the general path
            return v
        try:
            i = round(v / self.step) if self.kind == REAL_GRID else round(v)
        except TypeError:
            raise OffCarrierError(f"{v!r} is not a number") from None
        except (OverflowError, ValueError):  # round() of inf and of nan
            raise OffCarrierError(f"{v} outside carrier [0, {self.max}]") from None
        if not 0 <= i < self.size:
            raise OffCarrierError(f"{v} outside carrier [0, {self.max}]")
        grid_value = self.value_at(i)
        if not within_tolerance(v, grid_value):
            raise OffCarrierError(f"{v} is not on the carrier (nearest point {grid_value})")
        return i
