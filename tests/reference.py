"""Independent oracles for the tests.

Everything here deliberately avoids the package's memo/bisect machinery:
f is evaluated directly with math (mpmath for artanh), the carrier search
is a linear scan, and law scans are plain nested loops.  Slow, obviously
correct, and only ever used on small ranges.
"""

from __future__ import annotations

import math

import mpmath


def f_values(name: str, points: int) -> list:
    """Direct evaluation of a built-in f over integer carrier indices 0..points-1."""
    if name == "id":
        return list(range(points))
    if name == "pow:2":
        return [v * v for v in range(points)]
    if name.startswith("pow:"):
        return [math.pow(v, float(name[4:])) for v in range(points)]
    if name == "exp2m1":
        return [(1 << v) - 1 for v in range(points)]
    if name == "quad":
        return [(v + v * v) // 2 for v in range(points)]
    raise ValueError(name)


def atanh_values(c: float, step: float, points: int) -> list:
    """artanh(v/c) at grid points v = i*step through mpmath at 40 digits; +inf from v = c on."""
    values = []
    for i in range(points):
        v = i * step
        if v >= c:
            values.append(math.inf)
            continue
        with mpmath.workdps(40):
            values.append(float(mpmath.atanh(mpmath.mpf(v) / mpmath.mpf(c))))
    return values


def floor_index(fvals: list, target) -> int:
    """Greatest index with fvals[i] <= target, by linear scan."""
    best = 0
    for i, value in enumerate(fvals):
        if value <= target:
            best = i
        else:
            break
    return best


def ceil_index(fvals: list, target) -> int | None:
    """Least index with fvals[i] >= target, or None (exhausted), by linear scan."""
    for i, value in enumerate(fvals):
        if value >= target:
            return i
    return None


def ref_add(fvals: list, kind: str, i: int, j: int) -> int:
    """Saturating reference addition on carrier indices."""
    target = fvals[i] + fvals[j]
    if kind == "projective":
        return floor_index(fvals, target)
    k = ceil_index(fvals, target)
    return len(fvals) - 1 if k is None else k


def ref_sub(fvals: list, kind: str, i: int, j: int) -> int:
    """Reference subtraction on indices: the target f(a) - f(b) clamps at 0, and f(b) = +inf gives 0."""
    fa, fb = fvals[i], fvals[j]
    target = 0 if math.isinf(fb) else max(fa - fb, 0)
    if kind == "projective":
        return floor_index(fvals, target)
    return ceil_index(fvals, target)  # target <= f(a): never past the top


def ref_mul(fvals: list, kind: str, i: int, j: int) -> int:
    fa, fb = fvals[i], fvals[j]
    target = 0 if (fa == 0 or fb == 0) else fa * fb
    if kind == "projective":
        return floor_index(fvals, target)
    k = ceil_index(fvals, target)
    return len(fvals) - 1 if k is None else k


def smallest_witness(violations: list[tuple]) -> tuple | None:
    """Minimal counterexample: smallest max component, then lexicographic."""
    if not violations:
        return None
    return min(violations, key=lambda t: (max(t), t))
