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


def ref_archimedean(fvals: list, kind: str, upper: int) -> tuple:
    """(m, fixed point) of the least m in 1..upper whose sums stop below upper, or None.

    Each orbit m, m + m, ... is iterated with ref_add until it stops moving,
    which every orbit does, at the latest at the top.
    """
    for m in range(1, upper + 1):
        s = m
        while ref_add(fvals, kind, s, m) != s:
            s = ref_add(fvals, kind, s, m)
        if s < upper:
            return m, s
    return None


def ref_least_absorption(fvals: list, kind: str, upper: int) -> tuple | None:
    """Least (a, b) with a > 0, b < upper and b + a = b, by nested loops.

    Least means smallest max(a, b), then smallest b, then smallest a.
    """
    cells = [(b, a) for b in range(upper) for a in range(1, upper + 1) if ref_add(fvals, kind, b, a) == b]
    least = smallest_witness(cells)
    return least and least[::-1]
