"""Independent expected results for the benchmark's correctness gate.

Expressions and folds are re-evaluated from the generator's trees, never
through the package: f comes from direct evaluation (``reference.f_values``
for the built-in families, mpmath for artanh, the generated rows for the
table) and every rounding step is the linear scan of
``tests/reference.py`` (vectorised with numpy for float f, which is the
same scan over every value).  Audit reports are compared with the values
recorded in ``expected_audits.json`` (see ``record_expected.py``).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import reference  # tests/reference.py; run.py puts tests/ on sys.path

from child import sums_digest

OFF_CARRIER = "OffCarrierError"
EXHAUSTED = "CarrierExhaustedError"
NO_MUL = "MultiplicationUnavailableError"


class ExpectedError(Exception):
    """The documented error class an expression must raise."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


class RefArith:
    """Projective (round down) or dual (round up, error past the top) by linear scan."""

    def __init__(self, kind: str, fvals: list, step: float | None):
        self.kind = kind
        self.fvals = fvals
        self.step = step
        one = 1 if step is None else round(1 / step)
        self.multiplicative = one < len(fvals) and abs(fvals[one] - 1) <= 1e-12
        self._floats = np.array(fvals) if isinstance(fvals[-1], float) else None
        self._memo: dict = {}

    def value(self, i: int):
        return i if self.step is None else i * self.step

    def _round(self, target) -> int:
        if target not in self._memo:
            self._memo[target] = self._scan(target)
        i = self._memo[target]
        if i is None:
            raise ExpectedError(EXHAUSTED)
        return i

    def _scan(self, target) -> int | None:
        if self._floats is None:
            if self.kind == "projective":
                return reference.floor_index(self.fvals, target)
            return reference.ceil_index(self.fvals, target)
        # f strictly increasing with f(0) = 0 <= target: counting is the linear scan
        if self.kind == "projective":
            return int(np.count_nonzero(self._floats <= target)) - 1
        i = int(np.count_nonzero(self._floats < target))
        return None if i == len(self.fvals) else i

    def add(self, i: int, j: int) -> int:
        return self._round(self.fvals[i] + self.fvals[j])

    def sub(self, i: int, j: int) -> int:
        fa, fb = self.fvals[i], self.fvals[j]
        return self._round(0 if math.isinf(fb) else max(fa - fb, 0))

    def mul(self, i: int, j: int) -> int:
        if not self.multiplicative:
            raise ExpectedError(NO_MUL)
        fa, fb = self.fvals[i], self.fvals[j]
        return self._round(0 if fa == 0 or fb == 0 else fa * fb)

    def index(self, tree) -> int:
        # operands left to right, then the operator: the first error met wins
        if tree[0] == "lit":
            return tree[1]
        if tree[0] == "bad":
            raise ExpectedError(OFF_CARRIER)
        left = self.index(tree[1])
        right = self.index(tree[2])
        return getattr(self, tree[0])(left, right)

    def evaluate(self, tree):
        """["v", result] or ["e", error class name], as the child reports them."""
        try:
            if tree[0] != "rel":
                return ["v", self.value(self.index(tree))]
            a, b = self.index(tree[2]), self.index(tree[3])
            rel = tree[1]
            if rel == "eq":
                return ["v", a == b]
            if rel == "lt":
                return ["v", a < b]
            if rel == "mll":
                return ["v", self.add(b, a) == b]
            return ["v", self.mul(b, a) == b]
        except ExpectedError as exc:
            return ["e", exc.name]

    def fold(self, indices: list[int]) -> list:
        """[final sum, stationary_at, digest of all partial sums], as the child reports them."""
        acc = indices[0]
        sums = [acc]
        for k in indices[1:]:
            acc = self.add(acc, k)
            sums.append(acc)
        n = len(sums)
        k = n
        while k > 1 and sums[k - 2] == sums[-1]:
            k -= 1
        values = [self.value(i) for i in sums]
        return [values[-1], k if k < n else None, sums_digest(values)]


def _atanh_values(size: int, step: float) -> list:
    with mpmath.workdps(40):
        return [math.inf if i * step >= 1 else float(mpmath.atanh(mpmath.mpf(i * step)))
                for i in range(size)]


def ref_arith(spec: str, table: list | None) -> RefArith:
    """The oracle for one of the benchmark's arithmetic specs."""
    head, _, carrier = spec.partition("@")
    kind, _, f = head.partition(":")
    parts = carrier.split(":")
    if parts[0] == "grid":
        step = float(parts[3])
        size = round(float(parts[2]) / step) + 1
    else:
        step, size = None, int(parts[2]) + 1
    if f.startswith("atanh:"):
        if f != "atanh:1":
            raise ValueError(f"the oracle knows artanh only for scale 1, not {f!r}")
        fvals = _atanh_values(size, step)
    elif f.startswith("table:"):
        fvals = [y for _, y in table]
    else:
        fvals = reference.f_values(f, size)
    return RefArith(kind, fvals, step)


def same_result(got, want) -> bool:
    """Equal value of the same JSON type (so True never passes for 1)."""
    return got[0] == want[0] and type(got[1]) is type(want[1]) and got[1] == want[1]


def audit_mismatches(records: list[dict], expected: list[dict]) -> list[str]:
    """One message per law whose (status, witness, violations) differs from the recording."""
    by_law = {r.get("law"): r for r in records}
    problems = []
    for want in expected:
        got = by_law.get(want["law"])
        if got is None:
            problems.append(f"{want['law']}: missing from the report")
            continue
        diffs = [f"{key} {got.get(key)!r}, expected {want[key]!r}"
                 for key in ("status", "witness", "violations") if got.get(key) != want[key]]
        if diffs:
            problems.append(f"{want['law']}: " + "; ".join(diffs))
    return problems
