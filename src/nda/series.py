"""Partial sums inside an arithmetic, and budget-relative convergence.

Two separate ideas live here.  Summing a sequence inside a chosen
arithmetic can make the partial sums stop moving (stationarity), because
addition may absorb.  Independently, a real sequence can be classified by
the trend of its first K terms only: the practical verdict is allowed to
disagree with textbook convergence, and to change as the budget K grows.
That budget dependence is the point, not a defect.

Term magnitudes for the factorial families are generated in log space
(log t_n = n log r - log n!) since the terms themselves overflow doubles
long before the interesting budgets are reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import Arithmetic
from .carrier import number_text
from .errors import SpecError
from .funcparam import parse_number

CONST = "const"
POWFACT = "powfact"  # terms r^n / n!
FACTPOW = "factpow"  # terms n! / r^n
LIST = "list"

PRACTICALLY_CONVERGENT = "practically-convergent"
PRACTICALLY_DIVERGENT = "practically-divergent"
INCONCLUSIVE = "inconclusive"

MAX_TERMS = 1 << 22  # terms one fold or one practical window may take; every one is kept


@dataclass(frozen=True)
class SequenceSpec:
    """A deterministic term generator; terms are indexed from 1."""

    family: str
    param: float | None = None
    values: tuple = ()

    def term(self, n: int):
        """The n-th term as a number (may overflow to inf for huge terms)."""
        self._check_index(n)
        if self.family == CONST:
            return self.param
        if self.family == LIST:
            return self.values[n - 1]
        log_t = self.log_term(n)
        try:
            return math.exp(log_t)
        except OverflowError:
            return math.inf

    def log_term(self, n: int) -> float:
        """Natural log of |t_n|; -inf for zero terms."""
        self._check_index(n)
        if self.family in (CONST, LIST):
            v = abs(self.param if self.family == CONST else self.values[n - 1])
            return math.log(v) if v > 0 else -math.inf
        if self.family == POWFACT:
            return n * math.log(self.param) - math.lgamma(n + 1)
        if self.family == FACTPOW:
            return math.lgamma(n + 1) - n * math.log(self.param)
        raise SpecError(f"unknown sequence family {self.family!r}")

    def _check_index(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"terms are indexed from 1, got {n}")
        if self.family == LIST and n > len(self.values):
            raise ValueError(f"sequence has only {len(self.values)} terms, asked for term {n}")

    @property
    def name(self) -> str:
        """The spec from_spec reads back as this sequence."""
        if self.family == LIST:
            return "list:" + ",".join(map(number_text, self.values))
        return f"{self.family}:{number_text(self.param)}"


def from_spec(spec: str) -> SequenceSpec:
    """Parse ``const:<c>``, ``powfact:<r>``, ``factpow:<r>`` or ``list:<v1,v2,...>``."""
    head, _, rest = spec.partition(":")
    try:
        if head == CONST:
            return SequenceSpec(CONST, param=parse_number(rest))
        if head in (POWFACT, FACTPOW):
            r = float(rest)
            if not 0 < r < math.inf:  # false for nan too
                raise SpecError(f"ratio must be finite and positive in {spec!r}")
            return SequenceSpec(head, param=r)
        if head == LIST:
            return SequenceSpec(LIST, values=tuple(parse_number(part) for part in rest.split(",")))
    except ValueError:
        raise SpecError(f"bad number in sequence spec {spec!r}") from None
    raise SpecError(f"unknown sequence spec {spec!r} (want const:, powfact:, factpow: or list:)")


def arith_partial_sums(arith: Arithmetic, seq: SequenceSpec, n: int):
    """Left-fold the first n terms inside the arithmetic.

    Returns (sums, stationary_at) where stationary_at is the least 1-based k
    with s_k = s_{k+1} = ... = s_n, or None if the final sum is never
    repeated.  Terms must all lie on the carrier.  More than MAX_TERMS
    terms are refused before any is folded.
    """
    if not 1 <= n <= MAX_TERMS:
        raise ValueError(f"need between 1 and {MAX_TERMS:,} terms, got n={n}")
    carrier = arith.carrier
    acc = carrier.index_of(seq.term(1))
    indices = [acc]
    for k in range(2, n + 1):
        acc = arith.add_index(acc, carrier.index_of(seq.term(k)))
        indices.append(acc)
    sums = [carrier.value_at(i) for i in indices]
    last = indices[-1]
    i = n - 1
    while i > 0 and indices[i - 1] == last:
        i -= 1
    stationary_at = i + 1 if i < n - 1 else None
    return sums, stationary_at


@dataclass(frozen=True)
class TrendEvidence:
    """Per-step movement of log-magnitudes over the trailing window."""

    window: int
    tol: float
    min_step: float
    max_step: float
    mean_step: float


@dataclass(frozen=True)
class ConvergenceVerdict:
    verdict: str
    budget: int
    evidence: TrendEvidence


def practical_convergence(seq: SequenceSpec, budget: int, window: int = 50,
                          tol: float = 1e-12) -> ConvergenceVerdict:
    """Classify by the trend of the last `window` of the first `budget` terms.

    Strictly rising log-magnitudes (by more than tol per step) read as
    practically divergent, strictly falling as practically convergent,
    anything else as inconclusive.  The verdict is a pure function of
    (seq, budget, window, tol) and is expected to flip as budget grows.
    A window of more than MAX_TERMS terms, and a negative or NaN tol, are
    refused before any term is computed.
    """
    if not tol >= 0:  # false for nan too
        raise ValueError(f"tol must be non-negative, got {tol}")
    if window < 2:
        raise ValueError(f"window must be at least 2, got {window}")
    if window > MAX_TERMS:  # every term and step of the window is held at once
        raise ValueError(f"window must be at most {MAX_TERMS:,}, got {window}")
    if budget < window:
        raise ValueError(f"budget {budget} smaller than window {window}")
    logs = [seq.log_term(k) for k in range(budget - window + 1, budget + 1)]
    steps = [b - a for a, b in zip(logs, logs[1:])]
    finite = [s for s in steps if s == s and not math.isinf(s)]
    if len(finite) != len(steps):
        verdict = INCONCLUSIVE
    elif all(s > tol for s in steps):
        verdict = PRACTICALLY_DIVERGENT
    elif all(s < -tol for s in steps):
        verdict = PRACTICALLY_CONVERGENT
    else:
        verdict = INCONCLUSIVE
    evidence = TrendEvidence(
        window=window,
        tol=tol,
        min_step=min(finite) if finite else math.nan,
        max_step=max(finite) if finite else math.nan,
        mean_step=sum(finite) / len(finite) if finite else math.nan,
    )
    return ConvergenceVerdict(verdict, budget, evidence)
