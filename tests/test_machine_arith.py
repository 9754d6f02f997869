"""Machine arithmetic as a table f: a tiny binary floating-point format checked against exact rounding.

The carrier 0..N indexes the non-negative values of a format with P
significand bits (subnormals included) and EXPONENTS binades above the
subnormal one.  f maps index i to the i-th value, scaled by 2^-EMIN to an
exact integer.  The projective arithmetic is then addition rounded toward
zero (a sum past the largest value saturates, as IEEE round-toward-zero
does), and the dual arithmetic is addition rounded up, which raises past
the largest value where IEEE would overflow to +inf (Goldberg, "What every
computer scientist should know about floating-point arithmetic", 1991).
The oracle rounds an exact Fraction by exponent and mantissa; it never
searches the table.
"""

from fractions import Fraction

import pytest

from nda.arith import Arithmetic
from nda.errors import CarrierExhaustedError
from nda.laws import CONSISTENT, FAILS, check_archimedean, check_law, verify_archimedean_theorem

P = 4  # significand bits
EXPONENTS = 5  # binades above the subnormal one
EMIN = -6  # the smallest positive value is 2^EMIN
HALF = 1 << (P - 1)
TOP = (1 << P) + EXPONENTS * HALF - 1  # index of the largest value


def _decode(i: int) -> tuple[int, int]:
    """(mantissa, exponent) of the i-th non-negative value, m * 2^(e + EMIN)."""
    if i < 1 << P:  # subnormals and the first normal binade share the spacing 2^EMIN
        return i, 0
    e, k = divmod(i - (1 << P), HALF)
    return HALF + k, e + 1


def _encode(m: int, e: int) -> int:
    return m if e == 0 else (1 << P) + (e - 1) * HALF + (m - HALF)


def _value(i: int) -> Fraction:
    m, e = _decode(i)
    return Fraction(m * 2 ** e) * Fraction(2) ** EMIN


def _rounded_sum(i: int, j: int, up: bool) -> int:
    """Index of value(i) + value(j) rounded toward zero (saturating) or up (raising past the top)."""
    units = (_value(i) + _value(j)) / Fraction(2) ** EMIN  # in steps of the smallest positive value
    e = 0
    while units >= 1 << (P + e):
        e += 1
    q = units / 2 ** e
    m = -(-q.numerator // q.denominator) if up else q.numerator // q.denominator
    if m == 1 << P:  # rounding up carried into the next binade
        m, e = HALF, e + 1
    index = _encode(m, e)
    if index > TOP:
        if up:
            raise CarrierExhaustedError(f"{units} past the largest value")
        return TOP
    return index


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("format") / "p4.tbl"
    scaled = [_value(i) / Fraction(2) ** EMIN for i in range(TOP + 1)]
    assert all(v.denominator == 1 for v in scaled)
    path.write_text("".join(f"{i} {v.numerator}\n" for i, v in enumerate(scaled)))
    return path


def _arith(kind: str, path) -> Arithmetic:
    return Arithmetic.from_spec(f"{kind}:table:{path}@int:0:{TOP}")


def test_format_is_what_it_claims():
    assert TOP == 55
    assert [_value(i) * 2 ** -EMIN for i in (0, 1, 15, 16, 17, 24, TOP)] == [0, 1, 15, 16, 18, 32, 15 * 2 ** EXPONENTS]
    assert all(_encode(*_decode(i)) == i for i in range(TOP + 1))


@pytest.mark.parametrize("kind", ["projective", "dual"])
def test_every_sum_is_the_rounded_exact_sum(kind, table_path):
    a, up = _arith(kind, table_path), kind == "dual"
    table = a.op_table("add", TOP)  # law scans read this view: a dual sum past the top clamps there
    for i in range(TOP + 1):
        for j in range(TOP + 1):
            try:
                expected = _rounded_sum(i, j, up)
            except CarrierExhaustedError:
                with pytest.raises(CarrierExhaustedError):
                    a.add_index(i, j)
                assert table[i, j] == TOP
                continue
            assert a.add_index(i, j) == table[i, j] == expected, (i, j)


def test_rounding_directions_differ_where_the_sum_falls_between_values(table_path):
    # 16 + 1 = 17 lies between 16 and 18: toward zero gives 16, up gives 18
    assert _arith("projective", table_path).add(16, 1) == 16
    assert _arith("dual", table_path).add(16, 1) == 17  # index 17 is the value 18
    assert _arith("projective", table_path).add(TOP, TOP) == TOP
    with pytest.raises(CarrierExhaustedError):
        _arith("dual", table_path).add(TOP, 1)


@pytest.mark.parametrize("kind", ["projective", "dual"])
def test_associativity_fails(kind, table_path):
    a, up = _arith(kind, table_path), kind == "dual"
    report = check_law(a, "assoc-add", TOP)
    assert report.status == FAILS and report.violations > 0
    x, y, z = report.witness

    def add(i, j):
        try:
            return _rounded_sum(i, j, up)
        except CarrierExhaustedError:
            return TOP  # the finite-window view of the scans

    assert add(add(x, y), z) != add(x, add(y, z))


def test_projective_format_absorbs_and_counting_stops(table_path):
    a = _arith("projective", table_path)
    report = verify_archimedean_theorem(a, TOP)
    assert report.details == (("consistency", CONSISTENT), ("archimedean", False))
    assert report.witness == (1, 1 << P)  # 1 << 2^P: the first sum that rounds back is 2^P + 1
    small, big = report.witness
    assert small > 0 and _rounded_sum(big, small, up=False) == big
    # the sums of 1 stop at 2^P, as counting in a float stops at 2^53 in double precision
    counting = check_archimedean(a, TOP)
    assert counting.witness == (1, (1 << P) + 1) and counting.details == (("fixed_point", 1 << P),)


def test_dual_format_never_absorbs(table_path):
    report = verify_archimedean_theorem(_arith("dual", table_path), TOP)
    assert report.details == (("consistency", CONSISTENT), ("archimedean", True)) and report.witness is None
