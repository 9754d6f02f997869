import itertools
import math
import tracemalloc
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nda import laws
from nda.arith import Arithmetic
from nda.carrier import Carrier
from nda.exprlang import evaluate, parse_text
from nda.funcparam import TABLE, FunctionalParameter
from nda.laws import (
    ALL_LAWS,
    FAILS,
    HOLDS,
    LAW_NAMES,
    LawReport,
    NOT_APPLICABLE,
    CONSISTENT,
    check_archimedean,
    check_law,
    check_laws,
    verify_archimedean_theorem,
)
from nda.series import arith_partial_sums
from nda.series import from_spec as seq_from_spec

from reference import atanh_values, f_values, ref_add, ref_archimedean, ref_least_absorption, ref_mul, smallest_witness


def arith(spec):
    return Arithmetic.from_spec(spec)


# ----------------------------------------------------------------------
# full cross-check against the nested-loop reference on small ranges
# ----------------------------------------------------------------------

REFERENCE_LAW_FNS = {
    "commutativity-add": (2, lambda add, mul, t: add(t[0], t[1]) == add(t[1], t[0])),
    "commutativity-mul": (2, lambda add, mul, t: mul(t[0], t[1]) == mul(t[1], t[0])),
    "assoc-add": (3, lambda add, mul, t: add(add(t[0], t[1]), t[2]) == add(t[0], add(t[1], t[2]))),
    "assoc-mul": (3, lambda add, mul, t: mul(mul(t[0], t[1]), t[2]) == mul(t[0], mul(t[1], t[2]))),
    "distributivity": (3, lambda add, mul, t: mul(t[0], add(t[1], t[2])) == add(mul(t[0], t[1]), mul(t[0], t[2]))),
    "neutral-zero": (1, lambda add, mul, t: add(t[0], 0) == t[0] and add(0, t[0]) == t[0]),
    "neutral-one": (1, lambda add, mul, t: mul(t[0], 1) == t[0] and mul(1, t[0]) == t[0]),
}


def reference_report(name, kind, law, upper, points=31):
    return reference_scan(f_values(name, points), kind, law, upper)


def reference_scan(fvals, kind, law, upper):
    add = lru_cache(None)(lambda i, j: ref_add(fvals, kind, i, j))
    mul = lru_cache(None)(lambda i, j: ref_mul(fvals, kind, i, j))
    arity, ok = REFERENCE_LAW_FNS[law]
    violations = []
    for flat in range((upper + 1) ** arity):
        t = []
        rest = flat
        for _ in range(arity):
            t.append(rest % (upper + 1))
            rest //= (upper + 1)
        t = tuple(reversed(t))
        if not ok(add, mul, t):
            violations.append(t)
    return smallest_witness(violations), len(violations)


@pytest.mark.parametrize("name", ["id", "pow:1.5", "pow:2", "exp2m1", "quad"])
@pytest.mark.parametrize("kind", ["projective", "dual"])
@pytest.mark.parametrize("law", ALL_LAWS)
def test_matches_reference_scan(name, kind, law, upper=12):
    a = arith(f"{kind}:{name}@int:0:30")
    report = check_law(a, law, upper)
    expected_witness, expected_count = reference_report(name, kind, law, upper)
    if expected_witness is None:
        assert report.status == HOLDS
        assert report.witness is None
        assert report.violations == 0
    else:
        assert report.status == FAILS
        assert report.witness == expected_witness
        assert report.violations == expected_count


# ----------------------------------------------------------------------
# pinned witnesses, with independent minimality proofs
# ----------------------------------------------------------------------

def minimality_predecessors(witness, upper):
    """All triples that would count as smaller under (max-component, lex)."""
    key = (max(witness), witness)
    for a in range(upper + 1):
        for b in range(upper + 1):
            for c in range(upper + 1):
                t = (a, b, c)
                if (max(t), t) < key:
                    yield t


def test_assoc_add_pow15_witness_pinned():
    a = arith("projective:pow:1.5@int:0:100")
    report = check_law(a, "assoc-add", 50)
    assert report.status == FAILS
    assert report.witness == (2, 3, 3)
    # the witness reproduces 5 != 4 through scalar operations
    lhs = a.add(a.add(2, 3), 3)
    rhs = a.add(2, a.add(3, 3))
    assert (lhs, rhs) == (5, 4)
    # bracket check straight from f: target of (2+3) lies in [f(4), f(5))
    t_23 = math.pow(2, 1.5) + math.pow(3, 1.5)
    assert math.pow(4, 1.5) <= t_23 < math.pow(5, 1.5)
    # no smaller triple violates associativity
    for t in minimality_predecessors((2, 3, 3), 50):
        assert a.add(a.add(t[0], t[1]), t[2]) == a.add(t[0], a.add(t[1], t[2]))


def test_distributivity_quad_witness_pinned():
    a = arith("projective:quad@int:0:100")
    report = check_law(a, "distributivity", 50)
    assert report.status == FAILS
    assert report.witness == (2, 1, 1)
    assert a.mul(2, a.add(1, 1)) == 2
    assert a.add(a.mul(2, 1), a.mul(2, 1)) == 3
    for t in minimality_predecessors((2, 1, 1), 50):
        assert a.mul(t[0], a.add(t[1], t[2])) == a.add(a.mul(t[0], t[1]), a.mul(t[0], t[2]))


def test_identity_holds_everything():
    for kind in ("projective", "dual"):
        a = arith(f"{kind}:id@int:0:200")
        for law in ("assoc-add", "assoc-mul", "distributivity"):  # the scanned laws; the rest hold by construction
            report = check_law(a, law, 200)
            assert report.status == HOLDS, report


def test_not_applicable_without_multiplication():
    a = arith("projective:atanh:1@grid:0:1:0.001")
    for law in ("neutral-one", "commutativity-mul", "assoc-mul", "distributivity"):
        report = check_law(a, law, 100)
        assert report.status == NOT_APPLICABLE
        assert report.witness is None


def one_below_table(top):
    """f(x) = x but f(1) = 1 - 1e-13, and f(top) = +inf."""
    return [0, 1 - 1e-13, *range(2, top), math.inf]


@pytest.mark.parametrize("kind", ["projective", "dual"])
def test_neutral_one_not_applicable_where_f_of_one_is_not_one(kind, tmp_path):
    # with f(1) = 1 - 1e-13, projective a * 1 would round below a from a = 1 up to the top
    (tmp_path / "one.tbl").write_text("".join(f"{x} {v!r}\n" for x, v in enumerate(one_below_table(10))))
    a = arith(f"{kind}:table:{tmp_path / 'one.tbl'}@int:0:10")
    assert not a.multiplicative
    report = check_law(a, "neutral-one", 10)
    assert (report.status, report.witness, report.pairs_checked, report.violations) == (NOT_APPLICABLE, None, 0, None)


def test_failing_witness_reproduces_through_operations():
    a = arith("projective:exp2m1@int:0:100")
    report = check_law(a, "assoc-mul", 40)
    if report.status == FAILS:
        x, y, z = report.witness
        assert a.mul(a.mul(x, y), z) != a.mul(x, a.mul(y, z))


def test_reports_are_deterministic():
    a = arith("projective:pow:1.5@int:0:100")
    assert check_law(a, "assoc-add", 40) == check_law(a, "assoc-add", 40)


def test_range_bound_validated():
    with pytest.raises(ValueError):
        check_law(arith("projective:id@int:0:10"), "assoc-add", 11)
    with pytest.raises(ValueError):
        check_law(arith("projective:id@int:0:10"), "no-such-law", 5)


def no_table_past_the_corner(index_table):
    """index_table that computes only one-cell corners, which size a scan's tables before it is refused or run."""
    def corner(self, op, rows, cols):
        assert np.broadcast(rows, cols).size == 1, "an op table was built for a refused scan"
        return index_table(self, op, rows, cols)
    return corner


def test_oversize_scan_refused_before_any_table(monkeypatch):
    a = arith("projective:pow:1.5@int:0:30")
    # R=12: the 2-ary scans need tables over [0..12]^2; assoc-add and
    # distributivity need add(12, 12) = 19 and assoc-mul mul(12, 12) = 30
    # and computing those ops directly would scan the whole cube past its limit
    monkeypatch.setattr(laws, "MAX_TABLE_CELLS", 13 ** 2)
    monkeypatch.setattr(laws, "MAX_SCAN_CELLS", 13 ** 2)
    assert check_law(a, "commutativity-add", 12).pairs_checked == 13 ** 2
    assert verify_archimedean_theorem(a, 12).status == HOLDS
    monkeypatch.setattr(Arithmetic, "index_table", no_table_past_the_corner(Arithmetic.index_table))
    for law in ("assoc-add", "assoc-mul", "distributivity"):
        with pytest.raises(ValueError, match="exceeds the limit"):
            check_law(a, law, 12)


@pytest.mark.parametrize("spec, law, extent", [
    ("projective:pow:1.5@int:0:1000", "assoc-mul", 483),  # mul(22, 22), one below 22^2 = 484 by rounding
    ("projective:id@int:0:100", "assoc-add", 44),
])
def test_tiled_scan_bounded_by_the_cells_it_reads(spec, law, extent, monkeypatch, upper=22):
    a, n, op = arith(spec), upper + 1, laws._LAWS[law][2]
    kind, name = spec.split("@")[0].split(":", 1)
    reads = (extent + 1) * n  # the outer op over [0..M] x [0..R], whose [0..R]^2 block is the inner op
    monkeypatch.setattr(laws, "MAX_SCAN_CELLS", n * n)
    monkeypatch.setattr(laws, "MAX_TABLE_CELLS", reads)
    assert n ** 3 > laws.MAX_SCAN_CELLS and (extent + 1) ** 2 > laws.MAX_TABLE_CELLS  # neither cube nor square fits
    report = check_law(a, law, upper)
    assert (report.witness, report.violations) == reference_report(name, kind, law, upper, points=a.carrier.size)
    assert a._op_tables[op].shape == (extent + 1, n)
    assert check_laws(a, [law], upper) == [report]
    monkeypatch.setattr(laws, "MAX_TABLE_CELLS", reads - 1)
    with pytest.raises(ValueError, match="exceeds the limit"):
        check_law(a, law, upper)
    monkeypatch.setattr(laws, "MAX_SCAN_CELLS", n ** 3)  # the cube fits: the outer op over the distinct inner values
    assert laws._plan(a, law, upper)[2] == {op: None}
    assert check_law(a, law, upper) == report


def test_oversize_distributivity_still_refused(monkeypatch, upper=22):
    # the limits under which test_tiled_scan_bounded_by_the_cells_it_reads admits assoc-mul; mul's
    # [0..34] x [0..22] fits them, add's [0..483]^2 does not
    a, n = arith("projective:pow:1.5@int:0:1000"), upper + 1
    monkeypatch.setattr(laws, "MAX_SCAN_CELLS", n * n)
    monkeypatch.setattr(laws, "MAX_TABLE_CELLS", 484 * n)
    assert check_law(a, "assoc-mul", upper).status == FAILS
    monkeypatch.setattr(Arithmetic, "index_table", no_table_past_the_corner(Arithmetic.index_table))
    with pytest.raises(ValueError, match=r"add table over \[0..483\] x \[0..483\] .* exceeds the limit"):
        check_law(a, "distributivity", upper)


@pytest.mark.parametrize("spec, dtype", [
    ("projective:pow:1.5@int:0:40", "float64"),
    # assoc-add with one leading index a chunk: a=2 holds violations, the witness (3, 4, 4) the next chunk
    ("projective:pow:1.2@int:0:40", "float64"),
    ("dual:pow:2@int:0:40", "int64"),
    ("projective:exp2m1@int:0:40", "int64"),  # f(40)^2 passes 2^63: mul saturates its targets past f(top)
    ("dual:exp2m1@int:0:40", "int64"),
    ("projective:exp2m1@int:0:70", "object"),  # f(70) passes int64: the exact search
    ("dual:exp2m1@int:0:70", "object"),
])
@pytest.mark.parametrize("law", ALL_LAWS)
def test_chunked_scan_matches_single_chunk_and_reference(spec, dtype, law, monkeypatch, upper=22):
    a = arith(spec)
    assert a._f_array.dtype == dtype  # the one dtype both ops search
    whole = check_law(a, law, upper)
    kind, name = spec.split("@")[0].split(":", 1)
    assert (whole.witness, whole.violations) == reference_report(name, kind, law, upper, points=a.carrier.size)
    arity = laws._LAWS[law][0]
    for rows in (1, 4):  # 4 does not divide R + 1 = 23, so the last chunk is short
        monkeypatch.setattr(laws, "MAX_SCAN_CELLS", rows * (upper + 1) ** (arity - 1))
        assert check_law(a, law, upper) == whole
        # each scan reuses its buffers across chunks: a short last chunk sees a longer
        # buffer than its own cells
        assert check_laws(a, ALL_LAWS, upper)[ALL_LAWS.index(law)] == whole
    monkeypatch.setattr(laws, "MAX_SCAN_CELLS", (upper + 1) ** arity)
    monkeypatch.setattr(laws, "MAX_TABLE_CELLS", 0)  # every op computed directly, one leading index a chunk
    cells, index_table = [], Arithmetic.index_table
    monkeypatch.setattr(Arithmetic, "index_table", lambda self, op, rows, cols: (
        cells.append(np.broadcast(rows, cols).size), index_table(self, op, rows, cols))[1])
    assert check_law(a, law, upper) == whole
    n = upper + 1
    if laws._LAWS[law][2] is None:  # holds by construction: no op is computed
        assert cells == []
    elif law == "distributivity":  # the tiles read the outer op over their distinct inner values
        assert cells and max(cells) <= max(n, n ** (arity - 1))


def test_scan_past_the_table_bound_memory():
    a = arith("projective:pow:1.5@int:0:10000")
    check_law(a, "distributivity", 100)  # the op tables are memoised before tracing; add's would pass 8M cells
    assert None in laws._plan(a, "distributivity", 100)[2].values()
    tracemalloc.start()
    try:
        check_law(a, "distributivity", 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 101 ** 3  # one leading index a chunk; the whole cube would take 8 * 101 ** 3 bytes


def test_distributivity_scan_memory():
    a = arith("projective:pow:1.5@int:0:100")
    check_law(a, "distributivity", 60)  # the op tables are memoised before tracing
    tracemalloc.start()
    try:
        check_law(a, "distributivity", 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.5 * 61 ** 3  # the cube in one chunk of two int32 sides; a bool mask too takes 9 bytes a cell


def test_fold_keeps_the_least_witness_over_leading_indices():
    n = 6
    first, second = np.zeros((1, n, n), np.int32), np.zeros((1, n, n), np.int32)
    first[0, 5, 5], first[0, 4, 5] = 7, -3  # (0, 4, 5) and (0, 5, 5): largest component 5
    second[0, 1, 2], second[0, 3, 0] = -1, 12  # (1, 1, 2): largest component 2, so least though it comes later
    blocks = [(first, 1, (0, 0, 0)), (second, 1, (1, 0, 0)), (np.zeros((1, n, n), np.int32), 1, (2, 0, 0))]
    assert laws._fold(iter(blocks), n) == (4, (1, 1, 2))
    for block, _, offsets in blocks[:2]:  # a difference reads as its nonzero cells, whatever their values
        assert laws._least_violation(block, offsets) == laws._least_violation(block != 0, offsets)


@st.composite
def violation_blocks(draw):
    """(block, offsets): a bool or int32 block of up to 5^3 cells, one nonzero at least, maybe a transposed view."""
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=3, max_size=3)))
    cells = math.prod(shape)
    values = st.booleans() if draw(st.booleans()) else st.integers(-3, 3)
    flat = draw(st.lists(values, min_size=cells, max_size=cells).filter(any))
    block = np.array(flat, bool if isinstance(flat[0], bool) else np.int32).reshape(shape)
    if draw(st.booleans()):  # as _tiles yields its masks: a non-contiguous view
        block = block.transpose(draw(st.permutations(range(3))))
    return block, tuple(draw(st.lists(st.integers(0, 7), min_size=3, max_size=3)))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(violation_blocks())
def test_least_violation_is_the_reference_witness(drawn):
    block, offsets = drawn
    cells = itertools.product(*map(range, block.shape))
    shifted = [tuple(i + o for i, o in zip(cell, offsets)) for cell in cells if block[cell]]
    assert laws._least_violation(block, offsets) == smallest_witness(shifted)


@pytest.mark.parametrize("kind", ["projective", "dual"])
@pytest.mark.parametrize("name, extents", [
    # R = 22: add's [0..mul(R, R)]^2, mul(R, R) one below 22^2 = 484 by rounding where projective
    ("pow:1.5", {"projective": {"add": (483, 483), "mul": (34, 22)}, "dual": {"add": (484, 484), "mul": (35, 22)}}),
    # R = 10: add(10, 10) = 10 * 2^10 passes the top, and mul's 1,001 x 11 cells pass add's 101^2: only add is tabled
    ("pow:0.1", {"projective": {"add": (100, 100), "mul": (1000, 10)}, "dual": {"add": (100, 100), "mul": (1000, 10)}}),
    # R = 5: only add tabled too, where distributivity fails (pow:0.1 holds at R = 10), mul's rows below the top
    ("pow:0.2", {"projective": {"add": (25, 25), "mul": (160, 5)}, "dual": {"add": (25, 25), "mul": (160, 5)}}),
])
def test_distributivity_with_one_op_tabled(name, extents, kind, monkeypatch):
    upper = extents[kind]["mul"][1]  # distributivity's mul table is [0..add(R, R)] x [0..R]
    a, n = arith(f"{kind}:{name}@int:0:1000"), upper + 1
    assert laws._plan(a, "distributivity", upper)[2] == extents[kind]
    whole = check_law(a, "distributivity", upper)  # both ops tabled, the cube in one chunk
    assert (whole.witness, whole.violations) == reference_report(name, kind, "distributivity", upper, points=1001)
    (small, tabled), (large, _) = sorted((laws._cells(extent), op) for op, extent in extents[kind].items())
    monkeypatch.setattr(laws, "MAX_TABLE_CELLS", small)  # only the op of the smaller table has one
    monkeypatch.setattr(laws, "MAX_SCAN_CELLS", n ** 3)  # the least that admits a scan with an untabled op
    assert large > laws.MAX_TABLE_CELLS
    cells, index_table = [], Arithmetic.index_table
    monkeypatch.setattr(Arithmetic, "index_table", lambda self, op, rows, cols: (
        cells.append(np.broadcast(rows, cols).size), index_table(self, op, rows, cols))[1])
    assert check_law(a, "distributivity", upper) == whole
    # one leading index a >= 2 a chunk, each call at most (R+1)^2 cells: where mul has no table, a(b + c) once a
    # chunk; where add has none, p + p once an a and b + c once a scan
    assert max(cells) == n * n and cells.count(n * n) == n - 2 + (tabled == "mul")


# ----------------------------------------------------------------------
# distributivity of an integral power: one interval of a per (b, c)
# ----------------------------------------------------------------------

def chunk_report(a, upper):
    """distributivity's report from its chunks, for an f that the interval scan would take."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(laws, "_integral_power", lambda arith: None)
        assert laws._plan(a, "distributivity", upper)[1] == "distributivity"
        return check_law(a, "distributivity", upper)


@pytest.mark.parametrize("spec, scan", [
    ("projective:pow:2@int:0:100", "intervals"),
    ("dual:pow:3.0@int:0:100", "intervals"),
    ("projective:pow:1.5@int:0:100", "distributivity"),
    ("dual:pow:2@grid:0:2:0.05", "distributivity"),
    ("projective:id@int:0:100", "distributivity"),
    ("projective:exp2m1@int:0:100", "distributivity"),
])
def test_interval_scan_taken_for_an_integral_power_on_integers_only(spec, scan):
    assert laws._plan(arith(spec), "distributivity", 20) == (3, scan, {} if scan == "intervals" else mock.ANY)


@pytest.mark.parametrize("kind", ["projective", "dual"])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_interval_scan_matches_the_chunks(p, kind):
    # on 1,001 points ac passes the top from R = 32 on
    a = arith(f"{kind}:pow:{p}@int:0:1000")
    for upper in range(61):
        assert check_law(a, "distributivity", upper) == chunk_report(a, upper), upper


@pytest.mark.parametrize("kind", ["projective", "dual"])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_interval_scan_matches_reference(p, kind):
    # on 101 points ac passes the top from R = 11 on
    a, fvals = arith(f"{kind}:pow:{p}@int:0:100"), [v ** p for v in range(101)]
    for upper in (1, 2, 13, 40):
        report = check_law(a, "distributivity", upper)
        assert (report.witness, report.violations) == reference_scan(fvals, kind, "distributivity", upper), upper


@pytest.mark.parametrize("spec, upper, witness, violations", [
    # the reports of the chunks, which scanned these cubes before the interval scan
    ("projective:pow:2@int:0:1000", 300, (2, 2, 2), 265_948),
    ("dual:pow:2@int:0:1000", 300, (2, 1, 1), 292_452),
    ("projective:pow:2@int:0:1000", 1000, (2, 2, 2), 320_519),
    ("dual:pow:2@int:0:1000", 1000, (2, 1, 1), 353_989),
    ("projective:pow:3@int:0:1000", 300, (2, 2, 2), 262_916),
    ("dual:pow:3@int:0:1000", 300, (2, 1, 1), 333_359),
    ("projective:pow:3@int:0:1000", 1000, (2, 2, 2), 324_897),
    ("dual:pow:3@int:0:1000", 1000, (2, 1, 1), 417_727),
])
def test_interval_scan_pinned(spec, upper, witness, violations):
    report = check_law(arith(spec), "distributivity", upper)
    assert report == LawReport("distributivity", FAILS, witness, upper, (upper + 1) ** 3, violations)


@pytest.mark.parametrize("kind", ["projective", "dual"])
def test_interval_scan_past_int64(kind):
    # f(1000) = 10^21 passes 2^63: f's values are Python ints, and so are the terms of the exact tests
    a = arith(f"{kind}:pow:7@int:0:1000")
    assert a._f_array.dtype == object
    for upper in (30, 60):
        assert check_law(a, "distributivity", upper) == chunk_report(a, upper)


@pytest.mark.parametrize("kind", ["projective", "dual"])
def test_interval_bounds_near_the_int64_edge(kind, upper=3000):
    # f(T) = (2^21 - 1)^3 fits int64 with under 2^45 to spare, so a^p S, up to 2 f(T), or (am - 1)^p, am up to
    # T + a, would wrap; with c in [700..3000] and a up to 3000, ac and am reach T, and the exact tests' terms f(T)
    a, top = arith(f"{kind}:pow:3@int:0:2097151"), 2 ** 21 - 1
    assert a._f_array.dtype == np.int64 and 2 ** 63 - 2 ** 45 < top ** 3 < 2 ** 63
    rng = np.random.default_rng(0)
    c = rng.integers(700, upper + 1, 400)
    b = rng.integers(1, c + 1)
    lo, hi = laws._bounds(a, 3, b, c, upper + 1)
    assert (c * hi).max() > 0.999 * top
    index, mul = np.arange(upper + 1)[:, None], lambda x, y: a.index_table("mul", x, y)
    violates = mul(index, a.index_table("add", b, c)) != a.index_table("add", mul(index, b), mul(index, c))
    assert np.array_equal(violates, (index >= lo) & (index <= hi))  # every pair's violations are [lo, hi]
    least = laws._least
    for guess in (-np.inf, np.inf):  # each bound stepped to from one end: the exact tests run at every a on the way
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(laws, "_least", lambda test, guesses, *rest: least(test, np.full(guesses.shape, guess), *rest))
            assert all(map(np.array_equal, laws._bounds(a, 3, b, c, upper + 1), (lo, hi))), guess
    assert check_law(a, "distributivity", 60) == chunk_report(a, 60)


def test_interval_scan_memory():
    # the cube at R = 1000 takes 8 GB in two int32 sides, and no op table is built
    a = arith("projective:pow:2@int:0:100000")
    a.index_table("add", 1, 1)
    tracemalloc.start()
    try:
        report = check_law(a, "distributivity", 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.violations == 160_125_098 and a._op_tables == {}
    assert peak < 256 * laws.BLOCK_CELLS  # some 170 bytes a pair of a block


@pytest.mark.parametrize("spec, dtype", [
    ("projective:pow:1.5@int:0:40", "float64"),
    ("projective:pow:1.2@int:0:40", "float64"),
    ("dual:pow:2@int:0:40", "int64"),
    ("projective:exp2m1@int:0:40", "int64"),  # f(40)^2 passes 2^63: mul saturates its targets past f(top)
    ("dual:exp2m1@int:0:40", "int64"),
    ("projective:exp2m1@int:0:70", "object"),  # f(70) passes int64: the exact search
    ("dual:exp2m1@int:0:70", "object"),
    ("dual:quad@int:0:40", "int64"),
])
@pytest.mark.parametrize("law", ["assoc-add", "assoc-mul"])
def test_tiled_assoc_scan_matches_reference(spec, dtype, law, monkeypatch, upper=22):
    a = arith(spec)
    assert a._f_array.dtype == dtype  # the one dtype both ops search
    kind, name = spec.split("@")[0].split(":", 1)
    expected = reference_report(name, kind, law, upper, points=a.carrier.size)
    for tile in (1, 3, 23):  # 3 does not divide R + 1 = 23, so the last block is short
        monkeypatch.setattr(laws, "ASSOC_TILE", tile)
        report = check_law(a, law, upper)
        assert (report.witness, report.violations) == expected
        assert report.status == (FAILS if expected[1] else HOLDS)
        assert report.pairs_checked == (upper + 1) ** 3
        assert check_laws(a, ALL_LAWS, upper)[ALL_LAWS.index(law)] == report
    monkeypatch.setattr(laws, "MAX_TABLE_CELLS", 0)  # the outer op from a table over the distinct inner values
    assert check_law(a, law, upper) == report


def test_tiled_assoc_scan_memory():
    a = arith("projective:pow:1.5@int:0:100")
    check_law(a, "assoc-add", 60)  # the op table is memoised before tracing
    tracemalloc.start()
    try:
        check_law(a, "assoc-add", 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 61 ** 3  # a chunk of the cube would take 8 * 61 ** 3 bytes


@pytest.mark.parametrize("spec, top, narrow", [
    ("projective:pow:0.3@int:0:5000", 464, np.uint16),  # add(add(12, 12), 12) = 464, from the op table
    # add(12, 12) = 12,379 leaves no table: the outer op over the distinct inner values saturates at the top
    ("projective:pow:0.1@int:0:200000", 200000, np.uint32),
])
def test_tiled_assoc_scan_widens_its_narrow_columns(spec, top, narrow, monkeypatch, upper=12):
    a, n = arith(spec), upper + 1
    add = a.add_index
    cells = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    violations = [t for t in cells if add(add(t[0], t[1]), t[2]) != add(t[0], add(t[1], t[2]))]
    assert max(add(add(i, j), k) for i, j, k in cells) == top
    read, take = set(), np.take  # the dtype of every array that the tiles take from
    monkeypatch.setattr(np, "take", lambda array, *args, **kwargs: read.add(array.dtype) or take(array, *args, **kwargs))
    report = check_law(a, "assoc-add", upper)
    assert read == {np.dtype(narrow)}
    assert (report.witness, report.violations) == (smallest_witness(violations), len(violations))


def test_decided_laws_read_no_table(monkeypatch):
    # commutativity and the neutral laws hold by construction (see the module docstring), at any R up to the top,
    # even where a scan of them would pass both limits
    a = arith("projective:pow:1.5@int:0:1000")
    decided = [law for law in ALL_LAWS if laws._LAWS[law][2] is None]
    assert decided == ["commutativity-add", "commutativity-mul", "neutral-zero", "neutral-one"]
    monkeypatch.setattr(laws, "MAX_TABLE_CELLS", 1)
    monkeypatch.setattr(laws, "MAX_SCAN_CELLS", 1)
    for name in ("op_table", "index_table"):
        monkeypatch.setattr(Arithmetic, name, lambda *args, name=name: pytest.fail(f"{name} called for a decided law"))
    for upper in (0, 12, 1000):
        rows = [(r.law, r.status, r.witness, r.pairs_checked, r.violations) for r in check_laws(a, decided, upper)]
        assert rows == [(law, HOLDS, None, (upper + 1) ** laws._LAWS[law][0], 0) for law in decided]


@st.composite
def bound_tables(draw):
    """f values of a strictly increasing table: ints, floats or both, f(0) and f(1) an int or a float, +inf on top or not."""
    # odd ints past 2^53, which no float holds, beside ints of any size
    ints = st.integers(2, 1 << 80) | st.integers(1 << 52, 1 << 80).map(lambda k: 2 * k + 1)
    floats = st.floats(1.0, 1e30, exclude_min=True)
    body = draw(st.sampled_from([ints, floats, ints | floats]))
    one = draw(st.sampled_from([1, 1.0, 1 - 1e-13, 1 + 2 ** -52, 0.5]))
    rest = sorted(v for v in set(draw(st.lists(body, min_size=1, max_size=7))) if v > one)
    top = [math.inf] if draw(st.booleans()) else []
    return [draw(st.sampled_from([0, 0.0])), one, *rest, *top]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(bound_tables())
def test_decided_laws_hold_on_every_bound_table(values):
    # the proof the decided rows rest on: over the values bind keeps, the reference ops commute, 0 is neutral,
    # and 1 is too wherever bind enables multiplication
    carrier = Carrier.integers(len(values) - 1)
    f, n = FunctionalParameter("table:drawn", TABLE, points=tuple(enumerate(values))), len(values)
    for kind in ("projective", "dual"):
        a = Arithmetic(carrier, f, kind)
        fvals, cells = a._f_array.tolist(), [(i, j) for i in range(n) for j in range(n)]
        assert a.multiplicative == (values[1] == 1)
        assert all(ref_add(fvals, kind, i, j) == ref_add(fvals, kind, j, i) for i, j in cells)
        assert all(ref_add(fvals, kind, i, 0) == i == ref_add(fvals, kind, 0, i) for i in range(n))
        if a.multiplicative:
            assert all(ref_mul(fvals, kind, i, j) == ref_mul(fvals, kind, j, i) for i, j in cells)
            assert all(ref_mul(fvals, kind, i, 1) == i == ref_mul(fvals, kind, 1, i) for i in range(n))
        for law in ("commutativity-add", "commutativity-mul", "neutral-zero", "neutral-one"):
            applicable = a.multiplicative or not laws._LAWS[law][1]
            assert check_law(a, law, n - 1).status == (HOLDS if applicable else NOT_APPLICABLE)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(bound_tables())
def test_scans_skip_only_cells_the_top_decides(values):
    # the skip rests on monotone op tables with 0 + b and 1 * b exactly b, which an f with a float below its top
    # beside ints need not give (0, 0.9999999999999, 2, 2^53 + 1: 3 + 1 = 2 < 3 + 0): on every f that bind keeps,
    # each 3-ary scan at R = top equals the nested loops, with one index a tile and a chunk, and with every op
    # computed by index_table
    carrier, n = Carrier.integers(len(values) - 1), len(values)
    f = FunctionalParameter("table:drawn", TABLE, points=tuple(enumerate(values)))
    for kind in ("projective", "dual"):
        a = Arithmetic(carrier, f, kind)
        fvals = a._f_array.tolist()
        for law in ("assoc-add", "assoc-mul", "distributivity"):
            if laws._LAWS[law][1] and not a.multiplicative:
                continue
            expected = reference_scan(fvals, kind, law, n - 1)
            for tile, scan, table in ((laws.ASSOC_TILE, laws.MAX_SCAN_CELLS, laws.MAX_TABLE_CELLS), (1, n * n, n * n),
                                      (2, n ** 3, 0)):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(laws, "ASSOC_TILE", tile)
                    patch.setattr(laws, "MAX_SCAN_CELLS", scan)
                    patch.setattr(laws, "MAX_TABLE_CELLS", table)
                    report = check_law(a, law, n - 1)
                assert (report.witness, report.violations) == expected, (kind, law, tile)


@pytest.mark.parametrize("spec, upper, gathered", [
    # pow:2 saturates from ab >= 1000 on, so past the first tiles little is left to gather
    ("projective:pow:2@int:0:1000", 1000, {"assoc-mul": 0.05 * 1001 ** 3}),
    # exp2m1 reaches the top nowhere below R = 300: every cell is gathered, as many as without the skip, of the rows
    # a >= 2 in distributivity
    ("projective:exp2m1@int:0:1000", 300, {"distributivity": 108_178_798, "assoc-mul": 27_270_901}),
    # pow:1.5 saturates from ab >= 1000 on too, and its chunks take the rows a >= 2 by [0..k(2))^2 first: 41,385,237
    # cells, against 46,326,005 from a = 0 by [0..k(0))^2
    ("projective:pow:1.5@int:0:1000", 1000, {"distributivity": 42_000_000}),
])
def test_scans_gather_no_cell_the_top_decides(spec, upper, gathered, monkeypatch):
    a, take, cells = arith(spec), np.take, []

    def counted(*args, **kwargs):  # the cells each take gathers
        out = take(*args, **kwargs)
        cells.append(out.size)
        return out

    monkeypatch.setattr(np, "take", counted)
    for law, bound in gathered.items():
        cells.clear()
        check_law(a, law, upper)
        assert sum(cells) < bound if upper == 1000 else sum(cells) == bound, law


@pytest.mark.parametrize("short", ["row", "column"])
@pytest.mark.parametrize("law", ["assoc-add", "assoc-mul", "distributivity"])
def test_operand_past_a_short_table_raises(law, short, monkeypatch):
    # tables are taken from with mode="wrap", so a bounds check must catch an operand past the table
    tables = laws._tables
    cut = (slice(-1),) if short == "row" else (slice(None), slice(-1))
    monkeypatch.setattr(laws, "_tables", lambda *args: {op: t[cut] for op, t in tables(*args).items()})
    with pytest.raises(IndexError):
        check_law(arith("projective:pow:1.5@int:0:1000"), law, 12)


def test_each_op_table_is_built_once_per_audit(monkeypatch):
    # assoc-mul and distributivity need mul over [0..59] x [0..30] (mul(30, 30) = 59, add(30, 30) = 30), and
    # assoc-add add over [0..30]^2 and distributivity over [0..59]^2 (add(59, 59))
    a = Arithmetic.from_spec("projective:exp2m1@int:0:100")
    built = []
    index_table = Arithmetic.index_table
    monkeypatch.setattr(Arithmetic, "index_table", lambda self, op, rows, cols: (
        np.size(rows) > 1 and built.append((op, rows.size)), index_table(self, op, rows, cols))[1])
    check_laws(a, ALL_LAWS, 30)
    # one block of rows each, beside the one-cell corners: add's [0..59]^2, mul's [0..30]^2 and its rows 31..59
    assert sorted(built) == [("add", 60), ("mul", 29), ("mul", 31)]
    assert {op: t.shape for op, t in a._op_tables.items()} == {"add": (60, 60), "mul": (60, 31)}


def assert_tables_are_index_table(a):
    for op, table in a._op_tables.items():
        rows, cols = (np.arange(size) for size in table.shape)
        assert np.array_equal(table, a.index_table(op, rows[:, None], cols[None, :])), op


@pytest.mark.parametrize("spec, shapes", [
    # mul's [0..mul(R, R)] x [0..R], mul(300, 300) = 599, and add's [0..mul(R, R)]^2, from distributivity
    ("projective:exp2m1@int:0:1000", {"add": (600, 600), "mul": (600, 301)}),
    # mul(300, 300) passes the top, which ends mul's rows; add's are assoc-add's [0..add(R, R)] x [0..R], the
    # interval scan of distributivity reading no table
    ("dual:pow:2@int:0:1000", {"add": (426, 301), "mul": (1001, 301)}),
])
def test_audit_tables_cover_only_what_the_scans_read(spec, shapes):
    a = arith(spec)
    check_laws(a, LAW_NAMES, 300)
    assert {op: t.shape for op, t in a._op_tables.items()} == shapes
    assert_tables_are_index_table(a)


@pytest.mark.parametrize("kind", ["projective", "dual"])
def test_tables_where_a_product_falls_below_its_operands(kind, upper=10):
    # on [0, 2] by 0.05, R = 10 is 0.5 and mul(R, R) = 5 < R: assoc-mul's outer op mul(mul(R, R), R) takes the
    # product as its smaller operand, so its table is [0..R]^2, and distributivity's mul(R, R + R) the sum as its larger
    a = arith(f"{kind}:pow:2@grid:0:2:0.05")
    add, mul, n = a.add_index, a.mul_index, upper + 1
    assert mul(upper, upper) == 5
    assert laws._plan(a, "assoc-mul", upper)[2] == {"mul": (upper, upper)}
    assert laws._plan(a, "distributivity", upper)[2] == {"add": (upper, upper), "mul": (add(upper, upper), upper)}
    cells = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    laws_held = {"assoc-mul": lambda i, j, k: mul(mul(i, j), k) == mul(i, mul(j, k)),
                 "distributivity": lambda i, j, k: mul(i, add(j, k)) == add(mul(i, j), mul(i, k))}
    reports = check_laws(a, list(laws_held), upper)
    for report, holds in zip(reports, laws_held.values()):
        violations = [t for t in cells if not holds(*t)]
        witness = smallest_witness(violations)
        assert (report.witness, report.violations) == (witness and tuple(map(a.carrier.value_at, witness)),
                                                       len(violations))
    assert_tables_are_index_table(a)


@pytest.mark.parametrize("kind", ["projective", "dual"])
@pytest.mark.parametrize("spec, upper", [
    ("pow:1.5@int:0:1000", 22),
    ("pow:0.1@int:0:1000", 10),  # add(R, R) passes the top
    ("exp2m1@int:0:70", 22),
    ("quad@int:0:200", 22),
    ("pow:2@grid:0:2:0.05", 10),  # mul(R, R) = 5 < R
])
@pytest.mark.parametrize("law", ["assoc-add", "assoc-mul", "distributivity"])
def test_each_scan_reads_what_the_reference_applies(kind, spec, upper, law):
    # op commutes, so each table is read at (larger operand, smaller operand): over [0..R]^3, the largest of each
    # are the extents _plan states for it before any table is built
    a = arith(f"{kind}:{spec}")
    fvals, reads = a._f_array.tolist(), {}

    def recorded(name, ref_op):
        value = lru_cache(None)(lambda i, j: ref_op(fvals, kind, i, j))

        def op(i, j):
            pair = (max(i, j), min(i, j))
            reads[name] = tuple(map(max, reads.get(name, pair), pair))
            return value(i, j)
        return op

    arity, holds = REFERENCE_LAW_FNS[law]
    add, mul = recorded("add", ref_add), recorded("mul", ref_mul)
    for t in itertools.product(range(upper + 1), repeat=arity):
        holds(add, mul, t)  # both sides: == evaluates each in full
    assert laws._plan(a, law, upper)[2] == reads


def test_rectangles_past_the_bound_together_are_built_per_scan(monkeypatch, upper=10):
    # add(10, 10) passes the top: assoc-add reads add over [0..1000] x [0..10] and distributivity over [0..100]^2
    a = arith("projective:pow:0.1@int:0:1000")
    assert [laws._plan(a, law, upper)[2]["add"] for law in ("assoc-add", "distributivity")] == [(1000, 10), (100, 100)]
    expected = check_laws(arith(a.spec), ALL_LAWS, upper)
    monkeypatch.setattr(laws, "MAX_TABLE_CELLS", 1001 * 11)  # each fits, [0..1000] x [0..100] does not
    sizes, op_table = [], Arithmetic.op_table
    monkeypatch.setattr(Arithmetic, "op_table", lambda self, op, *extents: (
        op_table(self, op, *extents), sizes.append(self._op_tables[op].size))[0])
    assert check_laws(a, ALL_LAWS, upper) == expected
    assert max(sizes) == laws.MAX_TABLE_CELLS


def test_no_buffer_outlives_the_audit():
    a = arith("projective:pow:1.5@int:0:100")
    tracemalloc.start()
    try:
        check_laws(a, ALL_LAWS, 60)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak > 59 * 50 ** 2 * 8  # a chunk's two int32 sides were allocated: rows [2..60] by [0..k(2))^2, k(2) = 50
    assert current <= sum(t.nbytes for t in a._op_tables.values()) + 64 * 1024


def test_archimedean_row_builds_no_object_array():
    # f(top) = 10^18: add's targets fit int64, mul's would not; f(top) = 8 10^18: add's pass 2^63 and saturate
    for spec, upper in (("projective:pow:3@int:0:1000000", 100), ("projective:pow:3@int:0:2000000", 1_999_999)):
        a = arith(spec)
        report = check_laws(a, ["archimedean"], upper)[0]
        assert (report.status, report.witness) == (FAILS, (1, 2))
        assert a._f_array.dtype == np.int64 and a._fvals == [] and "_f_log2" not in vars(a)


def test_archimedean_rows_on_a_million_points_memory():
    tracemalloc.start()
    try:
        a = arith("projective:id@int:0:1000000")
        reports = check_laws(a, ["archimedean", "theorem-archimedean-mll"], 999999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.status for r in reports] == [HOLDS, HOLDS]
    assert peak < 20 * 10 ** 6  # the 8 MB bound array and column blocks; a list of 1M ints alone takes 36 MB


@pytest.fixture
def law_calls(monkeypatch):
    """Names of the laws functions called, in order, through the module globals that bench/child.py wraps."""
    calls = []
    for name in ("check_law", "check_archimedean", "verify_archimedean_theorem"):
        fn = getattr(laws, name)
        monkeypatch.setattr(laws, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    return calls


@pytest.mark.parametrize("spec", ["projective:pow:1.5@int:0:1000", "dual:quad@int:0:200",
                                  "projective:atanh:1@grid:0:1:0.01"])
def test_check_laws_rows_are_the_standalone_reports(spec, law_calls, upper=20):
    a = arith(spec)
    reports = [check_law(a, law, upper) for law in ALL_LAWS]
    expected = dict(zip(LAW_NAMES, reports + [check_archimedean(a, upper), verify_archimedean_theorem(a, upper)]))
    law_calls.clear()
    assert check_laws(a, LAW_NAMES, upper) == list(expected.values())
    # one call a row: the theorem makes no Archimedean search, so no span nests in another
    assert law_calls == ["check_law"] * len(ALL_LAWS) + ["check_archimedean", "verify_archimedean_theorem"]
    law_calls.clear()
    names = ["theorem-archimedean-mll", "assoc-add", "archimedean", "theorem-archimedean-mll"]
    assert check_laws(a, names, upper) == [expected[name] for name in names]
    assert law_calls == ["verify_archimedean_theorem", "check_law", "check_archimedean", "verify_archimedean_theorem"]


def test_check_laws_refuses_an_unknown_name_before_any_table(law_calls, monkeypatch):
    monkeypatch.setattr(Arithmetic, "op_table", lambda *args: pytest.fail("an op table was built for a refused audit"))
    with pytest.raises(ValueError) as refused:
        check_laws(arith("projective:pow:1.5@int:0:1000"), ["assoc-add", "archimedean", "nope"], 12)
    assert str(refused.value) == ("unknown law 'nope'; choose from commutativity-add, commutativity-mul, assoc-add, "
                                  "assoc-mul, distributivity, neutral-zero, neutral-one, archimedean, "
                                  "theorem-archimedean-mll")
    assert law_calls == []


# ----------------------------------------------------------------------
# Archimedean property and the equivalence with <<
# ----------------------------------------------------------------------

class TestArchimedean:
    def test_pow2_witness(self):
        report = check_archimedean(arith("projective:pow:2@int:0:200"), 150)
        assert report.status == FAILS
        assert report.witness == (1, 2)
        assert report.details == (("fixed_point", 1),)

    def test_identity_archimedean(self):
        assert check_archimedean(arith("projective:id@int:0:200"), 150).status == HOLDS

    def test_dual_archimedean(self):
        assert check_archimedean(arith("dual:quad@int:0:200"), 150).status == HOLDS

    def test_witness_invariant(self):
        a = arith("projective:exp2m1@int:0:200")
        report = check_archimedean(a, 150)
        assert report.status == FAILS
        m, n = report.witness
        fixed_point = dict(report.details)["fixed_point"]
        assert fixed_point < n
        sums, _ = arith_partial_sums(a, seq_from_spec(f"const:{m}"), a.carrier.size)
        assert sums[-1] == fixed_point


class TestTheorem:
    @pytest.mark.parametrize("name", ["id", "pow:1.5", "pow:2", "exp2m1", "quad"])
    @pytest.mark.parametrize("kind", ["projective", "dual"])
    def test_consistent_for_builtins(self, name, kind):
        report = verify_archimedean_theorem(arith(f"{kind}:{name}@int:0:200"), 150)
        assert report.status == HOLDS and dict(report.details)["consistency"] == CONSISTENT

    def test_non_archimedean_side(self):
        report = verify_archimedean_theorem(arith("projective:pow:2@int:0:200"), 150)
        assert dict(report.details)["archimedean"] is False
        a, b = report.witness
        assert a > 0
        assert evaluate(parse_text(f"{a} << {b}"), Arithmetic.from_spec("projective:pow:2@int:0:200"))

    @pytest.mark.parametrize("name", ["id", "pow:2", "quad"])
    @pytest.mark.parametrize("kind", ["projective", "dual"])
    def test_top_is_no_mll_evidence(self, kind, name):
        # add(top, a) saturates at the top: no a << top, so R = top agrees with R = top - 1
        a = arith(f"{kind}:{name}@int:0:10")
        at_top, below = verify_archimedean_theorem(a, 10), verify_archimedean_theorem(a, 9)
        assert at_top.status == below.status == HOLDS
        assert at_top.witness == below.witness

    def test_projective_absorption_below_the_top_counts(self):
        # rounding down absorbs below the top: sqrt(1 + 1) = 1.41 gives 1 << 1
        report = verify_archimedean_theorem(arith("projective:pow:2@int:0:10"), 10)
        assert report.details == (("consistency", CONSISTENT), ("archimedean", False))
        assert report.witness == (1, 1)
        assert report.status == HOLDS

    def test_archimedean_side(self):
        report = verify_archimedean_theorem(arith("dual:quad@int:0:200"), 150)
        assert dict(report.details)["archimedean"] is True
        assert report.witness is None


@pytest.mark.parametrize("spec, dtype", [
    ("projective:pow:1.5@int:0:40", "float64"),
    ("dual:pow:1.5@int:0:40", "float64"),
    ("projective:pow:2@int:0:40", "int64"),
    ("dual:pow:2@int:0:40", "int64"),
    ("projective:id@int:0:40", "int64"),
    ("dual:quad@int:0:40", "int64"),
    ("projective:exp2m1@int:0:40", "int64"),  # f(40)^2 passes 2^63, but add, the one op both rows read, fits
    ("dual:exp2m1@int:0:40", "int64"),
    # f(x) = x up to 12, then 3x^2: 12 + 1 rounds down to 12, so the sums of 1 stop at 12
    ("projective:table:{path}@int:0:40", "int64"),
    ("dual:table:{path}@int:0:40", "int64"),
    # f(1) < 1: projective 1 + 1 rounds back down to 1
    ("projective:table:{one}@int:0:40", "object"),
    ("dual:table:{one}@int:0:40", "object"),
    ("projective:atanh:1@grid:0:1:0.01", "float64"),  # f(top) = +inf
    ("dual:atanh:1@grid:0:1:0.01", "float64"),
])
def test_archimedean_rows_match_reference(spec, dtype, tmp_path):
    # the oracles follow every m and scan every pair (a, b); the rows follow the sums of 1 alone
    tables = {"path": [x if x <= 12 else 3 * x * x for x in range(41)], "one": one_below_table(40)}
    for key, table in tables.items():
        (tmp_path / f"{key}.tbl").write_text("".join(f"{x} {v!r}\n" for x, v in enumerate(table)))
    a = arith(spec.format(**{key: tmp_path / f"{key}.tbl" for key in tables}))
    assert a._f_array.dtype == dtype
    kind, name = spec.split("@")[0].split(":", 1)
    top, value = a.carrier.size - 1, a.carrier.value_at
    if name.startswith("table"):
        fvals = tables[name[7:-1]]  # name is table:{key}
    else:
        fvals = atanh_values(1, 0.01, top + 1) if name.startswith("atanh") else f_values(name, top + 1)
    for upper in (1, 2, 17, top - 1, top):
        stuck = ref_archimedean(fvals, kind, upper)
        report = check_archimedean(a, upper)
        assert report.status == (HOLDS if stuck is None else FAILS)
        if stuck is None:
            assert (report.witness, report.details, report.pairs_checked) == (None, (("fixed_point", None),), upper)
        else:
            m, fixed_point = stuck
            assert (report.witness, report.details, report.pairs_checked) == (
                (value(m), value(fixed_point + 1)), (("fixed_point", value(fixed_point)),), m)
        expected = verify_archimedean_theorem(a, upper)
        least = ref_least_absorption(fvals, kind, upper)
        assert expected.witness == (least and tuple(map(value, least)))
        assert expected.details == (("consistency", CONSISTENT), ("archimedean", stuck is None))
        assert expected.status == HOLDS and (expected.witness is None) == (stuck is None)
        assert expected.pairs_checked == (upper + 1) ** 2


def test_theorem_counts_absorption_only_below_the_bound(tmp_path):
    # f linear up to 5 and jumping at 6: 5 + 1 rounds back to 5, so 1 << 5, and the sums of 1 stop at 5
    path = tmp_path / "jump.tbl"
    path.write_text("".join(f"{x} {x if x <= 5 else 100 + x}\n" for x in range(11)))
    a = arith(f"projective:table:{path}@int:0:10")
    at_five = verify_archimedean_theorem(a, 5)
    assert at_five.details == (("consistency", CONSISTENT), ("archimedean", True)) and at_five.witness is None
    above = verify_archimedean_theorem(a, 6)
    assert above.details == (("consistency", CONSISTENT), ("archimedean", False)) and above.witness == (1, 5)
    assert check_archimedean(a, 6).witness == (1, 6)


def test_archimedean_rows_make_no_scalar_op(monkeypatch):
    a = arith("dual:pow:2@int:0:1000")
    for name in ("add_index", "mul_index"):
        monkeypatch.setattr(Arithmetic, name, lambda *args, name=name: pytest.fail(f"{name} called by an Archimedean row"))
    assert check_archimedean(a, 30).status == verify_archimedean_theorem(a, 30).status == HOLDS


def test_archimedean_rows_read_only_the_block_that_holds_the_least_fixed_point(monkeypatch):
    # pow:2 rounds sqrt(1 + 1) down to 1, so b = 1 is in the first block of the column of R - 1 = 999,998 sums
    a, read, upper = arith("projective:pow:2@int:0:1000000"), [], 999_999
    index_table = Arithmetic.index_table
    monkeypatch.setattr(Arithmetic, "index_table", lambda self, op, rows, cols: (
        read.append(np.broadcast(rows, cols).size), index_table(self, op, rows, cols))[1])
    assert check_archimedean(a, upper).details == (("fixed_point", 1),)
    assert verify_archimedean_theorem(a, upper).witness == (1, 1)
    assert read == [1 << 16] * 2


@pytest.mark.parametrize("row", [check_archimedean, verify_archimedean_theorem])
def test_archimedean_row_memory_is_one_block(row):
    # the sums of 1 never stick on id, so the whole column of some 10^6 cells is read, in blocks of 64K
    a, upper = arith("projective:id@int:0:1000000"), 999_999
    assert row(a, upper).status == HOLDS  # f memoised as an array before tracing
    tracemalloc.start()
    try:
        row(a, upper)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000  # the whole column at once takes some 34 MB
