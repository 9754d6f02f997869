import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nda.arith import Arithmetic
from nda.carrier import Carrier
from nda.errors import (
    CarrierExhaustedError,
    MultiplicationUnavailableError,
    SpecError,
    ValidationError,
)
from nda.exprlang import evaluate, parse_text
from nda.funcparam import from_spec as f_from_spec
from nda.series import arith_partial_sums
from nda.series import from_spec as seq_from_spec

from reference import f_values, ref_add, ref_mul


def arith(spec):
    return Arithmetic.from_spec(spec)


class TestConstruction:
    def test_spec_round_trip(self):
        a = arith("projective:pow:1.5@int:0:1000")
        assert a.spec == "projective:pow:1.5@int:0:1000"

    def test_bad_specs(self):
        for spec in ("projective:pow:1.5", "pow:1.5@int:0:10", "middle:id@int:0:10"):
            with pytest.raises(SpecError):
                arith(spec)

    def test_rejected_f(self):
        with pytest.raises(ValidationError):
            arith("projective:atanh:0.5@grid:0:1:0.001")


class TestAdd:
    def test_pow15_window(self):
        # direct f evaluation pins the bracket around the target
        t = math.pow(2, 1.5) * 2
        assert math.pow(3, 1.5) <= t < math.pow(4, 1.5)
        assert arith("projective:pow:1.5@int:0:100").add(2, 2) == 3

    def test_pow2_window(self):
        assert 2 * 2 <= 8 < 3 * 3
        assert arith("projective:pow:2@int:0:100").add(2, 2) == 2

    def test_identity_reduction(self):
        assert arith("projective:id@int:0:100").add(2, 2) == 4
        assert arith("dual:id@int:0:100").add(2, 2) == 4

    def test_exp2m1_bogo(self):
        t = 2 * (2 ** 5 - 1)
        assert 2 ** 5 - 1 <= t < 2 ** 6 - 1
        assert arith("projective:exp2m1@int:0:100").add(5, 5) == 5

    def test_dual_quad_exact_hit(self):
        # target 6 is exactly f(3) for the triangular f
        assert arith("dual:quad@int:0:100").add(2, 2) == 3

    def test_projective_saturates_at_top(self):
        assert arith("projective:id@int:0:100").add(70, 70) == 100

    def test_dual_exhausts(self):
        with pytest.raises(CarrierExhaustedError):
            arith("dual:id@int:0:10").add(9, 9)

    def test_grid_identity(self):
        a = arith("projective:id@grid:0:1:0.001")
        assert a.add(0.25, 0.5) == 0.75


class TestMul:
    def test_quad(self):
        assert arith("projective:quad@int:0:100").mul(2, 2) == 3

    def test_exp2m1(self):
        t = (2 ** 2 - 1) ** 2
        assert 2 ** 3 - 1 <= t < 2 ** 4 - 1
        assert arith("projective:exp2m1@int:0:100").mul(2, 2) == 3

    def test_one_is_exact_neutral(self):
        for spec in ("projective:pow:1.5@int:0:100", "dual:quad@int:0:100",
                     "projective:exp2m1@int:0:100"):
            a = arith(spec)
            assert all(a.mul(v, 1) == v for v in range(0, 101, 13))

    def test_unavailable_without_fixed_one(self):
        a = arith("projective:atanh:1@grid:0:1:0.001")
        assert not a.multiplicative
        with pytest.raises(MultiplicationUnavailableError):
            a.mul(0.5, 0.5)

    def test_power_family_multiplication_is_ordinary(self):
        a = arith("projective:pow:2@int:0:100")
        for x in range(11):
            for y in range(11):
                if x * y <= 100:
                    assert a.mul(x, y) == x * y


def ev(spec, text):
    return evaluate(parse_text(text), arith(spec))


class TestSub:
    def test_identity(self):
        assert ev("projective:id@int:0:100", "7 - 3") == 4

    def test_clamps_at_zero(self):
        for spec in ("projective:id@int:0:100", "projective:quad@int:0:100",
                     "dual:pow:2@int:0:100"):
            assert ev(spec, "3 - 7") == 0

    def test_pow2_window(self):
        assert 4 * 4 <= 24 < 5 * 5
        assert ev("projective:pow:2@int:0:100", "5 - 1") == 4

    def test_subtracting_infinity_clamps_to_zero(self):
        for kind in ("projective", "dual"):
            assert ev(f"{kind}:atanh:1@grid:0:1:0.001", "0.5 - 1.0") == 0.0
            assert ev(f"{kind}:atanh:1@grid:0:1:0.001", "1.0 - 1.0") == 0.0

    def test_infinity_minus_finite_stays_top(self):
        for kind in ("projective", "dual"):
            assert ev(f"{kind}:atanh:1@grid:0:1:0.001", "1.0 - 0.5") == 1.0


def partial_sums(spec, term, k):
    """The first k partial sums of const:term, folded left to right."""
    return arith_partial_sums(arith(spec), seq_from_spec(f"const:{term}"), k)[0]


class TestNsum:
    def test_fixed_point(self):
        sums = partial_sums("projective:pow:2@int:0:100", 2, 50)
        assert all(sums[k - 1] == 2 for k in (1, 2, 10, 50))

    def test_identity(self):
        assert partial_sums("projective:id@int:0:100", 3, 4)[-1] == 12

    def test_payphone(self):
        assert partial_sums("projective:exp2m1@int:0:100", 1, 1000)[-1] == 1

    def test_needs_a_term(self):
        with pytest.raises(ValueError):
            partial_sums("projective:id@int:0:100", 3, 0)


class TestRelations:
    def test_mll_pow2(self):
        assert ev("projective:pow:2@int:0:100", "1 << 5")  # 25 <= 26 < 36
        assert not ev("projective:pow:2@int:0:100", "4 << 5")  # 25 + 16 = 41 >= 36 moves 5 to 6

    def test_mll_zero_always(self):
        for spec in ("projective:pow:1.5@int:0:100", "dual:quad@int:0:100",
                     "projective:atanh:1@grid:0:1:0.001"):
            carrier = arith(spec).carrier
            for b in (0, carrier.value_at(17), carrier.max):
                assert ev(spec, f"0 << {b}")

    def test_mll_identity_false(self):
        assert not ev("projective:id@int:0:100", "1 << 5")

    def test_mlll_one_for_all(self):
        for spec in ("projective:pow:2@int:0:100", "projective:exp2m1@int:0:100",
                     "dual:quad@int:0:100"):
            a = arith(spec)
            assert all(evaluate(parse_text(f"1 <<< {b}"), a) for b in range(101))

    def test_mlll_identity_false(self):
        assert not ev("projective:id@int:0:100", "2 <<< 5")

    def test_mlll_exp2m1(self):
        # target 3*511 = 1533 lands in [f(10), f(11)), so 10 != 9
        assert not ev("projective:exp2m1@int:0:100", "2 <<< 9")


class TestClosedForms:
    def test_exp2m1_add_is_max_exhaustively(self):
        # includes pairs past float precision (2^60-1 etc.); exact ints keep it true
        a = arith("projective:exp2m1@int:0:100")
        for x in range(101):
            for y in range(101):
                assert a.add_index(x, y) == max(x, y)

    def test_identity_matches_clamped_integers(self):
        idx = np.arange(61)
        for kind in ("projective", "dual"):
            a = Arithmetic(Carrier.integers(60), f_from_spec("id"), kind)
            assert a.index_table("add", idx[:, None], idx[None, :]).tolist() == [
                [min(x + y, 60) for y in range(61)] for x in range(61)]
            assert a.index_table("mul", idx[:, None], idx[None, :]).tolist() == [
                [min(x * y, 60) for y in range(61)] for x in range(61)]
            for x in range(61):
                for y in range(61):
                    assert a.sub_index(x, y) == max(x - y, 0)

    def test_agrees_with_linear_scan_reference(self):
        points = range(0, 41, 3)
        idx = np.array(points)
        for name in ("pow:1.5", "quad", "exp2m1"):
            fvals = f_values(name, 41)
            for kind in ("projective", "dual"):
                a = Arithmetic(Carrier.integers(40), f_from_spec(name), kind)
                assert a.index_table("add", idx[:, None], idx[None, :]).tolist() == [
                    [ref_add(fvals, kind, x, y) for y in points] for x in points]


def scalar_cell(apply, i, j, top):
    """apply(i, j) by the scalar path, or the top index where it exhausts the carrier."""
    try:
        return apply(i, j)
    except CarrierExhaustedError:
        return top


def assert_index_table_exact(a, ops):
    size = a.carrier.size
    idx = np.arange(size)
    for op in ops:
        apply = a.add_index if op == "add" else a.mul_index
        rows = [[scalar_cell(apply, i, j, size - 1) for j in range(size)] for i in range(size)]
        for i, row in enumerate(rows):
            assert a.index_table(op, i, idx).tolist() == row
        assert a.index_table(op, idx[:, None], idx[None, :]).tolist() == rows


def assert_exhausts_past_top(a, ops):
    """The scalar dual op raises on exactly the cells whose target passes f(top)."""
    size = a.carrier.size
    fvals = f_values(a.f.name, size)
    for op in ops:
        apply = a.add_index if op == "add" else a.mul_index
        combine = (lambda u, v: u + v) if op == "add" else (lambda u, v: u * v)
        for i in range(size):
            raised = [scalar_cell(apply, i, j, None) is None for j in range(size)]
            assert raised == [combine(fvals[i], fvals[j]) > fvals[-1] for j in range(size)]


class TestIndexTable:
    """The array form of add_index / mul_index agrees with it on every cell."""

    @pytest.mark.parametrize("spec, exhausted, ops", [
        ("projective:pow:1.5@int:0:1000", None, ("add", "mul")),  # float64
        ("projective:atanh:1@grid:0:1:0.01", None, ("add",)),  # float64 with f(top) = inf
        ("dual:pow:2@int:0:1000", "saturate", ("add", "mul")),  # int64
        ("dual:pow:2@int:0:1000", "error", ("add", "mul")),
        ("projective:exp2m1@int:0:100", None, ("add", "mul")),  # object: f passes 2^53
    ])
    def test_matches_scalar_path(self, spec, exhausted, ops):
        """A dual table clamps to the top ("saturate") exactly where the scalar op raises ("error")."""
        a = arith(spec)
        assert_index_table_exact(a, ops)
        if exhausted == "error":
            assert_exhausts_past_top(a, ops)

    def test_mul_unavailable(self):
        a = arith("projective:atanh:1@grid:0:1:0.01")
        with pytest.raises(MultiplicationUnavailableError):
            a.index_table("mul", np.arange(3)[:, None], np.arange(3)[None, :])

    def test_op_table_memoised(self, monkeypatch):
        a = arith("dual:pow:2@int:0:1000")
        full = a.index_table("add", np.arange(1001)[:, None], np.arange(1001)[None, :])
        # a table that does not cover the rectangle asked for, by its rows or by its columns, is rebuilt over it
        for rows, cols in ((10, 10), (40, 10), (40, 20), (30, 25), (1000, 1000)):
            assert np.array_equal(a.op_table("add", rows, cols), full[:rows + 1, :cols + 1])
            assert a._op_tables["add"].shape == (rows + 1, cols + 1)
        with pytest.raises(ValueError, match="cols <= rows"):
            a.op_table("add", 10, 20)

        def no_build(*args):
            raise AssertionError("a memoised table was rebuilt")

        monkeypatch.setattr(Arithmetic, "index_table", no_build)
        assert np.array_equal(a.op_table("add", 300, 300), full[:301, :301])
        assert np.array_equal(a.op_table("add", 1000, 300), full[:, :301])

    @pytest.mark.parametrize("kind", ["projective", "dual"])
    @pytest.mark.parametrize("f_spec, carrier_spec, dtype", [
        ("pow:1.5", "int:0:1000", np.float64),
        ("pow:2", "int:0:1000", np.int64),
        ("exp2m1", "int:0:1000", object),
        ("table:{mixed}", "int:0:399", object),
    ])
    def test_op_table_triangle_fills_the_square(self, tmp_path, kind, f_spec, carrier_spec, dtype):
        """The upper triangle, built in row blocks and mirrored, is index_table on every cell, as are the rows past it.

        Extent 500 takes blocks of rows 0-129, 130-305 and 306-500, and 399 blocks of
        0-162 and 163-399, so no block edge falls on a multiple of another's height.
        The rectangle [0..1000] x [0..300] takes rows 301-1000 against [0..300] in
        blocks of 217 rows, the last one short.
        """
        mixed = tmp_path / "mixed.txt"  # int f at even points, float at odd ones past 1
        mixed.write_text("".join(f"{i} {i * i if i < 2 or i % 2 == 0 else i * i + 0.25}\n" for i in range(400)))
        a = arith(f"{kind}:{f_spec.format(mixed=mixed)}@{carrier_spec}")
        assert a._f_array.dtype == dtype
        top = a.carrier.size - 1
        extent, full = min(500, top), np.arange(top + 1)
        for op in ("add", "mul"):
            for rows, cols in ((top, top * 3 // 10), (extent, extent)):  # a rectangle, then a square that replaces it
                table = a.op_table(op, rows, cols)
                assert np.array_equal(table, a.index_table(op, full[:rows + 1, None], full[None, :cols + 1]))
            assert table.shape == (extent + 1, extent + 1)
        if kind == "dual":  # f(top) + f(1) passes f(top): the rectangle's cell is clamped to the top
            assert a.op_table("add", top, 1)[top, 1] == top
            with pytest.raises(CarrierExhaustedError):
                a.add_index(top, 1)

    @pytest.mark.parametrize("kind", ["projective", "dual"])
    def test_mixed_int_float_table(self, tmp_path, kind):
        path = tmp_path / "mixed.txt"
        path.write_text("0 0\n1 1\n2 2.5\n3 4\n4 7.25\n5 11\n6 16.5\n")
        a = arith(f"{kind}:table:{path}@int:0:6")
        assert_index_table_exact(a, ("add", "mul"))

    @pytest.mark.parametrize("kind", ["projective", "dual"])
    @pytest.mark.parametrize("values, dtype", [
        ([0, 1] + [10 ** 30 + k for k in range(60)], object),  # every float log2 key past index 1 is equal
        # distinct ints that share one float64: sums fit int64, products pass f(top) and are saturated
        ([0, 1] + [2 ** 60 + k for k in range(60)], np.int64),
        ([0, 1] + [2 ** 62 + k for k in range(60)], np.int64),  # the same with sums saturated too
        ([0, 1] + [2 ** 64 + k for k in range(60)], object),  # the same past int64: the exact search
        # ints and floats mixed, past 2^53 and up to f(top) = inf, where products of 0 are masked
        ([0, 1, 2.5, 4, 7.25, 11, 2 ** 53 + 1, 2.0 ** 54, 2 ** 54 + 1, 2 ** 70 + 3, 1e30, 10 ** 31 + 1,
          1e300, float("inf")], object),
        ([0.0, 1.0, 2.5, 4.0, 7.25, 1e300, float("inf")], np.float64),  # the same mask in float64
        ([0, 1, 1e308, 1.5e308], object),  # finite f whose sums and products pass the double range: inf targets
        ([0.0, 1.0, 1e308, 1.5e308], np.float64),  # the same in float64
    ], ids=["log2-collisions", "float64-collisions", "float64-collisions-past-int64", "float64-collisions-object",
            "mixed-to-inf", "floats-to-inf", "finite-to-inf", "finite-floats-to-inf"])
    def test_adversarial_tables(self, tmp_path, kind, values, dtype):
        """Targets whose float64 log2 keys tie or mislead still land on the exact index."""
        path = tmp_path / "f.txt"
        path.write_text("".join(f"{i} {v}\n" for i, v in enumerate(values)))
        a = arith(f"{kind}:table:{path}@int:0:{len(values) - 1}")
        assert a._f_array.dtype == dtype  # the one dtype both ops search
        assert_index_table_exact(a, ("add", "mul"))

    @pytest.mark.parametrize("kind", ["projective", "dual"])
    def test_add_searches_int64_where_only_sums_fit(self, kind):
        # f(top) = 10^18: 2 f(top) fits int64, f(top)^2 does not, so mul saturates its targets past f(top)
        a = arith(f"{kind}:pow:3@int:0:1000000")
        top = a.carrier.size - 1
        rows = np.r_[:3000, 3000:top:997, top - 2:top + 1]  # mul's column of j = 1000 saturates from i = 1001
        for op, apply in (("add", a.add_index), ("mul", a.mul_index)):
            for j in (0, 1, 2, 1000, top):
                assert a.index_table(op, rows, j).tolist() == [scalar_cell(apply, i, j, top) for i in rows]
        assert a._f_array.dtype == np.int64 and "_f_log2" not in vars(a)

    @pytest.mark.parametrize("kind", ["projective", "dual"])
    def test_int64_f_saturates_past_f_top(self, kind):
        # f(63) = 2^63 - 1, the largest int64 value: both ops saturate, and no int64 sum or product may wrap
        a, idx, fvals = arith(f"{kind}:exp2m1@int:0:63"), np.arange(64), f_values("exp2m1", 64)
        for op, ref in (("add", ref_add), ("mul", ref_mul)):
            expected = [[ref(fvals, kind, i, j) for j in range(64)] for i in range(64)]
            assert a.index_table(op, idx[:, None], idx[None, :]).tolist() == expected
            assert a.op_table(op, 63, 63).tolist() == expected
        assert a._f_array.dtype == np.int64 and "_f_log2" not in vars(a)

    def test_dual_exp2m1_past_600(self):
        assert_index_table_exact(arith("dual:exp2m1@int:0:600"), ("add", "mul"))

    @pytest.mark.parametrize("kind", ["projective", "dual"])
    def test_collision_table_reaches_the_exact_search(self, tmp_path, kind, monkeypatch):
        """Cells that the float64 keys cannot rank go to one exact search, not one index a pass."""
        path = tmp_path / "f.txt"
        path.write_text("".join(f"{i} {v}\n" for i, v in enumerate([0, 1] + [10 ** 30 + k for k in range(60)])))
        a = arith(f"{kind}:table:{path}@int:0:61")
        searched, search = [], Arithmetic._search
        monkeypatch.setattr(Arithmetic, "_search", lambda self, fv, target: (
            searched.append((fv.dtype, np.size(target))), search(self, fv, target))[1])
        idx = np.arange(62)
        for op in ("add", "mul"):
            searched.clear()
            table = a.index_table(op, idx[:, None], idx[None, :])
            # the float64 ranking over every cell, then one exact search over those it left: f(1) + f(i)
            # is f(i + 1), up to 59 indices from the candidate that the tied keys give
            assert [dtype for dtype, _ in searched] == [np.float64, object]
            assert 0 < searched[1][1] < table.size


class TestLightspeed:
    def test_half_plus_half_exact_on_grid(self):
        a = arith("projective:atanh:1@grid:0:1:0.001")
        u = v = 0.5
        oracle = (u + v) / (1 + u * v)
        assert oracle == 0.8
        assert a.add(0.5, 0.5) == a.carrier.value_at(a.carrier.index_of(0.8))

    def test_velocity_addition_on_the_fine_grid(self):
        """Every cell against the integer rule; the 8 that differ land one grid point low.

        In grid units, u (+) v = (u + v) / (1 + uv) is 10^6 (i + j) / (10^6 + ij).  Grid
        points and f values are rounded doubles, so a sum whose exact value is a grid
        point may round just below it: 0.35 (+) 0.625 gives 0.799, not 0.8.
        """
        table = arith("projective:atanh:1@grid:0:1:0.001").op_table("add", 1000, 1000).astype(np.int64)
        i, j = np.arange(1001)[:, None], np.arange(1001)[None, :]
        exact = 10 ** 6 * (i + j) // (10 ** 6 + i * j)
        rows, cols = np.nonzero(table != exact)
        pairs = [(125, 750), (350, 625), (400, 625), (625, 800)]
        assert sorted(zip(rows.tolist(), cols.tolist())) == sorted(pairs + [(b, a) for a, b in pairs])
        assert (table[rows, cols] == exact[rows, cols] - 1).all()

    def test_top_absorbs_everything(self):
        a = arith("projective:atanh:1@grid:0:1:0.001")
        for v in (0.0, 0.001, 0.1, 0.6, 0.999, 1.0):
            assert a.add(1.0, v) == 1.0


ARITH_SPECS = st.sampled_from([
    "projective:id@int:0:100", "projective:pow:1.5@int:0:100",
    "projective:pow:2@int:0:100", "projective:exp2m1@int:0:100",
    "projective:quad@int:0:100", "dual:id@int:0:100",
    "dual:pow:2@int:0:100", "dual:quad@int:0:100",
])


def outcome(op, x, y):
    """op(x, y), or CarrierExhaustedError where a dual op runs past the top."""
    try:
        return op(x, y)
    except CarrierExhaustedError:
        return CarrierExhaustedError


@given(ARITH_SPECS, st.integers(0, 100), st.integers(0, 100))
def test_commutativity(spec, x, y):
    a = Arithmetic.from_spec(spec)
    assert outcome(a.add, x, y) == outcome(a.add, y, x)
    assert outcome(a.mul, x, y) == outcome(a.mul, y, x)


@given(ARITH_SPECS, st.integers(0, 100))
def test_neutral_elements_exact(spec, x):
    a = Arithmetic.from_spec(spec)
    assert a.add(x, 0) == x
    assert a.mul(x, 1) == x


@given(ARITH_SPECS, st.integers(0, 100), st.integers(0, 100))
def test_projective_absorption(spec, x, y):
    a = Arithmetic.from_spec(spec)
    if a.kind == "projective":
        assert a.add(x, y) >= max(x, y)


@given(st.sampled_from(["dual:id@int:0:200", "dual:pow:2@int:0:200", "dual:quad@int:0:200"]),
       st.integers(0, 100), st.integers(1, 100))
def test_dual_strict_growth(spec, x, y):
    assert Arithmetic.from_spec(spec).add(x, y) > x
