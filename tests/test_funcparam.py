import math
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import nda
from nda import funcparam
from nda.carrier import Carrier
from nda.errors import SpecError, TableError, ValidationError
from nda.funcparam import (
    TABLE,
    FunctionalParameter,
    bind,
    from_spec,
    load_table,
    validate,
)

INT100 = Carrier.integers(100)
GRID = Carrier.grid(1.0, 0.001)


class TestEvaluate:
    def test_power_closed_form(self):
        assert from_spec("pow:2").evaluate(5) == 25

    def test_exp2m1(self):
        assert from_spec("exp2m1").evaluate(5) == 2 ** 5 - 1 == 31

    def test_quad_is_triangular(self):
        f = from_spec("quad")
        assert [f.evaluate(v) for v in range(5)] == [0, 1, 3, 6, 10]

    def test_atanh_hits_infinity_at_scale(self):
        assert from_spec("atanh:1").evaluate(1) == math.inf

    def test_atanh_at_zero(self):
        assert from_spec("atanh:1").evaluate(0) == 0.0

    def test_identity_exact(self):
        f = from_spec("id")
        assert all(f.evaluate(v) == v for v in range(0, 101, 7))

    def test_deterministic(self):
        f = from_spec("atanh:1")
        assert f.evaluate(0.73) == f.evaluate(0.73)

    def test_integer_families_stay_exact_beyond_float53(self):
        # 2^60 - 1 is not representable as a double; the int path must keep it
        assert from_spec("exp2m1").evaluate(60) == 2 ** 60 - 1


def mpmath_atanh(v, c) -> float:
    """artanh(v/c) through mpmath's public interface, at the precision f uses."""
    if v >= c:
        return math.inf
    with mpmath.workdps(40):
        return float(mpmath.atanh(mpmath.mpf(v) / mpmath.mpf(c)))


class TestAtanhKernel:
    """artanh through libmp is bit-identical to mpmath.atanh at 40 digits, rounded to nearest."""

    @pytest.mark.parametrize("f_spec, carrier_spec", [
        ("atanh:1", "grid:0:1:0.001"),  # float points, up to f(top) = inf
        ("atanh:100", "int:0:99"),  # int points
        ("atanh:1", "grid:0:1:0.00002"),  # 50,001 points in 13 blocks; v/c exact, so the input term is dropped
        ("atanh:3", "grid:0:3:0.0001"),  # v/c rounded in long double
        ("atanh:1000", "int:0:5000"),  # f reaches +inf at 1000, inside the first block, and bind fails there
    ])
    def test_bound_values_match_mpmath(self, f_spec, carrier_spec):
        carrier = Carrier.from_spec(carrier_spec)
        f = from_spec(f_spec)
        report, values = bind(f, carrier)
        assert report.ok == (f.param >= carrier.max)
        assert len(values) == (carrier.size if report.ok else report.failure_index + 1)
        assert values.tolist() == [mpmath_atanh(carrier.value_at(i), f.param) for i in range(len(values))]

    @pytest.mark.parametrize("c", [0.5, 3.0, 1.0000001])
    def test_scattered_points_match_mpmath(self, c):
        rng = random.Random(0)
        points = [rng.uniform(0, c) for _ in range(300)] + [c * (1 - 2 ** -52), c * (1 - 1e-9), 1e-300, 5e-324]
        f = from_spec(f"atanh:{c}")
        expected = [mpmath_atanh(v, c) for v in points]
        assert [f.evaluate(v) for v in points] == expected
        assert funcparam._atanh_block(np.array(points), c).tolist() == expected  # bind's path

    @staticmethod
    def _count_libmp_points(monkeypatch) -> list:
        calls = []
        atanh = funcparam._atanh_scaled
        monkeypatch.setattr(funcparam, "_atanh_scaled", lambda v, c: calls.append(v) or atanh(v, c))
        return calls

    @pytest.mark.parametrize("f_spec, carrier_spec", [("atanh:1", "grid:0:1:0.001"), ("atanh:3", "grid:0:3:0.003")])
    def test_every_point_unsure_gives_the_same_values(self, f_spec, carrier_spec, monkeypatch):
        carrier, f = Carrier.from_spec(carrier_spec), from_spec(f_spec)
        _, fast = bind(f, carrier)
        calls = self._count_libmp_points(monkeypatch)
        monkeypatch.setattr(funcparam, "ATANH_ERROR", math.inf)  # a margin wider than any ulp
        assert bind(f, carrier)[1].tolist() == fast.tolist()
        assert len(calls) == carrier.size

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="long double is double here: every point is unsure")
    def test_libmp_settles_few_points(self, monkeypatch):
        carrier = Carrier.from_spec("grid:0:1:0.00002")
        calls = self._count_libmp_points(monkeypatch)
        assert bind(from_spec("atanh:1"), carrier)[0].ok
        assert 0 < len(calls) < carrier.size // 10

    def test_mpmath_loads_on_first_atanh_only(self):
        src = str(Path(nda.__file__).resolve().parents[1])
        code = ("import sys, nda\n"
                "print('mpmath' in sys.modules)\n"
                "nda.Arithmetic.from_spec('projective:atanh:1@grid:0:1:0.01')\n"
                "print('mpmath' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True, timeout=60).stdout
        assert out.split() == ["False", "True"]


class TestValidate:
    def test_identity_passes_multiplicative(self):
        report = validate(from_spec("id"), INT100)
        assert report.ok and report.multiplicative
        assert report.points_checked == 101

    def test_atanh_on_grid_not_multiplicative(self):
        # f(1) = +inf != 1, so multiplication is off
        report = validate(from_spec("atanh:1"), GRID)
        assert report.ok and not report.multiplicative

    def test_plateau_table_fails_at_first_pair_index(self):
        f = FunctionalParameter("table:test", TABLE,
                                points=((0, 0), (1, 1), (2, 3), (3, 6), (4, 6)))
        report = validate(f, Carrier.integers(4))
        assert not report.ok
        assert report.failure_index == 3
        assert "strictly increasing" in report.reason

    def test_nonzero_at_zero_fails(self):
        f = FunctionalParameter("table:test", TABLE, points=((0, 1), (1, 2)))
        report = validate(f, Carrier.integers(1))
        assert not report.ok and report.failure_index == 0

    def test_missing_carrier_point(self):
        f = FunctionalParameter("table:test", TABLE, points=((0, 0), (1, 1)))
        report = validate(f, Carrier.integers(3))
        assert not report.ok and report.failure_index == 2

    def test_inf_before_top_rejected(self):
        # artanh(v/0.5) blows up at 0.5, halfway up this grid
        report = validate(from_spec("atanh:0.5"), GRID)
        assert not report.ok

    @pytest.mark.parametrize("spec", ["id", "pow:1.5", "pow:2", "exp2m1", "quad"])
    def test_builtins_strictly_increase_on_integers(self, spec):
        f = from_spec(spec)
        values = [f.evaluate(v) for v in range(51)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert validate(f, Carrier.integers(50)).ok

    def test_exact_values_past_float_range_bind(self):
        # 2^1024 - 1 and above overflow a float conversion, so the +inf check must compare exactly
        report, values = bind(from_spec("exp2m1"), Carrier.integers(1100))
        assert report.ok
        assert values.dtype == object and values.tolist() == [(1 << v) - 1 for v in range(1101)]

    @pytest.mark.parametrize("spec", ["id", "pow:1.5", "pow:2", "exp2m1", "quad", "atanh:1"])
    def test_builtins_fix_zero_exactly(self, spec):
        assert from_spec(spec).evaluate(0) == 0

    @pytest.mark.parametrize("spec,mult", [
        ("id", True), ("pow:1.5", True), ("pow:2", True),
        ("exp2m1", True), ("quad", True),
    ])
    def test_multiplicative_flags(self, spec, mult):
        assert validate(from_spec(spec), INT100).multiplicative is mult

    def test_grid_identity_multiplicative(self):
        # 1.0 lies on this grid and f(1.0) = 1.0
        assert validate(from_spec("id"), GRID).multiplicative

    @pytest.mark.parametrize("one", [1 - 1e-13, 1 + 2 ** -52])
    def test_multiplication_needs_f_of_one_exactly_one(self, one):
        # 1 would not be neutral: projective a * 1 rounds below a where f(1) < 1, dual above a where f(1) > 1
        f = FunctionalParameter("table:test", TABLE, points=((0, 0), (1, one), (2, 2), (3, 3)))
        report = validate(f, Carrier.integers(3))
        assert report.ok and not report.multiplicative
        assert report.message() == "pass (4 points, multiplication unavailable)"

    @pytest.mark.parametrize("points, kept", [
        (((0, 0.0), (1, 1.0), (2, 2 ** 53 + 1)), [0, 1, 2 ** 53 + 1]),  # float 0 and 1 beside an int become ints
        (((0, 0.0), (1, 1.0), (2, 2.5)), [0.0, 1.0, 2.5]),  # all floats: kept
        (((0, 0.0), (1, 1.5), (2, 3)), [0, 1.5, 3]),  # f(1) != 1: kept
    ])
    def test_bind_stores_float_zero_and_one_as_ints_beside_an_int(self, points, kept):
        report, values = bind(FunctionalParameter("table:test", TABLE, points=points), Carrier.integers(2))
        assert report.ok and report.multiplicative == (points[1][1] == 1)
        assert [(type(v), v) for v in values.tolist()] == [(type(v), v) for v in kept]


def bits(v):
    """v's type and exact value; a float by its hex, so 0.0 and -0.0 differ."""
    return type(v), v.hex() if isinstance(v, float) else v


INTS = list(range(10001))


def drawn(ys, xs=INTS):
    return FunctionalParameter("table:test", TABLE, points=tuple(zip(xs, ys)))


class TestBind:
    @pytest.mark.parametrize("f_spec, carrier_spec, dtype", [
        ("id", "int:0:1000", np.int64),
        ("id", "grid:0:1:0.001", np.float64),
        ("pow:1.5", "int:0:1000", np.float64),
        ("pow:1.5", "grid:0:2:0.001", np.float64),
        ("pow:2", "int:0:1000", np.int64),
        ("pow:2", "grid:0:2:0.001", np.float64),
        ("pow:3", "int:0:2000", np.int64),
        ("pow:3", "grid:0:2:0.001", np.float64),
        ("pow:7", "int:0:600", object),  # 600^7 passes 2^63
        ("quad", "int:0:1000", np.int64),
        ("quad", "grid:0:2:0.001", np.float64),
        ("exp2m1", "int:0:62", np.int64),
        ("exp2m1", "int:0:1100", object),  # past 2^1024
        ("exp2m1", "grid:0:2:0.001", np.float64),
        ("atanh:1", "grid:0:1:0.001", np.float64),  # +inf at the top
        ("atanh:1000", "int:0:1000", np.float64),
        ("table:{mixed}", "int:0:399", object),
        ("table:{mixed}", "grid:0:399:1", object),
        # ints x past 2^53 that no double holds, matched within tolerance to the grid points 2^59 apart
        ("table:{inexact}", "grid:0:2305843009213693952:576460752303423488", np.int64),
    ])
    def test_bound_values_are_evaluate_bit_for_bit(self, tmp_path, f_spec, carrier_spec, dtype):
        tables = {
            "mixed": "".join(f"{i} {i * i if i < 2 or i % 2 == 0 else i * i + 0.25}\n" for i in range(400)),
            "inexact": "".join(f"{x} {y}\n" for y, x in enumerate([0, 2 ** 59 + 1, 2 ** 60, 3 * 2 ** 59 + 3, 2 ** 61])),
        }
        for name, text in tables.items():
            (tmp_path / name).write_text(text)
        f = from_spec(f_spec.format(**{name: tmp_path / name for name in tables}))
        carrier = Carrier.from_spec(carrier_spec)
        report, values = bind(f, carrier)
        assert report.ok and values.dtype == dtype
        assert list(map(bits, values.tolist())) == [bits(f.evaluate(carrier.value_at(i))) for i in range(carrier.size)]

    @pytest.mark.parametrize("f, carrier_spec, expected", [
        (drawn(INTS[:5000] + [math.nan] + INTS[5001:]), "int:0:10000", (5000, 5000, "f(5000) is NaN")),
        (drawn(INTS[:5000] + [4999] + INTS[5001:]), "int:0:10000",
         (4999, 5001, "not strictly increasing: f(5000) = 4999 <= f(prev) = 4999")),
        # past f(0) = 0 a negative value breaks the increase first
        (drawn(INTS[:5000] + [-5] + INTS[5001:]), "int:0:10000",
         (4999, 5001, "not strictly increasing: f(5000) = -5 <= f(prev) = 4999")),
        (drawn([0.5] + INTS[1:]), "int:0:10000", (0, 1, "f(0) must be 0 exactly, got 0.5")),
        (drawn(INTS[:5000] + [math.inf] + INTS[5001:]), "int:0:10000",
         (5000, 5001, "f reaches +inf before the top element")),
        (from_spec("pow:1000.5"), "int:0:10000", (3, 3, "f undefined at 3: math range error")),
        (from_spec("pow:100.5"), "int:0:10000", (1168, 1168, "f undefined at 1168: math range error")),
        (from_spec("exp2m1"), "grid:0:10000:1", (1024, 1024, "f undefined at 1024.0: math range error")),
        (drawn(INTS[:5000] + INTS[5001:], INTS[:5000] + INTS[5001:]), "int:0:10000",
         (5000, 5000, "f undefined at 5000: table f has no entry for carrier point 5000")),
        (drawn(INTS[:2] + [v + 0.5 for v in INTS[2:5000]] + [2 ** 1024 + v for v in INTS[5000:]]), "int:0:10000",
         (5000, 10001, "f(5000) is an int past the float range beside float values")),
    ], ids=["nan", "plateau", "negative", "f(0)", "inf-before-top", "pow-overflow", "pow-overflow-interior",
            "exp2m1-overflow", "missing-table-point", "int-past-float-range"])
    def test_rejection_reports(self, f, carrier_spec, expected):
        report, _ = bind(f, Carrier.from_spec(carrier_spec))
        assert not report.ok and (report.failure_index, report.points_checked, report.reason) == expected


class TestLoadTable(object):
    def _write(self, tmp_path, text):
        path = tmp_path / "f.tbl"
        path.write_text(text)
        return str(path)

    def test_triangular_table(self, tmp_path):
        f = load_table(self._write(tmp_path, "0 0\n1 1\n2 3\n3 6\n"))
        carrier = Carrier.integers(3)
        assert validate(f, carrier).ok
        quad = from_spec("quad")
        assert all(f.evaluate(v) == quad.evaluate(v) for v in range(4))

    def test_empty_file(self, tmp_path):
        with pytest.raises(TableError):
            load_table(self._write(tmp_path, ""))

    def test_comment_only_file(self, tmp_path):
        with pytest.raises(TableError):
            load_table(self._write(tmp_path, "# nothing here\n\n"))

    def test_decreasing_f_names_line(self, tmp_path):
        with pytest.raises(TableError) as exc:
            load_table(self._write(tmp_path, "2 3\n3 2\n"))
        assert exc.value.line == 2

    def test_decreasing_x_names_line(self, tmp_path):
        with pytest.raises(TableError) as exc:
            load_table(self._write(tmp_path, "0 0\n2 3\n1 1\n"))
        assert exc.value.line == 3

    def test_bad_field_count(self, tmp_path):
        with pytest.raises(TableError) as exc:
            load_table(self._write(tmp_path, "0 0 0\n"))
        assert exc.value.line == 1

    @pytest.mark.parametrize("row", ["nan 1", "inf 1", "-inf 1", "1 nan"])
    def test_non_finite_carrier_value_or_nan_f_names_line(self, tmp_path, row):
        # a NaN compares False both ways, so it would pass the order checks and break the lookup's bisect
        with pytest.raises(TableError, match="line 2: ") as exc:
            load_table(self._write(tmp_path, f"0 0\n{row}\n2 4\n"))
        assert exc.value.line == 2

    def test_nan_first_row_names_line(self, tmp_path):
        with pytest.raises(TableError) as exc:
            load_table(self._write(tmp_path, "# header\nnan 1\n0 0\n"))
        assert exc.value.line == 2

    def test_infinite_f_value_at_the_top_is_legal(self, tmp_path):
        f = load_table(self._write(tmp_path, "0 0\n1 1\n2 inf\n"))
        assert validate(f, Carrier.integers(2)).ok
        assert f.evaluate(2) == math.inf

    def test_comments_and_blanks_allowed(self, tmp_path):
        f = load_table(self._write(tmp_path, "# header\n0 0\n\n1 1  # inline\n2 4\n"))
        assert f.evaluate(2) == 4

    def test_decimal_x_values_bind_on_grid(self, tmp_path):
        # 3 * 0.1 is 0.30000000000000004, not the table's 0.3
        grid = Carrier.grid(1.0, 0.1)
        assert grid.value_at(3) != 0.3
        rows = "".join(f"{x / 10} {x}\n" for x in range(11))
        f = load_table(self._write(tmp_path, rows))
        assert validate(f, grid).ok
        assert [f.evaluate(grid.value_at(i)) for i in range(11)] == list(range(11))

    def test_grid_point_without_entry_rejected(self, tmp_path):
        grid = Carrier.grid(1.0, 0.1)
        rows = "".join(f"{x / 10} {x}\n" for x in range(11) if x != 5)
        f = load_table(self._write(tmp_path, rows))
        with pytest.raises(ValidationError, match="no entry"):
            f.evaluate(grid.value_at(5))
        assert validate(f, grid).failure_index == 5

    def test_missing_file(self):
        with pytest.raises(TableError):
            load_table("/no/such/file.tbl")

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "f.tbl"
        path.write_bytes(bytes(range(128, 256)))  # no byte here starts a UTF-8 sequence
        with pytest.raises(TableError, match="cannot read table file"):
            load_table(str(path))


class TestFromSpec:
    def test_all_families_parse(self):
        for spec in ("id", "pow:1.5", "exp2m1", "quad", "atanh:1"):
            assert from_spec(spec).name == spec

    def test_unknown_family(self):
        with pytest.raises(SpecError):
            from_spec("cubic")

    def test_bad_parameter(self):
        with pytest.raises(SpecError):
            from_spec("pow:abc")

    def test_nonpositive_parameters_rejected(self):
        with pytest.raises(ValidationError):
            from_spec("pow:0")
        with pytest.raises(ValidationError):
            from_spec("atanh:-1")
        for spec in ("pow:nan", "atanh:nan"):
            with pytest.raises(ValidationError):
                from_spec(spec)
