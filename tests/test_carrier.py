import pytest
from hypothesis import given, strategies as st

from nda.carrier import INTEGER_RANGE, MAX_SIZE, Carrier
from nda.errors import (
    CarrierIndexError,
    OffCarrierError,
    SpecError,
    ValidationError,
)


class TestConstruction:
    def test_integers(self):
        c = Carrier.integers(100)
        assert c.value_at(0) == 0 and c.max == 100 and c.step == 1 and c.size == 101

    def test_grid(self):
        c = Carrier.grid(1.0, 0.001)
        assert c.size == 1001
        assert c.value_at(c.size - 1) == 1.0

    def test_min_must_be_zero(self):
        with pytest.raises(ValidationError):
            Carrier.from_spec("int:5:10")

    def test_grid_step_must_divide_max(self):
        with pytest.raises(ValidationError):
            Carrier.grid(1.0, 0.3)

    def test_bad_specs(self):
        for spec in ("int:0", "foo:0:10", "grid:0:1", "int:0:ten", ""):
            with pytest.raises(SpecError):
                Carrier.from_spec(spec)

    def test_spec_round_trip(self):
        for spec in ("int:0:100", "grid:0:1:0.001"):
            assert Carrier.from_spec(spec).spec == spec
        # :g would print the max as 1.23457e+06, which reads back as a grid of 1,234,571 points
        carrier = Carrier.from_spec("grid:0:1234567:1")
        assert carrier.size == 1_234_568
        assert Carrier.from_spec(carrier.spec) == carrier

    def test_size_bound(self):
        assert Carrier.from_spec("grid:0:1:0.00002").size == 50_001
        assert Carrier.integers(MAX_SIZE - 1).size == MAX_SIZE
        for spec in (f"int:0:{MAX_SIZE}", f"int:0:{10 ** 400}", "grid:0:1:1e-300", "grid:0:1e300:1e-100"):
            with pytest.raises(ValidationError, match="exceeds the limit"):
                Carrier.from_spec(spec)

    def test_grid_must_be_finite(self):
        for spec in ("grid:0:1:nan", "grid:0:inf:1", "grid:0:nan:0.1", "grid:0:1:inf"):
            with pytest.raises(ValidationError, match="finite"):
                Carrier.from_spec(spec)

    def test_size_at_least_two(self):
        with pytest.raises(ValidationError):
            Carrier.integers(0)


class TestValueAt:
    def test_minimum_element(self):
        assert Carrier.integers(100).value_at(0) == 0

    def test_unit_step(self):
        assert Carrier.integers(100).value_at(7) == 7

    def test_grid_point_derived_not_accumulated(self):
        c = Carrier.grid(1.0, 0.001)
        assert c.value_at(800) == 800 * 0.001
        assert c.value_at(800) == 0.8

    def test_out_of_range(self):
        c = Carrier.integers(100)
        with pytest.raises(CarrierIndexError):
            c.value_at(101)
        with pytest.raises(CarrierIndexError):
            c.value_at(-1)


class TestIndexOf:
    def test_integer(self):
        assert Carrier.integers(100).index_of(42) == 42

    def test_grid(self):
        assert Carrier.grid(1.0, 0.001).index_of(0.8) == 800

    def test_off_carrier(self):
        with pytest.raises(OffCarrierError):
            Carrier.integers(100).index_of(3.5)

    def test_outside_range(self):
        with pytest.raises(OffCarrierError):
            Carrier.integers(100).index_of(101)
        with pytest.raises(OffCarrierError):
            Carrier.grid(1.0, 0.001).index_of(-0.001)

    def test_tolerates_representation_error(self):
        c = Carrier.grid(1.0, 0.001)
        assert c.index_of(0.1 + 0.2) == 300

    def test_rejects_values_between_points(self):
        with pytest.raises(OffCarrierError):
            Carrier.grid(1.0, 0.001).index_of(0.0005)

    @pytest.mark.parametrize("v", [float("inf"), float("-inf"), float("nan"), 10 ** 400])
    @pytest.mark.parametrize("carrier", [Carrier.integers(10), Carrier.grid(1.0, 0.001)], ids=["int", "grid"])
    def test_non_finite_values_are_off_carrier(self, carrier, v):
        # round() raises OverflowError on inf (and on an int past float range on a grid), ValueError on nan
        with pytest.raises(OffCarrierError, match="outside carrier"):
            carrier.index_of(v)


class _IntSubclass(int):
    """An int whose type is not int, so index_of takes its general path for it."""


def _index_outcome(carrier, v):
    try:
        return carrier.index_of(v)
    except OffCarrierError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("v", [0, 1, 7, 99, 100, 101, 10 ** 6, 10 ** 400, -1, -(10 ** 400), True, False,
                               0.0, 7.0, 100.0, 101.0, -1.0])
@pytest.mark.parametrize("carrier", [Carrier.integers(100), Carrier.grid(1.0, 0.01)], ids=["int", "grid"])
def test_index_of_fast_path_matches_the_general_path(carrier, v):
    general = _IntSubclass(v) if type(v) is int else v  # floats and bools never take the fast path
    assert _index_outcome(carrier, v) == _index_outcome(carrier, general)
    if type(v) is int and carrier.kind == INTEGER_RANGE and 0 <= v <= 100:
        assert type(carrier.index_of(v)) is int


@given(st.integers(min_value=0, max_value=200))
def test_round_trip_integers(i):
    c = Carrier.integers(200)
    assert c.index_of(c.value_at(i)) == i


@given(st.integers(min_value=0, max_value=1000))
def test_round_trip_grid(i):
    c = Carrier.grid(1.0, 0.001)
    assert c.index_of(c.value_at(i)) == i


def test_contains():
    c = Carrier.grid(1.0, 0.001)
    assert c.index_of(0.8) == 800
    for outside in (0.0005, 1.5):
        with pytest.raises(OffCarrierError):
            c.index_of(outside)
