import math
import random

import pytest

from nda.arith import Arithmetic
from nda.errors import CarrierExhaustedError, OffCarrierError, SpecError
from nda.series import (
    INCONCLUSIVE,
    PRACTICALLY_CONVERGENT,
    PRACTICALLY_DIVERGENT,
    SequenceSpec,
    arith_partial_sums,
    from_spec,
    practical_convergence,
)

from reference import ref_partial_sums


class TestSequences:
    def test_const(self):
        seq = from_spec("const:1")
        assert [seq.term(n) for n in (1, 2, 100)] == [1, 1, 1]

    def test_list(self):
        seq = from_spec("list:2,2,2,2")
        assert seq.term(3) == 2
        with pytest.raises(ValueError):
            seq.term(5)

    def test_powfact_small_terms_exact(self):
        # 1000^2 / 2! = 500000, recoverable from the log representation
        seq = from_spec("powfact:1000")
        assert seq.log_term(2) == pytest.approx(math.log(500000), rel=1e-12)
        assert seq.term(2) == pytest.approx(500000, rel=1e-9)

    def test_factpow_is_reciprocal(self):
        up = from_spec("powfact:1000")
        down = from_spec("factpow:1000")
        for n in (1, 5, 50):
            assert up.log_term(n) == pytest.approx(-down.log_term(n), rel=1e-12)

    def test_powfact_peak_near_ratio(self):
        # terms rise while n < r and fall after
        seq = from_spec("powfact:50")
        assert seq.log_term(30) < seq.log_term(31)
        assert seq.log_term(80) > seq.log_term(81)

    def test_huge_terms_stay_representable(self):
        seq = from_spec("powfact:1000")
        log10 = seq.log_term(1000) / math.log(10)
        assert math.isfinite(log10)
        assert log10 > 300  # far beyond double range as a plain float
        assert seq.term(1000) == math.inf

    def test_log_term_of_a_negative_term_is_its_magnitude(self):
        assert from_spec("const:-1").log_term(3) == 0.0
        assert from_spec("const:-2").log_term(3) == from_spec("list:-2").log_term(1) == math.log(2)
        assert from_spec("const:0").log_term(3) == -math.inf

    def test_bad_specs(self):
        for spec in ("const:", "powfact:-1", "list:", "geom:2", "powfact:nan", "powfact:inf", "factpow:nan"):
            with pytest.raises(SpecError):
                from_spec(spec)

    @pytest.mark.parametrize("spec, name", [
        ("const:123456.7", "const:123456.7"),
        ("list:1234567,765432", "list:1234567,765432"),
        ("list:12345678901234567890,-1000001", "list:12345678901234567890,-1000001"),
        ("const:0.5", "const:0.5"),
        ("const:1e-7", "const:1e-07"),
        ("list:0.5,1e-7,2.0", "list:0.5,1e-07,2"),
        ("powfact:1000", "powfact:1000"),
        ("factpow:123456.7", "factpow:123456.7"),
    ])
    def test_name_reads_back_as_the_sequence(self, spec, name):
        seq = from_spec(spec)
        assert seq.name == name
        assert from_spec(seq.name) == seq

    def test_term_indexing_from_one(self):
        with pytest.raises(ValueError):
            from_spec("const:1").term(0)


class TestArithPartialSums:
    def test_absorbing_constant(self):
        a = Arithmetic.from_spec("projective:exp2m1@int:0:100")
        sums, stationary = arith_partial_sums(a, from_spec("const:1"), 1000)
        assert set(sums) == {1}
        assert stationary == 1

    def test_identity_keeps_counting(self):
        a = Arithmetic.from_spec("projective:id@int:0:1000000")
        sums, stationary = arith_partial_sums(a, from_spec("const:1"), 100)
        assert sums == list(range(1, 101))
        assert stationary is None

    def test_list_fixed_point(self):
        a = Arithmetic.from_spec("projective:pow:2@int:0:100")
        sums, stationary = arith_partial_sums(a, from_spec("list:2,2,2,2"), 4)
        assert sums == [2, 2, 2, 2]
        assert stationary == 1

    def test_late_stationarity(self):
        a = Arithmetic.from_spec("projective:exp2m1@int:0:100")
        sums, stationary = arith_partial_sums(a, from_spec("list:1,2,2"), 3)
        assert sums == [1, 2, 2]
        assert stationary == 2

    def test_single_term_never_stationary(self):
        a = Arithmetic.from_spec("projective:id@int:0:100")
        _, stationary = arith_partial_sums(a, from_spec("const:1"), 1)
        assert stationary is None

    def test_off_carrier_term(self):
        a = Arithmetic.from_spec("projective:id@int:0:100")
        with pytest.raises(OffCarrierError):
            arith_partial_sums(a, from_spec("const:0.5"), 3)

    def test_dual_exhaustion_propagates(self):
        a = Arithmetic.from_spec("dual:id@int:0:10")
        with pytest.raises(CarrierExhaustedError):
            arith_partial_sums(a, from_spec("const:3"), 10)

    def test_projective_sums_never_decrease(self):
        a = Arithmetic.from_spec("projective:quad@int:0:200")
        sums, _ = arith_partial_sums(a, from_spec("list:3,1,7,2,9,4,4,4"), 8)
        assert all(x <= y for x, y in zip(sums, sums[1:]))

    def test_stationary_sum_is_a_fixed_point(self):
        a = Arithmetic.from_spec("projective:exp2m1@int:0:100")
        seq = from_spec("list:1,2,2,2")
        sums, stationary = arith_partial_sums(a, seq, 4)
        assert stationary is not None
        fixed = sums[stationary - 1]
        for k in range(stationary + 1, 5):
            assert a.add(fixed, seq.term(k)) == fixed


def _fold_outcome(fold, arith, seq, n):
    """(sums, stationary_at), or the class and message of the error raised."""
    try:
        return fold(arith, seq, n)
    except (OffCarrierError, CarrierExhaustedError) as exc:
        return type(exc), str(exc)


FOLD_SPECS = ["projective:exp2m1@int:0:100", "projective:pow:2@int:0:100", "dual:pow:2@int:0:100", "dual:id@int:0:10",
              "projective:atanh:1@grid:0:1:0.01", "projective:pow:2@grid:0:1:0.01", "dual:pow:2@grid:0:1:0.01",
              "dual:atanh:1@grid:0:1:0.01"]


def _random_folds(rng: random.Random, spec: str, count: int) -> list[tuple[str, int]]:
    """(sequence spec, n): mostly small carrier terms, now and then one off the carrier."""
    grid = "@grid" in spec
    top = 100 if grid or spec.endswith(":100") else 10
    folds = []
    for _ in range(count):
        terms = []
        for _ in range(rng.randint(1, 40)):
            i = int(top * rng.random() ** 3)
            terms.append(f"{i / 100:.2f}" if grid else str(i))
            if rng.random() < 0.02:
                terms[-1] = rng.choice(["0.005", "1.5"] if grid else ["0.5", "101"])
        folds.append(("list:" + ",".join(terms), len(terms)))
    return folds


class TestPartialSumsMatchTheNaiveFold:
    """sums, stationary_at and the first error's class and message, as a term-by-term fold gives them."""

    NAMED = [
        ("projective:exp2m1@int:0:100", "const:1", 50),  # stationary from the first term
        ("projective:exp2m1@int:0:100", "list:1,2,2,2,2", 5),  # stationary from the second
        ("projective:id@int:0:1000", "const:1", 200),  # moving to the end
        ("projective:exp2m1@int:0:100", "list:1,1,1,1,0.5", 5),  # stationary, then an off-carrier term
        ("dual:pow:2@int:0:100", "list:50,50,50,50,0.5", 5),  # out of carrier before a later off-carrier term
        ("dual:id@int:0:10", "const:3", 10),  # out of carrier
        ("projective:id@int:0:100", "list:0.5", 1),  # the first term off the carrier
        ("projective:pow:2@grid:0:1:0.01", "const:0.1", 40),  # stationary on a grid
        ("dual:pow:2@grid:0:1:0.01", "const:0.1", 40),  # moving on a grid
        ("dual:atanh:1@grid:0:1:0.01", "const:0.25", 20),  # stuck at the top, where f is infinite
        ("projective:atanh:1@grid:0:1:0.01", "list:0.5,0.5,0.005,0.5", 4),  # off the grid
    ]

    @pytest.mark.parametrize("spec, seq, n", NAMED)
    def test_named_folds(self, spec, seq, n):
        arith = Arithmetic.from_spec(spec)
        expected = _fold_outcome(ref_partial_sums, arith, from_spec(seq), n)
        assert _fold_outcome(arith_partial_sums, arith, from_spec(seq), n) == expected

    def test_seeded_folds(self):
        rng = random.Random(20010810)
        seen = set()
        for spec in FOLD_SPECS:
            arith = Arithmetic.from_spec(spec)
            for seq, n in _random_folds(rng, spec, 40):
                expected = _fold_outcome(ref_partial_sums, arith, from_spec(seq), n)
                assert _fold_outcome(arith_partial_sums, arith, from_spec(seq), n) == expected, (spec, seq)
                seen.add((spec.partition(":")[0], expected[0] if isinstance(expected[0], type) else
                          "moving" if expected[1] is None else "stationary"))
        # every kind met a stationary fold, a moving fold and an off-carrier term; the dual kind ran out of carrier
        assert seen == {(kind, outcome) for kind in ("projective", "dual")
                        for outcome in ("stationary", "moving", OffCarrierError)} | {("dual", CarrierExhaustedError)}


class TestPracticalConvergence:
    def test_astronomer_divergent(self):
        verdict = practical_convergence(from_spec("powfact:1000"), 100, 50)
        assert verdict.verdict == PRACTICALLY_DIVERGENT

    def test_astronomer_convergent(self):
        verdict = practical_convergence(from_spec("factpow:1000"), 100, 50)
        assert verdict.verdict == PRACTICALLY_CONVERGENT

    def test_mathematician_emerges_with_budget(self):
        verdict = practical_convergence(from_spec("powfact:1000"), 5000, 50)
        assert verdict.verdict == PRACTICALLY_CONVERGENT

    def test_verdict_flips_across_the_peak(self):
        seq = from_spec("powfact:50")
        assert practical_convergence(seq, 40, 20).verdict == PRACTICALLY_DIVERGENT
        assert practical_convergence(seq, 200, 20).verdict == PRACTICALLY_CONVERGENT

    def test_flat_sequence_inconclusive(self):
        assert practical_convergence(from_spec("const:3"), 100, 50).verdict == INCONCLUSIVE

    def test_window_straddling_peak_inconclusive(self):
        # the window sees both rising and falling steps near n = 50
        verdict = practical_convergence(from_spec("powfact:50"), 60, 30)
        assert verdict.verdict == INCONCLUSIVE

    def test_evidence_statistics(self):
        verdict = practical_convergence(from_spec("powfact:1000"), 100, 50)
        ev = verdict.evidence
        assert ev.window == 50
        assert ev.min_step > 0
        assert ev.max_step >= ev.min_step
        # steps are ln(1000/(n+1)); smallest at the window's end
        assert ev.min_step == pytest.approx(math.log(1000 / 100), rel=1e-12)

    def test_pure_function_of_inputs(self):
        a = practical_convergence(from_spec("factpow:1000"), 100, 50)
        b = practical_convergence(from_spec("factpow:1000"), 100, 50)
        assert a == b

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            practical_convergence(from_spec("const:1"), 10, 1)
        with pytest.raises(ValueError):
            practical_convergence(from_spec("const:1"), 10, 20)
        for tol in (-1.0, math.nan):  # a negative tol would read falling terms as diverging
            with pytest.raises(ValueError, match="tol"):
                practical_convergence(from_spec("powfact:2"), 4, 2, tol)
