import itertools
import random
from fractions import Fraction

import pytest

from finsem.effects import (
    ONE,
    UNDEFINED,
    ZERO,
    Distribution,
    FuzzyPredicate,
    dist_bind,
    dist_make,
    farey_grid,
    format_rat,
    fuzzy_predicate_effect_algebra,
    iter_distributions,
    mv_ops,
    parse_rat,
    powerset_effect_algebra,
    pred_meet,
    pred_orth,
    pred_ovee,
    pred_scalar,
    random_distribution,
    truncated_total_instance,
    unit_interval_effect_algebra,
    validate_effect_algebra,
)
from finsem.errors import CarrierMismatch, NotNormalized, ParseError, ScalarOutOfRange
from finsem.order import FinSet

S2 = FinSet(["s0", "s1"])


def test_rat_wire_format():
    assert parse_rat("2/6") == Fraction(1, 3)
    assert parse_rat("3") == 3
    assert format_rat(Fraction(1, 3)) == "1/3"
    assert format_rat(Fraction(2)) == "2/1"


@pytest.mark.parametrize("text", ["1/0", "0/0", "abc", "1/", "1/x", ""])
def test_bad_rational_is_parse_error(text):
    with pytest.raises(ParseError):
        parse_rat(text)


def test_farey_grid():
    assert len(farey_grid(6)) == 13
    assert farey_grid(1) == (ZERO, ONE)


class TestFuzzyPredicates:
    def test_partial_sum_defined(self):
        p = FuzzyPredicate.constant(S2, Fraction(1, 2))
        q = FuzzyPredicate.constant(S2, Fraction(1, 3))
        assert pred_ovee(p, q) == FuzzyPredicate.constant(S2, Fraction(5, 6))

    def test_partial_sum_undefined(self):
        p = FuzzyPredicate.constant(S2, Fraction(1, 2))
        q = FuzzyPredicate.constant(S2, Fraction(2, 3))
        assert pred_ovee(p, q) is UNDEFINED

    def test_orthosupplement_sums_to_one(self):
        p = FuzzyPredicate.from_dict(S2, {"s0": Fraction(1, 3), "s1": Fraction(3, 4)})
        assert pred_ovee(p, pred_orth(p)) == FuzzyPredicate.constant(S2, ONE)

    def test_orth_of_zero(self):
        assert pred_orth(FuzzyPredicate.constant(S2, ZERO)) == FuzzyPredicate.constant(S2, ONE)

    def test_scalar_unit_and_half_indicator(self):
        p = FuzzyPredicate.from_dict(S2, {"s0": Fraction(1, 4), "s1": ONE})
        assert pred_scalar(ONE, p) == p
        ind = FuzzyPredicate.indicator(S2, {"s0"})
        assert pred_scalar(Fraction(1, 2), ind)("s0") == Fraction(1, 2)

    def test_scalar_out_of_range(self):
        p = FuzzyPredicate.constant(S2, ZERO)
        with pytest.raises(ScalarOutOfRange):
            pred_scalar(Fraction(3, 2), p)

    def test_carrier_mismatch(self):
        p = FuzzyPredicate.constant(S2, ZERO)
        q = FuzzyPredicate.constant(FinSet(["t"]), ZERO)
        with pytest.raises(CarrierMismatch):
            pred_ovee(p, q)

    def test_values_validated(self):
        with pytest.raises(ScalarOutOfRange):
            FuzzyPredicate.constant(S2, Fraction(7, 6))


class TestMvOps:
    def test_truncation(self):
        assert mv_ops(Fraction(1, 2), Fraction(2, 3)).plus == ONE
        assert mv_ops(Fraction(1, 3), Fraction(1, 2)).minus == ZERO

    def test_unit(self):
        for a in farey_grid(4):
            assert mv_ops(a, ZERO).plus == a

    def test_mv_identities_on_grid(self):
        grid = farey_grid(6)
        for a, b in itertools.product(grid, repeat=2):
            ops = mv_ops(a, b)
            assert ops.join == mv_ops(ops.minus, b).plus  # a v b = (a - b) + b
            # the defining distributive-style identity
            lhs = (ONE - ops.join) + a
            rhs = (ONE - b) + ops.meet
            assert lhs == rhs


class TestEffectAlgebraValidation:
    def test_powerset_passes(self):
        for n in range(4):
            report = validate_effect_algebra(powerset_effect_algebra(FinSet(range(n))))
            assert report.ok, report.summary()

    def test_unit_interval_grid_passes(self):
        report = validate_effect_algebra(unit_interval_effect_algebra(farey_grid(6)))
        assert report.ok, report.summary()

    def test_quarters_grid_is_sub_effect_algebra(self):
        grid = tuple(Fraction(k, 4) for k in range(5))
        report = validate_effect_algebra(unit_interval_effect_algebra(grid))
        assert report.ok, report.summary()

    def test_truncated_total_fails_zero_one_only_where_expected(self):
        report = validate_effect_algebra(truncated_total_instance(farey_grid(4)))
        rows = {r.law.split(" (")[0]: r for r in report.rows}
        assert rows["ovee commutative"].ok
        assert rows["ovee associative"].ok
        assert rows["zero is a unit"].ok
        assert rows["x ovee orth(x) = 1"].ok
        assert not rows["x defined with 1 implies x = 0"].ok
        assert not report.ok

    def test_fuzzy_predicates_pass_full_grid(self):
        inst = fuzzy_predicate_effect_algebra(FinSet(["s"]), 6)
        report = validate_effect_algebra(inst)
        assert report.ok, report.summary()

    def test_fuzzy_predicates_two_points(self):
        inst = fuzzy_predicate_effect_algebra(S2, 3)
        report = validate_effect_algebra(inst)
        assert report.ok, report.summary()


class TestDistributions:
    def test_normalization_enforced(self):
        with pytest.raises(NotNormalized):
            dist_make(S2, {"s0": Fraction(1, 2)})
        with pytest.raises(NotNormalized):
            dist_make(S2, {"s0": Fraction(3, 2), "s1": Fraction(-1, 2)})

    def test_zero_weights_dropped(self):
        d = dist_make(S2, {"s0": ONE, "s1": ZERO})
        assert d.support == frozenset({"s0"})

    def test_bind_unit_law(self):
        omega = dist_make(S2, {"s0": Fraction(1, 3), "s1": Fraction(2, 3)})
        assert dist_bind(lambda x: Distribution.point(S2, x), omega) == omega

    def test_bind_example(self):
        ab = FinSet(["a", "b"])
        bits = FinSet([0, 1])
        omega = dist_make(ab, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
        kernel = {
            "a": Distribution.point(bits, 0),
            "b": dist_make(bits, {0: Fraction(1, 2), 1: Fraction(1, 2)}),
        }
        out = dist_bind(lambda x: kernel[x], omega)
        assert out == dist_make(bits, {0: Fraction(3, 4), 1: Fraction(1, 4)})

    def test_bind_associative_on_random_instances(self):
        rng = random.Random(99)
        xs = FinSet(range(3))
        for _ in range(60):
            omega = random_distribution(xs, rng)
            f = {x: random_distribution(xs, rng) for x in xs}
            g = {x: random_distribution(xs, rng) for x in xs}
            left = dist_bind(lambda x: g[x], dist_bind(lambda x: f[x], omega))
            right = dist_bind(
                lambda x: dist_bind(lambda y: g[y], f[x]), omega
            )
            assert left == right

    def test_probe_counts(self):
        assert len(iter_distributions(FinSet([0]), 4)) == 1
        # two atoms, denominators <= 4: the seven grid splits
        assert len(iter_distributions(FinSet([0, 1]), 4)) == 7

    def test_pointwise_lattice_helpers(self):
        p = FuzzyPredicate.from_dict(S2, {"s0": Fraction(1, 3), "s1": ONE})
        q = FuzzyPredicate.from_dict(S2, {"s0": Fraction(1, 2), "s1": ZERO})
        assert pred_meet(p, q)("s0") == Fraction(1, 3)
