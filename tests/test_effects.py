import itertools
import random
from fractions import Fraction

import pytest

from finsem.effects import (
    ONE,
    ZERO,
    Distribution,
    EffectAlgebraInstance,
    FuzzyPredicate,
    dist_bind,
    dist_make,
    farey_grid,
    iter_distributions,
    mv_ops,
    powerset_effect_algebra,
    pred_orth,
    pred_ovee,
    pred_scalar,
    random_distribution,
    truncated_add,
    truncated_sub,
    unit_interval_effect_algebra,
    validate_effect_algebra,
)
from finsem.errors import CarrierMismatch, NotNormalized, ParseError, ScalarOutOfRange
from finsem.kernel import bind_rows, format_rat, parse_rat, read_int
from finsem.order import FinSet, atom_key
from test_order import run_under_seed

S2 = FinSet(["s0", "s1"])


def support(weighting):
    """The atoms of a weighting's nonzero weights."""
    return frozenset(atom for atom, _ in weighting.weights)


@pytest.mark.parametrize("text, value", [
    ("0", 0), ("12", 12), ("-3", -3), ("007", 7), ("-0", 0), (" 4\t", 4), ("\n-5 ", -5),
    ("+1", None), ("1_0", None), ("٣", None), ("²", None), ("1.0", None), ("- 1", None),
    ("--1", None), ("-", None), ("", None), (" ", None), ("0x1", None), ("1e3", None),
])
def test_read_int_reads_the_grammars_signed_integers(text, value):
    assert read_int(text) == value and type(read_int(text)) is type(value)


def test_rat_wire_format():
    assert parse_rat("2/6") == Fraction(1, 3)
    assert parse_rat("3") == 3
    assert format_rat(Fraction(1, 3)) == "1/3"
    assert format_rat(Fraction(2)) == "2/1"


@pytest.mark.parametrize("text", ["1/0", "0/0", "abc", "1/", "1/x", "", "+1", "1_0", "٣/2",
                                  "1/+2", "1.5", "-1/-2", "1/-2"])
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
        assert pred_ovee(p, q) is None

    def test_orthosupplement_sums_to_one(self):
        p = FuzzyPredicate.from_dict(S2, {"s0": Fraction(1, 3), "s1": Fraction(3, 4)})
        assert pred_ovee(p, pred_orth(p)) == FuzzyPredicate.constant(S2, ONE)

    def test_as_dict_inverts_from_dict(self):
        values = {"s0": Fraction(1, 3), "s1": ONE}
        p = FuzzyPredicate.from_dict(S2, values)
        assert p.as_dict() == values and list(p.as_dict()) == ["s0", "s1"]
        assert FuzzyPredicate.from_dict(S2, p.as_dict()) == p

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

    @pytest.mark.parametrize("value", [0.1, True, "abc", "1/2", None])
    def test_a_scalar_is_an_int_or_a_fraction(self, value):
        # 0.1 would scale by 3602879701896397/36028797018963968, not by 1/10
        with pytest.raises(ScalarOutOfRange) as info:
            pred_scalar(value, FuzzyPredicate(FinSet([1]), (1,)))
        assert str(info.value) == f"scalar {value!r} is not an int or a Fraction"

    def test_carrier_mismatch(self):
        p = FuzzyPredicate.constant(S2, ZERO)
        q = FuzzyPredicate.constant(FinSet(["t"]), ZERO)
        with pytest.raises(CarrierMismatch):
            pred_ovee(p, q)

    def test_values_validated(self):
        with pytest.raises(ScalarOutOfRange):
            FuzzyPredicate.constant(S2, Fraction(7, 6))

    @pytest.mark.parametrize("value", [0.1, True, "abc", "1/2", None])
    def test_a_value_is_an_int_or_a_fraction(self, value):
        # a float would be read as its binary expansion: 0.1 is not 1/10
        for build in (lambda: FuzzyPredicate(FinSet([1]), (value,)),
                      lambda: FuzzyPredicate.constant(FinSet([1]), value)):
            with pytest.raises(ScalarOutOfRange) as info:
                build()
            assert str(info.value) == f"predicate value {value!r} is not an int or a Fraction"

    def test_int_values_are_held_as_fractions(self):
        p = FuzzyPredicate(S2, (0, 1))
        assert p == FuzzyPredicate.indicator(S2, {"s1"})
        assert all(type(v) is Fraction for v in p.values)


class TestMvOps:
    def test_truncation(self):
        assert mv_ops(Fraction(1, 2), Fraction(2, 3)).plus == ONE
        assert mv_ops(Fraction(1, 3), Fraction(1, 2)).minus == ZERO

    def test_unit(self):
        for a in farey_grid(4):
            assert mv_ops(a, ZERO).plus == a

    @pytest.mark.parametrize("op", [mv_ops, truncated_add, truncated_sub])
    @pytest.mark.parametrize("value", [0.1, True, "1/2"])
    def test_operands_are_ints_or_fractions(self, op, value):
        for a, b in ((value, ZERO), (ZERO, value)):
            with pytest.raises(ScalarOutOfRange) as info:
                op(a, b)
            assert str(info.value) == f"value {value!r} is not an int or a Fraction"

    def test_int_operands_give_fractions(self):
        ops = mv_ops(1, 0)
        assert (ops.plus, ops.minus, ops.join, ops.meet) == (ONE, ONE, ONE, ZERO)
        assert all(type(v) is Fraction for v in (ops.plus, ops.minus, ops.join, ops.meet))
        assert type(truncated_add(0, 0)) is Fraction and type(truncated_sub(1, 0)) is Fraction

    def test_mv_identities_on_grid(self):
        grid = farey_grid(6)
        for a, b in itertools.product(grid, repeat=2):
            ops = mv_ops(a, b)
            assert ops.join == mv_ops(ops.minus, b).plus  # a v b = (a - b) + b
            # the defining distributive-style identity
            lhs = (ONE - ops.join) + a
            rhs = (ONE - b) + ops.meet
            assert lhs == rhs


# two fixtures of validate_effect_algebra: one that fails, one that passes


def truncated_total_instance(grid):
    """[0, 1] with truncated total addition: not an effect algebra."""
    return EffectAlgebraInstance(name="truncated-total", elements=tuple(grid),
                                 ovee=truncated_add, orth=lambda a: ONE - a, zero=ZERO)


def fuzzy_predicate_effect_algebra(carrier, max_den):
    """The effect module of fuzzy predicates probed on a value grid."""
    grid = farey_grid(max_den)
    return EffectAlgebraInstance(
        name=f"fuzzy-predicates({len(carrier)} points, den<={max_den})",
        elements=tuple(FuzzyPredicate(carrier, values)
                       for values in itertools.product(grid, repeat=len(carrier))),
        ovee=pred_ovee,
        orth=pred_orth, zero=FuzzyPredicate.constant(carrier, ZERO),
        scalar=pred_scalar, scalar_grid=farey_grid(3))


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
        rows = {r.law.split(" (")[0]: r for r in report.cases}
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

    def test_associativity_is_sampled_past_the_budget(self, monkeypatch):
        # 5 probes make 125 triples: past a budget of 100, 100 seeded triples run
        monkeypatch.setattr("finsem.effects.ASSOC_BUDGET", 100)
        report = validate_effect_algebra(unit_interval_effect_algebra(farey_grid(3)))
        assert report.ok, report.summary()
        case = report.cases[1]
        assert (case.law, case.mode, case.checked) == (
            "ovee associative (sampled seed=0)", "sampled seed=0", 100)
        assert report.seed == 0
        broken = validate_effect_algebra(truncated_total_instance(farey_grid(3)))
        assert broken.cases[1].mode == "sampled seed=0" and not broken.ok


# an instance over the subsets of three strings whose sum is undefined on the
# full set: its witnesses name frozensets, whose repr follows the hash seed
UNDEFINED_ON_FULL = """
from finsem.effects import EffectAlgebraInstance, powerset_effect_algebra, validate_effect_algebra
from finsem.kernel import FinSet
base = powerset_effect_algebra(FinSet(["a", "b", "c"]))
full = frozenset("abc")
inst = EffectAlgebraInstance("no-full-sums", base.elements,
                             lambda x, y: None if full in (x, y) else base.ovee(x, y),
                             base.orth, base.zero)
print(validate_effect_algebra(inst).listing())
"""


def test_effect_algebra_witnesses_are_hash_seed_independent():
    first, *others = (run_under_seed(seed, UNDEFINED_ON_FULL) for seed in ("1", "2", "3"))
    assert others == [first, first]
    assert first.splitlines() == [
        "effect algebra no-full-sums:",
        "  ok  ovee commutative",
        "  FAIL ovee associative (exhaustive)  "
        "[x=frozenset() y=frozenset({'a'}) z=frozenset({'b', 'c'})]",
        "  FAIL zero is a unit  [x=frozenset({'a', 'b', 'c'})]",
        "  FAIL x ovee orth(x) = 1  [x=frozenset()]",
        "  ok  orthosupplement unique on probe",
        "  ok  x defined with 1 implies x = 0",
    ]
    # witnesses over numbers read as their repr
    report = validate_effect_algebra(truncated_total_instance(farey_grid(4)))
    assert [c.witness for c in report.cases if not c.ok] == [
        "x=Fraction(1, 4) y=Fraction(1, 1)", "x=Fraction(1, 4)"]


class TestDistributions:
    def test_normalization_enforced(self):
        with pytest.raises(NotNormalized):
            dist_make(S2, {"s0": Fraction(1, 2)})
        with pytest.raises(NotNormalized):
            dist_make(S2, {"s0": Fraction(3, 2), "s1": Fraction(-1, 2)})

    def test_zero_weights_dropped(self):
        d = dist_make(S2, {"s0": ONE, "s1": ZERO})
        assert support(d) == frozenset({"s0"})

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


class TestWeightKernel:
    """The public surface that Distribution and FiniteMeasure share."""

    A = FinSet([0, 1, 2])

    def test_repeated_atom_is_rejected(self):
        from finsem.errors import StructureNotPreserved
        from finsem.monads import FiniteMeasure

        with pytest.raises(NotNormalized, match="repeated atom 0"):
            Distribution(self.A, ((0, Fraction(1, 2)), (0, Fraction(1, 2))))
        with pytest.raises(StructureNotPreserved, match="repeated atom 0"):
            FiniteMeasure(self.A, ((0, Fraction(1, 2)), (0, Fraction(1, 2))))

    @pytest.mark.parametrize("weight", [0.1, True, "abc", "1/2", None])
    def test_a_weight_is_an_int_or_a_fraction(self, weight):
        from finsem.errors import StructureNotPreserved
        from finsem.monads import FiniteMeasure

        # 0.1 and 0.9 are not exactly 1/10 and 9/10, so they would not sum to 1
        for cls, error in ((Distribution, NotNormalized),
                           (FiniteMeasure, StructureNotPreserved)):
            with pytest.raises(error) as info:
                cls(self.A, ((0, weight), (1, 0.9)))
            assert str(info.value) == f"weight {weight!r} at 0 is not an int or a Fraction"

    def test_int_weights_are_exact(self):
        d = Distribution(self.A, ((0, 0), (1, 1)))
        assert d == Distribution.point(self.A, 1)
        assert d.weights == ((1, Fraction(1)),)

    def test_reprs(self):
        from finsem.monads import FiniteMeasure

        assert repr(dist_make(self.A, {2: Fraction(2, 3), 0: Fraction(1, 3)})) == (
            "Distribution(carrier=FinSet([0, 1, 2]), "
            "weights=((0, Fraction(1, 3)), (2, Fraction(2, 3))))")
        assert repr(FiniteMeasure(self.A, ((1, Fraction(1, 4)), (0, Fraction(3, 4))))) == (
            "FiniteMeasure(atoms=FinSet([0, 1, 2]), "
            "weights=((0, Fraction(3, 4)), (1, Fraction(1, 4))))")
        mixed = FinSet(["a", (1, 2)])
        assert repr(Distribution.point(mixed, (1, 2))) == (
            "Distribution(carrier=FinSet(['a', (1, 2)]), weights=(((1, 2), Fraction(1, 1)),))")

    def test_fields(self):
        from finsem.monads import FiniteMeasure

        phi = FiniteMeasure(atoms=self.A, weights=((2, Fraction(1, 2)), (0, Fraction(2, 4))))
        assert phi.atoms is self.A
        assert phi.weights == ((0, Fraction(1, 2)), (2, Fraction(1, 2)))
        assert all(type(w) is Fraction for _, w in phi.weights)
        d = dist_make(self.A, {1: ONE})
        assert d.carrier is self.A and d.weights == ((1, ONE),)
        for obj, field in ((d, "carrier"), (d, "weights"), (phi, "atoms"), (phi, "weights")):
            with pytest.raises(AttributeError):
                setattr(obj, field, None)

    def test_bind_results_equal_public_ones(self):
        from finsem.monads import DIST, GIRY, FiniteMeasure

        ab = FinSet(["a", "b"])
        half = {"a": Fraction(1, 2), "b": Fraction(1, 2)}
        # the numerators are reduced: 4/8 and 4/8 become 1/2 and 1/2
        kernel = {"a": {0: Fraction(1, 4), 1: Fraction(3, 4)},
                  "b": {0: Fraction(3, 4), 1: Fraction(1, 4)}}
        bits = FinSet([0, 1])
        want = {0: Fraction(1, 2), 1: Fraction(1, 2)}
        for family, cls in ((DIST, Distribution), (GIRY, FiniteMeasure)):
            images = [cls.from_dict(bits, kernel[x]) for x in ab.elements]
            got = family.extend(ab, bits, images, cls.from_dict(ab, half))
            built = cls.from_dict(bits, want)
            assert type(got) is cls
            assert got == built and hash(got) == hash(built)
            assert got.weights == built.weights and repr(got) == repr(built)
        d = dist_bind(lambda x: dist_make(bits, kernel[x]), dist_make(ab, half))
        assert d == dist_make(bits, want) and hash(d) == hash(dist_make(bits, want))

    @pytest.mark.parametrize("name", ["dist", "giry"])
    def test_unit_is_the_public_point_mass(self, name):
        from finsem.errors import UnknownElement
        from finsem.monads import FAMILIES

        family = FAMILIES[name]
        carrier = FinSet([3, "a", (1, 2), frozenset({"b", "c"})])
        for x in carrier:
            unit, built = family.unit(carrier, x), family.weighting(carrier, ((x, 1),))
            assert type(unit) is type(built) and unit.kernel() == built.kernel()
            assert unit.carrier is carrier and unit.weights == built.weights == ((x, ONE),)
            assert unit == built and hash(unit) == hash(built) and repr(unit) == repr(built)
        for x in (7, "z", frozenset({"c", "b", "z"})):
            with pytest.raises(UnknownElement) as public:
                family.weighting(carrier, ((x, 1),))
            with pytest.raises(UnknownElement) as trusted:
                family.unit(carrier, x)
            assert str(trusted.value) == str(public.value)

    def test_bind_orders_the_support_by_atom(self):
        carrier = FinSet([(1, -2), (0, 5), "b", frozenset({2}), 10, (0, -1), -3])
        rng = random.Random(4)
        for _ in range(20):
            start = random_distribution(carrier, rng, 6)
            rows = {x: random_distribution(carrier, rng, 6) for x in carrier}
            want = {}
            for x, w in start.weights:
                for b, v in rows[x].weights:
                    want[b] = want.get(b, ZERO) + w * v
            got = start.bind(rows.__getitem__, carrier)
            assert got.weights == tuple(sorted(want.items(), key=lambda p: atom_key(p[0])))

    def test_distribution_never_equals_measure(self):
        from finsem.monads import distribution_to_measure

        for d in iter_distributions(self.A, 3):
            phi = distribution_to_measure(d)
            assert d != phi and phi != d
            assert d.weights == phi.weights
            assert len({d, phi}) == 2


class TestBindRows:
    """The integer Kleisli extension that ``Weighting.bind`` and the wp engine run."""

    # criterion 1's probe distributions on FinSet(range(n)), as position rows:
    # on range(n) an atom is its own position
    PROBES = {n: tuple(d.kernel() for d in iter_distributions(FinSet(range(n)), 4))
              for n in (1, 2, 3)}

    @staticmethod
    def point(j):
        return (j,), (1,), 1

    @staticmethod
    def bind(row, rows):
        support, nums, den = row
        return bind_rows(nums, den, [rows[j] for j in support])

    def test_unit_laws(self):
        for n, rows in self.PROBES.items():
            units = [self.point(j) for j in range(n)]
            for row in rows:
                assert self.bind(row, units) == row
            for m, targets in self.PROBES.items():
                for f in itertools.product(targets, repeat=m):
                    assert all(self.bind(self.point(j), f) == f[j] for j in range(m))

    def test_associativity(self):
        rng = random.Random(7)
        for n, m, k in itertools.product(self.PROBES, repeat=3):
            for _ in range(40):
                row = rng.choice(self.PROBES[n])
                f = [rng.choice(self.PROBES[m]) for _ in range(n)]
                g = [rng.choice(self.PROBES[k]) for _ in range(m)]
                left = self.bind(self.bind(row, f), g)
                right = self.bind(row, [self.bind(image, g) for image in f])
                assert left == right

    def test_a_row_off_its_denominator_is_not_normalized(self):
        from finsem.errors import StructureNotPreserved
        from finsem.monads import FiniteMeasure

        bits, ab = FinSet([0, 1]), FinSet(["a", "b"])
        bad = ((0, 1), (1, 1), 3)  # 1/3 + 1/3
        for cls, error in ((Distribution, NotNormalized),
                           (FiniteMeasure, StructureNotPreserved)):
            images = {"a": cls._from_kernel(bits, bad), "b": cls.point(bits, 0)}
            half = cls.from_dict(ab, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
            with pytest.raises(error, match="do not sum to 1"):
                half.bind(images.__getitem__, bits)
        with pytest.raises(NotNormalized, match="do not sum to 1"):
            bind_rows((1, 1), 2, [bad, self.point(0)])


@pytest.mark.parametrize("name", ["dist", "giry"])
def test_extend_rejects_images_off_the_codomain(name):
    from finsem.monads import FAMILIES

    family = FAMILIES[name]
    small, cod = FinSet([0]), FinSet([0, 1, 2])
    image = family.unit(small, 0)
    with pytest.raises(CarrierMismatch, match="not on"):
        family.extend(small, cod, [image], family.unit(small, 0))
    two = family.weighting.from_dict(FinSet([0, 1]), {0: Fraction(1, 2), 1: Fraction(1, 2)})
    with pytest.raises(CarrierMismatch, match="not on"):
        family.extend(two.carrier, cod, [image, image], two)


# -- probes and seeded draws built from their rows ------------------------------------


def fraction_iter_distributions(carrier, max_den, weighting=Distribution):
    """The validating enumerator: Fraction weights, repeats dropped by value."""
    atoms = carrier.elements
    if not atoms:
        return ()
    seen = set()
    out = []
    for den in range(1, max_den + 1):
        for cuts in itertools.combinations(range(den + len(atoms) - 1), len(atoms) - 1):
            parts = []
            prev = -1
            for c in cuts:
                parts.append(c - prev - 1)
                prev = c
            parts.append(den + len(atoms) - 2 - prev)
            weights = tuple(Fraction(p, den) for p in parts)
            if weights in seen:
                continue
            seen.add(weights)
            out.append(weighting(carrier, tuple(zip(atoms, weights))))
    return tuple(out)


def fraction_random_distribution(carrier, rng, max_den=12):
    """The validating draw: Fraction weights through the public constructor."""
    atoms = carrier.elements
    den = rng.randint(1, max_den)
    cuts = sorted(rng.randint(0, den) for _ in range(len(atoms) - 1))
    bounds = [0] + cuts + [den]
    weights = [Fraction(bounds[i + 1] - bounds[i], den) for i in range(len(atoms))]
    return Distribution(carrier, tuple(zip(atoms, weights)))


def same_weightings(got, want):
    assert [type(d) for d in got] == [type(d) for d in want]
    assert [d.kernel() for d in got] == [d.kernel() for d in want]
    assert [d.carrier for d in got] == [d.carrier for d in want]


class TestProbesFromRows:
    @pytest.mark.parametrize("n", range(5))
    @pytest.mark.parametrize("cls_name", ["Distribution", "FiniteMeasure"])
    def test_probes_match_the_fraction_enumerator(self, n, cls_name):
        from finsem.monads import FiniteMeasure

        cls = {"Distribution": Distribution, "FiniteMeasure": FiniteMeasure}[cls_name]
        carrier = FinSet(range(n))
        for max_den in range(1, 7):
            got = iter_distributions(carrier, max_den, cls)
            same_weightings(got, fraction_iter_distributions(carrier, max_den, cls))

    def test_probes_on_unordered_atoms_keep_the_support_sorted(self):
        carrier = FinSet(["b", (0, 1), 3, frozenset({1})])
        same_weightings(iter_distributions(carrier, 4),
                        fraction_iter_distributions(carrier, 4))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_random_draws_match_the_fraction_draw(self, n):
        carrier = FinSet(range(n))
        for max_den in range(1, 13):
            rng, oracle = random.Random(n * 100 + max_den), random.Random(n * 100 + max_den)
            draws = [random_distribution(carrier, rng, max_den) for _ in range(300)]
            want = [fraction_random_distribution(carrier, oracle, max_den) for _ in range(300)]
            same_weightings(draws, want)
            assert rng.getstate() == oracle.getstate()

    def test_random_draw_on_the_empty_carrier_is_not_normalized(self):
        rng, oracle = random.Random(5), random.Random(5)
        with pytest.raises(NotNormalized):
            random_distribution(FinSet(), rng)
        with pytest.raises(NotNormalized):
            fraction_random_distribution(FinSet(), oracle)
        assert rng.getstate() == oracle.getstate()

    def test_probe_sets_validate_no_weights(self, monkeypatch):
        from finsem import kernel
        from finsem.monads import DIST, GIRY

        calls = []
        checked = kernel.checked_weights

        def counted(*args):
            calls.append(args)
            return checked(*args)

        monkeypatch.setattr(kernel, "checked_weights", counted)
        for family in (DIST, GIRY):
            for n in range(1, 4):
                probes = family.probe_elements(FinSet(range(n)), 4)
                assert probes and all(type(p) is family.weighting for p in probes)
        assert calls == []
        Distribution.from_dict(S2, {"s0": ONE})  # the public constructor still validates
        assert len(calls) == 1


class TestRowsNamePositions:
    """A weighting's kernel row names positions in its carrier, not atoms: on
    carriers of strings, tuples and labels out of atom order, where the two
    formats differ."""

    CARRIERS = (FinSet(["c", "a", "b"]), FinSet([(1, 2), (0, 5), (1, -1)]),
                FinSet(["b", (0, 1), 3, frozenset({1})]))

    def test_public_rows_are_positional(self):
        from finsem.monads import FiniteMeasure

        for carrier, cls in itertools.product(self.CARRIERS, (Distribution, FiniteMeasure)):
            first, last = carrier.elements[0], carrier.elements[-1]
            built = cls(carrier, ((last, Fraction(2, 3)), (first, Fraction(1, 3))))
            assert built.kernel() == ((0, len(carrier) - 1), (1, 2), 3)
            for i, x in enumerate(carrier.elements):
                assert cls.point(carrier, x).kernel() == ((i,), (1,), 1)

    def test_weights_support_and_repr_name_atoms(self):
        carrier = FinSet(["c", "a", "b"])
        d = Distribution(carrier, (("c", Fraction(1, 2)), ("a", Fraction(1, 2))))
        assert d.kernel() == ((0, 2), (1, 1), 2)
        assert d.weights == (("a", Fraction(1, 2)), ("c", Fraction(1, 2)))
        assert support(d) == frozenset({"a", "c"})
        assert d("c") == Fraction(1, 2) and d("b") == ZERO
        assert repr(d) == ("Distribution(carrier=FinSet(['a', 'b', 'c']), "
                           "weights=(('a', Fraction(1, 2)), ('c', Fraction(1, 2))))")

    def test_bind_rows_are_positional(self):
        src, cod = FinSet(["y", "x"]), FinSet([(1, 2), (0, 5), (1, -1)])
        # x -> (0, 5) or (1, 2); y -> (1, -1)
        images = {"x": Distribution(cod, (((1, 2), Fraction(1, 2)), ((0, 5), Fraction(1, 2)))),
                  "y": Distribution.point(cod, (1, -1))}
        start = Distribution(src, (("x", Fraction(1, 3)), ("y", Fraction(2, 3))))
        got = start.bind(images.__getitem__, cod)
        assert got.kernel() == ((0, 1, 2), (1, 4, 1), 6)
        assert got.weights == (((0, 5), Fraction(1, 6)), ((1, -1), Fraction(2, 3)),
                               ((1, 2), Fraction(1, 6)))

    @pytest.mark.parametrize("carrier", CARRIERS)
    def test_probe_and_draw_rows_depend_only_on_the_size(self, carrier):
        from finsem.monads import FiniteMeasure

        numbered = FinSet(range(len(carrier)))
        for cls in (Distribution, FiniteMeasure):
            assert ([d.kernel() for d in iter_distributions(carrier, 4, cls)]
                    == [d.kernel() for d in iter_distributions(numbered, 4, cls)])
        rng, twin = random.Random(9), random.Random(9)
        for _ in range(50):
            assert (random_distribution(carrier, rng, 6).kernel()
                    == random_distribution(numbered, twin, 6).kernel())

    def test_bind_rows_takes_no_key(self):
        import inspect

        assert list(inspect.signature(bind_rows).parameters) == [
            "nums", "den", "images", "error"]
        with pytest.raises(TypeError):
            bind_rows((1, 1), 2, [((1,), (1,), 1), ((0,), (1,), 1)], NotNormalized, None)
        assert bind_rows((1, 1), 2, [((1,), (1,), 1), ((0,), (1,), 1)]) == ((0, 1), (1, 1), 2)

    def test_pickled_hash_does_not_depend_on_the_hash_seed(self):
        # a weighting caches its hash, and pickle keeps the cache: a row over
        # str atoms would carry one seed's hash into a process with another
        import os
        import subprocess
        import sys
        from pathlib import Path

        import finsem

        build = ("from fractions import Fraction\n"
                 "from finsem.kernel import Distribution, FinSet\n"
                 "from finsem.monads import FiniteMeasure\n"
                 "ts = [cls(FinSet(['a', 'b']), (('a', Fraction(1, 3)), ('b', Fraction(2, 3))))"
                 " for cls in (Distribution, FiniteMeasure)]\n")
        dump = build + ("import pickle, sys\n[hash(t) for t in ts]\n"
                        "sys.stdout.write(pickle.dumps(ts).hex())\n")
        load = build + ("import pickle, sys\n"
                        "old = pickle.loads(bytes.fromhex(sys.stdin.read()))\n"
                        "print([(o == t, hash(o) == hash(t), o in {t}) for o, t in zip(old, ts)])\n")
        src = str(Path(finsem.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

        def run(script, seed, stdin=""):
            return subprocess.run([sys.executable, "-c", script], input=stdin, check=True,
                                  env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
                                  capture_output=True, text=True, timeout=60).stdout

        assert run(load, "2", run(dump, "1")) == "[(True, True, True), (True, True, True)]\n"
