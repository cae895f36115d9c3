import random
from fractions import Fraction

import pytest

from finsem.effects import (
    ONE,
    ZERO,
    Distribution,
    FuzzyPredicate,
    dist_bind,
    dist_make,
    iter_distributions,
    random_distribution,
)
from finsem.errors import LensViolation, StructureNotPreserved, TooLarge, UnknownElement
from finsem.monads import (
    DOWNSET,
    FILTER,
    GIRY,
    HOARE,
    MONOTONE_NEIGHBOURHOOD,
    PLOTKIN,
    SMYTH,
    FilterOf,
    LensPair,
    all_lens_pairs,
    boolean_algebra_maps_to_two,
    cba_collapse_check,
    complete_ba_maps_to_two,
    distribution_to_measure,
    downset_monad,
    expectation_bind,
    expectation_embed,
    expectation_unit,
    filter_monad,
    giry_finite,
    hoare_monad,
    measure_of_functional,
    monotone_neighbourhood,
    neighbourhood,
    plotkin_monad,
    smyth_monad,
    ultrafilter_monad,
)
from finsem.order import (
    FinSet,
    all_posets,
    antichain,
    chain,
    filter_violation,
    make_poset,
    powerset_lattice,
    upsets,
)
from test_effects import support


class TestNeighbourhoodFamily:
    def test_double_powerset_size(self):
        assert neighbourhood(FinSet([0, 1])).cardinality() == 16

    def test_unit_on_singleton(self):
        x = FinSet(["x"])
        inst = neighbourhood(x)
        assert inst.unit("x") == frozenset({frozenset({"x"})})

    def test_cap(self):
        with pytest.raises(TooLarge):
            neighbourhood(FinSet(range(4)))

    def test_monotone_neighbourhood_counts(self):
        assert monotone_neighbourhood(FinSet([0, 1])).cardinality() == 6
        assert monotone_neighbourhood(FinSet([0])).cardinality() == 3

    def test_unit_is_an_upset_family(self):
        inst = monotone_neighbourhood(FinSet([0, 1]))
        assert inst.contains(inst.unit(0))


class TestFilterFamily:
    def test_four_filters_all_principal(self):
        x = FinSet([0, 1])
        inst = filter_monad(x)
        elements = inst.elements()
        assert len(elements) == 4
        for fam in elements:
            least = frozenset.intersection(*fam)
            assert fam == frozenset(s for s in x.subsets() if least <= s)

    def test_principality_up_to_three(self):
        for n in range(1, 4):
            x = FinSet(range(n))
            for fam in filter_monad(x).elements():
                least = frozenset.intersection(*fam)
                assert fam == frozenset(s for s in x.subsets() if least <= s)

    def test_unit_is_principal_at_singleton(self):
        x = FinSet([0, 1])
        inst = filter_monad(x)
        assert inst.unit(0) == frozenset(s for s in x.subsets() if 0 in s)


@pytest.mark.parametrize("n", range(4))
def test_filter_families_are_the_filters_of_the_powerset_lattice(n):
    obj = FinSet(range(n))
    lattice = powerset_lattice(obj)
    upsets_ = MONOTONE_NEIGHBOURHOOD.elements(obj)
    assert len(set(upsets_)) == len(upsets_)
    assert set(upsets_) == set(lattice.iter_upsets())
    # a filter of a finite lattice is the principal filter of its meet
    filters = FILTER.elements(obj)
    assert len(set(filters)) == len(filters)
    assert set(filters) == {lattice.up_set(a) for a in lattice}


class TestUltrafilterFamily:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_collapse(self, n):
        x = FinSet(range(n))
        ultra = ultrafilter_monad(x).elements()
        ba = boolean_algebra_maps_to_two(x)
        assert len(ultra) == len(ba) == n
        units = {ultrafilter_monad(x).unit(a) for a in x}
        assert set(ultra) == units == set(ba)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cba_collapse(self, n):
        report = cba_collapse_check(FinSet(range(n)))
        assert report.ok
        assert report.checked == n

    def test_complete_ba_maps_match_units(self):
        x = FinSet(range(2))
        maps = complete_ba_maps_to_two(x)
        inst = neighbourhood(x)
        assert set(maps) == {inst.unit(a) for a in x}


class TestDownsetAndHoare:
    def test_unit_is_down_closure(self):
        p = chain("ab")
        inst = hoare_monad(p)
        assert inst.unit("a") == frozenset("a")
        assert inst.unit("b") == frozenset("ab")

    def test_multiplication_is_union(self):
        from finsem.triangle import multiplication

        p = chain("ab")
        mu = multiplication(DOWNSET, p)
        for theta, flat in mu.items():
            expect = frozenset().union(*theta) if theta else frozenset()
            assert flat == expect

    def test_hoare_cardinalities(self):
        assert hoare_monad(chain("ab")).cardinality() == 2
        assert hoare_monad(antichain("ab")).cardinality() == 3

    def test_downset_instance_keeps_the_empty_downset(self):
        inst = downset_monad(chain("ab"))
        assert inst.family is DOWNSET
        assert inst.elements() == (frozenset(), frozenset("a"), frozenset("ab"))
        assert inst.unit("b") == frozenset("ab")
        assert inst.contains(frozenset()) and not inst.contains(frozenset("b"))
        with pytest.raises(TooLarge) as info:
            downset_monad(antichain(range(DOWNSET.cap + 1)))
        assert str(info.value) == f"downset is capped at objects of size {DOWNSET.cap}"

    def test_hoare_algebra_join_witness(self):
        # every valid algebra turns the structure map into a binary join
        from finsem.triangle import EMAlgebraCandidate, check_em_algebra

        lattice = upsets(chain("ab"))  # a 3-chain, so a lattice
        elements = HOARE.elements(lattice)
        alpha = {d: lattice.bigjoin(d) for d in elements}
        cand = EMAlgebraCandidate.from_dict(HOARE, lattice, alpha)
        assert check_em_algebra(cand).ok
        for x in lattice:
            for y in lattice:
                joined = alpha[frozenset(lattice.down_set(x) | lattice.down_set(y))]
                assert joined == lattice.join(x, y)


# -- the Smyth double representation: nonempty upsets against proper open filters


def smyth_filter_of_upset(p, k):
    """The open filter holding exactly the opens that contain the saturated set."""
    return FilterOf(upsets(p), frozenset(u for u in upsets(p).elements if k <= u))


def smyth_upset_of_filter(f):
    """Intersection of a proper Scott-open filter's members."""
    return frozenset.intersection(*f.members) if f.members else frozenset()


def smyth_representations(p):
    """Pair the nonempty upsets with the proper open filters (on a finite lattice
    every filter is Scott open) and verify the bijection."""
    lattice = upsets(p)
    filters = {FilterOf(lattice, fam) for fam in lattice.carrier.subsets()
               if len(fam) < len(lattice) and filter_violation(lattice, fam) is None}
    pairing = {k: smyth_filter_of_upset(p, k) for k in SMYTH.elements(p)}
    if any(smyth_upset_of_filter(f) != k for k, f in pairing.items()):
        raise StructureNotPreserved("filter round trip lost the saturated set")
    if set(pairing.values()) != filters or len(filters) != len(pairing):
        raise StructureNotPreserved("upset/filter correspondence is not bijective")
    return pairing


def proper(f):
    """Whether the filter f leaves out some element of its lattice."""
    return len(f.members) < len(f.ambient)


class TestSmyth:
    def test_two_chain_double_representation(self):
        p = chain("ab")
        pairing = smyth_representations(p)
        assert len(pairing) == 2
        for k, f in pairing.items():
            assert proper(f)
            assert smyth_upset_of_filter(f) == k

    def test_unit_matches_principal_filter(self):
        p = chain("ab")
        inst = smyth_monad(p)
        k = inst.unit("a")
        assert k == frozenset("ab")
        f = smyth_filter_of_upset(p, k)
        assert f.members == frozenset({frozenset("ab")})

    def test_antichain_count(self):
        assert smyth_monad(antichain("ab")).cardinality() == 3

    @pytest.mark.parametrize("p", [p for p in all_posets(3) if len(p) >= 1], ids=repr)
    def test_bijection_commutes_with_unit_and_bind(self, p):
        from finsem.triangle import bind_apply, iter_kleisli_arrows

        pairing = smyth_representations(p)
        # unit
        for x in p:
            assert pairing[SMYTH.unit(p, x)].members == frozenset(
                u for u in upsets(p).elements if SMYTH.unit(p, x) <= u
            )
        # bind commutes: the filter of the bind is the bind computed filter-wise
        arrows = iter_kleisli_arrows(SMYTH, p, p, budget=4000)
        for arrow in arrows[:40]:
            for k in SMYTH.elements(p):
                out = bind_apply(arrow, k)
                # filter-side extension: opens whose preimage-open contains k
                filt = frozenset(
                    v for v in upsets(p).elements
                    if k <= frozenset(x for x in p if arrow(x) <= v)
                )
                assert pairing[out].members == filt

    def test_filter_of_validates(self):
        lattice = upsets(chain("ab"))
        with pytest.raises(StructureNotPreserved):
            FilterOf(lattice, frozenset({frozenset()}))


class TestPlotkin:
    def test_single_point(self):
        assert plotkin_monad(make_poset("a")).cardinality() == 1

    def test_two_chain_predicate_side_counts(self):
        p = chain("ab")
        maps = len(
            __import__("finsem.order", fromlist=["enumerate_structure_maps"])
            .enumerate_structure_maps(p, chain((0, 1, 2)), "monotone")
        )
        assert maps == 6 == len(all_lens_pairs(p))

    def test_unit_is_principal_pair(self):
        p = chain("ab")
        inst = plotkin_monad(p)
        assert inst.unit("a") == (frozenset("a"), frozenset("ab"))

    @pytest.mark.parametrize("p", [q for q in all_posets(4) if len(q) >= 1], ids=repr)
    def test_observed_compatibility_characterization(self, p):
        # the pointwise dominance condition, walked over every open u: c meets
        # every open that contains k; the monad tests only whether c meets k
        def dominates(c, k):
            return all(c & u for u in p.iter_upsets() if k <= u)

        downs = [d for d in p.iter_downsets() if d]
        ups = [u for u in p.iter_upsets() if u]
        pairs = [(c, k) for c in downs for k in ups]
        assert PLOTKIN.elements(p) == tuple(t for t in pairs if dominates(*t))
        for c, k in pairs:
            assert PLOTKIN.contains(p, (c, k)) == dominates(c, k) == bool(c & k)

    @pytest.mark.parametrize("t", [(frozenset("z"), frozenset("z")),
                                   (frozenset("a"), frozenset("bz")),
                                   (frozenset("az"), frozenset("b"))],
                             ids=["both", "upper", "lower"])
    def test_halves_off_the_carrier_are_not_elements(self, t):
        from finsem.errors import UnknownElement
        from finsem.triangle import KleisliArrow

        p = chain("ab")
        assert PLOTKIN.contains(p, t) is False
        with pytest.raises(UnknownElement, match="is not a plotkin element"):
            KleisliArrow.from_dict(PLOTKIN, p, p, {"a": t, "b": PLOTKIN.unit(p, "b")})

    def test_lens_pair_validation(self):
        p = chain("ab")
        LensPair(p, frozenset("ab"), frozenset("b"))
        with pytest.raises(LensViolation):
            LensPair(p, frozenset("b"), frozenset("ab"))
        with pytest.raises(LensViolation):
            LensPair(p, frozenset("a"), frozenset())  # not an upset


class TestGiryFinite:
    def test_indicator_integral(self):
        ab = FinSet(["a", "b"])
        phi = distribution_to_measure(
            dist_make(ab, {"a": Fraction(1, 3), "b": Fraction(2, 3)})
        )
        i = expectation_embed(phi)
        assert i(FuzzyPredicate.indicator(ab, {"a"})) == Fraction(1, 3)

    def test_constant_integrates_to_itself(self):
        ab = FinSet(["a", "b"])
        phi = distribution_to_measure(
            dist_make(ab, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
        )
        c = Fraction(3, 7)
        assert expectation_embed(phi)(FuzzyPredicate.constant(ab, c)) == c

    def test_round_trips_on_probes(self):
        atoms = FinSet(range(3))
        for d in iter_distributions(atoms, 6):
            phi = distribution_to_measure(d)
            i = expectation_embed(phi)
            assert measure_of_functional(i, atoms) == phi
            again = expectation_embed(measure_of_functional(i, atoms))
            for probe in iter_distributions(atoms, 3):
                pred = FuzzyPredicate.from_dict(atoms, probe.as_dict() | {
                    a: ZERO for a in atoms if a not in support(probe)})
                assert again(pred) == i(pred)
            assert Distribution(phi.atoms, phi.weights) == d

    def test_measure_additivity(self):
        atoms = FinSet(range(3))
        phi = distribution_to_measure(
            dist_make(atoms, {0: Fraction(1, 6), 1: Fraction(1, 3), 2: Fraction(1, 2)})
        )
        assert phi(frozenset({0, 1})) == Fraction(1, 2)
        assert phi(frozenset(range(3))) == ONE


class TestExpectationEmbedding:
    def test_unit_preservation(self):
        xs = FinSet(range(3))
        for x in xs:
            sigma = expectation_embed(Distribution.point(xs, x))
            eta = expectation_unit(xs, x)
            for probe in iter_distributions(xs, 3):
                pred = FuzzyPredicate.from_dict(xs, probe.as_dict() | {
                    a: ZERO for a in xs if a not in support(probe)})
                assert sigma(pred) == eta(pred) == pred(x)

    def test_normalization(self):
        xs = FinSet(range(3))
        omega = dist_make(xs, {0: Fraction(1, 2), 1: Fraction(1, 2)})
        assert expectation_embed(omega)(FuzzyPredicate.constant(xs, ONE)) == ONE

    def test_bind_preservation_random(self):
        rng = random.Random(5)
        xs = FinSet(range(3))
        for _ in range(60):
            omega = random_distribution(xs, rng)
            kernel = {x: random_distribution(xs, rng) for x in xs}
            sigma_after = expectation_embed(dist_bind(lambda x: kernel[x], omega))
            bound = expectation_bind(
                xs, lambda x: expectation_embed(kernel[x]), expectation_embed(omega)
            )
            assert sigma_after.indicator_table() == bound.indicator_table()

    def test_injective_on_indicators(self):
        xs = FinSet(range(3))
        seen = {}
        for omega in iter_distributions(xs, 3):
            table = expectation_embed(omega).indicator_table()
            assert table == tuple(omega(a) for a in xs)
            assert table not in seen
            seen[table] = omega


def test_giry_instance_binds_a_finite_set_and_enumerates_nothing():
    x = FinSet(["a", "b"])
    inst = giry_finite(x)
    assert (inst.family, inst.obj) == (GIRY, x)
    assert inst.unit("a").weights == (("a", ONE),)
    assert inst.contains(inst.unit("b"))
    with pytest.raises(TooLarge) as info:
        inst.cardinality()
    assert str(info.value) == "giry does not enumerate its structure space"
    with pytest.raises(UnknownElement) as info:
        giry_finite(chain("ab"))
    assert str(info.value) == "giry acts on FinSet objects, got FinPoset"
