import copy
import itertools
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest

import finsem.order
from finsem.effects import FuzzyPredicate, dist_make, random_distribution
from finsem.errors import (
    Incomparable,
    NotJoinPreserving,
    NotMeetPreserving,
    SideConditionViolated,
    StructureNotPreserved,
    TooLarge,
    UnknownElement,
)
from finsem.kernel import atom_repr
from finsem.monads import DIST, DOWNSET, HOARE, POWERSET, SMYTH, LensPair
from finsem.order import (
    TWO,
    FinSet,
    MonotoneMap,
    PlotkinAlgebra,
    all_posets,
    antichain,
    chain,
    enumerate_structure_maps,
    has_structure,
    powerset_lattice,
    upsets,
)
from finsem.transformers import (
    BOT3,
    BOX,
    DIAMOND,
    FILTER_CORR,
    HOARE_CORR,
    MID3,
    MONOTONE_NBHD,
    OMEGA,
    PLOTKIN_HOM,
    RECIPES,
    REGISTRY,
    SMYTH_CORR,
    THREE,
    THREE_CORR,
    TOP3,
    _holding,
    _mismatches,
    _outside_failing,
    backward,
    columns,
    comparison_column,
    predicate_lattice,
    expectation_computation,
    expectation_pred,
    forward,
    plotkin_hom_forward,
    round_trip_report,
    three_forward,
    expectation_round_trip,
    transpose,
)
from finsem.triangle import (
    EMAlgebraCandidate,
    KleisliArrow,
    check_em_algebra,
    iter_kleisli_arrows,
)
from test_order import bigmeet
from test_triangle import replaced, unit_arrow

X2 = FinSet(["x1", "x2"])
Y2 = FinSet(["y1", "y2"])

SMALL_POSETS = tuple(p for p in all_posets(3) if len(p) >= 1)
SMALL_SETS = tuple(FinSet(range(n)) for n in range(3))


# -- oracles: two adjunctions built from transpose and columns


def box_general_transformer(g, lattice, points):
    """Forward transpose against an arbitrary finite-lattice predicate domain:
    a point's column is the up-cone of its assigned value."""
    m = transpose(lattice, powerset_lattice(points), points,
                  [tuple(lattice.leq(g[x], a) for a in lattice.elements) for x in points])
    assert has_structure(m, "meet-preserving")
    return m


def box_general_computation(m):
    """Backward: each point goes to the meet of everything whose image holds it."""
    assert has_structure(m, "meet-preserving")
    points = FinSet(m.cod.top())
    return {x: bigmeet(m.dom, itertools.compress(m.dom.elements, column))
            for x, column in zip(points, columns(m, points))}


def monotone_nbhd_forward(g, poset, points):
    """A function into upsets of a poset becomes a monotone map from the poset
    into the powerset of the points."""
    assert all(poset.is_upset(g[x]) for x in points)
    return transpose(poset, powerset_lattice(points), points,
                     [tuple(q in g[x] for q in poset.elements) for x in points])


def monotone_nbhd_backward(m, points):
    """Inverse direction; upset-ness of each image is verified."""
    out = {x: _holding(m.dom, column) for x, column in zip(points, columns(m, points))}
    assert all(map(m.dom.is_upset, out.values()))
    return out


def assert_oracle_is_the_recipe(corr, oracle_forward, oracle_backward):
    """Over powerset_lattice(Y), the oracle pair is corr's forward and backward
    on every arrow between sets of 0-2 points."""
    for xs, ys in itertools.product(SMALL_SETS, repeat=2):
        for g in corr.iter_computations(xs, ys, 10 ** 6):
            images = dict(zip(xs.elements, g.graph))
            m = corr.forward(g, xs, ys)
            assert oracle_forward(images, powerset_lattice(ys), xs) == m
            assert oracle_backward(m, xs) == images and corr.backward(m, xs, ys) == g


class TestBox:
    def test_formula_example(self):
        g = KleisliArrow.from_dict(POWERSET, X2, Y2, {
            "x1": frozenset({"y1"}), "x2": frozenset({"y1", "y2"})})
        m = BOX.forward(g, g.dom, g.cod)
        assert m(frozenset({"y1"})) == frozenset({"x1"})

    def test_unit_is_identity_transformer(self):
        eta = unit_arrow(POWERSET, X2)
        m = BOX.forward(eta, eta.dom, eta.cod)
        for a in powerset_lattice(X2).elements:
            assert m(a) == a

    def test_round_trip_two_two(self):
        report = round_trip_report(BOX, X2, Y2)
        assert report.ok and report.checked == 32

    def test_backward_rejects_non_meet_preserving(self):
        py, px = powerset_lattice(Y2), powerset_lattice(X2)
        bad = MonotoneMap.from_callable(py, px, lambda a: frozenset())
        with pytest.raises(NotMeetPreserving):
            BOX.backward(bad, X2, Y2)

    @pytest.mark.parametrize("nx,ny", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)])
    def test_box_diamond_de_morgan_duality(self, nx, ny):
        xs, ys = FinSet(range(nx)), FinSet(range(ny))
        full = ys.as_frozenset()
        for g in BOX.iter_computations(xs, ys, 10 ** 6):
            box = BOX.forward(g, g.dom, g.cod)
            for a in powerset_lattice(ys).elements:
                angelic = frozenset(x for x in xs if g(x) & (full - a))
                assert box(a) == xs.as_frozenset() - angelic


class TestGeneralLatticeBox:
    def test_round_trips_against_non_powerset_lattice(self):
        lattice = upsets(chain("abc"))  # a 4-chain, not a powerset
        points = X2
        for images in itertools.product(lattice.elements, repeat=len(points)):
            g = dict(zip(points.elements, images))
            m = box_general_transformer(g, lattice, points)
            assert box_general_computation(m) == g
        for m in enumerate_structure_maps(
            lattice, powerset_lattice(points), "meet-preserving"
        ):
            g = box_general_computation(m)
            assert box_general_transformer(g, lattice, points) == m
        assert_oracle_is_the_recipe(BOX, box_general_transformer,
                                    lambda m, points: box_general_computation(m))


class TestFilterCorrespondence:
    def test_round_trip(self):
        assert round_trip_report(FILTER_CORR, X2, Y2).ok


class TestMonotoneNeighbourhood:
    def test_general_poset_round_trip(self):
        q = chain("ab")  # predicate-side poset
        points = X2
        ups = [u for u in q.iter_upsets()]
        for images in itertools.product(ups, repeat=len(points)):
            g = dict(zip(points.elements, images))
            m = monotone_nbhd_forward(g, q, points)
            assert monotone_nbhd_backward(m, points) == g
        for m in enumerate_structure_maps(q, powerset_lattice(points), "monotone"):
            g = monotone_nbhd_backward(m, points)
            again = monotone_nbhd_forward(g, q, points)
            assert again == m
        assert_oracle_is_the_recipe(MONOTONE_NBHD, monotone_nbhd_forward, monotone_nbhd_backward)

    def test_monad_level_round_trip(self):
        assert round_trip_report(MONOTONE_NBHD, X2, Y2).ok

    def test_singleton_cases(self):
        one = FinSet(["p"])
        assert round_trip_report(MONOTONE_NBHD, one, one).ok


class TestDiamond:
    def test_unit_formula(self):
        p = chain("ab")
        eta = unit_arrow(DOWNSET, p)
        m = DIAMOND.forward(eta, eta.dom, eta.cod)
        for v in upsets(p).elements:
            assert m(v) == frozenset(x for x in p if p.down_set(x) & v)

    def test_identity_transformer_gives_unit(self):
        p = chain("ab")
        up = upsets(p)
        ident = MonotoneMap.from_callable(up, up, lambda v: v)
        arrow = DIAMOND.backward(ident, p, p)
        assert arrow.graph == unit_arrow(DOWNSET, p).graph

    @pytest.mark.parametrize("p", SMALL_POSETS, ids=repr)
    @pytest.mark.parametrize("q", SMALL_POSETS, ids=repr)
    def test_round_trips_up_to_three(self, p, q):
        assert round_trip_report(DIAMOND, p, q).ok

    def test_rejects_non_join_preserving(self):
        p = chain("ab")
        up = upsets(p)
        bad = MonotoneMap.from_callable(up, up, lambda v: up.top())
        with pytest.raises(NotJoinPreserving):
            DIAMOND.backward(bad, p, p)


class TestHoareSmyth:
    def test_hoare_unit_formula(self):
        p = chain("ab")
        eta = unit_arrow(HOARE, p)
        m = HOARE_CORR.forward(eta, eta.dom, eta.cod)
        for v in upsets(p).elements:
            assert m(v) == frozenset(x for x in p if v & p.down_set(x))

    def test_hoare_constant_whole_poset(self):
        p = chain("ab")
        whole = p.carrier.as_frozenset()
        g = KleisliArrow.from_callable(HOARE, p, p, lambda x: whole)
        m = HOARE_CORR.forward(g, g.dom, g.cod)
        for v in upsets(p).elements:
            assert m(v) == (whole if v else frozenset())

    def test_smyth_unit_formula(self):
        p = chain("ab")
        eta = unit_arrow(SMYTH, p)
        m = SMYTH_CORR.forward(eta, eta.dom, eta.cod)
        for v in upsets(p).elements:
            assert m(v) == frozenset(x for x in p if p.up_set(x) <= v)

    def test_smyth_preserves_whole_space(self):
        p = antichain("ab")
        g = KleisliArrow.from_callable(SMYTH, p, p, lambda x: p.up_set(x))
        m = SMYTH_CORR.forward(g, g.dom, g.cod)
        assert m(p.carrier.as_frozenset()) == p.carrier.as_frozenset()

    @pytest.mark.parametrize("corr", [HOARE_CORR, SMYTH_CORR], ids=lambda c: c.id)
    @pytest.mark.parametrize("p", SMALL_POSETS, ids=repr)
    @pytest.mark.parametrize("q", SMALL_POSETS, ids=repr)
    def test_round_trips_up_to_three(self, corr, p, q):
        assert round_trip_report(corr, p, q).ok

    def test_filter_representation_agrees(self):
        from finsem.triangle import iter_kleisli_arrows

        p = chain("ab")
        for arrow in iter_kleisli_arrows(SMYTH, p, p, budget=1000):
            m = SMYTH_CORR.forward(arrow, arrow.dom, arrow.cod)
            for v in upsets(p).elements:
                assert m(v) == smyth_filter_pred(arrow, v)


def smyth_filter_pred(arrow, v):
    """SMYTH_CORR's transformer phrased through the open-filter representation."""
    from test_monads import smyth_filter_of_upset

    return frozenset(x for x, t in zip(arrow.dom.carrier.elements, arrow.graph)
                     if v in smyth_filter_of_upset(arrow.cod, t).members)


# The erratic sum on 3, which is the Plotkin algebra over 2: its elements
# (0, 0), (1, 0) and (1, 1) sit at BOT3, MID3 and TOP3.
AMALG3 = {(a, b): s for a, row in enumerate(PlotkinAlgebra.over(TWO).sums)
          for b, s in enumerate(row)}


def lens_amalg(a, b):
    """The erratic sum of two lens pairs on one poset: outer union, inner meet."""
    return LensPair(a.base, a.outer | b.outer, a.inner & b.inner)


def three_amalg_pointwise(m1, m2):
    """The erratic sum of two three-valued maps on one poset, computed pointwise."""
    return MonotoneMap.from_callable(m1.dom, THREE, lambda x: AMALG3[(m1(x), m2(x))])


class TestThree:
    def test_constant_values(self):
        p = chain("ab")
        whole = p.carrier.as_frozenset()
        mid = MonotoneMap.from_callable(p, THREE, lambda x: MID3)
        assert three_forward(mid) == LensPair(p, whole, frozenset())
        top = MonotoneMap.from_callable(p, THREE, lambda x: TOP3)
        assert three_forward(top) == LensPair(p, whole, whole)
        bot = MonotoneMap.from_callable(p, THREE, lambda x: BOT3)
        assert three_forward(bot) == LensPair(p, frozenset(), frozenset())

    def test_two_chain_counts(self):
        p = chain("ab")
        maps = enumerate_structure_maps(p, THREE, "monotone")
        lens = THREE_CORR.iter_transformers(p, None, 10 ** 6)
        assert len(maps) == 6 == len(tuple(lens))

    @pytest.mark.parametrize("p", [q for q in all_posets(4) if len(q) >= 1], ids=repr)
    def test_round_trips_up_to_four(self, p):
        assert round_trip_report(THREE_CORR, p, None).ok

    @pytest.mark.parametrize("p", SMALL_POSETS, ids=repr)
    def test_amalg_preserved(self, p):
        maps = enumerate_structure_maps(p, THREE, "monotone")
        for m1 in maps:
            for m2 in maps:
                lhs = three_forward(three_amalg_pointwise(m1, m2))
                rhs = lens_amalg(three_forward(m1), three_forward(m2))
                assert lhs == rhs

    def test_amalg_table_is_the_erratic_sum(self):
        # AMALG3 is read off the Plotkin algebra over 2; it must be the erratic
        # sum on 3: equal arguments are kept, any disagreement gives MID3
        assert AMALG3 == {
            (a, b): (BOT3 if a == b == BOT3 else TOP3 if a == b == TOP3 else MID3)
            for a in (BOT3, MID3, TOP3)
            for b in (BOT3, MID3, TOP3)
        }

    def test_mix_constant_maps_to_full_empty_pair(self):
        # the erratic constant corresponds to (everything, nothing)
        p = antichain("ab")
        mid = MonotoneMap.from_callable(p, THREE, lambda x: MID3)
        lens = three_forward(mid)
        assert lens.outer == p.carrier.as_frozenset() and lens.inner == frozenset()


FRAME_BASES = tuple(p for p in all_posets(2))


class TestPlotkinHom:
    def test_identity_splits_into_identities(self):
        alg = PlotkinAlgebra.over(upsets(chain("ab")))
        ident = MonotoneMap.from_callable(alg.poset, alg.poset, lambda t: t)
        g1, g2 = plotkin_hom_forward(ident, alg, alg)
        for x in alg.frame:
            assert g1(x) == x and g2(x) == x

    @pytest.mark.parametrize("p", FRAME_BASES, ids=repr)
    @pytest.mark.parametrize("q", FRAME_BASES, ids=repr)
    def test_round_trips_frames_of_two_point_posets(self, p, q):
        assert round_trip_report(PLOTKIN_HOM, p, q).ok

    @pytest.mark.parametrize("p", all_posets(2), ids=repr)
    @pytest.mark.parametrize("q", all_posets(2), ids=repr)
    def test_enumeration_lists_exactly_the_maps_forward_accepts(self, p, q):
        from finsem.order import _monotone_vectors

        dom_alg, cod_alg = PlotkinAlgebra.over(upsets(p)), PlotkinAlgebra.over(upsets(q))
        accepted, elems = set(), cod_alg.poset.elements
        # every monotone map between the two pair posets, which can exceed the
        # substrate cap enumerate_structure_maps keeps for "monotone"
        for v in _monotone_vectors(dom_alg.poset, cod_alg.poset, dom_alg.poset.elements):
            m = MonotoneMap(dom_alg.poset, cod_alg.poset, tuple(map(elems.__getitem__, v)))
            try:
                plotkin_hom_forward(m, dom_alg, cod_alg)
            except (StructureNotPreserved, Incomparable):
                continue
            accepted.add(m)
        listed = enumerate_structure_maps(dom_alg, cod_alg, "plotkin-hom")
        assert len(set(listed)) == len(listed)
        assert set(listed) == accepted

    def test_backward_requires_dominance(self):
        alg = PlotkinAlgebra.over(upsets(chain("ab")))
        frame = alg.frame
        g1 = MonotoneMap.from_callable(frame, frame, lambda x: frame.bottom()
                                       if x != frame.top() else frame.top())
        g2 = MonotoneMap.from_callable(frame, frame, lambda x: x)
        # g1 fails to dominate g2 somewhere
        from finsem.transformers import plotkin_hom_backward

        with pytest.raises((Incomparable, StructureNotPreserved)):
            plotkin_hom_backward(g1, g2, alg, alg)


class TestExpectation:
    def test_half_indicator(self):
        f = KleisliArrow.from_dict(DIST, X2, Y2, {
            "x1": dist_make(Y2, {"y1": Fraction(1, 2), "y2": Fraction(1, 2)}),
            "x2": dist_make(Y2, {"y1": Fraction(1, 2), "y2": Fraction(1, 2)}),
        })
        q = FuzzyPredicate.indicator(Y2, {"y1"})
        assert expectation_pred(f)(q)("x1") == Fraction(1, 2)

    def test_unit_is_substitution(self):
        eta = unit_arrow(DIST, X2)
        t = expectation_pred(eta)
        q = FuzzyPredicate.from_dict(X2, {"x1": Fraction(1, 3), "x2": Fraction(2, 3)})
        assert t(q) == q

    def test_compositionality_random(self):
        rng = random.Random(11)
        xs = FinSet(range(3))
        for _ in range(40):
            f = KleisliArrow.from_dict(DIST, xs, xs,
                                       {x: random_distribution(xs, rng) for x in xs})
            g = KleisliArrow.from_dict(DIST, xs, xs,
                                       {x: random_distribution(xs, rng) for x in xs})
            from finsem.triangle import kleisli_compose

            q = FuzzyPredicate.from_dict(
                xs, {x: random_distribution(xs, rng)(0) for x in xs})
            via_composite = expectation_pred(kleisli_compose(g, f))(q)
            via_stages = expectation_pred(f)(expectation_pred(g)(q))
            assert via_composite == via_stages

    def test_structure_preservation(self):
        rng = random.Random(23)
        f = KleisliArrow.from_dict(DIST, X2, Y2, {
            "x1": random_distribution(Y2, rng), "x2": random_distribution(Y2, rng)})
        t = expectation_pred(f)
        q1 = FuzzyPredicate.from_dict(Y2, {"y1": Fraction(1, 4), "y2": Fraction(1, 2)})
        q2 = FuzzyPredicate.from_dict(Y2, {"y1": Fraction(1, 4), "y2": Fraction(1, 3)})
        from finsem.effects import pred_orth, pred_ovee, pred_scalar

        total = pred_ovee(q1, q2)
        assert total is not None
        assert t(total) == pred_ovee(t(q1), t(q2))
        assert t(pred_orth(q1)) == pred_orth(t(q1))
        assert t(pred_scalar(Fraction(2, 5), q1)) == pred_scalar(Fraction(2, 5), t(q1))

    def test_linearity_over_convex_combinations(self):
        # mixing two kernels pointwise mixes their transformers
        rng = random.Random(3)
        r = Fraction(1, 3)
        k1 = {x: random_distribution(Y2, rng) for x in X2}
        k2 = {x: random_distribution(Y2, rng) for x in X2}
        mixed = {}
        for x in X2:
            weights = {
                y: r * k1[x](y) + (1 - r) * k2[x](y) for y in Y2
            }
            mixed[x] = dist_make(Y2, weights)
        fm = KleisliArrow.from_dict(DIST, X2, Y2, mixed)
        f1 = KleisliArrow.from_dict(DIST, X2, Y2, k1)
        f2 = KleisliArrow.from_dict(DIST, X2, Y2, k2)
        q = FuzzyPredicate.from_dict(Y2, {"y1": Fraction(3, 4), "y2": Fraction(1, 8)})
        got = expectation_pred(fm)(q)
        for x in X2:
            assert got(x) == r * expectation_pred(f1)(q)(x) + (1 - r) * expectation_pred(f2)(q)(x)

    def test_seeded_round_trip(self):
        report = expectation_round_trip(X2, Y2, instances=100, seed=12)
        assert report.ok and report.checked == 100

    def test_backward_probes_each_indicator_once(self):
        ys = FinSet(["y1", "y2", "y3"])
        rng = random.Random(5)
        f = KleisliArrow.from_dict(DIST, X2, ys, {x: random_distribution(ys, rng) for x in X2})
        calls = []
        transform = expectation_pred(f)

        def counted(q):
            calls.append(q)
            return transform(q)

        assert expectation_computation(counted, X2, ys) == f
        assert len(calls) == len(ys)

    def test_backward_recovers_kernel(self):
        f = KleisliArrow.from_dict(DIST, X2, Y2, {
            "x1": dist_make(Y2, {"y1": Fraction(1, 4), "y2": Fraction(3, 4)}),
            "x2": dist_make(Y2, {"y1": Fraction(1, 1)}),
        })
        assert expectation_computation(expectation_pred(f), X2, Y2) == f


def test_registry_is_complete():
    assert set(REGISTRY) == {
        "box", "filter", "monotone-nbhd", "diamond", "hoare", "smyth",
        "three", "plotkin-hom", "expectation",
    }


# -- the recipe: alpha on 2 and the comparison tables ------------------------------------

# families whose T(T(2)) is over their cap, so the multiplication law is not built
OVER_CAP_ON_TT2 = {"filter", "monotone-nbhd"}


SETS_UP_TO_THREE = tuple(FinSet(range(n)) for n in range(4))


@pytest.mark.parametrize("recipe", RECIPES, ids=lambda r: r.id)
def test_alpha_is_an_algebra_on_two(recipe):
    family, omega = recipe.family, OMEGA[recipe.family.base]
    cand = EMAlgebraCandidate.from_dict(
        family, omega, {t: recipe.alpha(t) for t in family.elements(omega)})
    if recipe.id in OVER_CAP_ON_TT2:
        with pytest.raises(TooLarge):
            check_em_algebra(cand)
        assert all(recipe.alpha(family.unit(omega, i)) == i for i in omega)
    else:
        assert check_em_algebra(cand).ok


@pytest.mark.parametrize("recipe, obj", [
    pytest.param(r, obj, id=f"{r.id}-{obj!r}") for r in RECIPES
    for obj in (SMALL_POSETS if r.family.base == "poset" else SETS_UP_TO_THREE)
])
def test_comparison_table_is_injective(recipe, obj):
    predicates = predicate_lattice(recipe.family, obj)
    elements = recipe.family.elements(obj)
    columns = [comparison_column(recipe, obj, t) for t in elements]
    assert len(set(columns)) == len(elements)
    assert all(len(column) == len(predicates) for column in columns)
    # the recipe's reader inverts the table, which is what backward relies on
    assert all(recipe.read(predicates, column) == t for t, column in zip(elements, columns))


@pytest.mark.parametrize("recipe", RECIPES, ids=lambda r: r.id)
def test_transpose_and_columns_are_inverse(recipe):
    # columns reads back what transpose built, and transpose rebuilds every
    # monotone map between the predicate lattices from its columns
    from finsem.transformers import columns, transpose
    from finsem.triangle import iter_kleisli_arrows

    family = recipe.family
    objects = SMALL_POSETS[:3] if family.base == "poset" else SETS_UP_TO_THREE[:3]
    for x, y in itertools.product(objects, repeat=2):
        predicates, target = predicate_lattice(family, y), predicate_lattice(family, x)
        points = x.carrier.elements
        for m in enumerate_structure_maps(predicates, target, "monotone"):
            assert transpose(predicates, target, points, columns(m, points)) == m
        for arrow in iter_kleisli_arrows(family, x, y):
            cols = [comparison_column(recipe, y, t) for t in arrow.graph]
            assert columns(transpose(predicates, target, points, cols), points) == cols


@pytest.mark.parametrize("recipe", RECIPES, ids=lambda r: r.id)
def test_forward_walks_for_monotonicity_only_where_the_selector_does_not_imply_it(
        monkeypatch, recipe):
    # keeping binary joins or meets implies monotonicity, so only the
    # monotone-nbhd transpose goes through the pair walk
    import finsem.order
    from finsem.transformers import forward
    from finsem.triangle import iter_kleisli_arrows

    walked = []
    walk = finsem.order.monotone_violation
    monkeypatch.setattr(finsem.order, "monotone_violation",
                        lambda *args: walked.append(args) or walk(*args))
    family = recipe.family
    x, y = (SMALL_POSETS[1], SMALL_POSETS[2]) if family.base == "poset" else SETS_UP_TO_THREE[1:3]
    arrows = iter_kleisli_arrows(family, x, y)
    assert arrows
    walked.clear()  # the enumerator may walk; forward is what is counted
    images = [forward(recipe, arrow) for arrow in arrows]
    assert all(has_structure(m, recipe.selector) for m in images)
    assert bool(walked) == (recipe.selector == "monotone")


# -- the structure verdict a map remembers, for as long as the map lives


LATTICE_RECIPES = [r for r in RECIPES if r.selector != "monotone"]


def recipe_objects(recipe):
    return ((SMALL_POSETS[1], SMALL_POSETS[2]) if recipe.family.base == "poset"
            else SETS_UP_TO_THREE[1:3])


@pytest.fixture
def walks(monkeypatch):
    """The selector of each _keeps_vector walk, from here on."""
    walked = []
    keeps = finsem.order._keeps_vector
    monkeypatch.setattr(finsem.order, "_keeps_vector",
                        lambda *args: walked.append(args[3]) or keeps(*args))
    return walked


@pytest.mark.parametrize("recipe", LATTICE_RECIPES, ids=lambda r: r.id)
def test_a_round_trip_walks_each_transpose_once(walks, recipe):
    x, y = recipe_objects(recipe)
    arrows = iter_kleisli_arrows(recipe.family, x, y)
    assert arrows
    for arrow in arrows:
        walks.clear()
        assert backward(recipe, forward(recipe, arrow), x, y) == arrow
        assert walks == [recipe.selector]


@pytest.mark.parametrize("recipe", LATTICE_RECIPES, ids=lambda r: r.id)
def test_an_enumerated_transformer_is_not_walked_again(walks, recipe):
    x, y = recipe_objects(recipe)
    maps = enumerate_structure_maps(predicate_lattice(recipe.family, y),
                                    predicate_lattice(recipe.family, x), recipe.selector)
    assert maps and len(walks) >= len(maps)
    walks.clear()
    for m in maps:
        assert backward(recipe, m, x, y).cod == y
    assert walks == []


def test_a_failing_map_is_walked_on_every_call(walks):
    box = RECIPES[0]
    lattice = predicate_lattice(box.family, X2)
    m = MonotoneMap.from_callable(lattice, lattice, lambda v: frozenset())  # top not kept
    errors = []
    for _ in range(3):
        with pytest.raises(NotMeetPreserving) as info:
            backward(box, m, X2, X2)
        errors.append(str(info.value))
    assert errors == ["input transformer must be meet-preserving"] * 3
    assert walks == ["meet-preserving"] * 3
    assert m.kept == ()


@pytest.mark.parametrize("recipe", LATTICE_RECIPES, ids=lambda r: r.id)
def test_a_copy_of_a_verified_map_is_the_same_map_and_is_walked_again(walks, recipe):
    x, y = recipe_objects(recipe)
    m = forward(recipe, iter_kleisli_arrows(recipe.family, x, y)[-1])
    assert m.kept == (recipe.selector,)
    for twin in (copy.copy(m), pickle.loads(pickle.dumps(m))):
        assert twin == m and hash(twin) == hash(m) and repr(twin) == repr(m)
        assert twin.kept == ()
        walks.clear()
        assert has_structure(twin, recipe.selector) and has_structure(twin, recipe.selector)
        assert walks == [recipe.selector]


def test_backward_names_the_point_whose_column_no_element_has():
    # a box recipe reading columns as diamond does: it reads a subset of y,
    # which the comparison map then refuses at the second point
    box = RECIPES[0]
    a, b = frozenset("abc"), frozenset("def")
    g = KleisliArrow.from_dict(POWERSET, FinSet([a, b]), FinSet([0, 1]),
                               {a: frozenset({0}), b: frozenset()})
    with pytest.raises(SideConditionViolated) as info:
        backward(box._replace(read=_outside_failing), forward(box, g), g.dom, g.cod)
    assert str(info.value) == f"no powerset element has the column of {atom_repr(b)}"


def test_backward_refuses_a_read_element_outside_the_family():
    # a box recipe reading columns as filter does: it reads a set of
    # predicates, no subset of y, which has no comparison column at all
    box = RECIPES[0]
    a, b = frozenset("abc"), frozenset("def")
    g = KleisliArrow.from_dict(POWERSET, FinSet([a, b]), FinSet([0, 1]),
                               {a: frozenset({0}), b: frozenset()})
    with pytest.raises(SideConditionViolated) as info:
        backward(box._replace(read=_holding), forward(box, g), g.dom, g.cod)
    assert str(info.value) == f"no powerset element has the column of {atom_repr(a)}"


# -- round trips: one table of transposes per call ---------------------------------------


def reference_round_trip(corr, x, y, budget=300_000, sample=None, seed=0):
    """round_trip_report without tables: every composite recomputes both of
    its transposes, so an item can be transposed twice in one direction."""
    comps = list(corr.iter_computations(x, y, budget))
    trans = list(corr.iter_transformers(x, y, budget))
    mode = "exhaustive"
    if sample is not None:
        rng = random.Random(seed)
        if len(comps) > sample:
            comps = [comps[i] for i in sorted(rng.sample(range(len(comps)), sample))]
        if len(trans) > sample:
            trans = [trans[i] for i in sorted(rng.sample(range(len(trans)), sample))]
        mode = f"sampled({sample}, seed={seed})"
    sides = (("computation", comps, corr.forward, corr.backward),
             ("transformer", trans, corr.backward, corr.forward))
    return _mismatches(f"{corr.id} round trip", mode, (
        ((kind, item), back(step(item, x, y), x, y) == item)
        for kind, items, step, back in sides for item in items))


def counted(corr):
    """corr with forward and backward counting their calls per item."""
    calls = {"forward": Counter(), "backward": Counter()}

    def wrap(name):
        step = getattr(corr, name)
        return lambda item, x, y: calls[name].update([item]) or step(item, x, y)

    return replaced(corr, forward=wrap("forward"), backward=wrap("backward")), calls


ROUND_TRIP_CASES = [(r.id, *recipe_objects(r)) for r in RECIPES] + [
    ("three", chain("ab"), None), ("plotkin-hom", chain("ab"), antichain("a"))]


@pytest.mark.parametrize("cid,x,y", ROUND_TRIP_CASES, ids=[c[0] for c in ROUND_TRIP_CASES])
def test_a_round_trip_transposes_each_item_once(cid, x, y):
    corr, calls = counted(REGISTRY[cid])
    report = round_trip_report(corr, x, y)
    assert report.ok and report == round_trip_report(REGISTRY[cid], x, y)
    for direction, counts in calls.items():
        assert counts and set(counts.values()) == {1}, direction
    # a bijection: the images of one side are exactly the items of the other
    assert set(calls["forward"]) == set(corr.iter_computations(x, y, 300_000))
    assert set(calls["backward"]) == set(corr.iter_transformers(x, y, 300_000))


def outcome(run, corr, sample):
    """The Check's fields, or the type and message of what the run raised."""
    try:
        check = run(corr, X2, Y2, sample=sample, seed=5)
    except Exception as err:
        return type(err), str(err)
    return check.law, check.mode, check.checked, check.mismatches, check.witness


def raising_on(later, step):
    """step, except that it raises on the one item later."""
    def raising(item, x, y):
        if item == later:
            raise SideConditionViolated(f"no transpose of {item!r}")
        return step(item, x, y)
    return raising


BOX_ARROWS = iter_kleisli_arrows(POWERSET, X2, Y2)
BROKEN = {
    "non-injective forward": replaced(
        BOX, forward=lambda g, x, y: BOX.forward(BOX_ARROWS[3], x, y)),
    "backward to one arrow": replaced(BOX, backward=lambda m, x, y: BOX_ARROWS[6]),
    "forward raising later": replaced(BOX, forward=raising_on(BOX_ARROWS[9], BOX.forward)),
}


@pytest.mark.parametrize("sample", [None, 3])
@pytest.mark.parametrize("name", sorted(BROKEN))
def test_a_broken_round_trip_reports_what_the_table_free_walk_reports(name, sample):
    corr = BROKEN[name]
    expected = outcome(reference_round_trip, corr, sample)
    assert outcome(round_trip_report, corr, sample) == expected
    if name == "forward raising later" and sample is None:
        assert expected[0] is SideConditionViolated
    elif sample is None:
        assert expected[3] > 0 and expected[4] is not None


@pytest.mark.parametrize("cid, y, who", [("three", None, "three"),
                                         ("diamond", FinSet([1]), "downset")])
def test_a_poset_correspondence_refuses_a_set_with_a_typed_error(cid, y, who):
    with pytest.raises(UnknownElement) as info:
        round_trip_report(REGISTRY[cid], FinSet([1]), y)
    assert str(info.value) == f"{who} acts on FinPoset objects, got FinSet"


# -- the side-condition raises, each with its type and message --------------------------


def test_forward_refuses_an_arrow_whose_transpose_lacks_the_selector():
    # box's transposes keep meets; asked for joins, an arrow sending a point
    # to two points fails
    join_box = RECIPES[0]._replace(selector="join-preserving")
    arrow = KleisliArrow.from_dict(POWERSET, X2, Y2, {"x1": frozenset(Y2), "x2": frozenset()})
    with pytest.raises(StructureNotPreserved) as info:
        forward(join_box, arrow)
    assert str(info.value) == "box transpose is not join-preserving"


def test_backward_refuses_a_transformer_over_other_objects():
    m = BOX.forward(unit_arrow(POWERSET, X2), X2, X2)
    with pytest.raises(SideConditionViolated) as info:
        backward(RECIPES[0], m, Y2, Y2)
    assert str(info.value) == "transformer does not match the stated objects"


def test_three_forward_refuses_a_map_into_another_chain():
    m = MonotoneMap.from_callable(chain("ab"), chain((0, 1)), lambda x: 0)
    with pytest.raises(SideConditionViolated) as info:
        three_forward(m)
    assert str(info.value) == "map must land in the three-element chain"


def test_plotkin_forward_refuses_a_map_between_other_algebras():
    alg, other = (PlotkinAlgebra.over(upsets(p)) for p in (chain("ab"), antichain("a")))
    ident = MonotoneMap.from_callable(alg.poset, alg.poset, lambda t: t)
    with pytest.raises(SideConditionViolated) as info:
        plotkin_hom_forward(ident, other, other)
    assert str(info.value) == "map does not match the stated algebras"


@pytest.mark.parametrize("side, message", [
    ("left", "left component must preserve joins and top"),
    ("right", "right component must preserve meets and bottom"),
])
def test_plotkin_backward_refuses_a_component_without_its_structure(side, message):
    from finsem.transformers import plotkin_hom_backward

    alg = PlotkinAlgebra.over(upsets(chain("ab")))
    frame = alg.frame
    ident = MonotoneMap.from_callable(frame, frame, lambda x: x)
    # the constant bottom keeps no top, the constant top no bottom
    bottom = MonotoneMap.from_callable(frame, frame, lambda x: frame.bottom())
    top = MonotoneMap.from_callable(frame, frame, lambda x: frame.top())
    g1, g2 = (bottom, ident) if side == "left" else (ident, top)
    with pytest.raises(StructureNotPreserved) as info:
        plotkin_hom_backward(g1, g2, alg, alg)
    assert str(info.value) == message


def test_an_expectation_refuses_a_predicate_on_another_carrier():
    arrow = unit_arrow(DIST, X2)
    with pytest.raises(SideConditionViolated) as info:
        expectation_pred(arrow)(FuzzyPredicate.constant(Y2, 1))
    assert str(info.value) == "post-expectation lives on the wrong carrier"


@pytest.mark.parametrize("side", ["iter_computations", "iter_transformers"])
def test_the_expectation_correspondence_enumerates_nothing(side):
    with pytest.raises(TooLarge) as info:
        getattr(REGISTRY["expectation"], side)(X2, Y2, 300_000)
    assert str(info.value) == "expectation transformers form an infinite space; use probes"
