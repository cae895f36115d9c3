import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import finsem
from finsem import triangle
from finsem.check import Check
from finsem.effects import Distribution, random_distribution
from finsem.errors import (
    CarrierMismatch,
    MonadMismatch,
    NotMonotone,
    TooLarge,
    UnknownElement,
)
from finsem.kernel import MAX_POSET_SIZE, atom_repr
from finsem.monads import (
    DIST,
    DOWNSET,
    FAMILIES,
    GIRY,
    HOARE,
    NEIGHBOURHOOD,
    MonadFamily,
    PLOTKIN,
    POWERSET,
    SMYTH,
)
from finsem.order import (
    FinPoset,
    FinSet,
    MonotoneMap,
    all_posets,
    antichain,
    chain,
    enumerate_structure_maps,
    make_poset,
    upsets,
)
from finsem.transformers import BOX, MONOTONE_NBHD, Correspondence
from finsem.triangle import (
    DEFAULT_ARROW_BUDGET,
    MAX_SAMPLE_TRIES,
    EMAlgebraCandidate,
    KleisliArrow,
    bind_apply,
    certify_full_faithful,
    check_em_algebra,
    check_monad_laws,
    iter_kleisli_arrows,
    kleisli_compose,
    multiplication,
    random_kleisli_arrow,
    stat_functor,
)

X2 = FinSet(["x1", "x2"])
Y2 = FinSet(["y1", "y2"])
Z2 = FinSet(["z1", "z2"])


def unit_arrow(family, obj):
    """The unit of family at obj as a Kleisli arrow from obj to itself."""
    return KleisliArrow.from_callable(family, obj, obj, lambda x: family.unit(obj, x))


def lt(poset, x, y):
    """The strict order of poset: x <= y and x != y."""
    return x != y and poset.leq(x, y)


def rel_arrow(dom, cod, pairs):
    pairs = set(pairs)
    return KleisliArrow.from_callable(
        POWERSET, dom, cod, lambda x: frozenset(y for (a, y) in pairs if a == x)
    )


class TestKleisliArrows:
    def test_validation_rejects_foreign_elements(self):
        with pytest.raises(Exception):
            KleisliArrow.from_dict(POWERSET, X2, Y2,
                                   {"x1": frozenset({"zz"}), "x2": frozenset()})

    def test_poset_arrows_must_be_monotone(self):
        p = chain("ab")
        with pytest.raises(NotMonotone):
            KleisliArrow.from_dict(
                DOWNSET, p, p, {"a": frozenset("ab"), "b": frozenset("a")}
            )

    def test_compose_unit_right(self):
        f = rel_arrow(X2, Y2, [("x1", "y1"), ("x2", "y1"), ("x2", "y2")])
        eta = unit_arrow(POWERSET, X2)
        assert kleisli_compose(f, eta).graph == f.graph

    def test_compose_is_relation_composition(self):
        rel_f = [("x1", "y1"), ("x2", "y1"), ("x2", "y2")]
        rel_g = [("y1", "z2"), ("y2", "z1")]
        f = rel_arrow(X2, Y2, rel_f)
        g = rel_arrow(Y2, Z2, rel_g)
        composed = kleisli_compose(g, f)
        # oracle: brute-force relational composite
        expect = {
            (x, z)
            for (x, y) in rel_f
            for (yy, z) in rel_g
            if y == yy
        }
        for x in X2:
            assert composed(x) == frozenset(z for (a, z) in expect if a == x)

    def test_compose_is_stochastic_matrix_product(self):
        rng = random.Random(17)
        xs = FinSet(range(2))
        for _ in range(25):
            f = KleisliArrow.from_dict(
                DIST, xs, xs, {x: random_distribution(xs, rng) for x in xs}
            )
            g = KleisliArrow.from_dict(
                DIST, xs, xs, {x: random_distribution(xs, rng) for x in xs}
            )
            composed = kleisli_compose(g, f)
            for x in xs:
                for z in xs:
                    expect = sum(
                        (f(x)(y) * g(y)(z) for y in xs), Fraction(0)
                    )
                    assert composed(x)(z) == expect

    def test_mismatch_errors(self):
        f = rel_arrow(X2, Y2, [])
        g = rel_arrow(X2, Y2, [])
        with pytest.raises(CarrierMismatch):
            kleisli_compose(g, f)
        d = KleisliArrow.from_dict(
            DIST, Y2, Y2, {y: Distribution.point(Y2, y) for y in Y2}
        )
        with pytest.raises(MonadMismatch):
            kleisli_compose(d, f)


POSET_FAMILIES = (DOWNSET, HOARE, SMYTH, PLOTKIN)
ENUM_POSETS = (chain("ab"), antichain("ab"), make_poset("oab", [("o", "a"), ("o", "b")]))


class TestPosetFamilyArrows:
    @pytest.mark.parametrize("family", POSET_FAMILIES, ids=lambda f: f.name)
    def test_enumeration_builds_no_monotone_map(self, monkeypatch, family):
        built = []
        post_init = MonotoneMap.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(MonotoneMap, "__post_init__", counted)
        p = chain("ab")
        arrows = iter_kleisli_arrows(family, p, p)
        assert arrows and built == []

    @pytest.mark.parametrize("family", POSET_FAMILIES, ids=lambda f: f.name)
    @pytest.mark.parametrize("p", ENUM_POSETS, ids=repr)
    def test_arrows_are_the_monotone_maps_into_the_structure_order(self, family, p):
        q = chain("c")
        space = family.space_poset(q)
        expected = [m.graph for m in enumerate_structure_maps(p, space, "monotone")]
        arrows = iter_kleisli_arrows(family, p, q)
        assert [f.graph for f in arrows] == expected
        assert all((f.family, f.dom, f.cod) == (family, p, q) for f in arrows)

    def test_plotkin_on_the_three_antichain_is_too_large(self):
        # the arrows would fit the budget; T(P) over the substrate cap refuses them
        p = antichain(range(3))
        size = len(PLOTKIN.elements(p))
        assert size > MAX_POSET_SIZE and size ** len(p) <= DEFAULT_ARROW_BUDGET
        with pytest.raises(TooLarge):
            iter_kleisli_arrows(PLOTKIN, p, p)


class TestTrustedArrows:
    """The enumerators build trusted arrows; every public path still validates."""

    C_DE = make_poset("cde", [("c", "d"), ("c", "e")])  # c < d, c < e
    NOT_UPSET = frozenset("cd")  # {c, d} is no upset of C_DE: no smyth element

    def test_public_constructor_rejects_a_foreign_image(self):
        with pytest.raises(UnknownElement):
            KleisliArrow(POWERSET, X2, Y2, (frozenset({"zz"}), frozenset()))
        with pytest.raises(UnknownElement):
            KleisliArrow(SMYTH, chain("a"), self.C_DE, (self.NOT_UPSET,))

    def test_public_constructor_rejects_a_non_monotone_graph(self):
        # a <= b, but the smyth order sends {d} below {c, d, e} only
        p = chain("ab")
        with pytest.raises(NotMonotone):
            KleisliArrow(SMYTH, p, self.C_DE, (frozenset("d"), frozenset("cde")))
        with pytest.raises(NotMonotone):
            KleisliArrow(DOWNSET, p, p, (frozenset("ab"), frozenset("a")))

    @pytest.mark.parametrize("family, cod, bad", [
        (POWERSET, Y2, frozenset({"zz"})),
        (NEIGHBOURHOOD, Y2, frozenset({frozenset({"zz"})})),
        (SMYTH, C_DE, NOT_UPSET),
        (PLOTKIN, C_DE, (frozenset("c"), NOT_UPSET)),
    ], ids=lambda v: getattr(v, "name", None))
    def test_enumerator_rejects_a_foreign_target(self, family, cod, bad):
        dom = X2 if family.base == "set" else chain("ab")
        targets = (*family.elements(cod), bad)
        with pytest.raises(UnknownElement):
            iter_kleisli_arrows(family, dom, cod, targets=targets)
        with pytest.raises(UnknownElement):
            random_kleisli_arrow(family, dom, cod, random.Random(0), (bad,), 1)

    @pytest.mark.parametrize("family", FAMILIES.values(), ids=lambda f: f.name)
    def test_enumerated_arrows_are_listed_without_a_second_walk(self, monkeypatch, family):
        objects = ((FinSet([]), X2, FinSet("abc")) if family.base == "set"
                   else (chain("a"), chain("ab"), antichain("ab")))
        small = [(d, c) for d, c in itertools.product(objects, repeat=2)
                 if len(d) * len(c) <= 4 or family.name in ("powerset", "downset")]
        built, asked = [], []
        contains = type(family).contains
        monkeypatch.setattr(KleisliArrow, "__post_init__", lambda f: built.append(f))
        monkeypatch.setattr(type(family), "contains", lambda fam, obj, t: (
            asked.append(t) or contains(fam, obj, t)))
        listed = []
        for dom, cod in small:
            try:
                targets = family.probe_elements(cod, 2) if not family.enumerable else (
                    family.elements(cod))
            except TooLarge:
                continue
            del asked[:]
            arrows = iter_kleisli_arrows(family, dom, cod, targets=targets)
            assert len(asked) <= len(targets)
            listed.append((dom, cod, arrows))
        assert built == [] and listed
        monkeypatch.undo()
        for dom, cod, arrows in listed:
            assert len(arrows) == len(set(arrows))
            for f in arrows:
                assert KleisliArrow(family, dom, cod, f.graph) == f

    @staticmethod
    def draw_then_validate(family, dom, cod, rng, targets):
        """The sampler as it was: each draw built through the validating
        constructor, a non-monotone one skipped."""
        for _ in range(MAX_SAMPLE_TRIES):
            graph = tuple(rng.choice(targets) for _ in dom.carrier.elements)
            try:
                return KleisliArrow(family, dom, cod, graph)
            except NotMonotone:
                continue
        raise TooLarge("could not sample a monotone arrow; space too sparse")

    @pytest.mark.parametrize("family", [f for f in FAMILIES.values() if f.base == "poset"],
                             ids=lambda f: f.name)
    @pytest.mark.parametrize("p", [p for p in all_posets(3) if len(p) == 3], ids=repr)
    def test_sampler_draws_what_validating_each_draw_drew(self, family, p):
        targets = family.elements(p)
        fast, slow = random.Random(11), random.Random(11)
        for f in random_kleisli_arrow(family, p, p, fast, targets, 50):
            assert f == self.draw_then_validate(family, p, p, slow, targets)
        assert fast.getstate() == slow.getstate()

    @pytest.mark.parametrize("family", FAMILIES.values(), ids=lambda f: f.name)
    def test_one_draw_checks_each_target_once_and_builds_every_arrow_trusted(
            self, monkeypatch, family):
        dom, cod, other = ((X2, FinSet("abc"), FinSet(["zz"])) if family.base == "set"
                           else (chain("ab"), antichain("ab"), chain(["zz"])))
        targets = family.elements(cod) if family.enumerable else family.probe_elements(cod, 2)
        built, asked = [], []
        contains = type(family).contains
        monkeypatch.setattr(KleisliArrow, "__post_init__", lambda f: built.append(f))
        monkeypatch.setattr(type(family), "contains", lambda fam, obj, t: (
            asked.append(t) or contains(fam, obj, t)))
        arrows = random_kleisli_arrow(family, dom, cod, random.Random(5), targets, 30)
        assert built == [] and len(arrows) == 30
        assert Counter(map(id, asked)) == Counter(map(id, targets))
        monkeypatch.undo()
        for f in arrows:
            assert KleisliArrow(family, dom, cod, f.graph) == f
        # a foreign target is refused whether or not a draw picks it
        with pytest.raises(UnknownElement):
            random_kleisli_arrow(family, dom, cod, random.Random(5),
                                 (*targets, family.unit(other, "zz")), 1)


def replaced(corr, **changes):
    """The correspondence with the given fields changed, built by keyword."""
    return Correspondence(**{f: changes.get(f, getattr(corr, f)) for f in Correspondence._fields})


def box_with(**changes):
    """The box correspondence with the given fields changed."""
    return replaced(BOX, **changes)


class MovesMass(type(DIST)):
    """dist whose coded extension binds the first atom of a support through
    the second atom's image: every result is still normalised.  A row and
    the graph both name positions in dom."""

    name = "moves-mass"

    def coded_extension(self, dom, cod):
        prepare = super().coded_extension(dom, cod)

        def moved(graph):
            def extension(row):
                support, images = row[0], graph
                if len(support) > 1:
                    images = list(graph)
                    images[support[0]] = graph[support[1]]
                return prepare(images)(row)
            return extension
        return moved


def broken_witnesses():
    """The failing reports of two law suites and of three certifications,
    each over a carrier of strings, as text."""
    class DropsOnPair(type(POWERSET)):
        name = "drops-on-pair"

        def extend(self, dom, cod, graph, t):
            out = super().extend(dom, cod, graph, t)
            return out - {max(out)} if len(t) == 2 and len(out) == 3 else out

    xs = [FinSet(["x1", "x2"]), FinSet(["y1", "y2", "y3"])]
    lines = [check_monad_laws(DropsOnPair(), xs).summary(),
             check_monad_laws(MovesMass(), xs[:1], probe_max_den=2).summary()]
    trans = BOX.iter_transformers(xs[0], xs[0], 10_000)
    for broken in (box_with(forward=lambda g, x, y: trans[-1]),
                   box_with(iter_computations=lambda x, y, b: ()),
                   box_with(iter_transformers=lambda x, y, b: trans[:1])):
        lines.append(certify_full_faithful(broken, xs[0], xs[0]).counterexample)
    return "\n".join(lines)


def test_failing_witnesses_are_hash_seed_independent():
    src = str(Path(finsem.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from test_triangle import broken_witnesses; print(broken_witnesses())")
    procs = [subprocess.Popen(
        [sys.executable, "-c", script, str(Path(__file__).parent)],
        env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) for seed in ("1", "2")]
    first, second = [(proc.communicate(timeout=120), proc.returncode) for proc in procs]
    assert first == second
    (out, err), code = first
    assert code == 0 and err == ""
    (out, err), code = first
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "monad drops-on-pair: FAIL (21813 instances, seed 20240401)"
    assert lines[4].endswith("t=frozenset({'y1', 'y3'})")
    heads = ("transpose collision on KleisliArrow(", "transformer never hit: MonotoneMap(",
             "transpose image is not structure-preserving: MonotoneMap(")
    assert [line.startswith(head) for line, head in zip(lines[-3:], heads)] == [True] * 3


class TestStatFunctor:
    def test_stat_of_unit_is_identity(self):
        eta = unit_arrow(POWERSET, X2)
        assert stat_functor(eta) == {t: t for t in POWERSET.elements(X2)}

    def test_powerset_stat_is_union_of_images(self):
        f = rel_arrow(X2, Y2, [("x1", "y1"), ("x2", "y2")])
        table = stat_functor(f)
        for a in POWERSET.elements(X2):
            expect = frozenset().union(*(f(x) for x in a)) if a else frozenset()
            assert table[a] == expect

    def test_functoriality_exhaustive_small(self):
        small = FinSet([0, 1])
        arrows = iter_kleisli_arrows(POWERSET, small, small, budget=10_000)
        for f in arrows:
            sf = stat_functor(f)
            for g in arrows:
                sg = stat_functor(g)
                composed = stat_functor(kleisli_compose(g, f))
                assert composed == {t: sg[sf[t]] for t in sf}

    def test_faithfulness_distinct_arrows_distinct_extensions(self):
        arrows = iter_kleisli_arrows(POWERSET, X2, Y2, budget=10_000)
        tables = {}
        for f in arrows:
            key = tuple(sorted(stat_functor(f).items(),
                               key=lambda kv: (sorted(kv[0]), sorted(kv[1]))))
            assert key not in tables
            tables[key] = f

    def test_faithfulness_downset_monad(self):
        from finsem.order import atom_key

        p = chain("ab")
        tables = set()
        for f in iter_kleisli_arrows(DOWNSET, p, p, budget=10_000):
            key = tuple(sorted(stat_functor(f).items(),
                               key=lambda kv: atom_key(kv[0])))
            assert key not in tables
            tables.add(key)


class TestEmAlgebras:
    def test_free_algebra_always_passes(self):
        p = chain("ab")
        mu = multiplication(DOWNSET, p)
        cand = EMAlgebraCandidate.from_dict(DOWNSET, DOWNSET.space_poset(p), mu)
        report = check_em_algebra(cand)
        assert report.ok, report.summary()

    def test_join_algebra_on_lattice_passes(self):
        lattice = upsets(chain("ab"))
        alpha = {d: lattice.bigjoin(d) for d in DOWNSET.elements(lattice)}
        cand = EMAlgebraCandidate.from_dict(DOWNSET, lattice, alpha)
        assert check_em_algebra(cand).ok

    def test_pick_max_on_non_lattice_fails_with_witness(self):
        vee = make_poset("oab", [("o", "a"), ("o", "b")])  # no join of a, b
        def pick(d):
            if not d:
                return "o"
            maxima = [x for x in d if all(not lt(vee, x, y) for y in d)]
            return sorted(maxima)[-1]

        alpha = {d: pick(d) for d in DOWNSET.elements(vee)}
        cand = EMAlgebraCandidate.from_dict(DOWNSET, vee, alpha)
        report = check_em_algebra(cand)
        assert not report.ok
        assert any(r.witness for r in report.cases if not r.ok)


class TestCertify:
    def test_box_two_two_is_sixteen_both_sides(self):
        report = certify_full_faithful(BOX, X2, Y2)
        assert report.kleisli_count == 16
        assert report.transformer_count == 16
        assert report.bijection

    def test_box_empty_case(self):
        empty = FinSet([])
        report = certify_full_faithful(BOX, empty, empty)
        assert report.kleisli_count == report.transformer_count == 1
        assert report.bijection

    @pytest.mark.parametrize("kept", [1, 2, 3])
    def test_missing_witness_is_the_first_transformer_never_hit(self, kept):
        xs = FinSet([0, 1])
        truncated = box_with(
            iter_computations=lambda x, y, budget: BOX.iter_computations(
                x, y, budget)[:kept])
        images = [BOX.forward(c, xs, xs) for c in truncated.iter_computations(xs, xs, 10_000)]
        first = next(t for t in BOX.iter_transformers(xs, xs, 10_000) if t not in images)
        report = certify_full_faithful(truncated, xs, xs)
        assert not report.bijection
        assert report.counterexample == f"transformer never hit: {first!r}"

    @pytest.mark.parametrize("kept", [1, 2, 3])
    def test_extra_witness_is_the_first_image_not_listed(self, kept):
        xs = FinSet([0, 1])
        trans = BOX.iter_transformers(xs, xs, 10_000)[:kept]
        truncated = box_with(iter_transformers=lambda x, y, budget: trans)
        images = [BOX.forward(c, xs, xs) for c in BOX.iter_computations(xs, xs, 10_000)]
        first = next(img for img in images if img not in trans)
        report = certify_full_faithful(truncated, xs, xs)
        assert not report.bijection
        assert report.counterexample == (
            f"transpose image is not structure-preserving: {first!r}")

    def test_monotone_nbhd_singletons(self):
        report = certify_full_faithful(MONOTONE_NBHD, FinSet([0]), FinSet(["a"]))
        assert report.kleisli_count == report.transformer_count == 3
        assert report.bijection


ASSOCIATIVITY = "extend(h)(extend(g)(t)) = extend(h after g)(t)"


def oracle_associativity(family, mid, right, far, probe_max_den):
    """One exhaustive associativity Check, walked (g, h, t) by (g, h, t) through
    family.extend: no tables, ids or gathers."""
    def structure(obj):
        if family.enumerable:
            return family.elements(obj)
        return family.probe_elements(obj, probe_max_den)

    gs = iter_kleisli_arrows(family, mid, right, targets=structure(right))
    hs = iter_kleisli_arrows(family, right, far, targets=structure(far))
    ext, checked, sizes = family.extend, 0, (len(mid), len(right), len(far))
    for g, h, t in itertools.product(gs, hs, structure(mid)):
        checked += 1
        after = tuple(ext(right, far, h.graph, image) for image in g.graph)
        if ext(right, far, h.graph, ext(mid, right, g.graph, t)) != ext(mid, far, after, t):
            witness = f"g={atom_repr(g.as_dict())} h={atom_repr(h.as_dict())} t={atom_repr(t)}"
            return Check(ASSOCIATIVITY, "exhaustive", checked, 1, witness, sizes)
    return Check(ASSOCIATIVITY, "exhaustive", checked, 0, None, sizes)


def associativity_and_its_oracle(family, objects, probe_max_den):
    """The suite's associativity Checks, every case exhaustive, and the oracle's."""
    report = check_monad_laws(family, objects, probe_max_den=probe_max_den)
    cases = [c for c in report.cases if c.law == ASSOCIATIVITY]
    assert {c.mode for c in cases} == {"exhaustive"}
    return cases, [oracle_associativity(family, *triple, probe_max_den)
                   for triple in itertools.product(objects, repeat=3)]


class SkewAtTheLastPair(MonadFamily):
    """One-point objects acting on T = (0, 1, 2, 3) by t * g(x): a product with
    identity 0, every other product 1 but for 2 * 3 = 3 * 3 = 2.  The unit laws
    hold, and associativity fails only at the last g and in its last h, at
    t = 2 and t = 3."""

    name = "skew-at-the-last-pair"

    def elements(self, obj):
        return (0, 1, 2, 3)

    def contains(self, obj, t):
        return t in (0, 1, 2, 3)

    def unit(self, obj, x):
        return 0

    def extend(self, dom, cod, graph, t):
        g = graph[0]
        return g if t == 0 else t if g == 0 else 2 if (t, g) in ((2, 3), (3, 3)) else 1


class WriterUpTo15(MonadFamily):
    """One-point objects acting on the words a^0 .. a^15 by appending g's word:
    a writer monad while that word has at most 15 letters, and a fresh value
    past that, which only a composite h after g appends.  The suite holds
    the 46 words a^0 .. a^45 when its byte gather starts, and its composites
    add 240 fresh values."""

    name = "writer-up-to-15"

    def elements(self, obj):
        return tuple("a" * n for n in range(16))

    def contains(self, obj, t):
        return t in self.elements(obj)

    def unit(self, obj, x):
        return ""

    def extend(self, dom, cod, graph, t):
        return t + graph[0] if len(graph[0]) < 16 else ("past", graph[0], t)


class TestLawSuiteMachinery:
    def test_powerset_small_suite(self):
        report = check_monad_laws(
            POWERSET, tuple(FinSet(range(n)) for n in range(3))
        )
        assert report.ok, report.summary()

    def test_probe_sets_built_once_per_suite(self, monkeypatch):
        built = []
        probe = type(DIST).probe_elements

        def counted(family, obj, max_den=4):
            built.append(len(obj))
            return probe(family, obj, max_den)

        monkeypatch.setattr(type(DIST), "probe_elements", counted)
        report = check_monad_laws(DIST, (FinSet([0]), FinSet([0, 1])), probe_max_den=2)
        assert report.ok, report.summary()
        assert sorted(built) == [1, 2]

    def test_iter_arrows_budget(self):
        with pytest.raises(TooLarge):
            iter_kleisli_arrows(POWERSET, FinSet(range(4)), FinSet(range(4)), budget=10)

    def test_broken_family_is_caught(self):
        class Broken(type(POWERSET)):
            name = "broken-powerset"

            def unit(self, obj, x):
                return frozenset()  # wrong unit

        report = check_monad_laws(Broken(), (FinSet([0, 1]),))
        assert not report.ok

    def test_dropped_image_fails_with_witness(self):
        class DropsLeast(type(POWERSET)):
            name = "drops-least"

            def extend(self, dom, cod, graph, t):
                return super().extend(dom, cod, graph, sorted(t)[1:])

        report = check_monad_laws(DropsLeast(), (FinSet([0, 1]),))
        assert not report.ok
        failing = [c for c in report.cases if not c.ok]
        assert [c.witness for c in failing] == [
            "f={0: frozenset(), 1: frozenset({0})} x=1", "t=frozenset({0})"]
        assert report.summary().splitlines() == [
            "monad drops-least: FAIL (1030 instances, seed 20240401)",
            "  FAIL extend(f)(unit(x)) = f(x) on (2, 2) [exhaustive]: "
            "f={0: frozenset(), 1: frozenset({0})} x=1",
            "  FAIL extend(unit)(t) = t on (2,) [exhaustive]: t=frozenset({0})",
        ]

    def test_failing_associativity_keeps_its_witnesses_and_counts(self):
        # drops the largest image when a pair is sent onto three points: the
        # unit laws hold, and associativity fails inside some (g, h) pairs
        class DropsOnPair(type(POWERSET)):
            name = "drops-on-pair"

            def extend(self, dom, cod, graph, t):
                out = super().extend(dom, cod, graph, t)
                return out - {max(out)} if len(t) == 2 and len(out) == 3 else out

        report = check_monad_laws(DropsOnPair(), (FinSet(range(2)), FinSet(range(3))))
        law = "extend(h)(extend(g)(t)) = extend(h after g)(t)"
        e, f0, f01, f2, f012 = (frozenset(), frozenset({0}), frozenset({0, 1}),
                                frozenset({2}), frozenset({0, 1, 2}))
        assert [(c.law, c.mode, c.checked, c.mismatches, c.objects)
                for c in report.cases[:6]] == [
            ("extend(f)(unit(x)) = f(x)", "exhaustive", 32, 0, (2, 2)),
            ("extend(f)(unit(x)) = f(x)", "exhaustive", 128, 0, (2, 3)),
            ("extend(f)(unit(x)) = f(x)", "exhaustive", 192, 0, (3, 2)),
            ("extend(f)(unit(x)) = f(x)", "exhaustive", 1536, 0, (3, 3)),
            ("extend(unit)(t) = t", "exhaustive", 4, 0, (2,)),
            ("extend(unit)(t) = t", "exhaustive", 8, 0, (3,)),
        ]
        assert report.cases[6:] == [
            Check(law, "exhaustive", 1024, 0, None, (2, 2, 2)),
            Check(law, "exhaustive", 484, 1,
                  f"g={ {0: e, 1: f0}!r} h={ {0: f012, 1: e}!r} t={f01!r}", (2, 2, 3)),
            Check(law, "exhaustive", 1800, 1,
                  f"g={ {0: e, 1: f012}!r} h={ {0: e, 1: e, 2: f0}!r} t={f01!r}", (2, 3, 2)),
            Check(law, "exhaustive", 3844, 1,
                  f"g={ {0: e, 1: f0}!r} h={ {0: f012, 1: e, 2: e}!r} t={f01!r}", (2, 3, 3)),
            Check(law, "exhaustive", 8192, 0, None, (3, 2, 2)),
            Check(law, "exhaustive", 966, 1,
                  f"g={ {0: e, 1: e, 2: f0}!r} h={ {0: f012, 1: e}!r} t={f0 | f2!r}",
                  (3, 2, 3)),
            Check(law, "exhaustive", 3598, 1,
                  f"g={ {0: e, 1: e, 2: f012}!r} h={ {0: e, 1: e, 2: f0}!r} t={f0 | f2!r}",
                  (3, 3, 2)),
            Check(law, "sampled(400)", 5, 1,
                  f"g={ {0: frozenset({1, 2}), 1: f2, 2: f0}!r} "
                  f"h={ {0: f0, 1: e, 2: f012}!r} t={f0 | f2!r}", (3, 3, 3)),
        ]
        assert report.summary().splitlines()[0] == (
            "monad drops-on-pair: FAIL (21813 instances, seed 20240401)")

    @pytest.mark.parametrize("family", FAMILIES.values(), ids=lambda f: f.name)
    def test_associativity_matches_the_per_instance_oracle(self, family):
        # each family's one- and two-point objects; neighbourhood's two-point
        # suite is a million instances, too many for the oracle
        sizes = (1,) if family is NEIGHBOURHOOD else (1, 2)
        objects = tuple(FinSet(range(n)) if family.base == "set" else antichain("ab"[:n])
                        for n in sizes)
        cases, oracle = associativity_and_its_oracle(family, objects, 2)
        assert cases == oracle

    def test_a_suite_past_255_ids_matches_the_oracle(self, monkeypatch):
        # every id the suite hash-conses is a code or an extension's value; with
        # no bytes in triangle, only the itemgetter gather can decide a case
        monkeypatch.setattr(triangle, "bytes", None, raising=False)
        seen = set()
        code, coded_extension = DIST.code, type(DIST).coded_extension

        def recorded(value):
            seen.add(value)
            return value

        def recording(family, dom, cod):
            prepare = coded_extension(family, dom, cod)

            def prepared(graph):
                extend = prepare(graph)
                return lambda c: recorded(extend(c))
            return prepared

        monkeypatch.setattr(type(DIST), "code", staticmethod(lambda t: recorded(code(t))))
        monkeypatch.setattr(type(DIST), "coded_extension", recording)
        cases, oracle = associativity_and_its_oracle(DIST, (FinSet(range(2)),), 4)
        assert len(seen) > 255 and cases == oracle

    def test_composites_past_255_ids_in_a_byte_gather_match_the_oracle(self, monkeypatch):
        # ids past 255, which the composites add after the gather starts, are
        # read as 255 and so fail against every gathered id
        read, as_bytes = [], triangle._as_bytes
        monkeypatch.setattr(triangle, "_as_bytes", lambda ids: read.extend(ids) or as_bytes(ids))
        cases, oracle = associativity_and_its_oracle(WriterUpTo15(), (FinSet(["x"]),), 2)
        assert max(read) > 255 and cases == oracle and not cases[0].ok

    def test_a_failure_at_the_last_g_and_its_last_h_matches_the_oracle(self):
        cases, oracle = associativity_and_its_oracle(SkewAtTheLastPair(), (FinSet(["x"]),), 2)
        assert cases == oracle == [Check(ASSOCIATIVITY, "exhaustive", (3 * 4 + 3) * 4 + 3, 1,
                                         "g={'x': 3} h={'x': 3} t=2", (1, 1, 1))]
        assert check_monad_laws(SkewAtTheLastPair(), (FinSet(["x"]),)).cases[0].ok

    # two suites exhaustive in every case and one sampled, and the distinct
    # (arrow, element) pairs the neighbourhood and plotkin suites extend
    @pytest.mark.parametrize("family, objects, instances, extensions, modes", [
        (NEIGHBOURHOOD, (FinSet(["a", "b"]),), 1_049_104, 4_096, {"exhaustive"}),
        (DIST, (FinSet([1]), FinSet([1, 2])), 17_680, None, {"exhaustive"}),
        (PLOTKIN, (antichain("abc"),), 1_637, 3_236,
         {"exhaustive", "sampled", "sampled(400)"}),
    ], ids=["neighbourhood", "dist", "plotkin-sampled"])
    def test_no_arrow_is_extended_twice_at_one_element(
            self, monkeypatch, family, objects, instances, extensions, modes):
        calls, prepares = Counter(), Counter()
        coded_extension = type(family).coded_extension

        def counted(fam, dom, cod):
            prepare = coded_extension(fam, dom, cod)

            def prepared(graph):
                extend, key = prepare(graph), tuple(graph)
                prepares[dom, cod, key] += 1

                def extension(c):
                    calls[dom, cod, key, c] += 1
                    return extend(c)
                return extension
            return prepared

        monkeypatch.setattr(type(family), "coded_extension", counted)
        report = check_monad_laws(family, objects)
        assert report.ok and report.checked_total() == instances
        assert {c.mode for c in report.cases} == modes
        assert max(calls.values()) == 1
        assert extensions in (None, len(calls))
        # each arrow's extension is prepared once per suite
        assert max(prepares.values()) == 1

    def test_probe_suite_totals(self, monkeypatch):
        # a bind of probe arrows can leave the probe set; the walk computes
        # those values rather than looking them up
        probes = set(map(DIST.code, DIST.probe_elements(FinSet(range(2)), 2)))
        extended = []
        coded_extension = type(DIST).coded_extension

        def recorded(family, dom, cod):
            prepare = coded_extension(family, dom, cod)

            def prepared(graph):
                extend = prepare(graph)
                return lambda t: extended.append(t) or extend(t)
            return prepared

        monkeypatch.setattr(type(DIST), "coded_extension", recorded)
        report = check_monad_laws(DIST, (FinSet(range(2)),), probe_max_den=2)
        assert [(c.law, c.mode, c.checked, c.mismatches) for c in report.cases] == [
            ("extend(f)(unit(x)) = f(x)", "exhaustive", 18, 0),
            ("extend(unit)(t) = t", "exhaustive", 3, 0),
            ("extend(h)(extend(g)(t)) = extend(h after g)(t)", "exhaustive", 243, 0),
        ]
        assert report.checked_total() == 264
        assert any(t not in probes for t in extended)


class TestCodedExtension:
    @pytest.mark.parametrize("den", [2, 3])
    @pytest.mark.parametrize("family", [DIST, GIRY], ids=lambda f: f.name)
    def test_coded_extension_is_extend_on_codes(self, family, den):
        rng = random.Random(den)
        sets = [FinSet(range(n)) for n in (1, 2, 3)]
        left_probes = False
        for dom, cod in itertools.product(sets, repeat=2):
            ts, targets = family.probe_elements(dom, den), family.probe_elements(cod, den)
            probes = set(map(family.code, targets))
            extension = family.coded_extension(dom, cod)
            for f in random_kleisli_arrow(family, dom, cod, rng, targets, 10):
                graph = tuple(map(family.code, f.graph))
                for t in ts:
                    got = extension(graph)(family.code(t))
                    assert got == family.code(family.extend(dom, cod, f.graph, t))
                    left_probes = left_probes or got not in probes
        assert left_probes

    # carriers whose atoms are not their positions: strings, and int labels out of order
    LABELLED = (FinSet(["y", "x", "z"]), FinSet([9, 2, 5]))
    LABELLED_POSETS = (FinPoset(LABELLED[0], [("z", "x")]),
                       FinPoset(LABELLED[1], [(9, 2), (5, 2)]))

    @pytest.mark.parametrize("family", FAMILIES.values(), ids=lambda f: f.name)
    def test_every_extension_reads_its_graph_by_position(self, family):
        rng = random.Random(7)
        objects = self.LABELLED if family.base == "set" else self.LABELLED_POSETS
        for dom, cod in itertools.product(objects, repeat=2):
            ts, targets = (family.elements(obj) if family.enumerable
                           else family.probe_elements(obj, 2) for obj in (dom, cod))
            extension = family.coded_extension(dom, cod)
            for f in random_kleisli_arrow(family, dom, cod, rng, targets, 6):
                coded = tuple(map(family.code, f.graph))
                for x in dom.carrier.elements:
                    assert family.extend(dom, cod, f.graph, family.unit(dom, x)) == f(x)
                for t in ts:
                    got = family.extend(dom, cod, f.graph, t)
                    assert got == bind_apply(f, t)
                    assert extension(coded)(family.code(t)) == family.code(got)

    def test_a_mass_moving_extension_fails_with_element_witnesses(self):
        xs = (FinSet(["x1", "x2"]), FinSet(["y1", "y2", "y3"]))
        report = check_monad_laws(MovesMass(), xs, probe_max_den=2)
        assert not report.ok
        assert [(c.law, c.objects, c.witness) for c in report.cases if not c.ok] == [
            ("extend(unit)(t) = t", (2,), "t=Distribution(carrier=FinSet(['x1', 'x2']), "
             "weights=(('x1', Fraction(1, 2)), ('x2', Fraction(1, 2))))"),
            ("extend(unit)(t) = t", (3,), "t=Distribution(carrier=FinSet(['y1', 'y2', 'y3']), "
             "weights=(('y2', Fraction(1, 2)), ('y3', Fraction(1, 2))))"),
        ]
