import functools
import hashlib
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import finsem

from finsem.errors import (
    CycleError,
    NotJoinPreserving,
    NotMonotone,
    StructureNotPreserved,
    TooLarge,
    UnknownElement,
    UnknownName,
)
from finsem.kernel import MAX_POSET_SIZE
from finsem.monads import NEIGHBOURHOOD
from finsem.order import (
    _LATTICE_SELECTORS,
    STRUCTURE_SELECTORS,
    TWO,
    FinPoset,
    FinSet,
    MonotoneMap,
    PlotkinAlgebra,
    SubsetOf,
    all_posets,
    _commutes,
    _keeps_vector,
    antichain,
    atom_repr,
    chain,
    down_closure,
    downsets,
    enumerate_structure_maps,
    iter_posets,
    make_poset,
    monotone_violation,
    poset_canonical_key,
    powerset_lattice,
    right_adjoint,
    upsets,
)


def all_lattices(max_size):
    return tuple(p for p in all_posets(max_size) if p.is_lattice())


def brute_monotone_two_count(poset):
    """Independent oracle: count monotone 0/1 functions by brute force."""
    count = 0
    for values in itertools.product((0, 1), repeat=len(poset)):
        f = dict(zip(poset.elements, values))
        if all(
            f[x] <= f[y]
            for x in poset
            for y in poset
            if poset.leq(x, y)
        ):
            count += 1
    return count


class TestMakePoset:
    def test_singleton(self):
        p = make_poset(["a"])
        assert p.elements == ("a",)
        assert p.leq("a", "a")

    def test_two_chain_closure(self):
        p = make_poset(["a", "b"], [("a", "b")])
        assert p.leq("a", "b") and not p.leq("b", "a")

    def test_transitive_closure(self):
        p = make_poset("abc", [("a", "b"), ("b", "c")])
        assert p.leq("a", "c")

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            make_poset("abc", [("a", "b"), ("b", "c"), ("c", "a")])

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            make_poset("ab", [("a", "z")])

    @pytest.mark.parametrize("args", [(0, "zz"), ("zz", 0), ("q", "zz"), (2, 1)])
    def test_join_and_meet_name_a_non_element_as_leq_does(self, args):
        with pytest.raises(UnknownElement) as leq:
            TWO.leq(*args)
        for bound in (TWO.join, TWO.meet):
            with pytest.raises(UnknownElement, match=f"^{re.escape(str(leq.value))}$"):
                bound(*args)
        assert str(leq.value).startswith(repr(next(a for a in args if a not in (0, 1))))

    @pytest.mark.parametrize("covers", [[("a", "a")], [("a", "b"), ("b", "b")]])
    def test_self_cover_rejected(self, covers):
        # a cover is strict, so an element cannot cover itself
        with pytest.raises(CycleError, match="'b' < 'b'|'a' < 'a'"):
            make_poset("ab", covers)

    def test_non_transitive_direct_input(self):
        with pytest.raises(ValueError):
            FinPoset(FinSet("abc"), [("a", "b"), ("b", "c")])


class TestUpsetsDownsets:
    def test_two_chain(self):
        p = chain("ab")
        u = upsets(p)
        assert set(u.elements) == {frozenset(), frozenset("b"), frozenset("ab")}
        # a 3-chain
        assert u.bottom() == frozenset() and u.top() == frozenset("ab")

    def test_antichain_gives_boolean(self):
        u = upsets(antichain("ab"))
        assert len(u) == 4

    def test_boolean_lattice_as_poset(self):
        b2 = powerset_lattice(FinSet([1, 2]))
        assert len(upsets(b2)) == 6 == brute_monotone_two_count(b2)

    @pytest.mark.parametrize("poset", all_posets(4), ids=repr)
    def test_upset_count_matches_monotone_maps(self, poset):
        assert len(upsets(poset)) == brute_monotone_two_count(poset)

    def test_downsets_two_chain(self):
        d = downsets(chain("ab"))
        assert set(d.elements) == {frozenset(), frozenset("a"), frozenset("ab")}

    def test_downsets_antichain3(self):
        assert len(downsets(antichain("abc"))) == 8

    @pytest.mark.parametrize("poset", all_posets(4), ids=repr)
    def test_complement_reverses_order(self, poset):
        full = poset.carrier.as_frozenset()
        u = upsets(poset)
        d = downsets(poset)
        complements = {x: full - x for x in u.elements}
        assert set(complements.values()) == set(d.elements)
        for a in u.elements:
            for b in u.elements:
                assert u.leq(a, b) == d.leq(complements[b], complements[a])

    def test_cap(self):
        with pytest.raises(TooLarge):
            upsets(antichain(range(9)))


class TestClosures:
    def test_down_closure_cases(self):
        p = chain("ab")
        assert down_closure(p, frozenset()).members == frozenset()
        assert down_closure(p, {"b"}).members == frozenset("ab")
        q = antichain("ab")
        assert down_closure(q, {"b"}).members == frozenset("b")

    def test_subset_kind_validation(self):
        p = chain("ab")
        SubsetOf(p, {"b"}, "upset")
        with pytest.raises(StructureNotPreserved):
            SubsetOf(p, {"a"}, "upset")
        with pytest.raises(UnknownElement):
            SubsetOf(p, {"z"})

    def test_an_unknown_name_is_a_typed_value_error(self):
        # a selector or subset kind that names nothing is still a ValueError
        for call, message in (
                (lambda: enumerate_structure_maps(TWO, TWO, "nope"), "unknown selector 'nope'"),
                (lambda: SubsetOf(chain("ab"), {"b"}, "up"), "unknown subset kind 'up'")):
            with pytest.raises(UnknownName) as info:
                call()
            assert isinstance(info.value, ValueError)
            assert str(info.value) == message


class TestMonotoneMap:
    def test_validation(self):
        p = chain("ab")
        two = chain((0, 1))
        MonotoneMap.from_dict(p, two, {"a": 0, "b": 1})
        with pytest.raises(NotMonotone):
            MonotoneMap.from_dict(p, two, {"a": 1, "b": 0})


class TestRightAdjoint:
    def test_identity(self):
        b2 = powerset_lattice(FinSet("xy"))
        ident = MonotoneMap.from_callable(b2, b2, lambda a: a)
        assert right_adjoint(ident).graph == ident.graph

    def test_constant_bottom(self):
        two = chain((0, 1))
        f = MonotoneMap.from_dict(two, two, {0: 0, 1: 0})
        adj = right_adjoint(f)
        assert adj.as_dict() == {0: 1, 1: 1}

    def test_direct_image_of_relation(self):
        xs = FinSet("ab")
        ys = FinSet("uv")
        rel = {("a", "u"), ("b", "u"), ("b", "v")}
        px, py = powerset_lattice(xs), powerset_lattice(ys)
        image = lambda a: frozenset(y for (x, y) in rel if x in a)
        f = MonotoneMap.from_callable(px, py, image)
        adj = right_adjoint(f)
        for b in py.elements:
            largest = frozenset(x for x in xs if image(frozenset({x})) <= b)
            assert adj(b) == largest

    def test_rejects_non_join_preserving(self):
        b2 = powerset_lattice(FinSet("xy"))
        top = b2.top()
        with pytest.raises(NotJoinPreserving):
            right_adjoint(MonotoneMap.from_callable(b2, b2, lambda a: top))


# -- the four lattice/2 element isomorphisms, an oracle for _keeps_vector

def opposite(poset):
    """The same carrier with the order reversed."""
    return FinPoset(poset.carrier,
                    [(y, x) for y in poset.elements for x in poset.down_set(y)])


# variant -> (its maps' selector, into 2 or into its opposite)
_LATTICE_ISO = {f"{op}_to_{name}": (f"{op}-preserving", two) for op in ("join", "meet")
                for name, two in (("2", TWO), ("op2", opposite(TWO)))}


def bigmeet(lattice, items):
    """The meet of any family of a lattice; the empty meet is the top element."""
    lattice.require_lattice()
    return functools.reduce(lattice.meet, items, lattice.top())


def amalg(alg, s, t):
    """The erratic sum of a Plotkin algebra: join on the left, meet on the right."""
    return (alg.frame.join(s[0], t[0]), alg.frame.meet(s[1], t[1]))


def _keeps(dom, cod, g, selector):
    """_keeps_vector on a graph dict, with cod TWO or its opposite."""
    return _keeps_vector(dom, cod, [cod.carrier.rank()[g[x]] for x in dom.elements], selector)


def _iso_variant(variant):
    """Selector, copy of 2, the half kept, and the value given to that half's
    unit and to every element on the unit's side of the classifying element."""
    selector, two = _LATTICE_ISO[variant]
    half = _LATTICE_SELECTORS[selector][0]
    return selector, two, half, half.unit(two)


def lattice_map_to_element(lattice, phi, variant):
    """Collapse a structure-preserving 0/1 map on a lattice to an element."""
    selector, two, half, value = _iso_variant(variant)
    if not _keeps(lattice, two, phi, selector):
        raise StructureNotPreserved(f"map does not qualify for {variant}")
    big = lattice.bigjoin if half.op == "join" else functools.partial(bigmeet, lattice)
    return big(x for x in lattice if phi[x] == value)


def lattice_element_to_map(lattice, a, variant):
    """Inverse direction of lattice_map_to_element."""
    selector, two, half, value = _iso_variant(variant)
    side = half.side(lattice, a)
    phi = {x: value if x in side else 1 - value for x in lattice}
    if not _keeps(lattice, two, phi, selector):
        raise StructureNotPreserved(f"constructed map fails {variant}")
    return phi


def qualifying_maps(lattice, variant):
    """All 0/1 assignments passing the variant's structure conditions."""
    selector, two = _LATTICE_ISO[variant]
    out = []
    for values in itertools.product((0, 1), repeat=len(lattice)):
        phi = dict(zip(lattice.elements, values))
        if _keeps(lattice, two, phi, selector):
            out.append(phi)
    return out


class TestLatticeElementIso:
    def test_two_chain_identity_map(self):
        two = chain((0, 1))
        phi = {0: 0, 1: 1}
        assert lattice_map_to_element(two, phi, "join_to_2") == 0

    def test_top_classifies(self):
        b2 = powerset_lattice(FinSet("xy"))
        phi = lattice_element_to_map(b2, b2.top(), "join_to_2")
        assert phi[b2.top()] == 0
        assert all(phi[x] == 0 for x in b2.elements)

    @pytest.mark.parametrize("lattice", all_lattices(5), ids=repr)
    @pytest.mark.parametrize("variant", tuple(_LATTICE_ISO))
    def test_round_trips_exhaustive(self, lattice, variant):
        for phi in qualifying_maps(lattice, variant):
            a = lattice_map_to_element(lattice, phi, variant)
            assert lattice_element_to_map(lattice, a, variant) == phi
        for a in lattice.elements:
            phi = lattice_element_to_map(lattice, a, variant)
            assert lattice_map_to_element(lattice, phi, variant) == a

    def test_structure_not_preserved(self):
        b2 = powerset_lattice(FinSet("xy"))
        bad = {x: 1 for x in b2.elements}  # sends bottom to 1
        with pytest.raises(StructureNotPreserved):
            lattice_map_to_element(b2, bad, "join_to_2")


def brute_force_maps(dom, cod, predicate):
    """Oracle: filter every function graph by the predicate."""
    out = []
    for graph in itertools.product(cod.elements, repeat=len(dom)):
        mapping = dict(zip(dom.elements, graph))
        if predicate(mapping):
            out.append(graph)
    return out


def _is_monotone(dom, cod, g):
    return all(
        cod.leq(g[x], g[y]) for x in dom for y in dom if dom.leq(x, y)
    )


SELECTOR_PREDICATES = {
    "monotone": lambda dom, cod, g: _is_monotone(dom, cod, g),
    "join-preserving": lambda dom, cod, g: (
        g[dom.bottom()] == cod.bottom()
        and all(
            g[dom.join(x, y)] == cod.join(g[x], g[y])
            for x in dom for y in dom
        )
    ),
    "meet-preserving": lambda dom, cod, g: (
        g[dom.top()] == cod.top()
        and all(
            g[dom.meet(x, y)] == cod.meet(g[x], g[y])
            for x in dom for y in dom
        )
    ),
    "join+top": lambda dom, cod, g: (
        SELECTOR_PREDICATES["join-preserving"](dom, cod, g)
        and g[dom.top()] == cod.top()
    ),
    "meet+top": lambda dom, cod, g: SELECTOR_PREDICATES["meet-preserving"](dom, cod, g),
    "preframe+0": lambda dom, cod, g: (
        SELECTOR_PREDICATES["meet-preserving"](dom, cod, g)
        and g[dom.bottom()] == cod.bottom()
    ),
    "frame": lambda dom, cod, g: (
        SELECTOR_PREDICATES["join-preserving"](dom, cod, g)
        and SELECTOR_PREDICATES["meet-preserving"](dom, cod, g)
    ),
}


class TestEnumerateStructureMaps:
    def test_monotone_chain_to_two(self):
        assert len(enumerate_structure_maps(chain("ab"), chain((0, 1)), "monotone")) == 3

    def test_meet_preserving_count_matches_brute_force(self):
        b2 = powerset_lattice(FinSet([1, 2]))
        p1 = powerset_lattice(FinSet([1]))
        fast = enumerate_structure_maps(b2, p1, "meet-preserving")
        slow = brute_force_maps(
            b2, p1, lambda g: SELECTOR_PREDICATES["meet-preserving"](b2, p1, g)
        )
        assert len(fast) == len(slow) == 4

    def test_join_preserving_powerset_matches_relations(self):
        b2 = powerset_lattice(FinSet([1, 2]))
        assert len(enumerate_structure_maps(b2, b2, "join-preserving")) == 16

    @pytest.mark.parametrize("selector", sorted(SELECTOR_PREDICATES))
    def test_complete_and_duplicate_free(self, selector):
        lattices = [
            powerset_lattice(FinSet("x")),
            powerset_lattice(FinSet("xy")),
            upsets(chain("abc")),
        ]
        for dom in lattices:
            for cod in lattices:
                fast = enumerate_structure_maps(dom, cod, selector)
                graphs = {m.graph for m in fast}
                assert len(graphs) == len(fast)
                slow = brute_force_maps(
                    dom, cod,
                    lambda g: SELECTOR_PREDICATES[selector](dom, cod, g),
                )
                assert graphs == {
                    tuple(g[x] for x in dom.elements)
                    for g in (dict(zip(dom.elements, s)) for s in slow)
                }

    def test_budget_enforced(self):
        b3 = powerset_lattice(FinSet("abc"))
        with pytest.raises(TooLarge):
            enumerate_structure_maps(b3, b3, "monotone", budget=100)

    def test_plotkin_hom_selector_matches_brute_force(self):
        alg = PlotkinAlgebra.over(upsets(chain("a")))
        maps = enumerate_structure_maps(alg, alg, "plotkin-hom")
        # brute force over all monotone endomaps of the lens poset
        slow = []
        for graph in brute_force_maps(
            alg.poset, alg.poset,
            lambda g: _is_monotone(alg.poset, alg.poset, g),
        ):
            g = dict(zip(alg.poset.elements, graph))
            if g[alg.zero] != alg.zero or g[alg.one] != alg.one:
                continue
            if g[alg.mix] != alg.mix:
                continue
            if all(
                g[amalg(alg, s, t)] == amalg(alg, g[s], g[t])
                for s in alg.poset for t in alg.poset
            ):
                slow.append(graph)
        assert {m.graph for m in maps} == set(slow)


DIAMOND4 = make_poset("0abt", [("0", "a"), ("0", "b"), ("a", "t"), ("b", "t")])
CHAIN3 = chain((0, 1, 2))
# (dom, cod) -> selector -> every graph in enumeration order, each written as
# its images over dom.elements; sampled round trips index into this order
# and witnesses take its first failure
ORDERED_MAPS = {
    (DIAMOND4, CHAIN3): {
        "monotone": ["0000", "0001", "0002", "0011", "0012", "0022", "0101", "0102",
                     "0111", "0112", "0122", "0202", "0212", "0222", "1111", "1112",
                     "1122", "1212", "1222", "2222"],
        "join-preserving": ["0000", "0011", "0022", "0101", "0111", "0122", "0202",
                            "0212", "0222"],
        "meet-preserving": ["0002", "0012", "0022", "0102", "1112", "1122", "0202",
                            "1212", "2222"],
        "join+top": ["0022", "0122", "0202", "0212", "0222"],
        "meet+top": ["0002", "0012", "0022", "0102", "1112", "1122", "0202", "1212",
                     "2222"],
        "frame": ["0022", "0202"],
        "preframe+0": ["0002", "0012", "0022", "0102", "0202"],
    },
    (CHAIN3, DIAMOND4): {
        "monotone": ["000", "00a", "00b", "00t", "0aa", "0at", "0bb", "0bt", "0tt",
                     "aaa", "aat", "att", "bbb", "bbt", "btt", "ttt"],
        "join-preserving": ["000", "00a", "00b", "00t", "0aa", "0at", "0bb", "0bt",
                            "0tt"],
        "meet-preserving": ["00t", "0at", "0bt", "0tt", "aat", "att", "bbt", "btt",
                            "ttt"],
        "join+top": ["00t", "0at", "0bt", "0tt"],
        "meet+top": ["00t", "0at", "0bt", "0tt", "aat", "att", "bbt", "btt", "ttt"],
        "frame": ["00t", "0at", "0bt", "0tt"],
        "preframe+0": ["00t", "0at", "0bt", "0tt"],
    },
}


@pytest.mark.parametrize("dom, cod", list(ORDERED_MAPS),
                         ids=["diamond-chain", "chain-diamond"])
@pytest.mark.parametrize("selector", sorted(SELECTOR_PREDICATES))
def test_enumeration_order_is_pinned(dom, cod, selector):
    maps = enumerate_structure_maps(dom, cod, selector)
    images = ["".join(map(str, m.graph)) for m in maps]
    assert images == ORDERED_MAPS[dom, cod][selector]


class TestFiniteDirectedCompleteness:
    @pytest.mark.parametrize("poset", all_posets(4), ids=repr)
    def test_directed_subsets_have_a_maximum(self, poset):
        # finite posets double as dcpos: any directed subset peaks
        for members in poset.carrier.subsets():
            if not members:
                continue
            directed = all(
                any(poset.leq(a, c) and poset.leq(b, c) for c in members)
                for a in members
                for b in members
            )
            if directed:
                assert any(
                    all(poset.leq(b, a) for b in members) for a in members
                )


class TestPosetInventory:
    def test_naturally_labelled_counts(self):
        assert sum(1 for _ in iter_posets(3)) == 7
        assert sum(1 for _ in iter_posets(2)) == 2

    def test_iso_classes(self):
        assert len(all_posets(3)) == 9  # sizes 0..3: 1 + 1 + 2 + 5
        assert len([p for p in all_posets(4) if len(p) == 4]) == 16

    def test_lattice_count(self):
        assert len(all_lattices(5)) == 10

    def test_canonical_key_invariant(self):
        p = make_poset("ab", [("a", "b")])
        q = make_poset("uv", [("v", "u")])
        assert poset_canonical_key(p) == poset_canonical_key(q)


def _bound_by_definition(cone, x, y):
    common = cone[x] & cone[y]
    best = [u for u in common if common <= cone[u]]
    return best[0] if len(best) == 1 else None


class TestCachedTables:
    """The tables each poset builds once equal the definitions they stand for."""

    @pytest.mark.parametrize("p", all_posets(3), ids=repr)
    def test_upsets_and_downsets_are_the_filtered_subsets(self, p):
        subsets = list(p.carrier.subsets())
        assert list(p.iter_upsets()) == [s for s in subsets if p.is_upset(s)]
        assert list(p.iter_downsets()) == [s for s in subsets if p.is_downset(s)]
        assert p.iter_upsets() is p.iter_upsets()
        assert p.iter_downsets() is p.iter_downsets()

    @pytest.mark.parametrize("p", all_posets(3), ids=repr)
    def test_join_and_meet_are_the_least_and_greatest_bounds(self, p):
        up = {x: p.up_set(x) for x in p}
        down = {x: p.down_set(x) for x in p}
        for x, y in itertools.product(p.elements, repeat=2):
            assert p.join(x, y) == _bound_by_definition(up, x, y)
            assert p.meet(x, y) == _bound_by_definition(down, x, y)
            # every answer is read from the poset's index table
            i, j = p.elements.index(x), p.elements.index(y)
            for key in ("join", "meet"):
                k = p._cache[key][i][j]
                assert (p.elements[k] if k >= 0 else None) == getattr(p, key)(x, y)

    def test_a_missing_bound_is_none(self):
        v = make_poset("abc", [("a", "b"), ("a", "c")])
        assert v.join("b", "c") is None and v.join("b", "c") is None
        assert v._cache["join"] == ((0, 1, 2), (1, 1, -1), (2, -1, 2))
        assert v.meet("b", "c") == "a"

    def test_oversized_poset_still_raises(self):
        big = antichain(range(MAX_POSET_SIZE + 1))
        for _ in range(2):
            with pytest.raises(TooLarge):
                big.iter_upsets()
            with pytest.raises(TooLarge):
                big.iter_downsets()


# every poset the index-table tests walk: small posets, their opposites
# (ordered against the element order), small lattices, and the upset
# lattices of the posets of up to 3 points
TABLED = (list(all_posets(3)) + [opposite(p) for p in all_posets(3)] + list(all_lattices(5))
          + [upsets(p) for p in all_posets(3)])


def _unindex(p, k):
    return p.elements[k] if k >= 0 else None


class TestIndexedTables:
    """Each poset's index tables equal the set definitions they replace."""

    @pytest.mark.parametrize("p", TABLED, ids=repr)
    def test_join_and_meet_tables_are_the_bounds(self, p):
        up = {x: p.up_set(x) for x in p}
        down = {x: p.down_set(x) for x in p}
        for (i, x), (j, y) in itertools.product(enumerate(p.elements), repeat=2):
            assert _unindex(p, p._table("join")[i][j]) == _bound_by_definition(up, x, y)
            assert _unindex(p, p._table("meet")[i][j]) == _bound_by_definition(down, x, y)

    @pytest.mark.parametrize("p", TABLED, ids=repr)
    def test_leq_pairs_are_the_ordered_pairs(self, p):
        elems = p.elements
        assert p.leq_pairs() == tuple(
            (i, j) for i, j in itertools.product(range(len(p)), repeat=2)
            if p.leq(elems[i], elems[j]))
        assert p.leq_pairs() is p.leq_pairs()

    @pytest.mark.parametrize("dom", all_lattices(3), ids=repr)
    @pytest.mark.parametrize("cod", all_lattices(3), ids=repr)
    def test_preserves_is_the_pairwise_definition(self, dom, cod):
        for values in itertools.product(cod.elements, repeat=len(dom)):
            g = dict(zip(dom.elements, values))
            for op in ("join", "meet"):
                by_pairs = all(
                    g[getattr(dom, op)(x, y)] == getattr(cod, op)(g[x], g[y])
                    for x, y in itertools.product(dom.elements, repeat=2))
                index = cod.carrier.rank()
                v = [index[g[x]] for x in dom.elements]
                assert _commutes(v, dom._table(op), cod._table(op)) == by_pairs

    @pytest.mark.parametrize("lattice", [p for p in TABLED if p.is_lattice()], ids=repr)
    def test_plotkin_algebra_is_built_once_per_frame(self, lattice):
        alg = PlotkinAlgebra.over(lattice)
        assert PlotkinAlgebra.over(lattice) is alg
        elems = alg.poset.elements
        for (i, s), (j, t) in itertools.product(enumerate(elems), repeat=2):
            assert elems[alg.sums[i][j]] == amalg(alg, s, t)

    def test_neighbourhood_extend_is_the_preimage_definition(self):
        def oracle(dom, cod, fn, t):
            return frozenset(b for b in cod.subsets()
                             if frozenset(x for x in dom if b in fn(x)) in t)

        sets = [FinSet(range(n)) for n in range(3)]
        for dom, cod in itertools.product(sets, repeat=2):
            targets = NEIGHBOURHOOD.elements(cod)
            for images in itertools.product(targets, repeat=len(dom)):
                fn = dict(zip(dom.elements, images)).__getitem__
                for t in NEIGHBOURHOOD.elements(dom):
                    assert NEIGHBOURHOOD.extend(dom, cod, images, t) == oracle(dom, cod, fn, t)

    def test_monotone_maps_are_listed_without_a_second_walk(self, monkeypatch):
        walks = []
        monkeypatch.setattr(MonotoneMap, "__post_init__", lambda m: walks.append(m))
        listed = [(p, q, enumerate_structure_maps(p, q, "monotone"))
                  for p, q in itertools.product(all_posets(3), repeat=2)]
        assert walks == []
        monkeypatch.undo()
        for p, q, maps in listed:
            assert len(maps) == len(set(maps))
            for m in maps:
                assert monotone_violation(p, q.leq, m.graph) is None
                assert MonotoneMap(p, q, m.graph) == m


def test_poset_repr_is_hash_seed_independent():
    src = str(Path(finsem.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("from finsem.order import make_poset, upsets; "
            "print(repr(upsets(make_poset(['x1', 'x2', 'x3'], []))))")
    reprs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
                            check=True, timeout=120).stdout
             for seed in ("1", "2")]
    assert reprs[0] == reprs[1]
    assert reprs[0].startswith(
        "FinPoset([frozenset(), frozenset({'x1'}), frozenset({'x2'}), frozenset({'x3'}), "
        "frozenset({'x1', 'x2'}), ")


def run_under_seed(seed, code, payload=""):
    """The stdout of a fresh interpreter running code under PYTHONHASHSEED=seed."""
    src = str(Path(finsem.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], input=payload, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
                          check=True, timeout=120).stdout


def test_a_pickled_poset_keeps_no_hash_of_another_seed():
    dump = ("import pickle; from finsem.order import chain; p = chain(['a', 'b']); hash(p); "
            "print(pickle.dumps(p).hex())")
    load = ("import pickle, sys; from finsem.order import chain; fresh = chain(['a', 'b']); "
            "p = pickle.loads(bytes.fromhex(sys.stdin.read())); "
            "print(p == fresh, hash(p) == hash(fresh), p in {fresh}, p.leq('a', 'b'))")
    assert run_under_seed("2", load, run_under_seed("1", dump)) == "True True True True\n"


# each error message that names an atom, raised for frozenset atoms, whose
# repr lists their members in hash order
ATOM_MESSAGES = """
from fractions import Fraction
from finsem.kernel import Distribution, FinSet
from finsem.order import (FinPoset, MonotoneMap, SubsetOf, make_poset, powerset_lattice,
                          right_adjoint, upsets)
from finsem.transformers import RECIPES, _outside_failing, backward, forward
from finsem.triangle import KleisliArrow
a, b, c = frozenset("abc"), frozenset("def"), frozenset("ghi")
half = Fraction(1, 2)
d = Distribution(FinSet([a, b]), ((a, half), (b, half)))
L = upsets(make_poset(["a", "b", "c"], []))
box = RECIPES[0]
g = KleisliArrow.from_dict(box.family, FinSet([a, b]), FinSet([0, 1]),
                           {a: frozenset({0}), b: frozenset()})
for call in (lambda: Distribution(FinSet([a]), ((a, -1),)),
             lambda: Distribution(FinSet([a]), ((a, half), (a, half))),
             lambda: d.bind(lambda x: None),
             lambda: d.bind(lambda x: Distribution.point(FinSet([x]), x)),
             lambda: FinPoset([a, b], [(a, b), (b, a)]),
             lambda: FinPoset([a, b, c], [(a, b), (b, c)]),
             lambda: make_poset([a], [(a, a)]),
             lambda: make_poset([a, b], [(a, b), (b, a)]),
             lambda: SubsetOf(powerset_lattice(FinSet("abc")), frozenset([frozenset("ab")]),
                              "upset"),
             lambda: right_adjoint(MonotoneMap.from_callable(L, L, lambda v: L.top())),
             # a box recipe reading columns as diamond does
             lambda: backward(box._replace(read=_outside_failing), forward(box, g),
                              g.dom, g.cod)):
    try:
        call()
    except Exception as err:
        print(type(err).__name__, err)
"""


def test_messages_naming_atoms_are_hash_seed_independent():
    first, *others = (run_under_seed(seed, ATOM_MESSAGES) for seed in ("1", "2", "3"))
    assert others == [first, first]
    a, b, c, ab = (atom_repr(frozenset(s)) for s in ("abc", "def", "ghi", "ab"))
    lattice = upsets(make_poset(["a", "b", "c"], []))
    top = atom_repr(MonotoneMap.from_callable(lattice, lattice, lambda v: lattice.top())
                    .as_dict())
    assert first.splitlines() == [
        f"NotNormalized negative weight -1 at {a}",
        f"NotNormalized repeated atom {a}",
        f"MonadMismatch kernel image at {a} is not a Distribution",
        f"CarrierMismatch kernel image at {b} lives on FinSet([{b}]), not on FinSet([{a}])",
        f"CycleError {b} <= {a} and {a} <= {b}",
        f"NotTransitive order is not transitive at {b} <= {c}",
        f"CycleError cover {a} < {a} is not strict",
        f"CycleError covers induce a cycle through {b} and {a}",
        f"StructureNotPreserved members [{ab}] do not form an upset",
        f"NotJoinPreserving {top} does not preserve joins",
        f"SideConditionViolated no powerset element has the column of {b}",
    ]


def test_the_first_broken_pair_in_carrier_order_is_named_under_every_seed():
    # two pairs break transitivity, and hash order would pick either
    code = ("from finsem.order import FinPoset\n"
            "try:\n"
            "    FinPoset(['d', 'p', 'q', 'x1', 'x2'],\n"
            "             [('p', 'x1'), ('q', 'x2'), ('x1', 'd'), ('x2', 'd')])\n"
            "except Exception as err:\n"
            "    print(type(err).__mro__[1:3], err)\n")
    outs = [run_under_seed(seed, code) for seed in ("1", "2", "3", "4")]
    assert outs == [
        "(<class 'finsem.errors.FinsemError'>, <class 'ValueError'>) "
        "order is not transitive at 'x1' <= 'd'\n"] * 4


def test_poset_repr_of_plain_atoms_is_unchanged():
    p = make_poset([(1, "a"), (2, "b"), (3, "c")], [((1, "a"), (2, "b"))])
    assert repr(p) == f"FinPoset({list(p.elements)!r}, covers={p.cover_pairs()!r})"
    assert repr(chain("ab")) == "FinPoset(['a', 'b'], covers=[('a', 'b')])"


# sha256 over atom_repr((selector, graph)) of every listed map, recorded before
# the index tables replaced the per-pair bound dicts
PINNED_LATTICE_MAPS = "cab41dc208a3538c8ca23637e77bb4f71753b30ad2e70b86e6a8f51e50dfc357"
PINNED_PLOTKIN_MAPS = "a00ea7b5974d9ba39228a2bcce97c67ccff98b0a761fa893883b1b9d02ad141e"


def _maps_digest(pairs, selectors):
    digest, count = hashlib.sha256(), 0
    for dom, cod in pairs:
        for selector in selectors:
            for m in enumerate_structure_maps(dom, cod, selector):
                digest.update(atom_repr((selector, m.graph)).encode())
                count += 1
    return digest.hexdigest(), count


def test_structure_map_enumeration_is_pinned():
    lattices = list(all_lattices(4)) + [upsets(p) for p in all_posets(3) if len(p)]
    selectors = [s for s in STRUCTURE_SELECTORS if s != "plotkin-hom"]
    pairs = itertools.product(lattices, repeat=2)
    assert _maps_digest(pairs, selectors) == (PINNED_LATTICE_MAPS, 44_858)
    algebras = [PlotkinAlgebra.over(upsets(p)) for p in all_posets(2) if len(p)]
    pairs = itertools.product(algebras, repeat=2)
    assert _maps_digest(pairs, ["plotkin-hom"]) == (PINNED_PLOTKIN_MAPS, 96)


@pytest.mark.parametrize("build", [upsets, downsets])
def test_a_lattice_of_closed_subsets_refuses_a_set_with_a_typed_error(build):
    with pytest.raises(UnknownElement) as info:
        build(FinSet([1]))
    assert str(info.value) == f"{build.__name__} acts on FinPoset objects, got FinSet"


def test_a_powerset_lattice_refuses_a_poset_with_a_typed_error():
    with pytest.raises(UnknownElement) as info:
        powerset_lattice(antichain("ab"))
    assert str(info.value) == "powerset_lattice acts on FinSet objects, got FinPoset"
