"""Executable healthiness correspondences.

Each correspondence packages a forward transpose (computation to predicate
transformer), a backward transpose, and enumerators for both sides, so that
round trips and full-and-faithfulness can be certified by double
enumeration.  Side conditions of inputs and outputs are always verified.

One function, ``transpose``, builds every 2-valued transformer: the hom-set
bijection of the adjunction behind the triangles of arXiv:1703.09034 sends a
predicate to the points whose column (the predicates a point satisfies)
holds there, and ``columns`` reads the columns back.  The six arrow-shaped
correspondences (box, filter, monotone-nbhd, diamond, hoare, smyth) take
their columns from a recipe: a monad T, the dualizing object Omega = 2 (the
set {0, 1}, or the chain 0 < 1 for poset families) and an Eilenberg-Moore
algebra alpha: T(2) -> 2.  The column of t in T(Y) is the comparison map at
t, v |-> alpha(T(chi_v)(t)); backward reads the one candidate t off each
point's column, and the comparison map confirms it, so T(Y) itself is never
enumerated.  The selector that names the transformers is checked on every
forward image and every backward input.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import lru_cache
from itertools import compress

from .check import Check, Frozen
from .errors import (
    Incomparable,
    NotJoinPreserving,
    NotMeetPreserving,
    SideConditionViolated,
    StructureNotPreserved,
    TooLarge,
)
from .kernel import Distribution, atom_repr
from .monads import (
    DIST,
    DOWNSET,
    FILTER,
    HOARE,
    MONOTONE_NEIGHBOURHOOD,
    POWERSET,
    SMYTH,
    LensPair,
    all_lens_pairs,
    indicator_probe,
)
from .order import (
    TWO,
    FinPoset,
    MonotoneMap,
    PlotkinAlgebra,
    chain,
    enumerate_structure_maps,
    has_structure,
    plotkin_law_violation,
    powerset_lattice,
    require_kind,
    upsets,
)
from .triangle import DEFAULT_ARROW_BUDGET, KleisliArrow, _Memo, iter_kleisli_arrows

THREE = chain((0, 1, 2))
BOT3, MID3, TOP3 = 0, 1, 2


def predicate_lattice(family, obj):
    """The predicates over an object of family: every subset of a set, every
    upset (open) of a poset, ordered by inclusion."""
    return upsets(obj) if family.base == "poset" else powerset_lattice(obj)


# -- the transpose: one bijection between columns and transformers ----------------------


def transpose(predicates, target, points, columns, walk=True):
    """The map from predicates into target (a lattice of sets of points) that
    sends predicate i to the points whose column holds at i; without
    ``walk``, the caller checks a structure that implies monotonicity."""
    graph = tuple(
        frozenset(x for x, column in zip(points, columns) if column[i])
        for i in range(len(predicates))
    )
    if walk:
        return MonotoneMap(predicates, target, graph)
    for v in graph:
        target.carrier.require(v)
    return MonotoneMap._trusted(predicates, target, graph)


def columns(m, points):
    """The inverse of transpose: each point's column in m, whether the point
    lies in the image of each predicate, in the order of m.dom."""
    return [tuple(p in image for image in m.graph) for p in points]


# -- the recipe: one forward and one backward for every arrow-shaped correspondence -------


# The dualizing object 2 (order.TWO) of each kind of family; a predicate v is
# its characteristic map chi_v into 2, monotone exactly when v is an upset.
OMEGA = {"set": TWO.carrier, "poset": TWO}

# One arrow-shaped correspondence as data: the monad, its Eilenberg-Moore
# algebra alpha: T(2) -> 2, the selector naming the transformers, and
# read(predicates, column), the one element of T(cod) that can have a given
# column (its own column picks it out: see the three readers below).
Recipe = namedtuple("Recipe", "id family alpha selector read")


def _least_holding(predicates, column):
    """A set inside every predicate it satisfies is the least of them."""
    return predicates.top().intersection(*compress(predicates.elements, column))


def _outside_failing(predicates, column):
    """A downset meets every open except those inside its complement."""
    return predicates.top().difference(
        *compress(predicates.elements, (not held for held in column)))


def _holding(predicates, column):
    """A family of predicates holds exactly its members."""
    return frozenset(compress(predicates.elements, column))


@lru_cache(maxsize=1 << 12)
def comparison_column(recipe, cod, t):
    """The comparison map T(cod) -> (predicates -> 2) at t: whether
    alpha(T(chi_v)(t)) = 1, for each predicate v in lattice order, or None
    when t is not an element of T(cod)."""
    family, alpha = recipe.family, recipe.alpha
    if not family.contains(cod, t):
        return None
    omega = OMEGA[family.base]
    return tuple(
        alpha(family.functor_map(cod, omega, lambda y, v=v: int(y in v), t)) == 1
        for v in predicate_lattice(family, cod).elements
    )


def forward(recipe, arrow):
    """The transpose of the arrow's comparison columns, checked to have the
    recipe's selector structure.  Keeping binary joins or meets implies
    monotonicity, so only monotone-nbhd's transpose is walked for it."""
    family = recipe.family
    m = transpose(predicate_lattice(family, arrow.cod), predicate_lattice(family, arrow.dom),
                  arrow.dom.carrier.elements,
                  [comparison_column(recipe, arrow.cod, t) for t in arrow.graph],
                  walk=recipe.selector == "monotone")
    if not has_structure(m, recipe.selector):
        raise StructureNotPreserved(f"{recipe.id} transpose is not {recipe.selector}")
    return m


def backward(recipe, m, x, y):
    """The arrow sending each point p of x to the element of T(y) whose column
    is p's column in m: the recipe reads it off the column, and the
    comparison map confirms it, which no non-element of T(y) passes."""
    if not has_structure(m, recipe.selector):
        error = NotJoinPreserving if "join" in recipe.selector else NotMeetPreserving
        raise error(f"input transformer must be {recipe.selector}")
    family = recipe.family
    if m.dom != predicate_lattice(family, y) or m.cod != predicate_lattice(family, x):
        raise SideConditionViolated("transformer does not match the stated objects")
    points = x.carrier.elements
    graph = []
    for p, column in zip(points, columns(m, points)):
        t = recipe.read(m.dom, column)
        if comparison_column(recipe, y, t) != column:
            raise SideConditionViolated(
                f"no {family.name} element has the column of {atom_repr(p)}")
        graph.append(t)
    return KleisliArrow(family, x, y, tuple(graph))


# -- maps into the three-element dualizer ------------------------------------------------


def three_forward(m):
    """Split a monotone map into the three-chain into its lens of opens."""
    if m.cod != THREE:
        raise SideConditionViolated("map must land in the three-element chain")
    base = m.dom
    outer = frozenset(x for x in base if m(x) != BOT3)
    inner = frozenset(x for x in base if m(x) == TOP3)
    return LensPair(base, outer, inner)


def three_backward(lens):
    """Rebuild the three-valued map from a lens pair."""
    def value(x):
        if x in lens.inner:
            return TOP3
        if x in lens.outer:
            return MID3
        return BOT3

    return MonotoneMap.from_callable(lens.base, THREE, value)


# -- plotkin-algebra homomorphisms vs pairs of lattice maps ------------------------------


def _check_pa_map(f, dom_alg, cod_alg):
    if f.dom != dom_alg.poset or f.cod != cod_alg.poset:
        raise SideConditionViolated("map does not match the stated algebras")
    problem = plotkin_law_violation(dom_alg, cod_alg, f.graph)
    if problem:
        raise StructureNotPreserved(problem)


def _dominates(g1, g2, l, m):
    """g2(x) <= g1(x) in m for every x in l."""
    return all(m.leq(g2(x), g1(x)) for x in l)


def _check_components(g1, g2, l, m):
    """The pair side of plotkin-hom: g1 keeps joins and top, g2 keeps meets and
    bottom, and g1 dominates g2 on every element of l."""
    if not has_structure(g1, "join+top"):
        raise StructureNotPreserved("left component must preserve joins and top")
    if not has_structure(g2, "preframe+0"):
        raise StructureNotPreserved("right component must preserve meets and bottom")
    if not _dominates(g1, g2, l, m):
        raise Incomparable("left component must dominate the right one")


def plotkin_hom_forward(f, dom_alg, cod_alg):
    """Split an algebra map into its additive and multiplicative components.

    The two components are read off through the canonical insertions and
    projections; the defining equations are then asserted on every pair.
    """
    _check_pa_map(f, dom_alg, cod_alg)
    l, m, graph = dom_alg.frame, cod_alg.frame, f.as_dict()
    g1 = MonotoneMap.from_callable(l, m, lambda x: graph[dom_alg.in_left(x)][0])
    g2 = MonotoneMap.from_callable(l, m, lambda x: graph[dom_alg.in_right(x)][1])
    left, right = g1.as_dict(), g2.as_dict()
    for (x, y), (a, b) in graph.items():
        if a != left[x] or b != right[y]:
            raise StructureNotPreserved("component equations fail on a lens pair")
    _check_components(g1, g2, l, m)
    return (g1, g2)


def plotkin_hom_backward(g1, g2, dom_alg, cod_alg):
    """Assemble an algebra map from a dominating pair of lattice maps."""
    _check_components(g1, g2, dom_alg.frame, cod_alg.frame)
    left, right = g1.as_dict(), g2.as_dict()
    f = MonotoneMap.from_callable(
        dom_alg.poset, cod_alg.poset, lambda p: (left[p[0]], right[p[1]])
    )
    _check_pa_map(f, dom_alg, cod_alg)
    return f


# -- expectations ------------------------------------------------------------------------


def expectation_pred(arrow):
    """Expectation transformer of a probabilistic computation.

    Returns a callable on fuzzy predicates over the codomain; values are
    exact rationals.
    """
    from .effects import FuzzyPredicate, expectation

    def transform(q):
        if q.carrier != arrow.cod:
            raise SideConditionViolated("post-expectation lives on the wrong carrier")
        return FuzzyPredicate(arrow.dom, tuple(
            expectation(t.weights, q) for t in arrow.graph))

    return transform


def expectation_computation(transform, dom, cod):
    """Recover the kernel from a transformer by probing point indicators, each
    once: the transform of y's indicator holds every point's weight on y."""
    probes = indicator_probe(transform, cod)
    return KleisliArrow.from_callable(DIST, dom, cod, lambda x: Distribution(
        cod, tuple((y, p(x)) for y, p in zip(cod.elements, probes))))


# -- the correspondence registry -----------------------------------------------------------


class Correspondence(Frozen):
    """One transpose pair with enumerators for both of its sides.

    forward and backward uniformly take (value, dom_object, cod_object) so
    callers can drive every correspondence the same way.  family names the
    monad whose Kleisli arrows are the computations, when they are arrows.
    An arrow-shaped correspondence is built from a Recipe (family, alpha on
    2, selector, reader of columns): forward and backward are the recipe's,
    both run the selector check, and iter_transformers lists the selector's
    maps.
    """

    __slots__ = _fields = ("id", "forward", "backward", "iter_computations",
                           "iter_transformers", "family")
    _defaults = (None,)


def _arrow_correspondence(recipe):
    """Kleisli arrows of the recipe's family against the selector maps between
    their predicate lattices, transposed by the recipe."""
    family = recipe.family
    return Correspondence(
        id=recipe.id,
        forward=lambda g, x, y: forward(recipe, g),
        backward=lambda m, x, y: backward(recipe, m, x, y),
        iter_computations=lambda x, y, budget: iter_kleisli_arrows(
            family, x, y, budget),
        iter_transformers=lambda x, y, budget: enumerate_structure_maps(
            predicate_lattice(family, y), predicate_lattice(family, x),
            recipe.selector, budget
        ),
        family=family,
    )


RECIPES = (
    Recipe("box", POWERSET, lambda s: int(0 not in s), "meet-preserving", _least_holding),
    Recipe("filter", FILTER, lambda g: int(frozenset({1}) in g), "meet+top", _holding),
    Recipe("monotone-nbhd", MONOTONE_NEIGHBOURHOOD, lambda g: int(frozenset({1}) in g),
           "monotone", _holding),
    Recipe("diamond", DOWNSET, lambda d: int(1 in d), "join-preserving", _outside_failing),
    Recipe("hoare", HOARE, lambda d: int(1 in d), "join+top", _outside_failing),
    Recipe("smyth", SMYTH, lambda u: int(0 not in u), "preframe+0", _least_holding),
)
BOX, FILTER_CORR, MONOTONE_NBHD, DIAMOND, HOARE_CORR, SMYTH_CORR = map(
    _arrow_correspondence, RECIPES)

THREE_CORR = Correspondence(
    id="three",
    forward=lambda m, p, _q: three_forward(m),
    backward=lambda lens, p, _q: three_backward(lens),
    iter_computations=lambda p, _y, budget: enumerate_structure_maps(
        require_kind(p, FinPoset, "three"), THREE, "monotone", budget
    ),
    iter_transformers=lambda p, _y, budget: all_lens_pairs(p),
)


def _plotkin_algebras(p, q):
    return PlotkinAlgebra.over(upsets(p)), PlotkinAlgebra.over(upsets(q))


def _iter_plotkin_pairs(p, q, budget):
    l, m = upsets(p), upsets(q)
    lefts = enumerate_structure_maps(l, m, "join+top", budget)
    rights = enumerate_structure_maps(l, m, "preframe+0", budget)
    for g1 in lefts:
        for g2 in rights:
            if _dominates(g1, g2, l, m):
                yield (g1, g2)


PLOTKIN_HOM = Correspondence(
    id="plotkin-hom",
    forward=lambda f, p, q: plotkin_hom_forward(f, *_plotkin_algebras(p, q)),
    backward=lambda pair, p, q: plotkin_hom_backward(
        pair[0], pair[1], *_plotkin_algebras(p, q)
    ),
    iter_computations=lambda p, q, budget: enumerate_structure_maps(
        *_plotkin_algebras(p, q), "plotkin-hom", budget
    ),
    iter_transformers=lambda p, q, budget: _iter_plotkin_pairs(p, q, budget),
)


def _no_enumeration(*_a, **_k):
    raise TooLarge("expectation transformers form an infinite space; use probes")


EXPECTATION = Correspondence(
    id="expectation",
    forward=lambda g, x, y: expectation_pred(g),
    backward=expectation_computation,
    iter_computations=_no_enumeration,
    iter_transformers=_no_enumeration,
    family=DIST,
)

REGISTRY = {
    c.id: c
    for c in (
        BOX,
        FILTER_CORR,
        MONOTONE_NBHD,
        DIAMOND,
        HOARE_CORR,
        SMYTH_CORR,
        THREE_CORR,
        PLOTKIN_HOM,
        EXPECTATION,
    )
}


# -- round-trip drivers ----------------------------------------------------------------


def _mismatches(law, mode, trials):
    """The Check of a stream of (witness, round trip held) pairs, with the
    first failure's witness."""
    checked = bad = 0
    witness = None
    for item, held in trials:
        checked += 1
        if not held:
            bad += 1
            witness = witness or item
    return Check(law, mode, checked, bad, witness)


def round_trip_report(corr, x, y, budget=DEFAULT_ARROW_BUDGET, sample=None, seed=0):
    """Check both composites of a correspondence on enumerated inputs, item by
    item on both sides, transposing each item once per call in each direction.
    With sample=None both sides are walked exhaustively; otherwise that many
    items are drawn from each enumerated side with the given seed.
    """
    comps = list(corr.iter_computations(x, y, budget))
    trans = list(corr.iter_transformers(x, y, budget))
    mode = "exhaustive" if sample is None else f"sampled({sample}, seed={seed})"
    if sample is not None:
        rng = random.Random(seed)
        if len(comps) > sample:
            comps = [comps[i] for i in sorted(rng.sample(range(len(comps)), sample))]
        if len(trans) > sample:
            trans = [trans[i] for i in sorted(rng.sample(range(len(trans)), sample))]
    fwd = _Memo(lambda item: corr.forward(item, x, y))
    bwd = _Memo(lambda item: corr.backward(item, x, y))
    sides = ("computation", comps, fwd, bwd), ("transformer", trans, bwd, fwd)
    return _mismatches(f"{corr.id} round trip", mode, (
        ((kind, item), back[step[item]] == item)
        for kind, items, step, back in sides for item in items))


def expectation_round_trip(x, y, instances=200, seed=0, max_den=6):
    """Seeded exact round trips for the probabilistic correspondence."""
    from .effects import random_distribution

    rng = random.Random(seed)
    arrows = (KleisliArrow.from_dict(DIST, x, y, {a: random_distribution(y, rng, max_den)
                                                  for a in x}) for _ in range(instances))
    return _mismatches("expectation round trip", f"sampled({instances}, seed={seed})", (
        (arrow, expectation_computation(expectation_pred(arrow), x, y) == arrow)
        for arrow in arrows))
