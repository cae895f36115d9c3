"""Executable healthiness correspondences.

Each correspondence packages a forward transpose (computation to predicate
transformer), a backward transpose, and enumerators for both sides, so that
round trips and full-and-faithfulness can be certified by double
enumeration.  Side conditions of inputs and outputs are always verified.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from .effects import ZERO, FuzzyPredicate
from .errors import (
    Incomparable,
    NotJoinPreserving,
    NotMeetPreserving,
    SideConditionViolated,
    StructureNotPreserved,
    TooLarge,
)
from .monads import (
    DIST,
    DOWNSET,
    FILTER,
    HOARE,
    MONOTONE_NEIGHBOURHOOD,
    POWERSET,
    SMYTH,
    LensPair,
    MonadFamily,
    all_lens_pairs,
)
from .order import (
    FinSet,
    MonotoneMap,
    PlotkinAlgebra,
    chain,
    enumerate_structure_maps,
    powerset_lattice,
    preserves_all_joins,
    preserves_all_meets,
    upsets,
)
from .triangle import KleisliArrow, iter_kleisli_arrows

THREE = chain((0, 1, 2))
BOT3, MID3, TOP3 = 0, 1, 2


# -- box: nondeterminism against meet-preserving transformers -------------------------


def box_transformer(arrow):
    """Demonic weakest preconditions of a powerset computation."""
    px = powerset_lattice(arrow.dom)
    py = powerset_lattice(arrow.cod)
    m = MonotoneMap.from_callable(
        py, px, lambda a: frozenset(x for x in arrow.dom if arrow(x) <= a)
    )
    if not preserves_all_meets(m):
        raise StructureNotPreserved("box transpose lost meet preservation")
    return m


def box_general_transformer(g, lattice, points):
    """Forward transpose against an arbitrary finite-lattice predicate domain:
    a point satisfies a predicate when its assigned value sits below it."""
    m = MonotoneMap.from_callable(
        lattice,
        powerset_lattice(points),
        lambda a: frozenset(x for x in points if lattice.leq(g[x], a)),
    )
    if not preserves_all_meets(m):
        raise StructureNotPreserved("transpose lost meet preservation")
    return m


def box_general_computation(m):
    """Backward transpose against an arbitrary finite-lattice predicate domain.

    The input is a meet-preserving map from a lattice into a powerset
    lattice; each point goes to the meet of everything whose image holds it.
    """
    if not preserves_all_meets(m):
        raise NotMeetPreserving("input transformer must preserve all meets")
    lattice = m.dom
    points = FinSet(m.cod.top())
    return {
        x: lattice.bigmeet(a for a in lattice if x in m(a)) for x in points
    }


def box_computation(m):
    """Specialize the backward transpose at a powerset predicate domain."""
    mapping = box_general_computation(m)
    dom = FinSet(m.cod.top())
    cod = FinSet(m.dom.top())
    return KleisliArrow.from_dict(POWERSET, dom, cod, mapping)


# -- filter: same shape, packaged through filters of the powerset ----------------------


def filter_transformer(arrow):
    """Transformer of a filter computation: accept a set if the filter holds it."""
    px = powerset_lattice(arrow.dom)
    py = powerset_lattice(arrow.cod)
    m = MonotoneMap.from_callable(
        py, px, lambda a: frozenset(x for x in arrow.dom if a in arrow(x))
    )
    if not preserves_all_meets(m):
        raise StructureNotPreserved("filter transpose lost meet preservation")
    return m


def filter_computation(m):
    if not preserves_all_meets(m):
        raise NotMeetPreserving("input transformer must preserve meets and top")
    dom = FinSet(m.cod.top())
    cod = FinSet(m.dom.top())
    mapping = {
        x: frozenset(a for a in m.dom if x in m(a)) for x in dom
    }
    return KleisliArrow.from_dict(FILTER, dom, cod, mapping)


# -- monotone neighbourhoods ------------------------------------------------------------


def monotone_nbhd_forward(g, poset, points):
    """General adjunction direction: a function into upsets of a poset becomes
    a monotone map from the poset into the powerset of the points."""
    px = powerset_lattice(points)
    for x in points:
        if not poset.is_upset(g[x]):
            raise SideConditionViolated(f"image of {x!r} is not an upset")
    return MonotoneMap.from_callable(
        poset, px, lambda q: frozenset(x for x in points if q in g[x])
    )


def monotone_nbhd_backward(m, points):
    """Inverse direction; upset-ness of each image is verified."""
    out = {}
    for x in points:
        members = frozenset(q for q in m.dom if x in m(q))
        if not m.dom.is_upset(members):
            raise SideConditionViolated("computed neighbourhood is not an upset")
        out[x] = members
    return out


def monotone_nbhd_transformer(arrow):
    return monotone_nbhd_forward(arrow.as_dict(), powerset_lattice(arrow.cod), arrow.dom)


def monotone_nbhd_computation(m):
    dom = FinSet(m.cod.top())
    cod = FinSet(m.dom.top())
    mapping = monotone_nbhd_backward(m, dom)
    return KleisliArrow.from_dict(MONOTONE_NEIGHBOURHOOD, dom, cod, mapping)


# -- diamond: downset computations against join-preserving transformers -----------------


def diamond_transformer(arrow):
    """Possibility transformer of a downset computation: hit the target open."""
    uy = upsets(arrow.cod)
    ux = upsets(arrow.dom)
    m = MonotoneMap.from_callable(
        uy, ux, lambda v: frozenset(x for x in arrow.dom if arrow(x) & v)
    )
    if not preserves_all_joins(m):
        raise StructureNotPreserved("diamond transpose lost join preservation")
    return m


def _complement_backward(m, cod_poset, require_nonempty):
    """Shared backward transpose for diamond and the nonempty variant.

    Each point keeps the part of the codomain not excluded by any open the
    transformer misses; the result is always a downset.
    """
    full = cod_poset.carrier.as_frozenset()
    out = {}
    for x in FinSet(m.cod.top()):
        rejected = set()
        for v in m.dom:
            if x not in m(v):
                rejected |= v
        value = frozenset(full - rejected)
        if require_nonempty and not value:
            raise SideConditionViolated("transpose produced an empty closed set")
        out[x] = value
    return out


def diamond_computation(m, dom_poset, cod_poset):
    """Backward transpose onto a monotone map into downsets."""
    if not preserves_all_joins(m):
        raise NotJoinPreserving("input transformer must preserve all joins")
    if m.dom != upsets(cod_poset) or m.cod != upsets(dom_poset):
        raise SideConditionViolated("transformer does not match the stated posets")
    mapping = _complement_backward(m, cod_poset, require_nonempty=False)
    return KleisliArrow.from_dict(DOWNSET, dom_poset, cod_poset, mapping)


# -- hoare: nonempty downsets against join-and-top-preserving transformers --------------


def _preserves_top(m):
    return m(m.dom.top()) == m.cod.top()


def hoare_pred(arrow):
    """Angelic transformer of a nonempty-downset computation."""
    m = MonotoneMap.from_callable(
        upsets(arrow.cod),
        upsets(arrow.dom),
        lambda v: frozenset(x for x in arrow.dom if arrow(x) & v),
    )
    if not (preserves_all_joins(m) and _preserves_top(m)):
        raise StructureNotPreserved("angelic transpose lost its structure")
    return m


def hoare_computation(m, dom_poset, cod_poset):
    if not (preserves_all_joins(m) and _preserves_top(m)):
        raise NotJoinPreserving("transformer must preserve all joins and top")
    if m.dom != upsets(cod_poset) or m.cod != upsets(dom_poset):
        raise SideConditionViolated("transformer does not match the stated posets")
    mapping = _complement_backward(m, cod_poset, require_nonempty=True)
    return KleisliArrow.from_dict(HOARE, dom_poset, cod_poset, mapping)


# -- smyth: nonempty upsets against preframe transformers -------------------------------


def smyth_pred(arrow):
    """Demonic transformer of a saturated-set computation: guaranteed hit."""
    m = MonotoneMap.from_callable(
        upsets(arrow.cod),
        upsets(arrow.dom),
        lambda v: frozenset(x for x in arrow.dom if arrow(x) <= v),
    )
    if not (preserves_all_meets(m) and m(frozenset()) == frozenset()):
        raise StructureNotPreserved("demonic transpose lost its structure")
    return m


def smyth_computation(m, dom_poset, cod_poset):
    if not (preserves_all_meets(m) and m(frozenset()) == frozenset()):
        raise NotMeetPreserving("transformer must preserve meets, top, and bottom")
    if m.dom != upsets(cod_poset) or m.cod != upsets(dom_poset):
        raise SideConditionViolated("transformer does not match the stated posets")
    mapping = {}
    for x in FinSet(m.cod.top()):
        holding = [v for v in m.dom if x in m(v)]
        value = cod_poset.carrier.as_frozenset()
        for v in holding:
            value &= v
        mapping[x] = frozenset(value)
    return KleisliArrow.from_dict(SMYTH, dom_poset, cod_poset, mapping)


def smyth_filter_pred(arrow, v):
    """The same transformer phrased through the open-filter representation."""
    from .monads import smyth_filter_of_upset

    return frozenset(
        x for x in arrow.dom if v in smyth_filter_of_upset(arrow.cod, arrow(x)).members
    )


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


AMALG3 = {
    (a, b): (BOT3 if a == b == BOT3 else TOP3 if a == b == TOP3 else MID3)
    for a in (BOT3, MID3, TOP3)
    for b in (BOT3, MID3, TOP3)
}


def three_amalg_pointwise(m1, m2):
    """The erratic sum of two three-valued maps, computed pointwise."""
    if m1.dom != m2.dom:
        raise SideConditionViolated("maps live on different posets")
    return MonotoneMap.from_callable(
        m1.dom, THREE, lambda x: AMALG3[(m1(x), m2(x))]
    )


# -- plotkin-algebra homomorphisms vs pairs of lattice maps ------------------------------


def _check_pa_map(f, dom_alg, cod_alg):
    if f.dom != dom_alg.poset or f.cod != cod_alg.poset:
        raise SideConditionViolated("map does not match the stated algebras")
    if f(dom_alg.zero) != cod_alg.zero or f(dom_alg.one) != cod_alg.one:
        raise StructureNotPreserved("bounds are not preserved")
    if f(dom_alg.mix) != cod_alg.mix:
        raise StructureNotPreserved("the mixed element is not preserved")
    for s in dom_alg.poset:
        for t in dom_alg.poset:
            if f(dom_alg.amalg(s, t)) != cod_alg.amalg(f(s), f(t)):
                raise StructureNotPreserved("the erratic sum is not preserved")


def plotkin_hom_forward(f, dom_alg, cod_alg):
    """Split an algebra map into its additive and multiplicative components.

    The two components are read off through the canonical insertions and
    projections; the defining equations are then asserted on every pair.
    """
    _check_pa_map(f, dom_alg, cod_alg)
    l, m = dom_alg.frame, cod_alg.frame
    g1 = MonotoneMap.from_callable(l, m, lambda x: f(dom_alg.in_left(x))[0])
    g2 = MonotoneMap.from_callable(l, m, lambda x: f(dom_alg.in_right(x))[1])
    for (x, y) in dom_alg.poset:
        if f((x, y))[0] != g1(x) or f((x, y))[1] != g2(y):
            raise StructureNotPreserved("component equations fail on a lens pair")
    if not (preserves_all_joins(g1) and g1(l.top()) == m.top()):
        raise StructureNotPreserved("left component must preserve joins and top")
    if not (preserves_all_meets(g2) and g2(l.bottom()) == m.bottom()):
        raise StructureNotPreserved("right component must preserve meets and bottom")
    for x in l:
        if not m.leq(g2(x), g1(x)):
            raise Incomparable("left component must dominate the right one")
    return (g1, g2)


def plotkin_hom_backward(g1, g2, dom_alg, cod_alg):
    """Assemble an algebra map from a dominating pair of lattice maps."""
    l, m = dom_alg.frame, cod_alg.frame
    if not (preserves_all_joins(g1) and g1(l.top()) == m.top()):
        raise StructureNotPreserved("left component must preserve joins and top")
    if not (preserves_all_meets(g2) and g2(l.bottom()) == m.bottom()):
        raise StructureNotPreserved("right component must preserve meets and bottom")
    for x in l:
        if not m.leq(g2(x), g1(x)):
            raise Incomparable("left component must dominate the right one")
    f = MonotoneMap.from_callable(
        dom_alg.poset, cod_alg.poset, lambda p: (g1(p[0]), g2(p[1]))
    )
    _check_pa_map(f, dom_alg, cod_alg)
    return f


# -- expectations ------------------------------------------------------------------------


def expectation_pred(arrow):
    """Expectation transformer of a probabilistic computation.

    Returns a callable on fuzzy predicates over the codomain; values are
    exact rationals.
    """

    def transform(q):
        if q.carrier != arrow.cod:
            raise SideConditionViolated("post-expectation lives on the wrong carrier")
        values = tuple(
            sum((q(y) * arrow(x)(y) for y in arrow(x).support), ZERO)
            for x in arrow.dom.elements
        )
        return FuzzyPredicate(arrow.dom, values)

    return transform


def expectation_computation(transform, dom, cod):
    """Recover the kernel from a transformer by probing point indicators."""
    from .effects import Distribution

    mapping = {}
    for x in dom:
        weights = []
        for y in cod.elements:
            p = transform(FuzzyPredicate.indicator(cod, {y}))
            weights.append((y, p(x)))
        mapping[x] = Distribution(cod, tuple(weights))
    return KleisliArrow.from_dict(DIST, dom, cod, mapping)


# -- the correspondence registry -----------------------------------------------------------


@dataclass(frozen=True)
class Correspondence:
    """One transpose pair with enumerators for both of its sides.

    forward and backward uniformly take (value, dom_object, cod_object) so
    callers can drive every correspondence the same way.  family names the
    monad whose Kleisli arrows are the computations, when they are arrows.
    """

    id: str
    forward: Callable
    backward: Callable
    iter_computations: Callable
    iter_transformers: Callable
    family: Optional[MonadFamily] = None


BOX = Correspondence(
    id="box",
    forward=lambda g, x, y: box_transformer(g),
    backward=lambda m, x, y: box_computation(m),
    iter_computations=lambda x, y, budget: iter_kleisli_arrows(POWERSET, x, y, budget),
    iter_transformers=lambda x, y, budget: enumerate_structure_maps(
        powerset_lattice(y), powerset_lattice(x), "meet-preserving", budget
    ),
    family=POWERSET,
)

FILTER_CORR = Correspondence(
    id="filter",
    forward=lambda g, x, y: filter_transformer(g),
    backward=lambda m, x, y: filter_computation(m),
    iter_computations=lambda x, y, budget: iter_kleisli_arrows(FILTER, x, y, budget),
    iter_transformers=lambda x, y, budget: enumerate_structure_maps(
        powerset_lattice(y), powerset_lattice(x), "meet+top", budget
    ),
    family=FILTER,
)

MONOTONE_NBHD = Correspondence(
    id="monotone-nbhd",
    forward=lambda g, x, y: monotone_nbhd_transformer(g),
    backward=lambda m, x, y: monotone_nbhd_computation(m),
    iter_computations=lambda x, y, budget: iter_kleisli_arrows(
        MONOTONE_NEIGHBOURHOOD, x, y, budget
    ),
    iter_transformers=lambda x, y, budget: enumerate_structure_maps(
        powerset_lattice(y), powerset_lattice(x), "monotone", budget
    ),
    family=MONOTONE_NEIGHBOURHOOD,
)

DIAMOND = Correspondence(
    id="diamond",
    forward=lambda g, p, q: diamond_transformer(g),
    backward=diamond_computation,
    iter_computations=lambda p, q, budget: iter_kleisli_arrows(DOWNSET, p, q, budget),
    iter_transformers=lambda p, q, budget: enumerate_structure_maps(
        upsets(q), upsets(p), "join-preserving", budget
    ),
    family=DOWNSET,
)

HOARE_CORR = Correspondence(
    id="hoare",
    forward=lambda g, p, q: hoare_pred(g),
    backward=hoare_computation,
    iter_computations=lambda p, q, budget: iter_kleisli_arrows(HOARE, p, q, budget),
    iter_transformers=lambda p, q, budget: enumerate_structure_maps(
        upsets(q), upsets(p), "join+top", budget
    ),
    family=HOARE,
)

SMYTH_CORR = Correspondence(
    id="smyth",
    forward=lambda g, p, q: smyth_pred(g),
    backward=smyth_computation,
    iter_computations=lambda p, q, budget: iter_kleisli_arrows(SMYTH, p, q, budget),
    iter_transformers=lambda p, q, budget: enumerate_structure_maps(
        upsets(q), upsets(p), "preframe+0", budget
    ),
    family=SMYTH,
)

THREE_CORR = Correspondence(
    id="three",
    forward=lambda m, p, _q: three_forward(m),
    backward=lambda lens, p, _q: three_backward(lens),
    iter_computations=lambda p, _y, budget: enumerate_structure_maps(
        p, THREE, "monotone", budget
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
            if all(m.leq(g2(x), g1(x)) for x in l):
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


@dataclass
class RoundTripReport:
    correspondence: str
    mode: str
    checked: int
    mismatches: int
    witness: object = None

    @property
    def ok(self):
        return self.mismatches == 0


def round_trip_report(corr, x, y, budget=300_000, sample=None, seed=0):
    """Check both composites of a correspondence on enumerated inputs.

    With sample=None both sides are walked exhaustively; otherwise that many
    items are drawn from each enumerated side with the given seed.
    """
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
    checked = 0
    bad = 0
    witness = None
    for c in comps:
        checked += 1
        if corr.backward(corr.forward(c, x, y), x, y) != c:
            bad += 1
            witness = witness or ("computation", c)
    for t in trans:
        checked += 1
        if corr.forward(corr.backward(t, x, y), x, y) != t:
            bad += 1
            witness = witness or ("transformer", t)
    return RoundTripReport(corr.id, mode, checked, bad, witness)


def expectation_round_trip(x, y, instances=200, seed=0, max_den=6):
    """Seeded exact round trips for the probabilistic correspondence."""
    from .effects import random_distribution

    rng = random.Random(seed)
    checked = 0
    bad = 0
    witness = None
    for _ in range(instances):
        mapping = {a: random_distribution(y, rng, max_den) for a in x}
        arrow = KleisliArrow.from_dict(DIST, x, y, mapping)
        back = expectation_computation(expectation_pred(arrow), x, y)
        checked += 1
        if back != arrow:
            bad += 1
            witness = witness or arrow
    return RoundTripReport("expectation", f"sampled({instances}, seed={seed})",
                           checked, bad, witness)
