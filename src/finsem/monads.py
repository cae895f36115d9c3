"""The monad zoo: finite instantiations of the computation monads.

Each family knows how to enumerate T(X) (within a per-monad cap), test
membership, order elements when T(X) is a poset, and perform the unit and
the Kleisli extension.  Multiplication is never defined separately: it is
the extension of the identity arrow.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .effects import (
    ONE,
    ZERO,
    Distribution,
    FuzzyPredicate,
    checked_weights,
    dist_bind,
    iter_distributions,
    pushforward,
)
from .errors import (
    LensViolation,
    StructureNotPreserved,
    TooLarge,
    UnknownElement,
)
from .order import (
    FinPoset,
    FinSet,
    upsets,
)


class MonadFamily:
    """One computation monad, given concretely at every small object."""

    name = "abstract"
    base = "set"  # "set" or "poset"
    cap = 4
    enumerable = True  # False: law suites draw from probe_elements instead

    def check_object(self, obj):
        want = FinSet if self.base == "set" else FinPoset
        if not isinstance(obj, want):
            raise UnknownElement(
                f"{self.name} acts on {want.__name__} objects, got {type(obj).__name__}"
            )

    def check_cap(self, obj, cap=None):
        self.check_object(obj)
        cap = self.cap if cap is None else cap
        if len(obj) > cap:
            raise TooLarge(f"{self.name} is capped at objects of size {cap}")

    # hooks -----------------------------------------------------------------
    def elements(self, obj):
        raise TooLarge(f"{self.name} does not enumerate its structure space")

    def contains(self, obj, t):
        raise NotImplementedError

    def unit(self, obj, x):
        raise NotImplementedError

    def extend(self, dom, cod, fn, t):
        """Kleisli extension of fn (an atom-to-element function) applied to t."""
        raise NotImplementedError

    def leq(self, obj, s, t):
        raise UnknownElement(f"{self.name} structures carry no order")

    # derived ---------------------------------------------------------------
    def functor_map(self, dom, cod, h, t):
        return self.extend(dom, cod, lambda x: self.unit(cod, h(x)), t)

    def space_poset(self, obj):
        """T(obj) packaged as a FinPoset (poset-based families only)."""
        elems = self.elements(obj)
        pairs = [
            (s, t) for s in elems for t in elems if self.leq(obj, s, t)
        ]
        return FinPoset(FinSet(elems), pairs)

    def space_object(self, obj):
        """T(obj) as an object the family itself could act on again."""
        if self.base == "poset":
            return self.space_poset(obj)
        return FinSet(self.elements(obj))

    def __repr__(self):
        return f"<monad {self.name}>"


@dataclass(frozen=True)
class MonadInstance:
    """A monad family bound to one object, with the cap already enforced."""

    family: MonadFamily
    obj: object

    def elements(self):
        return self.family.elements(self.obj)

    def cardinality(self):
        return len(self.elements())

    def unit(self, x):
        return self.family.unit(self.obj, x)

    def contains(self, t):
        return self.family.contains(self.obj, t)


class SubsetMonad(MonadFamily):
    """Elements are subsets of the carrier; extension is the union of images."""

    def extend(self, dom, cod, fn, t):
        out = set()
        for x in t:
            out |= fn(x)
        return frozenset(out)


# -- plain and double powersets ---------------------------------------------------


class PowersetMonad(SubsetMonad):
    """Nondeterminism: subsets of the carrier under direct image union."""

    name = "powerset"
    base = "set"
    cap = 6

    def elements(self, obj):
        self.check_cap(obj)
        return tuple(obj.subsets())

    def contains(self, obj, t):
        return isinstance(t, frozenset) and t <= obj.as_frozenset()

    def unit(self, obj, x):
        obj.require(x)
        return frozenset({x})


class NeighbourhoodMonad(MonadFamily):
    """Double contravariant powerset: families of subsets, no conditions.

    The subclasses keep the same extension and admit fewer families; each
    states its condition once, in ``admits``.
    """

    name = "neighbourhood"
    base = "set"
    cap = 3

    def admits(self, obj, t):
        return True

    def elements(self, obj):
        self.check_cap(obj)
        subs = tuple(obj.subsets())
        out = []
        for mask in range(1 << len(subs)):
            t = frozenset(subs[i] for i in range(len(subs)) if mask >> i & 1)
            if self.admits(obj, t):
                out.append(t)
        return tuple(out)

    def contains(self, obj, t):
        u = obj.as_frozenset()
        return (
            isinstance(t, frozenset)
            and all(isinstance(a, frozenset) and a <= u for a in t)
            and self.admits(obj, t)
        )

    def unit(self, obj, x):
        obj.require(x)
        return frozenset(s for s in obj.subsets() if x in s)

    def extend(self, dom, cod, fn, t):
        # continuation-style double dual: B is accepted iff its preimage is
        out = []
        for b in cod.subsets():
            pre = frozenset(x for x in dom if b in fn(x))
            if pre in t:
                out.append(b)
        return frozenset(out)


class MonotoneNeighbourhoodMonad(NeighbourhoodMonad):
    """Superset-closed families of subsets; same double-dual extension."""

    name = "monotone-neighbourhood"
    cap = 3

    @staticmethod
    def _is_upward_closed(obj, t):
        return all(
            (a | {x}) in t for a in t for x in obj if x not in a
        )

    def admits(self, obj, t):
        return self._is_upward_closed(obj, t)


def _is_filter_family(obj, t):
    """Upward-closed family containing the full set and closed under meets."""
    u = obj.as_frozenset()
    if u not in t:
        return False
    if not MonotoneNeighbourhoodMonad._is_upward_closed(obj, t):
        return False
    return all((a & b) in t for a in t for b in t)


class FilterMonad(MonotoneNeighbourhoodMonad):
    """Filters of the powerset: meet-closed upward-closed families with top."""

    name = "filter"
    cap = 3

    def admits(self, obj, t):
        return _is_filter_family(obj, t)


class UltrafilterMonad(FilterMonad):
    """Filters that decide every subset; on finite carriers all are principal."""

    name = "ultrafilter"
    cap = 4

    @staticmethod
    def _is_ultra(obj, t):
        u = obj.as_frozenset()
        return all((s in t) != ((u - s) in t) for s in obj.subsets())

    def admits(self, obj, t):
        # on a finite carrier these are the principal filters, but the defining
        # property is checked rather than assumed
        return _is_filter_family(obj, t) and self._is_ultra(obj, t)


# -- order-based power monads -----------------------------------------------------


class DownsetMonad(SubsetMonad):
    """Downsets ordered by inclusion; extension is union of images."""

    name = "downset"
    base = "poset"
    cap = 5

    def elements(self, obj):
        self.check_cap(obj)
        return tuple(obj.iter_downsets())

    def contains(self, obj, t):
        return isinstance(t, frozenset) and t <= obj.carrier.as_frozenset() and obj.is_downset(t)

    def unit(self, obj, x):
        return obj.down_set(x)

    def leq(self, obj, s, t):
        return s <= t


class HoareMonad(DownsetMonad):
    """Nonempty downsets: angelic nondeterminism over a finite dcpo."""

    name = "hoare"
    cap = 5

    def elements(self, obj):
        return tuple(t for t in DownsetMonad.elements(self, obj) if t)

    def contains(self, obj, t):
        return bool(t) and DownsetMonad.contains(self, obj, t)


class SmythMonad(SubsetMonad):
    """Nonempty upsets under reverse inclusion: demonic nondeterminism."""

    name = "smyth"
    base = "poset"
    cap = 5

    def elements(self, obj):
        self.check_cap(obj)
        return tuple(t for t in obj.iter_upsets() if t)

    def contains(self, obj, t):
        return (
            isinstance(t, frozenset)
            and bool(t)
            and t <= obj.carrier.as_frozenset()
            and obj.is_upset(t)
        )

    def unit(self, obj, x):
        return obj.up_set(x)

    def leq(self, obj, s, t):
        # the information order refines toward smaller saturated sets
        return t <= s


class PlotkinMonad(MonadFamily):
    """Erratic nondeterminism: pairs of a nonempty downset and a nonempty upset.

    An element (c, k) stands for the pair of two-valued functionals on opens
    (union-hitting on c, containment of k); the pair is admitted when the
    hitting functional dominates the containment one on every open.
    """

    name = "plotkin"
    base = "poset"
    cap = 4

    @staticmethod
    def compatible(obj, c, k):
        """Pointwise dominance over all opens of the base poset."""
        for u in obj.iter_upsets():
            if k <= u and not (c & u):
                return False
        return True

    def elements(self, obj):
        self.check_cap(obj)
        downs = [d for d in obj.iter_downsets() if d]
        ups = [u for u in obj.iter_upsets() if u]
        return tuple(
            (c, k) for c in downs for k in ups if self.compatible(obj, c, k)
        )

    def contains(self, obj, t):
        if not (isinstance(t, tuple) and len(t) == 2):
            return False
        c, k = t
        return (
            isinstance(c, frozenset)
            and isinstance(k, frozenset)
            and bool(c)
            and bool(k)
            and obj.is_downset(c)
            and obj.is_upset(k)
            and self.compatible(obj, c, k)
        )

    def unit(self, obj, x):
        return (obj.down_set(x), obj.up_set(x))

    def extend(self, dom, cod, fn, t):
        c, k = t
        cs, ks = set(), set()
        for x in c:
            cs |= fn(x)[0]
        for x in k:
            ks |= fn(x)[1]
        return (frozenset(cs), frozenset(ks))

    def leq(self, obj, s, t):
        return s[0] <= t[0] and t[1] <= s[1]


# -- probabilistic monads -----------------------------------------------------------


class DistributionMonad(MonadFamily):
    """Finite-support rational probability distributions."""

    name = "dist"
    base = "set"
    cap = 8
    enumerable = False

    def contains(self, obj, t):
        return isinstance(t, Distribution) and t.carrier == obj

    def unit(self, obj, x):
        return Distribution.point(obj, x)

    def extend(self, dom, cod, fn, t):
        return dist_bind(fn, t)

    def probe_elements(self, obj, max_den=4):
        self.check_object(obj)
        return iter_distributions(obj, max_den)


@dataclass(frozen=True)
class FiniteMeasure:
    """Probability measure on the full powerset sigma-algebra of finite atoms."""

    atoms: FinSet
    weights: tuple  # sorted (atom, weight), nonzero only

    def __post_init__(self):
        object.__setattr__(
            self, "weights",
            checked_weights(self.atoms, self.weights, StructureNotPreserved),
        )

    def __call__(self, measurable):
        measurable = frozenset(measurable)
        for a in measurable:
            self.atoms.require(a)
        return sum((w for a, w in self.weights if a in measurable), ZERO)

    def as_dict(self):
        return dict(self.weights)


class GiryFiniteMonad(MonadFamily):
    """The probability-measure monad on finite measurable spaces."""

    name = "giry"
    base = "set"
    cap = 8
    enumerable = False

    def contains(self, obj, t):
        return isinstance(t, FiniteMeasure) and t.atoms == obj

    def unit(self, obj, x):
        obj.require(x)
        return FiniteMeasure(obj, ((x, ONE),))

    def extend(self, dom, cod, fn, t):
        return FiniteMeasure(cod, pushforward(t.weights, fn))

    def probe_elements(self, obj, max_den=4):
        self.check_object(obj)
        return tuple(
            FiniteMeasure(obj, d.weights) for d in iter_distributions(obj, max_den)
        )


POWERSET = PowersetMonad()
NEIGHBOURHOOD = NeighbourhoodMonad()
MONOTONE_NEIGHBOURHOOD = MonotoneNeighbourhoodMonad()
FILTER = FilterMonad()
ULTRAFILTER = UltrafilterMonad()
DOWNSET = DownsetMonad()
HOARE = HoareMonad()
SMYTH = SmythMonad()
PLOTKIN = PlotkinMonad()
DIST = DistributionMonad()
GIRY = GiryFiniteMonad()

FAMILIES = {
    f.name: f
    for f in (
        POWERSET,
        NEIGHBOURHOOD,
        MONOTONE_NEIGHBOURHOOD,
        FILTER,
        ULTRAFILTER,
        DOWNSET,
        HOARE,
        SMYTH,
        PLOTKIN,
        DIST,
        GIRY,
    )
}


# -- cap-checked instance constructors ----------------------------------------------


def _capped(family, obj):
    family.check_cap(obj)
    return MonadInstance(family, obj)


def powerset(x):
    return _capped(POWERSET, x)


def neighbourhood(x):
    return _capped(NEIGHBOURHOOD, x)


def monotone_neighbourhood(x):
    return _capped(MONOTONE_NEIGHBOURHOOD, x)


def filter_monad(x):
    return _capped(FILTER, x)


def ultrafilter_monad(x):
    return _capped(ULTRAFILTER, x)


def downset_monad(p):
    return _capped(DOWNSET, p)


def hoare_monad(p):
    return _capped(HOARE, p)


def smyth_monad(p):
    return _capped(SMYTH, p)


def plotkin_monad(p):
    return _capped(PLOTKIN, p)


def giry_finite(atoms):
    GIRY.check_object(atoms)
    return MonadInstance(GIRY, atoms)


# -- Boolean-algebra collapse checks -------------------------------------------------


def _iter_two_valued_maps(subsets):
    """All 0/1 valuations of the listed subsets, as accepted-family frozensets."""
    for mask in range(1 << len(subsets)):
        yield frozenset(subsets[i] for i in range(len(subsets)) if mask >> i & 1)


# Largest carrier whose complete-Boolean-algebra maps are enumerated: every
# candidate is checked against all 2^(2^n) families of subsets.
COMPLETE_BA_CAP = 3


def boolean_algebra_maps_to_two(x):
    """Maps from the powerset algebra to {0,1} preserving and/or/not/0/1.

    Returned as the families of accepted subsets (the preimages of 1).
    """
    ULTRAFILTER.check_cap(x)
    u = x.as_frozenset()
    subs = tuple(x.subsets())
    out = []
    for fam in _iter_two_valued_maps(subs):
        if u not in fam or frozenset() in fam:
            continue
        ok = all((u - s in fam) != (s in fam) for s in subs)
        ok = ok and all(
            ((a & b) in fam) == (a in fam and b in fam) for a in subs for b in subs
        )
        ok = ok and all(
            ((a | b) in fam) == (a in fam or b in fam) for a in subs for b in subs
        )
        if ok:
            out.append(fam)
    return tuple(out)


def complete_ba_maps_to_two(x):
    """Maps preserving complement and arbitrary unions (all unions are finite here)."""
    ULTRAFILTER.check_cap(x, COMPLETE_BA_CAP)
    u = x.as_frozenset()
    subs = tuple(x.subsets())
    out = []
    for fam in _iter_two_valued_maps(subs):
        ok = all((u - s in fam) != (s in fam) for s in subs)
        if not ok:
            continue
        # arbitrary unions: check every family of subsets
        for k in range(len(subs) + 1):
            for combo in itertools.combinations(subs, k):
                union = frozenset().union(*combo) if combo else frozenset()
                if (union in fam) != any(s in fam for s in combo):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(fam)
    return tuple(out)


@dataclass
class CollapseReport:
    size: int
    map_count: int
    matched: bool
    details: str

    @property
    def ok(self):
        return self.map_count == self.size and self.matched


def cba_collapse_check(x):
    """Certify that complete-Boolean 0/1 maps are exactly the point evaluations."""
    maps = complete_ba_maps_to_two(x)
    units = {NEIGHBOURHOOD.unit(x, a): a for a in x}
    matched = all(m in units for m in maps) and len(maps) == len(set(maps))
    return CollapseReport(
        size=len(x),
        map_count=len(maps),
        matched=matched and len(maps) == len(x),
        details=f"{len(maps)} complete-BA maps on a {len(x)}-point carrier",
    )


# -- Smyth double representation ------------------------------------------------------


@dataclass(frozen=True)
class FilterOf:
    """A filter of a finite lattice: an upset closed under meets, containing top."""

    ambient: FinPoset
    members: frozenset

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        for m in self.members:
            self.ambient.carrier.require(m)
        self.ambient.require_lattice()
        if self.ambient.top() not in self.members:
            raise StructureNotPreserved("filter must contain the top element")
        if not self.ambient.is_upset(self.members):
            raise StructureNotPreserved("filter must be an upset")
        for a in self.members:
            for b in self.members:
                if self.ambient.meet(a, b) not in self.members:
                    raise StructureNotPreserved("filter must be closed under meets")

    @property
    def proper(self):
        return len(self.members) < len(self.ambient)


def scott_open_filters(p):
    """Proper filters of the open-set lattice of a finite poset.

    On a finite lattice every filter is Scott open, so properness is the
    only extra condition.
    """
    lattice = upsets(p)
    out = []
    for fam in lattice.carrier.subsets():
        if len(fam) == len(lattice):
            continue
        try:
            out.append(FilterOf(lattice, fam))
        except StructureNotPreserved:
            continue
    return tuple(out)


def smyth_filter_of_upset(p, k):
    """The open filter holding exactly the opens that contain the saturated set."""
    lattice = upsets(p)
    members = frozenset(u for u in lattice.carrier.elements if k <= u)
    return FilterOf(lattice, members)


def smyth_upset_of_filter(f):
    """Intersection of a proper Scott-open filter's members."""
    members = list(f.members)
    out = set(members[0]) if members else set()
    for m in members[1:]:
        out &= m
    return frozenset(out)


def smyth_representations(p):
    """Pair the nonempty upsets with the proper open filters and verify bijection."""
    ups = SMYTH.elements(p)
    filters = scott_open_filters(p)
    pairing = {}
    for k in ups:
        f = smyth_filter_of_upset(p, k)
        if smyth_upset_of_filter(f) != k:
            raise StructureNotPreserved("filter round trip lost the saturated set")
        pairing[k] = f
    if len(set(pairing.values())) != len(ups) or len(filters) != len(ups):
        raise StructureNotPreserved("upset/filter correspondence is not bijective")
    if set(pairing.values()) != set(filters):
        raise StructureNotPreserved("upset/filter correspondence misses a filter")
    return pairing


# -- lens pairs and the three-valued dualizer ------------------------------------------


@dataclass(frozen=True)
class LensPair:
    """A pair of opens of a finite poset with the outer containing the inner."""

    base: FinPoset
    outer: frozenset
    inner: frozenset

    def __post_init__(self):
        object.__setattr__(self, "outer", frozenset(self.outer))
        object.__setattr__(self, "inner", frozenset(self.inner))
        for s in (self.outer, self.inner):
            for a in s:
                self.base.carrier.require(a)
            if not self.base.is_upset(s):
                raise LensViolation("lens components must be opens (upsets)")
        if not self.inner <= self.outer:
            raise LensViolation("outer open must contain the inner open")

    def amalg(self, other):
        if other.base != self.base:
            raise LensViolation("lens pairs live on different base posets")
        return LensPair(self.base, self.outer | other.outer, self.inner & other.inner)


def all_lens_pairs(p):
    """Every lens pair over a finite poset, in deterministic order."""
    ups = tuple(p.iter_upsets())
    return tuple(
        LensPair(p, u1, u2) for u1 in ups for u2 in ups if u2 <= u1
    )


# -- expectation functionals -------------------------------------------------------


@dataclass(frozen=True)
class Expectation:
    """A functional on fuzzy predicates, kept intensional (never enumerated)."""

    carrier: FinSet
    fn: object

    def __call__(self, p):
        if p.carrier != self.carrier:
            raise UnknownElement("predicate lives on the wrong carrier")
        return self.fn(p)

    def indicator_table(self):
        """Values on the point indicators; determines the functional if linear."""
        return tuple(
            self.fn(FuzzyPredicate.indicator(self.carrier, {x}))
            for x in self.carrier.elements
        )


def _integral(weights):
    """p |-> the sum of p(a) * w over the weights: a finite expectation."""
    return lambda p: sum((p(a) * w for a, w in weights), ZERO)


def expectation_embed(omega):
    """Expected value against a distribution, as an effect-module functional."""
    return Expectation(omega.carrier, _integral(omega.weights))


def expectation_unit(carrier, x):
    carrier.require(x)
    return Expectation(carrier, lambda p: p(x))


def expectation_bind(carrier_out, kernel, h):
    """Extension on the functional side: run the outer functional over the
    pointwise values of the inner ones."""

    def fn(q):
        inner = FuzzyPredicate(
            h.carrier, tuple(kernel(x)(q) for x in h.carrier.elements)
        )
        return h(inner)

    return Expectation(carrier_out, fn)


# -- finite Giry isomorphism -------------------------------------------------------


def integration_functional(phi):
    """Integrate fuzzy predicates against a finite measure (a finite sum)."""
    return Expectation(phi.atoms, _integral(phi.weights))


def measure_of_functional(i, atoms):
    """Recover a measure by evaluating the functional on indicator predicates."""
    weights = []
    for a in atoms.elements:
        weights.append((a, i(FuzzyPredicate.indicator(atoms, {a}))))
    return FiniteMeasure(atoms, tuple(weights))


def distribution_to_measure(omega):
    return FiniteMeasure(omega.carrier, omega.weights)


def measure_to_distribution(phi):
    return Distribution(phi.atoms, phi.weights)
