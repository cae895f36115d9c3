"""The monad zoo: finite instantiations of the computation monads.

Each family knows how to enumerate T(X) (within a per-monad cap), test
membership, order elements when T(X) is a poset, and perform the unit and
the Kleisli extension of an arrow's graph (its images in the domain's carrier
order), also on the codes the law suites intern: an element is its own code,
and dist and giry code a weighting by its kernel row, bound by
``kernel.bind_rows`` and probed by ``effects.iter_distributions``.  The
multiplication is the extension of the identity arrow, never defined apart.
``effects`` is imported only where fuzzy predicates or distributions are built.
"""

from __future__ import annotations

import itertools
from functools import partial

from .check import Check, Frozen
from .errors import (
    LensViolation,
    StructureNotPreserved,
    TooLarge,
    UnknownElement,
)
from .kernel import ZERO, Distribution, FinSet, Weighting, bind_rows
from .order import FinPoset, filter_violation, powerset_lattice, require_kind


class MonadFamily:
    """One computation monad, given concretely at every small object."""

    name = "abstract"
    base = "set"  # "set" or "poset"
    cap = 4
    enumerable = True  # False: law suites draw from probe_elements instead

    def check_object(self, obj):
        require_kind(obj, FinSet if self.base == "set" else FinPoset, self.name)

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

    def extend(self, dom, cod, graph, t):
        """Kleisli extension, at t, of the arrow whose images in dom's order are graph."""
        raise NotImplementedError

    def code(self, t):
        """t as the law suites intern it: equal codes are equal elements of one object."""
        return t

    def coded_extension(self, dom, cod):
        """extend on codes, prepared per arrow: images' codes in dom's order -> (code -> code)."""
        return partial(partial, self.extend, dom, cod)

    def leq(self, obj, s, t):
        raise UnknownElement(f"{self.name} structures carry no order")

    # derived ---------------------------------------------------------------
    def functor_map(self, dom, cod, h, t):
        return self.extend(dom, cod, [self.unit(cod, h(x)) for x in dom.carrier.elements], t)

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

    def __reduce_ex__(self, protocol):
        # a family compares by identity, so copy and pickle hand back the
        # registered family of the same name, not a new and unequal one
        if FAMILIES.get(self.name) is self:
            return _registered, (self.name,)
        return super().__reduce_ex__(protocol)


class MonadInstance(Frozen):
    """A monad family bound to one object, with the cap already enforced."""

    __slots__ = _fields = ("family", "obj")

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

    def extend(self, dom, cod, graph, t):
        rank, out = dom.carrier.rank(), set()
        for x in t:
            out |= graph[rank[x]]
        return frozenset(out)


# -- plain and double powersets ---------------------------------------------------


class PowersetMonad(SubsetMonad):
    """Nondeterminism: subsets of the carrier under direct image union."""

    name = "powerset"
    base = "set"
    cap = 6

    def elements(self, obj):
        self.check_cap(obj)
        return obj.subsets()

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
        families = _iter_two_valued_maps(obj.subsets())
        return tuple(t for t in families if self.admits(obj, t))

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

    def extend(self, dom, cod, graph, t):
        return self.coded_extension(dom, cod)(graph)(t)

    def coded_extension(self, dom, cod):
        # double dual: B is accepted iff its preimage is; each arrow's pairs are built once
        def prepared(graph):
            masks, pres = {}, dom.subsets()
            for i, image in enumerate(graph):
                for b in image:
                    masks[b] = masks.get(b, 0) | 1 << i
            pairs = [(b, pres[masks.get(b, 0)]) for b in cod.subsets()]
            return lambda t: frozenset([b for b, pre in pairs if pre in t])
        return prepared


class MonotoneNeighbourhoodMonad(NeighbourhoodMonad):
    """Superset-closed families of subsets: the upsets of the powerset
    lattice; same double-dual extension."""

    name = "monotone-neighbourhood"
    cap = 3

    def admits(self, obj, t):
        return powerset_lattice(obj).is_upset(t)


def _is_filter_family(obj, t):
    return filter_violation(powerset_lattice(obj), t) is None


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
    hitting functional dominates the containment one on every open, that is
    when c meets k: k is itself an open, and an open containing k meets c
    wherever k does.
    """

    name = "plotkin"
    base = "poset"
    cap = 4

    def elements(self, obj):
        self.check_cap(obj)
        downs = [d for d in obj.iter_downsets() if d]
        ups = [u for u in obj.iter_upsets() if u]
        return tuple((c, k) for c in downs for k in ups if c & k)

    def contains(self, obj, t):
        if not (isinstance(t, tuple) and len(t) == 2):
            return False
        c, k = t
        return (
            isinstance(c, frozenset)
            and isinstance(k, frozenset)
            and c | k <= obj.carrier.as_frozenset()
            and bool(c & k)
            and obj.is_downset(c)
            and obj.is_upset(k)
        )

    def unit(self, obj, x):
        return (obj.down_set(x), obj.up_set(x))

    def extend(self, dom, cod, graph, t):
        (c, k), rank = t, dom.carrier.rank()
        cs, ks = set(), set()
        for x in c:
            cs |= graph[rank[x]][0]
        for x in k:
            ks |= graph[rank[x]][1]
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
    weighting = Distribution  # the class of the structure elements

    def contains(self, obj, t):
        return isinstance(t, self.weighting) and (t.carrier is obj or t.carrier == obj)

    def unit(self, obj, x):
        return self.weighting.point(obj, x)

    def extend(self, dom, cod, graph, t):
        rank = dom.carrier.rank()
        return t.bind(lambda x: graph[rank[x]], cod)

    code = staticmethod(Weighting.kernel)  # the kernel row

    def coded_extension(self, dom, cod):
        # Weighting.bind's kernel on rows, without its per-image checks
        error = self.weighting._error
        return lambda graph: lambda row: bind_rows(
            row[1], row[2], [graph[i] for i in row[0]], error)

    def probe_elements(self, obj, max_den=4):
        from .effects import iter_distributions

        self.check_object(obj)
        return iter_distributions(obj, max_den, self.weighting)


class FiniteMeasure(Weighting):
    """Probability measure on the full powerset sigma-algebra of finite atoms."""

    __slots__ = ()
    _error = StructureNotPreserved
    _carrier_field = "atoms"
    # its own entry, so that wrapping FiniteMeasure.__post_init__ sees only
    # measures built through the public constructor
    __post_init__ = Weighting.__post_init__

    def __init__(self, atoms, weights):
        super().__init__(atoms, weights)

    @property
    def atoms(self):
        """The finite measurable space: every subset is measurable."""
        return self.carrier

    def __call__(self, measurable):
        measurable = frozenset(measurable)
        for a in measurable:
            self.atoms.require(a)
        return sum((w for a, w in self.weights if a in measurable), ZERO)


class GiryFiniteMonad(DistributionMonad):
    """The probability-measure monad on finite measurable spaces: the
    distribution kernel, and its probes, under its own name."""

    name = "giry"
    weighting = FiniteMeasure


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


def _registered(name):
    """The registered family of that name, as copy and pickle rebuild it."""
    return FAMILIES[name]


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
    subs = x.subsets()
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
    subs = x.subsets()
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


def cba_collapse_check(x):
    """Certify that complete-Boolean 0/1 maps are exactly the point evaluations."""
    maps = complete_ba_maps_to_two(x)
    units = {NEIGHBOURHOOD.unit(x, a) for a in x}
    # maps that are no point evaluation, points missed, and repeated maps
    mismatches = len(set(maps) ^ units) + len(maps) - len(set(maps))
    return Check("complete-BA 0/1 maps are the point evaluations", "exhaustive",
                 len(maps), mismatches,
                 f"{len(maps)} complete-BA maps on a {len(x)}-point carrier"
                 if mismatches else None)


# -- filters of a finite lattice -----------------------------------------------------


class FilterOf(Frozen):
    """A filter of a finite lattice: an upset closed under meets, containing top."""

    __slots__ = _fields = ("ambient", "members")

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        for m in self.members:
            self.ambient.carrier.require(m)
        self.ambient.require_lattice()
        problem = filter_violation(self.ambient, self.members)
        if problem:
            raise StructureNotPreserved(problem)


# -- lens pairs and the three-valued dualizer ------------------------------------------


class LensPair(Frozen):
    """A pair of opens of a finite poset with the outer containing the inner."""

    __slots__ = _fields = ("base", "outer", "inner")

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


def all_lens_pairs(p):
    """Every lens pair over a finite poset, in deterministic order."""
    ups = tuple(p.iter_upsets())
    return tuple(
        LensPair(p, u1, u2) for u1 in ups for u2 in ups if u2 <= u1
    )


# -- expectation functionals -------------------------------------------------------


class Expectation(Frozen):
    """A functional on fuzzy predicates, kept intensional (never enumerated)."""

    __slots__ = _fields = ("carrier", "fn")

    def __call__(self, p):
        if p.carrier != self.carrier:
            raise UnknownElement("predicate lives on the wrong carrier")
        return self.fn(p)

    def indicator_table(self):
        """Values on the point indicators; determines the functional if linear."""
        return indicator_probe(self.fn, self.carrier)


def indicator_probe(fn, carrier):
    """fn at each point indicator of carrier, in carrier order: how a functional
    or an expectation transformer is read back."""
    from .effects import FuzzyPredicate

    return tuple(fn(FuzzyPredicate.indicator(carrier, {x})) for x in carrier.elements)


def expectation_embed(omega):
    """Expected value (integral) against a distribution or finite measure."""
    from .effects import expectation

    return Expectation(omega.carrier, partial(expectation, omega.weights))


def expectation_unit(carrier, x):
    carrier.require(x)
    return Expectation(carrier, lambda p: p(x))


def expectation_bind(carrier_out, kernel, h):
    """Extension on the functional side: run the outer functional over the
    pointwise values of the inner ones."""
    from .effects import FuzzyPredicate

    def fn(q):
        inner = FuzzyPredicate(
            h.carrier, tuple(kernel(x)(q) for x in h.carrier.elements)
        )
        return h(inner)

    return Expectation(carrier_out, fn)


# -- finite Giry isomorphism -------------------------------------------------------


def measure_of_functional(i, atoms):
    """Recover a measure by evaluating the functional on indicator predicates."""
    return FiniteMeasure(atoms, tuple(zip(atoms.elements, indicator_probe(i, atoms))))


def distribution_to_measure(omega):
    return FiniteMeasure(omega.carrier, omega.weights)
