"""Finite sets, finite posets, monotone maps, and lattice machinery.

Carriers are tiny and immutable; subsets are frozensets; every structural
claim (partial order axioms, monotonicity, join preservation, ...) is checked
by exhaustive enumeration at construction time rather than trusted.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache

from .check import Frozen, _set
from .errors import (
    CycleError,
    NotJoinPreserving,
    NotMonotone,
    NotTransitive,
    StructureNotPreserved,
    TooLarge,
    UnknownElement,
    UnknownName,
)
from .kernel import FinSet, _require_small, atom_key, atom_repr

# Candidate budget for enumerate_structure_maps: counted before allocation.
DEFAULT_MAP_BUDGET = 2 ** 24

STRUCTURE_SELECTORS = (
    "monotone",
    "join-preserving",
    "meet-preserving",
    "join+top",
    "meet+top",
    "frame",
    "preframe+0",
    "plotkin-hom",
)


class FinPoset:
    """Finite partial order; reflexivity/transitivity/antisymmetry are verified.

    ``_cache`` holds what is derived from the order, each built on first use:
    ``bottom`` and ``top`` (None when absent), ``is_lattice``, the ``upsets``
    and ``downsets`` tuples in subset mask order, the ``join_irr`` and
    ``meet_irr`` tuples, and the index tables: ``index`` numbers the elements
    in ``elements`` order, ``join`` and ``meet`` hold, in row i and column j,
    the index of the bound of elements i and j (-1 where it does not exist),
    and ``leq_pairs`` lists the index pairs (i, j) with element i <= element j.
    A lattice's ``plotkin`` entry is its PlotkinAlgebra.
    """

    __slots__ = ("carrier", "_down", "_up", "_cache", "_hash")

    def __init__(self, carrier, leq_pairs):
        if not isinstance(carrier, FinSet):
            carrier = FinSet(carrier)
        self.carrier = carrier
        down = {x: {x} for x in carrier}
        for (a, b) in leq_pairs:
            carrier.require(a)
            carrier.require(b)
            down[b].add(a)
        self._down = {y: frozenset(s) for y, s in down.items()}
        up = {x: set() for x in carrier}
        for y, below in self._down.items():
            for x in below:
                up[x].add(y)
        self._up = {x: frozenset(s) for x, s in up.items()}
        self._cache, self._hash = {}, None
        self._validate()

    def _validate(self):
        down, rank = self._down, self.carrier.rank()
        # pairs in carrier order, as down is built: the first broken one is named under any seed
        for y, below in down.items():
            for x in sorted(below, key=rank.__getitem__):
                if x != y and y in down[x]:
                    x, y = atom_repr(x), atom_repr(y)
                    raise CycleError(f"{x} <= {y} and {y} <= {x}")
                if not down[x] <= below:
                    x, y = atom_repr(x), atom_repr(y)
                    raise NotTransitive(f"order is not transitive at {x} <= {y}")

    # -- basics ------------------------------------------------------------

    @property
    def elements(self):
        return self.carrier.elements

    def __len__(self):
        return len(self.carrier)

    def __iter__(self):
        return iter(self.carrier)

    def __contains__(self, x):
        return x in self.carrier

    def __eq__(self, other):
        return (
            isinstance(other, FinPoset)
            and self.carrier == other.carrier
            and self._down == other._down
        )

    def __hash__(self):
        if self._hash is None:
            pairs = frozenset((x, y) for y, below in self._down.items() for x in below)
            self._hash = hash(("FinPoset", self.carrier, pairs))
        return self._hash

    def __reduce__(self):
        # rebuilt from its covers, leaving the cache and the hash (which follows the hash seed)
        return make_poset, (self.elements, self.cover_pairs())

    def __repr__(self):
        elems, covers = (", ".join(map(atom_repr, items))
                         for items in (self.elements, self.cover_pairs()))
        return f"FinPoset([{elems}], covers=[{covers}])"

    def leq(self, x, y):
        """Whether x <= y; UnknownElement names the first of them that is not an element."""
        members = self.carrier._members
        if x in members and y in members:
            return x in self._down[y]
        self.carrier.require(x)
        self.carrier.require(y)

    def leq_pairs(self):
        """Every index pair (i, j) with elements[i] <= elements[j], in (i, j) order."""
        if "leq_pairs" not in self._cache:
            elems = self.elements
            self._cache["leq_pairs"] = tuple(
                (i, j) for i, x in enumerate(elems) for j, y in enumerate(elems)
                if y in self._up[x])
        return self._cache["leq_pairs"]

    def up_set(self, x):
        """Principal upset of x."""
        self.carrier.require(x)
        return self._up[x]

    def down_set(self, x):
        """Principal downset of x."""
        self.carrier.require(x)
        return self._down[x]

    def cover_pairs(self):
        """Pairs (x, y) where y covers x, sorted canonically: x < y with nothing between."""
        pairs = [(x, y) for x in self for y in self._up[x]
                 if x != y and self._up[x] & self._down[y] == {x, y}]
        return sorted(pairs, key=lambda p: (atom_key(p[0]), atom_key(p[1])))

    def linear_extension(self):
        """Deterministic topological order of the carrier."""
        return tuple(
            sorted(self.elements, key=lambda x: (len(self._down[x]), atom_key(x)))
        )

    # -- subsets -----------------------------------------------------------

    def is_upset(self, members):
        return all(self._up[x] <= members for x in members)

    def is_downset(self, members):
        return all(self._down[x] <= members for x in members)

    def iter_upsets(self):
        """Every upset, in the carrier's subset mask order."""
        return self._closed_subsets("upsets", self.is_upset)

    def iter_downsets(self):
        """Every downset, in the carrier's subset mask order."""
        return self._closed_subsets("downsets", self.is_downset)

    def _closed_subsets(self, key, closed):
        _require_small(self)
        if key not in self._cache:
            self._cache[key] = tuple(s for s in self.carrier.subsets() if closed(s))
        return self._cache[key]

    # -- lattice structure ---------------------------------------------------

    def bottom(self):
        if "bottom" not in self._cache:
            bots = [x for x in self if len(self._up[x]) == len(self)]
            self._cache["bottom"] = bots[0] if bots else None
        return self._cache["bottom"]

    def top(self):
        if "top" not in self._cache:
            tops = [x for x in self if len(self._down[x]) == len(self)]
            self._cache["top"] = tops[0] if tops else None
        return self._cache["top"]

    def join(self, x, y):
        """Least upper bound, or None if it does not exist."""
        return self._bound("join", x, y)

    def meet(self, x, y):
        """Greatest lower bound, or None if it does not exist."""
        return self._bound("meet", x, y)

    def _bound(self, key, x, y):
        index, table = self.carrier.rank(), self._cache.get(key) or self._table(key)
        if x not in index or y not in index:  # UnknownElement, as leq raises it
            self.carrier.require(x)
            self.carrier.require(y)
        k = table[index[x]][index[y]]
        return self.carrier.elements[k] if k >= 0 else None

    def _table(self, key):
        """The join or meet table: the bound of two elements is the one common
        cone element whose cone holds all the common ones."""
        if key not in self._cache:
            cone = self._up if key == "join" else self._down
            index, elems = self.carrier.rank(), self.elements
            self._cache[key] = tuple(tuple(
                index[best[0]] if len(best) == 1 else -1
                for y in elems for common in [cone[x] & cone[y]]
                for best in [[u for u in common if common <= cone[u]]]) for x in elems)
        return self._cache[key]

    def is_lattice(self):
        if "is_lattice" not in self._cache:
            self._cache["is_lattice"] = len(self) > 0 and not any(
                -1 in row for key in ("join", "meet") for row in self._table(key))
        return self._cache["is_lattice"]

    def require_lattice(self):
        if not self.is_lattice():
            raise StructureNotPreserved(f"{self!r} is not a lattice")

    def bigjoin(self, items):
        """Join of any family; the empty join is the bottom element."""
        self.require_lattice()
        acc = self.bottom()
        for x in items:
            acc = self.join(acc, x)
        return acc

    def join_irreducibles(self):
        """Elements with exactly one lower cover (excludes the bottom)."""
        return self._irreducibles("join_irr", 1)

    def meet_irreducibles(self):
        """Elements with exactly one upper cover (excludes the top)."""
        return self._irreducibles("meet_irr", 0)

    def _irreducibles(self, key, side):
        """Elements standing at the given side of exactly one cover pair."""
        self.require_lattice()
        if key not in self._cache:
            covers = self.cover_pairs()
            self._cache[key] = tuple(
                x for x in self.elements if sum(p[side] == x for p in covers) == 1
            )
        return self._cache[key]


# -- constructors ------------------------------------------------------------


def make_poset(elements, covers=()):
    """Build a poset from declared elements and cover pairs (a < b).

    The reflexive-transitive closure is taken automatically; a cover of an
    element by itself, or a closure that violates antisymmetry, raises
    CycleError.
    """
    base = FinSet(elements)
    succs = {x: set() for x in base}
    for (a, b) in covers:
        base.require(a)
        base.require(b)
        if a == b:
            raise CycleError(f"cover {atom_repr(a)} < {atom_repr(b)} is not strict")
        succs[a].add(b)
    # reflexive-transitive closure by saturation
    down = {x: {x} for x in base}
    changed = True
    while changed:
        changed = False
        for a in base:
            for b in succs[a]:
                new = down[a] - down[b]
                if new:
                    down[b] |= new
                    changed = True
    pairs = []
    for y in base:
        for x in down[y]:
            if x != y and y in down[x]:
                x, y = atom_repr(x), atom_repr(y)
                raise CycleError(f"covers induce a cycle through {x} and {y}")
            pairs.append((x, y))
    return FinPoset(base, pairs)


def chain(labels):
    labels = tuple(labels)
    return make_poset(labels, list(zip(labels, labels[1:])))


def antichain(labels):
    return make_poset(tuple(labels), [])


@lru_cache(maxsize=None)
def powerset_lattice(finset):
    """All subsets of a FinSet ordered by inclusion."""
    _require_small(require_kind(finset, FinSet, "powerset_lattice"))
    return _inclusion_order(finset.subsets())


def require_kind(obj, kind, user):
    """obj, if it is a ``kind`` object (FinSet or FinPoset); else UnknownElement."""
    if not isinstance(obj, kind):
        raise UnknownElement(f"{user} acts on {kind.__name__} objects, got {type(obj).__name__}")
    return obj


def _inclusion_order(family):
    """A family of subsets ordered by inclusion."""
    fam = list(family)
    return FinPoset(FinSet(fam), [(a, b) for a in fam for b in fam if a <= b])


@lru_cache(maxsize=None)
def upsets(poset):
    """The poset of all upsets ordered by inclusion (a complete lattice)."""
    return _inclusion_order(require_kind(poset, FinPoset, "upsets").iter_upsets())


@lru_cache(maxsize=None)
def downsets(poset):
    """The poset of all downsets ordered by inclusion."""
    return _inclusion_order(require_kind(poset, FinPoset, "downsets").iter_downsets())


# -- subsets with a declared kind ---------------------------------------------


class SubsetOf(Frozen):
    """A subset of a carrier, tagged plain, upset, or downset (and checked)."""

    __slots__ = _fields = ("ambient", "members", "kind")
    _defaults = ("plain",)

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        for x in self.members:
            self.ambient.carrier.require(x)
        if self.kind not in ("plain", "upset", "downset"):
            raise UnknownName(f"unknown subset kind {self.kind!r}")
        if self.kind != "plain":
            if not isinstance(self.ambient, FinPoset):
                raise StructureNotPreserved("kinded subsets need a poset ambient")
            closed = self.ambient.is_upset if self.kind == "upset" else self.ambient.is_downset
            if not closed(self.members):
                members = ", ".join(map(atom_repr, sorted(self.members, key=atom_key)))
                kind = "an upset" if self.kind == "upset" else "a downset"
                raise StructureNotPreserved(f"members [{members}] do not form {kind}")

    def __iter__(self):
        return iter(sorted(self.members, key=atom_key))

    def __len__(self):
        return len(self.members)


def down_closure(poset, members):
    """Least downset containing the given members."""
    if isinstance(members, SubsetOf):
        members = members.members
    closed = set()
    for x in members:
        closed |= poset.down_set(x)
    return SubsetOf(poset, frozenset(closed), "downset")


# -- monotone maps -------------------------------------------------------------


def monotone_violation(dom, leq, graph):
    """The monotonicity walk of MonotoneMap and triangle.KleisliArrow: the
    first (x, y, image of x, image of y) with x <= y but not leq(images), or None."""
    for i, j in dom.leq_pairs():
        if not leq(graph[i], graph[j]):
            return dom.elements[i], dom.elements[j], graph[i], graph[j]
    return None


class MonotoneMap(Frozen):
    """Total monotone function between finite posets.

    ``kept``, a slot and no field, names the lattice selectors the map has
    been verified to keep, by has_structure or enumerate_structure_maps; it
    records passes only.  Equality, hash, repr, copy and pickle ignore it, so
    a copy or an unpickled map starts with none and is walked again."""

    __slots__ = ("dom", "cod", "graph", "kept")
    _fields = ("dom", "cod", "graph")

    # Maps are built, hashed and compared in the enumerators' inner loops, so
    # the record's methods are written out here, field by field.
    def __init__(self, dom, cod, graph):
        _set(self, "dom", dom)
        _set(self, "cod", cod)
        _set(self, "graph", graph)
        _set(self, "kept", ())
        self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.dom, self.cod, self.graph) == (other.dom, other.cod, other.graph)
        return NotImplemented

    def __hash__(self):
        return hash((self.dom, self.cod, self.graph))

    def __post_init__(self):
        if len(self.graph) != len(self.dom):
            raise UnknownElement("graph length does not match the domain")
        for v in self.graph:
            self.cod.carrier.require(v)
        bad = monotone_violation(self.dom, self.cod.leq, self.graph)
        if bad:
            x, y, a, b = map(atom_repr, bad)
            raise NotMonotone(f"{x} <= {y} but images {a}, {b} are not ordered")

    @classmethod
    def _trusted(cls, dom, cod, graph, kept=()):
        """A map whose enumerator guarantees its graph monotone into cod, and
        keeping the selectors in ``kept``: not walked again."""
        m = object.__new__(cls)
        _set(m, "dom", dom)
        _set(m, "cod", cod)
        _set(m, "graph", graph)
        _set(m, "kept", kept)
        return m

    @classmethod
    def from_dict(cls, dom, cod, mapping):
        return cls(dom, cod, tuple(mapping[x] for x in dom.elements))

    @classmethod
    def from_callable(cls, dom, cod, fn):
        return cls(dom, cod, tuple(fn(x) for x in dom.elements))

    def __call__(self, x):
        return self.graph[self.dom.carrier.index(x)]

    def as_dict(self):
        return dict(zip(self.dom.elements, self.graph))


# -- the two order-dual halves of a lattice -------------------------------------

# Every join/meet construction below is written once against one half: the
# key of the binary operation's index table, its unit (the empty case), the
# irreducibles that generate the lattice under it, and side(L, a), the
# elements on the unit's side of a (below a for joins, above it for meets).
_Half = namedtuple("_Half", "op unit irreducibles side")
_JOIN = _Half("join", FinPoset.bottom, FinPoset.join_irreducibles, FinPoset.down_set)
_MEET = _Half("meet", FinPoset.top, FinPoset.meet_irreducibles, FinPoset.up_set)


def _commutes(v, dom_table, cod_table):
    """Does the index vector v commute with the two tables' binary operation?
    Every table here is symmetric, so one pair in each orbit is enough."""
    return all(v[dom_table[i][j]] == cod_table[v[i]][v[j]]
               for i, j in itertools.combinations_with_replacement(range(len(v)), 2))


def right_adjoint(m):
    """Right adjoint of a join-preserving map between finite lattices.

    Sends b to the join of everything mapped below b; the Galois property
    is then verified exhaustively before returning.
    """
    if not has_structure(m, "join-preserving"):
        raise NotJoinPreserving(f"{atom_repr(m.as_dict())} does not preserve joins")
    dom, cod = m.dom, m.cod
    adj = MonotoneMap.from_callable(
        cod, dom, lambda b: dom.bigjoin(x for x in dom if cod.leq(m(x), b))
    )
    for a in dom:
        for b in cod:
            if cod.leq(m(a), b) != dom.leq(a, adj(b)):
                raise NotJoinPreserving("Galois condition failed after construction")
    return adj


# The dualizing object 2, the chain 0 < 1; transformers.OMEGA shares it.
TWO = chain((0, 1))


# -- Plotkin algebras over a frame ---------------------------------------------


class PlotkinAlgebra(Frozen):
    """Pairs (a, b) with a >= b in a finite frame, under the product order.

    Carries the erratic sum (join on the left, meet on the right) with the
    mixed pair (top, bottom) absorbing; ``sums`` tables it by index into
    ``poset.elements``, as FinPoset tables join and meet.
    """

    __slots__ = _fields = ("frame", "poset", "sums")
    _hidden = ("sums",)

    @classmethod
    def over(cls, frame):
        """The algebra over frame, built once and kept in the frame's cache."""
        if "plotkin" not in frame._cache:
            frame.require_lattice()
            _require_small(frame)
            leq = frame.leq
            elems = [(a, b) for a in frame for b in frame if leq(b, a)]
            poset = FinPoset(FinSet(elems), [
                (s, t) for s in elems for t in elems if leq(s[0], t[0]) and leq(s[1], t[1])])
            index = poset.carrier.rank()
            frame._cache["plotkin"] = cls(frame, poset, tuple(
                tuple(index[frame.join(s[0], t[0]), frame.meet(s[1], t[1])]
                      for t in poset.elements) for s in poset.elements))
        return frame._cache["plotkin"]

    @property
    def mix(self):
        return (self.frame.top(), self.frame.bottom())

    @property
    def zero(self):
        b = self.frame.bottom()
        return (b, b)

    @property
    def one(self):
        t = self.frame.top()
        return (t, t)

    def in_left(self, x):
        return (x, self.frame.bottom())

    def in_right(self, y):
        return (self.frame.top(), y)


def plotkin_law_violation(dom_alg, cod_alg, graph):
    """The Plotkin-algebra map laws (bounds, mixed element, erratic sum) on a
    graph in dom_alg.poset's order: the first one broken, as a message, or None."""
    rank = dom_alg.poset.carrier.rank()
    if graph[rank[dom_alg.zero]] != cod_alg.zero or graph[rank[dom_alg.one]] != cod_alg.one:
        return "bounds are not preserved"
    if graph[rank[dom_alg.mix]] != cod_alg.mix:
        return "the mixed element is not preserved"
    index = cod_alg.poset.carrier.rank()
    if not _commutes([*map(index.__getitem__, graph)], dom_alg.sums, cod_alg.sums):
        return "the erratic sum is not preserved"
    return None


def filter_violation(lattice, members):
    """The filter laws (top, upset, meet-closed) on a set of lattice elements:
    the first one broken, as a message, or None."""
    if lattice.top() not in members:
        return "filter must contain the top element"
    if not lattice.is_upset(members):
        return "filter must be an upset"
    if not all(lattice.meet(a, b) in members for a in members for b in members):
        return "filter must be closed under meets"
    return None


# -- structure-map enumeration ---------------------------------------------------


def _budget_check(bound, budget):
    if bound > budget:
        raise TooLarge(f"candidate space of size {bound} exceeds budget {budget}")


def _monotone_vectors(dom, cod, points, fixed=None):
    """Backtracking generator of the monotone assignments points -> cod, as
    tuples of cod indices aligned with points.  The points are visited in a
    linear extension of dom, each trying cod's elements in order; a value is
    kept when it lies in the up cone, a bit mask, of every value assigned
    below it (those points found once per call).  fixed pins some points."""
    index, n = cod.carrier.rank(), len(cod)
    ups = [sum(1 << index[y] for y in cod._up[x]) for x in cod.elements]
    slot = {p: k for k, p in enumerate(points)}
    order = [p for p in dom.linear_extension() if p in slot]
    fixed = fixed or {}
    steps = [(slot[p], [slot[q] for q in order[:i] if q in dom._down[p]],
              1 << index[fixed[p]] if p in fixed else (1 << n) - 1)
             for i, p in enumerate(order)]
    value = [0] * len(slot)

    def rec(i):
        if i == len(steps):
            yield tuple(value)
            return
        k, lowers, allowed = steps[i]
        for q in lowers:
            allowed &= ups[value[q]]
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            value[k] = low.bit_length() - 1
            yield from rec(i + 1)

    return rec(0)


def monotone_graphs(dom, cod, budget=DEFAULT_MAP_BUDGET):
    """Graphs (aligned with dom.elements) of the monotone maps dom -> cod, in
    enumeration order; TooLarge at the call if a poset is over MAX_POSET_SIZE
    or the candidates over the budget."""
    _require_small(dom)
    _require_small(cod)
    _budget_check(max(len(cod), 1) ** len(dom), budget)
    elems = cod.elements
    return (tuple(map(elems.__getitem__, v)) for v in _monotone_vectors(dom, cod, dom.elements))


def _iter_plotkin_hom_graphs(dom_alg, cod_alg, budget):
    """Maps of Plotkin algebras, generated from their diagonal restrictions.

    Every pair (a, b) with a >= b equals (a, a) amalg (b, b), so a
    structure-preserving map is fixed by its values on diagonals; candidates
    are extended from there and every algebra law is then checked directly.
    """
    frame = dom_alg.frame
    _budget_check(len(cod_alg.poset) ** len(frame), budget)
    fixed = {frame.bottom(): cod_alg.zero, frame.top(): cod_alg.one}
    rank, elems = frame.carrier.rank(), cod_alg.poset.elements
    pairs = [(rank[a], rank[b]) for a, b in dom_alg.poset.elements]
    for v in _monotone_vectors(frame, cod_alg.poset, frame.elements, fixed):
        graph = tuple((elems[v[i]][0], elems[v[j]][1]) for i, j in pairs)
        if plotkin_law_violation(dom_alg, cod_alg, graph) is None:
            yield graph


# lattice selector -> (the half whose irreducibles generate its maps, whether
# they also keep the dual half's unit, whether they also keep its operation)
_LATTICE_SELECTORS = {
    "join-preserving": (_JOIN, False, False),
    "join+top": (_JOIN, True, False),
    "frame": (_JOIN, True, True),
    "meet-preserving": (_MEET, False, False),
    "meet+top": (_MEET, False, False),
    "preframe+0": (_MEET, True, False),
}


def _keeps_vector(dom, cod, v, selector):
    """Does the index vector v keep what the lattice selector names: all of
    its half, and the dual half's unit or operation where the selector says
    so?  The unit tests run first, then the pair walks."""
    half, keeps_unit, keeps_op = _LATTICE_SELECTORS[selector]
    dual = _MEET if half is _JOIN else _JOIN
    di, ci = dom.carrier.rank(), cod.carrier.rank()
    return (
        v[di[half.unit(dom)]] == ci[half.unit(cod)]
        and (not keeps_unit or v[di[dual.unit(dom)]] == ci[dual.unit(cod)])
        and _commutes(v, dom._table(half.op), cod._table(half.op))
        and (not keeps_op or _commutes(v, dom._table(dual.op), cod._table(dual.op))))


def has_structure(m, selector):
    """Is the monotone map m one that enumerate_structure_maps lists under
    selector?  Any monotone map is "monotone"; the lattice selectors are
    checked on every pair of the domain, once per map object: a pass is
    recorded in ``m.kept`` and answered from there, a failure is walked again.
    The one test of a given map's joins and meets, for right_adjoint and the
    transformers module."""
    if selector == "monotone" or selector in m.kept:
        return True
    m.dom.require_lattice()
    m.cod.require_lattice()
    v = [*map(m.cod.carrier.rank().__getitem__, m.graph)]
    if _keeps_vector(m.dom, m.cod, v, selector):
        _set(m, "kept", (*m.kept, selector))
        return True
    return False


def enumerate_structure_maps(dom, cod, selector, budget=DEFAULT_MAP_BUDGET):
    """Complete, duplicate-free list of maps dom -> cod with the given structure.

    Selectors: monotone, join-preserving, meet-preserving, join+top, meet+top,
    frame, preframe+0, plotkin-hom.  On finite lattices "meet+top" coincides
    with meet-preserving (every meet is a finite meet); both names are kept.
    The candidate space is counted before any allocation and TooLarge is
    raised when it exceeds the budget.
    """
    if selector not in STRUCTURE_SELECTORS:
        raise UnknownName(f"unknown selector {selector!r}")

    if selector == "plotkin-hom":
        if not isinstance(dom, PlotkinAlgebra) or not isinstance(cod, PlotkinAlgebra):
            raise TypeError("plotkin-hom expects PlotkinAlgebra arguments")
        graphs = _iter_plotkin_hom_graphs(dom, cod, budget)
        return tuple(MonotoneMap(dom.poset, cod.poset, g) for g in graphs)

    if selector == "monotone":
        return tuple(MonotoneMap._trusted(dom, cod, g) for g in monotone_graphs(dom, cod, budget))

    _require_small(dom)
    _require_small(cod)
    dom.require_lattice()
    cod.require_lattice()
    # a map preserving all of one half is the extension of its values on
    # that half's irreducibles: each element goes to the big operation over
    # the irreducibles on the unit's side of it, folded in cod's index table
    half = _LATTICE_SELECTORS[selector][0]
    gens = half.irreducibles(dom)
    _budget_check(max(len(cod), 1) ** len(gens), budget)
    table, unit, elems = cod._table(half.op), cod.carrier.rank()[half.unit(cod)], cod.elements
    sides = [[k for k, j in enumerate(gens) if j in half.side(dom, x)] for x in dom.elements]
    out, kept = [], (selector,)
    for assign in _monotone_vectors(dom, cod, gens):
        v = []
        for side in sides:
            acc = unit
            for k in side:
                acc = table[acc][assign[k]]
            v.append(acc)
        if _keeps_vector(dom, cod, v, selector):
            # a map keeping joins or meets is monotone
            out.append(MonotoneMap._trusted(dom, cod, tuple(map(elems.__getitem__, v)), kept))
    return tuple(out)


# -- poset inventories ------------------------------------------------------------


def iter_posets(n):
    """All posets on labels 0..n-1 whose order respects the label order.

    Built by repeatedly attaching a new maximal element above a downset of
    the poset built so far; every naturally labelled poset arises exactly
    once, and every isomorphism class has at least one natural labelling.
    """
    if n == 0:
        yield make_poset([])
        return

    def rec(k, downs):
        if k == n:
            yield FinPoset(FinSet(range(n)), [(x, y) for y in range(n) for x in downs[y]])
            return
        for mask in range(1 << k):
            cand = frozenset(i for i in range(k) if mask >> i & 1)
            if all(downs[i] <= cand for i in cand):
                # cand is a downset of the poset built so far
                yield from rec(k + 1, downs + [cand])

    yield from rec(0, [])


def poset_canonical_key(poset):
    """Isomorphism-invariant key (minimum relation matrix over relabelings)."""
    n = len(poset)
    if n > 7:
        raise TooLarge("canonical keys are only computed for posets up to 7 points")
    elems = poset.elements
    pairs = [(i, j) for i in range(n) for j in range(n) if poset.leq(elems[i], elems[j])]
    return n, min(tuple(sorted((perm[i], perm[j]) for i, j in pairs))
                  for perm in itertools.permutations(range(n)))


@lru_cache(maxsize=None)
def all_posets(max_size):
    """Posets with at most max_size elements, one per isomorphism class."""
    out = []
    seen = set()
    for n in range(max_size + 1):
        for p in iter_posets(n):
            key = poset_canonical_key(p)
            if key in seen:
                continue
            seen.add(key)
            out.append(p)
    return tuple(out)
