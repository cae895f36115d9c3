"""Finite sets, finite posets, monotone maps, and lattice machinery.

Carriers are tiny and immutable; subsets are frozensets; every structural
claim (partial order axioms, monotonicity, join preservation, ...) is checked
by exhaustive enumeration at construction time rather than trusted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    CycleError,
    NotJoinPreserving,
    NotMonotone,
    StructureNotPreserved,
    TooLarge,
    UnknownElement,
)

# Substrate operations (upset/downset/map enumeration) refuse larger posets.
MAX_POSET_SIZE = 8

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


def atom_key(value):
    """Deterministic sort key across every atom shape stored in carriers."""
    if isinstance(value, bool):
        return (0, int(value))
    if isinstance(value, (int, Fraction)):
        return (0, value)
    if isinstance(value, str):
        return (1, value)
    if isinstance(value, frozenset):
        return (2, len(value), tuple(sorted(atom_key(v) for v in value)))
    if isinstance(value, tuple):
        return (3, len(value), tuple(atom_key(v) for v in value))
    raise TypeError(f"cannot order atoms of type {type(value).__name__}")


class FinSet:
    """Immutable finite set with one canonical iteration order."""

    __slots__ = ("elements", "_members")

    def __init__(self, elements=()):
        members = frozenset(elements)
        self._members = members
        self.elements = tuple(sorted(members, key=atom_key))

    def __contains__(self, x):
        return x in self._members

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return isinstance(other, FinSet) and self._members == other._members

    def __hash__(self):
        return hash(("FinSet", self._members))

    def __repr__(self):
        return f"FinSet({list(self.elements)!r})"

    def require(self, x):
        if x not in self._members:
            raise UnknownElement(f"{x!r} is not an element of {self!r}")

    def index(self, x):
        self.require(x)
        return self.elements.index(x)

    def subsets(self):
        """All subsets as frozensets, in deterministic mask order."""
        n = len(self.elements)
        for mask in range(1 << n):
            yield frozenset(self.elements[i] for i in range(n) if mask >> i & 1)

    def as_frozenset(self):
        return self._members

    @property
    def carrier(self):
        """A set is its own carrier, so every object answers ``.carrier``."""
        return self


class FinPoset:
    """Finite partial order; reflexivity/transitivity/antisymmetry are verified."""

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
        self._cache = {}
        self._hash = None
        self._validate()

    def _validate(self):
        down = self._down
        for y, below in down.items():
            for x in below:
                if x != y and y in down[x]:
                    raise CycleError(f"{x!r} <= {y!r} and {y!r} <= {x!r}")
                if not down[x] <= below:
                    raise ValueError(f"order is not transitive at {x!r} <= {y!r}")

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
            pairs = frozenset(
                (x, y) for y, below in self._down.items() for x in below
            )
            self._hash = hash(("FinPoset", self.carrier, pairs))
        return self._hash

    def __repr__(self):
        return f"FinPoset({list(self.elements)!r}, covers={self.cover_pairs()!r})"

    def leq(self, x, y):
        self.carrier.require(x)
        self.carrier.require(y)
        return x in self._down[y]

    def lt(self, x, y):
        return x != y and self.leq(x, y)

    def up_set(self, x):
        """Principal upset of x."""
        self.carrier.require(x)
        return self._up[x]

    def down_set(self, x):
        """Principal downset of x."""
        self.carrier.require(x)
        return self._down[x]

    def cover_pairs(self):
        """Pairs (x, y) where y covers x, sorted canonically."""
        pairs = []
        for x in self:
            for y in self._up[x]:
                if x == y:
                    continue
                between = [z for z in self._up[x] & self._down[y] if z not in (x, y)]
                if not between:
                    pairs.append((x, y))
        return sorted(pairs, key=lambda p: (atom_key(p[0]), atom_key(p[1])))

    def linear_extension(self):
        """Deterministic topological order of the carrier."""
        return tuple(
            sorted(self.elements, key=lambda x: (len(self._down[x]), atom_key(x)))
        )

    def op(self):
        """Same carrier with the order reversed."""
        pairs = [(y, x) for y, below in self._down.items() for x in below]
        return FinPoset(self.carrier, pairs)

    # -- subsets -----------------------------------------------------------

    def is_upset(self, members):
        return all(self._up[x] <= members for x in members)

    def is_downset(self, members):
        return all(self._down[x] <= members for x in members)

    def iter_upsets(self):
        _require_small(self)
        for s in self.carrier.subsets():
            if self.is_upset(s):
                yield s

    def iter_downsets(self):
        _require_small(self)
        for s in self.carrier.subsets():
            if self.is_downset(s):
                yield s

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
        uppers = self._up[x] & self._up[y]
        least = [u for u in uppers if uppers <= self._up[u]]
        return least[0] if len(least) == 1 else None

    def meet(self, x, y):
        lowers = self._down[x] & self._down[y]
        greatest = [l for l in lowers if lowers <= self._down[l]]
        return greatest[0] if len(greatest) == 1 else None

    def is_lattice(self):
        if "is_lattice" not in self._cache:
            ok = len(self) > 0
            for x, y in itertools.combinations(self.elements, 2):
                if not ok:
                    break
                if self.join(x, y) is None or self.meet(x, y) is None:
                    ok = False
            self._cache["is_lattice"] = ok
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

    def bigmeet(self, items):
        self.require_lattice()
        acc = self.top()
        for x in items:
            acc = self.meet(acc, x)
        return acc

    def join_irreducibles(self):
        """Elements with exactly one lower cover (excludes the bottom)."""
        self.require_lattice()
        if "join_irr" not in self._cache:
            covers = self.cover_pairs()
            self._cache["join_irr"] = tuple(
                x for x in self.elements
                if len([a for (a, b) in covers if b == x]) == 1
            )
        return self._cache["join_irr"]

    def meet_irreducibles(self):
        """Elements with exactly one upper cover (excludes the top)."""
        self.require_lattice()
        if "meet_irr" not in self._cache:
            covers = self.cover_pairs()
            self._cache["meet_irr"] = tuple(
                x for x in self.elements
                if len([b for (a, b) in covers if a == x]) == 1
            )
        return self._cache["meet_irr"]


def _require_small(poset, limit=MAX_POSET_SIZE):
    if len(poset) > limit:
        raise TooLarge(
            f"poset has {len(poset)} elements; substrate cap is {limit}"
        )


# -- constructors ------------------------------------------------------------


def make_poset(elements, covers=()):
    """Build a poset from declared elements and cover pairs (a < b).

    The reflexive-transitive closure is taken automatically; a closure that
    violates antisymmetry raises CycleError.
    """
    base = FinSet(elements)
    succs = {x: set() for x in base}
    for (a, b) in covers:
        base.require(a)
        base.require(b)
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
                raise CycleError(f"covers induce a cycle through {x!r} and {y!r}")
            pairs.append((x, y))
    return FinPoset(base, pairs)


def chain(labels):
    labels = tuple(labels)
    return make_poset(labels, list(zip(labels, labels[1:])))


def antichain(labels):
    return make_poset(tuple(labels), [])


def discrete(finset):
    """A FinSet viewed as a discrete poset."""
    if isinstance(finset, FinSet):
        return antichain(finset.elements)
    return antichain(finset)


@lru_cache(maxsize=None)
def powerset_lattice(finset):
    """All subsets of a FinSet ordered by inclusion."""
    if not isinstance(finset, FinSet):
        raise TypeError("powerset_lattice expects a FinSet")
    _require_small_set(finset)
    subs = list(finset.subsets())
    pairs = [(a, b) for a in subs for b in subs if a <= b]
    return FinPoset(FinSet(subs), pairs)


def _require_small_set(finset, limit=MAX_POSET_SIZE):
    if len(finset) > limit:
        raise TooLarge(
            f"set has {len(finset)} elements; substrate cap is {limit}"
        )


@lru_cache(maxsize=None)
def upsets(poset):
    """The poset of all upsets ordered by inclusion (a complete lattice)."""
    fam = list(poset.iter_upsets())
    pairs = [(a, b) for a in fam for b in fam if a <= b]
    return FinPoset(FinSet(fam), pairs)


@lru_cache(maxsize=None)
def downsets(poset):
    """The poset of all downsets ordered by inclusion."""
    fam = list(poset.iter_downsets())
    pairs = [(a, b) for a in fam for b in fam if a <= b]
    return FinPoset(FinSet(fam), pairs)


# -- subsets with a declared kind ---------------------------------------------


@dataclass(frozen=True)
class SubsetOf:
    """A subset of a carrier, tagged plain, upset, or downset (and checked)."""

    ambient: object
    members: frozenset
    kind: str = "plain"

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        for x in self.members:
            self.ambient.carrier.require(x)
        if self.kind not in ("plain", "upset", "downset"):
            raise ValueError(f"unknown subset kind {self.kind!r}")
        if self.kind != "plain":
            if not isinstance(self.ambient, FinPoset):
                raise StructureNotPreserved("kinded subsets need a poset ambient")
            ok = (
                self.ambient.is_upset(self.members)
                if self.kind == "upset"
                else self.ambient.is_downset(self.members)
            )
            if not ok:
                raise StructureNotPreserved(
                    f"members {sorted(self.members, key=atom_key)!r} "
                    f"do not form a {self.kind}"
                )

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


def up_closure(poset, members):
    """Least upset containing the given members."""
    if isinstance(members, SubsetOf):
        members = members.members
    closed = set()
    for x in members:
        closed |= poset.up_set(x)
    return SubsetOf(poset, frozenset(closed), "upset")


# -- monotone maps -------------------------------------------------------------


@dataclass(frozen=True)
class MonotoneMap:
    """Total monotone function between finite posets."""

    dom: FinPoset
    cod: FinPoset
    graph: tuple

    def __post_init__(self):
        if len(self.graph) != len(self.dom):
            raise UnknownElement("graph length does not match the domain")
        for v in self.graph:
            self.cod.carrier.require(v)
        elems = self.dom.elements
        for i, x in enumerate(elems):
            for j, y in enumerate(elems):
                if self.dom.leq(x, y) and not self.cod.leq(self.graph[i], self.graph[j]):
                    raise NotMonotone(
                        f"{x!r} <= {y!r} but images {self.graph[i]!r}, "
                        f"{self.graph[j]!r} are not ordered"
                    )

    @classmethod
    def from_dict(cls, dom, cod, mapping):
        graph = tuple(mapping[x] for x in dom.elements)
        return cls(dom, cod, graph)

    @classmethod
    def from_callable(cls, dom, cod, fn):
        return cls(dom, cod, tuple(fn(x) for x in dom.elements))

    def __call__(self, x):
        return self.graph[self.dom.carrier.index(x)]

    def as_dict(self):
        return dict(zip(self.dom.elements, self.graph))

    def after(self, other):
        """Compose self . other (other first)."""
        if other.cod != self.dom:
            raise UnknownElement("composition domains do not match")
        return MonotoneMap.from_callable(other.dom, self.cod, lambda x: self(other(x)))


def preserves_all_joins(m):
    """All joins, including the empty one (bottom goes to bottom)."""
    m.dom.require_lattice()
    m.cod.require_lattice()
    if m(m.dom.bottom()) != m.cod.bottom():
        return False
    for x, y in itertools.combinations_with_replacement(m.dom.elements, 2):
        if m(m.dom.join(x, y)) != m.cod.join(m(x), m(y)):
            return False
    return True


def preserves_all_meets(m):
    m.dom.require_lattice()
    m.cod.require_lattice()
    if m(m.dom.top()) != m.cod.top():
        return False
    for x, y in itertools.combinations_with_replacement(m.dom.elements, 2):
        if m(m.dom.meet(x, y)) != m.cod.meet(m(x), m(y)):
            return False
    return True


def right_adjoint(m):
    """Right adjoint of a join-preserving map between finite lattices.

    Sends b to the join of everything mapped below b; the Galois property
    is then verified exhaustively before returning.
    """
    if not preserves_all_joins(m):
        raise NotJoinPreserving(f"{m.as_dict()!r} does not preserve joins")
    dom, cod = m.dom, m.cod
    adj = MonotoneMap.from_callable(
        cod, dom, lambda b: dom.bigjoin(x for x in dom if cod.leq(m(x), b))
    )
    for a in dom:
        for b in cod:
            if cod.leq(m(a), b) != dom.leq(a, adj(b)):
                raise NotJoinPreserving("Galois condition failed after construction")
    return adj


# -- the four lattice/2 element isomorphisms -----------------------------------

LATTICE_ISO_VARIANTS = ("join_to_2", "join_to_op2", "meet_to_2", "meet_to_op2")


def _check_two_valued(lattice, phi):
    for x in lattice:
        if phi[x] not in (0, 1):
            raise StructureNotPreserved(f"map must be 0/1 valued, got {phi[x]!r}")


def _variant_ok(lattice, phi, variant):
    bot, top = lattice.bottom(), lattice.top()
    pairs = itertools.combinations_with_replacement(lattice.elements, 2)
    if variant == "join_to_2":
        if phi[bot] != 0:
            return False
        return all(
            phi[lattice.join(x, y)] == max(phi[x], phi[y]) for x, y in pairs
        )
    if variant == "join_to_op2":
        if phi[bot] != 1:
            return False
        return all(
            phi[lattice.join(x, y)] == min(phi[x], phi[y]) for x, y in pairs
        )
    if variant == "meet_to_2":
        if phi[top] != 1:
            return False
        return all(
            phi[lattice.meet(x, y)] == min(phi[x], phi[y]) for x, y in pairs
        )
    if variant == "meet_to_op2":
        if phi[top] != 0:
            return False
        return all(
            phi[lattice.meet(x, y)] == max(phi[x], phi[y]) for x, y in pairs
        )
    raise ValueError(f"unknown variant {variant!r}")


def lattice_map_to_element(lattice, phi, variant):
    """Collapse a structure-preserving 0/1 map on a lattice to an element."""
    lattice.require_lattice()
    phi = {x: phi[x] for x in lattice}
    _check_two_valued(lattice, phi)
    if not _variant_ok(lattice, phi, variant):
        raise StructureNotPreserved(f"map does not qualify for {variant}")
    if variant == "join_to_2":
        return lattice.bigjoin(x for x in lattice if phi[x] == 0)
    if variant == "join_to_op2":
        return lattice.bigjoin(x for x in lattice if phi[x] == 1)
    if variant == "meet_to_2":
        return lattice.bigmeet(x for x in lattice if phi[x] == 1)
    return lattice.bigmeet(x for x in lattice if phi[x] == 0)


def lattice_element_to_map(lattice, a, variant):
    """Inverse direction of lattice_map_to_element."""
    lattice.require_lattice()
    lattice.carrier.require(a)
    if variant == "join_to_2":
        phi = {x: 0 if lattice.leq(x, a) else 1 for x in lattice}
    elif variant == "join_to_op2":
        phi = {x: 1 if lattice.leq(x, a) else 0 for x in lattice}
    elif variant == "meet_to_2":
        phi = {x: 1 if lattice.leq(a, x) else 0 for x in lattice}
    elif variant == "meet_to_op2":
        phi = {x: 0 if lattice.leq(a, x) else 1 for x in lattice}
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if not _variant_ok(lattice, phi, variant):
        raise StructureNotPreserved(f"constructed map fails {variant}")
    return phi


# -- Plotkin algebras over a frame ---------------------------------------------


@dataclass(frozen=True)
class PlotkinAlgebra:
    """Pairs (a, b) with a >= b in a finite frame, under the product order.

    Carries the erratic sum (join on the left, meet on the right) with the
    mixed pair (top, bottom) absorbing.
    """

    frame: FinPoset
    poset: FinPoset

    @classmethod
    def over(cls, frame):
        frame.require_lattice()
        _require_small(frame)
        elems = [
            (a, b) for a in frame for b in frame if frame.leq(b, a)
        ]
        pairs = [
            (s, t)
            for s in elems
            for t in elems
            if frame.leq(s[0], t[0]) and frame.leq(s[1], t[1])
        ]
        return cls(frame, FinPoset(FinSet(elems), pairs))

    def amalg(self, s, t):
        return (self.frame.join(s[0], t[0]), self.frame.meet(s[1], t[1]))

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


# -- structure-map enumeration ---------------------------------------------------


def _budget_check(bound, budget):
    if bound > budget:
        raise TooLarge(f"candidate space of size {bound} exceeds budget {budget}")


def _iter_monotone_graphs(dom, cod, fixed=None):
    """Backtracking generator of monotone graphs dom -> cod as dicts."""
    order = dom.linear_extension()
    assign = {}

    def rec(i):
        if i == len(order):
            yield dict(assign)
            return
        p = order[i]
        lowers = [assign[q] for q in order[:i] if dom.leq(q, p)]
        cands = [
            c for c in cod.elements if all(cod.leq(l, c) for l in lowers)
        ]
        if fixed is not None and p in fixed:
            cands = [c for c in cands if c == fixed[p]]
        for c in cands:
            assign[p] = c
            yield from rec(i + 1)
        assign.pop(p, None)

    yield from rec(0)


def _iter_generated_maps(dom, cod, generators, extend, verify):
    """Monotone assignments on generators, extended and verified."""
    gen_order = [g for g in dom.linear_extension() if g in generators]
    assign = {}

    def rec(i):
        if i == len(gen_order):
            yield dict(assign)
            return
        p = gen_order[i]
        lowers = [assign[q] for q in gen_order[:i] if dom.leq(q, p)]
        for c in cod.elements:
            if all(cod.leq(l, c) for l in lowers):
                assign[p] = c
                yield from rec(i + 1)
        assign.pop(p, None)

    for a in rec(0):
        graph = extend(a)
        if verify(graph):
            yield graph


def _join_extension(dom, cod, gens):
    def extend(assign):
        return {
            x: cod.bigjoin(assign[j] for j in gens if dom.leq(j, x))
            for x in dom.elements
        }

    return extend


def _meet_extension(dom, cod, gens):
    def extend(assign):
        return {
            x: cod.bigmeet(assign[m] for m in gens if dom.leq(x, m))
            for x in dom.elements
        }

    return extend


def _is_join_preserving_graph(dom, cod, g):
    for x, y in itertools.combinations_with_replacement(dom.elements, 2):
        if g[dom.join(x, y)] != cod.join(g[x], g[y]):
            return False
    return True


def _is_meet_preserving_graph(dom, cod, g):
    for x, y in itertools.combinations_with_replacement(dom.elements, 2):
        if g[dom.meet(x, y)] != cod.meet(g[x], g[y]):
            return False
    return True


def _iter_plotkin_hom_graphs(dom_alg, cod_alg, budget):
    """Maps of Plotkin algebras, generated from their diagonal restrictions.

    Every pair (a, b) with a >= b equals (a, a) amalg (b, b), so a
    structure-preserving map is fixed by its values on diagonals; candidates
    are extended from there and every algebra law is then checked directly.
    """
    frame = dom_alg.frame
    _budget_check(len(cod_alg.poset) ** len(frame), budget)
    fixed = {frame.bottom(): cod_alg.zero, frame.top(): cod_alg.one}
    for d in _iter_monotone_graphs(frame, cod_alg.poset, fixed=fixed):
        graph = {
            (a, b): (d[a][0], d[b][1])
            for (a, b) in dom_alg.poset.elements
        }
        ok = (
            graph[dom_alg.zero] == cod_alg.zero
            and graph[dom_alg.one] == cod_alg.one
            and graph[dom_alg.mix] == cod_alg.mix
        )
        if ok:
            elems = dom_alg.poset.elements
            for s in elems:
                for t in elems:
                    if graph[dom_alg.amalg(s, t)] != cod_alg.amalg(graph[s], graph[t]):
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            yield graph


def enumerate_structure_maps(dom, cod, selector, budget=DEFAULT_MAP_BUDGET):
    """Complete, duplicate-free list of maps dom -> cod with the given structure.

    Selectors: monotone, join-preserving, meet-preserving, join+top, meet+top,
    frame, preframe+0, plotkin-hom.  On finite lattices "meet+top" coincides
    with meet-preserving (every meet is a finite meet); both names are kept.
    The candidate space is counted before any allocation and TooLarge is
    raised when it exceeds the budget.
    """
    if selector not in STRUCTURE_SELECTORS:
        raise ValueError(f"unknown selector {selector!r}")

    if selector == "plotkin-hom":
        if not isinstance(dom, PlotkinAlgebra) or not isinstance(cod, PlotkinAlgebra):
            raise TypeError("plotkin-hom expects PlotkinAlgebra arguments")
        graphs = _iter_plotkin_hom_graphs(dom, cod, budget)
        return tuple(
            MonotoneMap.from_dict(dom.poset, cod.poset, g) for g in graphs
        )

    _require_small(dom)
    _require_small(cod)

    if selector == "monotone":
        _budget_check(max(len(cod), 1) ** len(dom), budget)
        return tuple(
            MonotoneMap.from_dict(dom, cod, g)
            for g in _iter_monotone_graphs(dom, cod)
        )

    dom.require_lattice()
    cod.require_lattice()

    if selector in ("join-preserving", "join+top", "frame"):
        gens = dom.join_irreducibles()
        _budget_check(max(len(cod), 1) ** len(gens), budget)
        extend = _join_extension(dom, cod, gens)
        out = []
        for g in _iter_generated_maps(
            dom, cod, gens, extend, lambda g: _is_join_preserving_graph(dom, cod, g)
        ):
            if selector in ("join+top", "frame") and g[dom.top()] != cod.top():
                continue
            if selector == "frame" and not _is_meet_preserving_graph(dom, cod, g):
                continue
            out.append(MonotoneMap.from_dict(dom, cod, g))
        return tuple(out)

    if selector in ("meet-preserving", "meet+top", "preframe+0"):
        gens = dom.meet_irreducibles()
        _budget_check(max(len(cod), 1) ** len(gens), budget)
        extend = _meet_extension(dom, cod, gens)
        out = []
        for g in _iter_generated_maps(
            dom, cod, gens, extend, lambda g: _is_meet_preserving_graph(dom, cod, g)
        ):
            if selector == "preframe+0" and g[dom.bottom()] != cod.bottom():
                continue
            out.append(MonotoneMap.from_dict(dom, cod, g))
        return tuple(out)

    raise AssertionError("unreachable")


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
            pairs = [
                (x, y) for y in range(n) for x in downs[y]
            ]
            yield FinPoset(FinSet(range(n)), pairs)
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
    best = None
    for perm in itertools.permutations(range(n)):
        rel = tuple(
            sorted(
                (perm[i], perm[j])
                for i in range(n)
                for j in range(n)
                if poset.leq(elems[i], elems[j])
            )
        )
        if best is None or rel < best:
            best = rel
    return (n, best)


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


@lru_cache(maxsize=None)
def all_lattices(max_size):
    return tuple(p for p in all_posets(max_size) if p.is_lattice())
