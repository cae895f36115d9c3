"""Exact-rational effect algebras, fuzzy predicates, and finite distributions.

Everything here is computed with fractions.Fraction so that partial-sum
definedness and round-trip identities are exact predicates, never float
comparisons.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .errors import (
    CarrierMismatch,
    NotNormalized,
    ParseError,
    ScalarOutOfRange,
)
from .order import FinSet, atom_key

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class _Undefined:
    """Marker for a partial sum that falls outside the algebra."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Undefined"

    def __bool__(self):
        return False


UNDEFINED = _Undefined()


def parse_rat(text):
    """Parse "num/den" or a bare integer string into an exact rational."""
    text = text.strip()
    num, slash, den = text.partition("/")
    try:
        num, den = int(num), int(den) if slash else 1
    except ValueError:
        raise ParseError(f"bad rational {text!r}; write num/den", 1, 1) from None
    if den == 0:
        raise ParseError(f"zero denominator in {text!r}", 1, 1)
    return Fraction(num, den)


def format_rat(q):
    """Render a rational in the regular "num/den" wire form."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def farey_grid(max_den):
    """All rationals in [0, 1] with denominator at most max_den, sorted."""
    grid = {Fraction(0), Fraction(1)}
    for den in range(1, max_den + 1):
        for num in range(den + 1):
            grid.add(Fraction(num, den))
    return tuple(sorted(grid))


def _check_unit_interval(value, what="value"):
    if not (ZERO <= value <= ONE):
        raise ScalarOutOfRange(f"{what} {value} lies outside [0, 1]")


# -- fuzzy predicates ---------------------------------------------------------


@dataclass(frozen=True)
class FuzzyPredicate:
    """Total map from a finite carrier into exact rationals in [0, 1]."""

    carrier: FinSet
    values: tuple

    def __post_init__(self):
        if len(self.values) != len(self.carrier):
            raise CarrierMismatch("one value per carrier element is required")
        vals = tuple(Fraction(v) for v in self.values)
        for v in vals:
            _check_unit_interval(v, "predicate value")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_dict(cls, carrier, mapping):
        return cls(carrier, tuple(mapping[x] for x in carrier.elements))

    @classmethod
    def constant(cls, carrier, value):
        return cls(carrier, tuple(Fraction(value) for _ in carrier.elements))

    @classmethod
    def indicator(cls, carrier, members):
        members = frozenset(members)
        for x in members:
            carrier.require(x)
        return cls(carrier, tuple(ONE if x in members else ZERO for x in carrier.elements))

    def __call__(self, x):
        return self.values[self.carrier.index(x)]

    def as_dict(self):
        return dict(zip(self.carrier.elements, self.values))


def _same_carrier(p, q):
    if p.carrier != q.carrier:
        raise CarrierMismatch("predicates live on different carriers")


def pred_ovee(p, q):
    """Partial pointwise sum; UNDEFINED when it exceeds 1 anywhere."""
    _same_carrier(p, q)
    sums = tuple(a + b for a, b in zip(p.values, q.values))
    if any(s > ONE for s in sums):
        return UNDEFINED
    return FuzzyPredicate(p.carrier, sums)


def pred_orth(p):
    """Pointwise complement against the constant-1 predicate."""
    return FuzzyPredicate(p.carrier, tuple(ONE - v for v in p.values))


def pred_scalar(r, p):
    r = Fraction(r)
    _check_unit_interval(r, "scalar")
    return FuzzyPredicate(p.carrier, tuple(r * v for v in p.values))


def pred_meet(p, q):
    _same_carrier(p, q)
    return FuzzyPredicate(p.carrier, tuple(min(a, b) for a, b in zip(p.values, q.values)))


# -- total MV operations on [0, 1] ---------------------------------------------


@dataclass(frozen=True)
class MvOps:
    plus: Fraction
    minus: Fraction
    join: Fraction
    meet: Fraction


def truncated_add(a, b):
    return min(ONE, Fraction(a) + Fraction(b))


def truncated_sub(a, b):
    return max(ZERO, Fraction(a) - Fraction(b))


def mv_ops(a, b):
    """Total MV operations on [0, 1], cross-checked against the partial sum.

    The total addition is x (+) (x' /\\ y) for x' = 1 - x, and subtraction is
    its De Morgan dual; both collapse to truncation on the unit interval.
    """
    a, b = Fraction(a), Fraction(b)
    _check_unit_interval(a)
    _check_unit_interval(b)
    plus = truncated_add(a, b)
    via_ovee = a + min(ONE - a, b)
    if plus != via_ovee:
        raise AssertionError("truncated addition disagrees with the partial sum form")
    minus = truncated_sub(a, b)
    via_orth = ONE - truncated_add(ONE - a, b)
    if minus != via_orth:
        raise AssertionError("truncated subtraction disagrees with its dual form")
    return MvOps(plus=plus, minus=minus, join=max(a, b), meet=min(a, b))


# -- effect algebra validation ----------------------------------------------------


@dataclass(frozen=True)
class EffectAlgebraInstance:
    """An effect-algebra candidate probed on an explicit finite element set.

    ovee returns None where the partial sum is undefined.  The scalar action
    is optional; when present it is probed against scalar_grid.
    """

    name: str
    elements: tuple
    ovee: Callable
    orth: Callable
    zero: object
    scalar: Optional[Callable] = None
    scalar_grid: tuple = ()

    @property
    def one(self):
        return self.orth(self.zero)


@dataclass
class LawRow:
    law: str
    ok: bool
    witness: Optional[str] = None


@dataclass
class EffectAlgebraReport:
    name: str
    rows: list

    @property
    def ok(self):
        return all(r.ok for r in self.rows)

    def summary(self):
        lines = [f"effect algebra {self.name}:"]
        for r in self.rows:
            mark = "ok " if r.ok else "FAIL"
            extra = f"  [{r.witness}]" if r.witness else ""
            lines.append(f"  {mark} {r.law}{extra}")
        return "\n".join(lines)


# validate_effect_algebra checks every associativity triple up to this many,
# and beyond it samples this many triples with this seed.
ASSOC_BUDGET = 250_000
ASSOC_SEED = 0


def validate_effect_algebra(inst):
    """Check every effect-algebra axiom on the instance's probe set.

    Failures are reported as data, one row per axiom, with a counterexample.
    Associativity triples are sampled (seeded) when the full cube exceeds
    ASSOC_BUDGET; the report row records which mode ran.
    """
    elems = tuple(inst.elements)
    one = inst.one
    rows = []

    def row(law, ok, witness=None):
        rows.append(LawRow(law, ok, witness))

    # commutativity: same definedness and same value
    ok, wit = True, None
    for x, y in itertools.combinations_with_replacement(elems, 2):
        if inst.ovee(x, y) != inst.ovee(y, x):
            ok, wit = False, f"x={x!r} y={y!r}"
            break
    row("ovee commutative", ok, wit)

    # associativity, partial in both directions
    total = len(elems) ** 3
    if total <= ASSOC_BUDGET:
        triples = itertools.product(elems, repeat=3)
        mode = "exhaustive"
    else:
        rng = random.Random(ASSOC_SEED)
        triples = (
            (rng.choice(elems), rng.choice(elems), rng.choice(elems))
            for _ in range(ASSOC_BUDGET)
        )
        mode = f"sampled seed={ASSOC_SEED}"
    ok, wit = True, None
    for x, y, z in triples:
        yz = inst.ovee(y, z)
        lhs = inst.ovee(x, yz) if yz is not None else None
        xy = inst.ovee(x, y)
        rhs = inst.ovee(xy, z) if xy is not None else None
        if lhs != rhs:
            ok, wit = False, f"x={x!r} y={y!r} z={z!r}"
            break
    row(f"ovee associative ({mode})", ok, wit)

    # zero is a unit
    ok, wit = True, None
    for x in elems:
        if inst.ovee(x, inst.zero) != x:
            ok, wit = False, f"x={x!r}"
            break
    row("zero is a unit", ok, wit)

    # orthosupplement exists and is unique
    ok, wit = True, None
    for x in elems:
        if inst.ovee(x, inst.orth(x)) != one:
            ok, wit = False, f"x={x!r}"
            break
    row("x ovee orth(x) = 1", ok, wit)

    ok, wit = True, None
    for x in elems:
        for y in elems:
            if inst.ovee(x, y) == one and y != inst.orth(x):
                ok, wit = False, f"x={x!r} y={y!r}"
                break
        if not ok:
            break
    row("orthosupplement unique on probe", ok, wit)

    # zero-one law
    ok, wit = True, None
    for x in elems:
        if inst.ovee(x, one) is not None and x != inst.zero:
            ok, wit = False, f"x={x!r}"
            break
    row("x defined with 1 implies x = 0", ok, wit)

    if inst.scalar is not None:
        ok, wit = True, None
        for x in elems:
            if inst.scalar(ONE, x) != x:
                ok, wit = False, f"x={x!r}"
                break
        row("1 . x = x", ok, wit)

        ok, wit = True, None
        for r, s in itertools.product(inst.scalar_grid, repeat=2):
            if r + s > ONE:
                continue
            for x in elems:
                lhs = inst.scalar(r + s, x)
                rhs = inst.ovee(inst.scalar(r, x), inst.scalar(s, x))
                if lhs != rhs:
                    ok, wit = False, f"r={r} s={s} x={x!r}"
                    break
            if not ok:
                break
        row("(r+s) . x = r.x ovee s.x", ok, wit)

        ok, wit = True, None
        for r in inst.scalar_grid:
            for x, y in itertools.combinations_with_replacement(elems, 2):
                xy = inst.ovee(x, y)
                if xy is None:
                    continue
                if inst.scalar(r, xy) != inst.ovee(inst.scalar(r, x), inst.scalar(r, y)):
                    ok, wit = False, f"r={r} x={x!r} y={y!r}"
                    break
            if not ok:
                break
        row("r . (x ovee y) = r.x ovee r.y", ok, wit)

    return EffectAlgebraReport(inst.name, rows)


# -- stock instances -----------------------------------------------------------


def powerset_effect_algebra(carrier):
    """Subsets of a finite set under disjoint union, with complement."""
    universe = carrier.as_frozenset()

    def ovee(a, b):
        return a | b if not (a & b) else None

    return EffectAlgebraInstance(
        name=f"powerset({len(carrier)})",
        elements=tuple(carrier.subsets()),
        ovee=ovee,
        orth=lambda a: universe - a,
        zero=frozenset(),
    )


def unit_interval_effect_algebra(grid):
    """[0, 1] with the partial sum, probed on an explicit rational grid."""

    def ovee(a, b):
        s = a + b
        return s if s <= ONE else None

    return EffectAlgebraInstance(
        name=f"unit-interval({len(grid)} probes)",
        elements=tuple(grid),
        ovee=ovee,
        orth=lambda a: ONE - a,
        zero=ZERO,
        scalar=lambda r, a: r * a,
        scalar_grid=farey_grid(3),
    )


def truncated_total_instance(grid):
    """[0, 1] with truncated total addition: not an effect algebra."""
    return EffectAlgebraInstance(
        name="truncated-total",
        elements=tuple(grid),
        ovee=lambda a, b: truncated_add(a, b),
        orth=lambda a: ONE - a,
        zero=ZERO,
    )


def fuzzy_predicate_effect_algebra(carrier, max_den):
    """The effect module of fuzzy predicates probed on a value grid."""
    grid = farey_grid(max_den)
    elems = tuple(
        FuzzyPredicate(carrier, values)
        for values in itertools.product(grid, repeat=len(carrier))
    )

    def ovee(p, q):
        r = pred_ovee(p, q)
        return None if r is UNDEFINED else r

    return EffectAlgebraInstance(
        name=f"fuzzy-predicates({len(carrier)} points, den<={max_den})",
        elements=elems,
        ovee=ovee,
        orth=pred_orth,
        zero=FuzzyPredicate.constant(carrier, ZERO),
        scalar=pred_scalar,
        scalar_grid=farey_grid(3),
    )


# -- finite distributions ---------------------------------------------------------


def checked_weights(carrier, weights, error):
    """Probability weights in canonical form, or ``error`` if they are not.

    Every atom must lie in the carrier and every weight be nonnegative; zero
    weights are dropped, the rest sorted by atom and required to sum to 1.
    """
    items = []
    for atom, w in weights:
        carrier.require(atom)
        w = Fraction(w)
        if w < 0:
            raise error(f"negative weight {w} at {atom!r}")
        if w:
            items.append((atom, w))
    items.sort(key=lambda kv: atom_key(kv[0]))
    if sum((w for _, w in items), ZERO) != ONE:
        raise error("weights do not sum to 1")
    return tuple(items)


def pushforward(weights, kernel):
    """The weights of sum_a w(a) . kernel(a): each atom's mass spread over its image."""
    out = {}
    for a, w in weights:
        for b, v in kernel(a).weights:
            out[b] = out.get(b, ZERO) + w * v
    return tuple(out.items())


@dataclass(frozen=True)
class Distribution:
    """Finite-support rational probability weights, summing exactly to 1."""

    carrier: FinSet
    weights: tuple  # sorted (atom, weight) pairs, nonzero weights only

    def __post_init__(self):
        object.__setattr__(
            self, "weights", checked_weights(self.carrier, self.weights, NotNormalized)
        )

    @classmethod
    def from_dict(cls, carrier, mapping):
        return cls(carrier, tuple(mapping.items()))

    @classmethod
    def point(cls, carrier, atom):
        return cls(carrier, ((atom, ONE),))

    def __call__(self, atom):
        self.carrier.require(atom)
        for a, w in self.weights:
            if a == atom:
                return w
        return ZERO

    @property
    def support(self):
        return frozenset(a for a, _ in self.weights)

    def as_dict(self):
        return dict(self.weights)


def dist_make(carrier, weights):
    if not isinstance(carrier, FinSet):
        carrier = FinSet(carrier)
    if isinstance(weights, dict):
        weights = tuple(weights.items())
    return Distribution(carrier, tuple(weights))


def dist_bind(f, omega):
    """Kleisli extension: push omega forward through an atom-wise kernel f."""
    cods = {f(a).carrier for a in omega.support}
    if len(cods) != 1:
        raise CarrierMismatch("kernel images live on different carriers")
    return Distribution(cods.pop(), pushforward(omega.weights, f))


def iter_distributions(carrier, max_den):
    """All distributions whose weights are multiples of 1/n for some n <= max_den."""
    atoms = carrier.elements
    if not atoms:
        return ()
    seen = set()
    out = []
    for den in range(1, max_den + 1):
        for cuts in itertools.combinations(range(den + len(atoms) - 1), len(atoms) - 1):
            parts = []
            prev = -1
            for c in cuts:
                parts.append(c - prev - 1)
                prev = c
            parts.append(den + len(atoms) - 2 - prev)
            weights = tuple(Fraction(p, den) for p in parts)
            if weights in seen:
                continue
            seen.add(weights)
            out.append(Distribution(carrier, tuple(zip(atoms, weights))))
    return tuple(out)


def random_distribution(carrier, rng, max_den=12):
    """Uniformly chunky random distribution with exact rational weights."""
    atoms = carrier.elements
    den = rng.randint(1, max_den)
    cuts = sorted(rng.randint(0, den) for _ in range(len(atoms) - 1))
    bounds = [0] + cuts + [den]
    weights = [Fraction(bounds[i + 1] - bounds[i], den) for i in range(len(atoms))]
    return Distribution(carrier, tuple(zip(atoms, weights)))
