"""Exact-rational effect algebras, fuzzy predicates, and finite distributions.

Everything here is exact, so that partial-sum definedness and round-trip
identities are exact predicates, never float comparisons.  Predicates and
scalars are fractions.Fraction.  Finite distributions are ``kernel``'s
``Distribution``, one ``Weighting`` row of carrier positions and integers over
one reduced denominator; this module builds, binds and enumerates them, the
probe sets and seeded draws trusted from rows that name no atom.  The finite
Giry monad's measures (``monads.FiniteMeasure``) are the same kernel.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .check import Frozen, Report, first_counterexample
from .errors import CarrierMismatch, NotNormalized, ScalarOutOfRange
from .kernel import ONE, ZERO, Distribution, FinSet, atom_repr, is_exact

Rat = Fraction


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


def farey_grid(max_den):
    """All rationals in [0, 1] with denominator at most max_den, sorted."""
    grid = {Fraction(0), Fraction(1)}
    for den in range(1, max_den + 1):
        for num in range(den + 1):
            grid.add(Fraction(num, den))
    return tuple(sorted(grid))


def _exact(value, what="value"):
    """value as a Fraction; ScalarOutOfRange unless ``kernel.is_exact`` holds of it."""
    if not is_exact(value):
        raise ScalarOutOfRange(f"{what} {value!r} is not an int or a Fraction")
    return Fraction(value)


def _check_unit_interval(value, what="value"):
    """value as a Fraction in [0, 1]; ScalarOutOfRange unless it is one."""
    if not (ZERO <= (exact := _exact(value, what)) <= ONE):
        raise ScalarOutOfRange(f"{what} {value} lies outside [0, 1]")
    return exact


# -- fuzzy predicates ---------------------------------------------------------


class FuzzyPredicate(Frozen):
    """Total map from a finite carrier into exact rationals in [0, 1]."""

    __slots__ = _fields = ("carrier", "values")

    def __post_init__(self):
        if len(self.values) != len(self.carrier):
            raise CarrierMismatch("one value per carrier element is required")
        object.__setattr__(self, "values", tuple(
            _check_unit_interval(v, "predicate value") for v in self.values))

    @classmethod
    def from_dict(cls, carrier, mapping):
        return cls(carrier, tuple(mapping[x] for x in carrier.elements))

    @classmethod
    def constant(cls, carrier, value):
        return cls(carrier, (value,) * len(carrier))

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
    r = _check_unit_interval(r, "scalar")
    return FuzzyPredicate(p.carrier, tuple(r * v for v in p.values))


# -- total MV operations on [0, 1] ---------------------------------------------


class MvOps(Frozen):
    __slots__ = _fields = ("plus", "minus", "join", "meet")


def truncated_add(a, b):
    return min(ONE, _exact(a) + _exact(b))


def truncated_sub(a, b):
    return max(ZERO, _exact(a) - _exact(b))


def mv_ops(a, b):
    """Total MV operations on [0, 1], cross-checked against the partial sum.

    The total addition is x (+) (x' /\\ y) for x' = 1 - x, and subtraction is
    its De Morgan dual; both collapse to truncation on the unit interval.
    """
    a, b = _check_unit_interval(a), _check_unit_interval(b)
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


class EffectAlgebraInstance(Frozen):
    """An effect-algebra candidate probed on an explicit finite element set.

    ovee returns None where the partial sum is undefined.  The scalar action
    is optional; when present it is probed against scalar_grid.
    """

    __slots__ = _fields = ("name", "elements", "ovee", "orth", "zero", "scalar", "scalar_grid")
    _defaults = (None, ())

    @property
    def one(self):
        return self.orth(self.zero)


# validate_effect_algebra checks every associativity triple up to this many,
# and beyond it samples this many triples with this seed.
ASSOC_BUDGET = 250_000
ASSOC_SEED = 0


def validate_effect_algebra(inst):
    """Check every effect-algebra axiom on the instance's probe set.

    Failures are reported as data, one case per axiom, with a counterexample.
    Associativity triples are sampled (seeded) when the full cube exceeds
    ASSOC_BUDGET; the case's law and mode record which mode ran.
    """
    elems = tuple(inst.elements)
    one, ovee, orth, zero, scalar = inst.one, inst.ovee, inst.orth, inst.zero, inst.scalar
    pairs = tuple(itertools.combinations_with_replacement(elems, 2))
    report = Report(f"effect algebra {inst.name}", ASSOC_SEED)

    def law(name, verdicts, mode="exhaustive"):
        report.cases.append(first_counterexample(name, verdicts, mode))

    # commutativity: same definedness and same value
    law("ovee commutative", (None if ovee(x, y) == ovee(y, x)
                             else f"x={atom_repr(x)} y={atom_repr(y)}" for x, y in pairs))

    # associativity, partial in both directions
    if len(elems) ** 3 <= ASSOC_BUDGET:
        triples = itertools.product(elems, repeat=3)
        mode = "exhaustive"
    else:
        rng = random.Random(ASSOC_SEED)
        triples = (
            (rng.choice(elems), rng.choice(elems), rng.choice(elems))
            for _ in range(ASSOC_BUDGET)
        )
        mode = f"sampled seed={ASSOC_SEED}"

    def associative(x, y, z):
        yz, xy = ovee(y, z), ovee(x, y)
        lhs = ovee(x, yz) if yz is not None else None
        rhs = ovee(xy, z) if xy is not None else None
        return lhs == rhs

    law(f"ovee associative ({mode})", (None if associative(x, y, z)
                                       else f"x={atom_repr(x)} y={atom_repr(y)} z={atom_repr(z)}"
                                       for x, y, z in triples), mode)

    # zero is a unit; the orthosupplement exists and is unique; zero-one law
    law("zero is a unit", (None if ovee(x, zero) == x else f"x={atom_repr(x)}" for x in elems))
    law("x ovee orth(x) = 1", (None if ovee(x, orth(x)) == one else f"x={atom_repr(x)}"
                               for x in elems))
    law("orthosupplement unique on probe", (
        f"x={atom_repr(x)} y={atom_repr(y)}" if ovee(x, y) == one and y != orth(x) else None
        for x in elems for y in elems))
    law("x defined with 1 implies x = 0", (
        f"x={atom_repr(x)}" if ovee(x, one) is not None and x != zero else None for x in elems))

    if scalar is not None:
        grid = inst.scalar_grid
        law("1 . x = x", (None if scalar(ONE, x) == x else f"x={atom_repr(x)}" for x in elems))
        law("(r+s) . x = r.x ovee s.x", (
            None if scalar(r + s, x) == ovee(scalar(r, x), scalar(s, x))
            else f"r={r} s={s} x={atom_repr(x)}"
            for r, s in itertools.product(grid, repeat=2) if r + s <= ONE for x in elems))
        law("r . (x ovee y) = r.x ovee r.y", (
            None if scalar(r, xy) == ovee(scalar(r, x), scalar(r, y))
            else f"r={r} x={atom_repr(x)} y={atom_repr(y)}"
            for r in grid for x, y in pairs if (xy := ovee(x, y)) is not None))

    return report


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


# -- finite distributions ---------------------------------------------------------


def expectation(weights, value):
    """The finite expectation sum_a w(a) * value(a) of value against the weights."""
    return sum((value(a) * w for a, w in weights), ZERO)


def dist_make(carrier, weights):
    if not isinstance(carrier, FinSet):
        carrier = FinSet(carrier)
    if isinstance(weights, dict):
        weights = tuple(weights.items())
    return Distribution(carrier, tuple(weights))


def dist_bind(f, omega):
    """Kleisli extension: push omega forward through an atom-wise kernel f,
    whose images all live on one carrier."""
    return omega.bind(f)


def _row(parts, den):
    """The kernel row of the weights part/den, one part per position, for parts of gcd 1."""
    return tuple(i for i, p in enumerate(parts) if p), tuple(p for p in parts if p), den


def iter_distributions(carrier, max_den, weighting=Distribution):
    """All weightings whose weights are multiples of 1/n for some n <= max_den.

    For each denominator in turn, the compositions of it into one part per
    atom whose parts have gcd 1, the ones no smaller denominator lists; each
    is built trusted, as a ``weighting``, from its row."""
    k = len(carrier)
    if not k:
        return ()
    out = []
    for den in range(1, max_den + 1):
        for cuts in itertools.combinations(range(den + k - 1), k - 1):
            parts = [b - a - 1 for a, b in zip((-1, *cuts), (*cuts, den + k - 1))]
            if math.gcd(*parts) == 1:
                out.append(weighting._from_kernel(carrier, _row(parts, den)))
    return tuple(out)


def random_distribution(carrier, rng, max_den=12):
    """Uniformly chunky random distribution with exact rational weights."""
    den = rng.randint(1, max_den)
    cuts = sorted(rng.randint(0, den) for _ in range(len(carrier) - 1))
    if not carrier:
        raise NotNormalized("weights do not sum to 1")
    parts = [b - a for a, b in zip((0, *cuts), (*cuts, den))]
    g = math.gcd(*parts)
    return Distribution._from_kernel(carrier, _row([p // g for p in parts], den // g))
