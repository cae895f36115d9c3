"""Exact-rational effect algebras, fuzzy predicates, and finite distributions.

Everything here is exact, so that partial-sum definedness and round-trip
identities are exact predicates, never float comparisons.  Predicates and
scalars are fractions.Fraction.  Finite distributions rest on one weight
kernel, ``Weighting``: inside, a weighting is one row ``(support, numerators,
denominator)``, integers over one reduced denominator.  ``bind_rows``, the one
integer Kleisli extension on such rows (``Weighting.bind``'s and ``gcl``'s),
and point masses build rows without re-validation; weights become
``Fraction`` only at the boundary (``weights``, ``__call__``, JSON).
The finite Giry monad's measures (``monads.FiniteMeasure``) are the same
kernel under their own name.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .check import Frozen, Report, first_counterexample
from .errors import (
    CarrierMismatch,
    MonadMismatch,
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


class FuzzyPredicate(Frozen):
    """Total map from a finite carrier into exact rationals in [0, 1]."""

    __slots__ = _fields = ("carrier", "values")

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


# -- total MV operations on [0, 1] ---------------------------------------------


class MvOps(Frozen):
    __slots__ = _fields = ("plus", "minus", "join", "meet")


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
    law("ovee commutative", (None if ovee(x, y) == ovee(y, x) else f"x={x!r} y={y!r}"
                             for x, y in pairs))

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
                                       else f"x={x!r} y={y!r} z={z!r}"
                                       for x, y, z in triples), mode)

    # zero is a unit; the orthosupplement exists and is unique; zero-one law
    law("zero is a unit", (None if ovee(x, zero) == x else f"x={x!r}" for x in elems))
    law("x ovee orth(x) = 1", (None if ovee(x, orth(x)) == one else f"x={x!r}"
                               for x in elems))
    law("orthosupplement unique on probe", (
        f"x={x!r} y={y!r}" if ovee(x, y) == one and y != orth(x) else None
        for x in elems for y in elems))
    law("x defined with 1 implies x = 0", (
        f"x={x!r}" if ovee(x, one) is not None and x != zero else None for x in elems))

    if scalar is not None:
        grid = inst.scalar_grid
        law("1 . x = x", (None if scalar(ONE, x) == x else f"x={x!r}" for x in elems))
        law("(r+s) . x = r.x ovee s.x", (
            None if scalar(r + s, x) == ovee(scalar(r, x), scalar(s, x))
            else f"r={r} s={s} x={x!r}"
            for r, s in itertools.product(grid, repeat=2) if r + s <= ONE for x in elems))
        law("r . (x ovee y) = r.x ovee r.y", (
            None if scalar(r, xy) == ovee(scalar(r, x), scalar(r, y))
            else f"r={r} x={x!r} y={y!r}"
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


def checked_weights(carrier, weights, error):
    """Probability weights in kernel form, or ``error`` if they are not.

    Every atom must lie in the carrier, appear once and carry a nonnegative
    weight; zero weights are dropped and the rest must sum to 1.  Returns the
    support sorted by atom, its integer numerators and their one common
    denominator, reduced: the least common multiple of the reduced weights'
    denominators.
    """
    seen = {}
    for atom, w in weights:
        carrier.require(atom)
        w = Fraction(w)
        if w < 0:
            raise error(f"negative weight {w} at {atom!r}")
        if atom in seen:
            raise error(f"repeated atom {atom!r}")
        seen[atom] = w
    support = tuple(sorted((a for a, w in seen.items() if w), key=atom_key))
    den = math.lcm(*(seen[a].denominator for a in support))
    nums = tuple(seen[a].numerator * (den // seen[a].denominator) for a in support)
    if sum(nums) != den:
        raise error("weights do not sum to 1")
    return support, nums, den


def expectation(weights, value):
    """The finite expectation sum_a w(a) * value(a) of value against the weights."""
    return sum((value(a) * w for a, w in weights), ZERO)


def bind_rows(nums, den, images, error=NotNormalized, key=None):
    """The one integer Kleisli extension: the row (support, nums, den) bound through
    ``images``, one ``(support, numerators, denominator)`` row per support atom.

    Masses are spread over the lcm of the images' denominators, checked to sum
    to the denominator (else ``error``), reduced by their gcd and sorted by
    ``key``; a single image is returned as it is.
    """
    if len(images) == 1:
        return images[0]
    scale = math.lcm(*[d for _, _, d in images])
    out = {}
    get = out.get
    for n, (targets, ms, d) in zip(nums, images):
        n *= scale // d
        for b, m in zip(targets, ms):
            out[b] = get(b, 0) + n * m
    den *= scale
    if sum(out.values()) != den:
        raise error("weights do not sum to 1")
    g = math.gcd(den, *out.values())
    support = tuple(sorted(out, key=key))
    if g == 1:
        return support, tuple(map(out.__getitem__, support)), den
    return support, tuple(out[b] // g for b in support), den // g


class Weighting:
    """Rational weights on finitely many atoms of a carrier, summing to 1.

    The one kernel under ``Distribution`` and ``monads.FiniteMeasure``.
    Inside, a weighting is one row: its support sorted by atom, integer
    numerators and one reduced common denominator, so equal weightings have
    equal rows and equality and hashing run over integers; ``bind`` runs
    ``bind_rows`` on rows.  ``Fraction`` appears only at the boundary:
    ``weights`` builds the sorted ``(atom, Fraction)`` pairs on first use.
    The public constructor validates through ``__post_init__``; ``bind``,
    ``point`` (after checking its atom) and ``gcl``'s denotations build
    theirs trusted, with ``_from_kernel``.  Fields are read-only.
    """

    __slots__ = ("_carrier", "_kernel", "_weights", "_hash")
    _error = NotNormalized      # raised for weights that are no probability weights
    _carrier_field = "carrier"  # the carrier's name in the repr

    def __init__(self, carrier, weights):
        self._carrier = carrier
        self._weights = weights  # unchecked until __post_init__ replaces it
        self.__post_init__()

    def __post_init__(self):
        self._kernel = checked_weights(self._carrier, self._weights, self._error)
        self._weights = self._hash = None

    @classmethod
    def from_dict(cls, carrier, mapping):
        return cls(carrier, tuple(mapping.items()))

    @classmethod
    def _from_kernel(cls, carrier, kernel):
        """A weighting from a kernel row that is already known to be valid."""
        out = object.__new__(cls)
        out._carrier, out._kernel = carrier, kernel
        out._weights = out._hash = None
        return out

    @classmethod
    def point(cls, carrier, atom):
        carrier.require(atom)
        return cls._from_kernel(carrier, ((atom,), (1,), 1))

    @property
    def carrier(self):
        return self._carrier

    @property
    def weights(self):
        """Sorted (atom, weight) pairs, nonzero weights only."""
        if self._weights is None:
            support, nums, den = self._kernel
            self._weights = tuple((a, Fraction(n, den)) for a, n in zip(support, nums))
        return self._weights

    @property
    def support(self):
        return frozenset(self._kernel[0])

    def as_dict(self):
        return dict(self.weights)

    def kernel(self):
        """The kernel row: the sorted support, its numerators and their denominator."""
        return self._kernel

    def bind(self, kernel, cod=None):
        """The Kleisli extension of ``kernel`` at these weights, through ``bind_rows``.

        Every image must be a weighting of this class on ``cod``; without
        ``cod``, all images must share one carrier, which the result lives on.
        """
        cls = type(self)
        support, nums, den = self._kernel
        images = [kernel(a) for a in support]
        for image in images:
            if type(image) is not cls or image._carrier is not cod:
                cod = self._image_carrier(images, cod)
                break
        if len(images) == 1:
            return images[0]
        # every carrier is a FinSet, whose rank() is its atom_key order
        return cls._from_kernel(cod, bind_rows(
            nums, den, [image._kernel for image in images], self._error,
            cod.rank().__getitem__))

    def _image_carrier(self, images, cod):
        """The carrier the kernel images share: ``cod``, or the first image's."""
        cls = type(self)
        for a, image in zip(self._kernel[0], images):
            if type(image) is not cls:
                raise MonadMismatch(f"kernel image at {a!r} is not a {cls.__name__}")
            if cod is None:
                cod = image._carrier
            elif image._carrier is not cod and image._carrier != cod:
                raise CarrierMismatch(
                    f"kernel image at {a!r} lives on {image._carrier!r}, not on {cod!r}")
        return cod

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._kernel == other._kernel and (
            self._carrier is other._carrier or self._carrier == other._carrier)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._kernel)
        return self._hash

    def __repr__(self):
        return (f"{type(self).__qualname__}({self._carrier_field}={self._carrier!r}, "
                f"weights={self.weights!r})")


class Distribution(Weighting):
    """Finite-support rational probability weights, summing exactly to 1."""

    __slots__ = ()
    # its own entry, so that wrapping Distribution.__post_init__ sees only
    # distributions built through the public constructor
    __post_init__ = Weighting.__post_init__

    def __call__(self, atom):
        self.carrier.require(atom)
        for a, w in self.weights:
            if a == atom:
                return w
        return ZERO


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
