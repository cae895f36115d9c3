"""The kernel under every layer: atoms and finite sets, integers and rationals
on the wire, exact scalars and finite probability weights.

A ``Weighting`` is one row ``(positions, numerators, denominator)``, its
support's positions in the carrier and integers over one reduced denominator;
``bind_rows`` is the one integer Kleisli extension on such rows, under
``Weighting.bind``, the law suites and the wp engine, and atoms and weights
appear only at the boundary (``weights``, ``__call__``, JSON).
This module imports only ``check`` and ``errors``, so the wp engine runs
without the poset substrate or the monad zoo.
"""

import math
from fractions import Fraction

from .check import Record
from .errors import (
    CarrierMismatch,
    MonadMismatch,
    NotNormalized,
    ParseError,
    TooLarge,
    UnknownElement,
)

# Substrate operations (subset tables, upset/downset/map enumeration) refuse larger objects.
MAX_POSET_SIZE = 8

ZERO = Fraction(0)
ONE = Fraction(1)


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


def atom_repr(value):
    """repr with frozenset members and dict keys in atom_key order, whatever the hash seed."""
    if isinstance(value, frozenset):
        inner = ", ".join(map(atom_repr, sorted(value, key=atom_key)))
        return f"frozenset({{{inner}}})" if value else "frozenset()"
    if isinstance(value, tuple):
        return "(" + ", ".join(map(atom_repr, value)) + (",)" if len(value) == 1 else ")")
    if isinstance(value, dict):
        return "{" + ", ".join(f"{atom_repr(k)}: {atom_repr(value[k])}"
                               for k in sorted(value, key=atom_key)) + "}"
    if isinstance(value, Record):
        inner = ", ".join(f"{f}={atom_repr(getattr(value, f))}" for f in value._shown)
        return f"{type(value).__qualname__}({inner})"
    return repr(value)


class FinSet:
    """Immutable finite set with one canonical iteration order, numbered by ``rank()``."""

    __slots__ = ("elements", "_members", "_subsets", "_rank")

    def __init__(self, elements=()):
        members = frozenset(elements)
        self._members = members
        self.elements = tuple(sorted(members, key=atom_key))
        self._subsets = self._rank = None

    @classmethod
    def presorted(cls, elements):
        """The set of elements that are distinct and already in atom_key order, trusted."""
        out = object.__new__(cls)
        out.elements = tuple(elements)
        out._members, out._subsets, out._rank = frozenset(out.elements), None, None
        return out

    def __contains__(self, x):
        return x in self._members

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return isinstance(other, FinSet) and self._members == other._members

    def __hash__(self):
        return hash(self._members)  # a frozenset keeps its hash

    def __repr__(self):
        return f"FinSet([{', '.join(map(atom_repr, self.elements))}])"

    def require(self, x):
        if x not in self._members:
            raise UnknownElement(f"{atom_repr(x)} is not an element of {self!r}")

    def index(self, x):
        self.require(x)
        return self.rank()[x]

    def rank(self):
        """Each element's position in ``elements``, as a dict built on first use."""
        if self._rank is None:
            self._rank = {x: i for i, x in enumerate(self.elements)}
        return self._rank

    def subsets(self):
        """All subsets as one tuple of frozensets in mask order, built on first use and kept."""
        if self._subsets is None:
            elems, n = self.elements, len(self.elements)
            self._subsets = tuple(frozenset(elems[i] for i in range(n) if mask >> i & 1)
                                  for mask in range(1 << n))
        return self._subsets

    def as_frozenset(self):
        return self._members

    @property
    def carrier(self):
        """A set is its own carrier, so every object answers ``.carrier``."""
        return self


def _require_small(obj):
    if len(obj) > MAX_POSET_SIZE:
        kind = "set" if isinstance(obj, FinSet) else "poset"
        raise TooLarge(f"{kind} has {len(obj)} elements; substrate cap is {MAX_POSET_SIZE}")


def read_int(text):
    """The one reader of an integer in outside text: docs/grammar.ebnf's ``signed``,
    an optional "-" and ASCII digits, with blanks around it; None for anything else."""
    digits = (body := text.strip()).removeprefix("-")
    return int(body) if digits.isascii() and digits.isdigit() else None


def is_exact(value):
    """Whether value is an int or a Fraction and no bool: the one exact scalar."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def parse_rat(text):
    """Parse "num/den", den unsigned (docs/grammar.ebnf), or an integer into an exact rational."""
    text = text.strip()
    num, slash, den = text.partition("/")
    num, den = read_int(num), None if "-" in den else read_int(den) if slash else 1
    if num is None or den is None:
        raise ParseError(f"bad rational {text!r}; write num/den", 1, 1)
    if den == 0:
        raise ParseError(f"zero denominator in {text!r}", 1, 1)
    return Fraction(num, den)


def format_rat(q):
    """Render a rational in the regular "num/den" wire form."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def checked_weights(carrier, weights, error):
    """Probability weights in kernel form, or ``error`` if they are not.

    Every atom must lie in the carrier, appear once and carry a nonnegative
    int or Fraction; zero weights are dropped and the rest must sum to 1.
    Returns the support's positions in the carrier, ascending, its integer
    numerators and their one common denominator, reduced: the least common
    multiple of the reduced weights' denominators.
    """
    seen = {}
    for atom, w in weights:
        i = carrier.index(atom)
        if not is_exact(w):
            raise error(f"weight {w!r} at {atom_repr(atom)} is not an int or a Fraction")
        if w < 0:
            raise error(f"negative weight {w} at {atom_repr(atom)}")
        if i in seen:
            raise error(f"repeated atom {atom_repr(atom)}")
        seen[i] = w
    support = tuple(sorted(i for i, w in seen.items() if w))
    den = math.lcm(*(seen[i].denominator for i in support))
    nums = tuple(seen[i].numerator * (den // seen[i].denominator) for i in support)
    if sum(nums) != den:
        raise error("weights do not sum to 1")
    return support, nums, den


def bind_rows(nums, den, images, error=NotNormalized):
    """The one integer Kleisli extension: the row (positions, nums, den) bound
    through ``images``, one ``(positions, numerators, denominator)`` each.

    Masses are spread over the lcm of the images' denominators, checked to sum
    to the denominator (else ``error``), reduced by their gcd and sorted by
    position; a single image is returned as it is.
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
    support = tuple(sorted(out))
    if g == 1:
        return support, tuple(map(out.__getitem__, support)), den
    return support, tuple(out[b] // g for b in support), den // g


class Weighting:
    """Rational weights on finitely many atoms of a carrier, summing to 1.

    The one kernel under ``Distribution`` and ``monads.FiniteMeasure``.
    Inside, a weighting is one row: its support's ascending positions in
    ``carrier.elements``, integer numerators and one reduced common
    denominator, so equal weightings have equal rows and equality and hashing
    run over integers, whatever the hash seed; ``bind`` runs ``bind_rows`` on
    rows.  Atoms and ``Fraction`` appear only at the boundary: ``weights``
    builds the sorted ``(atom, Fraction)`` pairs on first use.
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
        return cls._from_kernel(carrier, ((carrier.index(atom),), (1,), 1))

    @property
    def carrier(self):
        return self._carrier

    @property
    def weights(self):
        """Sorted (atom, weight) pairs, nonzero weights only."""
        if self._weights is None:
            support, nums, den = self._kernel
            atoms = self._carrier.elements
            self._weights = tuple((atoms[i], Fraction(n, den)) for i, n in zip(support, nums))
        return self._weights

    def as_dict(self):
        return dict(self.weights)

    def kernel(self):
        """The kernel row: the support's positions, its numerators and their denominator."""
        return self._kernel

    def bind(self, kernel, cod=None):
        """The Kleisli extension of ``kernel`` at these weights, through ``bind_rows``.

        Every image must be a weighting of this class on ``cod``; without
        ``cod``, all images must share one carrier, which the result lives on.
        """
        cls = type(self)
        support, nums, den = self._kernel
        images = [*map(kernel, map(self._carrier.elements.__getitem__, support))]
        for image in images:
            if type(image) is not cls or image._carrier is not cod:
                cod = self._image_carrier(images, cod)
                break
        if len(images) == 1:
            return images[0]
        return cls._from_kernel(cod, bind_rows(
            nums, den, [image._kernel for image in images], self._error))

    def _image_carrier(self, images, cod):
        """The carrier the kernel images share: ``cod``, or the first image's."""
        cls = type(self)
        for a, image in zip(map(self._carrier.elements.__getitem__, self._kernel[0]), images):
            if type(image) is not cls:
                raise MonadMismatch(f"kernel image at {atom_repr(a)} is not a {cls.__name__}")
            if cod is None:
                cod = image._carrier
            elif image._carrier is not cod and image._carrier != cod:
                raise CarrierMismatch(
                    f"kernel image at {atom_repr(a)} lives on {image._carrier!r}, not on {cod!r}")
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
        return self.as_dict().get(atom, ZERO)
