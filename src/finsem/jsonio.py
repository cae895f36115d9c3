"""JSON and text-literal wire formats.

Conventions: atoms are ints and strings (``read_atom``), rationals are
"num/den" strings, subsets are sorted lists, lens pairs are two sorted lists,
and exported mappings use sorted keys, so output repeats byte for byte.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .check import Frozen
from .errors import ParseError, UnknownElement
from .kernel import FinSet, Weighting, atom_key, format_rat, read_int


def render_subset(members):
    return [element_to_json(x) for x in sorted(members, key=atom_key)]


def atom_token(value):
    """A flat string naming one atom, used where JSON keys are needed."""
    if isinstance(value, frozenset):
        return "{" + ",".join(atom_token(x) for x in sorted(value, key=atom_key)) + "}"
    if isinstance(value, tuple):
        return "(" + ",".join(atom_token(x) for x in value) + ")"
    if isinstance(value, Fraction):
        return format_rat(value)
    return str(value)


def read_atom(value):
    """The atom a JSON value or a literal token names: an int as it is, a string
    that ``kernel.read_int`` reads as that int, any other string as written."""
    if isinstance(value, str):
        return value if (n := read_int(value)) is None else n
    if isinstance(value, bool) or not isinstance(value, int):
        raise UnknownElement(f"atom {value!r} is not an int or a string")
    return value


def poset_to_json(poset):
    return {
        "elements": [element_to_json(x) for x in poset.elements],
        "covers": [[element_to_json(a), element_to_json(b)] for a, b in poset.cover_pairs()],
    }


def element_to_json(value):
    """Canonical JSON for any structure element the zoo produces, and for its atoms."""
    if isinstance(value, frozenset):
        return render_subset(value)
    if isinstance(value, tuple):
        return [element_to_json(v) for v in value]
    if isinstance(value, Fraction):
        return format_rat(value)
    if isinstance(value, Weighting):  # a Distribution or a monads.FiniteMeasure
        return {atom_token(a): format_rat(w) for a, w in value.weights}
    if isinstance(value, Frozen):  # a LensPair or FilterOf: an atom loads no monads
        from .monads import FilterOf, LensPair

        if isinstance(value, LensPair):
            return {"outer": render_subset(value.outer), "inner": render_subset(value.inner)}
        if isinstance(value, FilterOf):
            return {"members": render_subset(value.members)}
    return value


# -- object literals -----------------------------------------------------------------

_LITERAL_RE = re.compile(
    r"^\s*(?P<kind>poset|set)\s*(?P<name>[A-Za-z_][\w-]*)?\s*\{(?P<body>.*)\}\s*$",
    re.DOTALL,
)


def parse_object_literal(text):
    """Parse `poset N { elems a b; covers a<b; }` or `set N { elems a b; }`.

    Returns a FinSet for set literals and a FinPoset for poset literals.
    """
    m = _LITERAL_RE.match(text)
    if m is None:
        raise ParseError("expected `poset ... { ... }` or `set ... { ... }`", 1, 1)
    elems = []
    covers = []
    saw_elems = False
    for clause in m.group("body").split(";"):
        clause = clause.strip()
        if not clause:
            continue
        head, _, rest = clause.partition(" ")
        if head == "elems":
            saw_elems = True
            elems.extend(map(read_atom, rest.split()))
        elif head == "covers":
            for pair in rest.split():
                if "<" not in pair:
                    raise ParseError(f"bad cover {pair!r}; use a<b", 1, 1)
                a, b = pair.split("<", 1)
                covers.append((read_atom(a), read_atom(b)))
        else:
            raise ParseError(f"unknown clause {head!r}", 1, 1)
    if not saw_elems:
        raise ParseError("literal needs an `elems` clause", 1, 1)
    if m.group("kind") == "set":
        if covers:
            raise ParseError("a set literal cannot declare covers", 1, 1)
        return FinSet(elems)
    from .order import make_poset

    return make_poset(elems, covers)
