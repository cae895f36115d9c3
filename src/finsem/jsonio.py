"""JSON and text-literal wire formats.

Conventions: rationals are "num/den" strings, subsets are sorted lists,
lens pairs are two sorted lists, and every exported mapping uses sorted
keys so output is reproducible byte for byte.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .effects import format_rat
from .errors import ParseError
from .monads import LensPair
from .order import FinSet, atom_key, make_poset


def render_atom(value):
    if isinstance(value, frozenset):
        return render_subset(value)
    if isinstance(value, tuple):
        return [render_atom(v) for v in value]
    if isinstance(value, Fraction):
        return format_rat(value)
    return value


def render_subset(members):
    return [render_atom(x) for x in sorted(members, key=atom_key)]


def atom_token(value):
    """A flat string naming one atom, used where JSON keys are needed."""
    if isinstance(value, frozenset):
        return "{" + ",".join(atom_token(x) for x in sorted(value, key=atom_key)) + "}"
    if isinstance(value, tuple):
        return "(" + ",".join(atom_token(x) for x in value) + ")"
    if isinstance(value, Fraction):
        return format_rat(value)
    return str(value)


def poset_to_json(poset):
    return {
        "elements": [render_atom(x) for x in poset.elements],
        "covers": [[render_atom(a), render_atom(b)] for a, b in poset.cover_pairs()],
    }


def lens_to_json(lens):
    return {"outer": render_subset(lens.outer), "inner": render_subset(lens.inner)}


def element_to_json(value):
    """Canonical JSON for any structure element the zoo produces."""
    from .effects import Distribution
    from .monads import FilterOf, FiniteMeasure

    if isinstance(value, frozenset):
        return render_subset(value)
    if isinstance(value, tuple):
        return [element_to_json(v) for v in value]
    if isinstance(value, (Distribution, FiniteMeasure)):
        return {atom_token(a): format_rat(w) for a, w in value.weights}
    if isinstance(value, LensPair):
        return lens_to_json(value)
    if isinstance(value, FilterOf):
        return {"members": render_subset(value.members)}
    return render_atom(value)


# -- object literals -----------------------------------------------------------------

_LITERAL_RE = re.compile(
    r"^\s*(?P<kind>poset|set)\s*(?P<name>[A-Za-z_][\w-]*)?\s*\{(?P<body>.*)\}\s*$",
    re.DOTALL,
)


def _parse_atom_token(text):
    text = text.strip()
    if re.fullmatch(r"-?\d+", text):
        return int(text)
    return text


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
            elems.extend(_parse_atom_token(t) for t in rest.split())
        elif head == "covers":
            for pair in rest.split():
                if "<" not in pair:
                    raise ParseError(f"bad cover {pair!r}; use a<b", 1, 1)
                a, b = pair.split("<", 1)
                covers.append((_parse_atom_token(a), _parse_atom_token(b)))
        else:
            raise ParseError(f"unknown clause {head!r}", 1, 1)
    if not saw_elems:
        raise ParseError("literal needs an `elems` clause", 1, 1)
    if m.group("kind") == "set":
        if covers:
            raise ParseError("a set literal cannot declare covers", 1, 1)
        return FinSet(elems)
    return make_poset(elems, covers)
