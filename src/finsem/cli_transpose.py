"""``finsem transpose``: a transpose of a JSON payload, and its round trip."""

import json
import sys

from .cli import Usage, _emit, _read
from .errors import FinsemError, UnknownElement
from .jsonio import atom_token, element_to_json, read_atom
from .kernel import Distribution, FinSet, atom_repr, format_rat, parse_rat
from .monads import LensPair
from .order import MonotoneMap, make_poset
from .transformers import REGISTRY, THREE, predicate_lattice
from .triangle import KleisliArrow


def _poset_from_json(data):
    return make_poset(list(map(read_atom, data["elements"])),
                      [tuple(map(read_atom, c)) for c in data.get("covers", [])])


def cmd_transpose(args):
    corr = REGISTRY.get(args.correspondence)
    if corr is None:
        raise Usage(f"unknown correspondence {args.correspondence!r}")
    if corr.family is None and corr.id != "three":
        raise Usage(f"transpose is not wired for {corr.id}")
    try:
        data = json.loads(sys.stdin.read() if args.input == "-" else _read(args.input))
    except json.JSONDecodeError as exc:
        raise Usage(f"transpose payload is not JSON: {exc}")
    if not isinstance(data, dict):
        raise Usage("transpose payload must be a JSON object")
    direction = data.get("direction", "forward")
    # expectation has no backward codec
    directions = ("forward",) if corr.id == "expectation" else ("forward", "backward")
    if direction not in directions:
        raise Usage(f"transpose direction for {corr.id} must be {' or '.join(directions)}, "
                    f"not {direction!r}")
    try:
        value, x, y, key, encode = _decode_transpose(corr, direction, data)
    except KeyError as exc:
        raise Usage(f"transpose payload is missing {atom_repr(exc.args[0])}")
    except (FinsemError, LookupError, TypeError, ValueError, AttributeError) as exc:
        raise Usage(f"transpose payload: {exc}")
    # one runner for every payload kind: the transpose out, then the round trip back
    step, back = corr.forward, corr.backward
    if direction == "backward":
        step, back = back, step
    try:
        out = step(value, x, y)
        payload = {key: encode(out), "round_trip": back(out, x, y) == value}
    except FinsemError as exc:
        print(f"transpose failed: {exc}", file=sys.stderr)
        return 1
    _emit(payload, args.format)
    return 0 if payload["round_trip"] else 1


def _decode_transpose(corr, direction, data):
    """What differs between the payload kinds: the input value, the objects x
    and y it lives between, and the key and encoder of the output.

    cmd_transpose sends value through the direction's transpose, reports the
    result under key as encode renders it, and sends it back for the round
    trip.  A failure while decoding is bad input; the transposes' own
    failures, such as a transformer breaking its side conditions, are failed
    checks.
    """
    if corr.id == "three":
        poset = _poset_from_json(data["poset"])
        if direction == "forward":
            m = MonotoneMap.from_dict(poset, THREE, {
                x: read_atom(v) for x, v in _entries(data, "map", poset, "the poset").items()})
            return m, poset, None, "lens", lambda lens: {
                "outer": sorted(map(atom_token, lens.outer)),
                "inner": sorted(map(atom_token, lens.inner))}
        lens = LensPair(poset, _subset_from_json_atoms(data["outer"]),
                        _subset_from_json_atoms(data["inner"]))
        return lens, poset, None, "map", lambda m: {atom_token(x): m(x) for x in poset.elements}

    # the arrow-style correspondences and expectation, between finite sets or posets
    family = corr.family
    decode = _poset_from_json if family.base == "poset" else (
        lambda items: FinSet(map(read_atom, items)))
    dom, cod = decode(data["dom"]), decode(data["cod"])
    if corr.id == "expectation":
        from .effects import FuzzyPredicate

        arrow = KleisliArrow.from_dict(family, dom, cod, {
            x: Distribution(cod, tuple((read_atom(y), parse_rat(w)) for y, w in row.items()))
            for x, row in _entries(data, "arrow", dom, "the domain").items()
        })
        q = FuzzyPredicate.from_dict(cod, {
            y: parse_rat(v)
            for y, v in _entries(data, "predicate", cod, "the codomain").items()})

        def encode(transform):
            result = transform(q)
            return {atom_token(x): format_rat(result(x)) for x in dom}
        return arrow, dom, cod, "transformed", encode
    # both predicate lattices are built here, so an oversized object is bad input
    pred_dom, pred_cod = predicate_lattice(family, cod), predicate_lattice(family, dom)
    if direction == "forward":
        arrow = KleisliArrow.from_dict(family, dom, cod, {
            x: _element_from_json(family, v)
            for x, v in _entries(data, "arrow", dom, "the domain").items()
        })
        return arrow, dom, cod, "transformer", lambda m: {
            atom_token(k): sorted(map(atom_token, m(k))) for k in pred_dom.elements}
    m = MonotoneMap.from_dict(pred_dom, pred_cod, {
        k: _subset_from_json_atoms(v)
        for k, v in _entries(data, "transformer", pred_dom, "the predicates on the codomain",
                             lambda k: _subset_from_json_atoms(_parse_set_token(k))).items()
    })
    return m, dom, cod, "arrow", lambda arrow: {
        atom_token(x): element_to_json(arrow(x)) for x in arrow.dom.carrier.elements}


def _entries(data, key, dom, where, decode=read_atom):
    """The JSON object data[key] with its keys decoded, by default as atoms.

    The transposes read only the entries of dom's elements, so an entry for
    anything else is refused here rather than dropped, as is a second entry
    for the same element.
    """
    out = {}
    for text, value in data[key].items():
        k = decode(text)
        if k not in dom:
            raise UnknownElement(f"{key} has an entry for {text!r} outside {where}")
        if k in out:
            raise ValueError(f"{key} has two entries for {atom_repr(k)}")
        out[k] = value
    return out


def _parse_set_token(token):
    token = token.strip()
    if token.startswith("{") and token.endswith("}"):
        token = token[1:-1]
    return [t for t in token.split(",") if t]


def _subset_from_json_atoms(items):
    return frozenset(map(read_atom, items))


def _element_from_json(family, value):
    if family.name in ("filter", "monotone-neighbourhood", "neighbourhood",
                       "ultrafilter"):
        return frozenset(_subset_from_json_atoms(v) for v in value)
    if family.name == "plotkin":
        return (_subset_from_json_atoms(value[0]), _subset_from_json_atoms(value[1]))
    return _subset_from_json_atoms(value)
