"""Command-line interface.

Subcommands: wp, run, laws, enumerate, transpose, certify.  Exit codes:
0 success, 1 verification failure, 2 usage error (bad arguments, unreadable
files, malformed input), with a one-line message on stderr; argparse prints
its usage lines before the message for an error in the flags themselves.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .errors import FinsemError, UnknownElement

# The parser's choices, held here so that building it loads no other module;
# tests/test_cli.py pins each to its source.
FLAVORS = ("demonic", "angelic", "expectation")  # gcl.FLAVORS
DEFAULT_STATE_CAP = 512  # gcl.DEFAULT_STATE_CAP
MONAD_NAMES = ("dist", "downset", "filter", "giry", "hoare", "monotone-neighbourhood",
               "neighbourhood", "plotkin", "powerset", "smyth", "ultrafilter")
CORRESPONDENCE_NAMES = ("box", "diamond", "expectation", "filter", "hoare",
                        "monotone-nbhd", "plotkin-hom", "smyth", "three")


def _print_table(rows, header=None):
    if header:
        print("\t".join(header))
    for row in rows:
        print("\t".join(str(c) for c in row))


def _emit(payload, fmt, table_rows=None, table_header=None):
    if fmt == "table" and table_rows:
        _print_table(table_rows, table_header)
        return
    import json

    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        _print_table([[json.dumps(payload, sort_keys=True)]], table_header)


# -- wp ---------------------------------------------------------------------------


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise FinsemError(f"cannot read {path}: not UTF-8 text") from None


def cmd_wp(args):
    from . import gcl
    from .effects import format_rat

    program = gcl.parse(_read(args.program))
    flavor = args.flavor
    if flavor is None:
        flavor = "expectation" if args.mode == "dist" else "demonic"
    if gcl.mode_of_flavor(flavor) != args.mode:
        print(f"flavor {flavor} does not run in mode {args.mode}", file=sys.stderr)
        return 2
    if args.post is not None:
        post = args.post
    elif program.post is not None:
        post = program.post
    else:
        print("no post-condition: give one with --post or a post: clause",
              file=sys.stderr)
        return 2
    table = gcl.wp(program, post, flavor, state_cap=args.state_cap)
    space = gcl.StateSpace(program.decls)
    # a bool of pow mode prints as 0 or 1, a rational of dist mode as num/den
    values = {space.render(s): format_rat(v) if isinstance(v, Fraction) else int(v)
              for s, v in table.items()}
    payload = {"states": list(values), "wp": values}
    _emit(payload, args.format, [(k, str(v)) for k, v in values.items()], ("state", "wp"))
    return 0


def _dist_entries(body):
    """The ``state: weight`` entries of an initial distribution.

    A state is written as ``--init`` writes it, commas and all; a weight holds
    no comma, so an entry ends at the first comma after its colon.
    """
    entries, current = [], []
    for part in body.split(","):
        current.append(part)
        if ":" in part:
            entries.append(",".join(current))
            current = []
    if "".join(current).strip():
        entries.append(",".join(current))
    return entries


def cmd_run(args):
    from . import gcl
    from .effects import Distribution, format_rat, parse_rat
    from .jsonio import element_to_json
    from .triangle import bind_apply

    program = gcl.parse(_read(args.program))
    arrow = gcl.denote(program, args.mode, state_cap=args.state_cap)
    space, states = gcl.StateSpace(program.decls), arrow.dom
    if args.init_dist is not None:
        if args.mode != "dist":
            print("an initial distribution needs --mode dist", file=sys.stderr)
            return 2
        weights = {}
        text = args.init_dist.strip()
        if not (text.startswith("{") and text.endswith("}")):
            print("init distribution must look like {x=0: 1/2, x=1: 1/2}",
                  file=sys.stderr)
            return 2
        for item in _dist_entries(text[1:-1]):
            key, colon, value = item.rpartition(":")
            if not colon:
                print(f"entry {item.strip()!r} of the initial distribution has no weight",
                      file=sys.stderr)
                return 2
            state = space.parse_state(key)
            if state in weights:
                print(f"state {space.render(state)} given twice in the initial distribution",
                      file=sys.stderr)
                return 2
            weights[state] = parse_rat(value)
        start = Distribution(states, tuple(weights.items()))
    else:
        start = arrow.family.unit(states, space.parse_state(args.init))
    result = bind_apply(arrow, start)
    payload = {"result": element_to_json(result)}
    if isinstance(result, frozenset):
        rows = [(space.render(s),) for s in sorted(result)]
        _emit(payload, args.format, rows, ("state",))
    else:
        rows = [(space.render(s), format_rat(w)) for s, w in result.weights]
        _emit(payload, args.format, rows, ("state", "weight"))
    return 0


# -- laws --------------------------------------------------------------------------


def _law_objects(family, max_size):
    from .order import FinSet, all_posets

    if family.base == "poset":
        return tuple(p for p in all_posets(max_size) if len(p) >= 1)
    return tuple(FinSet(range(n)) for n in range(max_size + 1))


def cmd_laws(args):
    from .effects import (
        farey_grid,
        powerset_effect_algebra,
        unit_interval_effect_algebra,
        validate_effect_algebra,
    )
    from .monads import FAMILIES
    from .order import FinSet
    from .triangle import check_monad_laws

    names = [args.monad] if args.monad else sorted(FAMILIES)
    reports = []
    for name in names:
        if name not in FAMILIES:
            print(f"unknown monad {name!r}; known: {', '.join(sorted(FAMILIES))}",
                  file=sys.stderr)
            return 2
        family = FAMILIES[name]
        max_size = min(args.max_size, family.cap)
        if family.name in ("neighbourhood", "monotone-neighbourhood"):
            max_size = min(max_size, 2)
        objects = _law_objects(family, max_size)
        report = check_monad_laws(family, objects, seed=args.seed)
        if not report.checked_total():
            print(f"--max-size {args.max_size} leaves nothing to check for {name}",
                  file=sys.stderr)
            return 2
        reports.append(report)
    for report in reports:
        print(report.summary())
    failures = sum(not report.ok for report in reports)
    if args.effects:
        grid = farey_grid(6)
        for inst in (powerset_effect_algebra(FinSet(range(2))),
                     unit_interval_effect_algebra(grid)):
            rep = validate_effect_algebra(inst)
            print(rep.listing())
            if not rep.ok:
                failures += 1
    return 1 if failures else 0


# -- enumerate ------------------------------------------------------------------------


def cmd_enumerate(args):
    import json

    from .jsonio import atom_token, element_to_json, parse_object_literal, poset_to_json
    from .monads import FAMILIES
    from .order import FinPoset, FinSet, discrete

    obj = parse_object_literal(args.object)
    family = FAMILIES.get(args.monad)
    if family is None:
        print(f"unknown monad {args.monad!r}", file=sys.stderr)
        return 2
    if family.base == "poset" and isinstance(obj, FinSet):
        obj = discrete(obj)
    if family.base == "set":
        obj = obj.carrier
    try:
        elements = family.elements(obj)
    except FinsemError as exc:
        print(f"cannot enumerate: {exc}", file=sys.stderr)
        return 2
    payload = {
        "monad": family.name,
        "object": poset_to_json(obj) if isinstance(obj, FinPoset) else {
            "elements": [atom_token(x) for x in obj.elements]},
        "cardinality": len(elements),
        "structure": [element_to_json(t) for t in elements],
    }
    rows = [(json.dumps(element_to_json(t), sort_keys=True),) for t in elements]
    _emit(payload, args.format, rows,
          (f"{family.name}: {len(elements)} elements",))
    return 0


# -- transpose -----------------------------------------------------------------------


def _poset_from_json(data):
    from .order import make_poset

    return make_poset(
        [tuple(e) if isinstance(e, list) else e for e in data["elements"]],
        [tuple(c) for c in data.get("covers", [])],
    )


def cmd_transpose(args):
    import json

    from .order import atom_repr
    from .transformers import REGISTRY

    corr = REGISTRY.get(args.correspondence)
    if corr is None:
        print(f"unknown correspondence {args.correspondence!r}", file=sys.stderr)
        return 2
    if corr.family is None and corr.id != "three":
        print(f"transpose is not wired for {corr.id}", file=sys.stderr)
        return 2
    try:
        data = json.loads(sys.stdin.read() if args.input == "-" else _read(args.input))
    except json.JSONDecodeError as exc:
        print(f"transpose payload is not JSON: {exc}", file=sys.stderr)
        return 2
    if not isinstance(data, dict):
        print("transpose payload must be a JSON object", file=sys.stderr)
        return 2
    direction = data.get("direction", "forward")
    # expectation has no backward codec
    directions = ("forward",) if corr.id == "expectation" else ("forward", "backward")
    if direction not in directions:
        print(f"transpose direction for {corr.id} must be {' or '.join(directions)}, "
              f"not {direction!r}", file=sys.stderr)
        return 2
    try:
        value, x, y, key, encode = _decode_transpose(corr, direction, data)
    except KeyError as exc:
        print(f"transpose payload is missing {atom_repr(exc.args[0])}", file=sys.stderr)
        return 2
    except (FinsemError, LookupError, TypeError, ValueError, AttributeError) as exc:
        print(f"transpose payload: {exc}", file=sys.stderr)
        return 2
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
    from .effects import Distribution, FuzzyPredicate, format_rat, parse_rat
    from .jsonio import atom_token, element_to_json
    from .monads import LensPair
    from .order import FinSet, MonotoneMap
    from .transformers import THREE, predicate_lattice
    from .triangle import KleisliArrow

    if corr.id == "three":
        poset = _poset_from_json(data["poset"])
        if direction == "forward":
            m = MonotoneMap.from_dict(poset, THREE, _entries(data, "map", poset, "the poset"))
            return m, poset, None, "lens", lambda lens: {
                "outer": sorted(map(atom_token, lens.outer)),
                "inner": sorted(map(atom_token, lens.inner))}
        lens = LensPair(poset, _subset_from_json_atoms(data["outer"]),
                        _subset_from_json_atoms(data["inner"]))
        return lens, poset, None, "map", lambda m: {atom_token(x): m(x) for x in poset.elements}

    # the arrow-style correspondences and expectation, between finite sets or posets
    family = corr.family
    decode = _poset_from_json if family.base == "poset" else (
        lambda items: FinSet(map(_maybe_int, items)))
    dom, cod = decode(data["dom"]), decode(data["cod"])
    if corr.id == "expectation":
        arrow = KleisliArrow.from_dict(family, dom, cod, {
            x: Distribution(cod, tuple((_maybe_int(y), parse_rat(w)) for y, w in row.items()))
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


def _maybe_int(text):
    if isinstance(text, int):
        return text
    try:
        return int(text)
    except (TypeError, ValueError):
        return text


def _entries(data, key, dom, where, decode=_maybe_int):
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
            from .order import atom_repr

            raise ValueError(f"{key} has two entries for {atom_repr(k)}")
        out[k] = value
    return out


def _parse_set_token(token):
    token = token.strip()
    if token.startswith("{") and token.endswith("}"):
        token = token[1:-1]
    return [t for t in token.split(",") if t]


def _subset_from_json_atoms(items):
    return frozenset(_maybe_int(a) for a in items)


def _element_from_json(family, value):
    if family.name in ("filter", "monotone-neighbourhood", "neighbourhood",
                       "ultrafilter"):
        return frozenset(_subset_from_json_atoms(v) for v in value)
    if family.name == "plotkin":
        return (_subset_from_json_atoms(value[0]), _subset_from_json_atoms(value[1]))
    return _subset_from_json_atoms(value)


# -- certify -------------------------------------------------------------------------


def cmd_certify(args):
    from .order import FinSet, all_posets
    from .transformers import REGISTRY, expectation_round_trip
    from .triangle import CertifyReport, certify_full_faithful

    corr = REGISTRY.get(args.correspondence)
    if corr is None:
        print(f"unknown correspondence {args.correspondence!r}", file=sys.stderr)
        return 2
    try:
        sizes = [count(s) for s in args.sizes.split(",")]
        n, m = sizes * 2 if len(sizes) == 1 else sizes
    except ValueError:
        print(f"--sizes takes one or two integers such as 2,2, not {args.sizes!r}",
              file=sys.stderr)
        return 2
    if corr.id == "three":
        cases = [(p, None) for p in all_posets(n) if len(p) >= 1]
    elif corr.id == "expectation":
        if not (n and m):
            print(f"--sizes {args.sizes} leaves nothing to check: "
                  f"expectation needs sets of at least one point", file=sys.stderr)
            return 2
        rep = expectation_round_trip(FinSet(range(n)), FinSet(range(m)),
                                     instances=args.instances, seed=args.seed)
        if not rep.checked:
            print("--instances 0 leaves nothing to check", file=sys.stderr)
            return 2
        _emit(CertifyReport(corr.id, rep.checked, rep.checked, rep.ok).to_json_dict(),
              args.format)
        return 0 if rep.ok else 1
    elif corr.family is not None and corr.family.base == "set":
        cases = [(FinSet(range(n)), FinSet(range(m)))]
    else:
        posets_n = [p for p in all_posets(n) if len(p) >= 1]
        posets_m = [p for p in all_posets(m) if len(p) >= 1]
        cases = [(p, q) for p in posets_n for q in posets_m]
    if not cases:
        print(f"--sizes {args.sizes} leaves nothing to check: "
              f"{corr.id} needs posets of at least one point", file=sys.stderr)
        return 2
    total_k = total_t = 0
    ok = True
    counterexample = None
    details = []
    for x, y in cases:
        rep = certify_full_faithful(corr, x, y)
        total_k += rep.kleisli_count
        total_t += rep.transformer_count
        details.append(rep.to_json_dict())
        if not rep.bijection:
            ok = False
            counterexample = counterexample or rep.counterexample
    payload = {
        "correspondence": corr.id,
        "kleisli_count": total_k,
        "transformer_count": total_t,
        "bijection": ok,
        "cases": details,
    }
    if counterexample:
        payload["counterexample"] = counterexample
    _emit(payload, args.format)
    return 0 if ok else 1


# -- argument parsing -------------------------------------------------------------------


def count(text):
    """A non-negative integer argument."""
    n = int(text)
    if n < 0:
        raise ValueError(f"{text} is negative")
    return n


def build_parser():
    parser = argparse.ArgumentParser(
        prog="finsem",
        description="finite-model workbench for computation monads and "
                    "weakest preconditions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wp", help="weakest precondition table of a program")
    p.add_argument("program", help="program file")
    p.add_argument("--mode", choices=("pow", "dist"), default="pow")
    p.add_argument("--flavor", choices=FLAVORS, default=None)
    p.add_argument("--post", default=None, help="overrides the post: clause")
    p.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_wp)

    p = sub.add_parser("run", help="apply the denotation to an initial state")
    p.add_argument("program")
    p.add_argument("--mode", choices=("pow", "dist"), default="pow")
    start = p.add_mutually_exclusive_group(required=True)
    start.add_argument("--init", help="e.g. x=0,y=1")
    start.add_argument("--init-dist", help="e.g. {x=0: 1/2, x=1: 1/2} (dist mode)")
    p.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("laws", help="run the monad/effect-algebra law suites")
    p.add_argument("--monad", default=None, help="one of: " + ", ".join(MONAD_NAMES))
    p.add_argument("--max-size", type=count, default=3)
    p.add_argument("--seed", type=int, default=20_240_401)
    p.add_argument("--effects", action="store_true",
                   help="also validate the stock effect algebras")
    p.set_defaults(func=cmd_laws)

    p = sub.add_parser("enumerate", help="enumerate a monad structure space")
    p.add_argument("--monad", required=True)
    p.add_argument("--object", required=True,
                   help="poset N { elems a b; covers a<b; } or set N { elems a b; }")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("transpose", help="apply a transpose to a JSON payload")
    p.add_argument("--correspondence", required=True,
                   help="one of: " + ", ".join(CORRESPONDENCE_NAMES))
    p.add_argument("--input", required=True, help="JSON file, or - for stdin")
    p.add_argument("--format", choices=("table", "json"), default="json")
    p.set_defaults(func=cmd_transpose)

    p = sub.add_parser("certify", help="full-and-faithfulness certification")
    p.add_argument("--correspondence", required=True)
    p.add_argument("--sizes", required=True, help="e.g. 2,2")
    p.add_argument("--instances", type=count, default=200,
                   help="sampled instances for the expectation correspondence")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("table", "json"), default="json")
    p.set_defaults(func=cmd_certify)

    return parser


def cli_main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except OSError as exc:
        print(f"cannot read {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except FinsemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
