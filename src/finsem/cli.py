"""Command-line interface.

Subcommands: wp, run, laws, enumerate, transpose, certify.  Exit codes:
0 success, 1 verification failure, 2 usage error (bad arguments, unreadable
files, malformed input), always with a one-line message on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import gcl
from .effects import (
    farey_grid,
    format_rat,
    parse_rat,
    powerset_effect_algebra,
    unit_interval_effect_algebra,
    validate_effect_algebra,
)
from .errors import FinsemError, ParseError
from .jsonio import (
    atom_token,
    element_to_json,
    parse_object_literal,
    poset_to_json,
)
from .monads import FAMILIES, LensPair
from .order import (
    FinPoset,
    FinSet,
    MonotoneMap,
    all_posets,
    make_poset,
    powerset_lattice,
    upsets,
)
from .transformers import REGISTRY, THREE, expectation_round_trip
from .triangle import KleisliArrow, bind_apply, certify_full_faithful, check_monad_laws


def _print_table(rows, header=None):
    if header:
        print("\t".join(header))
    for row in rows:
        print("\t".join(str(c) for c in row))


def _emit(payload, fmt, table_rows=None, table_header=None):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        _print_table(table_rows or [[json.dumps(payload, sort_keys=True)]], table_header)


def _json_value(v):
    if isinstance(v, bool):
        return 1 if v else 0
    if isinstance(v, Fraction):
        return format_rat(v)
    return v


# -- wp ---------------------------------------------------------------------------


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def cmd_wp(args):
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
    states = space.states(args.state_cap)
    payload = {
        "states": [space.render(s) for s in states],
        "wp": {space.render(s): _json_value(table[s]) for s in states},
    }
    rows = [(space.render(s), str(_json_value(table[s]))) for s in states]
    _emit(payload, args.format, rows, ("state", "wp"))
    return 0


def cmd_run(args):
    program = gcl.parse(_read(args.program))
    arrow = gcl.denote(program, args.mode, state_cap=args.state_cap)
    space = gcl.StateSpace(program.decls)
    states = space.states(args.state_cap)
    family = arrow.family
    if args.init_dist is not None:
        weights = {}
        text = args.init_dist.strip()
        if not (text.startswith("{") and text.endswith("}")):
            print("init distribution must look like {x=0: 1/2, x=1: 1/2}",
                  file=sys.stderr)
            return 2
        for item in text[1:-1].split(","):
            if not item.strip():
                continue
            key, _, value = item.rpartition(":")
            weights[space.parse_state(key)] = parse_rat(value)
        from .effects import Distribution

        start = Distribution(states, tuple(weights.items()))
        if args.mode != "dist":
            print("an initial distribution needs --mode dist", file=sys.stderr)
            return 2
    else:
        init = space.parse_state(args.init)
        start = family.unit(states, init)
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
    if family.base == "poset":
        return tuple(p for p in all_posets(max_size) if len(p) >= 1)
    return tuple(FinSet(range(n)) for n in range(max_size + 1))


def cmd_laws(args):
    names = [args.monad] if args.monad else sorted(FAMILIES)
    failures = 0
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
        reports.append(report)
        print(report.summary())
        if not report.ok:
            failures += 1
    if args.effects:
        grid = farey_grid(6)
        for inst in (powerset_effect_algebra(FinSet(range(2))),
                     unit_interval_effect_algebra(grid)):
            rep = validate_effect_algebra(inst)
            print(rep.summary())
            if not rep.ok:
                failures += 1
    return 1 if failures else 0


# -- enumerate ------------------------------------------------------------------------


def cmd_enumerate(args):
    obj = parse_object_literal(args.object)
    family = FAMILIES.get(args.monad)
    if family is None:
        print(f"unknown monad {args.monad!r}", file=sys.stderr)
        return 2
    if family.base == "poset" and isinstance(obj, FinSet):
        from .order import discrete

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
    return make_poset(
        [tuple(e) if isinstance(e, list) else e for e in data["elements"]],
        [tuple(c) for c in data.get("covers", [])],
    )


def cmd_transpose(args):
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
    try:
        payload = _transpose_dispatch(corr, data.get("direction", "forward"), data)
    except KeyError as exc:
        print(f"transpose payload is missing {exc.args[0]!r}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"transpose payload: {exc}", file=sys.stderr)
        return 2
    except FinsemError as exc:
        print(f"transpose failed: {exc}", file=sys.stderr)
        return 1
    _emit(payload, args.format)
    return 0 if payload.get("round_trip", True) else 1


def _transpose_dispatch(corr, direction, data):
    from .effects import Distribution, FuzzyPredicate
    from .transformers import (
        expectation_computation,
        expectation_pred,
        three_backward,
        three_forward,
    )

    if corr.id == "three":
        poset = _poset_from_json(data["poset"])
        if direction == "forward":
            m = MonotoneMap.from_dict(poset, THREE,
                                      {_maybe_int(k): v for k, v in data["map"].items()})
            lens = three_forward(m)
            back = three_backward(lens)
            return {
                "lens": {"outer": sorted(map(atom_token, lens.outer)),
                         "inner": sorted(map(atom_token, lens.inner))},
                "round_trip": back == m,
            }
        lens = LensPair(poset, _subset_from_json_atoms(data["outer"]),
                        _subset_from_json_atoms(data["inner"]))
        m = three_backward(lens)
        return {
            "map": {atom_token(x): m(x) for x in poset.elements},
            "round_trip": three_forward(m) == lens,
        }

    if corr.id == "expectation":
        dom = FinSet(map(_maybe_int, data["dom"]))
        cod = FinSet(map(_maybe_int, data["cod"]))
        arrow = KleisliArrow.from_dict(corr.family, dom, cod, {
            _maybe_int(x): Distribution(cod, tuple(
                (_maybe_int(y), parse_rat(w)) for y, w in row.items()))
            for x, row in data["arrow"].items()
        })
        transform = expectation_pred(arrow)
        q = FuzzyPredicate.from_dict(cod, {
            _maybe_int(y): parse_rat(v) for y, v in data["predicate"].items()})
        result = transform(q)
        back = expectation_computation(transform, dom, cod)
        return {
            "transformed": {atom_token(x): format_rat(result(x)) for x in dom},
            "round_trip": back == arrow,
        }

    # arrow-style correspondences between finite sets or finite posets
    family = corr.family
    if family.base == "set":
        x_obj = FinSet(map(_maybe_int, data["dom"]))
        y_obj = FinSet(map(_maybe_int, data["cod"]))
        pred_dom, pred_cod = powerset_lattice(y_obj), powerset_lattice(x_obj)
    else:
        x_obj, y_obj = _poset_from_json(data["dom"]), _poset_from_json(data["cod"])
        pred_dom, pred_cod = upsets(y_obj), upsets(x_obj)

    if direction == "forward":
        mapping = {
            _maybe_int(x): _element_from_json(family, v)
            for x, v in data["arrow"].items()
        }
        arrow = KleisliArrow.from_dict(family, x_obj, y_obj, mapping)
        m = corr.forward(arrow, x_obj, y_obj)
        back = corr.backward(m, x_obj, y_obj)
        return {
            "transformer": {atom_token(k): sorted(map(atom_token, m(k)))
                            for k in pred_dom.elements},
            "round_trip": back == arrow,
        }
    table = {
        _subset_from_json_atoms(_parse_set_token(k)): _subset_from_json_atoms(v)
        for k, v in data["transformer"].items()
    }
    m = MonotoneMap.from_dict(pred_dom, pred_cod, table)
    arrow = corr.backward(m, x_obj, y_obj)
    return {
        "arrow": {atom_token(x): element_to_json(arrow(x))
                  for x in arrow.dom.carrier.elements},
        "round_trip": corr.forward(arrow, x_obj, y_obj) == m,
    }


def _maybe_int(text):
    if isinstance(text, int):
        return text
    try:
        return int(text)
    except (TypeError, ValueError):
        return text


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
    corr = REGISTRY.get(args.correspondence)
    if corr is None:
        print(f"unknown correspondence {args.correspondence!r}", file=sys.stderr)
        return 2
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        print(f"--sizes takes one or two integers such as 2,2, not {args.sizes!r}",
              file=sys.stderr)
        return 2
    if len(sizes) == 1:
        sizes = sizes * 2
    n, m = sizes[:2]
    if corr.id == "three":
        cases = [(p, None) for p in all_posets(n) if len(p) >= 1]
    elif corr.id == "expectation":
        rep = expectation_round_trip(FinSet(range(n)), FinSet(range(m)),
                                     instances=args.instances, seed=args.seed)
        payload = {
            "correspondence": corr.id,
            "kleisli_count": rep.checked,
            "transformer_count": rep.checked,
            "bijection": rep.ok,
        }
        _emit(payload, args.format)
        return 0 if rep.ok else 1
    elif corr.family is not None and corr.family.base == "set":
        cases = [(FinSet(range(n)), FinSet(range(m)))]
    else:
        posets_n = [p for p in all_posets(n) if len(p) >= 1]
        posets_m = [p for p in all_posets(m) if len(p) >= 1]
        cases = [(p, q) for p in posets_n for q in posets_m]
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
    p.add_argument("--flavor", choices=gcl.FLAVORS, default=None)
    p.add_argument("--post", default=None, help="overrides the post: clause")
    p.add_argument("--state-cap", type=int, default=gcl.DEFAULT_STATE_CAP)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_wp)

    p = sub.add_parser("run", help="apply the denotation to an initial state")
    p.add_argument("program")
    p.add_argument("--mode", choices=("pow", "dist"), default="pow")
    p.add_argument("--init", default=None, help="e.g. x=0,y=1")
    p.add_argument("--init-dist", default=None,
                   help="e.g. {x=0: 1/2, x=1: 1/2} (dist mode)")
    p.add_argument("--state-cap", type=int, default=gcl.DEFAULT_STATE_CAP)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("laws", help="run the monad/effect-algebra law suites")
    p.add_argument("--monad", default=None, help="one of: " + ", ".join(sorted(FAMILIES)))
    p.add_argument("--max-size", type=int, default=3)
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
                   help="one of: " + ", ".join(sorted(REGISTRY)))
    p.add_argument("--input", required=True, help="JSON file, or - for stdin")
    p.add_argument("--format", choices=("table", "json"), default="json")
    p.set_defaults(func=cmd_transpose)

    p = sub.add_parser("certify", help="full-and-faithfulness certification")
    p.add_argument("--correspondence", required=True)
    p.add_argument("--sizes", required=True, help="e.g. 2,2")
    p.add_argument("--instances", type=int, default=200,
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
    if args.command == "run" and args.init is None and args.init_dist is None:
        print("run needs --init or --init-dist", file=sys.stderr)
        return 2
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
