"""``finsem enumerate``: a monad's structure space over an object literal."""

import json

from .cli import Usage, _emit
from .errors import FinsemError
from .jsonio import atom_token, element_to_json, parse_object_literal, poset_to_json
from .kernel import FinSet
from .monads import FAMILIES
from .order import FinPoset, antichain


def cmd_enumerate(args):
    obj = parse_object_literal(args.object)
    family = FAMILIES.get(args.monad)
    if family is None:
        raise Usage(f"unknown monad {args.monad!r}")
    if family.base == "poset" and isinstance(obj, FinSet):
        obj = antichain(obj.elements)
    if family.base == "set":
        obj = obj.carrier
    try:
        elements = family.elements(obj)
    except FinsemError as exc:
        raise Usage(f"cannot enumerate: {exc}")
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

