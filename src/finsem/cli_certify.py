"""``finsem certify``: full-and-faithfulness certification of a correspondence."""

import sys

from .cli import _emit, count
from .kernel import FinSet
from .order import all_posets
from .transformers import REGISTRY, expectation_round_trip
from .triangle import CertifyReport, certify_full_faithful


def cmd_certify(args):
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
