"""``finsem certify``: full-and-faithfulness certification of a correspondence."""

from .cli import Usage, _emit, count
from .kernel import FinSet
from .order import all_posets
from .transformers import REGISTRY, expectation_round_trip
from .triangle import CertifyReport, certify_full_faithful


def cmd_certify(args):
    corr = REGISTRY.get(args.correspondence)
    if corr is None:
        raise Usage(f"unknown correspondence {args.correspondence!r}")
    try:
        sizes = [count(s) for s in args.sizes.split(",")]
        n, m = sizes * 2 if len(sizes) == 1 else sizes
    except ValueError:
        raise Usage(f"--sizes takes one or two integers such as 2,2, not {args.sizes!r}")
    if corr.id == "three":
        cases = [(p, None) for p in all_posets(n) if len(p) >= 1]
    elif corr.id == "expectation":
        if not (n and m):
            raise Usage(f"--sizes {args.sizes} leaves nothing to check: "
                        f"expectation needs sets of at least one point")
        rep = expectation_round_trip(FinSet(range(n)), FinSet(range(m)),
                                     instances=args.instances, seed=args.seed)
        if not rep.checked:
            raise Usage("--instances 0 leaves nothing to check")
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
        raise Usage(f"--sizes {args.sizes} leaves nothing to check: "
                    f"{corr.id} needs posets of at least one point")
    reports = [certify_full_faithful(corr, x, y) for x, y in cases]
    ok = all(rep.bijection for rep in reports)
    payload = {
        "correspondence": corr.id,
        "kleisli_count": sum(rep.kleisli_count for rep in reports),
        "transformer_count": sum(rep.transformer_count for rep in reports),
        "bijection": ok,
        "cases": [rep.to_json_dict() for rep in reports],
    }
    counterexamples = [rep.counterexample for rep in reports if rep.counterexample is not None]
    if counterexamples:
        payload["counterexample"] = counterexamples[0]
    _emit(payload, args.format)
    return 0 if ok else 1
