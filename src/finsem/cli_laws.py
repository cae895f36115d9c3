"""``finsem laws``: the monad law suites, and the effect-algebra axioms."""

from .cli import Usage
from .kernel import FinSet
from .monads import FAMILIES
from .order import all_posets
from .triangle import check_monad_laws


def _law_objects(family, max_size):
    if family.base == "poset":
        return tuple(p for p in all_posets(max_size) if len(p) >= 1)
    return tuple(FinSet(range(n)) for n in range(max_size + 1))


def cmd_laws(args):
    names = [args.monad] if args.monad else sorted(FAMILIES)
    reports = []
    for name in names:
        if name not in FAMILIES:
            raise Usage(f"unknown monad {name!r}; known: {', '.join(sorted(FAMILIES))}")
        family = FAMILIES[name]
        max_size = min(args.max_size, family.cap)
        if family.name in ("neighbourhood", "monotone-neighbourhood"):
            max_size = min(max_size, 2)
        objects = _law_objects(family, max_size)
        report = check_monad_laws(family, objects, seed=args.seed)
        if not report.checked_total():
            raise Usage(f"--max-size {args.max_size} leaves nothing to check for {name}")
        reports.append(report)
    for report in reports:
        print(report.summary())
    failures = sum(not report.ok for report in reports)
    if args.effects:
        from . import effects

        for inst in (effects.powerset_effect_algebra(FinSet(range(2))),
                     effects.unit_interval_effect_algebra(effects.farey_grid(6))):
            rep = effects.validate_effect_algebra(inst)
            print(rep.listing())
            if not rep.ok:
                failures += 1
    return 1 if failures else 0
