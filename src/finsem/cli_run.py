"""``finsem run``: a program's denotation applied to a start state or distribution."""

from . import gcl
from .cli import Usage, _emit, _read
from .jsonio import element_to_json
from .kernel import Distribution, format_rat, parse_rat


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
    program = gcl.parse(_read(args.program))
    # the program's errors come first, then those of the start
    apply = gcl.image(program, args.mode, state_cap=args.state_cap)
    space = gcl.StateSpace(program.decls)
    if args.init_dist is not None:
        if args.mode != "dist":
            raise Usage("an initial distribution needs --mode dist")
        weights = {}
        text = args.init_dist.strip()
        if not (text.startswith("{") and text.endswith("}")):
            raise Usage("init distribution must look like {x=0: 1/2, x=1: 1/2}")
        for item in _dist_entries(text[1:-1]):
            key, colon, value = item.rpartition(":")
            if not colon:
                raise Usage(f"entry {item.strip()!r} of the initial distribution has no weight")
            state = space.parse_state(key)
            if state in weights:
                raise Usage(f"state {space.render(state)} given twice in the initial distribution")
            weights[state] = parse_rat(value)
        start = Distribution(space.states(args.state_cap), tuple(weights.items()))
    else:
        start = space.parse_state(args.init)
    result = apply(start)
    payload = {"result": element_to_json(result)}
    if isinstance(result, frozenset):
        rows = [(space.render(s),) for s in sorted(result)]
        _emit(payload, args.format, rows, ("state",))
    else:
        rows = [(space.render(s), format_rat(w)) for s, w in result.weights]
        _emit(payload, args.format, rows, ("state", "weight"))
    return 0
