"""``finsem wp``: the weakest-precondition table of a program."""

from fractions import Fraction

from . import gcl
from .cli import Usage, _emit, _read
from .kernel import format_rat


def cmd_wp(args):
    program = gcl.parse(_read(args.program))
    flavor = args.flavor or ("expectation" if args.mode == "dist" else "demonic")
    if gcl.mode_of_flavor(flavor) != args.mode:
        raise Usage(f"flavor {flavor} does not run in mode {args.mode}")
    post = args.post if args.post is not None else program.post
    if post is None:
        raise Usage("no post-condition: give one with --post or a post: clause")
    table = gcl.wp(program, post, flavor, state_cap=args.state_cap)
    space = gcl.StateSpace(program.decls)
    # a bool of pow mode prints as 0 or 1, a rational of dist mode as num/den
    values = {space.render(s): format_rat(v) if isinstance(v, Fraction) else int(v)
              for s, v in table.items()}
    payload = {"states": list(values), "wp": values}
    _emit(payload, args.format, [(k, str(v)) for k, v in values.items()], ("state", "wp"))
    return 0
