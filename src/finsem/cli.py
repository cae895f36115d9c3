"""Command-line interface: the argument parser and the dispatch to a handler.

Subcommands: wp, run, laws, enumerate, transpose, certify.  Each handler
lives in its own module (``cli_wp``, ``cli_run``, ...), which ``_handler``
imports only when that subcommand runs, so a process compiles the parser,
one handler and the layers that handler drives.  Exit codes: 0 success, 1
verification failure, 2 usage error (bad arguments, unreadable files,
malformed input).  A handler raises ``Usage``; ``cli_main`` alone prints it as
it is, or another FinsemError as ``error: ...``, and returns 2.
"""

import argparse
import sys

from .errors import FinsemError
from .kernel import read_int

# The parser's choices, held here so that building it loads no other module;
# tests/test_cli.py pins each to its source.
FLAVORS = ("demonic", "angelic", "expectation")  # gcl.FLAVORS
DEFAULT_STATE_CAP = 512  # gcl.DEFAULT_STATE_CAP
MONAD_NAMES = ("dist", "downset", "filter", "giry", "hoare", "monotone-neighbourhood",
               "neighbourhood", "plotkin", "powerset", "smyth", "ultrafilter")
CORRESPONDENCE_NAMES = ("box", "diamond", "expectation", "filter", "hoare",
                        "monotone-nbhd", "plotkin-hom", "smyth", "three")


class Usage(FinsemError):
    """A usage error found by a handler, its message printed as it is."""


def _emit(payload, fmt, table_rows=None, table_header=None):
    """payload as indented JSON, or as its table rows (one JSON line if it has none)."""
    if fmt != "table" or not table_rows:
        import json

        if fmt == "json":
            print(json.dumps(payload, sort_keys=True, indent=2))
            return
        table_rows = [[json.dumps(payload, sort_keys=True)]]
    if table_header:
        print("\t".join(table_header))
    for row in table_rows:
        print("\t".join(map(str, row)))


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise FinsemError(f"cannot read {path}: not UTF-8 text") from None


def integer(text):
    """An integer argument, read by ``kernel.read_int``."""
    if (n := read_int(text)) is None:
        raise ValueError(f"{text!r} is no integer")
    return n


def count(text):
    """A non-negative integer argument."""
    if (n := integer(text)) < 0:
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
    p.add_argument("--state-cap", type=integer, default=DEFAULT_STATE_CAP)
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("run", help="apply the denotation to an initial state")
    p.add_argument("program")
    p.add_argument("--mode", choices=("pow", "dist"), default="pow")
    start = p.add_mutually_exclusive_group(required=True)
    start.add_argument("--init", help="e.g. x=0,y=1")
    start.add_argument("--init-dist", help="e.g. {x=0: 1/2, x=1: 1/2} (dist mode)")
    p.add_argument("--state-cap", type=integer, default=DEFAULT_STATE_CAP)
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("laws", help="run the monad/effect-algebra law suites")
    p.add_argument("--monad", default=None, help="one of: " + ", ".join(MONAD_NAMES))
    p.add_argument("--max-size", type=count, default=3)
    p.add_argument("--seed", type=integer, default=20_240_401)
    p.add_argument("--effects", action="store_true",
                   help="also validate the stock effect algebras")

    p = sub.add_parser("enumerate", help="enumerate a monad structure space")
    p.add_argument("--monad", required=True)
    p.add_argument("--object", required=True,
                   help="poset N { elems a b; covers a<b; } or set N { elems a b; }")
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("transpose", help="apply a transpose to a JSON payload")
    p.add_argument("--correspondence", required=True,
                   help="one of: " + ", ".join(CORRESPONDENCE_NAMES))
    p.add_argument("--input", required=True, help="JSON file, or - for stdin")
    p.add_argument("--format", choices=("table", "json"), default="json")

    p = sub.add_parser("certify", help="full-and-faithfulness certification")
    p.add_argument("--correspondence", required=True)
    p.add_argument("--sizes", required=True, help="e.g. 2,2")
    p.add_argument("--instances", type=count, default=200,
                   help="sampled instances for the expectation correspondence")
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--format", choices=("table", "json"), default="json")

    return parser


def _handler(command):
    """The handler of a subcommand, imported from its module as it runs."""
    if command == "wp":
        from .cli_wp import cmd_wp as handler
    elif command == "run":
        from .cli_run import cmd_run as handler
    elif command == "laws":
        from .cli_laws import cmd_laws as handler
    elif command == "enumerate":
        from .cli_enumerate import cmd_enumerate as handler
    elif command == "transpose":
        from .cli_transpose import cmd_transpose as handler
    else:
        from .cli_certify import cmd_certify as handler
    return handler


def cli_main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handler = _handler(args.command)  # outside the try: a failed import is no usage error
    try:
        return handler(args)
    except (OSError, FinsemError) as exc:
        print(f"cannot read {exc.filename}: {exc.strerror}" if isinstance(exc, OSError)
              else exc if isinstance(exc, Usage) else f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
