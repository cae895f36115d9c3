"""Seeded guarded-command programs, rendered to source text.

The generator belongs to the benchmark and shares nothing with
``finsem.gcl.random_program`` (which stops at 48 states), so a change to the
library's generator cannot change the workload.  Rendered text follows
``docs/grammar.ebnf``.

A program is a tree of plain tuples:

    statement   ("skip",) | ("abort",) | ("assign", name, expr)
                | ("if", cond, stmts, stmts-or-None)
                | ("choose", stmts, stmts) | ("prob", (num, den), stmts, stmts)
    expression  ("int", n) | ("rat", num, den) | ("var", name)
                | ("neg", e) | ("not", e) | ("iv", e) | ("bin", op, l, r)

``to_gcl`` turns the tree into ``finsem.gcl`` nodes without going through
the parser, so the wp table of the tree can be compared with the wp table of
the parsed text.  Their shapes differ (the parser nests ``;`` to the left), so
tables are compared, never trees.
"""

from __future__ import annotations

import random
from fractions import Fraction

STATE_SIZES = (16, 32, 64, 128, 256, 512)
FLAVORS = ("demonic", "angelic", "expectation")
NAMES = ("x", "y", "z", "acc", "n1", "k_2")

# binding strength, loosest first; an atom binds tightest
_PREC = {"||": 1, "&&": 2, "!": 3,
         "==": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
         "+": 5, "-": 5, "*": 6}
_ATOM = 7


def mode_of(flavor):
    return "dist" if flavor == "expectation" else "pow"


# -- generation ---------------------------------------------------------------------


def _decls(rng, states):
    """Three variables whose ranges multiply out to ``states``, a power of 2 >= 8."""
    bits = states.bit_length() - 1
    cuts = sorted(rng.sample(range(1, bits), 2))
    widths = [b - a for a, b in zip([0] + cuts, cuts + [bits])]
    names = rng.sample(NAMES, 3)
    decls = []
    for name, width in zip(names, widths):
        lo = rng.randint(-2, 1)
        decls.append((name, lo, lo + (1 << width) - 1))
    return tuple(decls)


def _int_expr(rng, names, leaves):
    """An integer expression with exactly ``leaves`` literals and variables."""
    if leaves == 1:
        if rng.random() < 0.4:
            return ("int", rng.randint(0, 5))
        leaf = ("var", rng.choice(names))
        return ("neg", leaf) if rng.random() < 0.1 else leaf
    left = rng.randint(1, leaves - 1)
    return ("bin", rng.choice(("+", "+", "-", "*")), _int_expr(rng, names, left),
            _int_expr(rng, names, leaves - left))


def _bool_expr(rng, names, comparisons):
    """A condition with exactly ``comparisons`` comparisons of two-leaf sums."""
    if comparisons == 1:
        op = rng.choice(("==", "!=", "<", "<=", ">", ">="))
        cmp = ("bin", op, _int_expr(rng, names, 2), _int_expr(rng, names, 1))
        return ("not", cmp) if rng.random() < 0.15 else cmp
    left = rng.randint(1, comparisons - 1)
    return ("bin", rng.choice(("&&", "||")), _bool_expr(rng, names, left),
            _bool_expr(rng, names, comparisons - left))


def _stmts(shape, fill, names, mode, nodes):
    """A statement list holding exactly ``nodes`` statements, nested ones included."""
    out = []
    while nodes > 0:
        size = shape.randint(1, nodes)
        out.append(_stmt(shape, fill, names, mode, size))
        nodes -= size
    return out


def _stmt(shape, fill, names, mode, nodes):
    if nodes == 1:
        roll = shape.random()
        if roll < 0.75:
            return ("assign", fill.choice(names), _int_expr(fill, names, 3))
        if mode == "pow" and roll < 0.83:
            return ("abort",)
        return ("skip",)
    inner = nodes - 1
    if inner == 1 or shape.random() < 0.15:
        return ("if", _bool_expr(fill, names, 2),
                _stmts(shape, fill, names, mode, inner), None)
    left = shape.randint(1, inner - 1)
    a = _stmts(shape, fill, names, mode, left)
    b = _stmts(shape, fill, names, mode, inner - left)
    if shape.random() < 0.5:
        return ("if", _bool_expr(fill, names, 2), a, b)
    if mode == "pow":
        return ("choose", a, b)
    den = fill.randint(2, 6)
    return ("prob", (fill.randint(1, den - 1), den), a, b)


def _post(rng, names, flavor):
    if flavor != "expectation":
        return _bool_expr(rng, names, 2)
    b1, b2 = _bool_expr(rng, names, 1), _bool_expr(rng, names, 1)
    roll = rng.randrange(4)
    if roll == 0:
        return ("iv", b1)
    if roll == 1:
        return ("bin", "*", ("iv", b1), ("iv", b2))
    den = rng.randint(2, 5)
    num = rng.randint(1, den - 1)
    if roll == 2:
        return ("bin", "*", ("rat", num, den), ("iv", b1))
    return ("bin", "+", ("bin", "*", ("rat", num, den), ("iv", b1)),
            ("bin", "*", ("rat", den - num, den), ("iv", b2)))


def generate(shape, fill, states, flavor, nodes):
    """One program over exactly ``states`` states with ``nodes`` statements.

    ``shape`` draws the statement skeleton and ``fill`` everything else:
    variables, ranges, expressions and probabilities.
    """
    decls = _decls(fill, states)
    names = [d[0] for d in decls]
    body = _stmts(shape, fill, names, mode_of(flavor), nodes)
    return {"decls": decls, "body": body, "post": _post(fill, names, flavor)}


def pool_program(pool_seed, states, flavor, index, nodes):
    """Program ``index`` of the pool for one (states, flavor) stratum.

    Programs of one stratum share their statement skeleton, so that the work
    of a round hardly depends on which of them the seed draws.
    """
    shape = random.Random(f"{pool_seed}/{states}/{flavor}")
    fill = random.Random(f"{pool_seed}/{states}/{flavor}/{index}")
    return generate(shape, fill, states, flavor, nodes)


# -- rendering ----------------------------------------------------------------------


def _prec(e):
    if e[0] == "bin":
        return _PREC[e[1]]
    if e[0] == "not":
        return _PREC["!"]
    return _ATOM


def render_expr(e):
    tag = e[0]
    if tag == "int":
        return str(e[1])
    if tag == "rat":
        return f"{e[1]}/{e[2]}"
    if tag == "var":
        return e[1]
    if tag == "iv":
        return f"[{render_expr(e[1])}]"
    if tag == "neg":
        return "-" + _wrap(e[1], _prec(e[1]) < _ATOM)
    if tag == "not":
        return "!" + _wrap(e[1], _prec(e[1]) < _PREC["!"])
    _, op, left, right = e
    p = _PREC[op]
    if p == _PREC["=="]:  # comparisons do not chain
        return f"{_wrap(left, _prec(left) <= p)} {op} {_wrap(right, _prec(right) <= p)}"
    return f"{_wrap(left, _prec(left) < p)} {op} {_wrap(right, _prec(right) <= p)}"


def _wrap(e, paren):
    text = render_expr(e)
    return f"({text})" if paren else text


def _render_stmts(stmts, indent):
    pad = "  " * indent
    return ";\n".join(pad + _render_stmt(s, indent) for s in stmts)


def _block(stmts, indent):
    pad = "  " * indent
    return "{\n" + _render_stmts(stmts, indent + 1) + "\n" + pad + "}"


def _render_stmt(s, indent):
    tag = s[0]
    if tag in ("skip", "abort"):
        return tag
    if tag == "assign":
        return f"{s[1]} := {render_expr(s[2])}"
    if tag == "if":
        text = f"if ({render_expr(s[1])}) {_block(s[2], indent)}"
        if s[3] is not None:
            text += f" else {_block(s[3], indent)}"
        return text
    if tag == "choose":
        return f"choose {_block(s[1], indent)} [] {_block(s[2], indent)}"
    num, den = s[1]
    return f"prob {num}/{den} {_block(s[2], indent)} {_block(s[3], indent)}"


def render(program):
    """Source text accepted by ``finsem.gcl.parse``."""
    decls = ", ".join(f"{n} in {lo}..{hi}" for n, lo, hi in program["decls"])
    return (f"vars {decls};\nbody:\n{_render_stmts(program['body'], 1)};\n"
            f"post: {render_expr(program['post'])};\n")


# -- conversion to library nodes ------------------------------------------------------


def to_gcl(program, gcl):
    """The same program as ``finsem.gcl`` nodes, built without the parser."""

    def expr(e):
        tag = e[0]
        if tag == "int":
            return gcl.Lit(e[1])
        if tag == "rat":
            return gcl.Lit(Fraction(e[1], e[2]))
        if tag == "var":
            return gcl.Var(e[1])
        if tag == "iv":
            return gcl.Iverson(expr(e[1]))
        if tag == "neg":
            return gcl.Unary("-", expr(e[1]))
        if tag == "not":
            return gcl.Unary("!", expr(e[1]))
        return gcl.Bin(e[1], expr(e[2]), expr(e[3]))

    def stmts(items):
        # nested to the right, where the parser nests to the left
        out = stmt(items[-1])
        for s in reversed(items[:-1]):
            out = gcl.Seq(stmt(s), out)
        return out

    def stmt(s):
        tag = s[0]
        if tag == "skip":
            return gcl.Skip()
        if tag == "abort":
            return gcl.Abort()
        if tag == "assign":
            return gcl.Assign(s[1], expr(s[2]))
        if tag == "if":
            orelse = gcl.Skip() if s[3] is None else stmts(s[3])
            return gcl.If(expr(s[1]), stmts(s[2]), orelse)
        if tag == "choose":
            return gcl.Choose(stmts(s[1]), stmts(s[2]))
        return gcl.Prob(Fraction(*s[1]), stmts(s[2]), stmts(s[3]))

    decls = tuple(gcl.VarDecl(n, lo, hi) for n, lo, hi in program["decls"])
    return gcl.Program(decls, stmts(program["body"]), expr(program["post"]))
