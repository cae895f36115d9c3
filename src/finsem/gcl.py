"""A toy guarded-command language with exact weakest-precondition semantics.

Programs denote Kleisli arrows over a finite state space, either into the
powerset monad (pow mode) or the distribution monad (dist mode).  Weakest
preconditions are computed twice: by structural recursion on the syntax and
by transposing the whole-program denotation; agreement of the two is the
operational healthiness check.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .effects import ONE, ZERO, Distribution, pushforward
from .errors import (
    ModeMismatch,
    ParseError,
    RangeError,
    TooLarge,
    UndeclaredVariable,
)
from .monads import DIST, POWERSET
from .order import FinSet
from .triangle import KleisliArrow

DEFAULT_STATE_CAP = 512
# random boolean posts that check_roundtrip adds when given a seed
RANDOM_POSTS = 3
# statement nesting depth bound of random_program
MAX_PROGRAM_DEPTH = 5


# -- syntax trees ------------------------------------------------------------------


@dataclass(frozen=True)
class VarDecl:
    name: str
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise RangeError(f"empty range {self.lo}..{self.hi} for {self.name}")

    @property
    def span(self):
        return self.hi - self.lo + 1


@dataclass(frozen=True)
class Skip:
    pass


@dataclass(frozen=True)
class Abort:
    pass


@dataclass(frozen=True)
class Assign:
    var: str
    expr: object


@dataclass(frozen=True)
class Seq:
    first: object
    second: object


@dataclass(frozen=True)
class If:
    cond: object
    then: object
    orelse: object


@dataclass(frozen=True)
class Choose:
    left: object
    right: object


@dataclass(frozen=True)
class Prob:
    chance: Fraction
    left: object
    right: object

    def __post_init__(self):
        if not (ZERO <= self.chance <= ONE):
            raise RangeError(f"branch probability {self.chance} outside [0, 1]")


@dataclass(frozen=True)
class Lit:
    value: object


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Iverson:
    cond: object


@dataclass(frozen=True)
class Program:
    decls: tuple
    body: object
    post: Optional[object] = None

    def declared(self):
        return {d.name for d in self.decls}


# -- lexer -------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>:=|==|!=|<=|>=|&&|\|\||\[\]|\.\.|[-+*/<>!;:,{}()\[\]=])
    """,
    re.VERBOSE,
)

KEYWORDS = {"vars", "in", "body", "post", "skip", "abort", "if", "else",
            "choose", "prob", "true", "false"}


@dataclass
class Token:
    kind: str  # int | name | op | kw | eof
    text: str
    line: int
    column: int


def tokenize(source):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(source):
        m = _TOKEN_RE.match(source, i)
        if m is None:
            raise ParseError(f"unexpected character {source[i]!r}", line, col)
        text = m.group(0)
        if m.lastgroup != "ws":
            kind = m.lastgroup
            if kind == "name" and text in KEYWORDS:
                kind = "kw"
            tokens.append(Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        i = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens, declared=None):
        self.tokens = tokens
        self.pos = 0
        self.declared = declared

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)

    def expect(self, kind, text=None):
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            self.fail(f"expected {want!r}, found {tok.text or 'end of input'!r}")
        return self.next()

    def at(self, kind, text=None):
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    # program -----------------------------------------------------------------

    def parse_program(self):
        self.expect("kw", "vars")
        decls = [self.parse_decl()]
        while self.at("op", ","):
            self.next()
            decls.append(self.parse_decl())
        self.expect("op", ";")
        self.declared = {d.name for d in decls}
        if len(self.declared) != len(decls):
            self.fail("duplicate variable declaration")
        self.expect("kw", "body")
        self.expect("op", ":")
        body = self.parse_stmt_seq()
        post = None
        if self.at("kw", "post"):
            self.next()
            self.expect("op", ":")
            post = self.parse_expr()
            if self.at("op", ";"):
                self.next()
        self.expect("eof")
        return Program(tuple(decls), body, post)

    def parse_decl(self):
        name = self.expect("name").text
        self.expect("kw", "in")
        lo = self.parse_signed_int()
        self.expect("op", "..")
        hi = self.parse_signed_int()
        return VarDecl(name, lo, hi)

    def parse_signed_int(self):
        sign = 1
        if self.at("op", "-"):
            self.next()
            sign = -1
        return sign * int(self.expect("int").text)

    # statements ----------------------------------------------------------------

    def parse_stmt_seq(self):
        stmts = [self.parse_stmt()]
        while self.at("op", ";"):
            self.next()
            if self.at("kw", "post") or self.at("eof") or self.at("op", "}"):
                break
            stmts.append(self.parse_stmt())
        out = stmts[0]
        for s in stmts[1:]:
            out = Seq(out, s)
        return out

    def parse_block(self):
        self.expect("op", "{")
        body = self.parse_stmt_seq()
        self.expect("op", "}")
        return body

    def parse_stmt(self):
        tok = self.peek()
        if self.at("kw", "skip"):
            self.next()
            return Skip()
        if self.at("kw", "abort"):
            self.next()
            return Abort()
        if self.at("kw", "if"):
            self.next()
            parens = self.at("op", "(")
            if parens:
                self.next()
            cond = self.parse_expr()
            if parens:
                self.expect("op", ")")
            then = self.parse_block()
            orelse = Skip()
            if self.at("kw", "else"):
                self.next()
                orelse = self.parse_block()
            return If(cond, then, orelse)
        if self.at("kw", "choose"):
            self.next()
            left = self.parse_block()
            self.expect("op", "[]")
            right = self.parse_block()
            return Choose(left, right)
        if self.at("kw", "prob"):
            start = self.next()
            chance = self.parse_rational()
            if not (ZERO <= chance <= ONE):
                raise RangeError(
                    f"{start.line}:{start.column}: branch probability "
                    f"{chance} outside [0, 1]"
                )
            left = self.parse_block()
            right = self.parse_block()
            return Prob(chance, left, right)
        if tok.kind == "name":
            name = self.next().text
            self._check_declared(name, tok)
            self.expect("op", ":=")
            return Assign(name, self.parse_expr())
        self.fail(f"expected a statement, found {tok.text!r}")

    def parse_rational(self):
        num = self.parse_signed_int()
        if self.at("op", "/"):
            self.next()
            return Fraction(num, self.parse_denominator())
        return Fraction(num)

    def parse_denominator(self):
        tok = self.expect("int")
        if int(tok.text) == 0:
            self.fail("denominator must be nonzero", tok)
        return int(tok.text)

    def _check_declared(self, name, tok):
        if self.declared is not None and name not in self.declared:
            raise UndeclaredVariable(
                f"{tok.line}:{tok.column}: variable {name!r} is not declared"
            )

    # expressions (precedence climbing) --------------------------------------------

    def parse_expr(self):
        return self.parse_or()

    def parse_or(self):
        left = self.parse_and()
        while self.at("op", "||"):
            self.next()
            left = Bin("||", left, self.parse_and())
        return left

    def parse_and(self):
        left = self.parse_not()
        while self.at("op", "&&"):
            self.next()
            left = Bin("&&", left, self.parse_not())
        return left

    def parse_not(self):
        if self.at("op", "!"):
            self.next()
            return Unary("!", self.parse_not())
        return self.parse_cmp()

    def parse_cmp(self):
        left = self.parse_sum()
        for op in ("==", "!=", "<=", ">=", "<", ">"):
            if self.at("op", op):
                self.next()
                return Bin(op, left, self.parse_sum())
        return left

    def parse_sum(self):
        left = self.parse_product()
        while self.at("op", "+") or self.at("op", "-"):
            op = self.next().text
            left = Bin(op, left, self.parse_product())
        return left

    def parse_product(self):
        left = self.parse_atom()
        while self.at("op", "*"):
            self.next()
            left = Bin("*", left, self.parse_atom())
        return left

    def parse_atom(self):
        tok = self.peek()
        if self.at("op", "-"):
            self.next()
            return Unary("-", self.parse_atom())
        if tok.kind == "int":
            self.next()
            if self.at("op", "/"):
                self.next()
                return Lit(Fraction(int(tok.text), self.parse_denominator()))
            return Lit(int(tok.text))
        if self.at("kw", "true"):
            self.next()
            return Lit(True)
        if self.at("kw", "false"):
            self.next()
            return Lit(False)
        if tok.kind == "name":
            self.next()
            self._check_declared(tok.text, tok)
            return Var(tok.text)
        if self.at("op", "("):
            self.next()
            inner = self.parse_expr()
            self.expect("op", ")")
            return inner
        if self.at("op", "["):
            self.next()
            inner = self.parse_expr()
            self.expect("op", "]")
            return Iverson(inner)
        self.fail(f"expected an expression, found {tok.text or 'end of input'!r}")


def parse(source):
    """Parse a full program; the first error carries line and column."""
    return _Parser(tokenize(source)).parse_program()


def parse_expression(source, declared):
    """Parse a standalone post-condition against declared variable names."""
    parser = _Parser(tokenize(source), declared=set(declared))
    expr = parser.parse_expr()
    parser.expect("eof")
    return expr


# -- state spaces and expression evaluation ----------------------------------------


@dataclass(frozen=True)
class StateSpace:
    """The full product of the declared variable ranges."""

    decls: tuple

    def __post_init__(self):
        names = [d.name for d in self.decls]
        if len(set(names)) != len(names):
            raise RangeError("duplicate variable declarations")

    @property
    def names(self):
        return tuple(d.name for d in self.decls)

    def size(self):
        out = 1
        for d in self.decls:
            out *= d.span
        return out

    def states(self, cap=DEFAULT_STATE_CAP):
        if cap is not None and self.size() > cap:
            raise TooLarge(f"{self.size()} states exceed the cap of {cap}")
        ranges = [range(d.lo, d.hi + 1) for d in self.decls]
        return FinSet(itertools.product(*ranges))

    def env(self, state):
        return dict(zip(self.names, state))

    def render(self, state):
        return ",".join(f"{n}={v}" for n, v in zip(self.names, state))

    def parse_state(self, text):
        values = {}
        for part in re.split(r"[,\s]+", text.strip()):
            if not part:
                continue
            if "=" not in part:
                raise RangeError(f"bad state component {part!r}")
            name, value = part.split("=", 1)
            try:
                values[name.strip()] = int(value)
            except ValueError:
                raise RangeError(f"bad state component {part!r}") from None
        missing = set(self.names) - set(values)
        if missing:
            raise RangeError(f"state is missing variables {sorted(missing)}")
        state = tuple(values[n] for n in self.names)
        for d, v in zip(self.decls, state):
            if not (d.lo <= v <= d.hi):
                raise RangeError(f"{d.name}={v} outside {d.lo}..{d.hi}")
        return state


def eval_expr(expr, env):
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Var):
        if expr.name not in env:
            raise UndeclaredVariable(expr.name)
        return env[expr.name]
    if isinstance(expr, Unary):
        v = eval_expr(expr.arg, env)
        if expr.op == "-":
            return -v
        if expr.op == "!":
            return not _as_bool(v)
        raise AssertionError(expr.op)
    if isinstance(expr, Iverson):
        return ONE if _as_bool(eval_expr(expr.cond, env)) else ZERO
    if isinstance(expr, Bin):
        lhs = eval_expr(expr.left, env)
        if expr.op == "&&":
            return _as_bool(lhs) and _as_bool(eval_expr(expr.right, env))
        if expr.op == "||":
            return _as_bool(lhs) or _as_bool(eval_expr(expr.right, env))
        rhs = eval_expr(expr.right, env)
        if expr.op == "+":
            return lhs + rhs
        if expr.op == "-":
            return lhs - rhs
        if expr.op == "*":
            return lhs * rhs
        if expr.op == "==":
            return lhs == rhs
        if expr.op == "!=":
            return lhs != rhs
        if expr.op == "<":
            return lhs < rhs
        if expr.op == "<=":
            return lhs <= rhs
        if expr.op == ">":
            return lhs > rhs
        if expr.op == ">=":
            return lhs >= rhs
        raise AssertionError(expr.op)
    raise AssertionError(f"not an expression: {expr!r}")


def _as_bool(v):
    if isinstance(v, bool):
        return v
    raise RangeError(f"expected a boolean, got {v!r}")


def _as_number(v, what="value"):
    if isinstance(v, bool):
        return ONE if v else ZERO
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    raise RangeError(f"{what} {v!r} is not numeric")


def _branch(cond, space, states, then, orelse):
    """The state table of an if: each state takes its row from the branch cond picks."""
    return {
        s: then[s] if _as_bool(eval_expr(cond, space.env(s))) else orelse[s]
        for s in states
    }


# -- denotational semantics ----------------------------------------------------------


def _mode_violation(stmt, mode):
    if isinstance(stmt, (Skip, Abort, Assign)):
        if mode == "dist" and isinstance(stmt, Abort):
            return "abort is not available in dist mode"
        return None
    if isinstance(stmt, Seq):
        return _mode_violation(stmt.first, mode) or _mode_violation(stmt.second, mode)
    if isinstance(stmt, If):
        return _mode_violation(stmt.then, mode) or _mode_violation(stmt.orelse, mode)
    if isinstance(stmt, Choose):
        if mode == "dist":
            return "choose is not available in dist mode"
        return _mode_violation(stmt.left, mode) or _mode_violation(stmt.right, mode)
    if isinstance(stmt, Prob):
        if mode == "pow":
            return "prob is not available in pow mode"
        return _mode_violation(stmt.left, mode) or _mode_violation(stmt.right, mode)
    raise AssertionError(f"not a statement: {stmt!r}")


def check_mode(program, mode):
    if mode not in ("pow", "dist"):
        raise ModeMismatch(f"unknown mode {mode!r}")
    violation = _mode_violation(program.body, mode)
    if violation:
        raise ModeMismatch(violation)


def _assign_state(space, state, stmt):
    env = space.env(state)
    value = eval_expr(stmt.expr, env)
    if isinstance(value, bool) or not isinstance(value, int):
        raise RangeError(f"assignment to {stmt.var} must be an integer")
    decl = next(d for d in space.decls if d.name == stmt.var)
    wrapped = decl.lo + (value - decl.lo) % decl.span
    out = list(state)
    out[space.names.index(stmt.var)] = wrapped
    return tuple(out)


def _denote_pow(stmt, space, states):
    if isinstance(stmt, Skip):
        return {s: frozenset({s}) for s in states}
    if isinstance(stmt, Abort):
        return {s: frozenset() for s in states}
    if isinstance(stmt, Assign):
        return {s: frozenset({_assign_state(space, s, stmt)}) for s in states}
    if isinstance(stmt, Seq):
        first = _denote_pow(stmt.first, space, states)
        second = _denote_pow(stmt.second, space, states)
        return {
            s: frozenset().union(*(second[t] for t in first[s])) if first[s] else frozenset()
            for s in states
        }
    if isinstance(stmt, If):
        return _branch(stmt.cond, space, states,
                       _denote_pow(stmt.then, space, states),
                       _denote_pow(stmt.orelse, space, states))
    if isinstance(stmt, Choose):
        left = _denote_pow(stmt.left, space, states)
        right = _denote_pow(stmt.right, space, states)
        return {s: left[s] | right[s] for s in states}
    raise AssertionError(f"unexpected statement in pow mode: {stmt!r}")


def _denote_dist(stmt, space, states, carrier):
    if isinstance(stmt, Skip):
        return {s: Distribution.point(carrier, s) for s in states}
    if isinstance(stmt, Assign):
        return {
            s: Distribution.point(carrier, _assign_state(space, s, stmt))
            for s in states
        }
    if isinstance(stmt, Seq):
        first = _denote_dist(stmt.first, space, states, carrier)
        second = _denote_dist(stmt.second, space, states, carrier)

        return {
            s: Distribution(carrier, pushforward(first[s].weights, second.__getitem__))
            for s in states
        }
    if isinstance(stmt, If):
        return _branch(stmt.cond, space, states,
                       _denote_dist(stmt.then, space, states, carrier),
                       _denote_dist(stmt.orelse, space, states, carrier))
    if isinstance(stmt, Prob):
        left = _denote_dist(stmt.left, space, states, carrier)
        right = _denote_dist(stmt.right, space, states, carrier)

        def mix(s):
            out = {}
            for t, w in left[s].weights:
                out[t] = out.get(t, ZERO) + stmt.chance * w
            for t, w in right[s].weights:
                out[t] = out.get(t, ZERO) + (ONE - stmt.chance) * w
            return Distribution(carrier, tuple(out.items()))

        return {s: mix(s) for s in states}
    raise AssertionError(f"unexpected statement in dist mode: {stmt!r}")


def denote(program, mode, state_cap=DEFAULT_STATE_CAP):
    """The whole-program Kleisli arrow over the state space."""
    check_mode(program, mode)
    space = StateSpace(program.decls)
    states = space.states(state_cap)
    if mode == "pow":
        graph = _denote_pow(program.body, space, states)
        return KleisliArrow.from_dict(POWERSET, states, states, graph)
    graph = _denote_dist(program.body, space, states, states)
    return KleisliArrow.from_dict(DIST, states, states, graph)


# -- weakest preconditions -------------------------------------------------------------

FLAVORS = ("demonic", "angelic", "expectation")


def mode_of_flavor(flavor):
    if flavor in ("demonic", "angelic"):
        return "pow"
    if flavor == "expectation":
        return "dist"
    raise ModeMismatch(f"unknown flavor {flavor!r}")


def post_table(program, post, flavor, space, states):
    """Evaluate a post-condition into a state table for the given flavor."""
    table = {}
    for s in states:
        value = eval_expr(post, space.env(s))
        if flavor == "expectation":
            value = _as_number(value, "post-expectation")
            if not (ZERO <= value <= ONE):
                raise RangeError(f"post-expectation {value} outside [0, 1]")
        else:
            value = _as_bool(value)
        table[s] = value
    return table


def _wp_table(stmt, table, flavor, space, states):
    if isinstance(stmt, Skip):
        return dict(table)
    if isinstance(stmt, Abort):
        default = flavor == "demonic"
        return {s: default for s in states}
    if isinstance(stmt, Assign):
        return {s: table[_assign_state(space, s, stmt)] for s in states}
    if isinstance(stmt, Seq):
        inner = _wp_table(stmt.second, table, flavor, space, states)
        return _wp_table(stmt.first, inner, flavor, space, states)
    if isinstance(stmt, If):
        return _branch(stmt.cond, space, states,
                       _wp_table(stmt.then, table, flavor, space, states),
                       _wp_table(stmt.orelse, table, flavor, space, states))
    if isinstance(stmt, Choose):
        left = _wp_table(stmt.left, table, flavor, space, states)
        right = _wp_table(stmt.right, table, flavor, space, states)
        if flavor == "demonic":
            return {s: left[s] and right[s] for s in states}
        return {s: left[s] or right[s] for s in states}
    if isinstance(stmt, Prob):
        left = _wp_table(stmt.left, table, flavor, space, states)
        right = _wp_table(stmt.right, table, flavor, space, states)
        return {
            s: stmt.chance * left[s] + (ONE - stmt.chance) * right[s]
            for s in states
        }
    raise AssertionError(f"not a statement: {stmt!r}")


def wp(program, post, flavor, state_cap=DEFAULT_STATE_CAP):
    """Weakest precondition (or pre-expectation) by structural recursion."""
    mode = mode_of_flavor(flavor)
    check_mode(program, mode)
    space = StateSpace(program.decls)
    states = space.states(state_cap)
    if isinstance(post, str):
        post = parse_expression(post, space.names)
    table = post_table(program, post, flavor, space, states)
    return _wp_table(program.body, table, flavor, space, states)


def transformer_wp(arrow, table, flavor):
    """The same table computed from the whole-program denotation."""
    states = arrow.dom
    if flavor == "demonic":
        accept = frozenset(s for s, v in table.items() if v)
        return {s: arrow(s) <= accept for s in states}
    if flavor == "angelic":
        accept = frozenset(s for s, v in table.items() if v)
        return {s: bool(arrow(s) & accept) for s in states}
    if flavor == "expectation":
        return {
            s: sum((table[t] * w for t, w in arrow(s).weights), ZERO)
            for s in states
        }
    raise ModeMismatch(f"unknown flavor {flavor!r}")


# -- healthiness round trip -------------------------------------------------------------


@dataclass
class WpCheck:
    flavor: str
    posts: int
    mismatches: int
    witness: object = None

    @property
    def ok(self):
        return self.mismatches == 0


def default_posts(space, flavor, rng=None):
    """Probe posts: constants, atomic comparisons, and a few random ones."""
    names = space.names
    posts = [Lit(True), Lit(False)]
    for d in space.decls:
        posts.append(Bin("==", Var(d.name), Lit(d.lo)))
        posts.append(Bin("<=", Var(d.name), Lit((d.lo + d.hi) // 2)))
    if rng is not None:
        for _ in range(RANDOM_POSTS):
            posts.append(random_bool_expr(rng, space.decls, depth=2))
    if flavor == "expectation":
        out = []
        for i, p in enumerate(posts):
            if i % 3 == 2:
                out.append(Bin("*", Lit(Fraction(1, 2)), Iverson(p)))
            else:
                out.append(Iverson(p))
        return out
    return posts


def check_roundtrip(program, flavor, posts=None, state_cap=DEFAULT_STATE_CAP, seed=None):
    """Compositional wp against the transposed whole-program denotation."""
    mode = mode_of_flavor(flavor)
    check_mode(program, mode)
    space = StateSpace(program.decls)
    states = space.states(state_cap)
    arrow = denote(program, mode, state_cap)
    if posts is None:
        rng = random.Random(seed) if seed is not None else None
        posts = default_posts(space, flavor, rng)
    mismatches = 0
    witness = None
    for post in posts:
        table = post_table(program, post, flavor, space, states)
        recursive = _wp_table(program.body, table, flavor, space, states)
        transposed = transformer_wp(arrow, table, flavor)
        if recursive != transposed:
            mismatches += 1
            if witness is None:
                bad = next(s for s in states if recursive[s] != transposed[s])
                witness = (post, space.render(bad), recursive[bad], transposed[bad])
    return WpCheck(flavor, len(posts), mismatches, witness)


# -- random programs ---------------------------------------------------------------------


def random_int_expr(rng, decls, depth):
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return Lit(rng.randint(0, 3))
        return Var(rng.choice(decls).name)
    op = rng.choice(["+", "-", "*"])
    return Bin(op, random_int_expr(rng, decls, depth - 1),
               random_int_expr(rng, decls, depth - 1))


def random_bool_expr(rng, decls, depth):
    if depth <= 0 or rng.random() < 0.5:
        op = rng.choice(["==", "!=", "<", "<=", ">", ">="])
        return Bin(op, random_int_expr(rng, decls, 1), random_int_expr(rng, decls, 1))
    combiner = rng.choice(["&&", "||", "!"])
    if combiner == "!":
        return Unary("!", random_bool_expr(rng, decls, depth - 1))
    return Bin(combiner, random_bool_expr(rng, decls, depth - 1),
               random_bool_expr(rng, decls, depth - 1))


def random_stmt(rng, decls, mode, depth):
    if depth <= 0:
        roll = rng.random()
        if roll < 0.6:
            d = rng.choice(decls)
            return Assign(d.name, random_int_expr(rng, decls, 2))
        if roll < 0.8:
            return Skip()
        if mode == "pow":
            return Abort() if rng.random() < 0.3 else Skip()
        return Skip()
    roll = rng.random()
    if roll < 0.35:
        return Seq(random_stmt(rng, decls, mode, depth - 1),
                   random_stmt(rng, decls, mode, depth - 1))
    if roll < 0.55:
        return If(random_bool_expr(rng, decls, 2),
                  random_stmt(rng, decls, mode, depth - 1),
                  random_stmt(rng, decls, mode, depth - 1))
    if roll < 0.8:
        if mode == "pow":
            return Choose(random_stmt(rng, decls, mode, depth - 1),
                          random_stmt(rng, decls, mode, depth - 1))
        chance = Fraction(rng.randint(0, 4), 4)
        return Prob(chance, random_stmt(rng, decls, mode, depth - 1),
                    random_stmt(rng, decls, mode, depth - 1))
    d = rng.choice(decls)
    return Assign(d.name, random_int_expr(rng, decls, 2))


def random_program(rng, mode):
    decls = (VarDecl("x", 0, rng.randint(1, 7)), VarDecl("y", 0, rng.randint(1, 5)))
    body = random_stmt(rng, decls, mode, rng.randint(1, MAX_PROGRAM_DEPTH))
    return Program(decls, body)
