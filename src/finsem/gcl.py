"""A toy guarded-command language with exact weakest-precondition semantics.

Programs denote Kleisli arrows over a finite state space, either into the
powerset monad (pow mode) or the distribution monad (dist mode).
Weakest preconditions are computed twice: by structural recursion on the
syntax and by transposing the whole-program denotation; agreement of the two
is the operational healthiness check.

The parser reads each expression in one binding-power loop, whose table
``_BINDING`` is the one source of operator precedence (docs/grammar.ebnf).
Each expression is typed (int, rational or bool) before any state is
evaluated, and compiled to one ``map`` per operator over the state columns,
with rationals as integer numerators over one denominator.  A ``Program``
keeps, for as long as it lives, the columns, each assignment's successor
indices, each condition's mask and the validated denotation, built once for
every call of ``denote``, ``wp`` and ``check_roundtrip`` on it.  Inside, a
pow denotation is an int mask per state (bit j: states[j] is reachable), a
dist denotation one ``Weighting`` kernel row per state,
``(positions, numerators, denominator)``, bound by ``kernel.bind_rows``, the
integer Kleisli extension that ``Weighting.bind`` runs; a demonic or angelic
table is one state mask, and an expectation table integer numerators over one
denominator.  A ``Distribution`` holds such a row as it is; frozensets,
``Fraction``s and dicts are built only at the boundary: ``_arrow``, ``wp``
and a mismatch witness.  ``denote`` validates its arrow through the monad and
triangle layers, which it imports; ``wp`` and ``image`` (what ``finsem run``
applies) import neither.  The random generators are in ``gcl_random``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import re
from fractions import Fraction

from .check import Frozen, _set
from .errors import (
    CarrierMismatch,
    ModeMismatch,
    ParseError,
    RangeError,
    TooLarge,
    TypeMismatch,
    UndeclaredVariable,
    located,
)
from .kernel import ONE, ZERO, Distribution, FinSet, bind_rows, is_exact, read_int

DEFAULT_STATE_CAP = 512
# random boolean posts that check_roundtrip adds when given a seed
RANDOM_POSTS = 3
# The deepest a parsed program may nest (docs/grammar.ebnf, "Nesting").  The
# parser recurses a few frames per bracket and the evaluators about one frame
# per syntax-tree level, so the bound keeps both inside the recursion limit.
MAX_NESTING = 100


# -- syntax trees ------------------------------------------------------------------


class _Node(Frozen):
    """A syntax-tree node.  A ``pos`` field is the (line, column) of a parsed
    node's operator token, or of its own token for a literal or a variable, for
    its type errors, and None on a node built by hand; equality, hashing and
    repr ignore it."""

    __slots__ = ()
    _hidden = ("pos",)


class VarDecl(_Node):
    __slots__ = _fields = ("name", "lo", "hi")

    def __post_init__(self):
        if self.lo > self.hi:
            raise RangeError(f"empty range {self.lo}..{self.hi} for {self.name}")

    @property
    def span(self):
        return self.hi - self.lo + 1


class Skip(_Node):
    __slots__ = ()


class Abort(_Node):
    __slots__ = ()


class Assign(_Node):
    __slots__ = _fields = ("var", "expr", "pos")
    _defaults = (None,)


class Seq(_Node):
    __slots__ = _fields = ("first", "second")


class If(_Node):
    __slots__ = _fields = ("cond", "then", "orelse", "pos")
    _defaults = (None,)


class Choose(_Node):
    __slots__ = _fields = ("left", "right")


class Prob(_Node):
    __slots__ = _fields = ("chance", "left", "right")

    def __post_init__(self):
        if not is_exact(self.chance):
            raise RangeError(f"branch probability {self.chance!r} is not an int or a Fraction")
        if not (ZERO <= self.chance <= ONE):
            raise RangeError(f"branch probability {self.chance} outside [0, 1]")


class Lit(_Node):
    __slots__ = _fields = ("value", "pos")

    # the parser and default_posts build expression nodes by the thousand, so
    # their constructors are written out, field by field
    def __init__(self, value, pos=None):
        _set(self, "value", value)
        _set(self, "pos", pos)


class Var(_Node):
    __slots__ = _fields = ("name", "pos")

    def __init__(self, name, pos=None):
        _set(self, "name", name)
        _set(self, "pos", pos)


class Unary(_Node):
    __slots__ = _fields = ("op", "arg", "pos")

    def __init__(self, op, arg, pos=None):
        _set(self, "op", op)
        _set(self, "arg", arg)
        _set(self, "pos", pos)


class Bin(_Node):
    __slots__ = _fields = ("op", "left", "right", "pos")

    def __init__(self, op, left, right, pos=None):
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "pos", pos)


class Iverson(_Node):
    __slots__ = _fields = ("cond", "pos")

    def __init__(self, cond, pos=None):
        _set(self, "cond", cond)
        _set(self, "pos", pos)


class Program(_Node):
    """A program.  Beside its fields it has one slot, ``_memo``, that holds the
    tables and denotations ``_tables`` builds for it; as it is no field,
    equality, hashing, repr, copy and pickle ignore it, and a copy starts
    without one."""

    __slots__ = ("decls", "body", "post", "_memo")
    _fields = ("decls", "body", "post")
    _defaults = (None,)


# -- lexer -------------------------------------------------------------------------

# a token with the blanks before it: a blank is whitespace other than a newline
_TOKEN_RE = re.compile(
    r"""
    [^\S\n]*
    (?: (?P<int>[0-9]+)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>:=|==|!=|<=|>=|&&|\|\||\[\]|\.\.|[-+*/<>!;:,{}()\[\]=]) )
    """,
    re.VERBOSE,
)

KEYWORDS = {"vars", "in", "body", "post", "skip", "abort", "if", "else",
            "choose", "prob", "true", "false"}


class Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind  # int | name | op | kw | eof
        self.text, self.line, self.column = text, line, column


def tokenize(source):
    """The tokens of source, ending in an eof token; ParseError at the first
    character no token starts with.  One ``finditer`` pass per line, each
    match a token with the blanks before it."""
    tokens = []
    for line, text in enumerate(source.split("\n"), 1):
        end = 0
        for m in _TOKEN_RE.finditer(text):
            if m.start() != end:  # finditer skipped a character no token starts with
                break
            kind, end = m.lastgroup, m.end()
            start = m.start(kind)
            word = text[start:end]
            if kind == "name" and word in KEYWORDS:
                kind = "kw"
            tokens.append(Token(kind, word, line, start + 1))
        rest = text[end:].lstrip()
        if rest:
            raise ParseError(f"unexpected character {rest[0]!r}", line, len(text) - len(rest) + 1)
    tokens.append(Token("eof", "", line, len(text) + 1))
    return tokens


# the binding power of each binary operator, loosest first: the one source of
# precedence; a prefix "!" takes its operand at _NOT, so it binds looser than
# a comparison, which takes one operator, and tighter than &&
_COMPARE, _NOT = 4, 3
_BINDING = {"||": 1, "&&": 2, "==": 4, "!=": 4, "<=": 4, ">=": 4, "<": 4, ">": 4,
            "+": 5, "-": 5, "*": 6}


def _at(tok):
    return (tok.line, tok.column)


class _Parser:
    def __init__(self, tokens, declared=None):
        self.tokens = tokens
        self.pos = 0
        self.declared = declared
        self.depth = 0  # brackets, blocks and prefix operators open here
        self.peak = 0  # deepest level reached since the innermost chain began
        self.compared = -1  # the token just past the last comparison

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

    def accept(self, text):
        """Whether the next token reads text (a keyword or an operator), taking it if so."""
        if self.tokens[self.pos].text == text:
            self.pos += 1
            return True
        return False

    # nesting -------------------------------------------------------------------

    def reach(self, level, tok):
        if level > MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels", tok)
        self.peak = max(self.peak, level)

    def enter(self, tok):
        """Open a bracket, block or prefix operator at tok; leave closes it."""
        self.depth += 1
        self.reach(self.depth, tok)

    def leave(self, node):
        self.depth -= 1
        return node

    # program -----------------------------------------------------------------

    def parse_program(self):
        self.expect("kw", "vars")
        decls = [self.parse_decl()]
        while self.accept(","):
            decls.append(self.parse_decl())
        self.expect("op", ";")
        self.declared = {d.name for d in decls}
        if len(self.declared) != len(decls):
            self.fail("duplicate variable declaration")
        self.expect("kw", "body")
        self.expect("op", ":")
        body = self.parse_stmt_seq()
        post = None
        if self.accept("post"):
            self.expect("op", ":")
            post = self.parse_expr()
            self.accept(";")
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
        sign = -1 if self.accept("-") else 1
        return sign * int(self.expect("int").text)

    # statements ----------------------------------------------------------------

    def parse_stmt_seq(self):
        # ";" nests to the left: each statement after the first puts the
        # ones before it one level deeper
        outer, self.peak = self.peak, self.depth
        out = self.parse_stmt()
        while (tok := self.peek()).text == ";":
            self.pos += 1
            if self.peek().text in ("post", "}", ""):  # "": the end of input
                break
            out = Seq(out, self.parse_stmt())
            self.reach(self.peak + 1, tok)
        self.peak = max(outer, self.peak)
        return out

    def parse_block(self):
        self.enter(self.expect("op", "{"))
        body = self.parse_stmt_seq()
        self.expect("op", "}")
        return self.leave(body)

    def parse_stmt(self):
        tok = self.next()
        text = tok.text
        if tok.kind == "name":
            self._check_declared(text, tok)
            becomes = self.expect("op", ":=")
            return Assign(text, self.parse_expr(), _at(becomes))
        if text == "if":
            parens = self.accept("(")
            cond = self.parse_expr()
            if parens:
                self.expect("op", ")")
            then = self.parse_block()
            orelse = self.parse_block() if self.accept("else") else Skip()
            return If(cond, then, orelse, _at(tok))
        if text == "skip":
            return Skip()
        if text == "prob":
            chance = self.parse_rational()
            if not (ZERO <= chance <= ONE):
                raise RangeError(located(
                    f"branch probability {chance} outside [0, 1]", _at(tok)))
            left = self.parse_block()
            return Prob(chance, left, self.parse_block())
        if text == "choose":
            left = self.parse_block()
            self.expect("op", "[]")
            return Choose(left, self.parse_block())
        if text == "abort":
            return Abort()
        self.fail(f"expected a statement, found {text!r}", tok)

    def parse_rational(self):
        num = self.parse_signed_int()
        if self.accept("/"):
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
                located(f"variable {name!r} is not declared", _at(tok)))

    # expressions (one binding-power loop over _BINDING) ---------------------------

    def parse_expr(self, rbp=0):
        """An expression of the operators that bind tighter than rbp: a prefix
        "!" or an atom, then each binary operator of _BINDING in turn."""
        # a chain nests like a sequence: each operand after the first puts
        # the ones before it one level deeper
        outer, self.peak = self.peak, self.depth
        tok = self.tokens[self.pos]
        if tok.text == "!" and rbp <= _NOT:
            self.enter(self.next())
            left = self.leave(Unary("!", self.parse_expr(_NOT), _at(tok)))
        else:
            left = self.parse_atom()
        # no loop takes a comparison just past another: comparisons do not chain
        while (bp := _BINDING.get((tok := self.tokens[self.pos]).text, 0)) > rbp and (
                bp != _COMPARE or self.pos != self.compared):
            self.pos += 1
            left = Bin(tok.text, left, self.parse_expr(bp), _at(tok))
            self.reach(self.peak + 1, tok)
            if bp == _COMPARE:
                self.compared = self.pos
        self.peak = max(outer, self.peak)
        return left

    def parse_atom(self):
        tok = self.next()
        kind, text = tok.kind, tok.text
        if kind == "name":
            self._check_declared(text, tok)
            return Var(text, _at(tok))
        if kind == "int":
            if self.accept("/"):
                return Lit(Fraction(int(text), self.parse_denominator()), _at(tok))
            return Lit(int(text), _at(tok))
        if text == "(" or text == "[":
            self.enter(tok)
            inner = self.parse_expr()
            if text == "(":
                self.expect("op", ")")
                return self.leave(inner)
            self.expect("op", "]")
            return self.leave(Iverson(inner, _at(tok)))
        if text == "-":
            self.enter(tok)
            return self.leave(Unary("-", self.parse_atom(), _at(tok)))
        if text == "true" or text == "false":
            return Lit(text == "true", _at(tok))
        self.fail(f"expected an expression, found {text or 'end of input'!r}", tok)


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


class StateSpace(Frozen):
    """The full product of the declared variable ranges.  ``names``, set once
    by ``__post_init__``, is a slot and no field, so records ignore it."""

    __slots__ = ("decls", "names")
    _fields = ("decls",)

    def __post_init__(self):
        names = tuple(d.name for d in self.decls)
        if len(set(names)) != len(names):
            raise RangeError("duplicate variable declarations")
        object.__setattr__(self, "names", names)

    def size(self):
        return math.prod(d.span for d in self.decls)

    def states(self, cap=DEFAULT_STATE_CAP):
        if self.size() > cap:
            raise TooLarge(f"{self.size()} states exceed the cap of {cap}")
        ranges = [range(d.lo, d.hi + 1) for d in self.decls]
        # the product of ascending ranges is already in atom_key order
        return FinSet.presorted(itertools.product(*ranges))

    def render(self, state):
        return ",".join(f"{n}={v}" for n, v in zip(self.names, state))

    def parse_state(self, text):
        values, given = {}, []
        for part in text.replace(",", " ").split():
            name, eq, value = part.partition("=")
            value = read_int(value)
            if not eq or value is None:
                raise RangeError(f"bad state component {part!r}")
            values[name] = value
            given.append(name)
        if missing := set(self.names) - set(values):
            raise RangeError(f"state is missing variables {sorted(missing)}")
        state = tuple(values[n] for n in self.names)
        for d, v in zip(self.decls, state):
            if not (d.lo <= v <= d.hi):
                raise RangeError(f"{d.name}={v} outside {d.lo}..{d.hi}")
        # checked last, so a state the checks above reject keeps its message
        for i, name in enumerate(given):
            if name not in self.names:
                raise UndeclaredVariable(f"state variable {name!r} is not declared")
            if name in given[:i]:
                raise RangeError(f"state variable {name!r} is given twice")
        return state


# The expression types.  Numbers are int or rational, and the Iverson bracket
# is the one cast from bool to number (docs/grammar.ebnf, "Types").
INT, RATIONAL, BOOL = "int", "rational", "bool"
_NUMBERS = (INT, RATIONAL)
_LITERAL_TYPES = {bool: BOOL, int: INT, Fraction: RATIONAL}

# each operator's function, mapped over its operands' columns; && and || read both
# columns, which is unobservable: a typed expression without division cannot fail
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "==": operator.eq,
           "!=": operator.ne, "<": operator.lt, "<=": operator.le, ">": operator.gt,
           ">=": operator.ge, "&&": operator.and_, "||": operator.or_}
_UNARY = {"!": operator.not_, "-": operator.neg}


def _binary_type(op, left, right, pos):
    """The type of `left op right`, or TypeMismatch naming op and both types."""
    if op in ("&&", "||"):
        if left == right == BOOL:
            return BOOL
        want = "bools"
    elif left in _NUMBERS and right in _NUMBERS:
        if op in ("+", "-", "*"):
            return INT if left == right == INT else RATIONAL
        return BOOL
    elif op in ("==", "!=") and left == right == BOOL:
        return BOOL
    else:
        want = "two numbers or two bools" if op in ("==", "!=") else "numbers"
    raise TypeMismatch(f"operator {op} takes {want}, got {left} and {right}", pos)


def compile_expr(expr, names):
    """Type expr and compile it to a function over the state columns, one list
    of values in states order per variable of ``names``.  Returns ``(fn, type)``:
    ``fn(columns)`` is expr's column, a list for INT and BOOL and ``(numerators,
    denominator)`` for RATIONAL.  A mistyped operand raises TypeMismatch before
    any state is evaluated."""
    build, kind = _compile(expr, {name: i for i, name in enumerate(names)})

    def fn(columns):
        column = build(columns, len(columns[0]) if columns else 1)
        return column if kind == RATIONAL else column[0]
    return fn, kind


def _compile(expr, index):
    """expr's column builder, from the variable columns and the number of states
    to ``(values, denominator)``, the denominator positive and 1 unless RATIONAL."""
    if isinstance(expr, Lit) and type(expr.value) in _LITERAL_TYPES:
        v, kind = expr.value, _LITERAL_TYPES[type(expr.value)]
        value, den = (v.numerator, v.denominator) if kind == RATIONAL else (v, 1)
        return (lambda cols, n: ([value] * n, den)), kind
    if isinstance(expr, Var):
        if expr.name not in index:
            raise UndeclaredVariable(expr.name)
        i = index[expr.name]
        return (lambda cols, n: (cols[i], 1)), INT
    if isinstance(expr, Unary):
        arg, kind = _compile(expr.arg, index)
        if expr.op == "!" and kind != BOOL:
            raise TypeMismatch(f"operator ! takes a bool, got {kind}", expr.pos)
        if expr.op == "-" and kind not in _NUMBERS:
            raise TypeMismatch(f"operator - takes a number, got {kind}", expr.pos)
        f = _UNARY[expr.op]

        def unary(cols, n):
            values, den = arg(cols, n)
            return list(map(f, values)), den
        return unary, kind
    if isinstance(expr, Iverson):
        cond, kind = _compile(expr.cond, index)
        if kind != BOOL:
            raise TypeMismatch(f"Iverson bracket [ ] takes a bool, got {kind}", expr.pos)
        return (lambda cols, n: (list(map(int, cond(cols, n)[0])), 1)), RATIONAL
    if isinstance(expr, Bin):
        left, left_type = _compile(expr.left, index)
        right, right_type = _compile(expr.right, index)
        kind = _binary_type(expr.op, left_type, right_type, expr.pos)
        f = _BINARY[expr.op]

        def binary(cols, n):
            (a, p), (b, q) = left(cols, n), right(cols, n)
            if f is operator.mul:
                return list(map(f, a, b)), p * q
            # both over the lcm: the sum or difference of the numerators, or
            # their comparison, which is the comparison of the values
            den = math.lcm(p, q)
            a = a if den == p else [v * (den // p) for v in a]
            b = b if den == q else [v * (den // q) for v in b]
            return list(map(f, a, b)), den if kind == RATIONAL else 1
        return binary, kind
    raise AssertionError(f"not an expression: {expr!r}")


def eval_expr(expr, env):
    """The value of expr in env, a dict from variable names to values (one state)."""
    fn, kind = compile_expr(expr, tuple(env))
    column = fn([[v] for v in env.values()])
    return Fraction(column[0][0], column[1]) if kind == RATIONAL else column[0]


def _columns(states):
    """Each variable's values in states order, one list per variable."""
    return [list(column) for column in zip(*states)]


def _bits(flags):
    """The state mask of bools in states order: bit j is set where flags[j] holds."""
    return int("".join(map("01".__getitem__, reversed(flags))), 2)


def _flags(mask, n):
    """The bools of a state mask over n states, in states order."""
    return map("1".__eq__, format(mask, f"0{n}b")[::-1])


def _indices(mask):
    """The positions of a mask's set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- denotational semantics ----------------------------------------------------------

# the modes, each denoting into its monad: powerset and dist
_MODES = ("pow", "dist")
# the statements that only one mode admits
_ONLY_IN = {Abort: "pow", Choose: "pow", Prob: "dist"}


def _substatements(stmt):
    if isinstance(stmt, Seq):
        return stmt.first, stmt.second
    if isinstance(stmt, If):
        return stmt.then, stmt.orelse
    if isinstance(stmt, (Choose, Prob)):
        return stmt.left, stmt.right
    return ()


def _mode_violation(stmt, mode):
    if _ONLY_IN.get(type(stmt), mode) != mode:
        return f"{type(stmt).__name__.lower()} is not available in {mode} mode"
    for sub in _substatements(stmt):
        violation = _mode_violation(sub, mode)
        if violation:
            return violation
    return None


def _successors(stmt, space, columns):
    """The index of the state each state moves to under an assignment, in states order."""
    fn, kind = compile_expr(stmt.expr, space.names)
    if kind != INT:
        raise RangeError(located(f"assignment to {stmt.var} must be an integer", stmt.pos))
    if stmt.var not in space.names:
        raise UndeclaredVariable(stmt.var)
    i = space.names.index(stmt.var)
    lo, span = space.decls[i].lo, space.decls[i].span
    # states are in product order, so variable i moves the index in steps of stride
    stride = math.prod(d.span for d in space.decls[i + 1:])
    return [k + ((v - lo) % span + lo - x) * stride
            for k, (v, x) in enumerate(zip(fn(columns), columns[i]))]


def _mask(stmt, space, columns):
    """The state mask of the states that take an if's then-branch."""
    fn, kind = compile_expr(stmt.cond, space.names)
    if kind != BOOL:
        raise TypeMismatch(f"if condition takes a bool, got {kind}", stmt.pos)
    return _bits(fn(columns))


class _Tables:
    """A program's state space, its variable columns, its statements' tables
    and, once built, its validated denotation ``arrow``, for one mode and cap.

    ``_tables`` builds one per program, mode and cap, and the program keeps it
    in its memo: an assignment's successor indices and an if's condition mask
    are computed the first time a traversal reaches the statement, so the
    first error raised is the first one that traversal meets, and every later
    traversal (more posts, the other leg of a round trip, the next call on
    the same program) reads the same tables.  An entry that raises is not
    stored, so the next traversal to reach it raises again.
    """

    def __init__(self, program, mode, cap):
        if violation := _mode_violation(program.body, mode):
            raise ModeMismatch(violation)
        self.mode = mode
        self.space = StateSpace(program.decls)
        self.states = self.space.states(cap)
        self.columns = _columns(self.states)
        self.arrow = None
        self._built = {}

    def __getitem__(self, stmt):
        key = id(stmt)
        if key not in self._built:
            build = _successors if isinstance(stmt, Assign) else _mask
            self._built[key] = build(stmt, self.space, self.columns)
        return self._built[key]

    def gather(self, stmt):
        """An assignment's successors as an itemgetter from a mask's bit string, high
        bit first, to its wp's (over one state, a character, which joins the same)."""
        if (key := (id(stmt), "gather")) not in self._built:
            last = len(self.states) - 1
            self._built[key] = operator.itemgetter(*[last - j for j in reversed(self[stmt])])
        return self._built[key]


def _tables(program, mode, cap):
    """program's _Tables for mode and cap, built on first use and kept in its
    memo slot; a build that raises leaves nothing behind."""
    if mode not in _MODES:
        raise ModeMismatch(f"unknown mode {mode!r}")
    try:
        memo = program._memo
    except AttributeError:
        memo = {}
        object.__setattr__(program, "_memo", memo)
    tables = memo.get((mode, cap))
    if tables is None:
        tables = memo[mode, cap] = _Tables(program, mode, cap)
    return tables


def _union(rows, mask):
    """The OR of the masks in rows at mask's set bits."""
    if not mask & (mask - 1):  # at most one bit set
        return rows[mask.bit_length() - 1] if mask else 0
    return functools.reduce(operator.or_, map(rows.__getitem__, _indices(mask)))


def _denote(stmt, tables):
    """The rows of stmt in states order: in pow mode a state mask each, in dist
    mode a ``Weighting`` kernel row over state positions, ``(positions,
    numerators, denominator)`` with the positions ascending; ``;`` and ``prob``
    bind rows with ``bind_rows``, the extension under ``Weighting.bind``."""
    pow_mode, n = tables.mode == "pow", len(tables.states)
    if isinstance(stmt, (Skip, Assign)):
        targets = tables[stmt] if isinstance(stmt, Assign) else range(n)
        return [1 << j for j in targets] if pow_mode else [((j,), (1,), 1) for j in targets]
    if isinstance(stmt, Abort):
        return [0] * n
    first, second = (_denote(sub, tables) for sub in _substatements(stmt))
    if isinstance(stmt, Seq):
        if pow_mode:
            return [_union(second, m) for m in first]
        return [bind_rows(nums, den, [second[j] for j in at]) for at, nums, den in first]
    if isinstance(stmt, If):
        return [a if t else b for t, a, b in zip(_flags(tables[stmt], n), first, second)]
    if isinstance(stmt, Choose):
        return [a | b for a, b in zip(first, second)]
    if isinstance(stmt, Prob):  # the coin row (p, q - p)/q bound over (left, right)
        p, q = stmt.chance.numerator, stmt.chance.denominator
        if 0 < p < q:
            return [bind_rows((p, q - p), q, pair) for pair in zip(first, second)]
        return first if p else second
    raise AssertionError(f"not a statement: {stmt!r}")


def _arrow(program, tables):
    """The denotation's rows as a KleisliArrow, through its validating constructor."""
    from .monads import DIST, POWERSET
    from .triangle import KleisliArrow

    states, rows = tables.states, _denote(program.body, tables)
    if tables.mode == "pow":
        state = states.elements.__getitem__
        family, graph = POWERSET, (frozenset(map(state, _indices(m))) for m in rows)
    else:
        family, graph = DIST, (Distribution._from_kernel(states, row) for row in rows)
    return KleisliArrow(family, states, states, tuple(graph))


def _denotation(program, tables):
    """tables' validated arrow, built by _arrow on first use and then kept."""
    if tables.arrow is None:
        tables.arrow = _arrow(program, tables)
    return tables.arrow


def denote(program, mode, state_cap=DEFAULT_STATE_CAP):
    """The whole-program Kleisli arrow over the state space."""
    return _denotation(program, _tables(program, mode, state_cap))


def image(program, mode, state_cap=DEFAULT_STATE_CAP):
    """The function sending a start, a state or in dist mode a ``Distribution``
    on the states, to ``triangle.bind_apply(denote(program, mode), start)``
    (a state taken as its unit): the reachable states, or the distribution of
    final states.  It binds the rows ``denote`` wraps, by a mask in pow mode
    and ``bind_rows`` in dist mode, and builds no arrow; the tables' errors
    are raised before it is returned."""
    tables = _tables(program, mode, state_cap)
    rows, states = _denote(program.body, tables), tables.states
    state = states.elements.__getitem__

    def apply(start):
        if mode == "pow":
            return frozenset(map(state, _indices(rows[states.index(start)])))
        if not isinstance(start, Distribution):
            return Distribution._from_kernel(states, rows[states.index(start)])
        if start.carrier != states:
            raise CarrierMismatch("a start distribution must live on the program's states")
        at, nums, den = start.kernel()
        return Distribution._from_kernel(states, bind_rows(nums, den, [rows[j] for j in at]))
    return apply


# -- weakest preconditions -------------------------------------------------------------

FLAVORS = ("demonic", "angelic", "expectation")


def mode_of_flavor(flavor):
    if flavor in ("demonic", "angelic"):
        return "pow"
    if flavor == "expectation":
        return "dist"
    raise ModeMismatch(f"unknown flavor {flavor!r}")


def _post_table(post, flavor, names, columns):
    """Evaluate a post-condition over the states' variable columns into a table
    for the given flavor: for demonic and angelic, whose post must be typed bool,
    a state mask with bit j set where the post holds at states[j]; for
    expectation ``(nums, den)``, numerators in states order over their least
    denominator, checked in [0, 1] state by state."""
    fn, kind = compile_expr(post, names)
    if flavor != "expectation":
        if kind != BOOL:
            raise TypeMismatch(f"{flavor} post takes a bool, got {kind}", post.pos)
        return _bits(fn(columns))
    # a bool or int post is its column of ints over 1
    nums, den = fn(columns) if kind == RATIONAL else (list(map(int, fn(columns))), 1)
    if min(nums) < 0 or max(nums) > den:
        v = next(v for v in nums if not 0 <= v <= den)
        raise RangeError(f"post-expectation {Fraction(v, den)} outside [0, 1]")
    g = math.gcd(den, *nums)
    return ([v // g for v in nums], den // g) if g > 1 else (nums, den)


def _wp_table(stmt, mask, flavor, tables):
    """The state mask of a demonic or angelic weakest precondition."""
    if isinstance(stmt, Skip):
        return mask
    n = len(tables.states)
    if isinstance(stmt, Abort):
        return (1 << n) - 1 if flavor == "demonic" else 0
    if isinstance(stmt, Assign):
        return int("".join(tables.gather(stmt)(format(mask, f"0{n}b"))), 2)
    if isinstance(stmt, Seq):
        inner = _wp_table(stmt.second, mask, flavor, tables)
        return _wp_table(stmt.first, inner, flavor, tables)
    left, right = (_wp_table(sub, mask, flavor, tables) for sub in _substatements(stmt))
    if isinstance(stmt, If):
        return (tables[stmt] & left) | (right & ~tables[stmt])
    return left & right if flavor == "demonic" else left | right  # a choose


def _pre_expectation(stmt, post, tables):
    """The pre-expectation of post under stmt, both ``(nums, den)`` in states order."""
    if isinstance(stmt, Skip):
        return post
    if isinstance(stmt, Assign):
        nums, den = post
        return [nums[j] for j in tables[stmt]], den
    if isinstance(stmt, Seq):
        inner = _pre_expectation(stmt.second, post, tables)
        return _pre_expectation(stmt.first, inner, tables)
    (left, ld), (right, rd) = (_pre_expectation(sub, post, tables)
                               for sub in _substatements(stmt))
    den = math.lcm(ld, rd)
    lf, rf = den // ld, den // rd
    if isinstance(stmt, If):
        return [a * lf if taken else b * rf for taken, a, b
                in zip(_flags(tables[stmt], len(tables.states)), left, right)], den
    if isinstance(stmt, Prob):
        # p/q of the left and (q - p)/q of the right, over q * den
        p, q = stmt.chance.numerator, stmt.chance.denominator
        lf, rf, den = p * lf, (q - p) * rf, q * den
        nums = [lf * a + rf * b for a, b in zip(left, right)]
        g = math.gcd(den, *nums)
        return [n // g for n in nums], den // g
    raise AssertionError(f"not a statement: {stmt!r}")


_EXPRESSIONS = (Lit, Var, Unary, Bin, Iverson)


def _post_expr(post, names):
    """post as an expression node: source text is parsed against the declared
    names, and anything else that is no expression node raises TypeMismatch."""
    if isinstance(post, str):
        return parse_expression(post, names)
    if not isinstance(post, _EXPRESSIONS):
        raise TypeMismatch(f"a post is an expression or its source text, not {post!r}")
    return post


def wp(program, post, flavor, state_cap=DEFAULT_STATE_CAP):
    """Weakest precondition (or pre-expectation) by structural recursion."""
    tables = _tables(program, mode_of_flavor(flavor), state_cap)
    post = _post_expr(post, tables.space.names)
    table = _post_table(post, flavor, tables.space.names, tables.columns)
    if flavor == "expectation":
        nums, den = _pre_expectation(program.body, table, tables)
        return {s: Fraction(n, den) for s, n in zip(tables.states, nums)}
    mask = _wp_table(program.body, table, flavor, tables)
    return dict(zip(tables.states, _flags(mask, len(tables.states))))


def _rows(arrow):
    """Each row over cod's indices: a pow row as a mask, a dist row as its kernel."""
    if arrow.family.name == "powerset":
        rank = arrow.cod.carrier.rank()
        return [sum([1 << rank[b] for b in t]) for t in arrow.graph]
    return [t.kernel() for t in arrow.graph]


def _transposed(rows, mask, flavor):
    """The mask of the states whose row lies in (demonic) or meets (angelic) mask."""
    if flavor == "demonic":
        return _bits([not (row & ~mask) for row in rows])
    return _bits([(row & mask) != 0 for row in rows])


def _expected(rows, table):
    """Each row's expectation of table = (nums, den), as (numerator, denominator)."""
    nums, den = table
    return [(sum(map(operator.mul, row, map(nums.__getitem__, at))), d * den)
            for at, row, d in rows]


# -- healthiness round trip -------------------------------------------------------------


class WpCheck(Frozen):
    __slots__ = _fields = ("flavor", "posts", "mismatches", "witness")
    _defaults = (None,)

    @property
    def ok(self):
        return self.mismatches == 0


def default_posts(space, flavor, rng=None):
    """Probe posts: constants, atomic comparisons, and a few random ones."""
    posts = [Lit(True), Lit(False)]
    for d in space.decls:
        posts.append(Bin("==", Var(d.name), Lit(d.lo)))
        posts.append(Bin("<=", Var(d.name), Lit((d.lo + d.hi) // 2)))
    if rng is not None:
        from .gcl_random import random_bool_expr

        for _ in range(RANDOM_POSTS):
            posts.append(random_bool_expr(rng, space.decls, depth=2))
    if flavor == "expectation":  # each post as 0 or 1, every third halved
        return [Bin("*", Lit(Fraction(1, 2)), Iverson(p)) if i % 3 == 2 else Iverson(p)
                for i, p in enumerate(posts)]
    return posts


def check_roundtrip(program, flavor, posts=None, state_cap=DEFAULT_STATE_CAP, seed=None):
    """Compositional wp against the transposed whole-program denotation.

    posts are expression nodes or their source text.  The denotation and every
    post's recursion read the statement tables the program keeps, so each
    assignment and condition is evaluated once per state over the program's
    life, and the denotation is the arrow ``denote`` built and validated, or
    is built and validated here when there is none yet.
    """
    tables = _tables(program, mode_of_flavor(flavor), state_cap)
    space, states = tables.space, tables.states
    if posts is None:
        rng = random.Random(seed) if seed is not None else None
        posts = default_posts(space, flavor, rng)
    else:
        posts = [_post_expr(post, space.names) for post in posts]
    rows = _rows(_denotation(program, tables))
    mismatches = 0
    witness = None
    for post in posts:
        table = _post_table(post, flavor, space.names, tables.columns)
        if flavor == "expectation":
            # each row's dot product n/d against the recursion's m/den, cross-multiplied
            nums, den = _pre_expectation(program.body, table, tables)
            wrong = ((s, Fraction(m, den), Fraction(n, d))
                     for s, m, (n, d) in zip(states, nums, _expected(rows, table))
                     if n * den != m * d)
        else:
            # the set bits of one XOR are the differing states, the lowest first
            m = _wp_table(program.body, table, flavor, tables)
            wrong = ((states.elements[j], m >> j & 1 == 1, m >> j & 1 == 0)
                     for j in _indices(m ^ _transposed(rows, table, flavor)))
        first = next(wrong, None)
        if first is not None:
            mismatches += 1
            if witness is None:
                witness = (post, space.render(first[0]), *first[1:])
    return WpCheck(flavor, len(posts), mismatches, witness)
