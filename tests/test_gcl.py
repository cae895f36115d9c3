import copy
import dataclasses
import functools
import hashlib
import importlib
import itertools
import operator
import pickle
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from finsem import gcl, gcl_random
from finsem.cli import cli_main
from finsem.errors import (
    CarrierMismatch,
    FinsemError,
    ModeMismatch,
    ParseError,
    RangeError,
    TooLarge,
    TypeMismatch,
    UndeclaredVariable,
)
from finsem.monads import DIST, POWERSET
from finsem.order import FinSet
from finsem.triangle import KleisliArrow, bind_apply, kleisli_compose


class TestParser:
    def test_minimal_program(self):
        prog = gcl.parse("vars x in 0..1; body: skip; post: x == 0;")
        assert prog.decls == (gcl.VarDecl("x", 0, 1),)
        assert isinstance(prog.body, gcl.Skip)
        assert prog.post is not None

    def test_prob_keeps_exact_rational(self):
        prog = gcl.parse("vars x in 0..1; body: prob 1/3 {x:=0}{x:=1};")
        assert prog.body.chance == Fraction(1, 3)

    def test_prob_out_of_range(self):
        with pytest.raises(RangeError):
            gcl.parse("vars x in 0..1; body: prob 3/2 {x:=0}{x:=1};")

    def test_undeclared_variable(self):
        with pytest.raises(UndeclaredVariable):
            gcl.parse("vars x in 0..1; body: y := 1;")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            gcl.parse("vars x in 0..1; body: x := ;")
        assert err.value.line == 1

    @pytest.mark.parametrize("source, column", [
        ("vars x in 0..1; body: prob 1/0 {x:=0}{x:=1};", 30),
        ("vars x in 0..1; body: x := 1/0;", 30),
        ("vars x in 0..1; body: skip; post: [x == 0] * 2/0;", 48),
    ], ids=["prob", "assign", "post"])
    def test_zero_denominator_is_parse_error(self, source, column):
        with pytest.raises(ParseError) as err:
            gcl.parse(source)
        assert (err.value.line, err.value.column) == (1, column)

    def test_sequencing_and_if(self):
        prog = gcl.parse(
            "vars x in 0..3, y in 0..1;"
            " body: x := x + 1; if (x == 2) { y := 1 } else { y := 0 };"
        )
        assert isinstance(prog.body, gcl.Seq)

    def test_empty_range_rejected(self):
        with pytest.raises(RangeError):
            gcl.parse("vars x in 3..1; body: skip;")


# program bodies nested n levels deep, one per shape that used to exhaust the
# recursion limit in the parser or the evaluators
NESTED = {
    "sequence": lambda n: "; ".join(["x := 1"] * (n + 1)),
    "sum": lambda n: "x := " + "+".join(["1"] * (n + 1)),
    "parentheses": lambda n: "x := " + "(" * n + "1" + ")" * n,
    "ifs": lambda n: "if x == 0 {" * n + "x := 1" + "}" * n,
}
# the sizes at which each shape was first seen to crash
CRASHING = {"sequence": 3000, "sum": 2999, "parentheses": 3000, "ifs": 400}


def nested_program(shape, n):
    return f"vars x in 0..1; body: {NESTED[shape](n)}; post: x == 1;"


NODES = (gcl.VarDecl, gcl.Skip, gcl.Abort, gcl.Assign, gcl.Seq, gcl.If, gcl.Choose,
         gcl.Prob, gcl.Lit, gcl.Var, gcl.Unary, gcl.Bin, gcl.Iverson, gcl.Program)


class TestSyntaxNodes:
    """The nodes compare, hash and print as the frozen dataclasses they replace."""

    def test_no_gcl_class_is_a_dataclass(self):
        # nor any class of the package: every record is a check.Record
        modules = [importlib.import_module(f"finsem.{m.stem}")
                   for m in Path(gcl.__file__).parent.glob("*.py") if m.stem != "__main__"]
        classes = [v for m in modules for v in vars(m).values()
                   if isinstance(v, type) and v.__module__ == m.__name__]
        assert len(classes) > 40
        assert not any(dataclasses.is_dataclass(cls) for cls in classes)
        assert all("__dict__" not in dir(cls) for cls in NODES + (gcl.StateSpace, gcl.Token))

    def test_equal_only_to_the_same_class(self):
        a, b = gcl.Skip(), gcl.Abort()
        assert gcl.Seq(a, b) != gcl.Choose(a, b)
        assert gcl.Seq(a, b) == gcl.Seq(gcl.Skip(), gcl.Abort())
        assert gcl.Skip() != gcl.Abort() and gcl.Lit(1) != 1

    def test_position_is_outside_equality_hashing_and_repr(self):
        parsed = gcl.parse("vars x in 0..1; body: x := x + 1;").body
        built = gcl.Assign("x", gcl.Bin("+", gcl.Var("x"), gcl.Lit(1)))
        assert parsed.pos == (1, 25) and built.pos is None
        assert parsed == built and hash(parsed) == hash(built)
        assert repr(parsed) == repr(built)
        assert gcl.Var("x", (1, 2)) == gcl.Var("x", (3, 4))

    def test_post_defaults_to_none(self):
        prog = gcl.Program((), gcl.Skip())
        assert prog.post is None and prog == gcl.Program((), gcl.Skip(), None)

    def test_fields_cannot_be_set(self):
        node = gcl.Bin("+", gcl.Lit(1), gcl.Lit(2), (1, 1))
        for field in ("op", "left", "pos", "other"):
            with pytest.raises(AttributeError):
                setattr(node, field, None)
        with pytest.raises(AttributeError):
            del node.op

    def test_arguments_must_fit(self):
        for build in (lambda: gcl.Seq(gcl.Skip()), lambda: gcl.Skip(1),
                      lambda: gcl.Lit(1, value=2), lambda: gcl.Var(nam="x")):
            with pytest.raises(TypeError):
                build()

    def test_repr_is_pinned(self):
        prog = gcl.parse("vars x in 0..1; body: if (x < 1) { x := x + 1 } "
                         "else { choose { skip } [] { abort } }; post: !(x == 1);")
        assert repr(prog) == (
            "Program(decls=(VarDecl(name='x', lo=0, hi=1),), body=If(cond=Bin(op='<', "
            "left=Var(name='x'), right=Lit(value=1)), then=Assign(var='x', expr=Bin("
            "op='+', left=Var(name='x'), right=Lit(value=1))), orelse=Choose("
            "left=Skip(), right=Abort())), post=Unary(op='!', arg=Bin(op='==', "
            "left=Var(name='x'), right=Lit(value=1))))")
        body = gcl.parse("vars x in 0..1; body: prob 1/3 {x:=0}{x:=[x==1]*0+1};").body
        assert repr(body) == (
            "Prob(chance=Fraction(1, 3), left=Assign(var='x', expr=Lit(value=0)), "
            "right=Assign(var='x', expr=Bin(op='+', left=Bin(op='*', left=Iverson("
            "cond=Bin(op='==', left=Var(name='x'), right=Lit(value=1))), "
            "right=Lit(value=0)), right=Lit(value=1))))")


class TestProbChance:
    @pytest.mark.parametrize("chance", [0.3, 1.0, True, False, "1/2", None], ids=repr)
    def test_a_chance_that_is_no_int_or_fraction_is_rejected(self, chance):
        with pytest.raises(RangeError, match="is not an int or a Fraction"):
            gcl.Prob(chance, gcl.Skip(), gcl.Skip())

    @pytest.mark.parametrize("chance", [-1, 2, Fraction(-1, 3), Fraction(4, 3)])
    def test_a_chance_outside_the_unit_interval_is_rejected(self, chance):
        with pytest.raises(RangeError, match=r"outside \[0, 1\]"):
            gcl.Prob(chance, gcl.Skip(), gcl.Skip())

    def test_an_int_chance_is_exact(self):
        x = gcl.VarDecl("x", 0, 1)
        for chance, want in ((1, 1), (0, 0), (Fraction(2, 6), Fraction(1, 3))):
            body = gcl.Prob(chance, gcl.Assign("x", gcl.Lit(0)), gcl.Assign("x", gcl.Lit(1)))
            table = gcl.wp(gcl.Program((x,), body), "[x == 0]", "expectation")
            assert table == {(0,): want, (1,): want}
            assert all(type(v) is Fraction for v in table.values())


# the token pattern the oracle matches, with whitespace runs as a group of
# their own: kept here as it was written, so that a change to gcl's pattern
# is checked against it
ORACLE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<int>[0-9]+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>:=|==|!=|<=|>=|&&|\|\||\[\]|\.\.|[-+*/<>!;:,{}()\[\]=])
    """,
    re.VERBOSE,
)


def tokenize_oracle(source):
    """The tokens of source by one match per token and per whitespace run,
    counting the column through every token."""
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(source):
        m = ORACLE_TOKEN_RE.match(source, i)
        if m is None:
            raise ParseError(f"unexpected character {source[i]!r}", line, col)
        text = m.group(0)
        if m.lastgroup != "ws":
            kind = m.lastgroup
            if kind == "name" and text in gcl.KEYWORDS:
                kind = "kw"
            tokens.append((kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        i = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


class TestTokenizer:
    # token pieces, whitespace of every kind, and characters no token starts with
    PIECES = ["x", "y1", "_a", "if", "prob", "true", "12", "0", ":=", "==", "<=", "&&",
              "||", "[]", "..", "-", "+", "*", "/", "<", "!", ";", ":", ",", "{", "}",
              "(", ")", "[", "]", "=", " ", "  ", "\t", "\n", "\r", "\r\n", "\n\n \t",
              "\f", "\v", "\u00a0",
              "@", "#", "$", "?", "'", '"', "\\", "é", "λ", "\x00", "~", "^", "٣"]

    @staticmethod
    def outcome(tokenize, source):
        try:
            return [(t.kind, t.text, t.line, t.column) if isinstance(t, gcl.Token) else t
                    for t in tokenize(source)]
        except ParseError as err:
            return (str(err), err.line, err.column)

    def test_random_strings_match_the_oracle(self):
        rng = random.Random(20)
        errors = 0
        for _ in range(3000):
            source = "".join(rng.choice(self.PIECES) for _ in range(rng.randint(0, 30)))
            want = self.outcome(tokenize_oracle, source)
            assert self.outcome(gcl.tokenize, source) == want, repr(source)
            errors += isinstance(want, tuple)
        assert 300 < errors < 2700  # both outcomes are well represented

    def test_programs_match_the_oracle(self):
        sources = [nested_program(shape, 4) for shape in NESTED]
        sources.append(TestIntegerExpectations.NESTED)
        for source in sources + [s.replace("; ", ";\r\n\t") for s in sources]:
            assert self.outcome(gcl.tokenize, source) == self.outcome(tokenize_oracle, source)

    @pytest.mark.parametrize("source, position", [
        ("vars x in 0..1;\r\n\tbody: x := 1 @ 2;", (2, 15)),
        ("\n\n  #", (3, 3)), ("@", (1, 1)), ("x\t\r\n\r\n y ?", (3, 4))])
    def test_the_first_bad_character_is_located(self, source, position):
        with pytest.raises(ParseError) as err:
            gcl.tokenize(source)
        assert (err.value.line, err.value.column) == position


class TestNesting:
    @pytest.mark.parametrize("shape", sorted(NESTED))
    def test_bound_is_exact(self, shape):
        prog = gcl.parse(nested_program(shape, gcl.MAX_NESTING))
        assert gcl.check_roundtrip(prog, "demonic").ok
        with pytest.raises(ParseError) as err:
            gcl.parse(nested_program(shape, gcl.MAX_NESTING + 1))
        assert "nesting deeper than" in str(err.value) and err.value.line == 1

    @pytest.mark.parametrize("shape", sorted(NESTED))
    @pytest.mark.parametrize("command", [["wp"], ["run", "--init", "x=0"]])
    def test_deep_program_exits_2(self, capsys, tmp_path, shape, command):
        f = tmp_path / "deep.gc"
        f.write_text(nested_program(shape, CRASHING[shape]))
        assert cli_main(command + [str(f)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert re.fullmatch(r"error: 1:\d+: nesting deeper than 100 levels\n", err)


# the expression levels of precedence climbing, loosest first: "!" is a prefix
# level of its own, a comparison takes one operator, and the other levels fold
# to the left
ORACLE_COMPARISONS = ("==", "!=", "<=", ">=", "<", ">")
ORACLE_LEVELS = (("||",), ("&&",), ("!",), ORACLE_COMPARISONS, ("+", "-"), ("*",))


class OracleParser(gcl._Parser):
    """gcl's parser with expressions read by precedence climbing over
    ORACLE_LEVELS, one recursive call per level: a second reading of the same
    grammar, against gcl's binding-power loop; statements, nesting and errors
    are gcl's own."""

    def at(self, kind, text=None):
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def parse_expr(self, level=0):
        """An expression built from the operators of ORACLE_LEVELS[level:]."""
        if level == len(ORACLE_LEVELS):
            return self.parse_atom()
        ops = ORACLE_LEVELS[level]
        if ops == ("!",):
            if not self.at("op", "!"):
                return self.parse_expr(level + 1)
            bang = self.next()
            self.enter(bang)
            return self.leave(gcl.Unary("!", self.parse_expr(level), gcl._at(bang)))
        # a chain nests like a sequence: each operand after the first puts
        # the ones before it one level deeper
        outer, self.peak = self.peak, self.depth
        left = self.parse_expr(level + 1)
        while (tok := self.peek()).kind == "op" and tok.text in ops:
            self.next()
            left = gcl.Bin(tok.text, left, self.parse_expr(level + 1), gcl._at(tok))
            self.reach(self.peak + 1, tok)
            if ops is ORACLE_COMPARISONS:
                break
        self.peak = max(outer, self.peak)
        return left

    def parse_atom(self):
        tok = self.peek()
        if self.at("op", "-"):
            self.enter(self.next())
            return self.leave(gcl.Unary("-", self.parse_atom(), gcl._at(tok)))
        if tok.kind == "int":
            self.next()
            if self.at("op", "/"):
                self.next()
                return gcl.Lit(Fraction(int(tok.text), self.parse_denominator()), gcl._at(tok))
            return gcl.Lit(int(tok.text), gcl._at(tok))
        if self.at("kw", "true"):
            self.next()
            return gcl.Lit(True, gcl._at(tok))
        if self.at("kw", "false"):
            self.next()
            return gcl.Lit(False, gcl._at(tok))
        if tok.kind == "name":
            self.next()
            self._check_declared(tok.text, tok)
            return gcl.Var(tok.text, gcl._at(tok))
        if self.at("op", "("):
            self.enter(self.next())
            inner = self.parse_expr()
            self.expect("op", ")")
            return self.leave(inner)
        if self.at("op", "["):
            self.enter(self.next())
            inner = self.parse_expr()
            self.expect("op", "]")
            return self.leave(gcl.Iverson(inner, gcl._at(tok)))
        self.fail(f"expected an expression, found {tok.text or 'end of input'!r}")


def parse_oracle(source, declared=None):
    """A program, or with declared names a standalone expression, read by
    OracleParser."""
    parser = OracleParser(gcl.tokenize(source), declared)
    if declared is None:
        return parser.parse_program()
    expr = parser.parse_expr()
    parser.expect("eof")
    return expr


def with_positions(node):
    """A node as nested tuples of its class and every field, pos included."""
    if isinstance(node, tuple):
        return tuple(map(with_positions, node))
    if isinstance(node, gcl._Node):
        return (type(node).__name__, *[with_positions(getattr(node, f)) for f in node._fields])
    return type(node).__name__, node


def parse_outcome(parse, source, declared=None):
    """The tree with every position, or the error's class, message, line and column."""
    try:
        return with_positions(parse(source) if declared is None else parse(source, declared))
    except FinsemError as err:
        position = getattr(err, "line", None), getattr(err, "column", None)
        return type(err).__name__, str(err), *position


# binding powers as docs/grammar.ebnf's levels give them: a prefix "!" takes
# its operand at 3, a prefix "-" an atom, and an atom binds tightest
SHOWN_POWER = {"||": 1, "&&": 2, "==": 4, "!=": 4, "<=": 4, ">=": 4, "<": 4, ">": 4,
               "+": 5, "-": 5, "*": 6}


def shown_power(expr):
    if isinstance(expr, gcl.Bin):
        return SHOWN_POWER[expr.op]
    if isinstance(expr, gcl.Unary):
        return 3 if expr.op == "!" else 7
    return 8


def show_expr(expr, rng):
    """expr as source text: with the parentheses it needs and, at random, a few more."""
    def operand(sub, needs):
        text = show_expr(sub, rng)
        return f"({text})" if needs or rng.random() < 0.1 else text
    if isinstance(expr, gcl.Lit):
        value = expr.value
        if isinstance(value, bool):
            return str(value).lower()
        return f"{value.numerator}/{value.denominator}" if type(value) is Fraction else str(value)
    if isinstance(expr, gcl.Var):
        return expr.name
    if isinstance(expr, gcl.Iverson):
        return f"[{show_expr(expr.cond, rng)}]"
    if isinstance(expr, gcl.Unary):
        return expr.op + operand(expr.arg, shown_power(expr.arg) < (3 if expr.op == "!" else 7))
    power = SHOWN_POWER[expr.op]
    # the operators fold to the left, and a comparison takes one operator
    left = operand(expr.left, shown_power(expr.left) < power + (power == 4))
    return f"{left} {expr.op} {operand(expr.right, shown_power(expr.right) <= power)}"


def show_stmt(stmt, rng):
    show = functools.partial(show_stmt, rng=rng)
    if isinstance(stmt, (gcl.Skip, gcl.Abort)):
        return type(stmt).__name__.lower()
    if isinstance(stmt, gcl.Assign):
        return f"{stmt.var} := {show_expr(stmt.expr, rng)}"
    if isinstance(stmt, gcl.Seq):
        return f"{show(stmt.first)};\n  {show(stmt.second)}"
    if isinstance(stmt, gcl.If):
        return (f"if ({show_expr(stmt.cond, rng)}) {{ {show(stmt.then)} }} "
                f"else {{ {show(stmt.orelse)} }}")
    if isinstance(stmt, gcl.Choose):
        return f"choose {{ {show(stmt.left)} }} [] {{ {show(stmt.right)} }}"
    chance = stmt.chance
    return (f"prob {chance.numerator}/{chance.denominator} "
            f"{{ {show(stmt.left)} }} {{ {show(stmt.right)} }}")


def show_program(program, rng):
    decls = ", ".join(f"{d.name} in {d.lo}..{d.hi}" for d in program.decls)
    return f"vars {decls};\nbody: {show_stmt(program.body, rng)};"


# expression tokens, blanks and characters no token starts with
EXPRESSION_PIECES = ["x", "y", "z", "0", "1", "2", "/", "true", "false", "(", ")", "[", "]", "!",
                     "-", "+", "*", "==", "!=", "<", "<=", ">", ">=", "&&", "||", ";", "@", " ",
                     "\n"]


def mutated(source, rng):
    """source with a token or two deleted, inserted or replaced."""
    texts = [tok.text for tok in gcl.tokenize(source)[:-1]]
    for _ in range(rng.randint(1, 2)):
        i, roll = rng.randrange(len(texts) + 1), rng.random()
        if roll < 0.4 and texts:
            del texts[min(i, len(texts) - 1)]
        elif roll < 0.8 or not texts:
            texts.insert(i, rng.choice(EXPRESSION_PIECES))
        else:
            texts[min(i, len(texts) - 1)] = rng.choice(EXPRESSION_PIECES)
    return " ".join(texts)


class TestParserOracle:
    """gcl's binding-power loop against OracleParser: the same trees, every
    node's position, and the same error class, message, line and column."""

    DECLARED = ("x", "y")

    def agree(self, source, declared=None):
        want = parse_outcome(parse_oracle, source, declared)
        parse = gcl.parse if declared is None else gcl.parse_expression
        assert parse_outcome(parse, source, declared) == want, repr(source)
        return want

    def test_random_programs(self):
        rng = random.Random(26)
        parsed = 0
        for i in range(240):
            source = show_program(gcl_random.random_program(rng, ("pow", "dist")[i % 2]), rng)
            assert self.agree(source)[0] == "Program", source
            parsed += self.agree(mutated(source, rng))[0] == "Program"
        assert 5 < parsed < 120  # a few mutants still parse, most fail

    def test_random_expression_strings(self):
        rng = random.Random(27)
        decls = tuple(gcl.VarDecl(name, 0, 3) for name in self.DECLARED)
        outcomes = []
        for _ in range(1500):
            expr = rng.choice([gcl_random.random_bool_expr, gcl_random.random_int_expr])(
                rng, decls, rng.randint(1, 5))
            shown = show_expr(expr, rng)
            assert gcl.parse_expression(shown, self.DECLARED) == expr, shown
            pieces = " ".join(rng.choice(EXPRESSION_PIECES) for _ in range(rng.randint(0, 12)))
            for source in (shown, mutated(shown, rng), pieces):
                outcomes.append(self.agree(source, self.DECLARED)[0])
        assert 1000 < outcomes.count("ParseError") < 3000
        assert len({*outcomes} - {"ParseError"}) > 3  # trees of several classes

    @pytest.mark.parametrize("source, error", [
        ("x<y<z", "1:4: expected 'eof', found '<'"),
        ("x && y < z < 1", "1:12: expected 'eof', found '<'"),
        ("(x<y)<z", None),
        ("x + y < z < 1", "1:11: expected 'eof', found '<'"),
        ("!x < y < z", "1:8: expected 'eof', found '<'"),
        ("(x < y < z)", "1:8: expected ')', found '<'"),
        ("x == !y", "1:6: expected an expression, found '!'"),
        ("!!x == y && !(y < 1) || -x * -(y) > 1/2", None),
    ])
    def test_comparisons_do_not_chain(self, source, error):
        outcome = self.agree(source, ["x", "y", "z"])
        if error:
            assert outcome[:2] == ("ParseError", error)
        else:
            assert outcome[0] == "Bin"
        self.agree(f"vars x in 0..1, y in 0..1, z in 0..1; body: skip; post: {source};")

    @pytest.mark.parametrize("n", [99, 100, 101, 102])
    def test_nesting_at_the_bound(self, n):
        # n nested parentheses, n chained "!" and a sum of n terms, which
        # nests n - 1 levels deep; then shapes that mix them
        shapes = {"(" * n + "x" + ")" * n: n <= 100, "!" * n + "true": n <= 100,
                  "+".join(["x"] * n): n <= 101}
        for source in ["[" * n + "true" + "]" * n, "-" * n + "x", "!(" * n + "true" + ")" * n,
                       "x < " + "(" * n + "1" + ")" * n, " && ".join(["x < 1"] * n)]:
            shapes[source] = None
        for source, fits in shapes.items():
            outcome = self.agree(source, self.DECLARED)
            self.agree(f"vars x in 0..1; body: x := {source}; post: {source};")
            if fits is not None:
                assert (outcome[0] != "ParseError") == fits
                assert fits or "nesting deeper than 100 levels" in outcome[1]


class TestDenotation:
    def test_skip_is_unit(self):
        prog = gcl.parse("vars x in 0..1; body: skip;")
        arrow = gcl.denote(prog, "pow")
        for s in arrow.dom:
            assert arrow(s) == frozenset({s})

    def test_choose_collects_both_branches(self):
        prog = gcl.parse("vars x in 0..1; body: choose {x:=0} [] {x:=1};")
        arrow = gcl.denote(prog, "pow")
        for s in arrow.dom:
            assert arrow(s) == frozenset({(0,), (1,)})

    def test_prob_mixes_branches(self):
        prog = gcl.parse("vars x in 0..1; body: prob 1/3 {x:=0}{x:=1};")
        arrow = gcl.denote(prog, "dist")
        for s in arrow.dom:
            assert arrow(s)((0,)) == Fraction(1, 3)
            assert arrow(s)((1,)) == Fraction(2, 3)

    def test_abort_denotes_empty(self):
        prog = gcl.parse("vars x in 0..1; body: abort;")
        arrow = gcl.denote(prog, "pow")
        for s in arrow.dom:
            assert arrow(s) == frozenset()

    def test_mode_mismatch(self, capsys, tmp_path):
        prog = gcl.parse("vars x in 0..1; body: abort;")
        with pytest.raises(ModeMismatch):
            gcl.denote(prog, "dist")
        prog = gcl.parse("vars x in 0..1; body: prob 1/2 {skip}{skip};")
        with pytest.raises(ModeMismatch):
            gcl.denote(prog, "pow")
        prog = gcl.parse("vars x in 0..1; body: choose {skip} [] {skip};")
        with pytest.raises(ModeMismatch):
            gcl.denote(prog, "dist")
        for body, mode in (("abort", "dist"), ("choose {skip} [] {skip}", "dist"),
                           ("prob 1/2 {skip}{skip}", "pow")):
            f = tmp_path / "prog.gc"
            f.write_text(f"vars x in 0..1; body: {body};")
            assert cli_main(["run", str(f), "--mode", mode, "--init", "x=0"]) == 2
            message = f"error: {body.split()[0]} is not available in {mode} mode\n"
            assert capsys.readouterr() == ("", message)

    def test_modular_assignment(self):
        prog = gcl.parse("vars x in 0..2; body: x := x + 5;")
        arrow = gcl.denote(prog, "pow")
        assert arrow((0,)) == frozenset({(2,)})
        assert arrow((1,)) == frozenset({(0,)})

    def test_state_cap(self):
        prog = gcl.parse("vars x in 0..999; body: skip;")
        with pytest.raises(TooLarge):
            gcl.denote(prog, "pow")


class TestWeakestPreconditions:
    def test_wp_skip_is_post(self):
        prog = gcl.parse("vars x in 0..1; body: skip;")
        assert gcl.wp(prog, "x == 0", "demonic") == {(0,): True, (1,): False}

    def test_demonic_vs_angelic_choice(self):
        prog = gcl.parse("vars x in 0..1; body: choose {x:=0} [] {x:=1};")
        assert all(not v for v in gcl.wp(prog, "x == 0", "demonic").values())
        assert all(gcl.wp(prog, "x == 0", "angelic").values())

    def test_abort_quantifies_over_nothing(self):
        prog = gcl.parse("vars x in 0..1; body: abort;")
        assert all(gcl.wp(prog, "x == 0", "demonic").values())
        assert not any(gcl.wp(prog, "x == 0", "angelic").values())

    def test_expectation_of_prob(self):
        prog = gcl.parse("vars x in 0..1; body: prob 1/3 {x:=0}{x:=1};")
        table = gcl.wp(prog, "[x == 0]", "expectation")
        assert set(table.values()) == {Fraction(1, 3)}

    def test_expectation_post_must_fit_unit_interval(self):
        prog = gcl.parse("vars x in 0..3; body: skip;")
        with pytest.raises(RangeError):
            gcl.wp(prog, "x", "expectation")

    def test_assignment_substitutes(self):
        prog = gcl.parse("vars x in 0..3; body: x := x + 1;")
        table = gcl.wp(prog, "x == 2", "demonic")
        assert table == {(0,): False, (1,): True, (2,): False, (3,): False}


CORPUS_SEED = 77


def corpus(flavor, count=60):
    rng = random.Random(CORPUS_SEED)
    mode = gcl.mode_of_flavor(flavor)
    return [gcl_random.random_program(rng, mode) for _ in range(count)]


# sha256 of the denotation graphs and wp tables of PINNED_COUNT seeded
# programs per mode; a change to any arrow or table changes it
PINNED_SEED = 1703
PINNED_COUNT = 40
PINNED_DIGEST = "5ed25a5c28fba35533b47f9101192916400b25f404880e465c138e9cbf1e1092"


def _canonical(t):
    return sorted(t) if isinstance(t, frozenset) else t.weights


def test_denotations_and_tables_are_pinned():
    h = hashlib.sha256()
    for mode, flavors in (("pow", ("demonic", "angelic")), ("dist", ("expectation",))):
        rng = random.Random(PINNED_SEED)
        for i in range(PINNED_COUNT):
            prog = gcl_random.random_program(rng, mode)
            arrow = gcl.denote(prog, mode)
            h.update(repr([_canonical(t) for t in arrow.graph]).encode())
            space = gcl.StateSpace(prog.decls)
            for flavor in flavors:
                for post in gcl.default_posts(space, flavor, random.Random(i)):
                    table = gcl.wp(prog, post, flavor)
                    h.update(repr(sorted(table.items())).encode())
    assert h.hexdigest() == PINNED_DIGEST


class TestHealthinessInvariants:
    @pytest.mark.parametrize("flavor", gcl.FLAVORS)
    def test_roundtrip_random_corpus(self, flavor):
        for i, prog in enumerate(corpus(flavor)):
            chk = gcl.check_roundtrip(prog, flavor, seed=CORPUS_SEED + i)
            assert chk.ok, (flavor, i, chk.witness)

    def test_roundtrip_reports_a_perturbed_row(self, monkeypatch):
        # the denotation sends x=0 to x=2 instead of a 1/3 : 2/3 mix of x=1 and x=0
        prog = gcl.parse("vars x in 0..2; body: prob 1/3 {x := x + 1}{skip};")
        arrow_of = gcl._arrow

        def perturbed(program, tables):
            arrow = arrow_of(program, tables)
            row = DIST.unit(arrow.cod, (2,))
            return KleisliArrow(arrow.family, arrow.dom, arrow.cod, (row,) + arrow.graph[1:])

        monkeypatch.setattr(gcl, "_arrow", perturbed)
        at = [gcl.Iverson(gcl.Bin("==", gcl.Var("x"), gcl.Lit(v))) for v in (0, 1, 2)]
        posts = [gcl.Iverson(gcl.Lit(True)), *at, gcl.Bin("*", gcl.Lit(Fraction(1, 2)), at[2])]
        chk = gcl.check_roundtrip(prog, "expectation", posts=posts)
        assert (chk.posts, chk.mismatches) == (5, 4)
        assert chk.witness == (at[0], "x=0", Fraction(2, 3), Fraction(0))
        assert all(type(v) is Fraction for v in chk.witness[2:])

    # the images are x=0 -> {0, 1}, x=1 -> {1, 2}, x=2 -> {2, 0}; the perturbed
    # denotation drops (2,) from the image of x=1 (and of x=2), or adds (0,) to it
    POW_POSTS = ("true", "x == 2", "x <= 1", "false", "x >= 1", "x == 0", "x != 1")

    @pytest.mark.parametrize("flavor, change, mismatches, post, recursive", [
        ("demonic", "drop", 1, "x <= 1", False),
        ("angelic", "drop", 2, "x == 2", True),
        ("demonic", "add", 1, "x >= 1", True),
        ("angelic", "add", 1, "x == 0", False),
        # the witness post differs at x=1 and x=2 and names the first
        ("demonic", "drop twice", 2, "x <= 1", False),
        ("angelic", "drop twice", 3, "x == 2", True),
    ])
    def test_roundtrip_reports_a_perturbed_pow_row(self, monkeypatch, flavor, change,
                                                   mismatches, post, recursive):
        prog = gcl.parse("vars x in 0..2; body: choose {x := x + 1} [] {skip};")
        arrow_of = gcl._arrow

        def perturbed(program, tables):
            arrow = arrow_of(program, tables)
            graph = list(arrow.graph)
            if change == "add":
                graph[1] |= {(0,)}
            for k in {"drop": (1,), "drop twice": (1, 2)}.get(change, ()):
                graph[k] -= {(2,)}
            return KleisliArrow(arrow.family, arrow.dom, arrow.cod, tuple(graph))

        monkeypatch.setattr(gcl, "_arrow", perturbed)
        posts = [gcl.parse_expression(p, ["x"]) for p in self.POW_POSTS]
        chk = gcl.check_roundtrip(prog, flavor, posts=posts)
        assert (chk.posts, chk.mismatches) == (7, mismatches)
        assert chk.witness == (gcl.parse_expression(post, ["x"]), "x=1", recursive,
                               not recursive)
        assert all(type(v) is bool for v in chk.witness[2:])

    def test_demonic_preserves_meets_and_truth(self):
        for prog in corpus("demonic", 30):
            space = gcl.StateSpace(prog.decls)
            states = space.states()
            rng = random.Random(5)
            q1 = gcl_random.random_bool_expr(rng, prog.decls, 2)
            q2 = gcl_random.random_bool_expr(rng, prog.decls, 2)
            w1 = gcl.wp(prog, q1, "demonic")
            w2 = gcl.wp(prog, q2, "demonic")
            meet = gcl.wp(prog, gcl.Bin("&&", q1, q2), "demonic")
            assert meet == {s: w1[s] and w2[s] for s in states}
            assert all(gcl.wp(prog, gcl.Lit(True), "demonic").values())

    def test_angelic_preserves_joins_and_falsity(self):
        for prog in corpus("angelic", 30):
            space = gcl.StateSpace(prog.decls)
            states = space.states()
            rng = random.Random(6)
            q1 = gcl_random.random_bool_expr(rng, prog.decls, 2)
            q2 = gcl_random.random_bool_expr(rng, prog.decls, 2)
            w1 = gcl.wp(prog, q1, "angelic")
            w2 = gcl.wp(prog, q2, "angelic")
            join = gcl.wp(prog, gcl.Bin("||", q1, q2), "angelic")
            assert join == {s: w1[s] or w2[s] for s in states}
            assert not any(gcl.wp(prog, gcl.Lit(False), "angelic").values())

    def test_demonic_angelic_duality(self):
        for prog in corpus("demonic", 30):
            rng = random.Random(7)
            q = gcl_random.random_bool_expr(rng, prog.decls, 2)
            dem = gcl.wp(prog, q, "demonic")
            ang = gcl.wp(prog, gcl.Unary("!", q), "angelic")
            assert dem == {s: not v for s, v in ang.items()}

    def test_expectation_additive_and_homogeneous(self):
        for prog in corpus("expectation", 30):
            rng = random.Random(8)
            b1 = gcl_random.random_bool_expr(rng, prog.decls, 2)
            b2 = gcl_random.random_bool_expr(rng, prog.decls, 2)
            # [b1 && b2] and [b1 && !b2] never exceed 1 pointwise
            q1 = gcl.Iverson(gcl.Bin("&&", b1, b2))
            q2 = gcl.Iverson(gcl.Bin("&&", b1, gcl.Unary("!", b2)))
            w1 = gcl.wp(prog, q1, "expectation")
            w2 = gcl.wp(prog, q2, "expectation")
            both = gcl.wp(prog, gcl.Bin("+", q1, q2), "expectation")
            assert both == {s: w1[s] + w2[s] for s in w1}
            scaled = gcl.wp(prog, gcl.Bin("*", gcl.Lit(Fraction(1, 2)), q1),
                            "expectation")
            assert scaled == {s: Fraction(1, 2) * w1[s] for s in w1}

    def test_expectation_normalized_for_abort_free(self):
        for prog in corpus("expectation", 30):
            table = gcl.wp(prog, gcl.Lit(True), "expectation")
            assert set(table.values()) == {Fraction(1)}

    @pytest.mark.parametrize("flavor", gcl.FLAVORS)
    def test_monotone_in_the_post(self, flavor):
        for prog in corpus(flavor, 20):
            rng = random.Random(9)
            b1 = gcl_random.random_bool_expr(rng, prog.decls, 2)
            b2 = gcl_random.random_bool_expr(rng, prog.decls, 2)
            weaker = gcl.Bin("||", b1, b2)  # b1 implies weaker
            if flavor == "expectation":
                w1 = gcl.wp(prog, gcl.Iverson(b1), flavor)
                w2 = gcl.wp(prog, gcl.Iverson(weaker), flavor)
                assert all(w1[s] <= w2[s] for s in w1)
            else:
                w1 = gcl.wp(prog, b1, flavor)
                w2 = gcl.wp(prog, weaker, flavor)
                assert all(w2[s] or not w1[s] for s in w1)


class TestDemonicThroughSaturatedSets:
    def test_box_equals_smyth_reading_on_discrete_states(self):
        # observed: over a discrete state space the saturated-set transformer
        # produces the same tables as the subset one
        from finsem.monads import SMYTH
        from finsem.order import antichain
        from finsem.transformers import SMYTH_CORR
        from finsem.triangle import KleisliArrow

        rng = random.Random(10)
        checked = 0
        while checked < 8:
            prog = gcl_random.random_program(rng, "pow")
            space = gcl.StateSpace(prog.decls)
            if space.size() > 8:
                continue  # the saturated-set lattice is built in full below
            arrow = gcl.denote(prog, "pow")
            states = space.states()
            if any(not arrow(s) for s in states):
                continue  # aborting programs leave the saturated-set reading
            disc = antichain(states)
            smyth_arrow = KleisliArrow.from_dict(
                SMYTH, disc, disc, {s: arrow(s) for s in states}
            )
            q = gcl_random.random_bool_expr(rng, prog.decls, 2)
            post = frozenset(
                s for s in states if expr_oracle(q, state_env(space, s)) is True
            )
            m = SMYTH_CORR.forward(smyth_arrow, disc, disc)
            table = gcl.wp(prog, q, "demonic")
            assert m(post) == frozenset(s for s, v in table.items() if v)
            checked += 1


class TestRunAndStateSpace:
    def test_render_and_parse_state(self):
        prog = gcl.parse("vars x in 0..1, y in 0..2; body: skip;")
        space = gcl.StateSpace(prog.decls)
        s = space.parse_state("x=1, y=2")
        assert space.render(s) == "x=1,y=2"
        with pytest.raises(RangeError):
            space.parse_state("x=5, y=0")

    def test_parse_state_rejects_non_integer(self):
        space = gcl.StateSpace((gcl.VarDecl("x", 0, 1),))
        with pytest.raises(RangeError):
            space.parse_state("x=a")

    def test_bind_apply_runs_program(self):
        prog = gcl.parse("vars x in 0..1; body: prob 1/2 {x:=0}{x:=1};")
        arrow = gcl.denote(prog, "dist")
        start = DIST.unit(arrow.dom, (0,))
        out = bind_apply(arrow, start)
        assert out((1,)) == Fraction(1, 2)


class TestImage:
    """gcl.image, which finsem run applies, against the Kleisli arrow path."""

    @pytest.mark.parametrize("mode", gcl._MODES)
    def test_equals_bind_apply_of_the_denotation(self, mode):
        rng = random.Random(41)
        for _ in range(40):
            program = gcl_random.random_program(rng, mode)
            arrow = gcl.denote(program, mode)
            states = arrow.dom
            # a copy starts with an empty memo, so image builds its own rows
            apply = gcl.image(copy.copy(program), mode)
            for s in states:
                assert apply(s) == bind_apply(arrow, arrow.family.unit(states, s))
            if mode == "dist":
                first, last = states.elements[0], states.elements[-1]
                a, b = rng.sample(states.elements, 2)
                for pair, weights in (((first, last), (Fraction(1, 3), Fraction(2, 3))),
                                      ((a, b), (Fraction(1, 2), Fraction(1, 2)))):
                    start = DIST.weighting(states, tuple(zip(pair, weights)))
                    assert apply(start) == bind_apply(arrow, start)

    def test_arrow_holds_the_denoted_rows(self):
        # the states are tuples, so a row over atoms would differ from one over positions
        rng = random.Random(43)
        for _ in range(20):
            program = gcl_random.random_program(rng, "dist")
            tables = gcl._tables(program, "dist", gcl.DEFAULT_STATE_CAP)
            rows = gcl._denote(program.body, tables)
            arrow = gcl._arrow(program, tables)
            assert [t.kernel() for t in arrow.graph] == rows
            assert gcl._rows(arrow) == rows
            # image binds a start's row straight through the rows
            apply = gcl.image(program, "dist")
            for t in arrow.graph[:3]:
                assert apply(t).kernel() == bind_apply(arrow, t).kernel()

    def test_a_start_on_other_states_is_a_carrier_mismatch(self):
        apply = gcl.image(gcl.parse("vars x in 0..2; body: skip;"), "dist")
        fewer = FinSet([(1,), (2,)])
        with pytest.raises(CarrierMismatch, match="the program's states"):
            apply(DIST.unit(fewer, (2,)))
        assert apply(DIST.unit(FinSet([(0,), (1,), (2,)]), (2,))).kernel() == ((2,), (1,), 1)

    @pytest.mark.parametrize("source, mode, cap", [
        ("vars x in 0..7, y in 0..7; body: skip;", "pow", 63),
        ("vars x in 0..7, y in 0..7; body: skip;", "dist", 10),
        ("vars x in 0..1; body: choose {x:=0} [] {skip};", "dist", 512),
        ("vars x in 0..1; body: prob 1/2 {x:=0}{skip};", "pow", 512),
        ("vars x in 0..1; body: skip;", "both", 512),
        ("vars x in 0..1; body: if (x + 1) {skip} else {x:=0};", "pow", 512),
    ])
    def test_raises_what_denote_raises(self, source, mode, cap):
        with pytest.raises(FinsemError) as want:
            gcl.denote(gcl.parse(source), mode, state_cap=cap)
        with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
            gcl.image(gcl.parse(source), mode, state_cap=cap)


# each binary operator on the values of its operands
ORACLE_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                 "==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
                 ">": operator.gt, ">=": operator.ge,
                 "&&": lambda a, b: a and b, "||": lambda a, b: a or b}


def state_env(space, state):
    """A state of space as a dict from variable name to value."""
    return dict(zip(space.names, state))


def expr_oracle(expr, env):
    """The value of expr in env (variable name -> int) by the textbook rules, one
    state at a time, a number as a Fraction; independent of gcl's compiler."""
    if isinstance(expr, gcl.Lit):
        return expr.value if isinstance(expr.value, bool) else Fraction(expr.value)
    if isinstance(expr, gcl.Var):
        return Fraction(env[expr.name])
    if isinstance(expr, gcl.Unary):
        value = expr_oracle(expr.arg, env)
        return (not value) if expr.op == "!" else -value
    if isinstance(expr, gcl.Iverson):
        return Fraction(1) if expr_oracle(expr.cond, env) else Fraction(0)
    return ORACLE_BINARY[expr.op](expr_oracle(expr.left, env), expr_oracle(expr.right, env))


def column_values(column, kind):
    """The values of a compiled column, a rational one as Fractions."""
    if kind == gcl.RATIONAL:
        nums, den = column
        assert type(den) is int and den > 0
        return [Fraction(n, den) for n in nums]
    return list(column)


class TestTypes:
    @pytest.mark.parametrize("source, kind", [
        ("x + 1", gcl.INT),
        ("-x * 2", gcl.INT),
        ("x + 1/2", gcl.RATIONAL),
        ("[x == 0]", gcl.RATIONAL),
        ("1/2 * [x == 0] + [x != 0]", gcl.RATIONAL),
        ("x < 1/2", gcl.BOOL),
        ("true == (x == 0)", gcl.BOOL),
        ("!(x == 0) && true || false", gcl.BOOL),
    ])
    def test_well_typed_expressions(self, source, kind):
        expr = gcl.parse_expression(source, ["x"])
        fn, inferred = gcl.compile_expr(expr, ["x"])
        assert inferred == kind
        assert column_values(fn([[1]]), kind) == [expr_oracle(expr, {"x": 1})]

    # a parsed operator names its line and column
    @pytest.mark.parametrize("source, message", [
        ("x + true", "1:3: operator + takes numbers, got int and bool"),
        ("-(x == 0)", "1:1: operator - takes a number, got bool"),
        ("x == true", "1:3: operator == takes two numbers or two bools, got int and bool"),
        ("true < false", "1:6: operator < takes numbers, got bool and bool"),
        ("!x", "1:1: operator ! takes a bool, got int"),
        ("x == 0 && 1/2", "1:8: operator && takes bools, got bool and rational"),
        ("[x]", "1:1: Iverson bracket [ ] takes a bool, got int"),
    ])
    def test_mistyped_operand_is_rejected_before_evaluation(self, source, message):
        expr = gcl.parse_expression(source, ["x"])
        with pytest.raises(TypeMismatch) as err:
            gcl.compile_expr(expr, ["x"])
        assert str(err.value) == message

    def test_variables_are_read_by_position(self):
        expr = gcl.parse_expression("y - x", ["x", "y"])
        fn, _ = gcl.compile_expr(expr, ["y", "x"])
        assert fn([[10], [3]]) == [7]
        with pytest.raises(UndeclaredVariable):
            gcl.compile_expr(expr, ["x"])

    # each of these exited 0, or 2 with "expected a boolean, got ...", before
    # operands were typed; the error names the operator's line and column
    MISTYPED = [
        ("x := x + true", "1:30: operator + takes numbers, got int and bool"),
        ("if (x == true) { x := 1 }",
         "1:29: operator == takes two numbers or two bools, got int and bool"),
        ("if (x) { x := 1 }", "1:23: if condition takes a bool, got int"),
        ("x := -(x < 1)", "1:28: operator - takes a number, got bool"),
        ("x := 1/2", "1:25: assignment to x must be an integer"),
        ("x := true", "1:25: assignment to x must be an integer"),
        ("x := [x == 0]", "1:25: assignment to x must be an integer"),
        ("x := [x]", "1:28: Iverson bracket [ ] takes a bool, got int"),
        ("skip;\n  x := x\n    * (x < 1)", "3:5: operator * takes numbers, got int and bool"),
    ]

    @pytest.mark.parametrize("body, message", MISTYPED)
    @pytest.mark.parametrize("command", [["wp"], ["run", "--init", "x=0"]])
    def test_mistyped_program_exits_2(self, capsys, tmp_path, body, message, command):
        f = tmp_path / "typed.gc"
        f.write_text(f"vars x in 0..3; body: {body}; post: x == 0;")
        assert cli_main(command + [str(f)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_positions_take_no_part_in_equality_or_repr(self):
        parsed = gcl.parse("vars x in 0..3; body: if (!(x < 2)) { x := -x + [x == 1] };")
        built = gcl.If(
            gcl.Unary("!", gcl.Bin("<", gcl.Var("x"), gcl.Lit(2))),
            gcl.Assign("x", gcl.Bin("+", gcl.Unary("-", gcl.Var("x")), gcl.Iverson(
                gcl.Bin("==", gcl.Var("x"), gcl.Lit(1))))),
            gcl.Skip())
        assert parsed.body == built and hash(parsed.body) == hash(built)
        assert repr(parsed.body) == repr(built)
        assert (parsed.body.pos, parsed.body.then.pos) == ((1, 23), (1, 41))

    def test_hand_built_nodes_raise_without_a_position(self):
        with pytest.raises(TypeMismatch) as err:
            gcl.compile_expr(gcl.Bin("+", gcl.Var("x"), gcl.Lit(True)), ["x"])
        assert str(err.value) == "operator + takes numbers, got int and bool"
        assert err.value.pos is None

    def test_assignment_keeps_its_integer_message(self):
        for body in ("x := 1/2", "x := true", "x := [x == 0]"):
            prog = gcl.parse(f"vars x in 0..1; body: {body};")
            with pytest.raises(RangeError, match="assignment to x must be an integer"):
                gcl.denote(prog, "pow")

    def test_post_coercions_are_unchanged(self):
        prog = gcl.parse("vars x in 0..1; body: skip;")
        assert gcl.wp(prog, "true", "expectation") == {(0,): 1, (1,): 1}
        with pytest.raises(TypeMismatch, match="^1:1: demonic post takes a bool, got int$"):
            gcl.wp(prog, "x", "demonic")


class TestColumns:
    """compile_expr's columns against expr_oracle at every state."""

    SPACES = [(gcl.VarDecl("x", -2, 1), gcl.VarDecl("y", -1, 2)),
              (gcl.VarDecl("x", -1, 1), gcl.VarDecl("y", 0, 1), gcl.VarDecl("z", -3, -2))]

    def assert_matches_oracle(self, expr, decls):
        space = gcl.StateSpace(decls)
        states = space.states()
        columns = [list(c) for c in zip(*states)]
        fn, kind = gcl.compile_expr(expr, space.names)
        want = [expr_oracle(expr, state_env(space, s)) for s in states]
        assert column_values(fn(columns), kind) == want, expr
        return kind

    @staticmethod
    def random_rational_expr(rng, decls):
        """A rational expression that mixes ints, rationals and brackets."""
        scaled = gcl.Bin("*", gcl.Lit(Fraction(rng.randint(-3, 3), rng.randint(1, 6))),
                         gcl_random.random_int_expr(rng, decls, 1))
        bracket = gcl.Iverson(gcl_random.random_bool_expr(rng, decls, 1))
        return gcl.Bin(rng.choice("+-*"), scaled, rng.choice([bracket, gcl.Unary("-", bracket)]))

    def test_random_expressions_match_the_oracle(self):
        rng = random.Random(41)
        kinds = set()
        for decls in self.SPACES:
            for _ in range(60):
                kinds.add(self.assert_matches_oracle(gcl_random.random_int_expr(rng, decls, 3), decls))
                kinds.add(self.assert_matches_oracle(gcl_random.random_bool_expr(rng, decls, 2), decls))
                rational = self.random_rational_expr(rng, decls)
                kinds.add(self.assert_matches_oracle(rational, decls))
                # a comparison of rationals cross-multiplies
                cmp = gcl.Bin(rng.choice(["==", "!=", "<", "<=", ">", ">="]), rational,
                              rng.choice([gcl.Lit(Fraction(1, 2)), gcl.Var("x")]))
                kinds.add(self.assert_matches_oracle(cmp, decls))
        assert kinds == {gcl.INT, gcl.RATIONAL, gcl.BOOL}

    @pytest.mark.parametrize("source", [
        "1/3 + 1/6 == 1/2",
        "1/3 + 1/6",
        "x < 1/2",
        "-(1/2 * [x == 0])",
        "1 - 1/2 * [x == y]",
        "x == 2/2",
        "x * 1/2 == y",
        "1/2 * x != y - 1/3",
        "2/3 * [x < y] - 1/6 * [x != 0] + y",
        "x < 1/2 && x > -1/3 || [y == 0] == 1/3",
    ])
    def test_rational_cases_match_the_oracle(self, source):
        decls = self.SPACES[0]
        expr = gcl.parse_expression(source, [d.name for d in decls])
        self.assert_matches_oracle(expr, decls)

    def test_eval_expr_is_the_one_state_column(self):
        rng = random.Random(43)
        space = gcl.StateSpace(self.SPACES[1])
        for _ in range(20):
            expr = self.random_rational_expr(rng, space.decls)
            for s in space.states():
                env = state_env(space, s)
                assert gcl.eval_expr(expr, env) == expr_oracle(expr, env)


class TestCompiledOncePerCall:
    """Each statement expression is compiled once per program, each post once
    per call."""

    SOURCE = ("vars x in 0..3, y in 0..3; body: x := x + 1;"
              " if (x == 2) { y := y + x } else { y := 0 }; {last};")
    # four assignments and one if condition
    STATEMENT_EXPRESSIONS = 5

    @pytest.mark.parametrize("flavor, last", [
        ("demonic", "x := x * y"), ("angelic", "x := x * y"),
        ("expectation", "prob 1/3 { x := x * y } { skip }")])
    def test_one_compile_per_post_and_per_statement_expression(
            self, monkeypatch, flavor, last):
        source = self.SOURCE.replace("{last}", last)
        prog = gcl.parse(source)
        posts = gcl.default_posts(gcl.StateSpace(prog.decls), flavor, random.Random(3))
        calls = []
        compile_expr = gcl.compile_expr
        monkeypatch.setattr(gcl, "compile_expr",
                            lambda e, names: calls.append(e) or compile_expr(e, names))
        # the first call on a program compiles its statements, later ones only their posts
        for count, statements in ((1, self.STATEMENT_EXPRESSIONS), (2, 0), (len(posts), 0)):
            calls.clear()
            chk = gcl.check_roundtrip(prog, flavor, posts=posts[:count])
            assert chk.ok and chk.posts == count
            assert len(calls) == statements + count
        # a fresh parse of the same source shares nothing with the first
        calls.clear()
        chk = gcl.check_roundtrip(gcl.parse(source), flavor, posts=posts)
        assert chk.ok and len(calls) == self.STATEMENT_EXPRESSIONS + len(posts)

    def test_denote_wp_and_roundtrip_build_the_tables_and_arrow_once(self, monkeypatch):
        prog = gcl.parse(self.SOURCE.replace("{last}", "x := x * y"))
        built = {"_Tables": 0, "_arrow": 0}
        for name in built:
            original = getattr(gcl, name)

            def counted(*args, _original=original, _name=name):
                built[_name] += 1
                return _original(*args)
            monkeypatch.setattr(gcl, name, counted)
        arrow = gcl.denote(prog, "pow")
        gcl.wp(prog, "x == 1", "demonic")
        assert gcl.check_roundtrip(prog, "angelic", seed=1).ok
        assert gcl.denote(prog, "pow") is arrow
        assert built == {"_Tables": 1, "_arrow": 1}


class TestProgramMemo:
    """The tables and arrow a Program keeps change no result, no error and no
    record semantics; each is what a fresh program gives."""

    SOURCES = {
        "pow": "vars x in 0..3, y in 0..2; body: choose { x := x + y } [] { abort };"
               " if (x < 2) { y := x } else { skip }; post: x == 1;",
        "dist": "vars x in 0..3, y in 0..2; body: prob 1/3 { x := x + y } { y := 2 };"
                " if (x < 2) { y := x } else { skip }; post: [x == 1];",
        # the last assignment fails on its first traversal, every time
        "bad": "vars x in 0..3; body: x := x + 1; x := 1/2; post: x == 1;",
    }
    CALLS = {
        "denote pow": lambda p: gcl.denote(p, "pow"),
        "denote dist": lambda p: gcl.denote(p, "dist"),
        "wp demonic": lambda p: gcl.wp(p, p.post, "demonic"),
        "wp expectation": lambda p: gcl.wp(p, p.post, "expectation"),
        "roundtrip angelic": lambda p: gcl.check_roundtrip(p, "angelic", seed=5),
        "roundtrip expectation": lambda p: gcl.check_roundtrip(p, "expectation", seed=5),
        "denote pow, cap 8": lambda p: gcl.denote(p, "pow", state_cap=8),
        "wp angelic, cap 4": lambda p: gcl.wp(p, p.post, "angelic", state_cap=4),
        "denote, bad mode": lambda p: gcl.denote(p, "sets"),
    }

    @staticmethod
    def outcome(call, prog):
        try:
            result = call(prog)
        except Exception as err:  # the error, as the result to compare
            return type(err), str(err)
        return result.graph if isinstance(result, KleisliArrow) else result

    @pytest.mark.parametrize("source", SOURCES)
    def test_every_order_gives_what_a_fresh_program_gives(self, source):
        text = self.SOURCES[source]
        fresh = {name: self.outcome(call, gcl.parse(text)) for name, call in self.CALLS.items()}
        for order in itertools.permutations(self.CALLS, 3):
            prog = gcl.parse(text)
            for name in order:
                assert self.outcome(self.CALLS[name], prog) == fresh[name], (order, name)

    def test_a_smaller_cap_still_raises_too_large(self):
        prog = gcl.parse(self.SOURCES["pow"])
        gcl.denote(prog, "pow")
        assert gcl.check_roundtrip(prog, "demonic").ok
        for call in (lambda: gcl.denote(prog, "pow", state_cap=11),
                     lambda: gcl.wp(prog, "x == 1", "demonic", state_cap=11),
                     lambda: gcl.check_roundtrip(prog, "angelic", state_cap=11)):
            with pytest.raises(TooLarge, match="^12 states exceed the cap of 11$"):
                call()
        # ModeMismatch comes before TooLarge, as on a fresh program
        with pytest.raises(ModeMismatch):
            gcl.denote(prog, "dist", state_cap=11)

    def test_record_semantics_ignore_the_memo(self):
        source = self.SOURCES["pow"]
        used, fresh = gcl.parse(source), gcl.parse(source)
        gcl.denote(used, "pow")
        gcl.wp(used, used.post, "demonic")
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        assert len({used, fresh}) == 1
        for copied in (copy.copy(used), copy.deepcopy(used), pickle.loads(pickle.dumps(used))):
            assert copied == used and repr(copied) == repr(used)
            assert not hasattr(copied, "_memo")
        assert "_memo" not in gcl.Program._fields

    def test_no_module_level_cache(self):
        before = dict(vars(gcl))
        prog = gcl.parse(self.SOURCES["dist"])
        gcl.denote(prog, "dist")
        gcl.wp(prog, prog.post, "expectation")
        gcl.check_roundtrip(prog, "expectation", seed=2)
        after = vars(gcl)
        assert after.keys() == before.keys()
        assert all(after[k] is v for k, v in before.items())


class TestPostsAtTheBoundary:
    PROG = "vars x in 0..2; body: x := x + 1;"

    @pytest.mark.parametrize("post", [3, None, 1.5, ("x", "==", 1), gcl.Skip()])
    def test_wp_rejects_what_is_no_expression(self, post):
        with pytest.raises(TypeMismatch, match="^a post is an expression or its source text"):
            gcl.wp(gcl.parse(self.PROG), post, "demonic")

    @pytest.mark.parametrize("post", [3, None, gcl.Skip()])
    def test_roundtrip_rejects_what_is_no_expression(self, post):
        with pytest.raises(TypeMismatch, match="^a post is an expression or its source text"):
            gcl.check_roundtrip(gcl.parse(self.PROG), "demonic", posts=["x == 1", post])

    def test_roundtrip_parses_source_text_as_wp_does(self):
        prog = gcl.parse(self.PROG)
        chk = gcl.check_roundtrip(prog, "demonic", posts=["x == 1", "x <= 1"])
        assert (chk.ok, chk.posts) == (True, 2)
        assert gcl.wp(prog, "x == 1", "demonic") == gcl.wp(
            prog, gcl.parse_expression("x == 1", ["x"]), "demonic")
        with pytest.raises(UndeclaredVariable):
            gcl.check_roundtrip(prog, "demonic", posts=["y == 1"])
        with pytest.raises(TypeMismatch, match="^1:1: demonic post takes a bool, got int$"):
            gcl.check_roundtrip(prog, "demonic", posts=["x"])


def expectation_oracle(stmt, post, space, states):
    """The pre-expectation table of post, a dict of Fractions, by the textbook rules."""
    if isinstance(stmt, gcl.Skip):
        return post
    if isinstance(stmt, gcl.Assign):
        i = space.names.index(stmt.var)
        d = space.decls[i]
        moved = {s: d.lo + int(expr_oracle(stmt.expr, state_env(space, s)) - d.lo) % d.span
                 for s in states}
        return {s: post[s[:i] + (moved[s],) + s[i + 1:]] for s in states}
    if isinstance(stmt, gcl.Seq):
        inner = expectation_oracle(stmt.second, post, space, states)
        return expectation_oracle(stmt.first, inner, space, states)
    if isinstance(stmt, gcl.If):
        then, orelse = (expectation_oracle(sub, post, space, states)
                        for sub in (stmt.then, stmt.orelse))
        return {s: then[s] if expr_oracle(stmt.cond, state_env(space, s)) else orelse[s]
                for s in states}
    left, right = (expectation_oracle(sub, post, space, states)
                   for sub in (stmt.left, stmt.right))
    p = Fraction(stmt.chance)
    return {s: p * left[s] + (1 - p) * right[s] for s in states}


def post_table(post, flavor, space, states):
    """gcl's table of a post over the given states: a state mask for demonic and
    angelic, ``(nums, den)`` for expectation."""
    return gcl._post_table(post, flavor, space.names, gcl._columns(states))


def transformer_wp(arrow, table, flavor):
    """wp's table from the whole-program denotation, given post_table's table."""
    states, rows = arrow.dom.carrier.elements, gcl._rows(arrow)
    if flavor == "expectation":
        return {s: Fraction(n, d) for s, (n, d) in zip(states, gcl._expected(rows, table))}
    return dict(zip(states, gcl._flags(gcl._transposed(rows, table, flavor), len(states))))


class TestIntegerExpectations:
    # nested prob, with chances written unreduced, over a negative range
    NESTED = ("vars x in -1..2, y in 0..2; body: prob 2/6 { prob 3/9 { x := x + 1 } "
              "{ if (x < y) { y := y + x } else { prob 0/5 { skip } { x := 2 } } } } "
              "{ prob 4/4 { y := x * y } { skip } }; y := y + 1;")

    def programs(self):
        rng = random.Random(31)
        return [gcl.parse(self.NESTED)] + [gcl_random.random_program(rng, "dist") for _ in range(40)]

    def test_wp_equals_a_fraction_oracle(self):
        for i, prog in enumerate(self.programs()):
            space = gcl.StateSpace(prog.decls)
            states = space.states()
            for post in gcl.default_posts(space, "expectation", random.Random(i)):
                want = expectation_oracle(
                    prog.body, {s: Fraction(expr_oracle(post, state_env(space, s))) for s in states},
                    space, states)
                got = gcl.wp(prog, post, "expectation")
                assert list(got.items()) == list(want.items())
                assert all(type(v) is Fraction for v in got.values())

    def test_transformer_wp_equals_wp(self):
        for i, prog in enumerate(self.programs()[:10]):
            arrow = gcl.denote(prog, "dist")
            space = gcl.StateSpace(prog.decls)
            states = space.states()
            for post in gcl.default_posts(space, "expectation", random.Random(i)):
                table = post_table(post, "expectation", space, states)
                got = transformer_wp(arrow, table, "expectation")
                assert list(got.items()) == list(gcl.wp(prog, post, "expectation").items())
                assert all(type(v) is Fraction for v in got.values())

    def test_post_out_of_the_unit_interval_names_the_value(self):
        prog = gcl.parse("vars x in 0..3; body: skip;")
        for post, shown in (("x", "2"), ("[x == 1] * 3/2", "3/2"), ("0 - x", "-1")):
            with pytest.raises(RangeError, match=f"^post-expectation {shown} outside"):
                gcl.wp(prog, post, "expectation")
        # the first offending state in states order, not the extreme value
        prog = gcl.parse("vars x in 0..2; body: skip;")
        with pytest.raises(RangeError, match="^post-expectation 3/2 outside"):
            gcl.wp(prog, "[x == 1] * 3/2 - [x == 2]", "expectation")

    def test_out_of_the_unit_interval_exits_2_naming_the_first_value(self, capsys, tmp_path):
        f = tmp_path / "p.gc"
        f.write_text("vars x in 0..2; body: skip;")
        argv = ["wp", str(f), "--mode", "dist", "--flavor", "expectation",
                "--post=[x == 1] * 3/2 - [x == 2]"]
        assert cli_main(argv) == 2
        assert capsys.readouterr() == ("", "error: post-expectation 3/2 outside [0, 1]\n")

    def test_posts_build_no_fraction(self, monkeypatch):
        space = gcl.StateSpace(tuple(gcl.VarDecl(n, 0, 7) for n in ("x", "y", "z")))
        states = space.states()
        posts = [gcl.parse_expression(source, space.names)
                 for source in ("1/2 * [x <= 3]", "1/2 * [x == 1] + 1/3 * [y == 0]")]
        want = [[expr_oracle(post, state_env(space, s)) for s in states] for post in posts]
        made = []
        new = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__",
                            lambda cls, *args, **kw: made.append(args) or new(cls, *args, **kw))
        if hasattr(Fraction, "_from_coprime_ints"):  # where Python 3.12+ builds results
            coprime = Fraction._from_coprime_ints
            monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(
                lambda cls, n, d: made.append((n, d)) or coprime(n, d)))
        tables = [post_table(post, "expectation", space, states) for post in posts]
        assert len(states) == 512 and made == []
        monkeypatch.undo()
        assert [[Fraction(n, den) for n in nums] for nums, den in tables] == want


class TestStateMasks:
    # nested choose, abort and if over a negative range, and one state alone
    NESTED = ("vars x in -1..2, y in 0..2; body: choose { if (x < y) { abort } "
              "else { x := x + 1 } } [] { choose { y := x * y } [] { skip } }; "
              "if (x == y) { choose { x := 0 } [] { abort } }; y := y + 1;")
    SINGLE = "vars x in 3..3; body: choose { x := x + 1 } [] { if (x == 3) { abort } };"

    def programs(self):
        rng = random.Random(37)
        return ([gcl.parse(self.NESTED), gcl.parse(self.SINGLE)]
                + [gcl_random.random_program(rng, "pow") for _ in range(10)])

    @pytest.mark.parametrize("flavor", ["demonic", "angelic"])
    def test_transformer_wp_equals_wp(self, flavor):
        for i, prog in enumerate(self.programs()):
            arrow = gcl.denote(prog, "pow")
            space = gcl.StateSpace(prog.decls)
            states = space.states()
            for post in gcl.default_posts(space, flavor, random.Random(i)):
                table = post_table(post, flavor, space, states)
                got = transformer_wp(arrow, table, flavor)
                assert list(got.items()) == list(gcl.wp(prog, post, flavor).items())
                assert all(type(v) is bool for v in got.values())

    def test_one_state(self):
        prog = gcl.parse(self.SINGLE)
        assert gcl.denote(prog, "pow").graph == (frozenset({(3,)}),)
        aborts = gcl.parse("vars x in 3..3; body: abort;")
        for flavor in ("demonic", "angelic"):
            for post, holds in (("true", True), ("x != 3", False)):
                assert gcl.wp(prog, post, flavor) == {(3,): holds}
                assert gcl.wp(aborts, post, flavor) == {(3,): flavor == "demonic"}
            assert gcl.check_roundtrip(prog, flavor).ok


class TestCompositional:
    """The engine's ``;``, ``prob`` and ``choose`` agree with the Kleisli
    extension of the law-checked ``DIST`` and ``POWERSET``."""

    DECLS = (gcl.VarDecl("x", 0, 3), gcl.VarDecl("y", 0, 2))
    COIN = FinSet([0, 1])

    def pairs(self, mode, count=30):
        """Seeded random bodies a and b over DECLS, with their denotations."""
        rng = random.Random(41)
        for _ in range(count):
            a, b = (gcl_random.random_stmt(rng, self.DECLS, mode, rng.randint(1, 4)) for _ in "ab")
            yield a, b, self.denote(a, mode), self.denote(b, mode)

    def denote(self, body, mode):
        return gcl.denote(gcl.Program(self.DECLS, body), mode)

    @pytest.mark.parametrize("mode", ["pow", "dist"])
    def test_seq_is_kleisli_composition(self, mode):
        for a, b, left, right in self.pairs(mode):
            assert self.denote(gcl.Seq(a, b), mode) == kleisli_compose(right, left)

    def test_prob_extends_the_coin(self):
        for a, b, left, right in self.pairs("dist"):
            for p in range(5):
                chance = Fraction(p, 4)
                coin = DIST.weighting(self.COIN, ((0, chance), (1, 1 - chance)))
                mixed = self.denote(gcl.Prob(chance, a, b), "dist")
                for s in mixed.dom:
                    sides = (left(s), right(s))
                    want = DIST.extend(self.COIN, left.cod, sides, coin)
                    assert mixed(s) == want

    def test_choose_is_the_union_of_the_images(self):
        both = frozenset({0, 1})
        for a, b, left, right in self.pairs("pow"):
            chosen = self.denote(gcl.Choose(a, b), "pow")
            for s in chosen.dom:
                sides = (left(s), right(s))
                want = POWERSET.extend(self.COIN, left.cod, sides, both)
                assert chosen(s) == want == left(s) | right(s)


class TestStates:
    @pytest.mark.parametrize("decls", [
        ((0, 3),), ((-2, 1), (0, 2)), ((-1, 1), (-3, -2), (2, 4)), ((5, 5), (-1, 0), (0, 1))])
    def test_states_are_the_sorted_product(self, decls):
        space = gcl.StateSpace(tuple(gcl.VarDecl(f"v{i}", lo, hi)
                                     for i, (lo, hi) in enumerate(decls)))
        states = space.states()
        want = FinSet(itertools.product(*(range(lo, hi + 1) for lo, hi in decls)))
        assert states == want and states.elements == want.elements
        assert states.rank() == {s: i for i, s in enumerate(want.elements)}

    SPACE = gcl.StateSpace((gcl.VarDecl("x", 0, 1),))

    def test_names_are_built_once_and_are_no_field(self):
        decls = (gcl.VarDecl("y", 0, 1), gcl.VarDecl("x", 0, 2))
        space = gcl.StateSpace(decls)
        assert space.names == ("y", "x") and space.names is space.names
        assert gcl.StateSpace._fields == ("decls",)
        assert repr(space) == f"StateSpace(decls={decls!r})"
        for twin in (gcl.StateSpace(decls), copy.copy(space), copy.deepcopy(space),
                     pickle.loads(pickle.dumps(space))):
            assert twin == space and hash(twin) == hash(space)
            assert twin.names == ("y", "x")
        with pytest.raises(AttributeError):
            space.names = ("x",)

    def test_variable_given_twice_is_rejected(self):
        with pytest.raises(RangeError, match="state variable 'x' is given twice"):
            self.SPACE.parse_state("x=0,x=1")

    def test_undeclared_variable_is_rejected(self):
        with pytest.raises(UndeclaredVariable, match="state variable 'y' is not declared"):
            self.SPACE.parse_state("x=0,y=1")

    @pytest.mark.parametrize("start, message", [
        (["--init", "x=0,x=1"], "state variable 'x' is given twice"),
        (["--init", "x=0,y=1"], "state variable 'y' is not declared"),
        (["--init-dist", "{x=0,x=1: 1}"], "state variable 'x' is given twice"),
        (["--init-dist", "{x=0,y=1: 1}"], "state variable 'y' is not declared"),
    ])
    def test_run_exits_2_naming_the_variable(self, capsys, tmp_path, start, message):
        f = tmp_path / "one.gc"
        f.write_text("vars x in 0..1; body: prob 1/2 {x := 0}{x := 1};")
        assert cli_main(["run", str(f), "--mode", "dist"] + start) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
