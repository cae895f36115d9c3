import random
from fractions import Fraction

import pytest

from finsem import gcl
from finsem.errors import (
    ModeMismatch,
    ParseError,
    RangeError,
    TooLarge,
    UndeclaredVariable,
)
from finsem.monads import DIST
from finsem.triangle import bind_apply


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

    def test_mode_mismatch(self):
        prog = gcl.parse("vars x in 0..1; body: abort;")
        with pytest.raises(ModeMismatch):
            gcl.denote(prog, "dist")
        prog = gcl.parse("vars x in 0..1; body: prob 1/2 {skip}{skip};")
        with pytest.raises(ModeMismatch):
            gcl.denote(prog, "pow")
        prog = gcl.parse("vars x in 0..1; body: choose {skip} [] {skip};")
        with pytest.raises(ModeMismatch):
            gcl.denote(prog, "dist")

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
    return [gcl.random_program(rng, mode) for _ in range(count)]


class TestHealthinessInvariants:
    @pytest.mark.parametrize("flavor", gcl.FLAVORS)
    def test_roundtrip_random_corpus(self, flavor):
        for i, prog in enumerate(corpus(flavor)):
            chk = gcl.check_roundtrip(prog, flavor, seed=CORPUS_SEED + i)
            assert chk.ok, (flavor, i, chk.witness)

    def test_demonic_preserves_meets_and_truth(self):
        for prog in corpus("demonic", 30):
            space = gcl.StateSpace(prog.decls)
            states = space.states()
            rng = random.Random(5)
            q1 = gcl.random_bool_expr(rng, prog.decls, 2)
            q2 = gcl.random_bool_expr(rng, prog.decls, 2)
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
            q1 = gcl.random_bool_expr(rng, prog.decls, 2)
            q2 = gcl.random_bool_expr(rng, prog.decls, 2)
            w1 = gcl.wp(prog, q1, "angelic")
            w2 = gcl.wp(prog, q2, "angelic")
            join = gcl.wp(prog, gcl.Bin("||", q1, q2), "angelic")
            assert join == {s: w1[s] or w2[s] for s in states}
            assert not any(gcl.wp(prog, gcl.Lit(False), "angelic").values())

    def test_demonic_angelic_duality(self):
        for prog in corpus("demonic", 30):
            rng = random.Random(7)
            q = gcl.random_bool_expr(rng, prog.decls, 2)
            dem = gcl.wp(prog, q, "demonic")
            ang = gcl.wp(prog, gcl.Unary("!", q), "angelic")
            assert dem == {s: not v for s, v in ang.items()}

    def test_expectation_additive_and_homogeneous(self):
        for prog in corpus("expectation", 30):
            rng = random.Random(8)
            b1 = gcl.random_bool_expr(rng, prog.decls, 2)
            b2 = gcl.random_bool_expr(rng, prog.decls, 2)
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
            b1 = gcl.random_bool_expr(rng, prog.decls, 2)
            b2 = gcl.random_bool_expr(rng, prog.decls, 2)
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
        from finsem.order import discrete
        from finsem.transformers import smyth_pred
        from finsem.triangle import KleisliArrow

        rng = random.Random(10)
        checked = 0
        while checked < 8:
            prog = gcl.random_program(rng, "pow")
            space = gcl.StateSpace(prog.decls)
            if space.size() > 8:
                continue  # the saturated-set lattice is built in full below
            arrow = gcl.denote(prog, "pow")
            states = space.states()
            if any(not arrow(s) for s in states):
                continue  # aborting programs leave the saturated-set reading
            disc = discrete(states)
            smyth_arrow = KleisliArrow.from_dict(
                SMYTH, disc, disc, {s: arrow(s) for s in states}
            )
            q = gcl.random_bool_expr(rng, prog.decls, 2)
            post = frozenset(
                s for s in states if gcl.eval_expr(q, space.env(s)) is True
            )
            m = smyth_pred(smyth_arrow)
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
