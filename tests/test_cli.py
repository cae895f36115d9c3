import ast
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import finsem
from finsem.cli import cli_main


@pytest.fixture
def prog_file(tmp_path):
    f = tmp_path / "prog.gc"
    f.write_text("vars x in 0..1; body: prob 1/3 {x:=0}{x:=1}; post: [x == 0];")
    return str(f)


@pytest.fixture
def pow_prog(tmp_path):
    f = tmp_path / "choice.gc"
    f.write_text("vars x in 0..1; body: choose {x:=0} [] {x:=1}; post: x == 0;")
    return str(f)


def run(capsys, argv):
    code = cli_main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_under_two_hash_seeds(argv):
    """Run ``python -m finsem`` on argv under PYTHONHASHSEED=1 and =2, assert
    that both give the same exit code, stdout and stderr, and return them."""
    src = str(Path(finsem.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    results = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-m", "finsem", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        results.append((proc.returncode, proc.stdout, proc.stderr))
    assert results[0] == results[1]
    return results[0]


class TestWpCommand:
    def test_dist_mode_rational_table(self, capsys, prog_file):
        code, out, _ = run(capsys, ["wp", "--mode", "dist", prog_file,
                                    "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["wp"] == {"x=0": "1/3", "x=1": "1/3"}

    def test_pow_mode_default_demonic(self, capsys, pow_prog):
        code, out, _ = run(capsys, ["wp", pow_prog, "--format", "json"])
        assert code == 0
        assert json.loads(out)["wp"] == {"x=0": 0, "x=1": 0}

    def test_post_flag_overrides(self, capsys, pow_prog):
        code, out, _ = run(capsys, ["wp", pow_prog, "--flavor", "angelic",
                                    "--post", "x == 1", "--format", "json"])
        assert code == 0
        assert json.loads(out)["wp"] == {"x=0": 1, "x=1": 1}

    @pytest.mark.parametrize("flavor", ["demonic", "angelic"])
    @pytest.mark.parametrize("post, message", [
        ("1/2", "1:1: demonic post takes a bool, got rational"),
        ("x", "1:1: demonic post takes a bool, got int"),
        ("x + 1/2", "1:3: demonic post takes a bool, got rational"),
    ])
    def test_non_bool_post_is_a_type_error(self, capsys, pow_prog, flavor, post, message):
        code, out, err = run(capsys, ["wp", pow_prog, "--flavor", flavor, "--post", post])
        assert (code, out) == (2, "")
        assert err == f"error: {message.replace('demonic', flavor)}\n"

    @pytest.mark.parametrize("flavor", ["demonic", "angelic"])
    def test_literal_file_post_error_names_its_line_and_column(self, capsys, tmp_path,
                                                                 flavor):
        f = tmp_path / "literal.gc"
        f.write_text("vars x in 0..1;\nbody: skip;\npost: (3);\n")
        code, out, err = run(capsys, ["wp", str(f), "--flavor", flavor])
        assert (code, out) == (2, "")
        assert err == f"error: 3:8: {flavor} post takes a bool, got int\n"

    def test_flavor_mode_conflict_is_usage_error(self, capsys, prog_file):
        code, _, err = run(capsys, ["wp", "--mode", "dist", prog_file,
                                    "--flavor", "demonic"])
        assert code == 2 and "mode" in err


class TestRunCommand:
    def test_single_state(self, capsys, prog_file):
        code, out, _ = run(capsys, ["run", "--mode", "dist", prog_file,
                                    "--init", "x=0", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == {"(0)": "1/3", "(1)": "2/3"}

    def test_initial_distribution(self, capsys, prog_file):
        code, out, _ = run(capsys, ["run", "--mode", "dist", prog_file,
                                    "--init-dist", "{x=0: 1/2, x=1: 1/2}",
                                    "--format", "json"])
        assert code == 0

    def test_initial_distribution_over_states_written_as_init(self, capsys, tmp_path):
        f = tmp_path / "two.gc"
        f.write_text("vars x in 0..1, y in 0..1; body: prob 1/3 {x:=1-x}{y:=1-y};")
        code, out, err = run(capsys, ["run", "--mode", "dist", str(f), "--init-dist",
                                      "{x=0,y=1: 1/2, x=1,y=0: 1/2}"])
        assert (code, err) == (0, "")
        assert out == "state\tweight\nx=0,y=0\t1/2\nx=1,y=1\t1/2\n"

    @pytest.mark.parametrize("init", ["{x=0: 1/2, x=0: 1/2}", "{x=0: 1/4, x=1: 1/2, x=0: 1/4}"])
    def test_state_given_twice_is_a_usage_error(self, capsys, prog_file, init):
        code, out, err = run(capsys, ["run", "--mode", "dist", prog_file, "--init-dist", init])
        assert (code, out, err) == (
            2, "", "state x=0 given twice in the initial distribution\n")

    def test_entry_without_weight_is_a_usage_error(self, capsys, prog_file):
        code, out, err = run(capsys, ["run", "--mode", "dist", prog_file,
                                      "--init-dist", "{x=0: 1/2, x=1}"])
        assert (code, out, err) == (
            2, "", "entry 'x=1' of the initial distribution has no weight\n")

    def test_missing_init_is_usage_error(self, capsys, prog_file):
        code, _, err = run(capsys, ["run", prog_file])
        assert code == 2

    def test_init_and_init_dist_exclude_each_other(self, capsys, prog_file):
        code, out, err = run(capsys, ["run", "--mode", "dist", prog_file, "--init", "x=0",
                                      "--init-dist", "{x=1: 1}"])
        assert code == 2 and out == ""
        assert "argument --init-dist: not allowed with argument --init" in err

    def test_init_dist_in_pow_mode_is_a_mode_error(self, capsys, pow_prog):
        code, out, err = run(capsys, ["run", "--mode", "pow", pow_prog,
                                      "--init-dist", "{x=0: 1/2}"])
        assert (code, out, err) == (2, "", "an initial distribution needs --mode dist\n")


class TestLawsCommand:
    def test_single_monad_pass(self, capsys):
        code, out, _ = run(capsys, ["laws", "--monad", "ultrafilter",
                                    "--max-size", "3"])
        assert code == 0
        assert "PASS" in out

    def test_unknown_monad(self, capsys):
        code, _, err = run(capsys, ["laws", "--monad", "nonsense"])
        assert code == 2


LAWS_POWERSET_1_EFFECTS = """\
monad powerset: PASS (27 instances, seed 20240401)
effect algebra powerset(2):
  ok  ovee commutative
  ok  ovee associative (exhaustive)
  ok  zero is a unit
  ok  x ovee orth(x) = 1
  ok  orthosupplement unique on probe
  ok  x defined with 1 implies x = 0
effect algebra unit-interval(13 probes):
  ok  ovee commutative
  ok  ovee associative (exhaustive)
  ok  zero is a unit
  ok  x ovee orth(x) = 1
  ok  orthosupplement unique on probe
  ok  x defined with 1 implies x = 0
  ok  1 . x = x
  ok  (r+s) . x = r.x ovee s.x
  ok  r . (x ovee y) = r.x ovee r.y
"""


def test_laws_with_effects_golden(capsys):
    code, out, err = run(capsys, ["laws", "--monad", "powerset", "--max-size", "1",
                                  "--effects"])
    assert (code, out, err) == (0, LAWS_POWERSET_1_EFFECTS, "")


class TestEnumerateCommand:
    def test_poset_literal(self, capsys):
        code, out, _ = run(capsys, [
            "enumerate", "--monad", "hoare",
            "--object", "poset P { elems a b; covers a<b; }",
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["cardinality"] == 2

    def test_set_literal_neighbourhood(self, capsys):
        code, out, _ = run(capsys, [
            "enumerate", "--monad", "neighbourhood",
            "--object", "set X { elems 0 1; }",
            "--format", "json",
        ])
        assert code == 0
        assert json.loads(out)["cardinality"] == 16

    def test_over_cap_is_usage_error(self, capsys):
        code, _, err = run(capsys, [
            "enumerate", "--monad", "neighbourhood",
            "--object", "set X { elems 0 1 2 3 4; }",
        ])
        assert code == 2


class TestTransposeCommand:
    def test_box_forward_and_round_trip(self, capsys, tmp_path):
        payload = {
            "direction": "forward",
            "dom": ["x1", "x2"],
            "cod": ["y1", "y2"],
            "arrow": {"x1": ["y1"], "x2": ["y1", "y2"]},
        }
        f = tmp_path / "in.json"
        f.write_text(json.dumps(payload))
        code, out, _ = run(capsys, ["transpose", "--correspondence", "box",
                                    "--input", str(f)])
        assert code == 0
        result = json.loads(out)
        assert result["round_trip"] is True
        assert result["transformer"]["{y1}"] == ["x1"]

    def test_box_backward(self, capsys, tmp_path):
        payload = {
            "direction": "backward",
            "dom": ["x1", "x2"],
            "cod": ["y1", "y2"],
            "transformer": {
                "{}": [], "{y1}": ["x1"], "{y2}": [], "{y1,y2}": ["x1", "x2"],
            },
        }
        f = tmp_path / "in.json"
        f.write_text(json.dumps(payload))
        code, out, _ = run(capsys, ["transpose", "--correspondence", "box",
                                    "--input", str(f)])
        assert code == 0
        result = json.loads(out)
        assert result["arrow"] == {"x1": ["y1"], "x2": ["y1", "y2"]}

    def test_three_forward(self, capsys, tmp_path):
        payload = {
            "direction": "forward",
            "poset": {"elements": ["a", "b"], "covers": [["a", "b"]]},
            "map": {"a": 0, "b": 1},
        }
        f = tmp_path / "in.json"
        f.write_text(json.dumps(payload))
        code, out, _ = run(capsys, ["transpose", "--correspondence", "three",
                                    "--input", str(f)])
        assert code == 0
        result = json.loads(out)
        assert result["lens"] == {"outer": ["b"], "inner": []}

    def test_bad_transformer_is_verification_failure(self, capsys, tmp_path):
        payload = {
            "direction": "backward",
            "dom": ["x1"],
            "cod": ["y1"],
            # constant-empty is monotone but not meet(top)-preserving
            "transformer": {"{}": [], "{y1}": []},
        }
        f = tmp_path / "in.json"
        f.write_text(json.dumps(payload))
        code, _, err = run(capsys, ["transpose", "--correspondence", "box",
                                    "--input", str(f)])
        assert code == 1


CHAIN_AB = {"elements": ["a", "b"], "covers": [["a", "b"]]}
CHAIN_CD = {"elements": ["c", "d"], "covers": [["c", "d"]]}
SETS = {"dom": ["x1", "x2"], "cod": ["y1", "y2"]}
SET_TRANSFORMER = {"{}": [], "{y1}": ["x1"], "{y2}": [], "{y1,y2}": ["x1", "x2"]}
CHAIN_TRANSFORMER = {"{}": [], "{d}": ["b"], "{c,d}": ["a", "b"]}

# correspondence -> (forward payload, expected transformer); box has its own test
FORWARD_CASES = {
    "filter": (dict(SETS, arrow={"x1": [["y1"], ["y1", "y2"]], "x2": [["y1", "y2"]]}),
               SET_TRANSFORMER),
    "monotone-nbhd": (dict(SETS, arrow={"x1": [["y1"], ["y2"], ["y1", "y2"]], "x2": []}),
                      {"{}": [], "{y1}": ["x1"], "{y2}": ["x1"], "{y1,y2}": ["x1"]}),
    "diamond": ({"dom": CHAIN_AB, "cod": CHAIN_CD, "arrow": {"a": ["c"], "b": ["c", "d"]}},
                CHAIN_TRANSFORMER),
    "hoare": ({"dom": CHAIN_AB, "cod": CHAIN_CD, "arrow": {"a": ["c"], "b": ["c", "d"]}},
              CHAIN_TRANSFORMER),
    "smyth": ({"dom": CHAIN_AB, "cod": CHAIN_CD, "arrow": {"a": ["c", "d"], "b": ["d"]}},
              CHAIN_TRANSFORMER),
}


@pytest.mark.parametrize("corr", sorted(FORWARD_CASES))
def test_arrow_forward_round_trip(capsys, tmp_path, corr):
    payload, transformer = FORWARD_CASES[corr]
    f = tmp_path / "in.json"
    f.write_text(json.dumps(dict(payload, direction="forward")))
    code, out, _ = run(capsys, ["transpose", "--correspondence", corr, "--input", str(f)])
    assert code == 0
    result = json.loads(out)
    assert result == {"round_trip": True, "transformer": transformer}


# correspondence -> (backward payload, expected arrow): the inverses of FORWARD_CASES,
# box has its own test
BACKWARD_CASES = {
    "filter": (dict(SETS, transformer=SET_TRANSFORMER),
               {"x1": [["y1"], ["y1", "y2"]], "x2": [["y1", "y2"]]}),
    "monotone-nbhd": (dict(SETS, transformer={"{}": [], "{y1}": ["x1"], "{y2}": ["x1"],
                                              "{y1,y2}": ["x1"]}),
                      {"x1": [["y1"], ["y2"], ["y1", "y2"]], "x2": []}),
    "diamond": ({"dom": CHAIN_AB, "cod": CHAIN_CD, "transformer": CHAIN_TRANSFORMER},
                {"a": ["c"], "b": ["c", "d"]}),
    "hoare": ({"dom": CHAIN_AB, "cod": CHAIN_CD, "transformer": CHAIN_TRANSFORMER},
              {"a": ["c"], "b": ["c", "d"]}),
    "smyth": ({"dom": CHAIN_AB, "cod": CHAIN_CD, "transformer": CHAIN_TRANSFORMER},
              {"a": ["c", "d"], "b": ["d"]}),
}


@pytest.mark.parametrize("corr", sorted(BACKWARD_CASES))
def test_arrow_backward_round_trip(capsys, tmp_path, corr):
    payload, arrow = BACKWARD_CASES[corr]
    f = tmp_path / "in.json"
    f.write_text(json.dumps(dict(payload, direction="backward")))
    code, out, _ = run(capsys, ["transpose", "--correspondence", corr, "--input", str(f)])
    assert code == 0
    assert json.loads(out) == {"round_trip": True, "arrow": arrow}


# one transformer per half that breaks its correspondence's selector
SELECTOR_VIOLATIONS = pytest.mark.parametrize("corr, payload, message", [
    ("smyth", {"dom": CHAIN_AB, "cod": CHAIN_CD,  # sends the whole poset to nothing
               "transformer": {"{}": [], "{d}": [], "{c,d}": []}},
     "input transformer must be preframe+0"),
    ("diamond", {"dom": CHAIN_AB, "cod": CHAIN_CD,  # sends the empty open to all
                 "transformer": {"{}": ["a", "b"], "{d}": ["a", "b"], "{c,d}": ["a", "b"]}},
     "input transformer must be join-preserving"),
], ids=["meet", "join"])


@SELECTOR_VIOLATIONS
def test_selector_violating_transformer_fails(capsys, tmp_path, corr, payload, message):
    f = tmp_path / "in.json"
    f.write_text(json.dumps(dict(payload, direction="backward")))
    code, out, err = run(capsys, ["transpose", "--correspondence", corr, "--input", str(f)])
    assert (code, out, err) == (1, "", f"transpose failed: {message}\n")


@SELECTOR_VIOLATIONS
def test_selector_violation_is_hash_seed_independent(tmp_path, corr, payload, message):
    f = tmp_path / "in.json"
    f.write_text(json.dumps(dict(payload, direction="backward")))
    argv = ["transpose", "--correspondence", corr, "--input", str(f)]
    assert run_under_two_hash_seeds(argv) == (1, "", f"transpose failed: {message}\n")


def test_non_monotone_transformer_message_is_hash_seed_independent(tmp_path):
    # the empty predicate holds at x0 and x2, the full one nowhere
    f = tmp_path / "in.json"
    f.write_text(json.dumps({"dom": ["x0", "x1", "x2"], "cod": ["y"], "direction": "backward",
                             "transformer": {"{}": ["x0", "x2"], "{y}": []}}))
    argv = ["transpose", "--correspondence", "box", "--input", str(f)]
    assert run_under_two_hash_seeds(argv) == (
        2, "", "transpose payload: frozenset() <= frozenset({'y'}) but images "
               "frozenset({'x0', 'x2'}), frozenset() are not ordered\n")


def test_image_outside_the_family_message_is_hash_seed_independent(tmp_path):
    # {c, e} is not an upset of c < d, e, so it is no smyth element
    f = tmp_path / "in.json"
    f.write_text(json.dumps({"direction": "forward", "dom": {"elements": ["a"]},
                             "cod": {"elements": ["c", "d", "e"], "covers": [["c", "d"]]},
                             "arrow": {"a": ["c", "e"]}}))
    argv = ["transpose", "--correspondence", "smyth", "--input", str(f)]
    assert run_under_two_hash_seeds(argv) == (
        2, "", "transpose payload: image frozenset({'c', 'e'}) is not a smyth element\n")


def test_image_outside_the_predicates_message_is_hash_seed_independent(tmp_path):
    f = tmp_path / "in.json"
    f.write_text(json.dumps({"direction": "backward", "dom": ["x1", "x2"], "cod": ["y1"],
                             "transformer": {"{}": [], "{y1}": ["x1", "x9", "x2"]}}))
    argv = ["transpose", "--correspondence", "box", "--input", str(f)]
    assert run_under_two_hash_seeds(argv) == (
        2, "", "transpose payload: frozenset({'x1', 'x2', 'x9'}) is not an element of "
               "FinSet([frozenset(), frozenset({'x1'}), frozenset({'x2'}), "
               "frozenset({'x1', 'x2'})])\n")


# one payload per kind with an entry its transpose would never read
@pytest.mark.parametrize("corr, payload, message", [
    ("box", {"dom": ["x1"], "cod": ["y1"], "arrow": {"x1": ["y1"], "x9": ["y1"]}},
     "arrow has an entry for 'x9' outside the domain"),
    ("box", {"direction": "backward", "dom": ["x1"], "cod": ["y1"],
             "transformer": {"{}": [], "{y1}": ["x1"], "{y9}": []}},
     "transformer has an entry for '{y9}' outside the predicates on the codomain"),
    ("expectation", {"dom": [0], "cod": [0, 1], "arrow": {"0": {"0": "1"}, "7": {"1": "1"}},
                     "predicate": {"0": "1", "1": "0"}},
     "arrow has an entry for '7' outside the domain"),
    ("expectation", {"dom": [0], "cod": [0, 1], "arrow": {"0": {"0": "1"}},
                     "predicate": {"0": "1", "1": "0", "5": "1"}},
     "predicate has an entry for '5' outside the codomain"),
    ("three", {"poset": {"elements": ["a"]}, "map": {"a": 0, "zz": 1}},
     "map has an entry for 'zz' outside the poset"),
], ids=["box-arrow", "box-transformer", "expectation-arrow", "expectation-predicate",
        "three-map"])
def test_transpose_entry_outside_its_domain_is_bad_input(capsys, tmp_path, corr, payload,
                                                         message):
    f = tmp_path / "in.json"
    f.write_text(json.dumps(payload))
    argv = ["transpose", "--correspondence", corr, "--input", str(f)]
    assert run(capsys, argv) == (2, "", f"transpose payload: {message}\n")


# two keys of one payload object that decode to the same point
@pytest.mark.parametrize("corr, payload, message", [
    ("expectation", {"direction": "forward", "dom": [7], "cod": [0, 1],
                     "arrow": {"7": {"1": "1"}},
                     "predicate": {"0": "1", "1": "0", "01": "1/2"}},
     "predicate has two entries for 1"),
    ("box", {"direction": "backward", "dom": ["x1"], "cod": ["y1", "y2"],
             "transformer": {"{}": [], "{y1}": [], "{y2}": [], "{y1,y2}": ["x1"],
                             "{y2,y1}": []}},
     "transformer has two entries for frozenset({'y1', 'y2'})"),
], ids=["expectation-predicate", "box-transformer"])
def test_transpose_repeated_entry_is_bad_input(tmp_path, corr, payload, message):
    f = tmp_path / "in.json"
    f.write_text(json.dumps(payload))
    argv = ["transpose", "--correspondence", corr, "--input", str(f)]
    assert run_under_two_hash_seeds(argv) == (2, "", f"transpose payload: {message}\n")


def test_transformer_missing_a_predicate_message_is_hash_seed_independent(tmp_path):
    # the upsets of c < d are {}, {d} and {c, d}; the last has no entry
    chain = lambda a, b: {"elements": [a, b], "covers": [[a, b]]}  # noqa: E731
    f = tmp_path / "in.json"
    f.write_text(json.dumps({"direction": "backward", "dom": chain("a", "b"),
                             "cod": chain("c", "d"), "transformer": {"{}": [], "{d}": []}}))
    argv = ["transpose", "--correspondence", "smyth", "--input", str(f)]
    assert run_under_two_hash_seeds(argv) == (
        2, "", "transpose payload is missing frozenset({'c', 'd'})\n")


# a domain whose predicates are too many to tabulate is bad input in either
# direction, for every recipe, even when the arrow itself is well formed
@pytest.mark.parametrize("corr, image", [
    ("box", ["y"]), ("filter", [["y"]]), ("monotone-nbhd", [["y"]]),
    ("diamond", ["y"]), ("hoare", ["y"]), ("smyth", ["y"]),
])
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_domain_over_the_predicate_cap_is_bad_input(capsys, tmp_path, corr, image, direction):
    from finsem.transformers import REGISTRY

    points = [f"x{i}" for i in range(9)]
    base = REGISTRY[corr].family.base
    if base == "set":
        dom, cod = points, ["y"]
    else:
        dom, cod = {"elements": points}, {"elements": ["y"]}
    payload = {"direction": direction, "dom": dom, "cod": cod}
    if direction == "forward":
        payload["arrow"] = {x: image for x in points}
    else:
        payload["transformer"] = {"{}": [], "{y}": points}
    f = tmp_path / "in.json"
    f.write_text(json.dumps(payload))
    code, out, err = run(capsys, ["transpose", "--correspondence", corr, "--input", str(f)])
    assert (code, out, err) == (2, "", f"transpose payload: {base} has 9 elements; substrate cap is 8\n")


# codomains over the family's cap (filter 3, smyth 5): neither transpose enumerates T(cod)
@pytest.mark.parametrize("corr, cod, arrow, holds", [
    ("filter", ["a", "b", "c", "d"], [["a", "b", "c", "d"]], lambda v: v == "{a,b,c,d}"),
    ("smyth", {"elements": list("abcdef")}, ["a"], lambda v: "a" in v),
], ids=["filter", "smyth"])
def test_codomain_over_the_family_cap_transposes(capsys, tmp_path, corr, cod, arrow, holds):
    dom = {"elements": ["x"]} if isinstance(cod, dict) else ["x"]
    f = tmp_path / "in.json"
    f.write_text(json.dumps({"dom": dom, "cod": cod, "arrow": {"x": arrow}}))
    code, out, err = run(capsys, ["transpose", "--correspondence", corr, "--input", str(f)])
    assert (code, err) == (0, "")
    result = json.loads(out)
    assert result["round_trip"] is True
    assert all(image == (["x"] if holds(v) else []) for v, image in result["transformer"].items())
    f.write_text(json.dumps({"dom": dom, "cod": cod, "direction": "backward",
                             "transformer": result["transformer"]}))
    code, out, err = run(capsys, ["transpose", "--correspondence", corr, "--input", str(f)])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"round_trip": True, "arrow": {"x": arrow}}


# the payloads of the failure tests above and below, as (correspondence, payload);
# a str payload is sent as it stands
TRANSPOSE_ERRORS = [
    ("box", {"direction": "backward", "dom": ["x1"], "cod": ["y1"],
             "transformer": {"{}": [], "{y1}": []}}),
    *((corr, dict(payload, direction="backward"))
      for corr, payload, _ in SELECTOR_VIOLATIONS.args[1]),
    ("box", {"dom": ["x0", "x1", "x2"], "cod": ["y"], "direction": "backward",
             "transformer": {"{}": ["x0", "x2"], "{y}": []}}),
    ("smyth", {"direction": "forward", "dom": {"elements": ["a"]},
               "cod": {"elements": ["c", "d", "e"], "covers": [["c", "d"]]},
               "arrow": {"a": ["c", "e"]}}),
    ("box", {"direction": "backward", "dom": ["x1", "x2"], "cod": ["y1"],
             "transformer": {"{}": [], "{y1}": ["x1", "x9", "x2"]}}),
    ("box", {"dom": ["x1"], "cod": ["y1"], "arrow": {"x1": ["y1"], "x9": ["y1"]}}),
    ("box", {"direction": "backward", "dom": ["x1"], "cod": ["y1"],
             "transformer": {"{}": [], "{y1}": ["x1"], "{y9}": []}}),
    ("expectation", {"dom": [0], "cod": [0, 1], "arrow": {"0": {"0": "1"}, "7": {"1": "1"}},
                     "predicate": {"0": "1", "1": "0"}}),
    ("expectation", {"dom": [0], "cod": [0, 1], "arrow": {"0": {"0": "1"}},
                     "predicate": {"0": "1", "1": "0", "5": "1"}}),
    ("three", {"poset": {"elements": ["a"]}, "map": {"a": 0, "zz": 1}}),
    ("expectation", {"direction": "forward", "dom": [7], "cod": [0, 1],
                     "arrow": {"7": {"1": "1"}},
                     "predicate": {"0": "1", "1": "0", "01": "1/2"}}),
    ("box", {"direction": "backward", "dom": ["x1"], "cod": ["y1", "y2"],
             "transformer": {"{}": [], "{y1}": [], "{y2}": [], "{y1,y2}": ["x1"],
                             "{y2,y1}": []}}),
    ("box", {"direction": "forward", "cod": ["y1"], "arrow": {}}),
    ("box", "not json"),
    ("plotkin-hom", {}),
    ("three", {"direction": "forward", "map": {"a": 0, "b": 1},
               "poset": {"elements": ["a", "b"], "covers": [["a", "b"], ["b", "b"]]}}),
    ("box", {"dom": ["x"], "cod": ["y"], "arrow": ["y"]}),
    ("box", {"dom": ["x"], "cod": ["y"], "arrow": {"x": ["z"]}}),
    *((corr, {"direction": direction, "dom": [0], "cod": [0], "arrow": {"0": {"0": "1"}},
              "predicate": {"0": "1"}})
      for corr, direction in [("box", "sideways"), ("three", "sideways"),
                              ("expectation", "backward"), ("expectation", "sideways")]),
]


def transpose_corpus():
    """(correspondence, payload text) for every transpose the pin replays.

    Forward of every enumerated arrow and backward of every monotone map
    between the predicate lattices (selector maps and the rest) for the six
    recipes on sets and posets of 1-2 points; three forward and backward on
    every monotone map and lens pair of the posets of 1-3 points; expectation
    forward on seeded arrows; then the payloads of the tests in this file.
    """
    import random
    from fractions import Fraction
    from itertools import product

    from finsem.effects import random_distribution
    from finsem.jsonio import atom_token, element_to_json, poset_to_json
    from finsem.kernel import format_rat
    from finsem.monads import all_lens_pairs
    from finsem.order import FinSet, all_posets, enumerate_structure_maps
    from finsem.transformers import REGISTRY, THREE, predicate_lattice

    def graph(fn, points):
        return {atom_token(p): element_to_json(fn(p)) for p in points}

    sets = [FinSet(range(n)) for n in (1, 2)]
    posets = [p for p in all_posets(3) if p.elements]
    cases = []
    for corr in REGISTRY.values():
        family = corr.family
        if family is None or corr.id == "expectation":
            continue
        if family.base == "set":
            objects, encode = sets, lambda o: list(o.elements)
        else:
            objects, encode = [p for p in posets if len(p) <= 2], poset_to_json
        for x, y in product(objects, repeat=2):
            head = {"dom": encode(x), "cod": encode(y)}
            for arrow in corr.iter_computations(x, y, 10_000):
                cases.append((corr.id, dict(head, arrow=graph(arrow, x.carrier.elements))))
            for m in enumerate_structure_maps(predicate_lattice(family, y),
                                              predicate_lattice(family, x), "monotone"):
                cases.append((corr.id, dict(head, direction="backward",
                                            transformer=graph(m, m.dom.elements))))
    for p in posets:
        for m in enumerate_structure_maps(p, THREE, "monotone"):
            cases.append(("three", {"poset": poset_to_json(p), "map": graph(m, p.elements)}))
        for lens in all_lens_pairs(p):
            cases.append(("three", dict(element_to_json(lens), direction="backward",
                                        poset=poset_to_json(p))))
    rng = random.Random(13)
    for n, k in product((1, 2), (1, 2, 3)):
        dom, cod = FinSet(range(n)), FinSet(range(k))
        rows = {x: random_distribution(cod, rng, 4) for x in dom}
        cases.append(("expectation", {
            "dom": list(dom.elements), "cod": list(cod.elements),
            "arrow": graph(rows.__getitem__, dom.elements),
            "predicate": {atom_token(y): format_rat(Fraction(rng.randint(0, 4), 4)) for y in cod}}))
    cases += [(corr, dict(payload, direction="forward"))
              for corr, (payload, _) in sorted(FORWARD_CASES.items())]
    cases += [(corr, dict(payload, direction="backward"))
              for corr, (payload, _) in sorted(BACKWARD_CASES.items())]
    cases += TRANSPOSE_ERRORS
    return [(corr, p if isinstance(p, str) else json.dumps(p)) for corr, p in cases]


def replay(runs):
    """SHA-256 over (exit code, stdout, stderr) of cli_main on each (argv,
    stdin text) of runs in turn, run in this process.

    The argument parser, most of the cost of a short cli_main call, is built
    once and handed to every call.
    """
    import contextlib
    import io
    from unittest import mock

    from finsem.cli import build_parser

    parser = build_parser()
    digest = hashlib.sha256()
    with mock.patch("finsem.cli.build_parser", lambda: parser):
        for argv, text in runs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    mock.patch("sys.stdin", io.StringIO(text)):
                code = cli_main(argv)
            digest.update(json.dumps([code, out.getvalue(), err.getvalue()]).encode())
    return digest.hexdigest()


def replay_transposes(corpus):
    """replay of ``finsem transpose`` on each (correspondence, payload text) of corpus."""
    return replay((["transpose", "--correspondence", corr, "--input", "-"], text)
                  for corr, text in corpus)


# replay_transposes(transpose_corpus()), recorded before the transposes were
# rebuilt on transformers.transpose and one runner in cli
TRANSPOSE_DIGEST = "4246028d89f7d343f1e500525bab550cc1fc71c90b0882b6cbd56e77926caab6"


@pytest.fixture(scope="module")
def corpus():
    return transpose_corpus()


def test_transpose_output_is_pinned(corpus):
    assert len(corpus) == 953
    assert replay_transposes(corpus) == TRANSPOSE_DIGEST


def test_transpose_output_is_hash_seed_independent(corpus, tmp_path):
    # one batched process per seed, both at once
    f = tmp_path / "corpus.json"
    f.write_text(json.dumps(corpus))
    src = str(Path(finsem.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
              "from test_cli import replay_transposes; "
              "print(replay_transposes(json.load(open(sys.argv[2]))))")
    procs = [subprocess.Popen(
        [sys.executable, "-c", script, str(Path(__file__).parent), str(f)],
        env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) for seed in ("1", "2")]
    results = [(proc.communicate(timeout=120), proc.returncode) for proc in procs]
    assert results == [((TRANSPOSE_DIGEST + "\n", ""), 0)] * 2


def gcl_source(node):
    """GCL source text of a program, statement or expression, fully bracketed."""
    from finsem import gcl

    if isinstance(node, gcl.Program):
        decls = ", ".join(f"{d.name} in {d.lo}..{d.hi}" for d in node.decls)
        return f"vars {decls}; body: {gcl_source(node.body)};"
    if isinstance(node, (gcl.Skip, gcl.Abort)):
        return type(node).__name__.lower()
    if isinstance(node, gcl.Assign):
        return f"{node.var} := {gcl_source(node.expr)}"
    if isinstance(node, gcl.Seq):
        return f"{gcl_source(node.first)}; {gcl_source(node.second)}"
    if isinstance(node, gcl.If):
        return (f"if ({gcl_source(node.cond)}) {{ {gcl_source(node.then)} }} "
                f"else {{ {gcl_source(node.orelse)} }}")
    if isinstance(node, gcl.Choose):
        return f"choose {{ {gcl_source(node.left)} }} [] {{ {gcl_source(node.right)} }}"
    if isinstance(node, gcl.Prob):
        chance = f"{node.chance.numerator}/{node.chance.denominator}"
        return f"prob {chance} {{ {gcl_source(node.left)} }} {{ {gcl_source(node.right)} }}"
    if isinstance(node, gcl.Lit):
        if isinstance(node.value, bool):
            return "true" if node.value else "false"
        if isinstance(node.value, Fraction):
            return f"{node.value.numerator}/{node.value.denominator}"
        return str(node.value)
    if isinstance(node, gcl.Var):
        return node.name
    if isinstance(node, gcl.Unary):
        return f"{node.op}({gcl_source(node.arg)})"
    if isinstance(node, gcl.Iverson):
        return f"[{gcl_source(node.cond)}]"
    return f"({gcl_source(node.left)} {node.op} {gcl_source(node.right)})"


ENGINE_SEED = 2024
ENGINE_PROGRAMS = 12


def engine_runs(workdir):
    """(argv, stdin) of ``finsem wp`` and ``finsem run`` on seeded programs.

    ENGINE_PROGRAMS ``gcl_random.random_program`` programs per mode, written to
    workdir: wp of every flavor of the mode under each of its default posts,
    once without --flavor and once without a post; run from the lowest state
    and, in dist mode, from an initial distribution over two states; every
    call in table and in json format.
    """
    from finsem import gcl, gcl_random

    rng = random.Random(ENGINE_SEED)
    runs = []
    for mode, flavors in (("pow", ("demonic", "angelic")), ("dist", ("expectation",))):
        for i in range(ENGINE_PROGRAMS):
            program = gcl_random.random_program(rng, mode)
            path = workdir / f"{mode}-{i}.gc"
            path.write_text(gcl_source(program))
            space = gcl.StateSpace(program.decls)
            (x, x_lo, x_hi), (y, y_lo, y_hi) = ((d.name, d.lo, d.hi) for d in space.decls)
            starts = [["--init", f"{x}={x_lo},{y}={y_lo}"]]
            if mode == "dist":
                starts.append(["--init-dist", f"{{{x}={x_lo},{y}={y_hi}: 2/6, "
                                              f"{x}={x_hi} {y}={y_lo}: 2/3}}"])
            for fmt in ("table", "json"):
                head = ["wp", str(path), "--mode", mode, "--format", fmt]
                for flavor in flavors:
                    for post in gcl.default_posts(space, flavor, random.Random(i)):
                        runs.append(head + ["--flavor", flavor, "--post", gcl_source(post)])
                runs.append(head + ["--post", gcl_source(gcl.default_posts(space, flavors[0])[2])])
                runs.append(head)
                runs += [["run", str(path), "--mode", mode, "--format", fmt] + start
                         for start in starts]
    return [(argv, "") for argv in runs]


# replay(engine_runs(...)), recorded before the expectation engine moved to
# integer vectors
ENGINE_DIGEST = "ffd9fc07c7986a861c66851643953c7d371abd2fcf225b6c531ba9fb71aed96d"


def test_wp_and_run_output_is_pinned(tmp_path):
    runs = engine_runs(tmp_path)
    assert len(runs) == 816
    assert replay(runs) == ENGINE_DIGEST


def test_wp_and_run_output_is_hash_seed_independent(tmp_path):
    # one batched process per seed, both at once, each writing its own programs
    src = str(Path(finsem.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = ("import pathlib, sys; sys.path.insert(0, sys.argv[1]); "
              "from test_cli import engine_runs, replay; "
              "print(replay(engine_runs(pathlib.Path(sys.argv[2]))))")
    procs = []
    for seed in ("1", "2"):
        workdir = tmp_path / seed
        workdir.mkdir()
        procs.append(subprocess.Popen(
            [sys.executable, "-c", script, str(Path(__file__).parent), str(workdir)],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    results = [(proc.communicate(timeout=120), proc.returncode) for proc in procs]
    assert results == [((ENGINE_DIGEST + "\n", ""), 0)] * 2


# (correspondence, --sizes) -> SHA-256 of the certify JSON on stdout
CERTIFY_DIGESTS = {
    ("box", "1"): "129300b493432c1512c17b0f93ed34e1692384ce3593d77cf1a33eff9468c237",
    ("diamond", "1"): "af17914621c36336e7587d93417eb0a06a244869d7d927303813f6ccae861bd5",
    ("expectation", "1"): "8084b9cb63c134d52c4af15427b3bad0f01eb93ccf1b6102af58c5a43196fd57",
    ("filter", "1"): "8e05c091045478d3074da5050db98590f269246457b147f73c745fbcf71b5138",
    ("hoare", "1"): "e34d01903c654e553c164c385b5291a13944ef11f544cd6aaf9627669377cc1a",
    ("monotone-nbhd", "1"): "54920937d9cf12c8191b05e8805ebf3e9d0a7f0f76acf87b4fdf238254173585",
    ("plotkin-hom", "1"): "7b947f564cd8f5d72edfed41ccf076b07ef69fb00d81166f1a86c537152d58d9",
    ("smyth", "1"): "60182adc87c9ed382abca52f1a680abf7a507c383cb8410378a341e21618d0b9",
    ("three", "1"): "8696d684fa036f490f6bdebe22262c86537a6e1199b1d4597d682e9b64a1f297",
    ("box", "2"): "8fbfccaec1bdb5437865311c62f44882f9349561fc26954a01ee11065307c5b7",
    ("diamond", "2"): "ce5377b7e720adff0aa578db253d381869c981e969ce0dfc28f7e56b00ee7169",
    ("expectation", "2"): "8084b9cb63c134d52c4af15427b3bad0f01eb93ccf1b6102af58c5a43196fd57",
    ("filter", "2"): "c3aec271caaca5eb24fa884a2682b873d053e1cd563d48baa51198dfa281ef55",
    ("hoare", "2"): "bc02a2a1684a8919fbcf2c7067a27cfc66117f2cf3ff2facc6a3eef24495f559",
    ("monotone-nbhd", "2"): "436eb10d4444c4256482e4db4f3a5c5624eea4dbd1e64450bbab2946f4ddda30",
    ("plotkin-hom", "2"): "7fc17afee7f79b9c787a5461611d24261f7dd8584635e82a6d5d964b9e78206d",
    ("smyth", "2"): "a64771c50d16e488ed9fe476cff7b2152de332d682b0489eee805bcaae94f938",
    ("three", "2"): "7cdb56e97fabc9ea0d0691b19309ec53c5491c16b01d16d70d6582a4a698dbf8",
    ("box", "1,2"): "5e35319916b4c243d9450d57b5cf0e98f72bfdc63837d200b3395501266a2f9d",
    ("diamond", "1,2"): "48fc0382362d781046ce88acd8cfb505c0b256ed370b5ab335504b2d6a3a1b99",
    ("expectation", "1,2"): "8084b9cb63c134d52c4af15427b3bad0f01eb93ccf1b6102af58c5a43196fd57",
    ("filter", "1,2"): "e973a3332c4b188d91d3e352bc293bdb9e1e77f04b60341e4506e1ba2feb5a47",
    ("hoare", "1,2"): "b17fe28ae3e94d7d4d783bd65516db58d48eb0d42feba09be7cb1e2fef5e6d7e",
    ("monotone-nbhd", "1,2"): "4ba04d22c11df3b9d8ab35f41084761aac53cf1681ee293437464d8fb396b4c7",
    ("plotkin-hom", "1,2"): "1b9b10c16f69f828d655c825b8806507e7786368db599cd7419f768b242beb68",
    ("smyth", "1,2"): "7cfa6fbad2b34e088db81a935f15e7f90c7fb01173d478ed3157f391f5183b57",
    ("three", "1,2"): "8696d684fa036f490f6bdebe22262c86537a6e1199b1d4597d682e9b64a1f297",
}


@pytest.mark.parametrize("corr, sizes", sorted(CERTIFY_DIGESTS), ids="-".join)
def test_certify_output_is_pinned(capsys, corr, sizes):
    code, out, _ = run(capsys, ["certify", "--correspondence", corr, "--sizes", sizes])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CERTIFY_DIGESTS[corr, sizes]


def output_digest(capsys, argv):
    """SHA-256 over the exit code, stdout and stderr of cli_main on argv."""
    code, out, err = run(capsys, argv)
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()


# monad -> output_digest of `laws --monad M --max-size 2`, recorded before the
# handlers left cli
LAWS_DIGESTS = {
    "dist": "2aa831806886cd0e05429f62603aebf134486bbfe9e51786bd66053bd95b69e7",
    "downset": "2bb296f9574033171a8664daf22da315a32867159404d0c67a878fd2a47dda2d",
    "filter": "deba04f0657cfd10002d8f806e248989a6bef8419734b83754315c30009aa49a",
    "giry": "4118c8914ddbd5cd281d7f94d8a4bd6bbbfb8ec93828567f63a519baead54455",
    "hoare": "bb5964ad55df2c0021fb29c82e7a7367acbb3f7b45cc4867b044de6fee50d46f",
    "monotone-neighbourhood": "6666ad29c60709c8f82867c91c87ef2290687429b931aa90a19f7a6f2a350355",
    "neighbourhood": "7416c57fc7a3107af35a85a086057387a2b1e1427697d7b5730cc86dddea7563",
    "plotkin": "eb020b5e5bf5f92384699e7b41ecd0e11dfd7e3943b62b80ed8200901e9d5d4e",
    "powerset": "3f50f8ba86e6e5dfaf076a8449438dcb361803551f0ba179a98cba2646c240bf",
    "smyth": "2e36b69df55c312996064cfda8be4b10c67098ba4a7b08b98043bd5c08b39e2e",
    "ultrafilter": "1caef7cfb3fe9fafe3962c45e1d67047b5f8ae10acc6e07ed7dfd0aca505b99c",
}


@pytest.mark.parametrize("monad", sorted(LAWS_DIGESTS))
def test_laws_output_is_pinned(capsys, monad):
    argv = ["laws", "--monad", monad, "--max-size", "2"]
    assert output_digest(capsys, argv) == LAWS_DIGESTS[monad]


ENUMERATE_OBJECTS = {"set": "set S { elems a b; }",
                     "poset": "poset P { elems a b c; covers a<b; }"}
# (monad, object, format) -> output_digest of `enumerate`, recorded before the
# handlers left cli; dist and giry have no finite structure space and exit 2
ENUMERATE_DIGESTS = {
    ("dist", "set", "table"):
        "a8ededb473a5cd3d9c3585ed725a2537ee59bee989674593e688a92a1550fb0c",
    ("dist", "set", "json"):
        "a8ededb473a5cd3d9c3585ed725a2537ee59bee989674593e688a92a1550fb0c",
    ("dist", "poset", "table"):
        "a8ededb473a5cd3d9c3585ed725a2537ee59bee989674593e688a92a1550fb0c",
    ("dist", "poset", "json"):
        "a8ededb473a5cd3d9c3585ed725a2537ee59bee989674593e688a92a1550fb0c",
    ("downset", "set", "table"):
        "8c9d4d32a26dd08638d1fd2e08383c06553f3d358f1da15765ffb94090e21a93",
    ("downset", "set", "json"):
        "6307f13fd16c1e1a7e3703f88902059043e286ef7cf779a97cb235844f24b0d4",
    ("downset", "poset", "table"):
        "d2ce892a08b4941cb8bd18d045434253a7496dc171a34d5258b09226f7bee88a",
    ("downset", "poset", "json"):
        "6730c4b3905299f5d38afc191c5852626dcabb3066869537852451f7dae0c653",
    ("filter", "set", "table"):
        "c28beb03a6dd1a38b8874c5e1e1c9a1ba868ce37acbe1e9c512c0f84051a7a03",
    ("filter", "set", "json"):
        "c402b30fb2681eb76cc8b3ce06c392cb2412919d4be4bc46e1df6d0cf4faed1f",
    ("filter", "poset", "table"):
        "a956288c1c816efa5af65b5f190e57b51eefb72002bfd4ba975601f907333f3c",
    ("filter", "poset", "json"):
        "cbf432aff3211d4e8bcd016df6b2fb1e252018a10a8a439a7f0e9e6ad5279ffb",
    ("giry", "set", "table"):
        "aaf1fc799efc4563e8362f3d2ae7d10d3a0b90badcd68551912528a509383a98",
    ("giry", "set", "json"):
        "aaf1fc799efc4563e8362f3d2ae7d10d3a0b90badcd68551912528a509383a98",
    ("giry", "poset", "table"):
        "aaf1fc799efc4563e8362f3d2ae7d10d3a0b90badcd68551912528a509383a98",
    ("giry", "poset", "json"):
        "aaf1fc799efc4563e8362f3d2ae7d10d3a0b90badcd68551912528a509383a98",
    ("hoare", "set", "table"):
        "94a912cf76979c2d829719119bca0cbab338466c42d106ba4e3056a4f55df555",
    ("hoare", "set", "json"):
        "587aac2cf067884b000520f945efcf65055e86b3aebaa9632f4a85d126631fb6",
    ("hoare", "poset", "table"):
        "6549ac0cecd9fc8e76f3c6734f4955ada11501a578ebda5de3e6a9922a0216f5",
    ("hoare", "poset", "json"):
        "77f602c454f4f4c2212ae2a870bc37c031be39f49c45884b7c4d50bccee2a27e",
    ("monotone-neighbourhood", "set", "table"):
        "ef09b49ba90d21b72b423c2e652d9652ef186e83f1a9596d8423e2bdcfeae04c",
    ("monotone-neighbourhood", "set", "json"):
        "96b87db8220cc1f7380d69e96096311067137246ec970e10391ad3b8eb60632d",
    ("monotone-neighbourhood", "poset", "table"):
        "04ecc6fed90896eb867325d1ee57e0a08a9a8edbc5f57a5b8a86d45a5cf64663",
    ("monotone-neighbourhood", "poset", "json"):
        "e96879e1b7a839eddf18d9addac28a0fec993e60e5966ca9ec8811aa44d793b7",
    ("neighbourhood", "set", "table"):
        "78dc8305d06984e0a74954cada25da2a0984a51bad80bd3a14e01e702bf2439c",
    ("neighbourhood", "set", "json"):
        "a533a3df15eb3d8167c040e4c7000ba6dd5cdcf0200d2b7305acbc1d33f175a4",
    ("neighbourhood", "poset", "table"):
        "0372749a3c8f7a816612a4ee345ea4e665add87dcd709d54d0c074363d3f125c",
    ("neighbourhood", "poset", "json"):
        "fecca54fad17bca4cd291c51a2cee60e3e708251e950263f37b339f17d397a01",
    ("plotkin", "set", "table"):
        "2c660e085faa331f782f1ad68ad6d5d9c8abe78018c5e465243acb17e6d165dd",
    ("plotkin", "set", "json"):
        "9b15ca690c8869b1929380f834d29a03d077cf7d5342951d5fecef5b391f729f",
    ("plotkin", "poset", "table"):
        "c1e5be97f3ff9d25e004290f8187af1815bce2cd03a1a3b768db8912b7dc41e5",
    ("plotkin", "poset", "json"):
        "b8a41f0801cd7576e0d78900a09719e4ae7acebf4c12d83f0a0d7d61d62c92cf",
    ("powerset", "set", "table"):
        "bea310c86b02e7a4c3f96610ee08f082bb97cd2741c3ef25c35f57657179a3e5",
    ("powerset", "set", "json"):
        "fe3bcb503d861063360131e1e07e00e6c921bc566ebf699f30a7de3db0ec1334",
    ("powerset", "poset", "table"):
        "8164461abd42152ad816aae2a0b6c156b5b489688d15548845c7eed9c17e8db8",
    ("powerset", "poset", "json"):
        "20f46d0378e72f6f48e462abdf5eef59966e71a940758687374fc2c4a6549779",
    ("smyth", "set", "table"):
        "1e5278d3aef32a83d18bb1f5ba380151b21b13038ae55beb88c5df50820df843",
    ("smyth", "set", "json"):
        "9a786512c40dc564f61dc59d71c6e0a247b4412b46bf62fd4571b3cd7d593add",
    ("smyth", "poset", "table"):
        "9fe409f57959287a3b8ff098d53bbda22782b6571f725e970498948d6860b526",
    ("smyth", "poset", "json"):
        "ac606bd30ebc9ed7fa88f33dd720de32dce60e559cb90171ccbaa09d3fbaa406",
    ("ultrafilter", "set", "table"):
        "2c505781037639bc658197982f803c5f1b0c42d9708ecf05305237cc03ef30e3",
    ("ultrafilter", "set", "json"):
        "ddda679f77176ade8cce1bea86c3f462547be5fec4bd65f8cb4bc1b036c43371",
    ("ultrafilter", "poset", "table"):
        "efda0c25cd28938f1f361f9b3a2a253f1467d68cf24c06e6e70a7c258babb7ca",
    ("ultrafilter", "poset", "json"):
        "5c69f9cd4f201a92db715b5aff12b8f5ebf717a023f5c934881795f20c78599b",
}


@pytest.mark.parametrize("monad, obj, fmt", sorted(ENUMERATE_DIGESTS), ids="-".join)
def test_enumerate_output_is_pinned(capsys, monad, obj, fmt):
    argv = ["enumerate", "--monad", monad, "--object", ENUMERATE_OBJECTS[obj],
            "--format", fmt]
    assert output_digest(capsys, argv) == ENUMERATE_DIGESTS[monad, obj, fmt]


class TestCertifyCommand:
    def test_box_two_two(self, capsys):
        code, out, _ = run(capsys, ["certify", "--correspondence", "box",
                                    "--sizes", "2,2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["kleisli_count"] == 16
        assert payload["transformer_count"] == 16
        assert payload["bijection"] is True

    def test_three_posets(self, capsys):
        code, out, _ = run(capsys, ["certify", "--correspondence", "three",
                                    "--sizes", "2"])
        assert code == 0
        assert json.loads(out)["bijection"] is True

    def test_expectation_sampled(self, capsys):
        code, out, _ = run(capsys, ["certify", "--correspondence", "expectation",
                                    "--sizes", "2,2", "--instances", "25"])
        assert code == 0
        assert json.loads(out)["bijection"] is True


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert cli_main(["wp", "--frobnicate"]) == 2

    def test_unknown_subcommand(self, capsys):
        assert cli_main(["explode"]) == 2

    def test_missing_file(self, capsys):
        assert cli_main(["wp", "/nonexistent/prog.gc"]) == 2

    @pytest.mark.parametrize("command", ["wp", "run", "laws", "enumerate", "transpose",
                                         "certify"])
    def test_a_handler_that_cannot_be_imported_is_no_usage_error(self, monkeypatch,
                                                                 command):
        # a broken install surfaces as the ImportError's traceback, not as exit 2
        monkeypatch.setitem(sys.modules, f"finsem.cli_{command}", None)
        argv = {"wp": ["wp", "p.gc"], "run": ["run", "p.gc", "--init", "x=0"],
                "laws": ["laws"], "enumerate": ["enumerate", "--monad", "m", "--object", "o"],
                "transpose": ["transpose", "--correspondence", "c", "--input", "-"],
                "certify": ["certify", "--correspondence", "c", "--sizes", "1"]}[command]
        with pytest.raises(ImportError, match=f"finsem.cli_{command}"):
            cli_main(argv)


def test_only_cli_main_turns_a_usage_error_into_exit_2():
    # a handler raises cli.Usage; the one stderr line left in a handler is
    # transpose's failed check, which exits 1
    found = {"return 2": [], "stderr": []}
    for path in sorted(Path(finsem.__file__).parent.glob("cli_*.py")):
        source = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
                    and node.value.value == 2):
                found["return 2"].append((path.name, node.lineno))
            elif (isinstance(node, ast.Call)
                  and any(isinstance(n, ast.Attribute) and n.attr == "stderr"
                          for n in ast.walk(node))):
                found["stderr"].append((path.name, ast.get_source_segment(source, node)))
    assert found == {"return 2": [], "stderr": [
        ("cli_transpose.py", 'print(f"transpose failed: {exc}", file=sys.stderr)')]}


def usage_error(capsys, argv):
    """Run argv, demand exit 2 with one line on stderr, and return that line."""
    code, _, err = run(capsys, argv)
    assert code == 2
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


class TestInputFailures:
    def test_directory_as_program(self, capsys, tmp_path):
        assert "cannot read" in usage_error(capsys, ["wp", str(tmp_path)])

    def test_certify_sizes_not_integers(self, capsys):
        assert "--sizes" in usage_error(
            capsys, ["certify", "--correspondence", "box", "--sizes", "x"])

    def test_transpose_payload_without_dom(self, capsys, tmp_path):
        f = tmp_path / "in.json"
        f.write_text(json.dumps({"direction": "forward", "cod": ["y1"], "arrow": {}}))
        assert "'dom'" in usage_error(
            capsys, ["transpose", "--correspondence", "box", "--input", str(f)])

    def test_transpose_payload_not_json(self, capsys, tmp_path):
        f = tmp_path / "in.json"
        f.write_text("not json")
        assert "JSON" in usage_error(
            capsys, ["transpose", "--correspondence", "box", "--input", str(f)])

    def test_transpose_plotkin_hom_not_wired(self, capsys, tmp_path):
        f = tmp_path / "in.json"
        f.write_text("{}")
        assert "plotkin-hom" in usage_error(
            capsys, ["transpose", "--correspondence", "plotkin-hom", "--input", str(f)])

    def test_self_cover_in_an_object_literal(self, capsys):
        err = usage_error(capsys, ["enumerate", "--monad", "downset",
                                   "--object", "poset P { elems a; covers a<a; }"])
        assert err == "error: cover 'a' < 'a' is not strict\n"

    def test_self_cover_in_a_transpose_payload(self, capsys, tmp_path):
        f = tmp_path / "in.json"
        f.write_text(json.dumps({
            "direction": "forward",
            "poset": {"elements": ["a", "b"], "covers": [["a", "b"], ["b", "b"]]},
            "map": {"a": 0, "b": 1}}))
        err = usage_error(capsys, ["transpose", "--correspondence", "three",
                                   "--input", str(f)])
        assert err == "transpose payload: cover 'b' < 'b' is not strict\n"

    @pytest.mark.parametrize("weight", ["1/0", "abc"])
    def test_bad_initial_weight(self, capsys, prog_file, weight):
        usage_error(capsys, ["run", "--mode", "dist", prog_file,
                             "--init-dist", f"{{x=0: {weight}}}"])

    def test_zero_denominator_in_program(self, capsys, tmp_path):
        f = tmp_path / "prog.gc"
        f.write_text("vars x in 0..1; body: prob 1/0 {x:=0}{x:=1};")
        assert "1:30" in usage_error(capsys, ["wp", "--mode", "dist", str(f),
                                              "--post", "[x == 0]"])

    @pytest.mark.parametrize("argv", [["wp"], ["run", "--init", "x=0"]])
    def test_program_not_utf8(self, capsys, tmp_path, argv):
        f = tmp_path / "bin.gc"
        f.write_bytes(b"\xff\xfe")
        assert "not UTF-8" in usage_error(capsys, argv + [str(f)])

    @pytest.mark.parametrize("arrow", [["y"], {"x": ["z"]}], ids=["list", "outside-cod"])
    def test_transpose_arrow_is_bad_input(self, capsys, tmp_path, arrow):
        f = tmp_path / "in.json"
        f.write_text(json.dumps({"dom": ["x"], "cod": ["y"], "arrow": arrow}))
        assert "transpose payload" in usage_error(
            capsys, ["transpose", "--correspondence", "box", "--input", str(f)])

    @pytest.mark.parametrize("argv", [
        ["laws", "--monad", "powerset", "--max-size", "-1"],
        ["certify", "--correspondence", "box", "--sizes", "-1"],
        ["certify", "--correspondence", "expectation", "--sizes", "2", "--instances", "-3"],
    ], ids=["max-size", "sizes", "instances"])
    def test_negative_count(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and argv[-1] in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["laws", "--monad", "hoare", "--max-size", "0"],
        ["laws", "--monad", "dist", "--max-size", "0"],
        ["certify", "--correspondence", "diamond", "--sizes", "0"],
        ["certify", "--correspondence", "three", "--sizes", "0"],
        ["certify", "--correspondence", "expectation", "--sizes", "2", "--instances", "0"],
        ["certify", "--correspondence", "box", "--sizes", "1,2,3"],
        ["certify", "--correspondence", "expectation", "--sizes", "0"],
        ["certify", "--correspondence", "expectation", "--sizes", "0,2"],
        ["certify", "--correspondence", "expectation", "--sizes", "1,0"],
    ], ids=["laws-hoare", "laws-dist", "certify-diamond", "certify-three",
            "certify-expectation", "three-sizes", "expectation-empty",
            "expectation-empty-dom", "expectation-empty-cod"])
    def test_nothing_to_check(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and err.count("\n") == 1

    @pytest.mark.parametrize("corr, direction, allowed", [
        ("box", "sideways", "forward or backward"),
        ("three", "sideways", "forward or backward"),
        ("expectation", "backward", "forward"),
        ("expectation", "sideways", "forward"),
    ])
    def test_transpose_unknown_direction(self, capsys, tmp_path, corr, direction, allowed):
        f = tmp_path / "in.json"
        f.write_text(json.dumps({"direction": direction, "dom": [0], "cod": [0],
                                 "arrow": {"0": {"0": "1"}}, "predicate": {"0": "1"}}))
        err = usage_error(capsys, ["transpose", "--correspondence", corr, "--input", str(f)])
        assert f"must be {allowed}, not {direction!r}" in err


# One row per reading of outside text: (argv, the program or payload file's
# text, and the outcome), with "FILE" in argv standing for that file.  An
# integer is an optional "-" and ASCII digits (kernel.read_int); a JSON atom
# is an int, or a string that is read as that int or else kept as written
# (jsonio.read_atom).  So each row is refused with one typed line on stderr
# (argparse prints its usage lines before it), or keeps a string atom as it
# was written, which the output then shows.
BOX_ARGV, DIAMOND_ARGV, THREE_ARGV = (
    ["transpose", "--correspondence", corr, "--input", "FILE"]
    for corr in ("box", "diamond", "three"))
RANGE_10 = "vars x in 0..10; body: skip; post: x == 0;"


def refused(message):
    return "refused", message


def kept(text):
    return "kept", json.dumps(text)


READINGS = {
    "payload-float": (BOX_ARGV, {"dom": [1.9], "cod": [0], "arrow": {"1": [0]}},
                      refused("transpose payload: atom 1.9 is not an int or a string")),
    "payload-bool": (BOX_ARGV, {"dom": ["x"], "cod": [1], "arrow": {"x": [True]}},
                     refused("transpose payload: atom True is not an int or a string")),
    "payload-underscore": (BOX_ARGV, {"dom": ["1_0"], "cod": [0], "arrow": {"1_0": [0]}},
                           kept("1_0")),
    "payload-plus": (BOX_ARGV, {"dom": ["+1"], "cod": [0], "arrow": {"+1": [0]}}, kept("+1")),
    "payload-arabic": (BOX_ARGV, {"dom": ["٣"], "cod": [0], "arrow": {"٣": [0]}}, kept("٣")),
    "poset-digits": (DIAMOND_ARGV, {"dom": {"elements": ["1"]}, "cod": {"elements": ["c"]},
                               "arrow": {"1": ["c"]}}, kept("1")),
    "poset-plus": (DIAMOND_ARGV, {"dom": {"elements": ["+1"]}, "cod": {"elements": ["c"]},
                             "arrow": {"+1": ["c"]}}, kept("+1")),
    "poset-bool": (THREE_ARGV, {"poset": {"elements": [True]}, "direction": "backward",
                           "outer": [], "inner": []},
                   refused("transpose payload: atom True is not an int or a string")),
    "poset-list": (THREE_ARGV, {"poset": {"elements": [[0, 1]]}, "direction": "backward",
                           "outer": [], "inner": []},
                   refused("transpose payload: atom [0, 1] is not an int or a string")),
    "three-values": (THREE_ARGV, {"poset": {"elements": ["a", "b"]}, "map": {"a": True, "b": 1.0}},
                     refused("transpose payload: atom True is not an int or a string")),
    "payload-weight": (
        ["transpose", "--correspondence", "expectation", "--input", "FILE"],
        {"dom": ["a"], "cod": [0], "arrow": {"a": {"0": "+1"}}, "predicate": {"0": "1"}},
        refused("transpose payload: 1:1: bad rational '+1'; write num/den")),
    "literal-plus": (["enumerate", "--monad", "powerset", "--object", "set S { elems +1 1; }"],
                     None, kept("+1")),
    "literal-arabic": (["enumerate", "--monad", "powerset", "--object", "set S { elems ٣; }"],
                       None, kept("٣")),
    "program-arabic": (["wp", "FILE"], "vars x in 0..3; body: x := ٣; post: x == 0;",
                       refused("error: 1:28: unexpected character '٣'")),
    "post-arabic": (["wp", "FILE", "--post", "x == ٣"], RANGE_10,
                    refused("error: 1:6: unexpected character '٣'")),
    "init-underscore": (["run", "FILE", "--init", "x=1_0"], RANGE_10,
                        refused("error: bad state component 'x=1_0'")),
    "init-arabic": (["run", "FILE", "--init", "x=٣"], RANGE_10,
                    refused("error: bad state component 'x=٣'")),
    "init-plus": (["run", "FILE", "--init", "x=+1"], RANGE_10,
                  refused("error: bad state component 'x=+1'")),
    "init-dist-weight": (["run", "FILE", "--mode", "dist", "--init-dist", "{x=0: 1_0/1_0}"],
                         RANGE_10, refused("error: 1:1: bad rational '1_0/1_0'; write num/den")),
    "init-dist-signed-den": (["run", "FILE", "--mode", "dist", "--init-dist", "{x=0: -1/-1}"],
                             RANGE_10, refused("error: 1:1: bad rational '-1/-1'; write num/den")),
    "max-size": (["laws", "--monad", "powerset", "--max-size", "١"], None,
                 refused("argument --max-size: invalid count value: '١'")),
    "sizes": (["certify", "--correspondence", "box", "--sizes", "+1"], None,
              refused("--sizes takes one or two integers such as 2,2, not '+1'")),
    "instances": (["certify", "--correspondence", "expectation", "--sizes", "1",
                   "--instances", "1_0"], None,
                  refused("argument --instances: invalid count value: '1_0'")),
    "seed": (["laws", "--monad", "powerset", "--max-size", "1", "--seed", "1_0"], None,
             refused("argument --seed: invalid integer value: '1_0'")),
    "state-cap": (["wp", "FILE", "--state-cap", "٣٢"], RANGE_10,
                  refused("argument --state-cap: invalid integer value: '٣٢'")),
}


@pytest.mark.parametrize("argv, text, outcome", READINGS.values(), ids=READINGS)
def test_every_reader_reads_integers_and_atoms_alike(capsys, tmp_path, argv, text, outcome):
    f = tmp_path / "input"
    f.write_text(text if isinstance(text, str) else json.dumps(text), encoding="utf-8")
    code, out, err = run(capsys, [str(f) if arg == "FILE" else arg for arg in argv])
    kind, expected = outcome
    assert "Traceback" not in err
    if kind == "kept":
        assert (code, err) == (0, "") and expected in out
    elif expected.startswith("argument "):  # argparse prints its usage lines first
        assert (code, out) == (2, "") and err.splitlines()[-1].endswith(expected)
    else:
        assert (code, out, err) == (2, "", expected + "\n")


@pytest.mark.parametrize("value, atom", [
    (0, 0), (-2, -2), ("3", 3), (" -4 ", -4), ("007", 7), ("a", "a"), ("", ""),
    ("1_0", "1_0"), ("+1", "+1"), ("٣", "٣"), ("1.5", "1.5"),
])
def test_read_atom_keeps_ints_and_reads_integer_strings(value, atom):
    from finsem.jsonio import read_atom

    assert read_atom(value) == atom and type(read_atom(value)) is type(atom)


@pytest.mark.parametrize("value", [1.5, True, False, None, [0, 1], {"a": 1}])
def test_read_atom_refuses_what_is_no_int_or_string(value):
    from finsem.errors import UnknownElement
    from finsem.jsonio import read_atom

    with pytest.raises(UnknownElement) as info:
        read_atom(value)
    assert str(info.value) == f"atom {value!r} is not an int or a string"


def test_parser_choices_match_their_sources():
    from finsem import cli, gcl, monads, transformers

    assert cli.FLAVORS == gcl.FLAVORS
    assert cli.DEFAULT_STATE_CAP == gcl.DEFAULT_STATE_CAP
    assert cli.MONAD_NAMES == tuple(sorted(monads.FAMILIES))
    assert cli.CORRESPONDENCE_NAMES == tuple(sorted(transformers.REGISTRY))


# sha256 of each --help text at 80 columns, as printed while the parser still
# read its choices from gcl, monads and transformers
HELP_DIGESTS = {
    "": "de2227762b6f5a204d4b3848361f73f1e027a15a013fa29f9dbff831deb74b5b",
    "wp": "b308c8310492a3055ad4f676d48ac0dca68c4a316b59d05f228931a23a249b71",
    "run": "07ab7f1ed7a04ee7b9537e6b011030c7b8d20b018c0b430afd9ecfc5eae1724e",
    "laws": "0c9745b6207d1a2c8fe7097bb92da615f1c9aa8db36ee9a192ebd002e0070922",
    "enumerate": "35f34080b85c9d928e8e682f65f4f1a30c47f2cdba512767b83aa356992813ff",
    "transpose": "8a7361c6c3b6b6915928fd7e204e22594122a302f86b0ed6abc7d791e61c3fe6",
    "certify": "82f65f3aeb74faa87d1f7e06dfbfd3aa4a3b14d69022627c11075cf5223b1a40",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the digests follow the help layout of Python 3.11's argparse")
@pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
def test_help_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, [command, "--help"] if command else ["--help"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[command]
