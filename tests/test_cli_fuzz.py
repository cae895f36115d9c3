"""Fuzzing the command line: every input ends in exit 0, 1 or 2, never a traceback.

Runs cli_main in-process over generated transpose payloads (arbitrary JSON in
each field, mixed with well-shaped values so that decoding gets deep), over
certify/laws argument vectors, over wp/run programs spliced from GCL tokens
with their --post, --init and --init-dist strings, and over enumerate object
literals.  The settings are derandomized, so every run draws the same
examples, and the wp/run examples are replayed under two hash seeds.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import finsem
from finsem.cli import cli_main
from finsem.monads import FAMILIES
from finsem.transformers import REGISTRY

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150,
                suppress_health_check=[HealthCheck.too_slow])

# besides ints and plain strings, strings that int() would read but the wire
# does not ("1_0", "٣", "+1"), and JSON values that are no atom at all
ATOMS = (st.sampled_from(["a", "b", "c", "x1", "y1", "0", "1", "1_0", "٣", "+1", 1.5, True])
         | st.integers(0, 2))
ATOM_KEYS = ATOMS.map(str)
RATIONALS = st.sampled_from(["0", "1", "1/2", "1/3", "2/3", "3/2", "-1", "1/0", "x"])
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3) | ATOMS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3) | ATOM_KEYS, inner, max_size=3),
    max_leaves=8,
)
SUBSETS = st.lists(ATOMS, max_size=3)
POSETS = st.fixed_dictionaries(
    {"elements": st.lists(ATOMS, max_size=3, unique=True)},
    optional={"covers": st.lists(st.lists(ATOMS, min_size=2, max_size=2), max_size=3)})
CARRIERS = st.lists(ATOMS, max_size=3, unique=True) | POSETS
SET_TOKENS = SUBSETS.map(lambda s: "{" + ",".join(map(str, s)) + "}")

# payload field -> well-shaped values for it
FIELDS = {
    "direction": st.sampled_from(["forward", "backward"]),
    "dom": CARRIERS,
    "cod": CARRIERS,
    "poset": POSETS,
    "arrow": st.dictionaries(ATOM_KEYS, SUBSETS | st.lists(SUBSETS, max_size=3)
                             | st.dictionaries(ATOM_KEYS, RATIONALS, max_size=3),
                             max_size=3),
    "transformer": st.dictionaries(SET_TOKENS, SUBSETS, max_size=4),
    "map": st.dictionaries(ATOM_KEYS, st.integers(-1, 3), max_size=3),
    "outer": SUBSETS,
    "inner": SUBSETS,
    "predicate": st.dictionaries(ATOM_KEYS, RATIONALS, max_size=3),
}
CHAIN_AB = {"elements": ["a", "b"], "covers": [["a", "b"]]}
CHAIN_CD = {"elements": ["c", "d"], "covers": [["c", "d"]]}
SETS = {"dom": ["x1", "x2"], "cod": ["y1", "y2"]}
# well-formed payloads, each of which the fuzzer perturbs in a field or two
VALID = [
    ("box", {"dom": ["x1"], "cod": ["y1"], "direction": "backward",  # fails its check
             "transformer": {"{}": [], "{y1}": []}}),
    ("box", dict(SETS, arrow={"x1": ["y1"], "x2": ["y1", "y2"]})),
    ("box", dict(SETS, direction="backward", transformer={
        "{}": [], "{y1}": ["x1"], "{y2}": [], "{y1,y2}": ["x1", "x2"]})),
    ("filter", dict(SETS, arrow={"x1": [["y1"], ["y1", "y2"]], "x2": [["y1", "y2"]]})),
    ("monotone-nbhd", dict(SETS, arrow={"x1": [["y1"], ["y1", "y2"]], "x2": []})),
    ("diamond", {"dom": CHAIN_AB, "cod": CHAIN_CD, "arrow": {"a": ["c"], "b": ["c", "d"]}}),
    ("hoare", {"dom": CHAIN_AB, "cod": CHAIN_CD, "direction": "backward",
               "transformer": {"{}": [], "{d}": ["b"], "{c,d}": ["a", "b"]}}),
    ("smyth", {"dom": CHAIN_AB, "cod": CHAIN_CD, "arrow": {"a": ["c", "d"], "b": ["d"]}}),
    ("three", {"poset": CHAIN_AB, "map": {"a": 0, "b": 1}}),
    ("three", {"poset": CHAIN_AB, "direction": "backward", "outer": ["b"], "inner": []}),
    ("expectation", {"dom": ["a"], "cod": [0, 1], "arrow": {"a": {"0": "1/2", "1": "1/2"}},
                     "predicate": {"0": "1/3", "1": "1"}}),
]
DROP = object()


@st.composite
def transpose_cases(draw):
    corr, payload = draw(st.sampled_from(VALID))
    payload = dict(payload)
    for key in draw(st.lists(st.sampled_from(sorted(FIELDS)), max_size=2, unique=True)):
        value = draw(st.just(DROP) | FIELDS[key] | ANY_JSON)
        if value is DROP:
            payload.pop(key, None)
        else:
            payload[key] = value
    return corr, json.dumps(payload)


def run_cli(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch("sys.stdin", io.StringIO(stdin)):
        code = cli_main(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code


@FUZZ
@given(case=transpose_cases()
       | st.tuples(st.sampled_from(sorted(REGISTRY)), ANY_JSON.map(json.dumps)))
def test_transpose_payloads(case):
    corr, payload = case
    run_cli(["transpose", "--correspondence", corr, "--input", "-"], payload)


COUNTS = st.sampled_from(["0", "1", "2", "-1", "-3", "x", "", "1.5", "1_0", "٣"])
SIZES = st.lists(COUNTS, min_size=1, max_size=3).map(",".join)


@FUZZ
@given(corr=st.sampled_from(sorted(REGISTRY)) | st.text(max_size=3), sizes=SIZES,
       instances=COUNTS, seed=st.integers(-2, 2).map(str),
       fmt=st.sampled_from(["json", "table", "xml"]))
def test_certify_arguments(corr, sizes, instances, seed, fmt):
    run_cli(["certify", "--correspondence", corr, "--sizes", sizes,
             "--instances", instances, "--seed", seed, "--format", fmt])


@FUZZ
@given(monad=st.sampled_from(sorted(FAMILIES)) | st.text(max_size=3),
       max_size=st.sampled_from(["0", "1", "-1", "x"]), seed=st.integers(-2, 2).map(str),
       effects=st.booleans())
def test_laws_arguments(monad, max_size, seed, effects):
    run_cli(["laws", "--monad", monad, "--max-size", max_size, "--seed", seed]
            + ["--effects"] * effects)


GCL_TOKENS = st.sampled_from([
    "vars", "x", "y", "z", "in", "0", "1", "2", "..", ",", ";", "body", ":", "post",
    "skip", "abort", "if", "else", "choose", "[]", "prob", "1/2", "1/0", "{", "}",
    "(", ")", "[", "]", ":=", "+", "-", "*", "/", "==", "!=", "<", "<=", "!", "&&",
    "||", "true", "false", "@"])
NOISE = st.lists(GCL_TOKENS, max_size=12).map(" ".join)


def splice(draw, bases, noise):
    """One of bases, unchanged or with a run of noise tokens spliced in."""
    base = draw(st.sampled_from(bases))
    if not draw(st.booleans()):
        return base
    cut = draw(st.integers(0, len(base)))
    return f"{base[:cut]} {draw(noise)} {base[cut:]}"


HEADER = "vars x in 0..2, y in 0..1; body: "
PROGRAMS = [
    HEADER + "x := x + 1; if (x == 2) { y := 1 } else { abort }; post: x <= y;",
    "vars x in 0..1; body: prob 1/3 {x:=0}{x:=1}; post: [x == 0];",
    "vars x in 0..1; body: choose {x:=0} [] {x:=1}; post: x == 0;",
]


@st.composite
def program_texts(draw):
    """A program, a header or nothing, perhaps with GCL tokens spliced in."""
    return splice(draw, [*PROGRAMS, HEADER, ""], NOISE)


@pytest.fixture(scope="module")
def program_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "prog.gc"


MODES = st.sampled_from(["pow", "dist"])
FORMATS = st.sampled_from(["table", "json"])


@FUZZ
@given(program=program_texts(), mode=MODES, fmt=FORMATS,
       flavor=st.none() | st.sampled_from(["demonic", "angelic", "expectation"]),
       post=st.none() | NOISE
       | st.sampled_from(["x == 0", "[x <= 1]", "1/2 * [y == 0]"]))
def test_wp_inputs(program_file, program, mode, fmt, flavor, post):
    program_file.write_text(program)
    run_cli(["wp", str(program_file), "--mode", mode, "--format", fmt]
            + [f"--flavor={flavor}"] * (flavor is not None)
            + [f"--post={post}"] * (post is not None))


@FUZZ
@given(program=program_texts(), mode=MODES, fmt=FORMATS,
       init=st.sampled_from(["x=0", "x=1,y=0", "x=9,y=0", "x=a", "y", "", "x=1_0", "x=٣"])
       | st.none() | st.text(max_size=4),
       init_dist=st.none() | st.sampled_from(
           ["{x=0: 1/2, x=1: 1/2}", "{x=0,y=1: 1}", "{x=0: 1/0}", "{x=0: 2}", "{}"])
       | st.text(max_size=6))
def test_run_inputs(program_file, program, mode, fmt, init, init_dist):
    program_file.write_text(program)
    run_cli(["run", str(program_file), "--mode", mode, "--format", fmt]
            + [f"--init={init}"] * (init is not None)
            + [f"--init-dist={init_dist}"] * (init_dist is not None))


def engine_fuzz_inputs(program_file):
    """(program text, argv) of every example test_wp_inputs and test_run_inputs
    draw, recorded in place of running it."""
    cases = []

    def record(argv, stdin=""):
        cases.append((program_file.read_text(), argv))

    with mock.patch(f"{__name__}.run_cli", record):
        test_wp_inputs(program_file=program_file)
        test_run_inputs(program_file=program_file)
    return cases


def replay_engine_inputs(cases, program_file):
    """test_cli.replay's digest of cases, each program written to program_file
    just before its command runs."""
    from test_cli import replay

    def runs():
        for text, argv in cases:
            program_file.write_text(text)
            yield [argv[0], str(program_file), *argv[2:]], ""
    return replay(runs())


def test_wp_and_run_inputs_are_hash_seed_independent(tmp_path):
    # one batched process per seed, both at once, each writing its own program file
    cases = engine_fuzz_inputs(tmp_path / "drawn.gc")
    assert len(cases) == 2 * FUZZ.max_examples
    f = tmp_path / "cases.json"
    f.write_text(json.dumps(cases))
    src = str(Path(finsem.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = ("import json, pathlib, sys; sys.path.insert(0, sys.argv[1]); "
              "from test_cli_fuzz import replay_engine_inputs; "
              "cases = json.load(open(sys.argv[2])); "
              "print(replay_engine_inputs(cases, pathlib.Path(sys.argv[3])))")
    procs = [subprocess.Popen(
        [sys.executable, "-c", script, str(Path(__file__).parent), str(f),
         str(tmp_path / f"seed{seed}.gc")],
        env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) for seed in ("1", "2")]
    first, second = [(proc.communicate(timeout=120), proc.returncode) for proc in procs]
    assert first == second
    assert first[1] == 0 and first[0][1] == ""


OBJECT_TOKENS = st.sampled_from(
    ["poset", "set", "P", "{", "}", "elems", "covers", "a", "b", "c", "a<b", "b<c",
     "c<a", "a<a", "a<", ";", "<"])
OBJECTS = [
    "poset P { elems a b c; covers a<b; }",
    "poset P { elems a b; covers a<b b<a; }",
    "set S { elems a b c; }",
    "set S { elems; }",
]


@st.composite
def object_literals(draw):
    """An object literal, perhaps with literal tokens spliced in."""
    noise = st.lists(OBJECT_TOKENS, max_size=8).map(" ".join)
    return splice(draw, [*OBJECTS, ""], noise)


@FUZZ
@given(monad=st.sampled_from(sorted(FAMILIES)) | st.just("nope"),
       obj=object_literals(), fmt=FORMATS)
def test_enumerate_inputs(monad, obj, fmt):
    run_cli(["enumerate", "--monad", monad, f"--object={obj}", "--format", fmt])


def command_fuzz_inputs():
    """(argv, stdin text) of every example test_transpose_payloads,
    test_certify_arguments, test_laws_arguments and test_enumerate_inputs
    draw, recorded in place of running it."""
    cases = []
    with mock.patch(f"{__name__}.run_cli", lambda argv, stdin="": cases.append((argv, stdin))):
        for test in (test_transpose_payloads, test_certify_arguments, test_laws_arguments,
                     test_enumerate_inputs):
            test()
    return cases


def test_transpose_certify_laws_and_enumerate_inputs_are_hash_seed_independent(tmp_path):
    # one batched process per seed, both at once
    cases = command_fuzz_inputs()
    assert len(cases) == 4 * FUZZ.max_examples
    f = tmp_path / "cases.json"
    f.write_text(json.dumps(cases))
    src = str(Path(finsem.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
              "from test_cli import replay; print(replay(json.load(open(sys.argv[2]))))")
    procs = [subprocess.Popen(
        [sys.executable, "-c", script, str(Path(__file__).parent), str(f)],
        env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) for seed in ("1", "2")]
    first, second = [(proc.communicate(timeout=120), proc.returncode) for proc in procs]
    assert first == second
    assert first[1] == 0 and first[0][1] == ""
