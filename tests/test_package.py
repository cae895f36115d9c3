"""The package's lazy exports, which modules each subcommand loads, and that
every top-level name has a caller."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import finsem

SRC = str(Path(finsem.__file__).resolve().parent.parent)

# name -> (defining module, attribute) of everything `finsem` exported eagerly
EXPORTS = {name: (module, name) for module, names in {
    "effects": ["FuzzyPredicate", "dist_bind", "dist_make", "farey_grid", "mv_ops",
                "pred_orth", "pred_ovee", "pred_scalar", "validate_effect_algebra"],
    "errors": ["FinsemError"],
    "gcl": ["check_roundtrip", "denote", "parse", "wp"],
    "kernel": ["Distribution", "FinSet"],
    "monads": ["FAMILIES", "FilterOf", "LensPair", "MonadInstance", "cba_collapse_check",
               "downset_monad", "expectation_embed", "filter_monad", "giry_finite",
               "hoare_monad", "monotone_neighbourhood", "neighbourhood", "plotkin_monad",
               "powerset", "smyth_monad", "ultrafilter_monad"],
    "order": ["FinPoset", "MonotoneMap", "SubsetOf", "all_posets", "antichain", "chain",
              "down_closure", "downsets", "enumerate_structure_maps", "make_poset",
              "powerset_lattice", "right_adjoint", "upsets"],
    "triangle": ["EMAlgebraCandidate", "KleisliArrow", "certify_full_faithful",
                 "check_em_algebra", "check_monad_laws", "kleisli_compose",
                 "stat_functor"],
}.items() for name in names}
EXPORTS["CORRESPONDENCES"] = ("transformers", "REGISTRY")
SUBMODULES = ["check", "effects", "errors", "gcl", "gcl_random", "kernel", "monads", "order",
              "transformers", "triangle"]
# every source file of the package: the submodules, the command line and its
# handlers, and the wire formats
SOURCES = sorted([f"{name}.py" for name in SUBMODULES] + [
    "__init__.py", "__main__.py", "cli.py", "cli_certify.py", "cli_enumerate.py",
    "cli_laws.py", "cli_run.py", "cli_transpose.py", "cli_wp.py", "jsonio.py"])


def python(code, *args):
    """Run code in a fresh interpreter on this source tree; return its last stdout line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=SRC,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


class TestLazyExports:
    def test_every_export_is_its_defining_modules_object(self):
        assert len(EXPORTS) == 53
        for name, (module, attr) in EXPORTS.items():
            defining = __import__(f"finsem.{module}", fromlist=[attr])
            assert getattr(finsem, name) is getattr(defining, attr), name

    def test_every_export_is_listed(self):
        names = set(EXPORTS) | set(SUBMODULES) | {"__version__"}
        assert set(finsem.__all__) == names
        assert names <= set(dir(finsem))
        assert finsem.__version__ == "0.1.0"

    def test_submodules_resolve(self):
        from finsem import gcl

        assert finsem.gcl is gcl
        for name in SUBMODULES:
            assert getattr(finsem, name) is sys.modules[f"finsem.{name}"]

    def test_star_import(self):
        namespace = {}
        exec("from finsem import *", namespace)
        assert namespace["parse"] is finsem.gcl.parse
        assert namespace["CORRESPONDENCES"] is finsem.transformers.REGISTRY
        assert set(finsem.__all__) <= set(namespace)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no attribute 'nonsense'"):
            finsem.nonsense  # noqa: B018
        with pytest.raises(ImportError):
            from finsem import nonsense  # noqa: F401

    def test_resolved_names_are_not_kept(self):
        finsem.parse  # noqa: B018
        assert "parse" not in vars(finsem)

    def test_bare_import_loads_no_submodule(self):
        code = ("import sys, finsem; "
                "print(sorted(m for m in sys.modules if m.startswith('finsem')))")
        assert python(code) == "['finsem']"


# the finsem modules a process holds after running one subcommand
BASE = ["finsem", "finsem.check", "finsem.cli", "finsem.errors", "finsem.kernel"]
# the monad zoo and the poset substrate under it, which wp and run never load;
# effects loads only where a subcommand builds fuzzy predicates or distributions
ZOO = ["finsem.monads", "finsem.order"]
MODULES = {
    "wp": BASE + ["finsem.cli_wp", "finsem.gcl"],
    "run": BASE + ["finsem.cli_run", "finsem.gcl", "finsem.jsonio"],
    "laws": BASE + ZOO + ["finsem.cli_laws", "finsem.triangle"],
    "enumerate": BASE + ZOO + ["finsem.cli_enumerate", "finsem.jsonio"],
    "transpose": BASE + ZOO + ["finsem.cli_transpose", "finsem.jsonio",
                               "finsem.transformers", "finsem.triangle"],
    "certify": BASE + ZOO + ["finsem.cli_certify", "finsem.transformers",
                             "finsem.triangle"],
}
# the summed source lines of each subcommand's modules, which a process
# compiles on every start: a module that grows, or a subcommand that loads
# one more module, must raise its budget here
LINE_BUDGET = {
    "wp": 1892,
    "run": 2037,
    "laws": 2855,
    "enumerate": 2476,
    "transpose": 3533,
    "certify": 3314,
}
# standard-library modules that no subcommand loads
UNUSED = ("dataclasses", "inspect")
PROBE = """\
import sys
from finsem.cli import cli_main
code = cli_main(sys.argv[1:])
loaded = sorted(sys.modules)
import json
print(json.dumps([code, loaded]))
"""


@pytest.mark.parametrize("command", sorted(MODULES))
def test_each_subcommand_loads_only_its_layers(tmp_path, command):
    program = tmp_path / "prog.gc"
    program.write_text("vars x in 0..1; body: prob 1/3 {x:=0}{x:=1}; post: [x == 0];")
    payload = tmp_path / "in.json"
    payload.write_text(json.dumps({"dom": ["x1"], "cod": ["y1"], "arrow": {"x1": ["y1"]}}))
    pow_program = tmp_path / "pow.gc"
    pow_program.write_text("vars x in 0..1; body: choose {x:=0} [] {x:=1}; post: x == 0;")
    argvs = {
        "wp": [["wp", str(program), "--mode", "dist"],
               ["wp", str(pow_program), "--format", "json"]],
        "run": [["run", str(program), "--mode", "dist", "--init", "x=0"],
                ["run", str(program), "--mode", "dist", "--init-dist", "{x=0: 1/2, x=1: 1/2}",
                 "--format", "json"],
                ["run", str(pow_program), "--init", "x=0", "--format", "json"]],
        "laws": [["laws", "--monad", "powerset", "--max-size", "1"]],
        "enumerate": [["enumerate", "--monad", "plotkin", "--object",
                       "poset P { elems a b; covers a<b; }"]],
        "transpose": [["transpose", "--correspondence", "box", "--input", str(payload)]],
        "certify": [["certify", "--correspondence", "box", "--sizes", "1,1"]],
    }[command]
    for argv in argvs:
        code, modules = json.loads(python(PROBE, *argv))
        assert code == 0
        assert [m for m in modules if m.startswith("finsem")] == sorted(MODULES[command])
        assert not set(UNUSED) & set(modules)
        if command == "laws":  # it prints no JSON
            assert "json" not in modules


def source_lines(module):
    """The number of lines in a finsem module's source file."""
    path = Path(SRC, *module.split("."))
    path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
    return len(path.read_text(encoding="utf-8").splitlines())


@pytest.mark.parametrize("command", sorted(MODULES))
def test_each_subcommand_compiles_within_its_line_budget(command):
    assert sum(map(source_lines, MODULES[command])) <= LINE_BUDGET[command]


def test_start_up_loads_no_unused_standard_module():
    # else the probe above would pass whatever the subcommands load
    modules = python("import sys; loaded = sorted(sys.modules); print(' '.join(loaded))")
    assert not {*UNUSED, "json"} & set(modules.split())


def test_no_module_imports_dataclasses():
    sources = sorted(Path(SRC, "finsem").glob("*.py"))
    assert [path.name for path in sources] == SOURCES
    for path in sources:
        assert "dataclass" not in path.read_text(encoding="utf-8"), path.name


def imported_modules(tree):
    """The names tree binds to modules: ``import m`` and ``import m as n``
    anywhere, and ``from . import m`` or ``from finsem import m`` of a module
    of the package (not of a name it exports)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "finsem"):
            out.update(alias.asname or alias.name for alias in node.names
                       if Path(SRC, "finsem", f"{alias.name}.py").exists())
    return out


def reads(tree, modules=None):
    """How often each name is read in tree, in two counters: as a variable, an
    imported name or ``module.name``, keyed "module.name"; and as an attribute
    of anything but a module (``modules``, by default those tree imports).
    Strings and docstrings do not count."""
    modules = imported_modules(tree) if modules is None else modules
    names, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name):
                names[f"{node.value.id}.{node.attr}"] += 1
                if node.value.id in modules:
                    continue
            attrs[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names, attrs


def test_a_module_attribute_is_no_method_read():
    names, attrs = reads(ast.parse(
        "import operator, itertools as it\nfrom . import gcl\nfrom finsem import FinSet\n"
        "def f(p):\n    return operator.lt, it.chain, gcl.op, p.lt, p.op, FinSet.rank\n"))
    assert (attrs["lt"], attrs["chain"], attrs["op"], attrs["rank"]) == (1, 0, 1, 1)
    assert names["operator.lt"] == names["it.chain"] == names["gcl.op"] == 1
    # a definition read out of its module counts against that module's imports
    f = ast.parse("import operator\ndef f():\n    return operator.lt\n")
    assert reads(f.body[1], imported_modules(f))[1]["lt"] == 0


def definitions(tree):
    """(name, node) of each top-level function, class and assigned name, and
    (class.method, node) of each method defined in a top-level class body."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, ast.FunctionDef))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from ((n.id, node) for n in ast.walk(target) if isinstance(n, ast.Name))


def test_every_top_level_name_has_a_caller():
    # a name is called when it is read in the package, the benchmark or the
    # acceptance criteria (not in the unit tests), exported, or named in a span
    # table of bench/spans.py: a method (Class.m) only as an attribute m, a
    # top-level name only as a variable, an import or an attribute of its module
    def parse(path):
        return ast.parse(path.read_text(encoding="utf-8"))

    root = Path(__file__).resolve().parent.parent
    modules = {path: parse(path) for path in sorted(Path(SRC, "finsem").glob("*.py"))}
    callers = [*sorted(root.glob("bench/*.py")), root / "tests" / "test_acceptance.py"]
    total = Counter(), Counter()
    for tree in [*modules.values(), *map(parse, callers)]:
        for count, read in zip(total, reads(tree)):
            count.update(read)
    called = {attr for _, attr in finsem._ORIGIN.values()}
    for name, node in definitions(parse(root / "bench" / "spans.py")):
        if name.endswith("_SPANS"):
            called.update(part for c in ast.walk(node.value) if isinstance(c, ast.Constant)
                          and isinstance(c.value, str) for part in c.value.split("."))

    def count(read, module, name):
        names, attrs = read
        bare = name.rpartition(".")[2]
        return attrs[bare] if "." in name else names[bare] + names[f"{module}.{bare}"]

    uncalled = [f"{path.stem}.{name}" for path, tree in modules.items()
                for name, node in definitions(tree)
                for bare in [name.rpartition(".")[2]]
                if not (bare.startswith("__") and bare.endswith("__")) and bare not in called
                and count(total, path.stem, name)
                <= count(reads(node, imported_modules(tree)), path.stem, name)]
    assert not uncalled, f"no caller outside the unit tests: {', '.join(uncalled)}"


def test_law_suite_extends_through_the_one_kernel():
    # criterion 1 must check the kernel that extend, ; and prob run: the suite
    # extends only through the family's coded hook, and dist and giry's hook
    # binds only through kernel.bind_rows
    def parse(module):
        return ast.parse(Path(SRC, "finsem", f"{module}.py").read_text(encoding="utf-8"))

    def called(node):
        return {c.func.attr if isinstance(c.func, ast.Attribute) else c.func.id
                for c in ast.walk(node) if isinstance(c, ast.Call)
                and isinstance(c.func, (ast.Attribute, ast.Name))}

    suite = dict(definitions(parse("triangle")))["check_monad_laws"]
    assert "coded_extension" in called(suite)
    assert "extend" not in called(suite)
    monads = parse("monads")
    hook = dict(definitions(monads))["DistributionMonad.coded_extension"]
    assert {name for name in called(hook) if "bind" in name or "extend" in name} == {
        "bind_rows"}
    assert "bind_rows" in {alias.name for node in monads.body if isinstance(node, ast.ImportFrom)
                           and node.module == "kernel" for alias in node.names}
    # giry extends through dist's hook, not one of its own
    giry = dict(definitions(monads))["GiryFiniteMonad"]
    assert not {"code", "coded_extension"} & {
        item.name for item in giry.body if isinstance(item, ast.FunctionDef)}


def test_law_suite_builds_arrows_only_trusted():
    # the suite's arrows come from the enumerator and the sampler, which check
    # dom, cod and every target once per call: no arrow is validated again, nor composed
    # through the validating constructor
    triangle = dict(definitions(ast.parse(
        Path(SRC, "finsem", "triangle.py").read_text(encoding="utf-8"))))
    validating = {"KleisliArrow", "from_dict", "from_callable", "kleisli_compose"}
    trusted = Counter()
    for name in ("check_monad_laws", "random_kleisli_arrow"):
        for node in ast.walk(triangle[name]):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            owner = getattr(func, "value", None)
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            assert called not in validating, (name, ast.unparse(node))
            if getattr(owner, "id", None) == "KleisliArrow":
                assert called == "_trusted", (name, ast.unparse(node))
                trusted[name] += 1
    assert trusted == {"random_kleisli_arrow": 1}
    # and the suite draws its sampled arrows in one call per (dom, cod)
    assert "random_kleisli_arrow" in {
        getattr(node.func, "id", None) for node in ast.walk(triangle["check_monad_laws"])
        if isinstance(node, ast.Call)}


def test_an_arrow_reaches_every_extension_as_its_graph():
    # one graph format: each extend takes the images in the domain's carrier
    # order, and no caller hands one an atom-to-image callable instead
    def parse(path):
        return ast.parse(path.read_text(encoding="utf-8"))

    extends = {name: [arg.arg for arg in node.args.args]
               for name, node in definitions(parse(Path(SRC, "finsem", "monads.py")))
               if name.endswith(".extend")}
    assert len(extends) == 5
    assert all(args == ["self", "dom", "cod", "graph", "t"] for args in extends.values())
    # a family's extend takes four arguments, list.extend one
    calls = [(path.name, node) for path in sorted(Path(SRC, "finsem").glob("*.py"))
             for node in ast.walk(parse(path)) if isinstance(node, ast.Call) and (
                 getattr(node.func, "attr", None) == "extend" and len(node.args) == 4
                 or getattr(node.func, "id", None) == "bind_apply")]
    assert len(calls) >= 4
    for name, call in calls:
        for arg in call.args:
            assert not isinstance(arg, ast.Lambda), (name, ast.unparse(call))
            assert "__getitem__" not in ast.unparse(arg), (name, ast.unparse(call))
