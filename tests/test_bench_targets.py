"""The names the benchmark reaches into finsem by still resolve.

``bench/spans.py`` wraps entry points named by (module, attribute path), and
``bench/workloads.py`` reads library names through module objects, so a name
that moves to another module would break a benchmark run rather than a test.
Both files are only imported and read here.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

SPAN_TARGETS = sorted({target for targets in spans.MODULE_SPANS.values() for target in targets})


@pytest.mark.parametrize("module, path", SPAN_TARGETS,
                         ids=[f"{m}:{p}" for m, p in SPAN_TARGETS])
def test_every_span_target_resolves(module, path):
    # as Tracer.install finds it: a method in its class's own namespace, a
    # function as a module attribute
    owner = importlib.import_module(module)
    *cls, attr = path.split(".")
    if cls:
        owner = getattr(owner, cls[0])
        assert attr in vars(owner), f"{module}.{path}"
    else:
        assert callable(getattr(owner, attr)), f"{module}.{path}"


def test_every_family_and_correspondence_span_resolves():
    from finsem import monads, transformers

    families = [cls for cls in vars(monads).values()
                if isinstance(cls, type) and issubclass(cls, monads.MonadFamily)]
    for methods in spans.FAMILY_SPANS.values():
        for attr in methods:
            assert any(attr in vars(cls) for cls in families), attr
    for fields in spans.CORRESPONDENCE_SPANS.values():
        for corr in transformers.REGISTRY.values():
            for attr in fields:
                assert hasattr(corr, attr), (corr.id, attr)


def library_reads(path):
    """(module, name) of each ``module.name`` read in path, where module is a
    finsem submodule's name, and of each name imported from finsem."""
    package = Path(importlib.import_module("finsem").__file__).parent
    submodules = {p.stem for p in package.glob("*.py")}
    reads = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in submodules:
            reads.add((node.value.id, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "finsem":
            reads.update((node.module, alias.name) for alias in node.names)
    return reads


@pytest.mark.parametrize("path", [workloads.__file__, spans.__file__, BENCH / "run.py",
                                  BENCH / "record.py"], ids=lambda p: Path(p).stem)
def test_every_library_name_the_benchmark_reads_exists(path):
    reads = library_reads(Path(path))
    if path == workloads.__file__:
        assert {("order", "FinSet"), ("gcl", "denote"), ("monads", "FAMILIES")} <= reads
    for module, attr in sorted(reads):
        owner = importlib.import_module(module if module.startswith("finsem")
                                        else f"finsem.{module}")
        assert hasattr(owner, attr), f"{module}.{attr}"
