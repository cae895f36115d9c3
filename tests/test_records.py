"""Every record compares, hashes and prints by its fields, in declaration order:
the text, the hashes, and so set and dict order and the CLI's output, are those
of the frozen (or, for the two reports, mutable) dataclasses the records replace."""

import copy
import importlib
import inspect
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import finsem
from finsem import gcl
from finsem.check import Check, FrozenInstanceError, Record, Report
from finsem.effects import (
    EffectAlgebraInstance,
    FuzzyPredicate,
    MvOps,
    mv_ops,
    powerset_effect_algebra,
)
from finsem.errors import NotMonotone, UnknownElement
from finsem.monads import (
    DIST,
    DOWNSET,
    POWERSET,
    Expectation,
    FilterOf,
    LensPair,
    MonadInstance,
    expectation_embed,
    powerset,
)
from finsem.order import (
    FinSet,
    MonotoneMap,
    PlotkinAlgebra,
    SubsetOf,
    atom_repr,
    chain,
    make_poset,
    upsets,
)
from finsem.transformers import BOX, Correspondence
from finsem.triangle import CertifyReport, EMAlgebraCandidate, KleisliArrow, kleisli_compose

CHAIN = chain((0, 1))
VEE = make_poset([0, 1, 2], [(0, 1), (0, 2)])
LATTICE = upsets(CHAIN)
SET = FinSet([0, 1])


def _algebra():
    return PlotkinAlgebra.over(CHAIN)


# class -> (a sample, the fields it shows and compares, in order)
SAMPLES = {
    Check: (lambda: Check("law", "exhaustive", 3, 1, "x=0", (2,)),
            ("law", "mode", "checked", "mismatches", "witness", "objects")),
    Report: (lambda: Report("suite", 7, [Check("law", "exhaustive", 3, 0)]),
             ("name", "seed", "cases")),
    FuzzyPredicate: (lambda: FuzzyPredicate(SET, (Fraction(1, 3), 1)), ("carrier", "values")),
    MvOps: (lambda: mv_ops(Fraction(1, 3), Fraction(1, 2)), ("plus", "minus", "join", "meet")),
    EffectAlgebraInstance: (lambda: powerset_effect_algebra(SET), (
        "name", "elements", "ovee", "orth", "zero", "scalar", "scalar_grid")),
    MonadInstance: (lambda: powerset(SET), ("family", "obj")),
    FilterOf: (lambda: FilterOf(LATTICE, {frozenset({1}), frozenset({0, 1})}),
               ("ambient", "members")),
    LensPair: (lambda: LensPair(VEE, {0, 1, 2}, {1}), ("base", "outer", "inner")),
    Expectation: (lambda: expectation_embed(DIST.unit(SET, 1)), ("carrier", "fn")),
    SubsetOf: (lambda: SubsetOf(VEE, {1, 2}, "upset"), ("ambient", "members", "kind")),
    MonotoneMap: (lambda: MonotoneMap(VEE, CHAIN, (0, 1, 1)), ("dom", "cod", "graph")),
    PlotkinAlgebra: (_algebra, ("frame", "poset")),
    Correspondence: (lambda: BOX, ("id", "forward", "backward", "iter_computations",
                                   "iter_transformers", "family")),
    KleisliArrow: (lambda: KleisliArrow(POWERSET, SET, SET, (frozenset({1}), frozenset())),
                   ("family", "dom", "cod", "graph")),
    EMAlgebraCandidate: (lambda: EMAlgebraCandidate.from_dict(
        POWERSET, FinSet([0]), {frozenset(): 0, frozenset({0}): 0}), ("family", "carrier", "alpha")),
    CertifyReport: (lambda: CertifyReport("box", 4, 4, True), (
        "correspondence", "kleisli_count", "transformer_count", "bijection", "counterexample")),
    # syntax nodes, whose position is hidden
    gcl.Lit: (lambda: gcl.Lit(Fraction(1, 3), (1, 5)), ("value",)),
    gcl.Var: (lambda: gcl.Var("x", (2, 1)), ("name",)),
    gcl.Unary: (lambda: gcl.Unary("-", gcl.Var("x"), (1, 1)), ("op", "arg")),
    gcl.Bin: (lambda: gcl.Bin("+", gcl.Var("x"), gcl.Lit(1), (1, 3)), ("op", "left", "right")),
    gcl.Iverson: (lambda: gcl.Iverson(gcl.Lit(True), (1, 1)), ("cond",)),
}
MUTABLE = (Report, CertifyReport)
CLASSES = list(SAMPLES)

# the reprs of the dataclasses these records replace, recorded from them
PINNED_REPRS = {
    Check: "Check(law='law', mode='exhaustive', checked=3, mismatches=1, witness='x=0', "
           "objects=(2,))",
    Report: "Report(name='suite', seed=7, cases=[Check(law='law', mode='exhaustive', "
            "checked=3, mismatches=0, witness=None, objects=())])",
    FuzzyPredicate: "FuzzyPredicate(carrier=FinSet([0, 1]), "
                    "values=(Fraction(1, 3), Fraction(1, 1)))",
    MvOps: "MvOps(plus=Fraction(5, 6), minus=Fraction(0, 1), join=Fraction(1, 2), "
           "meet=Fraction(1, 3))",
    MonadInstance: "MonadInstance(family=<monad powerset>, obj=FinSet([0, 1]))",
    KleisliArrow: "KleisliArrow(family=<monad powerset>, dom=FinSet([0, 1]), "
                  "cod=FinSet([0, 1]), graph=(frozenset({1}), frozenset()))",
    EMAlgebraCandidate: "EMAlgebraCandidate(family=<monad powerset>, carrier=FinSet([0]), "
                        "alpha=(0, 0))",
    CertifyReport: "CertifyReport(correspondence='box', kleisli_count=4, transformer_count=4, "
                   "bijection=True, counterexample=None)",
}

# atom_repr, which renders failing-law witnesses and certify counterexamples,
# as recorded from the dataclasses; their repr is the same text
PINNED_ATOM_REPRS = {
    SubsetOf: "SubsetOf(ambient=FinPoset([0, 1, 2], covers=[(0, 1), (0, 2)]), "
              "members=frozenset({1, 2}), kind='upset')",
    LensPair: "LensPair(base=FinPoset([0, 1, 2], covers=[(0, 1), (0, 2)]), "
              "outer=frozenset({0, 1, 2}), inner=frozenset({1}))",
    FilterOf: "FilterOf(ambient=FinPoset([frozenset(), frozenset({1}), frozenset({0, 1})], "
              "covers=[(frozenset(), frozenset({1})), (frozenset({1}), frozenset({0, 1}))]), "
              "members=frozenset({frozenset({1}), frozenset({0, 1})}))",
    MonotoneMap: "MonotoneMap(dom=FinPoset([0, 1, 2], covers=[(0, 1), (0, 2)]), "
                 "cod=FinPoset([0, 1], covers=[(0, 1)]), graph=(0, 1, 1))",
    PlotkinAlgebra: "PlotkinAlgebra(frame=FinPoset([0, 1], covers=[(0, 1)]), "
                    "poset=FinPoset([(0, 0), (1, 0), (1, 1)], "
                    "covers=[((0, 0), (1, 0)), ((1, 0), (1, 1))]))",
}


def ids(cls):
    return cls.__qualname__


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_repr_lists_the_shown_fields_in_order(cls):
    build, fields = SAMPLES[cls]
    r = build()
    assert type(r) is cls
    shown = ", ".join(f"{f}={getattr(r, f)!r}" for f in fields)
    assert repr(r) == f"{cls.__qualname__}({shown})"


@pytest.mark.parametrize("cls", list(PINNED_REPRS), ids=ids)
def test_repr_is_pinned(cls):
    assert repr(SAMPLES[cls][0]()) == PINNED_REPRS[cls]


@pytest.mark.parametrize("cls", list(PINNED_ATOM_REPRS), ids=ids)
def test_atom_repr_is_pinned(cls):
    r = SAMPLES[cls][0]()
    assert atom_repr(r) == PINNED_ATOM_REPRS[cls]
    if cls is not FilterOf:  # whose repr lists its members in hash order
        assert repr(r) == PINNED_ATOM_REPRS[cls]


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_hash_is_that_of_the_compared_fields(cls):
    build, fields = SAMPLES[cls]
    r = build()
    if cls in MUTABLE:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == hash(tuple(getattr(r, f) for f in fields))


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_equal_only_to_the_same_class(cls):
    build, fields = SAMPLES[cls]
    r = build()
    values = {f: getattr(r, f) for f in cls._fields}
    assert r == cls(**values) and not r != cls(**values)
    twin = type("Twin", (cls,), {"__slots__": ()})(**values)
    assert r != twin and twin != r
    assert r != tuple(getattr(r, f) for f in fields)


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_fields_are_frozen_unless_mutable(cls):
    r = SAMPLES[cls][0]()
    for name in cls._fields:
        if cls in MUTABLE:
            setattr(r, name, getattr(r, name))
            continue
        with pytest.raises(FrozenInstanceError):
            setattr(r, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(r, name)
    with pytest.raises(AttributeError):
        r.extra = 1  # slotted: no other attribute
    assert issubclass(FrozenInstanceError, AttributeError)


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_keyword_and_positional_construction_agree(cls):
    r = SAMPLES[cls][0]()
    values = [getattr(r, f) for f in cls._fields]
    by_position, by_keyword = cls(*values), cls(**dict(zip(cls._fields, values)))
    assert by_position == r == by_keyword
    assert [getattr(by_keyword, f) for f in cls._fields] == values
    half = len(values) // 2
    mixed = cls(*values[:half], **dict(zip(cls._fields[half:], values[half:])))
    assert mixed == r
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, **{cls._fields[0]: values[0]})
    with pytest.raises(TypeError):
        cls(**dict(zip(cls._fields, values)), nonsense=1)


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_copies_are_equal_records(cls):
    r = SAMPLES[cls][0]()
    assert copy.copy(r) == r and repr(copy.deepcopy(r)) == repr(r)
    # a function is equal only to itself, and pickle refuses a lambda
    if not {"fn", "forward", "ovee"} & set(cls._fields):
        assert pickle.loads(pickle.dumps(r)) == r


@pytest.mark.parametrize("cls", [KleisliArrow, MonadInstance, EMAlgebraCandidate,
                                 Correspondence], ids=ids)
def test_copies_keep_the_registered_monad_family(cls):
    r = SAMPLES[cls][0]()
    copies = [copy.copy(r), copy.deepcopy(r)]
    if cls is not Correspondence:  # its transposes are lambdas, which pickle refuses
        copies.append(pickle.loads(pickle.dumps(r)))
    for c in copies:
        assert c == r and c.family is r.family
    if cls is KleisliArrow:
        assert kleisli_compose(copies[1], r) == kleisli_compose(r, r)


def test_defaults_fill_the_last_fields():
    assert Check("law", "exhaustive", 1, 0) == Check("law", "exhaustive", 1, 0, None, ())
    assert SubsetOf(SET, {0}).kind == "plain"
    assert CertifyReport("box", 1, 1, True).counterexample is None
    assert powerset_effect_algebra(SET).scalar is None
    assert Correspondence("c", *[None] * 4).family is None
    first, second = Report("a"), Report("a")
    assert first.seed is None and first.cases == [] and first.cases is not second.cases
    with pytest.raises(TypeError):
        Check("law", "exhaustive", 1)


def test_hidden_sums_are_outside_equality_hashing_and_repr():
    alg = _algebra()
    other = PlotkinAlgebra(alg.frame, alg.poset, ())
    assert other == alg and hash(other) == hash(alg)
    assert repr(other) == repr(alg) and "sums" not in repr(alg)
    assert "sums" not in atom_repr(alg)


def test_validation_runs_on_every_construction():
    with pytest.raises(NotMonotone):
        MonotoneMap(CHAIN, CHAIN, (1, 0))
    with pytest.raises(NotMonotone):
        KleisliArrow(DOWNSET, VEE, CHAIN, (frozenset({0, 1}), frozenset(), frozenset()))
    with pytest.raises(UnknownElement, match="not a powerset element"):
        KleisliArrow(POWERSET, SET, SET, (frozenset({5}), frozenset()))


def test_trusted_builders_skip_validation_and_make_equal_records():
    assert MonotoneMap._trusted(CHAIN, CHAIN, (1, 0)).graph == (1, 0)
    assert KleisliArrow._trusted(POWERSET, SET, SET, (frozenset({5}),) * 2).graph[0] == {5}
    m = MonotoneMap._trusted(VEE, CHAIN, (0, 1, 1))
    assert m == MonotoneMap(VEE, CHAIN, (0, 1, 1)) and hash(m) == hash(SAMPLES[MonotoneMap][0]())
    graph = (frozenset({1}), frozenset())
    f = KleisliArrow._trusted(POWERSET, SET, SET, graph)
    assert f == SAMPLES[KleisliArrow][0]() and repr(f) == repr(SAMPLES[KleisliArrow][0]())
    with pytest.raises(FrozenInstanceError):
        f.graph = ()


def record_classes():
    """Every record class the package defines, Record itself left out."""
    modules = [importlib.import_module(f"finsem.{path.stem}")
               for path in Path(finsem.__file__).parent.glob("*.py") if path.stem != "__main__"]
    return {value for module in modules for value in vars(module).values()
            if isinstance(value, type) and issubclass(value, Record) and value is not Record
            and value.__module__ == module.__name__}


def test_written_out_constructors_take_the_fields_in_order():
    # __reduce__, and so copy and pickle, pass the fields to the constructor in
    # _fields order; each such class has a sample above, whose copies are tested
    written = {cls for cls in record_classes() if "__init__" in vars(cls)}
    assert {Check, MonotoneMap, KleisliArrow, gcl.Lit, gcl.Bin} <= written <= set(SAMPLES)
    for cls in written:
        assert list(inspect.signature(cls.__init__).parameters)[1:] == list(cls._fields), cls
