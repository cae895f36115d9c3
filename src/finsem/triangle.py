"""Kleisli machinery: arrows, composition, state transformers, law suites.

Multiplication is deliberately absent as a primitive; it is recovered as the
extension of the identity arrow wherever a test needs it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Optional

from .errors import (
    CarrierMismatch,
    MonadMismatch,
    NotMonotone,
    TooLarge,
    UnknownElement,
)
from .monads import MonadFamily
from .order import enumerate_structure_maps

DEFAULT_ARROW_BUDGET = 300_000
# Law suites: composable arrow pairs checked exhaustively before sampling, the
# draws per sampled case, and the draws allowed per sampled monotone arrow.
DEFAULT_PAIR_BUDGET = 70_000
LAW_SAMPLES = 400
MAX_SAMPLE_TRIES = 100_000


@dataclass(frozen=True)
class KleisliArrow:
    """A computation: a map from a carrier into the structure over another.

    For poset-based monads the map must be monotone into the structure
    order; this is verified at construction, as is membership of every
    image element.
    """

    family: MonadFamily
    dom: object
    cod: object
    graph: tuple

    def __post_init__(self):
        self.family.check_object(self.dom)
        self.family.check_object(self.cod)
        elems = self.dom.carrier.elements
        if len(self.graph) != len(elems):
            raise CarrierMismatch("arrow graph does not cover its domain")
        for t in self.graph:
            if not self.family.contains(self.cod, t):
                raise UnknownElement(
                    f"image {t!r} is not a {self.family.name} element"
                )
        if self.family.base == "poset":
            for i, x in enumerate(elems):
                for j, y in enumerate(elems):
                    if self.dom.leq(x, y) and not self.family.leq(
                        self.cod, self.graph[i], self.graph[j]
                    ):
                        raise NotMonotone(
                            f"arrow is not monotone at {x!r} <= {y!r}"
                        )

    @classmethod
    def from_dict(cls, family, dom, cod, mapping):
        return cls(family, dom, cod, tuple(mapping[x] for x in dom.carrier.elements))

    @classmethod
    def from_callable(cls, family, dom, cod, fn):
        return cls(family, dom, cod, tuple(fn(x) for x in dom.carrier.elements))

    @classmethod
    def unit_arrow(cls, family, obj):
        return cls.from_callable(family, obj, obj, lambda x: family.unit(obj, x))

    def __call__(self, x):
        return self.graph[self.dom.carrier.index(x)]

    def as_dict(self):
        return dict(zip(self.dom.carrier.elements, self.graph))


def bind_apply(arrow, t):
    """Kleisli extension of an arrow applied to one structure element."""
    return arrow.family.extend(arrow.dom, arrow.cod, arrow, t)


def kleisli_compose(g, f):
    """Sequential composition g after f (f runs first)."""
    if g.family is not f.family:
        raise MonadMismatch(f"{f.family.name} vs {g.family.name}")
    if f.cod != g.dom:
        raise CarrierMismatch("middle objects of the composition differ")
    return KleisliArrow.from_callable(
        f.family, f.dom, g.cod, lambda x: bind_apply(g, f(x))
    )


def stat_functor(arrow):
    """The extension of an arrow as a total table on the enumerated structure."""
    elems = arrow.family.elements(arrow.dom)
    return {t: bind_apply(arrow, t) for t in elems}


def multiplication(family, obj):
    """Structure flattening as a table, via the identity arrow."""
    inner = family.space_object(obj)
    ident = KleisliArrow.from_callable(family, inner, obj, lambda t: t)
    return stat_functor(ident)


# -- Eilenberg-Moore algebra checking ------------------------------------------------


@dataclass(frozen=True)
class EMAlgebraCandidate:
    """A candidate structure map alpha from the monad structure to a carrier."""

    family: MonadFamily
    carrier: object
    alpha: tuple  # aligned with family.elements(carrier)

    def table(self):
        return dict(zip(self.family.elements(self.carrier), self.alpha))

    @classmethod
    def from_dict(cls, family, carrier, mapping):
        return cls(
            family, carrier, tuple(mapping[t] for t in family.elements(carrier))
        )


@dataclass
class CheckRow:
    law: str
    ok: bool
    witness: Optional[str] = None


@dataclass
class AlgebraReport:
    rows: list

    @property
    def ok(self):
        return all(r.ok for r in self.rows)

    def summary(self):
        return "\n".join(
            f"  {'ok ' if r.ok else 'FAIL'} {r.law}" + (f"  [{r.witness}]" if r.witness else "")
            for r in self.rows
        )


def check_em_algebra(candidate):
    """Verify the unit and multiplication laws of an algebra candidate."""
    family = candidate.family
    carrier = candidate.carrier
    alpha = candidate.table()
    base = carrier.carrier
    rows = []

    ok, wit = True, None
    for t, v in alpha.items():
        if v not in base:
            ok, wit = False, f"alpha({t!r}) leaves the carrier"
            break
    rows.append(CheckRow("alpha is a map into the carrier", ok, wit))
    if not ok:
        return AlgebraReport(rows)

    if family.base == "poset":
        ok, wit = True, None
        for s in alpha:
            for t in alpha:
                if family.leq(carrier, s, t) and not carrier.leq(alpha[s], alpha[t]):
                    ok, wit = False, f"s={s!r} t={t!r}"
                    break
            if not ok:
                break
        rows.append(CheckRow("alpha is monotone", ok, wit))

    ok, wit = True, None
    for x in base:
        if alpha[family.unit(carrier, x)] != x:
            ok, wit = False, f"x={x!r}"
            break
    rows.append(CheckRow("alpha . unit = id", ok, wit))

    # alpha . T(alpha) = alpha . mu, over the doubly built structure
    inner = family.space_object(carrier)
    mu = multiplication(family, carrier)
    ok, wit = True, None
    for theta in family.elements(inner):
        mapped = family.functor_map(inner, carrier, lambda t: alpha[t], theta)
        if alpha[mapped] != alpha[mu[theta]]:
            ok, wit = False, f"theta={theta!r}"
            break
    rows.append(CheckRow("alpha . T(alpha) = alpha . mu", ok, wit))
    return AlgebraReport(rows)


# -- arrow enumeration ----------------------------------------------------------------


def _structure_elements(family, obj, probe_max_den=4):
    if family.enumerable:
        return family.elements(obj)
    return family.probe_elements(obj, probe_max_den)


def iter_kleisli_arrows(family, dom, cod, budget=DEFAULT_ARROW_BUDGET, probe_max_den=4):
    """All arrows dom -> T(cod), or all probe arrows for the probabilistic monads."""
    targets = _structure_elements(family, cod, probe_max_den)
    bound = max(len(targets), 1) ** len(dom)
    if bound > budget:
        raise TooLarge(f"{bound} candidate arrows exceed the budget {budget}")
    if family.base == "poset":
        space = family.space_poset(cod)
        maps = enumerate_structure_maps(dom, space, "monotone", budget)
        return tuple(
            KleisliArrow(family, dom, cod, m.graph) for m in maps
        )
    return tuple(
        KleisliArrow(family, dom, cod, graph)
        for graph in itertools.product(targets, repeat=len(dom))
    )


def random_kleisli_arrow(family, dom, cod, rng, probe_max_den=4):
    targets = _structure_elements(family, cod, probe_max_den)
    for _ in range(MAX_SAMPLE_TRIES):
        graph = tuple(rng.choice(targets) for _ in dom.carrier.elements)
        try:
            return KleisliArrow(family, dom, cod, graph)
        except NotMonotone:
            continue
    raise TooLarge("could not sample a monotone arrow; space too sparse")


# -- monad law suite --------------------------------------------------------------------


@dataclass
class LawCase:
    objects: tuple
    law: str
    mode: str
    checked: int
    ok: bool
    witness: Optional[str] = None


@dataclass
class LawReport:
    monad: str
    seed: int
    cases: list = field(default_factory=list)

    @property
    def ok(self):
        return all(c.ok for c in self.cases)

    def checked_total(self):
        return sum(c.checked for c in self.cases)

    def summary(self):
        lines = [f"monad {self.monad}: {'PASS' if self.ok else 'FAIL'} "
                 f"({self.checked_total()} instances, seed {self.seed})"]
        for c in self.cases:
            if not c.ok:
                lines.append(
                    f"  FAIL {c.law} on {c.objects} [{c.mode}]: {c.witness}"
                )
        return "\n".join(lines)


def _graph_extend(family, dom, cod, graph_by_elem, t):
    return family.extend(dom, cod, lambda x: graph_by_elem[x], t)


def check_monad_laws(family, objects, *, seed=20_240_401, probe_max_den=4):
    """Exhaustive-or-sampled verification of the unit and associativity laws.

    Enumeration is exhaustive whenever the relevant arrow space fits in the
    budget; otherwise a seeded sample is drawn and the report records the
    sampled mode together with the seed.
    """
    rng = random.Random(seed)
    report = LawReport(monad=family.name, seed=seed)

    arrow_lists = {}

    def arrows(dom, cod):
        key = (dom, cod)
        if key not in arrow_lists:
            try:
                arrow_lists[key] = ("exhaustive", iter_kleisli_arrows(
                    family, dom, cod, DEFAULT_ARROW_BUDGET, probe_max_den))
            except TooLarge:
                sample = tuple(
                    random_kleisli_arrow(family, dom, cod, rng, probe_max_den)
                    for _ in range(LAW_SAMPLES)
                )
                arrow_lists[key] = ("sampled", sample)
        return arrow_lists[key]

    # unit laws -----------------------------------------------------------
    for dom, cod in itertools.product(objects, repeat=2):
        mode, fs = arrows(dom, cod)
        ok, wit, n = True, None, 0
        for f in fs:
            fd = f.as_dict()
            for x in dom.carrier:
                n += 1
                if _graph_extend(family, dom, cod, fd, family.unit(dom, x)) != f(x):
                    ok, wit = False, f"f={fd!r} x={x!r}"
                    break
            if not ok:
                break
        report.cases.append(LawCase(
            (len(dom), len(cod)), "extend(f)(unit(x)) = f(x)", mode, n, ok, wit))

    for obj in objects:
        eta = {x: family.unit(obj, x) for x in obj.carrier}
        ok, wit, n = True, None, 0
        for t in _structure_elements(family, obj, probe_max_den):
            n += 1
            if _graph_extend(family, obj, obj, eta, t) != t:
                ok, wit = False, f"t={t!r}"
                break
        report.cases.append(LawCase(
            (len(obj),), "extend(unit)(t) = t", "exhaustive", n, ok, wit))

    # associativity ---------------------------------------------------------
    for mid, right, far in itertools.product(objects, repeat=3):
        gmode, gs = arrows(mid, right)
        hmode, hs = arrows(right, far)
        ts = _structure_elements(family, mid, probe_max_den)
        if not gs or not hs or not ts:
            continue
        total_pairs = len(gs) * len(hs)
        exhaustive = (
            gmode == hmode == "exhaustive" and total_pairs <= DEFAULT_PAIR_BUDGET
        )
        mode = "exhaustive" if exhaustive else f"sampled({LAW_SAMPLES})"
        ok, wit, n = True, None, 0
        if exhaustive:
            tables_h = {}
            for h in hs:
                hd = h.as_dict()
                tables_h[h.graph] = (hd, {
                    t: _graph_extend(family, right, far, hd, t)
                    for t in _structure_elements(family, right, probe_max_den)
                })
            composite_tables = {}
            for g in gs:
                gd = g.as_dict()
                table_g = {t: _graph_extend(family, mid, right, gd, t) for t in ts}
                for h in hs:
                    hd, th = tables_h[h.graph]
                    comp = {x: th[gd[x]] for x in mid.carrier}
                    key = tuple(comp[x] for x in mid.carrier.elements)
                    if key not in composite_tables:
                        composite_tables[key] = {
                            t: _graph_extend(family, mid, far, comp, t) for t in ts
                        }
                    ctab = composite_tables[key]
                    for t in ts:
                        n += 1
                        mid_val = table_g[t]
                        # the bind of a probe arrow can leave the probe set
                        lhs = th[mid_val] if mid_val in th else _graph_extend(
                            family, right, far, hd, mid_val)
                        if lhs != ctab[t]:
                            ok, wit = False, f"g={gd!r} h={hd!r} t={t!r}"
                            break
                    if not ok:
                        break
                if not ok:
                    break
        else:
            for _ in range(LAW_SAMPLES):
                g = gs[rng.randrange(len(gs))]
                h = hs[rng.randrange(len(hs))]
                gd, hd = g.as_dict(), h.as_dict()
                comp = {
                    x: _graph_extend(family, right, far, hd, gd[x])
                    for x in mid.carrier
                }
                t = ts[rng.randrange(len(ts))]
                n += 1
                lhs = _graph_extend(
                    family, right, far, hd,
                    _graph_extend(family, mid, right, gd, t),
                )
                if lhs != _graph_extend(family, mid, far, comp, t):
                    ok, wit = False, f"g={gd!r} h={hd!r} t={t!r}"
                    break
        report.cases.append(LawCase(
            (len(mid), len(right), len(far)),
            "extend(h)(extend(g)(t)) = extend(h after g)(t)",
            mode, n, ok, wit))

    return report


# -- full-and-faithfulness certification ---------------------------------------------


@dataclass
class CertifyReport:
    correspondence: str
    kleisli_count: int
    transformer_count: int
    bijection: bool
    counterexample: Optional[str] = None

    def to_json_dict(self):
        out = {
            "correspondence": self.correspondence,
            "kleisli_count": self.kleisli_count,
            "transformer_count": self.transformer_count,
            "bijection": self.bijection,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def certify_full_faithful(correspondence, x, y, budget=DEFAULT_ARROW_BUDGET):
    """Certify the computation/transformer bijection by double enumeration.

    The forward transpose must hit every enumerated structure-preserving
    transformer exactly once; counts, injectivity, and surjectivity are all
    checked, and any discrepancy is reported with a witness.
    """
    comps = tuple(correspondence.iter_computations(x, y, budget))
    trans = tuple(correspondence.iter_transformers(x, y, budget))
    images = [correspondence.forward(c, x, y) for c in comps]
    counter = None
    seen = {}
    for c, img in zip(comps, images):
        if img in seen:
            counter = f"transpose collision on {c!r} and {seen[img]!r}"
            break
        seen[img] = c
    missing = set(trans) - set(images)
    extra = set(images) - set(trans)
    if counter is None and missing:
        counter = f"transformer never hit: {next(iter(missing))!r}"
    if counter is None and extra:
        counter = f"transpose image is not structure-preserving: {next(iter(extra))!r}"
    bijection = (
        len(comps) == len(trans)
        and counter is None
    )
    return CertifyReport(
        correspondence=correspondence.id,
        kleisli_count=len(comps),
        transformer_count=len(trans),
        bijection=bijection,
        counterexample=counter,
    )
