"""Kleisli machinery: arrows, composition, state transformers, law suites.

Multiplication is deliberately absent as a primitive; it is recovered as the
extension of the identity arrow wherever a test needs it.
"""

from __future__ import annotations

import itertools
import random
from functools import partial
from operator import itemgetter

from .check import Frozen, Record, Report, first_counterexample
from .errors import (
    CarrierMismatch,
    MonadMismatch,
    NotMonotone,
    TooLarge,
    UnknownElement,
)
from .kernel import atom_repr
from .order import monotone_graphs, monotone_violation

DEFAULT_ARROW_BUDGET = 300_000
# Law suites: composable arrow pairs checked exhaustively before sampling, the
# draws per sampled case, and the draws allowed per sampled monotone arrow.
DEFAULT_PAIR_BUDGET = 70_000
LAW_SAMPLES = 400
MAX_SAMPLE_TRIES = 100_000


# sets a field of a frozen record
_set = object.__setattr__


class KleisliArrow(Frozen):
    """A computation: a map from a carrier into the structure over another.

    For poset-based monads the map must be monotone into the structure
    order; this is verified at construction, by the same pair walk as
    order.MonotoneMap, as is membership of every image element.
    """

    __slots__ = _fields = ("family", "dom", "cod", "graph")

    # Arrows are built and compared in the enumerators' inner loops, so the
    # record's methods are written out here, field by field.
    def __init__(self, family, dom, cod, graph):
        _set(self, "family", family)
        _set(self, "dom", dom)
        _set(self, "cod", cod)
        _set(self, "graph", graph)
        self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.family, self.dom, self.cod, self.graph)
                    == (other.family, other.dom, other.cod, other.graph))
        return NotImplemented

    def __hash__(self):
        return hash((self.family, self.dom, self.cod, self.graph))

    def __post_init__(self):
        self.family.check_object(self.dom)
        self.family.check_object(self.cod)
        elems = self.dom.carrier.elements
        if len(self.graph) != len(elems):
            raise CarrierMismatch("arrow graph does not cover its domain")
        for t in self.graph:
            if not self.family.contains(self.cod, t):
                raise UnknownElement(
                    f"image {atom_repr(t)} is not a {self.family.name} element"
                )
        if self.family.base == "poset":
            bad = monotone_violation(self.dom, partial(self.family.leq, self.cod), self.graph)
            if bad:
                x, y = map(atom_repr, bad[:2])
                raise NotMonotone(f"arrow is not monotone at {x} <= {y}")

    @classmethod
    def _trusted(cls, family, dom, cod, graph):
        """An arrow whose enumerator guarantees what __post_init__ checks: not checked again."""
        f = object.__new__(cls)
        _set(f, "family", family)
        _set(f, "dom", dom)
        _set(f, "cod", cod)
        _set(f, "graph", graph)
        return f

    @classmethod
    def from_dict(cls, family, dom, cod, mapping):
        return cls(family, dom, cod, tuple(mapping[x] for x in dom.carrier.elements))

    @classmethod
    def from_callable(cls, family, dom, cod, fn):
        return cls(family, dom, cod, tuple(fn(x) for x in dom.carrier.elements))

    def __call__(self, x):
        return self.graph[self.dom.carrier.index(x)]

    def as_dict(self):
        return dict(zip(self.dom.carrier.elements, self.graph))


def bind_apply(arrow, t):
    """Kleisli extension of an arrow applied to one structure element."""
    return arrow.family.extend(arrow.dom, arrow.cod, arrow.graph, t)


def kleisli_compose(g, f):
    """Sequential composition g after f (f runs first)."""
    if g.family is not f.family:
        raise MonadMismatch(f"{f.family.name} vs {g.family.name}")
    if f.cod != g.dom:
        raise CarrierMismatch("middle objects of the composition differ")
    return KleisliArrow(f.family, f.dom, g.cod, tuple(bind_apply(g, t) for t in f.graph))


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


class EMAlgebraCandidate(Frozen):
    """A candidate structure map alpha from the monad structure to a carrier;
    alpha is aligned with family.elements(carrier)."""

    __slots__ = _fields = ("family", "carrier", "alpha")

    def table(self):
        return dict(zip(self.family.elements(self.carrier), self.alpha))

    @classmethod
    def from_dict(cls, family, carrier, mapping):
        return cls(
            family, carrier, tuple(mapping[t] for t in family.elements(carrier))
        )


def check_em_algebra(candidate):
    """Verify the unit and multiplication laws of an algebra candidate."""
    family = candidate.family
    carrier = candidate.carrier
    alpha = candidate.table()
    base = carrier.carrier
    report = Report(f"algebra {family.name}")

    def law(name, verdicts):
        report.cases.append(first_counterexample(name, verdicts))
        return report.cases[-1].ok

    if not law("alpha is a map into the carrier", (
            None if v in base else f"alpha({atom_repr(t)}) leaves the carrier"
            for t, v in alpha.items())):
        return report
    if family.base == "poset":
        law("alpha is monotone", (
            f"s={atom_repr(s)} t={atom_repr(t)}"
            if family.leq(carrier, s, t) and not carrier.leq(alpha[s], alpha[t]) else None
            for s in alpha for t in alpha))
    law("alpha . unit = id", (None if alpha[family.unit(carrier, x)] == x else f"x={atom_repr(x)}"
                              for x in base))

    # alpha . T(alpha) = alpha . mu, over the doubly built structure
    inner = family.space_object(carrier)
    mu = multiplication(family, carrier)
    law("alpha . T(alpha) = alpha . mu", (
        None if alpha[family.functor_map(inner, carrier, alpha.__getitem__, theta)]
        == alpha[mu[theta]] else f"theta={atom_repr(theta)}"
        for theta in family.elements(inner)))
    return report


# -- arrow enumeration ----------------------------------------------------------------


def _structure_elements(family, obj, probe_max_den=4):
    if family.enumerable:
        return family.elements(obj)
    return family.probe_elements(obj, probe_max_den)


def _checked_targets(family, dom, cod, targets):
    """The targets, each checked once, as are dom and cod; T(cod) or its probe set if None."""
    family.check_object(dom)
    family.check_object(cod)
    if targets is None:
        return _structure_elements(family, cod)
    if bad := [t for t in targets if not family.contains(cod, t)]:
        raise UnknownElement(f"target {atom_repr(bad[0])} is not a {family.name} element")
    return targets


def iter_kleisli_arrows(family, dom, cod, budget=DEFAULT_ARROW_BUDGET, targets=None):
    """All arrows dom -> T(cod), or all probe arrows for the probabilistic monads.

    ``targets`` is T(cod), or its probe set, when the caller has built it.
    Poset-family arrows are the monotone graphs into T(cod); they need dom and
    T(cod) within MAX_POSET_SIZE = 8 (else TooLarge, whatever the budget: why
    most plotkin suites on 3 points sample).  dom, cod and each given target
    are checked once per call, and every arrow is built trusted.
    """
    targets = _checked_targets(family, dom, cod, targets)
    bound = max(len(targets), 1) ** len(dom)
    if bound > budget:
        raise TooLarge(f"{bound} candidate arrows exceed the budget {budget}")
    if family.base == "poset":
        graphs = monotone_graphs(dom, family.space_poset(cod), budget)
    else:
        graphs = itertools.product(targets, repeat=len(dom))
    return tuple(KleisliArrow._trusted(family, dom, cod, graph) for graph in graphs)


def random_kleisli_arrow(family, dom, cod, rng, targets, count):
    """``count`` arrows dom -> T(cod), images drawn from ``targets``: T(cod) or its probe set.

    dom, cod and each target are checked once per call, each image is one ``rng.choice``,
    the pair walk alone turns a non-monotone draw away, and each arrow kept is built trusted."""
    _checked_targets(family, dom, cod, targets)
    leq = partial(family.leq, cod) if family.base == "poset" else None

    def draw():
        for _ in range(MAX_SAMPLE_TRIES):
            graph = tuple([rng.choice(targets) for _ in dom.carrier.elements])
            if leq is None or monotone_violation(dom, leq, graph) is None:
                return KleisliArrow._trusted(family, dom, cod, graph)
        raise TooLarge("could not sample a monotone arrow; space too sparse")
    return tuple([draw() for _ in range(count)])


# -- monad law suite --------------------------------------------------------------------


class _Memo(dict):
    """A function as a table, each entry computed on its first lookup."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        self[key] = value = self.fn(key)
        return value


class _Table(dict):
    """One arrow's extension ``ext``, prepared once, on hash-consed codes
    (``values[i]`` has id i): at id i, the id of ext(values[i]), on first lookup."""

    __slots__ = ("ext", "ids", "values")

    def __missing__(self, i):
        self[i] = j = self.ids[self.ext(self.values[i])]
        return j


def _getter(ids):
    """seq -> tuple(seq[i] for i in ids), as one C call where itemgetter allows."""
    if len(ids) > 1:
        return itemgetter(*ids)
    return lambda seq: tuple([seq[i] for i in ids])


def _as_bytes(ids):
    """ids as bytes, any id past 255 read as 255; sound where the bytes are
    compared only with ids below 255."""
    try:
        return bytes(ids)
    except ValueError:
        return bytes([min(i, 255) for i in ids])


def check_monad_laws(family, objects, *, seed=20_240_401, probe_max_den=4):
    """Exhaustive-or-sampled verification of the unit and associativity laws.

    Enumeration is exhaustive whenever the relevant arrow space fits in the
    budget; otherwise one seeded sample of LAW_SAMPLES arrows is drawn per
    (dom, cod), and the report records the sampled mode with the seed.

    Every walk extends codes (``family.code``: the kernel row for dist and giry,
    the element elsewhere), trusting the images the arrow enumerator or sampler
    checked.  Codes are hash-consed to int ids once per suite.  Each arrow,
    named by (dom, cod, its images' ids), prepares ``family.coded_extension``
    once and has one table, its extension as id -> id, read by both unit laws
    and by each associativity role (g, h, or a composite h after g).  Each h is
    decided for every g at once: h's table, read at the ids of all g's images and
    extensions, concatenated, gives both sides of every (g, t), the composites'
    graphs cut from the gathered images.  While the suite holds fewer than 255
    ids, each gather is one ``bytes.translate``; else one ``itemgetter``.  Only
    a failing h is searched, for the first failing (g, h, t) and its count.  An
    id carries no carrier, sound as only ids of values on one object are
    compared: the law's two sides on ``far``, and image lookups on ``right``.
    """
    rng = random.Random(seed)
    report = Report(f"monad {family.name}", seed)
    code = family.code
    values = []  # values[i] is the code with id i
    ids = _Memo(lambda c: values.append(c) or len(values) - 1)

    # T(obj), or its probe set, built once per suite, and the ids of its codes
    structures = {obj: _structure_elements(family, obj, probe_max_den) for obj in objects}
    tids = {obj: tuple([ids[code(t)] for t in ts]) for obj, ts in structures.items()}
    units = {obj: tuple([ids[code(family.unit(obj, x))] for x in obj.carrier.elements])
             for obj in objects}

    @_Memo
    def arrows(key):
        """(dom, cod) -> the mode, the arrows dom -> T(cod) and their graphs as ids."""
        dom, cod = key
        try:
            mode, fs = "exhaustive", iter_kleisli_arrows(family, dom, cod, targets=structures[cod])
        except TooLarge:
            mode, fs = "sampled", random_kleisli_arrow(
                family, dom, cod, rng, structures[cod], LAW_SAMPLES)
        return mode, fs, [tuple([ids[code(t)] for t in f.graph]) for f in fs]

    @_Memo
    def tables(key):
        """(dom, cod) -> graph -> its arrow's table (binds leave the probe set)."""
        prepare = family.coded_extension(*key)

        def table(graph):
            t = _Table()
            t.ext, t.ids, t.values = prepare([*map(values.__getitem__, graph)]), ids, values
            return t
        return _Memo(table)

    # (dom, cod) -> graph -> its arrow's extension over T(dom), from its table
    vectors = _Memo(lambda key: _Memo(
        lambda graph: tuple(map(tables[key][graph].__getitem__, tids[key[0]]))))

    # unit laws -----------------------------------------------------------
    for dom, cod in itertools.product(objects, repeat=2):
        mode, fs, graphs = arrows[dom, cod]
        elems, tabs = dom.carrier.elements, tables[dom, cod]
        report.cases.append(first_counterexample("extend(f)(unit(x)) = f(x)", (
            None if tab[u] == image else f"f={atom_repr(f.as_dict())} x={atom_repr(x)}"
            for f, graph, tab in zip(fs, graphs, map(tabs.__getitem__, graphs))
            for x, u, image in zip(elems, units[dom], graph)),
            mode, (len(dom), len(cod))))

    for obj in objects:
        eta = tables[obj, obj][units[obj]]
        report.cases.append(first_counterexample("extend(unit)(t) = t", (
            None if eta[i] == i else f"t={atom_repr(t)}"
            for t, i in zip(structures[obj], tids[obj])),
            "exhaustive", (len(obj),)))

    # associativity ---------------------------------------------------------
    def witness(g, h, t):
        return f"g={atom_repr(g.as_dict())} h={atom_repr(h.as_dict())} t={atom_repr(t)}"

    @_Memo
    def g_rows(key):
        """(mid, right) -> a getter at ``need``, the ids that every g's images and
        its extension over T(mid) hold; both, concatenated in g order, as
        positions in need; and the cuts of the images into graphs."""
        graphs, n = arrows[key][2], len(key[0])
        vecs = [*itertools.chain(*map(vectors[key].__getitem__, graphs))]
        imgs = [*itertools.chain(*graphs)]
        at = dict(zip(need := [*{*vecs, *imgs}], itertools.count()))
        return (_getter(need), [*map(at.__getitem__, vecs)], [*map(at.__getitem__, imgs)],
                [slice(i * n, i * n + n) for i in range(len(graphs))])

    # (mid, far) -> graph as bytes -> its extension vector as bytes, for the byte
    # gather, where every gathered id is below 255
    byte_vectors = _Memo(lambda key: _Memo(
        lambda graph, vector=vectors[key].__getitem__: _as_bytes(vector(tuple(graph)))))

    def exhaustive_assoc(mid, right, far, gs, hs, ts):
        at_need, vecs, imgs, cuts = g_rows[mid, right]
        # each h's table at need, which both gathers read
        outs = [*map(at_need, map(tables[right, far].__getitem__, arrows[right, far][2]))]
        if len(values) < 255:  # every id and position fits in a byte
            composites, join = byte_vectors[mid, far], b"".join
            vecs, imgs = bytes(vecs).translate, bytes(imgs).translate
            outs = [bytes(out).ljust(256) for out in outs]
        else:
            composites, join = vectors[mid, far], lambda parts: (*itertools.chain(*parts),)
            vecs, imgs = _getter(vecs), _getter(imgs)
        fails = []  # each failing h's first failing (g, h, t), as indices
        for j, out in enumerate(outs):
            got = vecs(out)
            want = join(map(composites.__getitem__, map(imgs(out).__getitem__, cuts)))
            if got != want:
                p = next(p for p, (a, b) in enumerate(zip(got, want)) if a != b)
                fails.append((p // len(ts), j, p % len(ts)))
        if fails:
            i, j, k = min(fails)
            yield (i * len(hs) + j) * len(ts) + k
            yield witness(gs[i], hs[j], ts[k])
        else:
            yield len(gs) * len(hs) * len(ts)

    def sampled_assoc(mid, right, far, gs, hs, ts):
        ggs, hgs, tc = arrows[mid, right][2], arrows[right, far][2], tids[mid]
        gtabs, htabs, ctabs = tables[mid, right], tables[right, far], tables[mid, far]
        for _ in range(LAW_SAMPLES):
            i, j, k = rng.randrange(len(gs)), rng.randrange(len(hs)), rng.randrange(len(ts))
            th, gg, c = htabs[hgs[j]], ggs[i], tc[k]
            yield None if th[gtabs[gg][c]] == ctabs[tuple(map(th.__getitem__, gg))][c] else (
                witness(gs[i], hs[j], ts[k]))

    for mid, right, far in itertools.product(objects, repeat=3):
        gmode, gs, _ = arrows[mid, right]
        hmode, hs, _ = arrows[right, far]
        ts = structures[mid]
        if not gs or not hs or not ts:
            continue
        exhaustive = (
            gmode == hmode == "exhaustive" and len(gs) * len(hs) <= DEFAULT_PAIR_BUDGET
        )
        walk = exhaustive_assoc if exhaustive else sampled_assoc
        report.cases.append(first_counterexample(
            "extend(h)(extend(g)(t)) = extend(h after g)(t)",
            walk(mid, right, far, gs, hs, ts),
            "exhaustive" if exhaustive else f"sampled({LAW_SAMPLES})",
            (len(mid), len(right), len(far))))

    return report


# -- full-and-faithfulness certification ---------------------------------------------


class CertifyReport(Record):
    __slots__ = _fields = ("correspondence", "kleisli_count", "transformer_count",
                           "bijection", "counterexample")
    _defaults = (None,)

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
            counter = f"transpose collision on {atom_repr(c)} and {atom_repr(seen[img])}"
            break
        seen[img] = c
    # witnesses are the first in enumeration order, not in hash order
    hit, listed = set(images), set(trans)
    missing = [t for t in trans if t not in hit]
    extra = [img for img in images if img not in listed]
    if counter is None and missing:
        counter = f"transformer never hit: {atom_repr(missing[0])}"
    if counter is None and extra:
        counter = f"transpose image is not structure-preserving: {atom_repr(extra[0])}"
    return CertifyReport(correspondence=correspondence.id, kleisli_count=len(comps),
                         transformer_count=len(trans),
                         bijection=len(comps) == len(trans) and counter is None,
                         counterexample=counter)
