"""The four workloads: their inputs, their verdicts, and how each is checked.

A verdict is one public check call.  ``call`` does the timed library work and
returns its result; ``check`` runs after the round, outside the timing, and
returns ``(ok, summary, instances)``: whether the outcome is the expected one,
a label-free summary whose digest must match the one recorded in
``digests.json``, and how many instances the call checked.

Seeds change the inputs but hardly the amount of work: laws-prob and
nondet-suite relabel their carriers with seeded, order-preserving integer
labels and shuffle the verdict order; wp-engine shuffles a fixed set of
programs, the first few of each (states, flavor) stratum of a pool; cli draws
its program files from a pool.  Every finsem module is imported inside
``build``, so that set-up time includes ``import finsem``, and library
functions are looked up through their modules at call time, so that the
traced run sees them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

import gclgen

WORKLOADS = ("laws-prob", "nondet-suite", "wp-engine", "cli")

# laws-prob: (carrier sizes, probe denominator), for dist and for giry
LAWS_PROB_CASES = (
    ((1,), 1), ((1,), 2), ((1,), 3),
    ((2,), 1), ((2,), 2), ((2,), 3),
    ((3,), 1),
    ((1, 2), 1), ((1, 2), 2), ((1, 2), 3),
    ((1, 3), 1), ((2, 3), 1), ((1, 2, 3), 1),
)

# the acceptance suite's seed, for law suites that fall back to sampling: a
# fixed seed keeps the sampled arrows, and so every count, the same in each run
LAW_SEED = 20_240_401

# nondet-suite law families and the largest object each is checked on
NONDET_SET_LAWS = (("powerset", 3), ("neighbourhood", 2), ("filter", 3))
NONDET_POSET_LAWS = ("downset", "hoare", "smyth", "plotkin")
# round trips and certifications over pairs of posets with at most this many
# points between them: the 25 pairs of two 3-point posets would take more
# than half of a round on their own
NONDET_PAIR_POINTS = 5

# wp-engine: statements per program and programs per round, by state count
WP_NODES = {16: 12, 32: 12, 64: 10, 128: 8, 256: 6, 512: 5}
WP_PER_ROUND = {16: 3, 32: 3, 64: 2, 128: 1, 256: 1, 512: 1}
WP_POOL = 16      # programs in each (states, flavor) stratum
POOL_SEED = 17    # names the pool; changing it invalidates digests.json

# cli: program pool for wp/run invocations
CLI_POOL = 8
CLI_NODES = 8


class Verdict(NamedTuple):
    key: str
    call: Callable
    check: Callable
    own_time: Callable | None = None  # result -> seconds, when not the call's processor time


def digest(summary):
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def canon(value):
    """A JSON-able, label-ordered image of a library value."""
    if isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, frozenset):
        return sorted((canon(v) for v in value), key=repr)
    if isinstance(value, (tuple, list)):
        return [canon(v) for v in value]
    if hasattr(value, "weights"):  # Distribution and FiniteMeasure
        return [[canon(a), canon(w)] for a, w in value.weights]
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _labels(rng, sizes):
    """Seeded increasing labels for carriers of each size: order is kept."""
    return {n: sorted(rng.sample(range(1, 10 ** 6), n)) for n in sizes}


def _relabel_poset(order, p, labels):
    new = dict(zip(p.elements, labels[len(p)])) if len(p) else {}
    pairs = [(new[a], new[b]) for a in p.elements for b in p.elements if p.leq(a, b)]
    return order.FinPoset(order.FinSet(new.values()), pairs)


# -- laws-prob ------------------------------------------------------------------------


def _law_verdict(triangle, key, family, objects, probe_max_den=4):
    def call():
        return triangle.check_monad_laws(family, objects, seed=LAW_SEED,
                                         probe_max_den=probe_max_den)

    def check(rep):
        cases = [[list(c.objects), c.law, c.mode, c.checked, c.ok] for c in rep.cases]
        return rep.ok, cases, rep.checked_total()

    return Verdict(key, call, check)


def build_laws_prob(seed, ctx):
    from finsem import monads, order, triangle

    rng = random.Random(seed)
    labels = _labels(rng, (1, 2, 3))
    sets = {n: order.FinSet(labels[n]) for n in labels}
    out = []
    for fam in ("dist", "giry"):
        for sizes, den in LAWS_PROB_CASES:
            key = f"laws-prob/{fam}/{'-'.join(map(str, sizes))}/d{den}"
            objects = tuple(sets[n] for n in sizes)
            out.append(_law_verdict(triangle, key, monads.FAMILIES[fam], objects, den))
    rng.shuffle(out)
    return out


# -- nondet-suite -------------------------------------------------------------------------


def _round_trip_verdict(transformers, key, corr, x, y):
    def call():
        return transformers.round_trip_report(corr, x, y)

    def check(rep):
        return rep.mismatches == 0, [rep.mode, rep.checked, rep.mismatches], rep.checked

    return Verdict(key, call, check)


def _certify_verdict(triangle, key, corr, x, y):
    def call():
        return triangle.certify_full_faithful(corr, x, y)

    def check(rep):
        summary = [rep.kleisli_count, rep.transformer_count, rep.bijection]
        return rep.bijection, summary, rep.kleisli_count + rep.transformer_count

    return Verdict(key, call, check)


def build_nondet_suite(seed, ctx):
    from finsem import monads, order, transformers, triangle

    rng = random.Random(seed)
    labels = _labels(rng, (1, 2, 3))
    canonical = [p for p in order.all_posets(3) if len(p) >= 1]
    posets = {f"p{i}": _relabel_poset(order, p, labels) for i, p in enumerate(canonical)}
    small = {f"q{i}": _relabel_poset(order, p, labels)
             for i, p in enumerate(order.all_posets(2))}
    sets = {f"s{n}": order.FinSet(labels.get(n, ())) for n in range(4)}
    out = []
    for fam, top in NONDET_SET_LAWS:
        for n in range(top + 1):
            out.append(_law_verdict(triangle, f"nondet/laws/{fam}/s{n}",
                                    monads.FAMILIES[fam], (sets[f"s{n}"],)))
    for fam in NONDET_POSET_LAWS:
        for pid, p in posets.items():
            out.append(_law_verdict(triangle, f"nondet/laws/{fam}/{pid}",
                                    monads.FAMILIES[fam], (p,)))
    reg = transformers.REGISTRY
    for a, b in itertools.product(range(3), repeat=2):
        out.append(_round_trip_verdict(transformers, f"nondet/rt/box/s{a}/s{b}",
                                       reg["box"], sets[f"s{a}"], sets[f"s{b}"]))
    for pid, p in posets.items():
        out.append(_round_trip_verdict(transformers, f"nondet/rt/three/{pid}",
                                       reg["three"], p, None))
    for (pa, p), (qa, q) in itertools.product(small.items(), repeat=2):
        out.append(_round_trip_verdict(transformers, f"nondet/rt/plotkin-hom/{pa}/{qa}",
                                       reg["plotkin-hom"], p, q))
    pairs = [(pa, p, qa, q) for (pa, p), (qa, q) in itertools.product(posets.items(), repeat=2)
             if len(p) + len(q) <= NONDET_PAIR_POINTS]
    for cid in ("diamond", "hoare", "smyth"):
        for pa, p, qa, q in pairs:
            out.append(_round_trip_verdict(transformers, f"nondet/rt/{cid}/{pa}/{qa}",
                                           reg[cid], p, q))
            out.append(_certify_verdict(triangle, f"nondet/certify/{cid}/{pa}/{qa}",
                                        reg[cid], p, q))
    rng.shuffle(out)
    return out


# -- wp-engine --------------------------------------------------------------------------


def wp_stratum_picks(every=False):
    """(states, flavor, pool index) for one round, or for the whole pool.

    A round takes the first programs of each stratum, the same for every
    seed: the cost of a program varies within its stratum, and a seeded draw
    moved the slowest verdicts, and so p90, from seed to seed.
    """
    picks = []
    for states in gclgen.STATE_SIZES:
        for flavor in gclgen.FLAVORS:
            chosen = range(WP_POOL if every else WP_PER_ROUND[states])
            picks.extend((states, flavor, i) for i in chosen)
    return picks


def wp_program(states, flavor, index):
    return gclgen.pool_program(POOL_SEED, states, flavor, index, WP_NODES[states])


def _table(space, table):
    return [[space.render(s), canon(v)] for s, v in table.items()]


def _wp_verdict(gcl, key, source, flavor, roundtrip_seed):
    mode = gclgen.mode_of(flavor)

    def call():
        prog = gcl.parse(source)
        arrow = gcl.denote(prog, mode)
        table = gcl.wp(prog, prog.post, flavor)
        chk = gcl.check_roundtrip(prog, flavor, seed=roundtrip_seed)
        return prog, arrow, table, chk

    def check(result):
        prog, arrow, table, chk = result
        space = gcl.StateSpace(prog.decls)
        summary = {
            "wp": _table(space, table),
            "denotation": [canon(t) for t in arrow.graph],
            "roundtrip": [chk.posts, chk.mismatches],
        }
        return chk.ok, summary, len(arrow.graph) * chk.posts

    return Verdict(key, call, check)


def build_wp_engine(seed, ctx, every=False):
    from finsem import gcl

    out = []
    for states, flavor, i in wp_stratum_picks(every):
        source = gclgen.render(wp_program(states, flavor, i))
        out.append(_wp_verdict(gcl, f"wp/{states}/{flavor}/{i}", source, flavor,
                               1000 + i))
    random.Random(seed).shuffle(out)
    return out


# -- cli ---------------------------------------------------------------------------------


def cli_program(flavor, index):
    return gclgen.pool_program(POOL_SEED, 16, flavor, 100 + index, CLI_NODES)


def cli_invocations(seed, workdir, every=False):
    """(key, argv) pairs for one round; argv follows ``python -m finsem``."""
    rng = random.Random(seed)
    files = {}

    def program_file(flavor, i):
        path = os.path.join(workdir, f"{flavor}-{i}.gcl")
        if path not in files:
            files[path] = cli_program(flavor, i)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(gclgen.render(files[path]))
        return path, files[path]

    out = []
    for flavor in gclgen.FLAVORS:
        mode = gclgen.mode_of(flavor)
        indices = range(CLI_POOL) if every else [rng.randrange(CLI_POOL)]
        for i in indices:
            path, prog = program_file(flavor, i)
            out.append((f"cli/wp/{flavor}/{i}",
                        ["wp", path, "--mode", mode, "--flavor", flavor,
                         "--format", "json" if flavor != "demonic" else "table"]))
            if flavor != "angelic":
                init = ",".join(f"{n}={lo}" for n, lo, _ in prog["decls"])
                out.append((f"cli/run/{mode}/{i}",
                            ["run", path, "--mode", mode, "--init", init]))
    transpose = os.path.join(workdir, "box-forward.json")
    with open(transpose, "w", encoding="utf-8") as fh:
        json.dump({"direction": "forward", "dom": ["x1", "x2"], "cod": ["y1", "y2"],
                   "arrow": {"x1": ["y1"], "x2": ["y1", "y2"]}}, fh)
    out += [
        ("cli/laws/powerset", ["laws", "--monad", "powerset", "--max-size", "2"]),
        ("cli/laws/hoare", ["laws", "--monad", "hoare", "--max-size", "2"]),
        ("cli/certify/box", ["certify", "--correspondence", "box", "--sizes", "2,2"]),
        ("cli/certify/smyth", ["certify", "--correspondence", "smyth", "--sizes", "2,2"]),
        ("cli/enumerate/plotkin", ["enumerate", "--monad", "plotkin", "--object",
                                   "poset P { elems a b c; covers a<b; }"]),
        ("cli/enumerate/filter", ["enumerate", "--monad", "filter", "--object",
                                  "set S { elems a b c; }"]),
        ("cli/transpose/box", ["transpose", "--correspondence", "box",
                               "--input", transpose]),
    ]
    rng.shuffle(out)
    return out


def cli_verdict(ctx, key, argv):
    cmd = [sys.executable, "-m", "finsem", *argv]

    def call():
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=ctx["env"], cwd=ctx["root"])
        out, err = proc.stdout.read(), proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out, err, usage.ru_maxrss, usage.ru_utime + usage.ru_stime

    def check(result):
        code, out, err, *_ = result
        return code == 0, [code, out.decode("utf-8", "replace")], 1

    def own_time(result):
        """The child's CPU time: on a shared host its wall time is mostly the
        wait for a processor, which says nothing about finsem."""
        return result[4]

    return Verdict(key, call, check, own_time)


def build_cli(seed, ctx, every=False):
    import finsem  # noqa: F401  (set-up time counts the import, as elsewhere)

    return [cli_verdict(ctx, key, argv)
            for key, argv in cli_invocations(seed, ctx["workdir"], every)]


BUILDERS = {
    "laws-prob": build_laws_prob,
    "nondet-suite": build_nondet_suite,
    "wp-engine": build_wp_engine,
    "cli": build_cli,
}
