"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact arithmetic (tolerance zero); where a criterion
names a sampling regime the seed is fixed and recorded in the output.
Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import itertools
import random
import time

import pytest

from finsem import gcl, gcl_random
from finsem.effects import (
    ONE,
    ZERO,
    Distribution,
    FuzzyPredicate,
    dist_bind,
    farey_grid,
    iter_distributions,
    mv_ops,
    powerset_effect_algebra,
    random_distribution,
    unit_interval_effect_algebra,
    validate_effect_algebra,
)
from finsem.monads import (
    FAMILIES,
    boolean_algebra_maps_to_two,
    cba_collapse_check,
    distribution_to_measure,
    expectation_bind,
    expectation_embed,
    expectation_unit,
    measure_of_functional,
    monotone_neighbourhood,
    filter_monad,
    ultrafilter_monad,
)
from finsem.order import FinSet, all_posets, chain, enumerate_structure_maps
from finsem.transformers import (
    BOX,
    DIAMOND,
    HOARE_CORR,
    MONOTONE_NBHD,
    PLOTKIN_HOM,
    SMYTH_CORR,
    THREE,
    THREE_CORR,
    expectation_round_trip,
    round_trip_report,
)
from finsem.triangle import certify_full_faithful, check_monad_laws

SEED = 20_240_401


def report(number, ok, detail):
    mark = "PASS" if ok else "FAIL"
    print(f"[{mark}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def _sets(max_size):
    return tuple(FinSet(range(n)) for n in range(max_size + 1))


def _posets(max_size):
    return tuple(p for p in all_posets(max_size) if len(p) >= 1)


LAW_OBJECTS = {
    "powerset": _sets(3),
    "neighbourhood": _sets(2),
    "monotone-neighbourhood": _sets(2),
    "filter": _sets(3),
    "ultrafilter": _sets(3),
    "downset": _posets(3),
    "hoare": _posets(3),
    "smyth": _posets(3),
    "plotkin": _posets(3),
    "dist": tuple(FinSet(range(n)) for n in (1, 2, 3)),
    "giry": tuple(FinSet(range(n)) for n in (1, 2, 3)),
}


@pytest.mark.parametrize("name", sorted(LAW_OBJECTS))
def test_criterion_1_monad_laws(name):
    family = FAMILIES[name]
    start = time.monotonic()
    rep = check_monad_laws(family, LAW_OBJECTS[name], seed=SEED, probe_max_den=4)
    elapsed = time.monotonic() - start
    exhaustive_required = name in ("neighbourhood", "monotone-neighbourhood")
    all_exhaustive = all(c.mode.startswith("exhaustive") for c in rep.cases)
    ok = rep.ok and elapsed < 60 and (all_exhaustive or not exhaustive_required)
    modes = "exhaustive" if all_exhaustive else f"mixed(seed={rep.seed})"
    report(
        1,
        ok,
        f"{name} unit+associativity on {rep.checked_total()} instances "
        f"[{modes}] in {elapsed:.1f}s",
    )


def test_criterion_2_cardinality_oracles():
    checks = []
    for n in (1, 2, 3):
        x = FinSet(range(n))
        checks.append(ultrafilter_monad(x).cardinality() == n)
        checks.append(len(boolean_algebra_maps_to_two(x)) == n)
        checks.append(cba_collapse_check(x).ok)
    checks.append(monotone_neighbourhood(FinSet([1, 2])).cardinality() == 6)
    checks.append(filter_monad(FinSet([1, 2])).cardinality() == 4)
    c2 = chain("ab")
    maps_to_three = enumerate_structure_maps(c2, THREE, "monotone")
    lens_pairs = tuple(THREE_CORR.iter_transformers(c2, None, 10 ** 6))
    checks.append(len(maps_to_three) == 6 == len(lens_pairs))
    report(2, all(checks), f"{len(checks)} exact cardinality identities")


def test_criterion_3_round_trip_suite():
    total = 0
    bad = 0
    details = []

    def run(corr, x, y, sample=None, seed=SEED):
        nonlocal total, bad
        rep = round_trip_report(corr, x, y, sample=sample, seed=seed)
        total += rep.checked
        bad += rep.mismatches
        details.append(f"{corr.id}:{rep.checked}")
        return rep

    for nx, ny in itertools.product(range(3), repeat=2):
        run(BOX, FinSet(range(nx)), FinSet(range(ny)))
    run(BOX, FinSet(range(3)), FinSet(range(3)), sample=200)
    for p in _posets(3):
        for q in _posets(3):
            run(DIAMOND, p, q)
            run(HOARE_CORR, p, q)
            run(SMYTH_CORR, p, q)
    for nx, ny in itertools.product(range(1, 3), repeat=2):
        run(MONOTONE_NBHD, FinSet(range(nx)), FinSet(range(ny)))
    for p in _posets(4):
        run(THREE_CORR, p, None)
    for p in all_posets(2):
        for q in all_posets(2):
            run(PLOTKIN_HOM, p, q)
    exp = expectation_round_trip(FinSet(range(3)), FinSet(range(3)),
                                 instances=200, seed=SEED)
    total += exp.checked
    bad += exp.mismatches
    report(3, bad == 0, f"{total} round trips across every correspondence, "
                        f"{bad} mismatches (seed {SEED})")


def test_criterion_4_full_faithfulness_certification():
    reports = []
    box = certify_full_faithful(BOX, FinSet(range(2)), FinSet(range(2)))
    reports.append(box)
    ok = box.bijection and box.kleisli_count == 16 and box.transformer_count == 16
    for corr in (HOARE_CORR, SMYTH_CORR):
        for p in _posets(2):
            for q in _posets(2):
                rep = certify_full_faithful(corr, p, q)
                reports.append(rep)
                ok = ok and rep.bijection
    for p in _posets(2):
        rep = certify_full_faithful(THREE_CORR, p, None)
        reports.append(rep)
        ok = ok and rep.bijection
    pairs = sum(r.kleisli_count for r in reports)
    report(4, ok, f"box 16<->16 plus hoare/smyth/three at posets <= 2 "
                  f"({pairs} computations, zero count discrepancies)")


def test_criterion_5_dist_to_expectation_morphism():
    rng = random.Random(SEED)
    carriers = [FinSet(range(n)) for n in (1, 2, 3, 4)]
    checked = 0
    ok = True
    seen_tables = {}
    for _ in range(500):
        xs = rng.choice(carriers)
        omega = random_distribution(xs, rng)
        kernel = {x: random_distribution(xs, rng) for x in xs}
        sigma = expectation_embed(omega)
        # unit preservation
        x0 = rng.choice(xs.elements)
        unit_side = expectation_embed(Distribution.point(xs, x0))
        eta = expectation_unit(xs, x0)
        probe = FuzzyPredicate.from_dict(
            xs, {a: random_distribution(xs, rng)(xs.elements[0]) for a in xs}
        )
        ok = ok and unit_side.indicator_table() == eta.indicator_table()
        ok = ok and unit_side(probe) == eta(probe)
        # bind preservation
        lhs = expectation_embed(dist_bind(lambda x: kernel[x], omega))
        rhs = expectation_bind(xs, lambda x: expectation_embed(kernel[x]), sigma)
        ok = ok and lhs.indicator_table() == rhs.indicator_table()
        ok = ok and lhs(probe) == rhs(probe)
        # injectivity: the embedding recovers the weights on indicators
        table = sigma.indicator_table()
        ok = ok and table == tuple(omega(a) for a in xs)
        key = (xs, table)
        if key in seen_tables:
            ok = ok and seen_tables[key] == omega
        seen_tables[key] = omega
        checked += 1
    report(5, ok and checked == 500,
           f"unit/bind preservation and injectivity on {checked} seeded "
           f"instances (seed {SEED}); surjectivity excluded by design")


def test_criterion_6_finite_giry_isomorphism():
    checked = 0
    ok = True
    for n in (1, 2, 3):
        atoms = FinSet(range(n))
        probes = [
            FuzzyPredicate.from_dict(atoms, {
                a: d.as_dict().get(a, ZERO) for a in atoms})
            for d in iter_distributions(atoms, 3)
        ] + [FuzzyPredicate.constant(atoms, ONE)]
        for d in iter_distributions(atoms, 6):
            phi = distribution_to_measure(d)
            functional = expectation_embed(phi)
            ok = ok and measure_of_functional(functional, atoms) == phi
            again = expectation_embed(measure_of_functional(functional, atoms))
            ok = ok and all(again(p) == functional(p) for p in probes)
            checked += 1
    report(6, ok, f"both integration composites are identities on {checked} "
                  f"rational measures (denominators <= 6, <= 3 atoms)")


def test_criterion_7_wp_healthiness():
    start = time.monotonic()
    rng = random.Random(SEED)
    programs_per_flavor = 200
    ok = True
    checked = 0
    for flavor in gcl.FLAVORS:
        mode = gcl.mode_of_flavor(flavor)
        for i in range(programs_per_flavor):
            prog = gcl_random.random_program(rng, mode)
            chk = gcl.check_roundtrip(prog, flavor, seed=SEED + i)
            ok = ok and chk.ok
            checked += 1
            space = gcl.StateSpace(prog.decls)
            states = space.states()
            b1 = gcl_random.random_bool_expr(rng, prog.decls, 2)
            b2 = gcl_random.random_bool_expr(rng, prog.decls, 2)
            if flavor == "demonic":
                w1 = gcl.wp(prog, b1, flavor)
                w2 = gcl.wp(prog, b2, flavor)
                both = gcl.wp(prog, gcl.Bin("&&", b1, b2), flavor)
                ok = ok and both == {s: w1[s] and w2[s] for s in states}
                ok = ok and all(gcl.wp(prog, gcl.Lit(True), flavor).values())
                ang = gcl.wp(prog, gcl.Unary("!", b1), "angelic")
                ok = ok and w1 == {s: not ang[s] for s in states}
            elif flavor == "angelic":
                w1 = gcl.wp(prog, b1, flavor)
                w2 = gcl.wp(prog, b2, flavor)
                either = gcl.wp(prog, gcl.Bin("||", b1, b2), flavor)
                ok = ok and either == {s: w1[s] or w2[s] for s in states}
                ok = ok and not any(gcl.wp(prog, gcl.Lit(False), flavor).values())
            else:
                q1 = gcl.Iverson(gcl.Bin("&&", b1, b2))
                q2 = gcl.Iverson(gcl.Bin("&&", b1, gcl.Unary("!", b2)))
                w1 = gcl.wp(prog, q1, flavor)
                w2 = gcl.wp(prog, q2, flavor)
                both = gcl.wp(prog, gcl.Bin("+", q1, q2), flavor)
                ok = ok and both == {s: w1[s] + w2[s] for s in states}
                ok = ok and set(
                    gcl.wp(prog, gcl.Lit(True), flavor).values()) == {ONE}
            # monotonicity in every flavor
            weaker = gcl.Bin("||", b1, b2)
            if flavor == "expectation":
                lo = gcl.wp(prog, gcl.Iverson(b1), flavor)
                hi = gcl.wp(prog, gcl.Iverson(weaker), flavor)
                ok = ok and all(lo[s] <= hi[s] for s in states)
            else:
                lo = gcl.wp(prog, b1, flavor)
                hi = gcl.wp(prog, weaker, flavor)
                ok = ok and all(hi[s] or not lo[s] for s in states)
    elapsed = time.monotonic() - start
    report(7, ok and elapsed < 120,
           f"{checked} seeded programs x (roundtrip + duality + structure "
           f"+ monotonicity) in {elapsed:.1f}s (seed {SEED})")


def test_criterion_8_effect_structure_axioms():
    ok = True
    for n in range(4):
        rep = validate_effect_algebra(powerset_effect_algebra(FinSet(range(n))))
        ok = ok and rep.ok
    grid = farey_grid(6)
    rep = validate_effect_algebra(unit_interval_effect_algebra(grid))
    ok = ok and rep.ok
    for a, b in itertools.product(grid, repeat=2):
        ops = mv_ops(a, b)
        ok = ok and ops.join == mv_ops(ops.minus, b).plus
        ok = ok and (ONE - ops.join) + a == (ONE - b) + ops.meet
    report(8, ok, f"effect-algebra axioms for powersets (<= 3 points) and the "
                  f"unit-interval grid ({len(grid)} probes), MV identities on "
                  f"the full grid")
