"""Record the digest of every verdict the workloads can draw, into digests.json.

    python3 bench/record.py

Run it only when the expected results change on purpose: a run fails every
verdict whose result differs from the digest recorded here.  Before writing,
it checks that the digests of laws-prob and nondet-suite do not depend on the
seed's relabelling, and that every pool program parses back to a program with
the same wp table and denotation as the tree it was rendered from.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads
import gclgen


def _digests(verdicts):
    out = {}
    for v in verdicts:
        ok, summary, _ = v.check(v.call())
        if not ok:
            raise SystemExit(f"{v.key}: unexpected outcome at record time")
        out[v.key] = workloads.digest(summary)
    return out


def check_rendering(gcl, states, flavor, index):
    """The parsed text and the tree it came from agree on wp and denotation."""
    tree = workloads.wp_program(states, flavor, index)
    parsed = gcl.parse(gclgen.render(tree))
    built = gclgen.to_gcl(tree, gcl)
    mode = gclgen.mode_of(flavor)
    if gcl.wp(parsed, parsed.post, flavor) != gcl.wp(built, built.post, flavor):
        raise SystemExit(f"wp/{states}/{flavor}/{index}: parsed wp table differs")
    if gcl.denote(parsed, mode).graph != gcl.denote(built, mode).graph:
        raise SystemExit(f"wp/{states}/{flavor}/{index}: parsed denotation differs")


def main():
    sys.path.insert(0, run.SRC)
    from finsem import gcl

    workdir = os.path.join(run.WORK, f"record-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    ctx = {"root": run.ROOT, "env": run._env(), "workdir": workdir}
    digests = {}
    try:
        for name in ("laws-prob", "nondet-suite"):
            first = _digests(workloads.BUILDERS[name](0, ctx))
            if _digests(workloads.BUILDERS[name](1, ctx)) != first:
                raise SystemExit(f"{name}: digests depend on the relabelling")
            digests.update(first)
            print(f"{name}: {len(first)} digests", flush=True)
        for states, flavor, index in workloads.wp_stratum_picks(every=True):
            check_rendering(gcl, states, flavor, index)
        wp = _digests(workloads.build_wp_engine(0, ctx, every=True))
        digests.update(wp)
        print(f"wp-engine: {len(wp)} digests", flush=True)
        cli = _digests(workloads.build_cli(0, ctx, every=True))
        digests.update(cli)
        print(f"cli: {len(cli)} digests", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
