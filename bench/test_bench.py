"""The benchmark's own tests: a smoke run of every workload, traced and untraced.

    python3 -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import gclgen
import record
import run
import workloads

sys.path.insert(0, run.SRC)

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _bench(args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], capture_output=True,
                          text=True, cwd=cwd, timeout=170)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload, trace):
    proc = _bench(["--workload", workload, "--seed", "5", "--seconds", "1",
                   "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    *_, stamp_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}
    stamp = json.loads(stamp_line)["stamp"]
    assert stamp["seed"] == 5 and stamp["nproc"] >= 1 and stamp["instances"] >= 1


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", "laws-prob", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("flavor", gclgen.FLAVORS)
@pytest.mark.parametrize("states", gclgen.STATE_SIZES)
def test_rendered_program_keeps_its_wp_table(states, flavor):
    from finsem import gcl

    for index in (0, workloads.WP_POOL - 1):
        record.check_rendering(gcl, states, flavor, index)


def test_every_drawable_verdict_has_a_digest(tmp_path):
    ctx = {"root": run.ROOT, "env": run._env(), "workdir": str(tmp_path)}
    keys = {v.key for v in workloads.build_laws_prob(0, ctx)}
    keys |= {v.key for v in workloads.build_nondet_suite(0, ctx)}
    keys |= {v.key for v in workloads.build_wp_engine(0, ctx, every=True)}
    keys |= {v.key for v in workloads.build_cli(0, ctx, every=True)}
    assert keys == set(run._load_digests())


def test_uninstall_restores_every_entry_point():
    import finsem.cli  # noqa: F401  (install patches the cli module too)
    from finsem import transformers
    from spans import Tracer

    def snapshot():
        mods = [m for n, m in sys.modules.items() if n == "finsem" or n.startswith("finsem.")]
        out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
        for cls in {v for m in mods for v in vars(m).values() if isinstance(v, type)}:
            out.update({(cls, k): v for k, v in vars(cls).items()})
        for corr in transformers.REGISTRY.values():
            out.update({(corr.id, k): getattr(corr, k) for k in
                        ("forward", "backward", "iter_computations", "iter_transformers")})
        return out

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    assert snapshot() != before
    tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
