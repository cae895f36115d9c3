"""finsem benchmark: time to verdict on four workloads, with a traced run per layer.

Run from the root of the repository:

    python3 bench/run.py --workload laws-prob --seed 1 --seconds 20 --trace 0

Each run is one process, one thread and one client in a closed loop: the
next verdict starts when the previous one has returned.  A run repeats the
workload's fixed round of verdicts and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones, taken in a second, traced process, together with the
tracing overhead.  The line before it is an environment stamp.  See
``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter, thread_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, HERE)

import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9         # fresh processes timed for setup_s
SETUP_SPEED_SAMPLES = 5  # reference samples on each side of a timed set-up
MIN_ROUNDS = 3
MIN_VERDICTS = 100       # so that p90 has ten samples beyond it
TRACE_ROUNDS = 3         # rounds on each side of the tracing-overhead comparison
CALIBRATION_RUNS = 5     # bare interpreter and import timings, traced runs only
SMOKE_VERDICTS = 4
SHOW_FAILURES = 3


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _last_json_line(text):
    return json.loads(text.strip().splitlines()[-1])


def _percentile(sorted_values, q):
    """Nearest rank: at 100 samples, p90 has ten samples beyond it."""
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def _commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def _load_digests():
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Session:
    """Inputs, rounds and tallies of one workload in one process."""

    def __init__(self, workload, seed, smoke):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.workdir = os.path.join(WORK, f"{workload}-{os.getpid()}")
        self.ctx = {"root": ROOT, "env": _env(), "workdir": self.workdir}
        self.expected = _load_digests()
        self.verdicts = []
        self.rounds = []          # processor seconds of each completed round
        self.by_verdict = {}      # key -> seconds in each round, at the reference speed
        self.attempted = 0
        self.failed = 0
        self.instances = 0
        self.child_rss_kb = 0
        self.nonzero_exits = 0
        self.failures = []

    def setup(self):
        """Import finsem and build the inputs; returns the processor seconds it
        took, raw and at the reference speed."""
        os.makedirs(self.workdir, exist_ok=True)
        samples = [speed.reference_s() for _ in range(SETUP_SPEED_SAMPLES)]
        start = thread_time()
        self.verdicts = workloads.BUILDERS[self.workload](self.seed, self.ctx)
        elapsed = thread_time() - start
        samples += [speed.reference_s() for _ in range(SETUP_SPEED_SAMPLES)]
        if self.smoke:
            self.verdicts = self.verdicts[:SMOKE_VERDICTS]
        return elapsed, elapsed * speed.scale(samples)

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def run_round(self):
        """One round, with reference samples between its verdicts.  A verdict's
        time is the processor time it took, scaled by the two samples that
        bracket it: processor time leaves out the time the host gave the
        processor to someone else, and the scaling the speed it ran at."""
        results = []
        raw = []
        scaled = []
        pending = []              # raw times of verdicts since the last sample
        before = speed.reference_s()
        sampled = perf_counter()
        for v in self.verdicts:
            if pending and perf_counter() - sampled > speed.SAMPLE_EVERY_S:
                after = speed.reference_s()
                scaled += [t * speed.scale((before, after)) for t in pending]
                before, pending, sampled = after, [], perf_counter()
            t0 = thread_time()
            try:
                result, error = v.call(), None
            except Exception as exc:  # a verdict that errors counts as failed
                result, error = None, exc
            pending.append(thread_time() - t0 if error is not None or v.own_time is None
                           else v.own_time(result))
            raw.append(pending[-1])
            results.append((v, result, error))
        scaled += [t * speed.scale((before, speed.reference_s())) for t in pending]
        self.rounds.append(sum(raw))
        for v, t in zip(self.verdicts, scaled):
            self.by_verdict.setdefault(v.key, []).append(t)
        for v, result, error in results:
            self.tally(v, result, error)

    def tally(self, v, result, error):
        self.attempted += 1
        reason = None
        if error is not None:
            reason = f"raised {type(error).__name__}: {error}"
        else:
            try:
                ok, summary, instances = v.check(result)
            except Exception as exc:
                ok, summary, instances = False, None, 0
                reason = f"check raised {type(exc).__name__}: {exc}"
            self.instances += instances
            if self.workload == "cli":
                self.child_rss_kb = max(self.child_rss_kb, result[3])
                self.nonzero_exits += result[0] != 0
            if reason is None and not ok:
                reason = "unexpected outcome"
            elif reason is None and workloads.digest(summary) != self.expected.get(v.key):
                reason = "result differs from the recorded digest"
        if reason is not None:
            self.failed += 1
            if len(self.failures) < SHOW_FAILURES:
                self.failures.append(f"{v.key}: {reason}")

    def run_for(self, seconds):
        """Whole rounds until the next one would pass ``seconds`` of wall time."""
        start = perf_counter()
        walls = []
        min_rounds = 1 if self.smoke else MIN_ROUNDS
        min_verdicts = 0 if self.smoke else MIN_VERDICTS
        while True:
            self.run_round()
            walls.append(perf_counter() - start - sum(walls))
            if (len(walls) >= min_rounds and self.verdict_count() >= min_verdicts
                    and sum(walls) + statistics.median(walls) > seconds):
                return

    def verdict_count(self):
        return sum(len(ts) for ts in self.by_verdict.values())

    def round_s(self):
        """One round with each verdict at its median over the run's rounds."""
        return sum(statistics.median(ts) for ts in self.by_verdict.values())

    def latencies(self):
        """Every verdict of the run, sorted, each at its median over the rounds:
        a round repeats the same verdicts, so a percentile would otherwise be
        the extreme of one verdict's few repetitions."""
        return sorted(statistics.median(ts) for ts in self.by_verdict.values() for _ in ts)

    def peak_rss_mb(self):
        if self.workload == "cli":
            return self.child_rss_kb / 1024
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _subprocess_json(args):
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=_env(), cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(args)} exited with {proc.returncode}")
    return _last_json_line(proc.stdout)


def _setup_probes(workload, seed, count):
    return [_subprocess_json([__file__, "--workload", workload, "--seed", str(seed),
                              "--phase", "setup"]) for _ in range(count)]


def _calibrate(count):
    """Bare interpreter start and ``import finsem``, in milliseconds."""
    interpreter = []
    for _ in range(count):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=_env(), cwd=ROOT)
        interpreter.append((perf_counter() - t0) * 1000)
    code = ("from time import perf_counter as c; t = c(); import finsem; "
            "print((c() - t) * 1000)")
    imports = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, env=_env(), cwd=ROOT)
        imports.append(float(proc.stdout))
    return statistics.median(interpreter), statistics.median(imports)


def _stamp(session, extra):
    stamp = {
        "workload": session.workload,
        "seed": session.seed,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "commit": _commit(),
        "verdicts": session.attempted,
        "instances": session.instances,
        "rounds": len(session.rounds),
        "raw_round_s": session.rounds,
        "verdicts_per_round": len(session.verdicts),
        "percentile_samples": session.verdict_count(),
        "failed_frac": session.failed / max(session.attempted, 1),
    }
    stamp.update(extra)
    return stamp


def _emit(stamp, correct, attempted, failed, metrics, failures):
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


# -- phases ----------------------------------------------------------------------------


def phase_setup(args):
    session = Session(args.workload, args.seed, smoke=False)
    try:
        raw, scaled = session.setup()
        print(json.dumps({"setup_s": scaled, "raw_setup_s": raw}))
    finally:
        session.cleanup()


def phase_measure(args):
    session = Session(args.workload, args.seed, args.smoke)
    try:
        session.setup()
        setups = _setup_probes(args.workload, args.seed, 1 if args.smoke else SETUP_PROBES)
        session.run_for(args.seconds)
    finally:
        session.cleanup()
    lat = session.latencies()
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in setups), "s"),
        "round_s": (session.round_s(), "s"),
        "verdict_p50_ms": (_percentile(lat, 0.5) * 1000, "ms"),
        "verdict_p90_ms": (_percentile(lat, 0.9) * 1000, "ms"),
        "peak_rss_mb": (session.peak_rss_mb(), "MB"),
    }
    stamp = _stamp(session, {"setup_samples": len(setups), "trace": 0,
                             "raw_setup_s": [p["raw_setup_s"] for p in setups]})
    _emit(stamp, session.failed == 0, session.attempted, session.failed, metrics,
          session.failures)


def phase_traced(args):
    """The traced child: tracing is installed before set-up and kept to the end."""
    import finsem  # noqa: F401  (the import itself is not a layer call)
    from spans import Tracer

    session = Session(args.workload, args.seed, args.smoke)
    tracer = Tracer()
    tracer.install()
    main_ms = []
    try:
        session.setup()
        for _ in range(1 if args.smoke else TRACE_ROUNDS):
            session.run_round()
        if args.workload == "cli":
            main_ms = _cli_in_process(session)
    finally:
        tracer.uninstall()
        session.cleanup()
    layers = tracer.layer_metrics()
    os.makedirs(WORK, exist_ok=True)
    tracer.write(os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json"),
                 {"workload": args.workload, "seed": args.seed})
    print(json.dumps({
        "layers": layers,
        "round_s": session.round_s(),
        "main_ms": statistics.median(main_ms) if main_ms else 0.0,
        "attempted": session.attempted,
        "failed": session.failed,
        "nonzero_exits": session.nonzero_exits,
        "failures": session.failures,
    }))


def _cli_in_process(session):
    """Each invocation of the round once more, through ``cli_main`` in this process."""
    from finsem import cli

    timings = []
    for key, argv in workloads.cli_invocations(session.seed, session.workdir):
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.cli_main(argv)
        timings.append((perf_counter() - t0) * 1000)
        result = (code, out.getvalue().encode(), err.getvalue().encode(), 0, 0.0)
        session.tally(workloads.cli_verdict(session.ctx, key, argv), result, None)
    return timings


def phase_trace(args):
    session = Session(args.workload, args.seed, args.smoke)
    try:
        session.setup()
        for _ in range(1 if args.smoke else TRACE_ROUNDS):
            session.run_round()
    finally:
        session.cleanup()
    child_args = [__file__, "--workload", args.workload, "--seed", str(args.seed),
                  "--phase", "traced"] + (["--smoke"] if args.smoke else [])
    child = _subprocess_json(child_args)
    interpreter_ms, import_ms = _calibrate(1 if args.smoke else CALIBRATION_RUNS)
    untraced, traced = session.round_s(), child["round_s"]
    metrics = {k: tuple(v) for k, v in child["layers"].items()}
    metrics.update({
        "cli.interpreter_ms": (interpreter_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.main_ms": (child["main_ms"], "ms"),
        "cli.exit_nonzero": (session.nonzero_exits + child["nonzero_exits"], "count"),
        "trace.untraced_round_s": (untraced, "s"),
        "trace.traced_round_s": (traced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
    })
    attempted = session.attempted + child["attempted"]
    failed = session.failed + child["failed"]
    stamp = _stamp(session, {"trace": 1, "traced_verdicts": child["attempted"],
                             "failed_frac": failed / max(attempted, 1)})
    _emit(stamp, failed == 0, attempted, failed, metrics,
          session.failures + child["failures"])


def _pin_to_one_cpu():
    """Run this process, and the children it starts, on one processor: the
    reference samples then time the processor the verdicts ran on, also for
    the cli children, and every run uses the same one."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny round: a check that the benchmark works")
    parser.add_argument("--phase", choices=("setup", "traced"), default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "finsem", "__init__.py")):
        print(f"finsem sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    _pin_to_one_cpu()
    if args.phase == "setup":
        phase_setup(args)
    elif args.phase == "traced":
        phase_traced(args)
    elif args.trace:
        phase_trace(args)
    else:
        phase_measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
