"""switchsde benchmark: coupled-sample throughput of one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload linear-closed --seed 1 --seconds 20 --trace 0

The run is a closed loop in one process with one worker thread: each
converge call starts when the previous one has finished. It

1. times SETUPS fresh processes that import the package and validate the
   workload config (``setup_s``, untraced runs only);
2. runs the reference round at the workload's recorded seed, which checks
   the outputs against golden.json and warms the process up;
3. runs timed rounds at ``--seed`` for ``--seconds`` and checks that every
   round's errors.csv and fit.csv match the first timed round's bytes.

With ``--trace 0`` it reports the end-to-end metrics; ``samples_per_s`` is
the lower quartile of the rounds' throughput. With ``--trace 1`` it
alternates untraced and traced rounds and reports the per-layer metrics:
self time per layer and per coupled sample, exact counts per sample, and
the tracing overhead. Every metric is printed as ``name value unit``; the
last line of standard output is one JSON object with the result. A run
record (and, traced, the spans) is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUPS = 3

LAYER_SPANS = (
    "ctmc.simulate_exact_path",
    "ctmc.skeleton_from_path",
    "brownian.uniform_grid",
    "brownian.make_grid",
    "brownian.merge_grids",
    "brownian.generate_increments",
    "brownian.aggregate_increments",
    "solvers.build_refined_grid",
    "solvers.em_jump_adapted",
    "solvers.em_classical",
    "solvers.evaluate_path",
    "solvers.reference",
    "harness.run_strong_error",
    "entry",
)


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True, help="workload seed of the timed rounds")
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--samples", type=int, default=None,
                        help="samples per timed round (default: the workload's)")
    return parser.parse_args(argv)


def git_commit(root: str):
    """The checked-out commit, read from .git without running git; None outside a clone."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def time_setup(workload, seed: int) -> float:
    """Seconds from spawning a process until it has validated the workload config."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), workload.name, str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def quartiles(values) -> list:
    """The 3 cut points of ``values`` into quarters (inclusive method)."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def tail(values) -> tuple:
    """(percentile, value): the highest percentile with at least 10 samples beyond it.

    Below 20 samples there is none above the median, so the median is returned.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


class Run:
    """Rounds attempted and failed in one benchmark run, and their checks."""

    def __init__(self, workload, seed: int, samples: int):
        from checks import load_golden

        self.workload = workload
        self.seed = seed
        self.samples = samples
        self.golden = load_golden()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.expected = None  # (errors.csv, fit.csv) bytes of the first timed round

    def fail(self, problems: list) -> None:
        """Count one failed round and report its problems."""
        self.failed += 1
        self.problems += problems
        for p in problems:
            print(f"FAIL {self.workload.name}: {p}", file=sys.stderr)

    def reference_round(self) -> None:
        from checks import check_reference, check_well_formed

        w = self.workload
        self.attempted += 1
        try:
            _, errors, fit = w.round(w.check_seed, w.check_samples)
            problems = check_well_formed(errors, fit, w.check_samples)
            problems += check_reference(w, errors, fit, self.golden)
        except Exception:  # a failed round is counted, the benchmark goes on
            problems = [traceback.format_exc()]
        if problems:
            self.fail(["reference round: " + p for p in problems])

    def timed_round(self, tracer=None):
        """One timed round; returns its seconds, or None when it raised."""
        from checks import check_well_formed

        self.attempted += 1
        try:
            seconds, errors, fit = self.workload.round(self.seed, self.samples, tracer)
            problems = check_well_formed(errors, fit, self.samples)
        except Exception:  # a failed round is counted, the benchmark goes on
            self.fail([traceback.format_exc()])
            return None
        if self.expected is None:
            self.expected = (errors, fit)
        elif (errors, fit) != self.expected:
            kind = "traced" if tracer is not None else "untraced"
            problems.append(f"{kind} errors.csv/fit.csv bytes differ from the first timed round")
        if problems:
            self.fail(problems)
        return seconds


# A run whose rounds all raise stops after this many attempts.
MAX_FAILED_ATTEMPTS = 10


def run_untraced(run: Run, seconds: float) -> list:
    """Timed rounds for ``seconds``; returns samples per second of each."""
    rates = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or (not rates and run.attempted < MAX_FAILED_ATTEMPTS):
        secs = run.timed_round()
        if secs is not None:
            rates.append(run.samples / secs)
    return rates


def run_traced(run: Run, seconds: float):
    """Alternate untraced and traced rounds, at least two traced ones.

    Returns (untraced rates, traced rates, tracer).
    """
    from spans import Tracer

    tracer = Tracer(ladder=run.workload.validate(run.seed, run.samples).deltas)
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or (
            len(traced) < 2 and run.attempted < MAX_FAILED_ATTEMPTS):
        plain_s = run.timed_round()
        tracer.begin_round()
        with tracer.patched():
            traced_s = run.timed_round(tracer)
        if traced_s is None:
            tracer.discard_round()
        elif plain_s is not None:
            plain.append(run.samples / plain_s)
            traced.append(run.samples / traced_s)
    return plain, traced, tracer


def layer_metrics(run: Run, tracer, plain: list, traced: list) -> tuple:
    """Per-layer metrics of the traced rounds; returns (metrics, notes, record extras)."""
    m = run.samples
    rounds = range(len(tracer.counts))
    per_round = [tracer.self_times(r) for r in rounds]
    metrics = {}
    for name in LAYER_SPANS:
        metrics[f"{name}.self_s"] = (statistics.median(t.get(name, 0.0) / m for t in per_round), "s")
    metrics["model.coeff_s"] = (
        statistics.median(tracer.coefficient_seconds(r) / m for r in rounds), "s")
    counts = tracer.counts[0]
    if any(c != counts for c in tracer.counts):
        run.fail([f"exact counts differ between traced rounds: {tracer.counts}"])
    metrics["ctmc.switches_per_sample"] = (counts["switches"] / m, "count")
    metrics["brownian.union_points_per_sample"] = (counts["union_points"] / m, "count")
    metrics["solvers.refined_events_per_sample"] = (counts["refined_events"] / m, "count")
    metrics["solvers.refined_to_uniform"] = (counts["refined_events"] / counts["uniform_points"],
                                             "ratio")
    metrics["model.coeff_calls_per_sample"] = (counts["coeff_calls"] / m, "count")
    durations = [d for r in rounds for d in tracer.sample_durations(r)]
    pct, tail_s = tail(durations)
    metrics["harness.sample_s_p50"] = (statistics.median(durations), "s")
    metrics["harness.sample_s_tail"] = (tail_s, "s")
    metrics["trace.overhead"] = (statistics.median(t / p for t, p in zip(traced, plain)), "ratio")
    notes = {
        "harness.sample_s_tail": f"p{pct:.2f} of {len(durations)} samples",
        "trace.overhead": f"median over {len(traced)} pairs of a traced and an untraced round",
    }
    return metrics, notes, {"exact_counts": counts, "tail_percentile": pct}


def context(workload, seed: int, samples: int) -> dict:
    import numpy
    import scipy
    import switchsde

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    return {
        "workload": workload.name,
        "why": why[workload.name],
        "workload_seed": seed,
        "samples_per_round": samples,
        "config_sha256": workload.sha256,
        "reference_round": {"seed": workload.check_seed, "samples": workload.check_samples},
        "threads": 1,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "switchsde": switchsde.__version__,
        "git_commit": git_commit(ROOT),
    }


def main(argv=None) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    workload = WORKLOADS[args.workload]
    samples = args.samples or workload.samples
    src = os.path.join(ROOT, "src")
    try:
        importlib.import_module(workload.entry_module)
    except ImportError as exc:
        print(f"cannot import the package from {src}: {exc}", file=sys.stderr)
        return 2
    if not sys.modules["switchsde"].__file__.startswith(src + os.sep):
        print(f"switchsde was imported from outside {src}", file=sys.stderr)
        return 2
    ctx = context(workload, args.seed, samples)
    print("context " + json.dumps(ctx, sort_keys=True))

    setups = [] if args.trace else [time_setup(workload, args.seed) for _ in range(SETUPS)]

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
    try:
        workload.prepare(workdir, {samples, workload.check_samples})
        run = Run(workload, args.seed, samples)
        run.reference_round()
        if args.trace:
            plain, traced, tracer = run_traced(run, args.seconds)
        else:
            plain, traced, tracer = run_untraced(run, args.seconds), [], None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not plain or (args.trace and not traced):
        print("no timed round completed", file=sys.stderr)
        return 1

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    extra = {}
    if args.trace:
        metrics, notes, extra = layer_metrics(run, tracer, plain, traced)
        tracer.write(os.path.join(OUT_DIR, f"spans-{tag}.json"))
    else:
        q1, q2, q3 = quartiles(plain)
        metrics = {
            "samples_per_s": (q1, "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        notes = {
            "samples_per_s": f"lower quartile of {len(plain)} rounds of M={samples}; "
                             f"median {q2:.4g}, upper quartile {q3:.4g}",
            "setup_s": f"median of {len(setups)} processes",
        }
    fail_share = run.failed / run.attempted
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {unit}{note}")
    print(f"fail_share {fail_share:.6g} ratio  ({run.failed} of {run.attempted} rounds)")

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, context=ctx, problems=run.problems, setup_s=setups,
                  untraced_samples_per_s=plain, traced_samples_per_s=traced, **extra)
    with open(os.path.join(OUT_DIR, f"run-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
