"""Count the minor page faults of every benchmark workload's warm rounds.

Usage::

    python tools/fault_count.py TREE [--rounds 60] [--workload W] [--locations K]

``TREE`` is a source tree with ``src/switchsde``, ``perfbench/workloads.py``
and ``BENCHMARK.json``: this checkout, or a ``git archive`` of another
commit. For each workload of TREE's ``BENCHMARK.json`` the tool starts a
fresh Python process that imports the package from TREE's ``src`` and the
workloads from TREE's ``perfbench``, writing nothing into TREE. The process
runs the workload's reference round, then ``--rounds`` warm rounds at the
workload's round size and seed ``SEED``, and reads
``resource.getrusage(RUSAGE_SELF).ru_minflt`` around each. The tool prints
one JSON object: per workload, the median and the largest fault count of a
round, the median round time in seconds, and in ``stage_ms_median`` the
median milliseconds of a round spent in each stage (`STAGES`). After the
warm rounds it runs the reference round once more under ``tracemalloc`` and
reports, in ``stage_peak_mb``, the peak of traced memory reached while each
stage ran (nested stages included) and, in ``round_peak_mb``, the round's.
With ``--workload`` it measures that workload alone, in this process.

The stages are timed by wrapping, in this process only, the names that
``switchsde.harness`` binds: the block draw, the closed form, the grid
builders (`GRID_BUILDERS`, each one the tree's harness binds) and the
``euler_block`` call, which builds the tables and runs the recursion; each
``next`` on the iterator that call returns is the expand stage; and
``EulerBlock.on_brownian_grids`` is the interpolation. A stage's time
excludes the stages nested in it, and ``rest`` is the remainder of the round.

With ``--locations K`` the tool copies TREE's ``src``, ``perfbench`` (less
its ``out``) and ``BENCHMARK.json`` into K sibling temporary directories
whose names have equal length, runs itself on each copy with the other
options, and prints every copy's result in ``locations``, in order. Two
trees measured this way sit at paths of equal length too.

A warm round that allocates nothing new takes about no faults; a round
whose freed heap glibc hands back to the system, and takes again, takes
thousands. Which one happens follows the process's memory layout as well as
the code, and the tree's path alone can move the layout. So compare trees
exported to sibling directories whose names have the same length, and
repeat a measurement before trusting a difference.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

SEED = 1  # the seed of every warm round
# the stages of a round, then what they leave of it
STAGES = ("draw", "closed_form", "grids", "recursion", "expand", "interpolation", "rest")
# the grids stage; a tree from before reference_grid builds its reference with build_refined_grid
GRID_BUILDERS = ("build_refined_grid", "classical_grid", "reference_grid")


class StageTimer:
    """Exclusive time per stage, summed over the calls of one round, and while
    ``tracemalloc`` traces, the peak of traced bytes reached inside each stage."""

    def __init__(self):
        self.seconds = dict.fromkeys(STAGES[:-1], 0.0)
        self.peaks = dict.fromkeys(STAGES[:-1], 0)
        self._nested = [0.0]  # per open call, the time of the stages inside it
        self._peaks = [0]  # per open call, its peak before the last stage nested in it ran

    def timed(self, stage, call, *args, **kwargs):
        tracing = tracemalloc.is_tracing()
        if tracing:  # tracemalloc keeps one peak: the caller's so far is kept before a restart
            self._peaks[-1] = max(self._peaks[-1], tracemalloc.get_traced_memory()[1])
            self._peaks.append(0)
            tracemalloc.reset_peak()
        self._nested.append(0.0)
        start = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.seconds[stage] += elapsed - self._nested.pop()
            self._nested[-1] += elapsed
            if tracing:
                peak = max(self._peaks.pop(), tracemalloc.get_traced_memory()[1])
                self.peaks[stage] = max(self.peaks[stage], peak)

    def traced_peak(self, call, *args) -> int:
        """The peak of traced bytes while ``call(*args)`` ran, stages included, from a
        fresh start of ``tracemalloc``; ``peaks`` then holds each stage's."""
        self.peaks, self._peaks = dict.fromkeys(STAGES[:-1], 0), [0]
        tracemalloc.start()
        try:
            call(*args)
            return max(self._peaks[0], tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    def wrap(self, stage, call):
        return functools.wraps(call)(lambda *args, **kwargs: self.timed(stage, call, *args,
                                                                        **kwargs))

    def install(self, harness, euler_block_type) -> None:
        """Time the stages through ``harness``' bindings and the EulerBlock method."""
        for name, stage in (("_draw_block", "draw"), ("exact_linear_solution", "closed_form"),
                            *((name, "grids") for name in GRID_BUILDERS if hasattr(harness, name))):
            setattr(harness, name, self.wrap(stage, getattr(harness, name)))
        kernel = harness.euler_block
        harness.euler_block = functools.wraps(kernel)(lambda *args, **kwargs: TimedNext(
            self, "expand", self.timed("recursion", kernel, *args, **kwargs)))
        euler_block_type.on_brownian_grids = self.wrap(
            "interpolation", euler_block_type.on_brownian_grids)

    def take(self) -> dict:
        """The seconds per stage since the last take, and start again from zero."""
        seconds, self.seconds = self.seconds, dict.fromkeys(STAGES[:-1], 0.0)
        return seconds


class TimedNext:
    """An iterator whose every ``next`` is timed as ``stage``.

    A class, not a generator: a generator's frame moved the heap layout
    enough to turn a fault-free warm round into one of about 2,000 faults."""

    def __init__(self, timer, stage, iterator):
        self.timer, self.stage, self.iterator = timer, stage, iterator

    def __iter__(self):
        return self

    def __next__(self):
        return self.timer.timed(self.stage, next, self.iterator)


def measure(tree: str, name: str, rounds: int) -> dict:
    """Faults and times of ``rounds`` warm rounds of workload ``name``, in this process."""
    sys.dont_write_bytecode = True  # leave TREE as it is
    src = os.path.join(tree, "src")
    sys.path[:0] = [src, os.path.join(tree, "perfbench")]
    import switchsde
    import switchsde.harness
    from workloads import WORKLOADS

    if not switchsde.__file__.startswith(src + os.sep):
        raise RuntimeError(f"switchsde was imported from outside {src}")
    workload = WORKLOADS[name]
    timer = StageTimer()
    timer.install(switchsde.harness, switchsde.EulerBlock)
    with tempfile.TemporaryDirectory() as workdir:
        workload.prepare(workdir, {workload.samples, workload.check_samples})
        workload.round(workload.check_seed, workload.check_samples)
        faults, seconds, stages = [], [], []
        for _ in range(rounds):
            timer.take()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            elapsed, _, _ = workload.round(SEED, workload.samples)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            seconds.append(elapsed)
            stage = timer.take()
            stages.append(dict(stage, rest=elapsed - sum(stage.values())))
        round_peak = timer.traced_peak(workload.round, workload.check_seed,
                                       workload.check_samples)
    return {"rounds": rounds, "samples": workload.samples,
            "minflt_median": statistics.median(faults), "minflt_max": max(faults),
            "round_s_median": statistics.median(seconds),
            "stage_ms_median": {key: 1e3 * statistics.median(s[key] for s in stages)
                                for key in STAGES},
            "stage_peak_mb": {key: peak / 1e6 for key, peak in timer.peaks.items()},
            "round_peak_mb": round_peak / 1e6}


def at_locations(tree: str, count: int, options: list) -> list:
    """This tool's result on ``count`` copies of ``tree``, one fresh process per copy."""
    with tempfile.TemporaryDirectory(prefix="fault_count-") as root:
        copies = [os.path.join(root, f"{i:0{len(str(count - 1))}d}") for i in range(count)]
        for copy in copies:
            shutil.copytree(os.path.join(tree, "src"), os.path.join(copy, "src"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copytree(os.path.join(tree, "perfbench"), os.path.join(copy, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__", "out"))
            shutil.copy(os.path.join(tree, "BENCHMARK.json"), copy)
        return [json.loads(subprocess.run(
            [sys.executable, os.path.abspath(__file__), copy, *options],
            stdout=subprocess.PIPE, text=True, check=True).stdout) for copy in copies]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree")
    parser.add_argument("--rounds", type=int, default=60, help="warm rounds per workload")
    parser.add_argument("--workload", help="measure this workload alone, in this process")
    parser.add_argument("--locations", type=int, metavar="K",
                        help="measure K copies of TREE in sibling directories")
    args = parser.parse_args(argv)
    if args.locations is not None and args.locations < 1:
        parser.error("--locations needs K >= 1")
    tree = os.path.abspath(args.tree)
    if args.locations:
        options = ["--rounds", str(args.rounds)]
        options += ["--workload", args.workload] if args.workload else []
        print(json.dumps({"tree": tree, "seed": SEED,
                          "locations": at_locations(tree, args.locations, options)}))
        return 0
    if args.workload:
        result = {args.workload: measure(tree, args.workload, args.rounds)}
    else:
        with open(os.path.join(tree, "BENCHMARK.json")) as fh:
            names = [w["name"] for w in json.load(fh)["workloads"]]
        result = {}
        for name in names:  # a fresh process each, so no workload inherits another's heap
            child = subprocess.run(
                [sys.executable, os.path.abspath(__file__), tree, "--workload", name,
                 "--rounds", str(args.rounds)],
                stdout=subprocess.PIPE, text=True, check=True)
            result.update(json.loads(child.stdout)["workloads"])
    print(json.dumps({"tree": tree, "seed": SEED, "workloads": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
