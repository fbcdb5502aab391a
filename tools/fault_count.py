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
round and the median round time in seconds. With ``--workload`` it measures
that workload alone, in this process.

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
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

SEED = 1  # the seed of every warm round


def measure(tree: str, name: str, rounds: int) -> dict:
    """Faults and times of ``rounds`` warm rounds of workload ``name``, in this process."""
    sys.dont_write_bytecode = True  # leave TREE as it is
    src = os.path.join(tree, "src")
    sys.path[:0] = [src, os.path.join(tree, "perfbench")]
    import switchsde
    from workloads import WORKLOADS

    if not switchsde.__file__.startswith(src + os.sep):
        raise RuntimeError(f"switchsde was imported from outside {src}")
    workload = WORKLOADS[name]
    with tempfile.TemporaryDirectory() as workdir:
        workload.prepare(workdir, {workload.samples, workload.check_samples})
        workload.round(workload.check_seed, workload.check_samples)
        faults, seconds = [], []
        for _ in range(rounds):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            elapsed, _, _ = workload.round(SEED, workload.samples)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            seconds.append(elapsed)
    return {"rounds": rounds, "samples": workload.samples,
            "minflt_median": statistics.median(faults), "minflt_max": max(faults),
            "round_s_median": statistics.median(seconds)}


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
