"""Self-test of the benchmark at a tiny sample count.

Usage (from the repository root): python3 perfbench/selftest.py

For every workload it runs run.py untraced and traced with 4 samples per
round, and checks that the last line is the result object, that the run is
correct, and that every metric BENCHMARK.json names appears with its unit.
It then checks that the workload seed is a required argument that sets the
inputs: two runs at one seed report the same exact counts, a run at another
seed reports different ones. Last, it checks that the benchmark fails
without printing a result in a directory that holds only BENCHMARK.json and
the benchmark's own files. Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
COUNT_METRICS = ("ctmc.switches_per_sample", "brownian.union_points_per_sample",
                 "solvers.refined_events_per_sample", "model.coeff_calls_per_sample")


def bench(cwd: str, workload: str, *extra: str):
    """Run the benchmark command; returns (exit code, parsed last line or None)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        command = json.load(fh)["command"]
    cmd = [sys.executable] + command[1:] + ["--workload", workload, "--seconds", "1",
                                             "--samples", "4", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 and result is None:
        sys.stderr.write(proc.stderr[-2000:])
    return proc.returncode, result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            problems.append(message)
            print("FAIL " + message)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, result = bench(ROOT, workload, "--seed", "1", "--trace", str(trace))
            where = f"{workload} --trace {trace}"
            expect(code == 0 and result is not None, f"{where}: exit {code}, no result line")
            if result is None:
                continue
            expect(set(result) == RESULT_KEYS, f"{where}: result keys {sorted(result)}")
            expect(result.get("correct") is True and result.get("failed") == 0,
                   f"{where}: not correct")
            metrics = result.get("metrics", {})
            expect(set(metrics) == {m["name"] for m in names},
                   f"{where}: metric names differ from BENCHMARK.json")
            for m in names:
                got = metrics.get(m["name"], {})
                expect(got.get("unit") == m["unit"] and isinstance(got.get("value"), float),
                       f"{where}: {m['name']} reported as {got}")
        print(f"ok {workload}")

    code, _ = bench(ROOT, "vector-fine", "--trace", "1")
    expect(code != 0, "a run without --seed did not fail")
    counts = {}
    for seed in ("1", "1", "2"):
        _, result = bench(ROOT, "vector-fine", "--seed", seed, "--trace", "1")
        counts.setdefault(seed, []).append(
            tuple(result["metrics"][n]["value"] for n in COUNT_METRICS) if result else None)
    expect(counts["1"][0] is not None and counts["1"][0] == counts["1"][1],
           f"exact counts differ between two runs at one seed: {counts['1']}")
    expect(counts["1"][0] != counts["2"][0], "exact counts do not depend on --seed")
    print("ok seed")

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, result = bench(bare, "linear-closed", "--seed", "1")
        expect(code != 0 and result is None, "the benchmark ran without the package sources")
    print("ok bare directory")

    print(f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
