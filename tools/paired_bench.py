"""Run the benchmark on two trees in alternating pairs and judge the difference.

Usage::

    python tools/paired_bench.py PARENT_TREE CHANGE_TREE --seeds 1801-1810 [--out BENCH.json]

``PARENT_TREE`` and ``CHANGE_TREE`` are exported source trees (``git
archive`` of two commits, say), each with its own ``perfbench/run.py`` and
``BENCHMARK.json``. For every seed and every workload of the change tree's
``BENCHMARK.json`` the tool runs

    python3 perfbench/run.py --workload W --seed SEED --seconds S --trace 0

once in each tree, one after the other, with S that file's ``run_seconds``.
Odd pairs run the parent first and even pairs the change first, so a drift
of the host's speed falls on both sides alike. Each pair uses its own seed;
use seeds not used while the change was written.

The output JSON holds every run (``untraced``) and, per workload and
end-to-end metric of the change tree's ``BENCHMARK.json``, a ``summary``:
the pairs run, in how many the change was better, each tree's median and
quartiles, the relative change, the parent's interquartile range, each
tree's failed rounds and crashed runs, and a verdict. A side that crashed or failed a round has no
value: its pair is no win for the change, and the medians leave it out. A
gain is claimed only when the change was better in at least 9 of every 10
pairs, its median lies beyond the parent's interquartile range from the
parent's (and, for a metric in MB, more than ``MIN_GAIN_MB`` from it), and
it failed no more rounds and crashed no more runs than the parent; anything
else is unresolved, and the verdict says whether the change's median stays
inside the metric's bound. The file is rewritten after every run, so an
interrupted comparison keeps what it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

TREES = ("parent", "change")

# A claim needs this share of the pairs won, and at least this many pairs.
CLAIM_SHARE = 0.9
CLAIM_PAIRS = 10

# A gain in a metric measured in MB must also move the median by more than
# this. Peak RSS shifts by a few hundred KB with heap layout alone, while
# its runs spread by well under that: a change that added no array read as
# 10 of 10 pairs better at -0.29 MB against a parent IQR of 0.06 MB.
MIN_GAIN_MB = 1.0


def parse_seeds(text: str) -> list:
    """Seeds from ``A-B`` (inclusive) and comma-separated parts: "1801-1803,1810"."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def quartiles(values) -> tuple:
    """Lower and upper quartile (inclusive method, as perfbench/run.py uses); one value's are it."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def iqr(values) -> float:
    """Upper minus lower quartile."""
    q1, q3 = quartiles(values)
    return q3 - q1


def judge(parent, change, better: str, bound: float, failures=None, unit: str = "") -> dict:
    """Summary of one metric over paired runs: ``parent[i]`` and ``change[i]`` share pair i.

    A value is None where that side crashed or failed a round. ``failures``
    maps "failed" (rounds) and "crashed" (runs) to each tree's totals; a
    gain needs the change's totals to be no higher than the parent's, and
    one in ``unit`` "MB" a median gap beyond ``MIN_GAIN_MB`` as well.
    """
    failures = failures or {k: dict.fromkeys(TREES, 0) for k in ("failed", "crashed")}
    sign = 1.0 if better == "higher" else -1.0
    pairs = len(parent)
    wins = sum(p is not None and c is not None and sign * (c - p) > 0.0
               for p, c in zip(parent, change))
    out = {"pairs": pairs, "change_better": wins, **failures}
    measured = [p for p in parent if p is not None], [c for c in change if c is not None]
    if not all(measured):
        return {**out, "verdict": "unresolved, a tree has no measured run"}
    p_med, c_med = map(statistics.median, measured)
    spread = iqr(measured[0])
    gain = sign * (c_med - p_med)  # positive when the change's median is better
    no_more_failures = all(v["change"] <= v["parent"] for v in failures.values())
    floor = max(spread, MIN_GAIN_MB) if unit == "MB" else spread
    if pairs >= CLAIM_PAIRS and wins >= CLAIM_SHARE * pairs and gain > floor and no_more_failures:
        verdict = (f"better in {wins} of {pairs} pairs and beyond the parent's "
                   "interquartile range: a gain")
    else:
        where = "inside" if -gain <= bound * abs(p_med) else "outside"
        verdict = f"unresolved, {where} its bound"
    return {**out, "parent_median": p_med, "change_median": c_med,
            "parent_quartiles": list(quartiles(measured[0])),
            "change_quartiles": list(quartiles(measured[1])),
            "rel": c_med / p_med - 1.0, "parent_iqr": spread, "verdict": verdict}


def summarize(untraced: dict, metrics) -> dict:
    """``judge`` per workload and metric; ``untraced`` maps a workload to its run records.

    A run record has ``pair``, ``tree``, ``failed`` (None for a crashed run)
    and one value per metric name; ``metrics`` are BENCHMARK.json's
    end-to-end entries. Every pair with both sides run counts.
    """
    out = {}
    for workload, runs in untraced.items():
        by_pair = {}
        for run in runs:
            by_pair.setdefault(run["pair"], {})[run["tree"]] = run
        pairs = [p for _, p in sorted(by_pair.items()) if all(t in p for t in TREES)]
        if not pairs:
            continue
        failures = {"failed": {t: sum(p[t]["failed"] or 0 for p in pairs) for t in TREES},
                    "crashed": {t: sum(p[t]["failed"] is None for p in pairs) for t in TREES}}
        for m in metrics:
            name = m["name"]
            values = {t: [p[t][name] if p[t]["failed"] == 0 else None for p in pairs]
                      for t in TREES}
            out[f"{workload} {name}"] = judge(values["parent"], values["change"],
                                              m["better"], m["bound"], failures, m.get("unit", ""))
    return out


def summary_line(key: str, s: dict) -> str:
    """One summary entry as a line: each tree's median [lower, upper quartile], wins, verdict."""
    medians = " -> ".join("{:.6g} [{:.6g}, {:.6g}]".format(s[f"{t}_median"], *s[f"{t}_quartiles"])
                          for t in TREES) + " " if "parent_median" in s else ""
    return f"{key}: {medians}({s['change_better']}/{s['pairs']} better): {s['verdict']}"


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``: its failures and its end-to-end metrics."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"failed": None, "error": (proc.stderr or proc.stdout)[-2000:]}
    result = json.loads(lines[-1])
    record = {"failed": result["failed"], "attempted": result["attempted"]}
    record.update({k: v["value"] for k, v in result["metrics"].items()})
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="one seed per pair: A-B and/or a comma-separated list")
    parser.add_argument("--out", default="paired_bench.json")
    args = parser.parse_args(argv)

    trees = dict(zip(TREES, (os.path.abspath(args.parent_tree),
                             os.path.abspath(args.change_tree))))
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    record = {
        "trees": trees,
        "command": f"python3 perfbench/run.py --workload <w> --seed <seed> "
                   f"--seconds {seconds:g} --trace 0",
        "protocol": f"{len(args.seeds)} pairs per workload, one seed each "
                    f"({args.seeds[0]}-{args.seeds[-1]}); odd pairs run the parent first, "
                    "even pairs the change first",
        "untraced": {w: [] for w in workloads},
        "summary": {},
    }
    for pair, seed in enumerate(args.seeds, start=1):
        order = TREES if pair % 2 else TREES[::-1]
        for workload in workloads:
            for tree in order:
                run = run_once(trees[tree], workload, seed, seconds)
                record["untraced"][workload].append(dict(pair=pair, seed=seed, tree=tree, **run))
                print(f"pair {pair} {workload} {tree}: {run}", flush=True)
                record["summary"] = summarize(record["untraced"], bench["end_to_end"])
                with open(args.out, "w") as fh:
                    json.dump(record, fh, indent=1)
    for key, s in record["summary"].items():
        print(summary_line(key, s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
