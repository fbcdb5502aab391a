"""Record each workload's reference-round eps values into golden.json.

Usage (from the repository root): python3 perfbench/record_golden.py

Run it only at a commit whose outputs are known to be right: later runs of
the benchmark check the reference round against these values to a relative
1e-12.
"""

import json
import os
import re
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from checks import GOLDEN_PATH, SLOPE_RULES, check_well_formed, parse_errors, parse_fit  # noqa: E402
from run import ROOT, git_commit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    golden = {"recorded_at_commit": git_commit(ROOT), "workloads": {}}
    with tempfile.TemporaryDirectory() as workdir:
        for w in WORKLOADS.values():
            w.prepare(workdir, {w.check_samples})
            _, errors, fit = w.round(w.check_seed, w.check_samples)
            problems = check_well_formed(errors, fit, w.check_samples)
            if w.name in SLOPE_RULES:
                problems += SLOPE_RULES[w.name](parse_fit(fit))
            if problems:
                print(f"{w.name}: not recorded: {problems}", file=sys.stderr)
                return 1
            golden["workloads"][w.name] = {
                "config_sha256": w.sha256,
                "seed": w.check_seed,
                "samples": w.check_samples,
                "eps": [[s, p, d, v[0]] for (s, p, d), v in parse_errors(errors).items()],
            }
            print(f"{w.name}: {len(golden['workloads'][w.name]['eps'])} eps values")
    text = json.dumps(golden, indent=1)
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]", lambda m: "[" + re.sub(r",\s+", ", ", m.group(1)) + "]",
                  text)  # one eps row per line
    with open(GOLDEN_PATH, "w") as fh:
        fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
