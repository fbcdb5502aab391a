"""Set-up probe: import the package, validate one workload config, say ready.

Usage: python3 perfbench/probe.py <workload> <seed>

run.py times this process from its spawn until the "ready" line, which is
the start-up cost every `switchsde` call pays before its first sample.
"""

import importlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from workloads import WORKLOADS  # noqa: E402


def main(name: str, seed: str) -> None:
    workload = WORKLOADS[name]
    importlib.import_module(workload.entry_module)
    workload.validate(int(seed), workload.samples)
    print("ready", flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:])
