"""``tools/fault_count.py`` on this checkout: one workload, two warm rounds."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "fault_count.py"


def test_counts_the_faults_of_warm_rounds_in_a_process_of_their_own():
    run = subprocess.run([sys.executable, str(TOOL), str(ROOT), "--workload", "vector-fine",
                          "--rounds", "2"], capture_output=True, text=True, check=True, timeout=60)
    result = json.loads(run.stdout)
    assert result["tree"] == str(ROOT)
    counts = result["workloads"]["vector-fine"]
    assert (counts["rounds"], counts["samples"]) == (2, 8)
    assert 0 <= counts["minflt_median"] <= counts["minflt_max"]
    assert counts["round_s_median"] > 0.0
