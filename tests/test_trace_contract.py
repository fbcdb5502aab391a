"""The traced benchmark's hold on the package.

``perfbench/spans.py`` times the layers by replacing functions under the
names ``switchsde.harness`` binds, and counts what their results show. A
deletion or a rename in the package that breaks this would only show in a
traced benchmark run; these tests show it in the suite.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import switchsde.harness
from switchsde.cli import DEFAULT_CONFIG, main

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound_in_the_harness():
    missing = [name for name in load_spans().HARNESS_CALLS
               if not callable(getattr(switchsde.harness, name, None))]
    assert missing == []


def test_traced_smoke_run_sees_every_layer(tmp_path):
    spans = load_spans()
    ladder = sorted(DEFAULT_CONFIG["deltas"], reverse=True)[:3]  # the --smoke ladder
    tracer = spans.Tracer(ladder)
    tracer.begin_round()
    with tracer.patched(), contextlib.redirect_stdout(io.StringIO()):
        assert main(["converge", "--smoke", "--seed", "1", "--out", str(tmp_path)]) == 0
    counts = tracer.counts[0]
    assert all(counts[name] > 0 for name in spans.COUNTS), counts
    assert len(tracer.sample_durations(0)) > 0
