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

import numpy as np

import oracles
import switchsde as s
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


def counts_one_sample_at_a_time(ladder, samples, seed):
    """Switches, union points and refined events of a converge run, by a loop over samples."""
    gen = s.generator_from_json(DEFAULT_CONFIG["generator"])
    horizon = DEFAULT_CONFIG["horizon"]
    fine = s.uniform_grid(horizon, ladder[-1])  # the closed form needs no finer grid
    counts = dict.fromkeys(("switches", "union_points", "refined_events"), 0)
    for m in range(samples):
        rng = s.derive_stream(seed, m)
        chain = s.simulate_exact_path(gen, DEFAULT_CONFIG["initial_regime"], horizon, rng)
        union = s.merge_grids(fine, s.make_grid(np.append(chain.switch_times, horizon)))
        counts["switches"] += len(chain.switch_times) - 1
        counts["union_points"] += len(union)
        for delta in ladder:
            counts["refined_events"] += len(oracles.refined_grid(chain, delta, horizon)[0])
    return counts


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
    want = counts_one_sample_at_a_time(ladder, samples=32, seed=1)  # --smoke runs 32 samples
    assert {name: counts[name] for name in want} == want
