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
    """Switches and refined events of a converge run, by a loop over samples."""
    gen = s.generator_from_json(DEFAULT_CONFIG["generator"])
    horizon = DEFAULT_CONFIG["horizon"]
    counts = dict.fromkeys(("switches", "refined_events"), 0)
    for m in range(samples):
        rng = s.derive_stream(seed, m)
        chain = s.simulate_exact_path(gen, DEFAULT_CONFIG["initial_regime"], horizon, rng)
        counts["switches"] += len(chain.switch_times) - 1
        for delta in ladder:
            counts["refined_events"] += len(oracles.refined_grid(chain, delta, horizon)[0])
    return counts


def test_traced_smoke_run_sees_every_layer(tmp_path):
    """The harness draws each block's union grids at once, with no `merge_grids`
    call for the tracer to count, so ``union_points`` reads 0; the union grids'
    sizes are checked against per-sample merges in tests/test_block.py."""
    spans = load_spans()
    ladder = sorted(DEFAULT_CONFIG["deltas"], reverse=True)[:3]  # the --smoke ladder
    tracer = spans.Tracer(ladder)
    tracer.begin_round()
    with tracer.patched(), contextlib.redirect_stdout(io.StringIO()):
        assert main(["converge", "--smoke", "--seed", "1", "--out", str(tmp_path)]) == 0
    counts = tracer.counts[0]
    assert counts["union_points"] == 0
    assert all(counts[name] > 0 for name in spans.COUNTS if name != "union_points"), counts
    assert len(tracer.sample_durations(0)) == 32  # --smoke runs 32 samples
    want = counts_one_sample_at_a_time(ladder, samples=32, seed=1)
    assert {name: counts[name] for name in want} == want


def test_a_one_path_run_off_the_ladder_is_traced_as_the_reference():
    """The tracer names an em_jump_adapted call by the step its result carries:
    a rung of the ladder keeps its own name, any other step is the reference."""
    spans = load_spans()
    tracer = spans.Tracer([0.25, 0.125])
    tracer.begin_round()
    gen = s.generator_from_json(DEFAULT_CONFIG["generator"])
    model = s.LinearHybridModel(a=[1.0, 2.0], b=[2.0, 1.0], z0=1.0)
    rng = s.derive_stream(3, 0)
    path = s.simulate_exact_path(gen, 1, 1.0, rng)
    union = s.merge_grids(s.uniform_grid(1.0, 2.0**-5),
                          s.make_grid(np.append(path.switch_times, 1.0)))
    bm = s.generate_increments(union, 1, rng)
    with tracer.patched():
        for step in (0.25, 2.0**-5):
            solved = switchsde.harness.em_jump_adapted(model, s.build_refined_grid(path, step), bm)
            assert isinstance(solved, s.EulerBlock) and solved.step == step
    assert [span[spans.NAME] for span in tracer.spans] == ["solvers.em_jump_adapted",
                                                           spans.REFERENCE]
