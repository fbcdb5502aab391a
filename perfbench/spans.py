"""Span tracer that times the package's layers from outside.

The tracer replaces public functions under the names their callers bind
(``switchsde.harness.em_jump_adapted`` and so on) with wrappers that record
a span each: id, parent id, round id, name, start and end. It also wraps a
model's ``drift`` and ``diffusion`` callables, which are too many to span
one by one: their calls are counted and their time is summed into the
enclosing span. Spans are kept in memory and written out once, when the
run ends.

A span's self time is its duration minus the time its child spans cover
and minus the coefficient time spent directly inside it.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

# Functions the harness calls per coupled sample, under the names the
# harness module binds, and the span name of each.
HARNESS_CALLS = {
    "simulate_exact_path": "ctmc.simulate_exact_path",
    "skeleton_from_path": "ctmc.skeleton_from_path",
    "uniform_grid": "brownian.uniform_grid",
    "make_grid": "brownian.make_grid",
    "merge_grids": "brownian.merge_grids",
    "generate_increments": "brownian.generate_increments",
    "aggregate_increments": "brownian.aggregate_increments",
    "build_refined_grid": "solvers.build_refined_grid",
    "em_jump_adapted": "solvers.em_jump_adapted",
    "em_classical": "solvers.em_classical",
    "evaluate_path": "solvers.evaluate_path",
    "exact_linear_solution": "solvers.exact_linear_solution",
}

ENTRY = "entry"
RUN = "harness.run_strong_error"
# The reference solution, whichever way it is computed: the closed form, or
# an em_jump_adapted call on a step finer than the ladder (fine-EM).
REFERENCE = "solvers.reference"

# Exact counts per round; each must repeat exactly for a given seed.
# refined_events and uniform_points cover the ladder's rungs, not the
# fine-EM reference grid.
COUNTS = ("switches", "union_points", "refined_events", "uniform_points", "coeff_calls")

ID, PARENT, ROUND, NAME, START, END, COEFF = range(7)


class Tracer:
    """In-memory spans and exact counts for the traced rounds of one run."""

    def __init__(self, ladder):
        self.ladder = {float(d) for d in ladder}
        self.spans = []  # [id, parent, round, name, start, end, coeff_s inside]
        self.counts = []  # one dict of COUNTS per round
        self._round_first = []  # index of each round's first span
        self._stack = []
        self._coeff_s = 0.0

    # --- recording --------------------------------------------------------

    def begin_round(self) -> None:
        self._round_first.append(len(self.spans))
        self.counts.append(dict.fromkeys(COUNTS, 0))

    def discard_round(self) -> None:
        """Drop the spans and counts of the last round (one that raised)."""
        del self.spans[self._round_first.pop():]
        self.counts.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1][ID] if self._stack else -1
        record = [len(self.spans), parent, len(self.counts) - 1, name, 0.0, 0.0, self._coeff_s]
        self.spans.append(record)
        self._stack.append(record)
        record[START] = time.perf_counter()
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            record[COEFF] = self._coeff_s - record[COEFF]
            self._stack.pop()

    def _wrap(self, name: str, fn):
        observe = getattr(self, "_observe_" + name.split(".")[-1], None)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(record, result)
            return result

        return traced

    def instrument(self, model) -> None:
        """Count and time every call of the model's drift and diffusion."""
        clock = time.perf_counter
        counts = self.counts

        def timed(fn):
            def call(z, i):
                t0 = clock()
                out = fn(z, i)
                self._coeff_s += clock() - t0
                counts[-1]["coeff_calls"] += 1
                return out

            return call

        model.drift = timed(model.drift)
        model.diffusion = timed(model.diffusion)

    # --- counts taken from call results -----------------------------------

    def _observe_simulate_exact_path(self, record, chain) -> None:
        self.counts[-1]["switches"] += len(chain.switch_times) - 1

    def _observe_merge_grids(self, record, grid) -> None:
        self.counts[-1]["union_points"] += len(grid.points)

    def _observe_build_refined_grid(self, record, grid) -> None:
        if grid.step in self.ladder:
            self.counts[-1]["refined_events"] += len(grid.events)
            self.counts[-1]["uniform_points"] += round(grid.horizon / grid.step) + 1

    def _observe_em_jump_adapted(self, record, solution) -> None:
        if solution.step not in self.ladder:
            record[NAME] = REFERENCE

    def _observe_exact_linear_solution(self, record, solution) -> None:
        record[NAME] = REFERENCE

    @contextlib.contextmanager
    def patched(self):
        """Route the harness's and the CLI's calls through span wrappers."""
        import switchsde.cli
        import switchsde.harness

        targets = [(switchsde.harness, attr, name) for attr, name in HARNESS_CALLS.items()]
        targets += [(switchsde.cli, "run_strong_error", RUN),
                    (switchsde.harness, "run_strong_error", RUN)]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
        saved.append((switchsde.harness, "model_from_config", switchsde.harness.model_from_config))
        build_model = switchsde.harness.model_from_config

        def model_from_config(*args, **kwargs):
            model = build_model(*args, **kwargs)
            self.instrument(model)
            return model

        try:
            for mod, attr, name in targets:
                setattr(mod, attr, self._wrap(name, getattr(mod, attr)))
            switchsde.harness.model_from_config = model_from_config
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    # --- analysis ---------------------------------------------------------

    def _round_spans(self, round_id: int) -> list:
        bounds = self._round_first + [len(self.spans)]
        return self.spans[bounds[round_id]:bounds[round_id + 1]]

    def self_times(self, round_id: int) -> dict:
        """Self time per span name, summed over one round."""
        rows = self._round_spans(round_id)
        child_s = defaultdict(float)
        child_coeff = defaultdict(float)
        for s in rows:
            if s[PARENT] >= 0:
                child_s[s[PARENT]] += s[END] - s[START]
                child_coeff[s[PARENT]] += s[COEFF]
        out = defaultdict(float)
        for s in rows:
            direct_coeff = s[COEFF] - child_coeff[s[ID]]
            out[s[NAME]] += (s[END] - s[START]) - child_s[s[ID]] - direct_coeff
        return dict(out)

    def coefficient_seconds(self, round_id: int) -> float:
        return sum(s[COEFF] for s in self._round_spans(round_id) if s[PARENT] < 0)

    def sample_durations(self, round_id: int) -> list:
        """Wall time of each coupled sample of one round.

        Sample k runs from the start of its chain simulation to the start of
        sample k+1's; the last one ends with the last layer call before the
        reduction.
        """
        rows = self._round_spans(round_id)
        run_id = next(s[ID] for s in rows if s[NAME] == RUN)
        children = [s for s in rows if s[PARENT] == run_id]
        starts = [s[START] for s in children if s[NAME] == "ctmc.simulate_exact_path"]
        ends = starts[1:] + [children[-1][END]]
        return [e - b for b, e in zip(starts, ends)]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({
                "fields": ["id", "parent", "round", "name", "start_s", "end_s", "coeff_s"],
                "spans": self.spans,
                "counts": self.counts,
            }, fh)
