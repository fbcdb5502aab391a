"""The three benchmark workloads and the round each of them runs.

A round is one converge call, made with one worker thread: ``cli.main``
on a JSON config for the two CLI workloads, ``run_strong_error`` plus the
CSV rendering for the library workload. Every round returns the bytes of
``errors.csv`` and ``fit.csv`` so the caller can check them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time

import numpy as np

from spans import ENTRY

# The CLI config of `switchsde converge` (its DEFAULT_CONFIG, with p=[2,4]
# and the closed-form reference spelled out).
LINEAR_CLOSED = {
    "schema_version": 1,
    "horizon": 1.0,
    "generator": {"states": 2, "rates": [[-1.0, 1.0], [2.0, -2.0]]},
    "initial_regime": 1,
    "model": {"model": "linear", "a": [1.0, 2.0], "b": [2.0, 1.0], "z0": 1.0},
    "deltas": [2.0 ** -k for k in range(4, 10)],
    "p": [2, 4],
    "reference": "closed-form",
    "schemes": ["jump-adapted", "classical"],
}

FASTSWITCH_CLOSED = dict(
    LINEAR_CLOSED,
    generator={"states": 3, "rates": [[-500.0, 300.0, 200.0],
                                      [250.0, -600.0, 350.0],
                                      [400.0, 200.0, -600.0]]},
    model={"model": "linear", "a": [1.0, 2.0, -0.5], "b": [2.0, 1.0, 0.5], "z0": 1.0},
)

# A 2-regime linear system with n = d = 2: f(z, i) = A_i z, g(z, i) = diag(z) S_i.
VECTOR_FINE = {
    "horizon": 1.0,
    "generator": [[-2.0, 2.0], [3.0, -3.0]],
    "initial_regime": 1,
    "z0": [1.0, 0.5],
    "A": [[[-1.0, 0.5], [0.3, -0.8]], [[0.5, -0.2], [0.1, 0.4]]],
    "S": [[[0.4, 0.1], [0.0, 0.3]], [[0.8, 0.0], [0.2, 0.6]]],
    "deltas": [2.0 ** -k for k in range(3, 8)],
    "p": [2, 4],
    "reference": "fine-em",
    "refinement_exponent": 3,
    "schemes": ["jump-adapted", "classical"],
}


@contextlib.contextmanager
def converge_call(tracer):
    """Time one converge call; under a tracer, also record it as the entry span."""
    span = tracer.span(ENTRY) if tracer is not None else contextlib.nullcontext()
    elapsed = [0.0]
    with span:
        t0 = time.perf_counter()
        yield elapsed
        elapsed[0] = time.perf_counter() - t0


class Workload:
    """One workload: its config, its round size and its reference round.

    ``samples`` is M of a timed round. The reference round runs at
    ``check_seed`` with ``check_samples``; its ``eps`` values are recorded in
    ``golden.json``, and it also warms the process up before timing.
    """

    check_seed = 10

    def __init__(self, name, config, samples, check_samples):
        self.name = name
        self.config = config
        self.samples = samples
        self.check_samples = check_samples

    @property
    def sha256(self) -> str:
        """sha256 of the canonical JSON form of the config (seed and M are not in it)."""
        canonical = json.dumps(self.config, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


class CliWorkload(Workload):
    """Runs `switchsde converge` through ``cli.main`` on a JSON config file."""

    entry_module = "switchsde.cli"

    def prepare(self, workdir: str, sample_counts) -> None:
        """Write one config file per round size into ``workdir``."""
        self.workdir = workdir
        for samples in sample_counts:
            with open(self._config_path(samples), "w") as fh:
                json.dump(dict(self.config, samples=samples), fh)

    def _config_path(self, samples: int) -> str:
        return os.path.join(self.workdir, f"{self.name}-{samples}.json")

    def validate(self, seed: int, samples: int):
        """Parse and validate the config the way `converge` does."""
        from switchsde.harness import config_from_dict

        return config_from_dict(dict(self.config, seed=seed, samples=samples))

    def round(self, seed: int, samples: int, tracer=None) -> tuple:
        """One converge call; returns (seconds, errors.csv bytes, fit.csv bytes).

        Under a tracer the model is instrumented where the CLI builds it,
        inside ``config_from_dict``.
        """
        import switchsde.cli

        out = os.path.join(self.workdir, "out")
        argv = ["converge", "--config", self._config_path(samples), "--seed", str(seed),
                "--out", out, "--threads", "1"]
        with converge_call(tracer) as elapsed, contextlib.redirect_stdout(io.StringIO()):
            code = switchsde.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"switchsde converge exited with {code}")
        return elapsed[0], _read(out, "errors.csv"), _read(out, "fit.csv")


class LibraryWorkload(Workload):
    """Calls ``run_strong_error`` on a model the CLI cannot express."""

    entry_module = "switchsde"

    def prepare(self, workdir: str, sample_counts) -> None:
        pass

    def validate(self, seed: int, samples: int):
        import switchsde as s

        c = self.config
        a = np.asarray(c["A"], dtype=np.float64)
        sig = np.asarray(c["S"], dtype=np.float64)

        # Written to broadcast over leading batch axes: drift(z[..., n]) -> [..., n],
        # diffusion(z[..., n]) -> [..., n, d].
        def drift(z, i):
            return z @ a[i - 1].T

        def diffusion(z, i):
            return z[..., :, None] * sig[i - 1]

        model = s.HybridModel(
            state_dim=a.shape[1], noise_dim=sig.shape[2], regime_count=a.shape[0],
            drift=drift, diffusion=diffusion, initial_value=c["z0"],
            initial_regime=c["initial_regime"],
        )
        return s.ExperimentConfig(
            model=model, generator=s.validate_generator(c["generator"]),
            horizon=c["horizon"], p_values=tuple(c["p"]), deltas=tuple(c["deltas"]),
            samples=samples, seed=seed, reference=c["reference"],
            ref_refinement=c["refinement_exponent"], schemes=tuple(c["schemes"]),
        )

    def round(self, seed: int, samples: int, tracer=None) -> tuple:
        """Config validation, one ``run_strong_error`` call and the CSV rendering."""
        import switchsde.harness

        with converge_call(tracer) as elapsed:
            config = self.validate(seed, samples)
            if tracer is not None:
                tracer.instrument(config.model)
            report = switchsde.harness.run_strong_error(config, threads=1)
            errors, fit = io.StringIO(), io.StringIO()
            report.write_errors_csv(errors)
            report.write_fit_csv(fit)
        return elapsed[0], errors.getvalue().encode(), fit.getvalue().encode()


def _read(directory: str, name: str) -> bytes:
    with open(os.path.join(directory, name), "rb") as fh:
        return fh.read()


# Round sizes keep one timed round near 0.3-0.4 s, so a run has 50-60 of
# them. The reference round of linear-closed is criterion 1's M=1000 at its
# seed 10, which its slope band needs.
WORKLOADS = {
    w.name: w
    for w in (
        CliWorkload("linear-closed", LINEAR_CLOSED, samples=40, check_samples=1000),
        CliWorkload("fastswitch-closed", FASTSWITCH_CLOSED, samples=16, check_samples=200),
        LibraryWorkload("vector-fine", VECTOR_FINE, samples=8, check_samples=60),
    )
}
