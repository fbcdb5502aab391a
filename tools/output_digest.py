"""Print one SHA-256 per output of the package, and one total over them all.

Usage::

    python tools/output_digest.py SRC_DIR [--expect HEX]

``SRC_DIR`` is a source directory that holds the ``switchsde`` package, such
as ``src`` of this checkout or of an exported older commit. The package is
imported from there alone, so two runs on two trees print the same total
exactly when every output below is byte-identical. With ``--expect`` the
tool exits 1 when the total is not ``HEX``, so the byte-identity check of a
change is one command:

* ``converge``: ``errors.csv``, ``fit.csv`` and ``summary.txt`` on the
  default linear config, a fast-switching 3-state config and a
  trigonometric config with a fine-EM reference, at T = 1, 0.7 and 3 and
  seeds 0 and 10; past T = 1 the time tolerance, and every grid rule built
  on it, scales with T;
* ``solve``: every file it writes, on the same configs, horizons and seeds;
* ``chain simulate`` and ``chain validate``, with their exit codes;
* the ``repr`` of ``moment_check``, ``local_error_scaling`` and
  ``run_strong_error`` on an n = d = 2 model with a fine-EM reference, and
  of the two diagnostics on the default linear model, and of
  ``run_strong_error`` on that model at p = 2, 300 and 1000, where the p-th
  powers of some rows overflow and `harness._root_moments` rescales them;
* the one-path API on the default linear model, called as the acceptance
  tests call it: the times and values of ``em_jump_adapted`` and
  ``em_classical``, and ``evaluate_path`` at every Brownian point, at seeds
  0 and 10 and steps 2^-4 and 2^-9.

Sample counts are small, so a run takes well under a minute. Runs with 70
samples span two blocks of samples, so block boundaries are covered.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

SAMPLES = 70  # more than one block of 64
SEEDS = (0, 10)
HORIZONS = (1.0, 0.7, 3.0)

LINEAR = {
    "generator": {"states": 2, "rates": [[-1.0, 1.0], [2.0, -2.0]]},
    "model": {"model": "linear", "a": [1.0, 2.0], "b": [2.0, 1.0], "z0": 1.0},
    "deltas": [2.0 ** -k for k in range(4, 10)],
    "p": [2, 4],
    "schemes": ["jump-adapted", "classical"],
}
CONFIGS = {
    "linear": LINEAR,
    "fastswitch": dict(
        LINEAR, samples=20,
        generator={"states": 3, "rates": [[-500.0, 300.0, 200.0],
                                          [250.0, -600.0, 350.0],
                                          [400.0, 200.0, -600.0]]},
        model={"model": "linear", "a": [1.0, 2.0, -0.5], "b": [2.0, 1.0, 0.5], "z0": 1.0},
    ),
    "trig-fine": dict(
        LINEAR, reference="fine-em", refinement_exponent=3,
        model={"model": "trig", "a": [1.0, -0.5], "b": [0.8, 0.3], "c": [0.2, -0.1],
               "z0": 0.5},
        deltas=[2.0 ** -k for k in range(3, 7)],
    ),
}


def run_cli(main, argv, config: dict, workdir: str) -> tuple:
    """(exit code, {file name: bytes}) of one CLI command on ``config``."""
    with tempfile.TemporaryDirectory(dir=workdir) as out:
        path = os.path.join(out, "config.json")
        with open(path, "w") as fh:
            json.dump(dict(config, schema_version=1), fh)
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--config", path, "--out", out])
        files = {}
        for name in sorted(os.listdir(out)):
            if name != "config.json":
                with open(os.path.join(out, name), "rb") as fh:
                    files[name] = fh.read()
    return code, files


def vector_config(s, horizon: float, seed: int, p_values=(2, 4)):
    """An n = d = 2 linear system, f(z, i) = A_i z and g(z, i) = diag(z) S_i.

    The coefficients are elementwise, so each row rounds the same in any block.
    """
    import numpy as np

    a = np.array([[[-1.0, 0.5], [0.3, -0.8]], [[0.5, -0.2], [0.1, 0.4]]])
    sig = np.array([[[0.4, 0.1], [0.0, 0.3]], [[0.8, 0.0], [0.2, 0.6]]])
    model = s.HybridModel(
        state_dim=2, noise_dim=2, regime_count=2,
        drift=lambda z, i: z[..., :1] * a[i - 1, :, 0] + z[..., 1:] * a[i - 1, :, 1],
        diffusion=lambda z, i: z[..., :, None] * sig[i - 1], initial_value=[1.0, 0.5],
    )
    return s.ExperimentConfig(
        model=model, generator=s.validate_generator([[-2.0, 2.0], [3.0, -3.0]]),
        horizon=horizon, p_values=p_values, deltas=tuple(2.0 ** -k for k in range(3, 7)),
        samples=SAMPLES, seed=seed, reference="fine-em", ref_refinement=3,
        schemes=("jump-adapted", "classical"),
    )


def items(src: str):
    """Yield (name, bytes) for every output the digest covers."""
    sys.path.insert(0, os.path.abspath(src))
    import switchsde as s
    from switchsde.cli import main

    if not os.path.abspath(s.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"switchsde came from {s.__file__}, not from {src}")

    with tempfile.TemporaryDirectory() as workdir:
        for label, base in CONFIGS.items():
            for horizon in HORIZONS:
                for seed in SEEDS:
                    config = dict(base, horizon=horizon, seed=seed)
                    config.setdefault("samples", SAMPLES)
                    tag = f"{label} T={horizon} seed={seed}"
                    for command, argv, cfg in (
                        ("converge", ["converge"], config),
                        # solve writes the closed form when the model has one
                        ("solve", ["solve"],
                         {k: v for k, v in config.items() if k != "reference"}),
                    ):
                        code, files = run_cli(main, argv, cfg, workdir)
                        yield f"{command} {tag} exit", str(code).encode()
                        for name, data in files.items():
                            yield f"{command} {tag} {name}", data
            for seed in SEEDS:
                for argv, cfg in ((["chain", "simulate"], dict(base, seed=seed)),
                                  (["chain", "validate"],
                                   dict(base, seed=seed, samples=5000, step=0.05))):
                    code, files = run_cli(main, argv, cfg, workdir)
                    tag = f"{' '.join(argv)} {label} seed={seed}"
                    yield f"{tag} exit", str(code).encode()
                    for name, data in files.items():
                        yield f"{tag} {name}", data

    for horizon in HORIZONS:
        for seed in SEEDS:
            tag = f"T={horizon} seed={seed}"
            vector = vector_config(s, horizon, seed)
            yield f"run_strong_error vector {tag}", repr(s.run_strong_error(vector)).encode()
            yield f"moment_check vector {tag}", repr(s.moment_check(vector)).encode()
            local = vector_config(s, horizon, seed, p_values=(2,))
            yield f"local_error_scaling vector {tag}", repr(s.local_error_scaling(local)).encode()
            linear = s.config_from_dict(dict(LINEAR, horizon=horizon, seed=seed,
                                             samples=SAMPLES))
            yield f"moment_check linear {tag}", repr(s.moment_check(linear)).encode()
            yield f"local_error_scaling linear {tag}", \
                repr(s.local_error_scaling(linear)).encode()
    for seed in SEEDS:
        large = s.config_from_dict(dict(LINEAR, p=[2, 300, 1000], seed=seed, samples=SAMPLES))
        yield f"run_strong_error linear p=2,300,1000 seed={seed}", \
            repr(s.run_strong_error(large)).encode()
    yield from one_path_items(s)


def one_path_items(s):
    """Yield (name, bytes) of the one-path schemes on one coupled sample per seed."""
    import numpy as np

    model = s.LinearHybridModel(a=[1.0, 2.0], b=[2.0, 1.0], z0=1.0)
    generator = s.validate_generator(LINEAR["generator"]["rates"])
    for seed in SEEDS:
        stream = s.derive_stream(seed, 0)
        path = s.simulate_exact_path(generator, 1, 1.0, stream)
        union = s.merge_grids(s.uniform_grid(1.0, 2.0 ** -9),
                              s.make_grid(np.append(path.switch_times, 1.0)))
        bm = s.generate_increments(union, 1, stream)
        for step in (2.0 ** -4, 2.0 ** -9):
            tag = f"seed={seed} step={step}"
            jump = s.em_jump_adapted(model, s.build_refined_grid(path, step), bm)
            classical = s.em_classical(model, s.skeleton_from_path(path, step), step,
                                       s.aggregate_increments(bm, s.uniform_grid(1.0, step)))
            for name, solved in (("em_jump_adapted", jump), ("em_classical", classical)):
                yield f"{name} {tag}", solved.times.tobytes() + solved.values.tobytes()
            yield f"evaluate_path {tag}", s.evaluate_path(jump, bm, bm.grid.points).tobytes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="SHA-256 of every output of the package")
    parser.add_argument("src", metavar="SRC_DIR", help="a directory holding switchsde")
    parser.add_argument("--expect", metavar="HEX", help="exit 1 unless the TOTAL is HEX")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(args.src, "switchsde")):
        parser.error(f"{args.src} holds no switchsde package")
    total = hashlib.sha256()
    for name, data in items(args.src):
        digest = hashlib.sha256(data).hexdigest()
        total.update(f"{name}\t{digest}\n".encode())
        print(f"{digest}  {name}")
    print(f"{total.hexdigest()}  TOTAL")
    if args.expect is not None and total.hexdigest() != args.expect.lower():
        print(f"TOTAL differs from the expected {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
