"""Command-line front end: chain simulation/validation, solving, convergence.

Subcommands
-----------
* ``chain simulate`` writes one exact chain path as CSV.
* ``chain validate`` runs the statistical chain checks (exit 1 on failure).
* ``solve`` runs one coupled sample of the configured schemes and writes
  chain, Brownian, and per-scheme solution CSVs on the uniform grid.
* ``converge`` runs the strong-error experiment and writes errors.csv,
  fit.csv, and a plain-text summary.

All outputs are pure functions of (config, seed); files are written via a
temp file and an atomic rename, so reruns never leave partial results.
Exit codes: 0 success, 1 statistical-check failure, 2 configuration error,
3 runtime budget exceeded, 4 a scheme produced non-finite values. Any other
error is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from .brownian import uniform_grid, write_path_csv
from .ctmc import ChainPath, generator_from_json, simulate_exact_path
from .errors import ConfigError, JumpBudgetError, NonFiniteError
from .harness import (
    REFERENCE_CLOSED_FORM,
    _draw_block,
    _solve_ladder,
    config_from_dict,
    derive_stream,
    run_strong_error,
    setting,
    summary_text,
    validate_chain_statistics,
)
from .solvers import CLASSICAL, JUMP_ADAPTED, exact_linear_solution

EXIT_OK = 0
EXIT_STAT_FAIL = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_NONFINITE = 4

SCHEMA_VERSION = 1

DEFAULT_CONFIG = {
    "schema_version": SCHEMA_VERSION,
    "seed": 0,
    "horizon": 1.0,
    "generator": {"states": 2, "rates": [[-1.0, 1.0], [2.0, -2.0]]},
    "initial_regime": 1,
    "model": {"model": "linear", "a": [1.0, 2.0], "b": [2.0, 1.0], "z0": 1.0},
    "deltas": [2.0**-k for k in range(4, 10)],
    "p": [2],
    "samples": 1000,
    "schemes": [JUMP_ADAPTED, CLASSICAL],
    "step": 2.0**-4,
}


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.{os.getpid()}.tmp"  # one per process: concurrent runs cannot collide
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write or the rename failed
            os.remove(tmp)


def _emit(path: str, render) -> None:
    buf = io.StringIO()
    render(buf)
    _atomic_write(path, buf.getvalue())


def _load_config(args) -> dict:
    cfg = dict(DEFAULT_CONFIG)
    if args.config:
        with open(args.config) as fh:
            user = json.load(fh)
        if not isinstance(user, dict):
            raise ConfigError("config file must hold a JSON object")
        version = setting(user, "schema_version", int, SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version}")
        cfg.update(user)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if getattr(args, "smoke", False):
        cfg["samples"] = min(setting(cfg, "samples", int), 32)
        cfg["deltas"] = sorted(setting(cfg, "deltas", [float]), reverse=True)[:3]
    return cfg


def _out_dir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_chain_simulate(args) -> int:
    cfg = _load_config(args)
    path = simulate_exact_path(
        generator_from_json(cfg["generator"]), setting(cfg, "initial_regime", int),
        setting(cfg, "horizon", float), derive_stream(setting(cfg, "seed", int), 0),
        max_switches=setting(cfg, "jump_budget", int, 10**6),
    )
    out = _out_dir(args)
    target = os.path.join(out, "chain.csv")
    _emit(target, path.to_csv)
    print(target)
    return EXIT_OK


def cmd_chain_validate(args) -> int:
    cfg = _load_config(args)
    report = validate_chain_statistics(
        generator_from_json(cfg["generator"]),
        step=setting(cfg, "step", float),
        samples=setting(cfg, "samples", int),
        seed=setting(cfg, "seed", int),
    )
    out = _out_dir(args)
    target = os.path.join(out, "chain_validation.csv")
    _emit(target, report.write_csv)
    failed = [c.name for c in report.checks if not c.passed]
    print(f"{len(report.checks)} checks, {len(failed)} failed")
    for name in failed:
        print(f"FAIL {name}")
    print(target)
    return EXIT_OK if report.passed else EXIT_STAT_FAIL


def cmd_solve(args) -> int:
    cfg = _load_config(args)
    reference = cfg.get("reference")  # solve writes the closed form or none
    if reference == "none":
        del cfg["reference"]
    elif reference not in (None, REFERENCE_CLOSED_FORM):
        raise ConfigError(f"solve writes a {REFERENCE_CLOSED_FORM!r} reference or 'none', "
                          f"not {reference!r}")
    config = config_from_dict(dict(cfg, deltas=[setting(cfg, "step", float)]))
    model, step = config.model, config.finest_step

    ugrid = uniform_grid(config.horizon, step)
    block = _draw_block(config, ugrid, range(1))  # sample 0
    on_grid = block.on_grid(step)

    out = _out_dir(args)
    written = []

    def write(name, render):
        target = os.path.join(out, name)
        _emit(target, render)
        written.append(target)

    def write_uniform(tag, values):  # values at the uniform gridpoints
        write(f"solution_{tag.replace('-', '_')}.csv",
              lambda fh: write_path_csv(fh, ugrid.points, values, "z"))

    write("chain.csv", ChainPath(config.horizon, block.switch_times, block.states).to_csv)
    write("brownian.csv", lambda fh: write_path_csv(fh, block.points, block.bm_values, "B"))
    for scheme, solved in zip(config.schemes,
                              _solve_ladder(model, block, config.deltas, config.schemes)):
        write_uniform(scheme, solved.values[on_grid[solved.bm_index]])
    if reference != "none" and config.reference == REFERENCE_CLOSED_FORM:
        write_uniform("reference", exact_linear_solution(model, block)[on_grid])

    for t in written:
        print(t)
    return EXIT_OK


def cmd_converge(args) -> int:
    cfg = _load_config(args)
    config = config_from_dict(cfg)
    report = run_strong_error(config)
    out = _out_dir(args)
    _emit(os.path.join(out, "errors.csv"), report.write_errors_csv)
    _emit(os.path.join(out, "fit.csv"), report.write_fit_csv)
    text = summary_text(report)
    _atomic_write(os.path.join(out, "summary.txt"), text)
    print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchsde",
        description="Euler-Maruyama schemes for regime-switching SDEs",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--out", default=None, help="output directory (default .)")
    common.add_argument("--threads", type=int, default=1,
                        help="kept for compatibility; has no effect")
    common.add_argument("--smoke", action="store_true",
                        help="shrink samples and ladder for a quick run")

    sub = parser.add_subparsers(dest="command", required=True)

    chain = sub.add_parser("chain", help="chain path commands")
    chain_sub = chain.add_subparsers(dest="chain_command", required=True)
    sim = chain_sub.add_parser("simulate", parents=[common], help="write one exact path")
    sim.set_defaults(func=cmd_chain_simulate)
    val = chain_sub.add_parser("validate", parents=[common], help="statistical chain checks")
    val.set_defaults(func=cmd_chain_validate)

    solve = sub.add_parser("solve", parents=[common], help="one coupled sample")
    solve.set_defaults(func=cmd_solve)

    conv = sub.add_parser("converge", parents=[common], help="strong-error experiment")
    conv.set_defaults(func=cmd_converge)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except JumpBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONFINITE


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
