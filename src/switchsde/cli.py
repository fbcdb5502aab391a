"""Command-line front end: chain simulation/validation, solving, convergence.

Subcommands
-----------
* ``chain simulate`` writes one exact chain path as CSV.
* ``chain validate`` runs the statistical chain checks (exit 1 on failure).
* ``solve`` runs one coupled sample of the configured schemes and writes
  chain, Brownian, and per-scheme solution CSVs on the uniform grid.
* ``converge`` runs the strong-error experiment and writes errors.csv,
  fit.csv, and a plain-text summary.

All outputs are pure functions of (config, seed). `main` checks that ``--out``
is, or can be made, a writable directory; every file then goes through `_emit`,
rendered into a temp file beside it and renamed into place, so reruns never
leave partial results. Exit codes: 0 success, 1 statistical-check failure, 2
configuration error, 3 runtime budget exceeded, 4 non-finite scheme values, 5
an output could not be written. Any other error is a bug and propagates.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from .brownian import uniform_grid, write_path_csv
from .ctmc import ChainPath, generator_from_json, simulate_exact_path
from .errors import ConfigError, JumpBudgetError, NonFiniteError, OutputError, check_keys
from .harness import (
    CONFIG_DEFAULTS,
    CONFIG_KEYS,
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
from .solvers import exact_linear_solution

EXIT_OK = 0
EXIT_STAT_FAIL = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_NONFINITE = 4
EXIT_OUTPUT = 5

DEFAULT_CONFIG = dict(
    CONFIG_DEFAULTS,
    generator={"states": 2, "rates": [[-1.0, 1.0], [2.0, -2.0]]},
    model={"model": "linear", "a": [1.0, 2.0], "b": [2.0, 1.0], "z0": 1.0},
)


def _emit(args, name: str, render) -> str:
    """Render ``name`` into a temp file in ``--out`` (made if missing) and rename it into place.
    Whatever fails, the old target stays and the temp file goes if it can; an OSError is an
    OutputError, and a temp file that cannot be removed leaves that error as it was."""
    out = args.out or "."
    path = os.path.join(out, name)
    tmp = f"{path}.{os.getpid()}.tmp"  # one per process: concurrent runs cannot collide
    try:
        os.makedirs(out, exist_ok=True)
        with open(tmp, "w") as fh:
            render(fh)
        os.replace(tmp, path)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc
    finally:
        with contextlib.suppress(OSError):  # only a failed render, write or rename leaves it
            os.remove(tmp)
    return path


def _check_out(args) -> None:
    """Raise OutputError unless ``--out`` is, or can be made, a writable directory."""
    out = existing = os.path.abspath(args.out or ".")
    while not os.path.exists(existing):  # the nearest existing ancestor
        existing = os.path.dirname(existing)
    if not (os.path.isdir(existing) and os.access(existing, os.W_OK | os.X_OK)):
        raise OutputError(f"{out} is not a writable directory")


def _load_config(args) -> dict:
    cfg = dict(DEFAULT_CONFIG)
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            user = json.load(fh)
        if not isinstance(user, dict):
            raise ConfigError("config file must hold a JSON object")
        check_keys(user, CONFIG_KEYS, "config")
        cfg.update(user)
        version = setting(cfg, "schema_version", int)
        if version != CONFIG_DEFAULTS["schema_version"]:
            raise ConfigError(f"unsupported schema_version {version}")
    if args.seed is not None:
        cfg["seed"] = args.seed
    if getattr(args, "smoke", False):
        cfg["samples"] = min(setting(cfg, "samples", int), 32)
        cfg["deltas"] = sorted(setting(cfg, "deltas", [float]), reverse=True)[:3]
    return cfg


def cmd_chain_simulate(args, cfg) -> int:
    path = simulate_exact_path(
        generator_from_json(cfg["generator"]), setting(cfg, "initial_regime", int),
        setting(cfg, "horizon", float), derive_stream(setting(cfg, "seed", int), 0),
        max_switches=setting(cfg, "jump_budget", int),
    )
    print(_emit(args, "chain.csv", path.to_csv))
    return EXIT_OK


def cmd_chain_validate(args, cfg) -> int:
    report = validate_chain_statistics(
        generator_from_json(cfg["generator"]),
        step=setting(cfg, "step", float),
        samples=setting(cfg, "samples", int),
        seed=setting(cfg, "seed", int),
    )
    failed = [c.name for c in report.checks if not c.passed]
    print(f"{len(report.checks)} checks, {len(failed)} failed")
    for name in failed:
        print(f"FAIL {name}")
    print(_emit(args, "chain_validation.csv", report.write_csv))
    return EXIT_OK if report.passed else EXIT_STAT_FAIL


def cmd_solve(args, cfg) -> int:
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

    ladder = zip(config.schemes, _solve_ladder(model, block, config.deltas, config.schemes))
    on_uniform = {tag: solved.values[on_grid[solved.bm_index]] for tag, solved in ladder}
    if reference != "none" and config.reference == REFERENCE_CLOSED_FORM:
        on_uniform["reference"] = exact_linear_solution(model, block)[on_grid]

    chain = ChainPath(config.horizon, block.switch_times, block.states)
    written = [
        _emit(args, "chain.csv", chain.to_csv),
        _emit(args, "brownian.csv",
              lambda fh: write_path_csv(fh, block.points, block.bm_values, "B")),
        *(_emit(args, f"solution_{tag.replace('-', '_')}.csv",
                lambda fh: write_path_csv(fh, ugrid.points, values, "z"))
          for tag, values in on_uniform.items()),  # each render runs before the next tag
    ]
    print(*written, sep="\n")
    return EXIT_OK


def cmd_converge(args, cfg) -> int:
    report = run_strong_error(config_from_dict(cfg))
    _emit(args, "errors.csv", report.write_errors_csv)
    _emit(args, "fit.csv", report.write_fit_csv)
    text = summary_text(report)
    _emit(args, "summary.txt", lambda fh: fh.write(text))
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
    conv.add_argument("--smoke", action="store_true",
                      help="shrink samples and ladder for a quick run")
    conv.add_argument("--threads", type=int, default=1,
                      help="kept for compatibility; has no effect")
    conv.set_defaults(func=cmd_converge)
    return parser


_parser = functools.cache(build_parser)  # one per process, built by the first main call


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        _check_out(args)
        return args.func(args, cfg)
    except JumpBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ConfigError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONFINITE
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
