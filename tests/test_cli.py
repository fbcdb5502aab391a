"""End-to-end CLI tests: config handling, outputs, exit codes, determinism."""

import argparse
import json
import os
from pathlib import Path

import numpy as np
import pytest

from switchsde.cli import DEFAULT_CONFIG, build_parser, main
from switchsde.harness import config_from_dict
from switchsde.errors import GridMismatchError, NonFiniteError

TWO_STATE = {"states": 2, "rates": [[-1.0, 1.0], [2.0, -2.0]]}


def write_config(tmp_path, name="config.json", **body):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


# --- chain simulate ---------------------------------------------------------------


def test_chain_simulate_single_state(tmp_path):
    cfg = write_config(
        tmp_path, generator={"states": 1, "rates": [[0.0]]}, horizon=5.0, seed=1
    )
    out = str(tmp_path / "out")
    assert main(["chain", "simulate", "--config", cfg, "--out", out]) == 0
    header, rows = read_csv(os.path.join(out, "chain.csv"))
    assert header == ["time", "state"]
    assert rows == [["0", "1"], ["5", "1"]]


def test_chain_simulate_deterministic(tmp_path):
    cfg = write_config(tmp_path, generator=TWO_STATE, horizon=10.0, seed=77)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["chain", "simulate", "--config", cfg, "--out", out_a]) == 0
    assert main(["chain", "simulate", "--config", cfg, "--out", out_b]) == 0
    with open(os.path.join(out_a, "chain.csv"), "rb") as fh:
        bytes_a = fh.read()
    with open(os.path.join(out_b, "chain.csv"), "rb") as fh:
        bytes_b = fh.read()
    assert bytes_a == bytes_b


def test_chain_simulate_invalid_generator_exits_2(tmp_path):
    cfg = write_config(tmp_path, generator={"states": 2, "rates": [[-1.0, -1.0], [2.0, -2.0]]})
    assert main(["chain", "simulate", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_chain_simulate_budget_exits_3(tmp_path):
    cfg = write_config(
        tmp_path,
        generator={"states": 2, "rates": [[-1e4, 1e4], [1e4, -1e4]]},
        horizon=1.0,
        jump_budget=50,
        seed=0,
    )
    assert main(["chain", "simulate", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_missing_config_file_exits_2(tmp_path):
    assert main(["chain", "simulate", "--config", str(tmp_path / "nope.json")]) == 2


# --- chain validate ---------------------------------------------------------------


def test_chain_validate_default_generator_passes(tmp_path):
    cfg = write_config(tmp_path, generator=TWO_STATE, step=0.1, samples=2 * 10**4, seed=0)
    out = str(tmp_path / "val")
    assert main(["chain", "validate", "--config", cfg, "--out", out]) == 0
    header, rows = read_csv(os.path.join(out, "chain_validation.csv"))
    assert header == ["check", "statistic", "bound", "passed", "detail"]
    assert all(r[3] == "1" for r in rows)


def test_chain_validate_single_state(tmp_path):
    cfg = write_config(
        tmp_path, generator={"states": 1, "rates": [[0.0]]}, step=0.5, samples=2000
    )
    assert main(["chain", "validate", "--config", cfg, "--out", str(tmp_path)]) == 0


def test_chain_validate_skewed_sampler_exits_1(tmp_path, monkeypatch):
    class Skewed:
        def __init__(self, inner):
            self.inner = inner
            self.bit_generator = inner.bit_generator

        def random(self, size=None):
            return self.inner.random(size) ** 2

    monkeypatch.setattr(
        "switchsde.harness.derive_stream",
        lambda seed, index: Skewed(np.random.default_rng((seed, index))),
    )
    cfg = write_config(tmp_path, generator=TWO_STATE, step=0.1, samples=2 * 10**4, seed=0)
    assert main(["chain", "validate", "--config", cfg, "--out", str(tmp_path)]) == 1


# --- solve ------------------------------------------------------------------------


def test_solve_linear_writes_coupled_outputs(tmp_path):
    cfg = write_config(
        tmp_path,
        generator=TWO_STATE,
        model={"model": "linear", "a": [1.0, 2.0], "b": [2.0, 1.0], "z0": 1.0},
        horizon=1.0,
        step=0.125,
        seed=5,
        schemes=["jump-adapted", "classical"],
    )
    out = str(tmp_path / "solve")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    times = {}
    for name in ("solution_jump_adapted.csv", "solution_classical.csv", "solution_reference.csv"):
        header, rows = read_csv(os.path.join(out, name))
        assert header == ["time", "z_1"]
        times[name] = [r[0] for r in rows]
    assert len(set(map(tuple, times.values()))) == 1  # shared time column
    assert os.path.exists(os.path.join(out, "chain.csv"))
    assert os.path.exists(os.path.join(out, "brownian.csv"))


def test_solve_constant_drift_matches_piecewise_linear(tmp_path):
    cfg = write_config(
        tmp_path,
        generator=TWO_STATE,
        model={"model": "trig", "a": [0.0, 0.0], "b": [0.0, 0.0], "c": [1.0, -1.0], "z0": 0.0},
        horizon=1.0,
        step=0.25,
        seed=9,
        schemes=["jump-adapted"],
    )
    out = str(tmp_path / "const")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    _, chain_rows = read_csv(os.path.join(out, "chain.csv"))
    switches = [(float(t), int(state)) for t, state in chain_rows]

    def exact(t):
        total, acc = 0.0, 0.0
        for (t0, state), (t1, _) in zip(switches, switches[1:]):
            seg = max(0.0, min(t, t1) - t0)
            acc += (1.0 if state == 1 else -1.0) * seg
        return acc

    _, rows = read_csv(os.path.join(out, "solution_jump_adapted.csv"))
    for t_str, z_str in rows:
        assert abs(float(z_str) - exact(float(t_str))) <= 1e-12


def test_solve_rejects_regime_count_mismatch(tmp_path):
    three = {"states": 3, "rates": [[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]]}
    cfg = write_config(tmp_path, generator=three, schemes=[], horizon=3.0)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_solve_rejects_closed_form_for_trig(tmp_path):
    cfg = write_config(
        tmp_path,
        generator=TWO_STATE,
        model={"model": "trig", "a": [1.0, 2.0], "b": [0.5, 1.0], "c": [0.0, 0.0], "z0": 1.0},
        horizon=1.0,
        step=0.25,
        reference="closed-form",
    )
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("extra", [
    {"schemes": ["jump-adapted", "bogus"]},
    {"reference": "fine-em"},
    {"reference": "bogus"},
])
def test_solve_rejects_bad_config_before_writing(tmp_path, extra):
    cfg = write_config(tmp_path, generator=TWO_STATE, horizon=1.0, step=0.25, **extra)
    out = tmp_path / "solve"
    out.mkdir()
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert os.listdir(out) == []


def test_solve_without_reference_writes_none(tmp_path):
    cfg = write_config(tmp_path, generator=TWO_STATE, horizon=1.0, step=0.25,
                       schemes=["classical"], reference="none")
    out = tmp_path / "solve"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["brownian.csv", "chain.csv", "solution_classical.csv"]


# --- converge ---------------------------------------------------------------------


def converge_config(tmp_path, **extra):
    body = dict(
        generator=TWO_STATE,
        model={"model": "linear", "a": [1.0, 2.0], "b": [2.0, 1.0], "z0": 1.0},
        horizon=1.0,
        deltas=[2.0**-3, 2.0**-4, 2.0**-5],
        p=[2],
        samples=16,
        seed=11,
        schemes=["jump-adapted", "classical"],
    )
    body.update(extra)
    return write_config(tmp_path, **body)


def test_converge_smoke_mode_completes(tmp_path):
    cfg = converge_config(tmp_path, samples=2)
    out = str(tmp_path / "conv")
    assert main(["converge", "--config", cfg, "--out", out]) == 0
    for name in ("errors.csv", "fit.csv", "summary.txt"):
        assert os.path.exists(os.path.join(out, name))
    header, rows = read_csv(os.path.join(out, "errors.csv"))
    assert header == ["scheme", "p", "delta", "eps", "stderr", "M"]
    assert len(rows) == 6


def test_converge_rejects_non_dyadic_ladder(tmp_path):
    cfg = converge_config(tmp_path, deltas=[0.1, 0.05, 0.03])
    assert main(["converge", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_converge_rejects_ladder_off_the_finest_grid(tmp_path):
    # dyadic to 1e-12, but 0.25 misses the finest grid's 0.25000000000012
    cfg = converge_config(tmp_path, deltas=[0.25, 0.1250000000000625])
    assert main(["converge", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("deltas", [[0.25, 0.125], [0.3, 0.15]])
def test_converge_runs_ladders_on_the_finest_grid(tmp_path, deltas):
    cfg = converge_config(tmp_path, deltas=deltas)
    assert main(["converge", "--config", cfg, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "errors.csv") as fh:
        assert len(fh.read().splitlines()) == 1 + 2 * len(deltas)


def test_converge_thread_count_does_not_change_bytes(tmp_path):
    cfg = converge_config(tmp_path, samples=24)
    out_a, out_b = str(tmp_path / "t1"), str(tmp_path / "t8")
    assert main(["converge", "--config", cfg, "--out", out_a, "--threads", "1"]) == 0
    assert main(["converge", "--config", cfg, "--out", out_b, "--threads", "8"]) == 0
    for name in ("errors.csv", "fit.csv"):
        with open(os.path.join(out_a, name), "rb") as fh:
            bytes_a = fh.read()
        with open(os.path.join(out_b, name), "rb") as fh:
            bytes_b = fh.read()
        assert bytes_a == bytes_b


def test_converge_smoke_flag_shrinks_run(tmp_path):
    cfg = converge_config(tmp_path, samples=500, deltas=[2.0**-k for k in range(3, 9)])
    out = str(tmp_path / "smoke")
    assert main(["converge", "--config", cfg, "--out", out, "--smoke"]) == 0
    _, rows = read_csv(os.path.join(out, "errors.csv"))
    deltas = sorted({float(r[2]) for r in rows})
    assert len(deltas) == 3
    assert all(int(r[5]) <= 32 for r in rows)


def test_converge_seed_flag_overrides(tmp_path):
    cfg = converge_config(tmp_path)
    out_a, out_b, out_c = (str(tmp_path / x) for x in ("s1", "s2", "s3"))
    assert main(["converge", "--config", cfg, "--out", out_a, "--seed", "123"]) == 0
    assert main(["converge", "--config", cfg, "--out", out_b, "--seed", "123"]) == 0
    assert main(["converge", "--config", cfg, "--out", out_c, "--seed", "124"]) == 0
    read = lambda p: open(os.path.join(p, "errors.csv"), "rb").read()
    assert read(out_a) == read(out_b)
    assert read(out_a) != read(out_c)


def test_unsupported_schema_version_exits_2(tmp_path):
    cfg = converge_config(tmp_path, schema_version=99)
    assert main(["converge", "--config", cfg, "--out", str(tmp_path)]) == 2


# --- error mapping ----------------------------------------------------------------


def test_missing_generator_key_exits_2(tmp_path):
    cfg = write_config(tmp_path, generator={"states": 2})
    assert main(["chain", "simulate", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_missing_model_key_exits_2(tmp_path):
    cfg = write_config(tmp_path, generator=TWO_STATE, model={"model": "linear", "a": [1.0, 2.0]})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_internal_key_error_is_not_reported_as_config_error(tmp_path, monkeypatch):
    def broken(config, threads=1):
        raise KeyError("internal")

    monkeypatch.setattr("switchsde.cli.run_strong_error", broken)
    cfg = converge_config(tmp_path)
    with pytest.raises(KeyError):
        main(["converge", "--config", cfg, "--out", str(tmp_path)])


def test_non_finite_solution_exits_4(tmp_path, monkeypatch):
    def diverging(config, threads=1):
        raise NonFiniteError("scheme produced non-finite values")

    monkeypatch.setattr("switchsde.cli.run_strong_error", diverging)
    cfg = converge_config(tmp_path)
    assert main(["converge", "--config", cfg, "--out", str(tmp_path)]) == 4


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_solve_diverging_model_exits_4(tmp_path):
    cfg = write_config(
        tmp_path, generator=TWO_STATE, schemes=["jump-adapted"],
        model={"model": "linear", "a": [1e200, 1e200], "b": [0.0, 0.0], "z0": 1.0},
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 4
    assert not out.exists()  # every scheme is solved before the first file is written


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_converge_diverging_model_exits_4(tmp_path):
    cfg = converge_config(
        tmp_path, model={"model": "linear", "a": [1e200, 1e200], "b": [0.0, 0.0], "z0": 1.0},
    )
    assert main(["converge", "--config", cfg, "--out", str(tmp_path)]) == 4


def test_contract_error_is_not_reported_as_config_error(tmp_path, monkeypatch):
    def broken(config, threads=1):
        raise GridMismatchError("internal")

    monkeypatch.setattr("switchsde.cli.run_strong_error", broken)
    cfg = converge_config(tmp_path)
    with pytest.raises(GridMismatchError):
        main(["converge", "--config", cfg, "--out", str(tmp_path)])


@pytest.mark.parametrize("command", ["converge", "solve", "chain simulate"])
def test_list_form_generator_exits_2(tmp_path, command):
    cfg = converge_config(tmp_path, generator=[[-1.0, 1.0], [2.0, -2.0]])
    assert main([*command.split(), "--config", cfg, "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("p", ["24", [2.5], 2], ids=["string", "float", "scalar"])
def test_converge_rejects_p_that_is_not_a_list_of_integers(tmp_path, p):
    cfg = converge_config(tmp_path, p=p)
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists() or os.listdir(out) == []


def test_initial_regime_outside_chain_exits_2(tmp_path):
    cfg = write_config(tmp_path, generator=TWO_STATE, initial_regime=3)
    assert main(["chain", "simulate", "--config", cfg, "--out", str(tmp_path)]) == 2


FAST_THREE_STATE = {"states": 3, "rates": [[-500.0, 300.0, 200.0],
                                           [250.0, -600.0, 350.0],
                                           [400.0, 200.0, -600.0]]}
FAST_MODEL = {"model": "linear", "a": [1.0, 2.0, -0.5], "b": [2.0, 1.0, 0.5], "z0": 1.0}


@pytest.mark.parametrize("command", ["converge", "solve"])
def test_jump_budget_bounds_every_command(tmp_path, command):
    # about 550 switches per unit time: a budget of 10 is exceeded in the first sample
    cfg = write_config(tmp_path, generator=FAST_THREE_STATE, model=FAST_MODEL, samples=4,
                       jump_budget=10)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    roomy = write_config(tmp_path, "roomy.json", generator=FAST_THREE_STATE, model=FAST_MODEL,
                         samples=4, deltas=[2.0**-3, 2.0**-4], jump_budget=5000)
    assert main([command, "--config", roomy, "--out", str(tmp_path / "roomy")]) == 0


# --- every command writes each file through one atomic writer -----------------------

SIMULATE, VALIDATE, SOLVE, CONVERGE = "chain simulate", "chain validate", "solve", "converge"
EVERY = [SIMULATE, VALIDATE, SOLVE, CONVERGE]
SMALL = {  # a quick config for each command
    SIMULATE: dict(generator=TWO_STATE, horizon=10.0),
    VALIDATE: dict(generator=TWO_STATE, step=0.1, samples=2000),
    SOLVE: dict(generator=TWO_STATE, step=0.25),
    CONVERGE: dict(generator=TWO_STATE, deltas=[0.25, 0.125], samples=4),
}


def outputs(out):
    return {name: (out / name).read_bytes() for name in os.listdir(out)}


@pytest.mark.parametrize("command", EVERY)
def test_failed_write_leaves_old_file_and_no_temp_file(tmp_path, monkeypatch, command):
    out = tmp_path / "out"
    first = write_config(tmp_path, seed=1, **SMALL[command])
    assert main([*command.split(), "--config", first, "--out", str(out)]) == 0
    before = outputs(out)
    assert before and not any(name.endswith(".tmp") for name in before)

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    second = write_config(tmp_path, "second.json", seed=2, **SMALL[command])
    assert main([*command.split(), "--config", second, "--out", str(out)]) == 5
    assert outputs(out) == before


def write_half_then_fail(fh):
    fh.write("time,")
    raise OSError("no space left on device")


@pytest.mark.parametrize("command, render, failing, earlier", [
    (SOLVE, "switchsde.cli.write_path_csv",  # brownian.csv, after chain.csv
     lambda fh, *values: write_half_then_fail(fh), ["chain.csv"]),
    (CONVERGE, "switchsde.harness.ErrorReport.write_fit_csv",  # fit.csv, after errors.csv
     lambda report, fh: write_half_then_fail(fh), ["errors.csv"]),
], ids=[SOLVE, CONVERGE])
def test_a_render_that_fails_midway_leaves_no_partial_file(tmp_path, monkeypatch, command,
                                                           render, failing, earlier):
    """A file is rendered into its temp file, so a failing render leaves neither behind."""
    monkeypatch.setattr(render, failing)
    cfg = write_config(tmp_path, **SMALL[command])
    out = tmp_path / "out"
    assert main([*command.split(), "--config", cfg, "--out", str(out)]) == 5
    assert sorted(os.listdir(out)) == earlier


@pytest.mark.parametrize("below", [False, True], ids=["file", "below a file"])
def test_out_that_cannot_be_a_directory_exits_5(tmp_path, capsys, below):
    taken = tmp_path / "taken"
    taken.write_text("keep")
    out = taken / "sub" if below else taken
    cfg = write_config(tmp_path, **SMALL[SIMULATE])
    assert main(["chain", "simulate", "--config", cfg, "--out", str(out)]) == 5
    assert capsys.readouterr().err.startswith("output error: ")
    assert taken.read_text() == "keep"


def test_converge_checks_out_before_it_runs(tmp_path, monkeypatch):
    runs = []
    monkeypatch.setattr("switchsde.cli.run_strong_error", runs.append)
    taken = tmp_path / "taken"
    taken.write_text("keep")
    cfg = write_config(tmp_path, **SMALL[CONVERGE])
    assert main(["converge", "--config", cfg, "--out", str(taken)]) == 5
    assert runs == []


def test_missing_config_exits_2_whatever_the_out(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("keep")
    missing = str(tmp_path / "nope.json")
    for out in (tmp_path / "fresh", taken):
        assert main(["converge", "--config", missing, "--out", str(out)]) == 2
    assert not (tmp_path / "fresh").exists()


# --- every command reads its settings through one checked reader -------------------

MALFORMED = [  # (key, value, the commands that read the key)
    ("schema_version", True, [SIMULATE, VALIDATE, SOLVE, CONVERGE]),
    ("samples", 40.9, [VALIDATE, SOLVE, CONVERGE]),
    ("seed", "7", [SIMULATE, VALIDATE, SOLVE, CONVERGE]),
    ("seed", "x", [SIMULATE, VALIDATE, SOLVE, CONVERGE]),
    ("refinement_exponent", True, [SOLVE, CONVERGE]),
    ("jump_budget", 12.5, [SIMULATE, SOLVE, CONVERGE]),
    ("initial_regime", True, [SIMULATE, SOLVE, CONVERGE]),
    ("horizon", "abc", [SIMULATE, SOLVE, CONVERGE]),
    ("step", None, [VALIDATE, SOLVE]),
    ("deltas", ["0.5"], [CONVERGE]),
    ("horizon", 0, [SIMULATE, SOLVE, CONVERGE]),
    ("step", 0, [VALIDATE, SOLVE]),
    ("seed", -1, [SIMULATE, VALIDATE, SOLVE, CONVERGE]),
    ("jump_budget", -5, [SIMULATE, SOLVE, CONVERGE]),
    ("schemes", {"jump-adapted": 1}, [SOLVE, CONVERGE]),
    ("schemes", ["classical", "classical"], [SOLVE, CONVERGE]),
    ("p", [2, 2], [SOLVE, CONVERGE]),
]


@pytest.mark.parametrize("command, key, value", [
    pytest.param(command, key, value, id=f"{command}-{key}={json.dumps(value)}")
    for key, value, commands in MALFORMED for command in commands
])
def test_malformed_or_out_of_range_value_exits_2_before_writing(tmp_path, command, key, value):
    cfg = write_config(tmp_path, **{key: value})
    out = tmp_path / "out"
    assert main([*command.split(), "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists() or os.listdir(out) == []


MODEL_READERS = [SOLVE, CONVERGE]


@pytest.mark.parametrize("command", EVERY)
def test_negative_seed_flag_exits_2_before_writing(tmp_path, command):
    out = tmp_path / "out"
    assert main([*command.split(), "--seed", "-1", "--out", str(out)]) == 2
    assert not out.exists() or os.listdir(out) == []


@pytest.mark.parametrize("command", [SOLVE, CONVERGE])
def test_schemes_is_read_as_a_list_of_strings(tmp_path, command, capsys):
    cfg = write_config(tmp_path, schemes="classical")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "schemes must be a list, got 'classical'" in capsys.readouterr().err
    assert not out.exists() or os.listdir(out) == []


MALFORMED_INSIDE = [  # (the raw JSON of one config entry, the commands that read it)
    ('"generator": {"states": 2.9, "rates": [[-1.0, 1.0], [2.0, -2.0]]}', EVERY),
    ('"generator": {"states": 2, "rates": [["-1", "1"], [2.0, -2.0]]}', EVERY),
    ('"generator": {"states": 2, "rates": [[-1.0, null], [2.0, -2.0]]}', EVERY),
    ('"generator": {"states": 2, "rates": [[-1.0, 1.0], [2.0]]}', EVERY),
    ('"model": {"model": "linear", "a": ["1", true], "b": [2.0, 1.0]}', MODEL_READERS),
    ('"model": {"model": "linear", "a": [1.0, null], "b": [2.0, 1.0]}', MODEL_READERS),
    ('"model": {"model": "linear", "a": [1.0, 1e400], "b": [2.0, 1.0]}', MODEL_READERS),
    ('"model": {"model": "linear", "a": [1.0, 2.0], "b": [2.0, 1.0], "z0": "1.5"}',
     MODEL_READERS),
    ('"model": {"model": "linear", "a": [1.0, 2.0], "b": [2.0, 1.0], "z0": [1.5]}',
     MODEL_READERS),
    ('"model": {"model": "trig", "a": [1.0, 2.0], "b": [0.5, 1.0]}', MODEL_READERS),
]


@pytest.mark.parametrize("command, entry", [
    pytest.param(command, entry, id=f"{command}-{entry}")
    for entry, commands in MALFORMED_INSIDE for command in commands
])
def test_malformed_generator_or_model_value_exits_2_before_writing(tmp_path, command, entry):
    cfg = tmp_path / "config.json"
    cfg.write_text("{" + entry + "}")
    out = tmp_path / "out"
    assert main([*command.split(), "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists() or os.listdir(out) == []


@pytest.mark.parametrize("extra", [{"samples": 40.9}, {"deltas": ["0.5", 0.25]}])
def test_smoke_reads_samples_and_deltas_through_the_checked_reader(tmp_path, extra):
    cfg = converge_config(tmp_path, **extra)
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out), "--smoke"]) == 2
    assert not out.exists() or os.listdir(out) == []


@pytest.mark.parametrize("extra", [{"samples": 1}, {"p": [1]}])
def test_solve_accepts_only_what_converge_accepts(tmp_path, extra):
    cfg = write_config(tmp_path, generator=TWO_STATE, step=0.25, **extra)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists() or os.listdir(out) == []


@pytest.mark.parametrize("extra, commands", [
    ({"deltas": []}, ["converge"]),  # solve replaces the ladder with [step]
    ({"reference": "bogus"}, ["solve", "converge"]),
    ({"reference": "fine-em", "refinement_exponent": 0}, ["solve", "converge"]),
    ({"model": {"model": "linear", "a": [1.0, 2.0], "b": [2.0]}}, ["solve", "converge"]),
    ({"model": {"model": "trig", "a": [1.0, 2.0], "b": [0.5, 1.0], "c": [0.0]}},
     ["solve", "converge"]),
    ({"initial_regime": 3}, ["solve", "converge"]),
    (None, ["solve", "converge"]),  # a config file holding a JSON list
], ids=["empty-ladder", "bogus-reference", "refinement-0", "linear-lengths", "trig-lengths",
        "initial-regime-3", "json-list"])
def test_config_errors_exit_2_before_writing(tmp_path, extra, commands):
    if extra is None:
        cfg = tmp_path / "config.json"
        cfg.write_text("[1, 2]")
    else:
        cfg = converge_config(tmp_path, **extra)
    out = tmp_path / "out"
    for command in commands:
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists() or os.listdir(out) == []


def parser_flags(parser=None, command=""):
    """Each command's option strings as build_parser() defines them, without --help."""
    parser = parser or build_parser()
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {command: {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}}
    return {name: flags for sub in subs for word, child in sub.choices.items()
            for name, flags in parser_flags(child, f"{command} {word}".strip()).items()}


def test_readme_lists_each_commands_flags_as_the_parser_defines_them():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## CLI", 1)[1].split("Config file (JSON", 1)[0]
    documented = {}
    for line in section.splitlines():
        if line.startswith("* `") and "`:" in line:
            command, rest = line[3:].split("`:", 1)
            documented[command] = {word.strip("`,.") for word in rest.split()
                                   if word.startswith("`--")}
    assert documented == parser_flags()


@pytest.mark.parametrize("argv", [["chain", "validate", "--smoke"], ["solve", "--threads", "2"],
                                  ["chain", "simulate", "--threads", "1"]], ids=" ".join)
def test_only_converge_takes_smoke_and_threads(argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    args = build_parser().parse_args(["converge", "--smoke", "--threads", "2"])
    assert args.smoke and args.threads == 2


def test_readme_config_section_matches_the_code():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("Config file (JSON", 1)[1].split("\n## ", 1)[0]
    example = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    config = config_from_dict(example)
    assert config.samples == example["samples"] and config.deltas == tuple(example["deltas"])
    shared = example.keys() & DEFAULT_CONFIG.keys()
    assert shared >= {"seed", "horizon", "generator", "model", "deltas", "samples", "step"}
    assert {k: example[k] for k in shared} == {k: DEFAULT_CONFIG[k] for k in shared}
    typed = {line.split("`")[1] for line in section.splitlines() if line.startswith("| `")}
    assert typed == example.keys() | DEFAULT_CONFIG.keys() | {"refinement_exponent"}
