"""End-to-end CLI tests: config handling, outputs, exit codes, determinism."""

import json
import os

import numpy as np
import pytest

from switchsde.cli import main
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
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 4


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
