"""The configs that the benchmark, the digest and README feed the package.

`perfbench/workloads.py` and `tools/output_digest.py` hand their configs to
`config_from_dict` and `switchsde converge`, and README shows one to its
readers. Each must pass the key check and build the experiment it always
built, so a renamed key fails here and not silently in a benchmark run.
The files are loaded read-only, without writing bytecode beside them. The
digest's ``--expect`` gate, which exits 1 on another total, is checked here too.
"""

import hashlib
import importlib.util
import json
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import switchsde as s
from switchsde.harness import config_from_dict

ROOT = Path(__file__).resolve().parents[1]
FASTSWITCH_RATES = [[-500.0, 300.0, 200.0], [250.0, -600.0, 350.0], [400.0, 200.0, -600.0]]
TWO_STATE_RATES = [[-1.0, 1.0], [2.0, -2.0]]
LADDER = tuple(2.0**-k for k in range(4, 10))
BOTH = ("jump-adapted", "classical")


def load(path: Path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(path.parent))  # workloads.py imports spans.py beside it
    spec = importlib.util.spec_from_file_location(f"tool_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def plain(config) -> dict:
    """An ExperimentConfig's fields, with its model and generator as plain values."""
    out = {f.name: getattr(config, f.name) for f in fields(config)}
    model = out.pop("model")
    out["model"] = (type(model).__name__, model.initial_value.tolist(), model.initial_regime,
                    *(getattr(model, key).tolist() for key in "abc" if hasattr(model, key)))
    out["generator"] = out["generator"].rates.tolist()
    return out


def experiment(rates, model, **settings):
    settings = {"horizon": 1.0, "p_values": (2, 4), "deltas": LADDER, "samples": 70, "seed": 0,
                "reference": "closed-form", "schemes": BOTH, **settings}
    return plain(s.ExperimentConfig(model=model, generator=s.validate_generator(rates),
                                    **settings))


def linear(a=(1.0, 2.0), b=(2.0, 1.0)):
    return s.LinearHybridModel(a=list(a), b=list(b), z0=1.0)


FAST_MODEL = dict(a=(1.0, 2.0, -0.5), b=(2.0, 1.0, 0.5))


def test_benchmark_workloads_build_the_experiments_they_always_built(monkeypatch):
    workloads = load(ROOT / "perfbench" / "workloads.py", monkeypatch)
    for name, rates, model in (
            ("LINEAR_CLOSED", TWO_STATE_RATES, linear()),
            ("FASTSWITCH_CLOSED", FASTSWITCH_RATES, linear(**FAST_MODEL))):
        config = dict(getattr(workloads, name), seed=7, samples=64)  # as the workload adds
        assert plain(config_from_dict(config)) == experiment(rates, model, seed=7, samples=64)


@pytest.mark.parametrize("horizon", [1.0, 0.7, 3.0])
def test_digest_configs_build_the_experiments_they_always_built(monkeypatch, horizon):
    digest = load(ROOT / "tools" / "output_digest.py", monkeypatch)
    trig = s.TrigHybridModel(a=[1.0, -0.5], b=[0.8, 0.3], c=[0.2, -0.1], z0=0.5)
    want = {
        "linear": experiment(TWO_STATE_RATES, linear(), horizon=horizon, seed=10),
        "fastswitch": experiment(FASTSWITCH_RATES, linear(**FAST_MODEL), horizon=horizon,
                                 seed=10, samples=20),
        "trig-fine": experiment(TWO_STATE_RATES, trig, horizon=horizon, seed=10,
                                reference="fine-em", ref_refinement=3,
                                deltas=tuple(2.0**-k for k in range(3, 7))),
    }
    assert digest.CONFIGS.keys() == want.keys()
    for label, base in digest.CONFIGS.items():
        config = dict(base, horizon=horizon, seed=10, schema_version=1)  # as the digest runs it
        config.setdefault("samples", digest.SAMPLES)
        assert plain(config_from_dict(config)) == want[label], label


def test_digest_expect_exits_1_unless_the_total_matches(monkeypatch, capsys):
    digest = load(ROOT / "tools" / "output_digest.py", monkeypatch)
    outputs = [("errors.csv", b"a,b\n"), ("fit.csv", b"c\n")]
    monkeypatch.setattr(digest, "items", lambda src: iter(outputs))
    total = hashlib.sha256("".join(f"{name}\t{hashlib.sha256(data).hexdigest()}\n"
                                   for name, data in outputs).encode()).hexdigest()
    src = str(ROOT / "src")
    assert digest.main([src]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"{total}  TOTAL"
    assert digest.main([src, "--expect", total]) == 0
    assert digest.main([src, "--expect", total.upper()]) == 0
    assert digest.main([src, "--expect", "0" * 64]) == 1
    out = capsys.readouterr()
    assert out.out.splitlines()[-1] == f"{total}  TOTAL" and "differs" in out.err
    with pytest.raises(SystemExit) as exc:
        digest.main([str(ROOT / "tools")])  # holds no switchsde package
    assert exc.value.code == 2


def test_readme_example_builds_the_experiment_it_always_built():
    section = (ROOT / "README.md").read_text().split("Config file (JSON", 1)[1]
    example = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    assert plain(config_from_dict(example)) == experiment(
        TWO_STATE_RATES, linear(), p_values=(2,), samples=1000)
