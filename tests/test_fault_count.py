"""``tools/fault_count.py`` on this checkout: one workload, two warm rounds."""

import importlib.util
import inspect
import itertools
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import switchsde.harness as harness

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "fault_count.py"


def test_counts_the_faults_of_warm_rounds_in_a_process_of_their_own():
    run = subprocess.run([sys.executable, str(TOOL), str(ROOT), "--workload", "vector-fine",
                          "--rounds", "2"], capture_output=True, text=True, check=True, timeout=60)
    result = json.loads(run.stdout)
    assert result["tree"] == str(ROOT)
    counts = result["workloads"]["vector-fine"]
    assert (counts["rounds"], counts["samples"]) == (2, 8)
    assert 0 <= counts["minflt_median"] <= counts["minflt_max"]
    assert counts["round_s_median"] > 0.0
    stages = counts["stage_ms_median"]
    assert list(stages) == ["draw", "closed_form", "grids", "recursion", "expand",
                            "interpolation", "rest"]
    assert all(ms >= 0.0 for ms in stages.values())
    assert stages["recursion"] > 0.0 and stages["closed_form"] == 0.0  # a fine-EM workload
    assert stages["interpolation"] > 0.0
    # the median of two rounds is their mean, so the stages of a round add up to it
    assert sum(stages.values()) <= 1e3 * counts["round_s_median"] * (1 + 1e-9)


def test_reports_the_traced_peak_of_each_stage_of_the_reference_round():
    run = subprocess.run([sys.executable, str(TOOL), str(ROOT), "--workload", "vector-fine",
                          "--rounds", "1"], capture_output=True, text=True, check=True, timeout=60)
    counts = json.loads(run.stdout)["workloads"]["vector-fine"]
    peaks, round_peak = counts["stage_peak_mb"], counts["round_peak_mb"]
    assert list(peaks) == ["draw", "closed_form", "grids", "recursion", "expand",
                           "interpolation"]
    assert peaks["closed_form"] == 0.0  # never called on a fine-EM workload
    assert all(peaks[stage] > 0.0 for stage in ("draw", "grids", "recursion", "expand",
                                                "interpolation"))
    assert max(peaks.values()) <= round_peak


def test_measures_copies_of_the_tree_in_sibling_directories_of_equal_name_length():
    run = subprocess.run([sys.executable, str(TOOL), str(ROOT), "--workload", "vector-fine",
                          "--rounds", "2", "--locations", "2"],
                         capture_output=True, text=True, check=True, timeout=60)
    result = json.loads(run.stdout)
    assert result["tree"] == str(ROOT)
    copies = [Path(location["tree"]) for location in result["locations"]]
    assert len(set(copies)) == 2 and copies[0].parent == copies[1].parent
    assert len(copies[0].name) == len(copies[1].name)
    assert not copies[0].parent.exists()  # removed once measured
    for location in result["locations"]:
        counts = location["workloads"]["vector-fine"]
        assert (counts["rounds"], counts["samples"]) == (2, 8)
        assert 0 <= counts["minflt_median"] <= counts["minflt_max"]


def load_tool():
    spec = importlib.util.spec_from_file_location("fault_count", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_every_grid_builder_the_harness_binds_is_timed_as_the_grids_stage(monkeypatch):
    """Each function the harness binds from the solvers that returns a RefinedGrid is
    wrapped, and its time goes to ``grids``: else a builder's time falls into ``rest``."""
    tool = load_tool()
    builders = [name for name, value in vars(harness).items() if inspect.isfunction(value)
                and value.__module__ == "switchsde.solvers"
                and inspect.signature(value).return_annotation == "RefinedGrid"]
    assert {"build_refined_grid", "classical_grid", "reference_grid"} <= set(builders)
    bound = types.SimpleNamespace(**vars(harness))  # install rebinds names here only
    timer = tool.StageTimer()
    timer.install(bound, type("Block", (), {"on_brownian_grids": None}))
    monkeypatch.setattr(tool, "time", types.SimpleNamespace(
        perf_counter=itertools.count().__next__))  # each timed call takes 1 s
    for name in builders:
        assert getattr(bound, name).__wrapped__ is getattr(harness, name), name
        with pytest.raises(AttributeError):  # None is no block
            getattr(bound, name)(None, 0.25)
        assert timer.take() == dict(dict.fromkeys(tool.STAGES[:-1], 0.0), grids=1.0), name


def test_a_stage_peak_holds_the_peaks_of_the_stages_nested_in_it():
    timer = load_tool().StageTimer()

    def interpolation():
        return len(bytearray(4_000_000))  # freed on return

    def expand():
        timer.timed("interpolation", interpolation)
        return len(bytearray(1_000_000))

    def round_():
        timer.timed("expand", expand)
        timer.timed("grids", bytearray, 500_000)  # restarts tracemalloc's one peak
        return len(bytearray(2_000_000))

    round_peak = timer.traced_peak(round_)
    assert 4e6 <= timer.peaks["interpolation"] <= timer.peaks["expand"] < 4.5e6
    assert 0.5e6 <= timer.peaks["grids"] < 1e6
    assert 4e6 <= round_peak < 4.5e6
    assert timer.peaks["draw"] == 0  # not run
