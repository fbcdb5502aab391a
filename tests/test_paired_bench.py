"""The verdicts of ``tools/paired_bench.py`` on fixed numbers; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "paired_bench.py"

METRICS = [
    {"name": "samples_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("paired_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(parent, change, name="samples_per_s", **other):
    """Run records of pairs 1..n, with the parent first in odd pairs."""
    out = []
    for pair, (p, c) in enumerate(zip(parent, change), start=1):
        sides = [("parent", p), ("change", c)]
        for tree, value in sides if pair % 2 else sides[::-1]:
            out.append({"pair": pair, "seed": 1800 + pair, "tree": tree, "failed": 0,
                        name: value, **other})
    return out


PARENT = [700.0, 720.0, 740.0, 760.0, 780.0, 800.0, 690.0, 710.0, 730.0, 750.0]


def test_seeds_take_ranges_and_lists(tool):
    assert tool.parse_seeds("1801-1803,1810") == [1801, 1802, 1803, 1810]
    assert tool.parse_seeds("7") == [7]


def test_a_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_parents_spread(tool):
    change = [p + 100.0 for p in PARENT]
    got = tool.judge(PARENT, change, "higher", 0.25)
    assert (got["pairs"], got["change_better"]) == (10, 10)
    assert got["parent_median"] == 735.0 and got["change_median"] == 835.0
    assert got["parent_iqr"] == pytest.approx(757.5 - 712.5)
    assert got["rel"] == pytest.approx(100.0 / 735.0)
    assert got["verdict"].endswith("a gain")

    change[0] = change[1] = 600.0  # eight wins in ten
    assert tool.judge(PARENT, change, "higher", 0.25)["verdict"] == \
        "unresolved, inside its bound"


def test_the_summary_gives_each_trees_median_and_quartiles(tool):
    change = [p + 100.0 for p in PARENT]
    change[3] = 500.0  # a loss
    untraced = {"linear-closed": runs(PARENT, change)}
    got = tool.summarize(untraced, METRICS[:1])["linear-closed samples_per_s"]
    assert got["parent_quartiles"] == pytest.approx([712.5, 757.5])
    assert got["change_quartiles"] == pytest.approx([802.5, 847.5])
    assert got["parent_iqr"] == pytest.approx(45.0)
    assert (got["parent_median"], got["change_median"]) == (735.0, 825.0)
    assert got["verdict"].endswith("a gain")  # 9 of 10, as without the quartiles
    assert tool.summary_line("linear-closed samples_per_s", got) == (
        "linear-closed samples_per_s: 735 [712.5, 757.5] -> 825 [802.5, 847.5] "
        "(9/10 better): better in 9 of 10 pairs and beyond the parent's interquartile range: "
        "a gain")
    one = tool.judge([700.0], [800.0], "higher", 0.25)
    assert one["parent_quartiles"] == [700.0, 700.0] and one["change_quartiles"] == [800.0, 800.0]
    assert tool.summary_line("x", tool.judge([None], [1.0], "higher", 0.25)) == \
        "x: (0/1 better): unresolved, a tree has no measured run"


def test_a_gap_inside_the_parents_spread_is_unresolved(tool):
    change = [p + 10.0 for p in PARENT]  # ten wins, but 10 < the parent's IQR of 45
    got = tool.judge(PARENT, change, "higher", 0.25)
    assert got["change_better"] == 10
    assert got["verdict"] == "unresolved, inside its bound"


def test_lower_is_better_and_the_bound_is_relative_to_the_parent(tool):
    parent = [58.0, 58.2, 57.9, 58.1, 58.0, 58.3, 57.8, 58.0, 58.1, 58.2]
    got = tool.judge(parent, [v - 2.0 for v in parent], "lower", 0.1)
    assert got["change_better"] == 10 and got["verdict"].endswith("a gain")
    got = tool.judge(parent, [v + 7.0 for v in parent], "lower", 0.1)  # 12% worse
    assert got["change_better"] == 0 and got["verdict"] == "unresolved, outside its bound"
    got = tool.judge(parent, [v + 5.0 for v in parent], "lower", 0.1)  # 8.6% worse
    assert got["verdict"] == "unresolved, inside its bound"


RSS = [58.80, 58.82, 58.79, 58.81, 58.80, 58.83, 58.78, 58.80, 58.81, 58.82]  # IQR 0.0175 MB


@pytest.mark.parametrize("shift, verdict", [
    (-0.29, "unresolved, inside its bound"),  # a heap-layout shift, as in BENCH_19.json
    (-2.0, "better in 10 of 10 pairs and beyond the parent's interquartile range: a gain"),
])
def test_a_peak_rss_gain_needs_more_than_a_megabyte(tool, shift, verdict):
    untraced = {"vector-fine": runs(RSS, [v + shift for v in RSS], name="peak_rss_mb")}
    got = tool.summarize(untraced, METRICS[1:])["vector-fine peak_rss_mb"]
    assert got["change_better"] == 10 and got["parent_iqr"] < 0.02
    assert got["verdict"] == verdict


@pytest.mark.parametrize("shift, verdict", [(0.5, "a gain"), (10.0, "unresolved, inside its bound"),
                                            (100.0, "a gain")])
def test_the_megabyte_floor_leaves_throughput_verdicts_alone(tool, shift, verdict):
    parent = PARENT if shift > 1.0 else [700.0] * 10  # 0.5/s beyond an IQR of 0 is a gain
    change = [p + shift for p in parent]
    got = tool.summarize({"linear-closed": runs(parent, change)}, METRICS[:1])
    assert got["linear-closed samples_per_s"]["verdict"].endswith(verdict)
    assert got["linear-closed samples_per_s"]["verdict"] == \
        tool.judge(parent, change, "higher", 0.25)["verdict"]


def test_summary_counts_every_pair_and_a_failed_side_wins_nothing(tool):
    untraced = {"linear-closed": runs(PARENT, [p + 100.0 for p in PARENT],
                                      peak_rss_mb=58.0)}
    untraced["linear-closed"][0]["failed"] = 1  # pair 1's parent run failed a round
    summary = tool.summarize(untraced, METRICS)
    assert set(summary) == {"linear-closed samples_per_s", "linear-closed peak_rss_mb"}
    speed = summary["linear-closed samples_per_s"]
    assert speed["pairs"] == 10 and speed["change_better"] == 9
    assert speed["failed"] == {"parent": 1, "change": 0}
    assert speed["crashed"] == {"parent": 0, "change": 0}
    assert speed["parent_median"] == tool.judge(PARENT[1:], PARENT[1:], "higher", 0.25)[
        "parent_median"]
    assert speed["verdict"].endswith("a gain")  # 9 of 10, and the change failed less
    rss = summary["linear-closed peak_rss_mb"]
    assert rss["change_better"] == 0 and rss["verdict"] == "unresolved, inside its bound"


def test_no_gain_when_the_change_fails_or_crashes_more(tool):
    change = [p + 100.0 for p in PARENT] * 2
    untraced = {"linear-closed": runs(PARENT * 2, change)}  # 20 pairs
    crashed = next(r for r in untraced["linear-closed"] if r["tree"] == "change")
    crashed.update(failed=None)
    del crashed["samples_per_s"]
    speed = tool.summarize(untraced, METRICS[:1])["linear-closed samples_per_s"]
    assert (speed["pairs"], speed["change_better"]) == (20, 19)
    assert speed["crashed"] == {"parent": 0, "change": 1}
    assert speed["verdict"] == "unresolved, inside its bound"

    crashed.update(failed=2, samples_per_s=835.0)  # ran, but failed two rounds
    speed = tool.summarize(untraced, METRICS[:1])["linear-closed samples_per_s"]
    assert speed["failed"] == {"parent": 0, "change": 2} and speed["change_better"] == 19
    assert speed["verdict"] == "unresolved, inside its bound"


def test_a_tree_without_a_measured_run_is_unresolved(tool):
    got = tool.judge([None, None], [800.0, 810.0], "higher", 0.25)
    assert got["pairs"] == 2 and got["change_better"] == 0
    assert got["verdict"] == "unresolved, a tree has no measured run"
