"""``tools/bench_pairs.py``'s summary and claim verdict on synthetic runs.

No benchmark runs here: the runs are made up, so every figure of the summary
can be worked out by hand.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

METRICS = [{"name": "items_per_s", "better": "higher"}, {"name": "op_p50_ms", "better": "lower"}]
BETTER = {m["name"]: m["better"] for m in METRICS}


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(seed, side, items, p50, failed=0):
    return {"workload": "w", "seed": seed, "side": side, "result": {
        "correct": True, "attempted": 33, "failed": failed,
        "metrics": {"items_per_s": {"value": items}, "op_p50_ms": {"value": p50}}}}


def ten_pairs(change_items):
    """Parent items/s 101..110 by seed; the change's from ``change_items(seed, parent)``;
    op_p50_ms 1..10 for the parent and half a millisecond less for the change."""
    runs = []
    for seed in range(1, 11):
        parent = 100.0 + seed
        runs.append(run(seed, "parent", parent, float(seed), failed=int(seed == 3)))
        runs.append(run(seed, "change", change_items(seed, parent), seed - 0.5))
    return runs


def test_summary_counts_wins_and_quartiles(tool):
    # Nine pairs 20 items/s up, the tenth a tie; one more run failed outright.
    runs = ten_pairs(lambda seed, parent: parent if seed == 10 else parent + 20.0)
    runs.append({"workload": "w", "seed": 11, "side": "parent", "result": {"error": "exit 1"}})
    s = tool.summarize(runs, ["w"], METRICS)["w"]
    items = s["items_per_s"]
    assert items["pairs"] == 10
    assert items["change_wins"] == 9                     # the tie counts for neither side
    assert items["parent_q1_median_q3"] == pytest.approx([103.25, 105.5, 107.75])
    assert items["change_q1_median_q3"] == pytest.approx([122.25, 124.5, 126.75])
    assert items["median_change_rel"] == pytest.approx(19.0 / 105.5)
    assert items["parent_iqr"] == pytest.approx(4.5)
    assert items["median_gap"] == pytest.approx(19.0)
    assert s["op_p50_ms"]["change_wins"] == 10           # lower is better here
    assert s["op_p50_ms"]["median_change_rel"] == pytest.approx(-0.5 / 5.5)
    assert s["failed_of_attempted"] == {"parent": [1, 330], "change": [0, 330]}
    assert s["all_correct"] is True
    assert s["runs_failed"] == 1

    met = tool.verdict({"w": s}, "w:items_per_s", BETTER)
    assert met["met"] is True
    assert (met["change_wins"], met["pairs"]) == (9, 10)
    assert met["median_ratio"] == pytest.approx(124.5 / 105.5)
    assert tool.verdict({"w": s}, "w:op_p50_ms", BETTER)["met"] is False   # gap 0.5 < IQR


@pytest.mark.parametrize("change_items,why", [
    (lambda seed, parent: parent if seed >= 9 else parent + 20.0, "8 of 10 wins"),
    (lambda seed, parent: parent + 1.0, "10 wins, median gap 1 within the parent IQR 4.5"),
    (lambda seed, parent: parent - 20.0, "worse in every pair"),
])
def test_claim_needs_nine_wins_and_a_gap_above_the_parent_iqr(tool, change_items, why):
    summary = tool.summarize(ten_pairs(change_items), ["w"], METRICS)
    assert tool.verdict(summary, "w:items_per_s", BETTER)["met"] is False, why


def test_too_few_pairs_give_no_summary_and_no_claim(tool):
    summary = tool.summarize(ten_pairs(lambda seed, parent: parent + 20.0)[:2], ["w"], METRICS)
    assert summary == {}
    assert tool.verdict(summary, "w:items_per_s", BETTER) == {
        "workload": "w", "metric": "items_per_s", "met": False}
