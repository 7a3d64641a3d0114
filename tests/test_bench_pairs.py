"""scripts/bench_pairs.py: the pair order and the summary of canned runs."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
DECLARED = [
    {"name": "reindex_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "recall_at_1", "unit": "%", "better": "higher", "bound": 0.25},
]


@pytest.fixture(scope="module")
def pairs_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the module up by name
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def stdout(reindex_s: float, recall: float = 50.0, correct: bool = True,
           raw_s: float | None = None) -> str:
    """What perfbench/run.py prints: # lines, then one JSON line."""
    result = {"correct": correct, "attempted": 10, "failed": 0 if correct else 1, "metrics": {
        "reindex_s": {"value": reindex_s, "unit": "s"},
        "recall_at_1": {"value": recall, "unit": "%"},
    }}
    raw = "" if raw_s is None else (
        f"# raw wall time reindex_s      {raw_s:.6f} (corrected {reindex_s:.6f})\n")
    return f"# tabret benchmark\n{raw}# reindex_s {reindex_s}\n{json.dumps(result)}\n"


def test_seeds_and_alternating_order(pairs_script):
    assert pairs_script.parse_seeds("21-25") == [21, 22, 23, 24, 25]
    assert pairs_script.parse_seeds("3,7-8") == [3, 7, 8]
    assert [pairs_script.pair_order(i)[0] for i in range(4)] == [
        "parent", "change", "parent", "change"]


def test_last_json_line_is_the_result(pairs_script):
    assert pairs_script.last_json(stdout(0.1))["metrics"]["reindex_s"]["value"] == 0.1
    assert pairs_script.last_json("# no result\n") is None
    assert pairs_script.last_json("") is None
    assert pairs_script.last_json("[1, 2]\n") is None


def summarize(pairs_script, parent: list[float], change: list[float], **change_kwargs):
    seeds = list(range(21, 21 + len(parent)))
    results = [
        {"parent": pairs_script.last_json(stdout(p)),
         "change": pairs_script.last_json(stdout(c, **change_kwargs))}
        for p, c in zip(parent, change)
    ]
    return seeds, results, pairs_script.summarize(DECLARED, seeds, results)


def test_a_clear_gain_meets_the_rule(pairs_script):
    parent = [0.110, 0.108, 0.112, 0.109, 0.111, 0.107, 0.113, 0.110, 0.109, 0.111]
    change = [0.085, 0.084, 0.086, 0.083, 0.087, 0.085, 0.112, 0.084, 0.086, 0.085]
    seeds, results, (reindex, recall) = summarize(pairs_script, parent, change)
    assert reindex.wins == 10 and reindex.rule_holds
    q1, median, q3 = pairs_script.quartiles(parent)
    assert (q1, median, q3) == pytest.approx((0.10900, 0.1100, 0.11100))
    # equal recall in every pair: ties count for neither side
    assert recall.wins == 0 and not recall.rule_holds
    text = pairs_script.report([reindex, recall], seeds, results)
    assert "reindex_s: 21: 0.11 -> 0.085; 22: 0.108 -> 0.084" in text
    assert "10/10  holds" in text and "0/10  not met" in text
    assert "-22.7%" in text


def test_eight_wins_in_ten_or_a_gap_inside_the_iqr_is_no_gain(pairs_script):
    parent = [0.110] * 10
    change = [0.090] * 8 + [0.120] * 2
    *_, (reindex, _) = summarize(pairs_script, parent, change)
    assert reindex.wins == 8 and not reindex.rule_holds
    # every pair won, but the medians differ by less than the parent's IQR
    parent = [0.100, 0.120] * 5
    change = [p - 0.005 for p in parent]
    *_, (reindex, _) = summarize(pairs_script, parent, change)
    assert reindex.wins == 10 and not reindex.rule_holds


def test_higher_is_better_counts_the_other_way(pairs_script):
    parent = [1.0] * 10
    *_, (_, recall) = summarize(pairs_script, parent, parent, recall=60.0)
    assert recall.wins == 10 and recall.rule_holds


def test_incorrect_or_missing_runs_are_reported_and_left_out(pairs_script):
    seeds, results, _ = summarize(pairs_script, [0.1, 0.1], [0.09, 0.09])
    results[0]["change"] = pairs_script.last_json(stdout(0.01, correct=False))
    results[1]["parent"] = None
    summaries = pairs_script.summarize(DECLARED, seeds, results)
    assert summaries[0].pairs == []
    text = pairs_script.report(summaries, seeds, results)
    assert "seed 21 change: correct is False (1 of 10 failed)" in text
    assert "seed 22 parent: no result" in text
    assert "reindex_s        no correct pair" in text


def test_raw_wall_times_are_tabulated_next_to_the_corrected_metric(pairs_script):
    assert pairs_script.parse_run(stdout(0.1, raw_s=0.125))["raw"] == {"reindex_s": 0.125}
    assert pairs_script.parse_run(stdout(0.1))["raw"] == {}
    seeds = [21, 22, 23]
    results = [
        {"parent": pairs_script.parse_run(stdout(0.110, raw_s=p)),
         "change": pairs_script.parse_run(stdout(0.100, raw_s=c))}
        for p, c in ((0.20, 0.15), (0.22, 0.16), (0.18, 0.17))
    ]
    # a run that was not correct drops out of the raw pairs as of the others
    results[2]["change"] = pairs_script.parse_run(stdout(0.1, correct=False, raw_s=0.1))
    reindex, recall = pairs_script.summarize(DECLARED, seeds, results)
    assert reindex.raw == [(21, 0.20, 0.15), (22, 0.22, 0.16)]
    assert recall.raw == []
    text = pairs_script.report([reindex, recall], seeds, results)
    assert "raw 0.21 -> 0.155 (-26.2%)" in text
    assert "reindex_s raw: 21: 0.2 -> 0.15; 22: 0.22 -> 0.16" in text
    # recall has no raw wall time: its row and its pairs show none
    assert "recall_at_1 raw" not in text
    assert "raw" not in next(line for line in text.splitlines() if line.startswith("recall_at_1 "))
