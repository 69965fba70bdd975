"""The statistics of tools/bench_pairs.py on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_medians_quartiles_and_wins_of_a_lower_is_better_metric():
    parent = [1.00, 1.04, 0.96, 1.02, 0.98]
    change = [0.90, 0.95, 0.97, 0.91, 0.99]  # loses pairs 2 and 4
    s = bench_pairs.summarize(parent, change, "lower", 0.25)
    assert s["parent"] == {"median": 1.00, "q1": 0.98, "q3": 1.02}
    assert s["change"] == {"median": 0.95, "q1": 0.91, "q3": 0.97}
    assert s["wins"] == 3 and s["pairs"] == 5
    assert s["change_pct"] == pytest.approx(-5.0)
    assert s["gap_exceeds_iqr"]  # 0.05 against 0.04
    assert not s["unresolved"]  # 0.04 / 1.00 against 0.25


def test_higher_is_better_wins_ties_and_a_single_pair():
    s = bench_pairs.summarize([1.0], [1.0], "higher", 0.01)
    assert s["parent"] == s["change"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert s["wins"] == 0 and not s["gap_exceeds_iqr"] and not s["unresolved"]
    assert bench_pairs.summarize([0.5, 0.6], [0.7, 0.4], "higher", None)["wins"] == 1


def test_a_metric_whose_parent_spreads_wider_than_its_bound_is_unresolved():
    parent = [0.10, 0.20, 0.13, 0.16]  # q1 0.1225, q3 0.17: IQR 0.0475, 33 % of the 0.145 median
    s = bench_pairs.summarize(parent, [0.09, 0.15, 0.12, 0.14], "lower", 0.25)
    assert s["unresolved"] and s["wins"] == 4
    assert not bench_pairs.summarize(parent, parent, "lower", 0.35)["unresolved"]
    assert not bench_pairs.summarize(parent, parent, "lower", None)["unresolved"]


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError, match="2 parent runs against 1 change runs"):
        bench_pairs.summarize([1.0, 2.0], [1.0], "lower", 0.25)


def test_a_failed_run_drops_its_whole_pair():
    """The parent fails pair 3 and the change pair 5: both sides keep the
    other 8 pairs, aligned, where dropping each side's own failure would
    leave 9 runs each and compare the change's pair 4 with the parent's 5."""
    pairs = [{"parent": {"t": 1.0 + k, "x": 0.0}, "change": {"t": 0.5 + k}} for k in range(10)]
    pairs[2]["parent"] = None
    pairs[4]["change"] = None
    values = bench_pairs.paired_values(pairs)
    kept = [k for k in range(10) if k not in (2, 4)]
    assert values == {"t": ([1.0 + k for k in kept], [0.5 + k for k in kept])}
    assert bench_pairs.summarize(*values["t"], "lower", 0.25)["wins"] == 8
    assert bench_pairs.paired_values([{"parent": None, "change": {"t": 1.0}}]) == {}
