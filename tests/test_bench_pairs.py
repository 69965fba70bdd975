"""The statistics of tools/bench_pairs.py on fixed numbers."""

import importlib.util
import platform
from pathlib import Path

import numpy as np
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


CLAIM_PARENT = [4.0, 5.0, 6.0, 4.0, 5.0, 6.0, 4.0, 5.0, 6.0, 5.0]  # median 5, q1 4.25, q3 5.75: IQR 1.5


def test_a_claim_needs_nine_wins_in_ten_and_a_better_median_past_the_iqr():
    change = [2.0, 3.0, 4.0, 2.0, 3.0, 4.0, 2.0, 3.0, 4.0, 6.0]  # median 3, loses pair 10
    s = bench_pairs.summarize(CLAIM_PARENT, change, "lower", 0.25)
    assert s["change"] == {"median": 3.0, "q1": 2.25, "q3": 4.0}
    assert s["wins"] == 9 and s["gap_exceeds_iqr"] and s["claim_met"]
    mirrored = bench_pairs.summarize([-v for v in CLAIM_PARENT], [-v for v in change], "higher", 0.25)
    assert mirrored["wins"] == 9 and mirrored["claim_met"]
    eight = change[:8] + [7.0, 6.0]  # median still 3, loses pairs 9 and 10
    s = bench_pairs.summarize(CLAIM_PARENT, eight, "lower", 0.25)
    assert s["wins"] == 8 and s["gap_exceeds_iqr"] and not s["claim_met"]
    closer = [v - 1.0 for v in CLAIM_PARENT]  # wins all 10, but the gap 1 is inside the IQR
    s = bench_pairs.summarize(CLAIM_PARENT, closer, "lower", 0.25)
    assert s["wins"] == 10 and not s["gap_exceeds_iqr"] and not s["claim_met"]


def test_a_gap_past_the_iqr_in_the_wrong_direction_is_no_claim():
    change = [2.0, 3.0, 4.0, 2.0, 3.0, 4.0, 2.0, 3.0, 4.0, 6.0]
    s = bench_pairs.summarize(CLAIM_PARENT, change, "higher", 0.25)
    assert s["wins"] == 1 and s["gap_exceeds_iqr"] and not s["claim_met"]


def test_the_printed_row_shows_the_gap_and_the_claim():
    change = [2.0, 3.0, 4.0, 2.0, 3.0, 4.0, 2.0, 3.0, 4.0, 6.0]
    assert bench_pairs.HEADING.endswith(", wins, gap>IQR, claim")
    met = bench_pairs.summarize(CLAIM_PARENT, change, "lower", None)
    assert bench_pairs.row("peak_rss_mb", met) == (
        "  peak_rss_mb                         5 [4.25, 5.75]            3 [2.25, 4]   -40.0%  9/10  yes  met"
    )
    wrong_way = bench_pairs.summarize(CLAIM_PARENT, change, "higher", None)
    assert bench_pairs.row("map", wrong_way) == (
        "  map                                 5 [4.25, 5.75]            3 [2.25, 4]   -40.0%  1/10  yes   no"
    )
    spread = bench_pairs.summarize(CLAIM_PARENT, change, "lower", 0.25)  # IQR 30 % of the median
    assert bench_pairs.row("vote_s", spread).endswith("  9/10  yes  met  unresolved")


def test_the_environment_line_says_whether_runs_compile_their_sources():
    env = {"python": "3.11.7", "numpy": "2.4.6", "dont_write_bytecode": True}
    assert bench_pairs.environment_line(env) == (
        "environment python 3.11.7 numpy 2.4.6 PYTHONDONTWRITEBYTECODE set:"
        " every import compiles slv's sources, so setup_s grows with source size"
    )
    env["dont_write_bytecode"] = False
    assert bench_pairs.environment_line(env) == "environment python 3.11.7 numpy 2.4.6 PYTHONDONTWRITEBYTECODE unset"


@pytest.mark.parametrize("environ, compiles", [({"PYTHONDONTWRITEBYTECODE": "1"}, True), ({"PYTHONDONTWRITEBYTECODE": ""}, False), ({}, False)])
def test_the_environment_reads_the_variable_as_python_does(environ, compiles):
    """Python heeds PYTHONDONTWRITEBYTECODE when it is a non-empty string."""
    env = bench_pairs.environment(environ)
    assert env["dont_write_bytecode"] is compiles
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
