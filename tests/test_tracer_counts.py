"""What the benchmark tracer's vote counters mean once the vote is batched:
a stage labels all its grids in one pass, and `voting.vote_boxes.regions`
still counts the boxes that stage votes."""

import json

import slv.cli
from test_tracer_layers import load_tracer


def test_vote_boxes_regions_count_the_voted_boxes(tmp_path):
    data = tmp_path / "data"
    generate = ["generate", "--images", "6", "--size", "48", "--proposals", "20", "--classes", "3", "--objects", "2"]
    assert slv.cli.main(["--seed", "5", "--out", str(data), *generate]) == 0
    tracer = load_tracer()
    t = tracer.Tracer()
    try:
        t.install()
        vote = ["--out", str(tmp_path / "vote"), "vote", str(data / "dataset.jsonl"), "--emit-heatmaps"]
        assert slv.cli.main(vote) == 0
    finally:
        t.restore()
    lines = (tmp_path / "vote" / "pseudo_labels.jsonl").read_text().splitlines()[1:]
    written = sum(len(json.loads(line)["boxes"]) for line in lines)
    m = t.metrics()
    assert len(lines) == 6 and written > 6
    assert m["voting.vote_boxes.regions"] == written
    assert m["voting.vote_boxes.calls"] == 1  # one labeling pass for the stage
    assert m["voting.binarize.calls"] > 6  # over many grids
    assert tracer.leftover_wrappers() == []
