"""The benchmark tracer (perfbench/tracer.py) wraps package functions that
it looks up by name; every (module, function) pair it lists must still
resolve, or a traced benchmark run fails."""

import importlib
import importlib.util
from pathlib import Path

import slv.cli  # imports every module the tracer patches

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_resolves():
    layers = load_tracer().LAYERS
    assert layers
    missing = [
        f"slv.{m}.{f}"
        for m, f, _ in layers
        if not callable(getattr(importlib.import_module(f"slv.{m}"), f, None))
    ]
    assert missing == []


def test_install_and_restore_leave_no_wrapper():
    tracer = load_tracer()
    t = tracer.Tracer()
    try:
        t.install()
        assert tracer.leftover_wrappers()
    finally:
        t.restore()
    assert tracer.leftover_wrappers() == []


def test_counters_read_array_records(tmp_path):
    """Counters read `len(boxes)` and `result.num_proposals` from arguments
    and results at the call boundary; with proposals held as arrays, a small
    traced pipeline must still count them. The detection counters read
    `len(result)` of the inference columns and of the match flags."""
    tracer = load_tracer()
    t = tracer.Tracer()
    data = str(tmp_path / "data" / "dataset.jsonl")
    scorer = ["--scorer", str(tmp_path / "train" / "scorer.json")]
    stages = [
        ["generate", "--images", "3", "--size", "48", "--proposals", "20"],
        ["train", data, "--iterations", "2", "--ramp", "1", "--emit-detections"],
        ["vote", data, *scorer],
        ["compare-schemes", data, *scorer],
        ["evaluate", str(tmp_path / "train" / "detections.jsonl"), data],
    ]
    try:
        t.install()
        for out, argv in zip(["data", "train", "vote", "cmp", "eval"], stages):
            assert slv.cli.main(["--out", str(tmp_path / out), *argv]) == 0
    finally:
        t.restore()
    m = t.metrics()
    for key in (
        "mil.build_clusters.proposals",
        "voting.accumulate_fast.boxes",
        "geometry.nms.boxes_in",
        "voting.vote_boxes.regions",
    ):
        assert m[key] > 0, key
    assert m["targets.assign_targets.fg"] + m["targets.assign_targets.bg"] + m["targets.assign_targets.ignored"] > 0
    written = len((tmp_path / "train" / "detections.jsonl").read_text().splitlines()) - 1  # past the header
    assert written > 0
    assert m["trainer.run_inference.detections"] == written
    assert m["evaluation.match_detections.flags"] == written
    # The layers no stage of this pipeline calls: the functions only tests
    # use, and `write_pgm`, as its vote writes no heatmaps. A change that
    # stops calling any other layer would zero its metrics silently.
    never_called = {f"{mod}.{fn}" for mod, fn, _ in tracer.LAYERS if m[f"{mod}.{fn}.calls"] == 0}
    assert never_called == {
        "geometry.iou",
        "geometry.connected_components",
        "geometry.min_bounding_rect",
        "geometry.pairwise_iou",
        "mil.mil_loss",
        "mil.refinement_loss",
        "schemes.label_slv",
        "targets.encode_offsets",
        "targets.decode_offsets",
        "targets.slv_loss",
        "voting.generate_supervision",
        "voting.write_pgm",
    }
    assert tracer.leftover_wrappers() == []
