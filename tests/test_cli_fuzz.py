"""slv.cli.main on damaged input files: truncated, non-UTF-8, NaN-laden,
mis-shaped and extreme-valued datasets, scorers, detection files and
configs, and on extreme command-line flag values. Every run must end in
exit code 0, 1 or 2, never an exception, and a run that exits non-zero
leaves every path under `--out` as it was.

Large integers in files are drawn only as 2**63: sizes in the tens of
thousands would make vote grids of many gigabytes instead of a quick error."""

import contextlib
import copy
import io
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slv.cli import main

REPLACEMENTS = [
    float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 1e-320, 0, -1, 2**63,
    0.5, True, None, "x", [], {}, [1], [[1, 2]],
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid input files of every kind, written by the pipeline itself."""
    root = tmp_path_factory.mktemp("fuzz")
    generate = ["generate", "--images", "2", "--size", "24", "--classes", "2", "--objects", "1", "--proposals", "6"]
    assert main(["--seed", "1", "--out", str(root / "g")] + generate) == 0
    dataset = root / "g" / "dataset.jsonl"
    assert main(["--out", str(root / "t"), "train", str(dataset), "--iterations", "2", "--emit-detections"]) == 0
    config = {
        "vote": {"t_score": 0.01, "t_b_default": 0.5, "t_b_per_class": {"0": 0.4}, "preset": "voc2007"},
        "train": {"learning_rate": 1.0, "ramp_length": 2, "mil_only": False, "nms_iou": 0.3, "det_score_min": 0.001},
        "evaluate": {"iou_threshold": 0.5, "interpolation": "all_points"},
    }
    return root, {
        "dataset": dataset.read_bytes(),
        "scorer": (root / "t" / "scorer.json").read_bytes(),
        "detections": (root / "t" / "detections.jsonl").read_bytes(),
        "config": json.dumps(config).encode(),
    }


def edit_json(obj, rng):
    """Replace, drop or append one node of a parsed JSON line. Inserted values
    are copies, so later edits never grow REPLACEMENTS or make cycles."""
    nodes = []

    def walk(node):
        children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, child in children:
            nodes.append((node, key))
            walk(child)

    walk(obj)
    if not nodes:
        return copy.deepcopy(rng.choice(REPLACEMENTS))
    parent, key = rng.choice(nodes)
    op = rng.random()
    if op < 0.6:
        parent[key] = copy.deepcopy(rng.choice(REPLACEMENTS))
    elif op < 0.8:
        del parent[key]
    elif isinstance(parent, list):
        parent.append(copy.deepcopy(rng.choice(REPLACEMENTS)))
    else:
        parent[f"extra{key}"] = copy.deepcopy(rng.choice(REPLACEMENTS))
    return obj


def damage(data: bytes, how: str, rng: random.Random) -> bytes:
    if how == "truncate":
        return data[: rng.randrange(len(data) + 1)]
    if how == "non-utf8":
        at = rng.randrange(len(data) + 1)
        return data[:at] + bytes([rng.choice([0xFF, 0xFE, 0xC3, 0x80])]) + data[at:]
    lines = data.decode().splitlines()
    k = rng.randrange(len(lines))
    obj = json.loads(lines[k])
    for _ in range(rng.randint(1, 3)):
        obj = edit_json(obj, rng)
    lines[k] = json.dumps(obj)
    return ("\n".join(lines) + "\n").encode()


def snapshot(out):
    """Every path under `out` with its bytes (None for a folder), or None
    when `out` does not exist."""
    if not out.exists():
        return None
    return {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")}


@given(
    kind=st.sampled_from(["dataset", "scorer", "detections", "config"]),
    how=st.sampled_from(["truncate", "non-utf8", "json", "json"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="config", how="json", seed=347433028)  # learning_rate becomes Infinity
@example(kind="dataset", how="json", seed=731)  # 1e308 in synth-0001's scores: vote fails after synth-0000 voted
@settings(max_examples=200, deadline=None)
def test_damaged_inputs_exit_cleanly(inputs, kind, how, seed):
    root, valid = inputs
    files = {name: root / f"{name}.in" for name in valid}
    for name, data in valid.items():
        files[name].write_bytes(damage(data, how, random.Random(seed)) if name == kind else data)
    dataset, detections = str(files["dataset"]), str(files["detections"])
    config = ["--config", str(files["config"])] if kind == "config" else []
    commands = {
        "dataset": [["vote", dataset, "--emit-heatmaps"], ["compare-schemes", dataset], ["evaluate", detections, dataset]],
        "scorer": [["vote", dataset, "--scorer", str(files["scorer"]), "--emit-heatmaps"],
                   ["compare-schemes", dataset, "--scorer", str(files["scorer"])]],
        "detections": [["evaluate", detections, dataset]],
        "config": [["vote", dataset, "--emit-heatmaps"], ["evaluate", detections, dataset]],
    }[kind]
    commands.append(["train", dataset, "--iterations", "2", "--emit-detections"])
    out = root / "out"
    for command in commands:
        before = snapshot(out)
        code = main(["--out", str(out)] + config + command)
        assert code in (0, 1, 2)
        if code != 0:
            assert snapshot(out) == before, command


# ROADMAP item 13's pools: every integer flag and every float flag of a
# command is drawn from one of them, as `--flag=value` so that argparse
# reads `-inf` and `-1e308` as values.
INTEGERS = ["-1", "0", "1", "65536", str(2**31), str(2**63), "1.5", "x"]
FLOATS = ["-1", "0", "1", "0.999999", "1e308", "-1e308", "inf", "-inf", "nan", "1e-320", "x"]
# Counts that no bound rejects and that only make a run long: 65,536
# iterations and more. (`--images` past `synthetic.MAX_IMAGES` exits at once.)
LONG = {"65536", str(2**31), str(2**63)}
FLAGS = {
    "generate": {"--seed": INTEGERS, "--images": INTEGERS, "--size": INTEGERS, "--classes": INTEGERS,
                 "--objects": INTEGERS, "--proposals": INTEGERS, "--jitter": FLOATS, "--bias": FLOATS},
    "train": {"--seed": INTEGERS, "--iterations": INTEGERS, "--lr": FLOATS, "--ramp": FLOATS,
              "--nms-iou": FLOATS, "--det-score-min": FLOATS},
    "vote": {"--t-score": FLOATS, "--t-b": FLOATS},
    "evaluate": {"--iou-threshold": FLOATS},
}
ARGV_CASES = [
    (command, flag, value)
    for command, flags in FLAGS.items()
    for flag, pool in flags.items()
    for value in pool
    if not (flag == "--iterations" and value in LONG)
]


@given(case=st.sampled_from(ARGV_CASES))
@settings(max_examples=400, deadline=None)  # above len(ARGV_CASES): hypothesis stops once every case ran
def test_extreme_flag_values_exit_cleanly(inputs, case):
    """One flag of one command at an extreme value, on a valid base command:
    exit 0, 1 or 2; a failed run prints one error line and leaves `--out`
    as it was."""
    command, flag, value = case
    root, valid = inputs
    for name in ("dataset", "scorer", "detections"):  # the other test leaves damaged copies at `<name>.in`
        (root / f"{name}.valid").write_bytes(valid[name])
    dataset, scorer, detections = (str(root / f"{name}.valid") for name in ("dataset", "scorer", "detections"))
    base = {
        "generate": ["generate", "--images", "2", "--size", "24", "--classes", "2", "--objects", "1", "--proposals", "6"],
        "train": ["train", dataset, "--iterations", "2", "--emit-detections"],
        "vote": ["vote", dataset, "--scorer", scorer, "--emit-heatmaps"],
        "evaluate": ["evaluate", detections, dataset],
    }[command]
    out = root / "argv-out"
    argv = ["--out", str(out)] + ([f"{flag}={value}"] + base if flag == "--seed" else base + [f"{flag}={value}"])
    before = snapshot(out)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code != 0:
        [line] = err.getvalue().splitlines()
        assert line.startswith(("error: ", "numerical error: ")), argv
        assert snapshot(out) == before, argv
