import json
from pathlib import Path

import numpy as np
import pytest

import slv
from slv.cli import _KEYS, _load_config, main
from slv.datasets import load_dataset, load_detections
from slv.trainer import ToyScorer

from helpers import pseudo_labels

FIXTURES = Path(__file__).parent / "fixtures"

GENERATE_ARGS = [
    "generate", "--images", "4", "--size", "48", "--classes", "2",
    "--objects", "1", "--proposals", "16",
]


def run(argv, capsys=None):
    code = main([str(a) for a in argv])
    if capsys is None:
        return code, None
    return code, capsys.readouterr()


class TestGenerate:
    def test_writes_dataset(self, tmp_path):
        code, _ = run(["--seed", "3", "--out", tmp_path] + GENERATE_ARGS)
        assert code == 0
        dataset = load_dataset(tmp_path / "dataset.jsonl")
        assert len(dataset) == 4
        assert dataset.num_classes == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["--seed", "3", "--out", out_a] + GENERATE_ARGS)[0] == 0
        assert run(["--seed", "3", "--out", out_b] + GENERATE_ARGS)[0] == 0
        assert (out_a / "dataset.jsonl").read_bytes() == (out_b / "dataset.jsonl").read_bytes()

    def test_config_file_supplies_defaults(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"synthetic": {"num_images": 2, "image_size": 32}}))
        code, _ = run(["--seed", "1", "--config", config, "--out", tmp_path, "generate"])
        assert code == 0
        dataset = load_dataset(tmp_path / "dataset.jsonl")
        assert len(dataset) == 2
        assert dataset.records[0].height == 32

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--jitter", "nan"], None),
            (["--jitter", "inf"], None),
            (["--jitter", "1e308"], None),
            (["--jitter", "1.5"], None),
            ([], {"synthetic": {"feature_noise": float("nan")}}),
            ([], {"synthetic": {"feature_noise": float("inf")}}),
            (["--size", "70000"], None),
        ],
        ids=["jitter-nan", "jitter-inf", "jitter-huge", "jitter-above-1", "noise-nan", "noise-inf", "size-too-large"],
    )
    def test_settings_that_crash_or_write_an_unloadable_dataset_are_one(self, tmp_path, capsys, flags, config):
        argv = ["--seed", "3", "--out", tmp_path / "out"]
        if config is not None:
            path = tmp_path / "c.json"
            path.write_text(json.dumps(config))  # writes NaN and Infinity
            argv += ["--config", path]
        code, captured = run(argv + GENERATE_ARGS + flags, capsys)
        assert code == 1
        [line] = captured.err.splitlines()
        assert line.startswith("error: synthetic config: ")
        assert not (tmp_path / "out" / "dataset.jsonl").exists()


class TestVote:
    def _generate(self, tmp_path):
        assert run(["--seed", "3", "--out", tmp_path] + GENERATE_ARGS)[0] == 0
        return tmp_path / "dataset.jsonl"

    def test_votes_from_embedded_scores(self, tmp_path):
        dataset = self._generate(tmp_path)
        code, _ = run(["--out", tmp_path / "vote", "vote", dataset])
        assert code == 0
        labels = pseudo_labels(tmp_path / "vote" / "pseudo_labels.jsonl")
        assert len(labels) == 4

    def test_rerun_is_byte_identical(self, tmp_path):
        dataset = self._generate(tmp_path)
        for sub in ("v1", "v2"):
            assert run(["--out", tmp_path / sub, "vote", dataset, "--emit-heatmaps"])[0] == 0
        a, b = tmp_path / "v1", tmp_path / "v2"
        assert (a / "pseudo_labels.jsonl").read_bytes() == (b / "pseudo_labels.jsonl").read_bytes()
        heat_a = sorted(p.name for p in (a / "heatmaps").iterdir())
        heat_b = sorted(p.name for p in (b / "heatmaps").iterdir())
        assert heat_a == heat_b
        for name in heat_a:
            assert (a / "heatmaps" / name).read_bytes() == (b / "heatmaps" / name).read_bytes()

    def test_two_class_image_emits_two_heatmaps(self, tmp_path):
        dataset_file = tmp_path / "two.jsonl"
        header = {"schema": "slv/dataset", "version": 1, "num_classes": 2}
        record = {
            "id": "duo", "height": 16, "width": 16, "labels": [1, 1],
            "proposals": [[1, 1, 8, 8], [8, 8, 15, 15]],
            "scores": [[0.9, 0.0], [0.0, 0.8]],
        }
        dataset_file.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
        code, _ = run(["--out", tmp_path / "out", "vote", dataset_file, "--emit-heatmaps"])
        assert code == 0
        names = sorted(p.name for p in (tmp_path / "out" / "heatmaps").iterdir())
        assert names == ["duo_class0.pgm", "duo_class1.pgm"]

    def test_missing_scores_record_skipped_run_continues(self, tmp_path):
        dataset_file = tmp_path / "mixed.jsonl"
        header = {"schema": "slv/dataset", "version": 1, "num_classes": 1}
        good = {"id": "good", "height": 16, "width": 16, "labels": [1],
                "proposals": [[1, 1, 8, 8]], "scores": [[0.9]]}
        bad = {"id": "bad", "height": 16, "width": 16, "labels": [1], "proposals": [[1, 1, 8, 8]]}
        dataset_file.write_text(
            "\n".join(json.dumps(x) for x in (header, good, bad)) + "\n"
        )
        code, _ = run(["--out", tmp_path / "out", "vote", dataset_file])
        assert code == 0
        labels = pseudo_labels(tmp_path / "out" / "pseudo_labels.jsonl")
        assert [image_id for image_id, _ in labels] == ["good"]

    def test_preset_flag(self, tmp_path):
        dataset = self._generate(tmp_path)
        code, _ = run(["--out", tmp_path / "p", "vote", dataset, "--preset", "voc2007"])
        assert code == 0

    @staticmethod
    def _one_class_records(path, *records):
        """A one-class dataset file of 16x16 images with one scored proposal."""
        header = {"schema": "slv/dataset", "version": 1, "num_classes": 1}
        lines = [header] + [
            {"id": image_id, "height": 16, "width": 16, "labels": [label], "proposals": [[1, 1, 8, 8]],
             "scores": [[0.9]]}
            for image_id, label in records
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        return path

    @pytest.mark.parametrize("image_id", ["../../escaped", "a\0b", "absolute"], ids=["relative", "nul", "absolute"])
    def test_image_id_that_names_no_heatmap_file_is_input_error(self, tmp_path, capsys, image_id):
        """An id with a path separator or NUL exits 1 with one line, and no
        file is written, inside `--out` or outside it."""
        if image_id == "absolute":
            image_id = str(tmp_path / "x")
        dataset = self._one_class_records(tmp_path / "ids.jsonl", ("good", 1), (image_id, 1))
        before = set(tmp_path.rglob("*"))
        code, captured = run(["--out", tmp_path / "a" / "out", "vote", dataset, "--emit-heatmaps"], capsys)
        assert code == 1
        assert captured.err.splitlines() == [
            f"error: record {image_id!r}: a heatmap file name cannot hold a path separator or NUL"
        ]
        assert [p for p in tmp_path.rglob("*") if p not in before and not p.is_dir()] == []

    def test_image_without_positive_class_names_the_vote(self, tmp_path, capsys):
        dataset = self._one_class_records(tmp_path / "neg.jsonl", ("neg", 0))
        code, captured = run(["--out", tmp_path / "out", "vote", dataset], capsys)
        assert code == 1
        assert captured.err.splitlines() == ["error: record 'neg': vote: image has no positive class"]


class TestTrainPipeline:
    def test_train_vote_compare_evaluate(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert run(["--seed", "3", "--out", data_dir] + GENERATE_ARGS)[0] == 0
        dataset = data_dir / "dataset.jsonl"

        train_dir = tmp_path / "train"
        code, _ = run(
            ["--out", train_dir, "train", dataset, "--iterations", "12", "--ramp", "6",
             "--emit-detections"]
        )
        assert code == 0
        assert (train_dir / "scorer.json").exists()
        trace = json.loads((train_dir / "trace.json").read_text())
        assert trace["schema"] == "slv/trace"
        assert len(trace["entries"]) == 12
        detections = load_detections(train_dir / "detections.jsonl")
        assert detections

        vote_dir = tmp_path / "vote"
        code, _ = run(
            ["--out", vote_dir, "vote", dataset, "--scorer", train_dir / "scorer.json"]
        )
        assert code == 0
        assert (vote_dir / "pseudo_labels.jsonl").exists()

        code, captured = run(
            ["--out", tmp_path / "cmp", "compare-schemes", dataset], capsys
        )
        assert code == 0
        assert "scheme slv overall" in captured.out
        assert (tmp_path / "cmp" / "scheme_report.txt").exists()

        code, captured = run(
            ["--out", tmp_path / "ev", "evaluate", train_dir / "detections.jsonl", dataset],
            capsys,
        )
        assert code == 0
        assert captured.out.strip().endswith(ExpectedTail.m_ap_prefix) or "mAP" in captured.out

    def test_mil_only_flag(self, tmp_path):
        data_dir = tmp_path / "data"
        assert run(["--seed", "3", "--out", data_dir] + GENERATE_ARGS)[0] == 0
        code, _ = run(
            ["--out", tmp_path / "t", "train", data_dir / "dataset.jsonl",
             "--iterations", "5", "--mil-only"]
        )
        assert code == 0
        trace = json.loads((tmp_path / "t" / "trace.json").read_text())
        assert all(e["weight_slv"] == 0.0 for e in trace["entries"])
        assert all(e["loss_slv"] == 0.0 for e in trace["entries"])


class ExpectedTail:
    m_ap_prefix = "mAP"


class TestEvaluateGolden:
    def test_fixture_report_matches_hand_computation(self, tmp_path, capsys):
        code, captured = run(
            [
                "--out", tmp_path,
                "evaluate", FIXTURES / "eval_detections.jsonl", FIXTURES / "eval_dataset.jsonl",
            ],
            capsys,
        )
        assert code == 0
        expected = (FIXTURES / "eval_expected.txt").read_text()
        assert captured.out == expected
        assert (tmp_path / "metrics.txt").read_text() == expected

    def test_unknown_class_id_is_input_error(self, tmp_path, capsys):
        dets = tmp_path / "dets.jsonl"
        dets.write_text(
            json.dumps({"schema": "slv/detections", "version": 1}) + "\n"
            + json.dumps({"id": "img1", "class": 9, "box": [0, 0, 5, 5], "score": 0.5}) + "\n"
        )
        code, captured = run(
            ["--out", tmp_path, "evaluate", dets, FIXTURES / "eval_dataset.jsonl"], capsys
        )
        assert code == 1
        assert "unknown class id" in captured.err

    def test_unknown_image_id_is_input_error(self, tmp_path, capsys):
        """As in the PASCAL devkit, a detection on an image the dataset does
        not have stops the evaluation instead of counting as a false positive."""
        dets = tmp_path / "dets.jsonl"
        lines = (FIXTURES / "eval_detections.jsonl").read_text().splitlines()
        extra = [{"id": "img9", "class": 0, "box": [10, 10, 50, 50], "score": 0.99},
                 {"id": "img8", "class": 1, "box": [0, 0, 5, 5], "score": 0.5}]
        dets.write_text("\n".join(lines[:2] + [json.dumps(obj) for obj in extra] + lines[2:]) + "\n")
        code, captured = run(
            ["--out", tmp_path, "evaluate", dets, FIXTURES / "eval_dataset.jsonl"], capsys
        )
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: detection for image 'img9': no such image in the dataset"]
        assert not (tmp_path / "metrics.txt").exists()


class TestExitCodes:
    def test_missing_file_is_one(self, tmp_path, capsys):
        code, captured = run(["--out", tmp_path, "vote", tmp_path / "nope.jsonl"], capsys)
        assert code == 1
        assert "error" in captured.err

    def test_malformed_dataset_is_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not a header\n")
        code, captured = run(["--out", tmp_path, "vote", bad], capsys)
        assert code == 1

    def test_usage_error_is_one(self, tmp_path, capsys):
        code, captured = run(["frobnicate"], capsys)
        assert code == 1
        assert "--help" in captured.err

    def test_divergence_is_two(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert run(["--seed", "3", "--out", data_dir] + GENERATE_ARGS)[0] == 0
        code, captured = run(
            ["--out", tmp_path / "t", "train", data_dir / "dataset.jsonl",
             "--iterations", "10", "--lr", "1.5e308"],
            capsys,
        )
        assert code == 2
        assert "diverged at iteration" in captured.err

    def test_overflowing_weight_update_is_two(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert run(["--seed", "3", "--out", data_dir] + GENERATE_ARGS + ["--images", "1"])[0] == 0
        code, captured = run(
            ["--out", tmp_path / "t", "train", data_dir / "dataset.jsonl", "--iterations", "1", "--lr", "1.7e308"],
            capsys,
        )
        assert code == 2
        # One iteration: only the check on the updated weights can catch it.
        assert captured.err.splitlines() == ["numerical error: training diverged at iteration 0"]

    def test_mixed_feature_widths_are_one(self, tmp_path, capsys):
        # Without a header feature_dim the loader takes any width per record;
        # training needs one width for all of them.
        assert run(["--seed", "3", "--out", tmp_path / "data"] + GENERATE_ARGS)[0] == 0
        header, *lines = (tmp_path / "data" / "dataset.jsonl").read_text().splitlines()
        header = json.loads(header)
        del header["feature_dim"]
        narrow = json.loads(lines[2])
        narrow["features"] = [row[:-1] for row in narrow["features"]]
        lines[2] = json.dumps(narrow)
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text("\n".join([json.dumps(header), *lines]) + "\n")
        code, captured = run(["--out", tmp_path / "t", "train", mixed, "--iterations", "1"], capsys)
        assert code == 1
        width = len(json.loads(lines[0])["features"][0])
        assert captured.err.splitlines() == [
            f"error: train_toy: record {narrow['id']!r} has {width - 1} features per proposal,"
            f" record {json.loads(lines[0])['id']!r} has {width}"
        ]

    def test_non_finite_learning_rate_is_one(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"train": {"learning_rate": float("inf")}}))  # writes Infinity
        train = ["--out", tmp_path / "t", "train", FIXTURES / "eval_dataset.jsonl", "--iterations", "1"]
        for argv in (train + ["--lr", "inf"], train + ["--lr", "nan"], ["--config", config] + train):
            code, captured = run(argv, capsys)
            assert code == 1
            [line] = captured.err.splitlines()
            assert line.startswith("error: ") and "learning_rate must be positive and finite" in line

    def _trained_scorer(self, tmp_path, classes):
        data_dir = tmp_path / f"data{classes}"
        args = ["--seed", "3", "--out", data_dir] + GENERATE_ARGS + ["--classes", str(classes)]
        assert run(args)[0] == 0
        train_dir = tmp_path / f"train{classes}"
        dataset = data_dir / "dataset.jsonl"
        assert run(["--out", train_dir, "train", dataset, "--iterations", "2"])[0] == 0
        return dataset, train_dir / "scorer.json"

    def _vote_is_one(self, tmp_path, capsys, dataset, scorer, message):
        for command in ("vote", "compare-schemes"):
            code, captured = run(["--out", tmp_path / "v", command, dataset, "--scorer", scorer], capsys)
            assert code == 1
            assert captured.err.startswith("error: ") and message in captured.err
            assert "Traceback" not in captured.err

    def test_scorer_with_mis_shaped_refine_weights_is_one(self, tmp_path, capsys):
        dataset, scorer = self._trained_scorer(tmp_path, 2)
        payload = json.loads(scorer.read_text())
        payload["weights"]["refine"][0] = [row[:-1] for row in payload["weights"]["refine"][0]]
        scorer.write_text(json.dumps(payload))
        self._vote_is_one(tmp_path, capsys, dataset, scorer, "weights.refine[0]")

    def test_scorer_missing_weights_is_one(self, tmp_path, capsys):
        dataset, scorer = self._trained_scorer(tmp_path, 2)
        payload = json.loads(scorer.read_text())
        del payload["weights"]["slv_cls"]
        scorer.write_text(json.dumps(payload))
        self._vote_is_one(tmp_path, capsys, dataset, scorer, "slv_cls")

    def test_scorer_from_other_class_count_is_one(self, tmp_path, capsys):
        dataset, _ = self._trained_scorer(tmp_path, 2)
        _, scorer = self._trained_scorer(tmp_path, 3)
        self._vote_is_one(tmp_path, capsys, dataset, scorer, "features per proposal")

    @pytest.mark.parametrize("scorer_classes", [2, 4])
    @pytest.mark.parametrize("command", ["vote", "compare-schemes"])
    def test_scorer_of_another_class_count_with_the_same_feature_width_is_one(
        self, tmp_path, capsys, command, scorer_classes
    ):
        """A 3-class dataset has 8 features per proposal; so has a scorer of 2
        or 4 classes built for 8 features. Voting with it would read the
        wrong rows (a 2-class scorer's background row as class 2)."""
        data_dir = tmp_path / "data"
        assert run(["--seed", "3", "--out", data_dir] + GENERATE_ARGS + ["--classes", "3"])[0] == 0
        scorer = tmp_path / "scorer.json"
        ToyScorer.initialize(scorer_classes, 8, np.random.default_rng(0)).save(scorer)
        out = tmp_path / "out"
        extra = ["--emit-heatmaps"] if command == "vote" else []
        code, captured = run(["--out", out, command, data_dir / "dataset.jsonl", "--scorer", scorer] + extra, capsys)
        assert code == 1
        assert captured.err.splitlines() == [
            f"error: record 'synth-0000' has 3 classes, the scorer has {scorer_classes}"
        ]
        assert [p for p in out.rglob("*") if p.is_file()] == []

    def test_scorer_error_writes_no_heatmap_of_an_earlier_record(self, tmp_path, capsys):
        """The first record has no features, so it votes from its embedded
        scores; the scorer does not fit the second. No heatmap is written."""
        data = tmp_path / "data"
        assert run(["--seed", "3", "--out", data] + GENERATE_ARGS + ["--classes", "3"])[0] == 0
        lines = (data / "dataset.jsonl").read_text().splitlines()
        first = json.loads(lines[1])
        del first["features"]
        lines[1] = json.dumps(first)
        (data / "dataset.jsonl").write_text("\n".join(lines) + "\n")
        scorer = tmp_path / "scorer.json"
        ToyScorer.initialize(2, 8, np.random.default_rng(0)).save(scorer)
        out = tmp_path / "out"
        code, captured = run(["--out", out, "vote", data / "dataset.jsonl", "--scorer", scorer, "--emit-heatmaps"], capsys)
        assert code == 1
        assert captured.err.splitlines() == ["error: record 'synth-0001' has 3 classes, the scorer has 2"]
        assert [p for p in out.rglob("*") if p.is_file()] == []

    @pytest.mark.parametrize("head, value", [("cls", True), ("det", "0.5"), ("refine", False)])
    def test_scorer_weights_of_wrong_json_type_are_one(self, tmp_path, capsys, head, value):
        dataset, scorer = self._trained_scorer(tmp_path, 2)
        payload = json.loads(scorer.read_text())
        matrix = payload["weights"][head][0] if head == "refine" else payload["weights"][head]
        matrix[0][0] = value
        scorer.write_text(json.dumps(payload))
        name = "refine[0]" if head == "refine" else head
        code, captured = run(["--out", tmp_path / "v", "vote", dataset, "--scorer", scorer], capsys)
        assert code == 1
        assert captured.err.splitlines() == [f"error: {scorer}: 'weights.{name}' must hold JSON numbers only"]

    @pytest.mark.parametrize(
        "score, message",
        [
            (True, "field 'score' must be a JSON number"),
            ("0.5", "field 'score' must be a JSON number"),
            (10**400, "int too large to convert to float"),
        ],
        ids=["bool", "string", "huge-int"],
    )
    def test_detection_score_of_wrong_json_type_is_one(self, tmp_path, capsys, score, message):
        dets = tmp_path / "dets.jsonl"
        dets.write_text(
            json.dumps({"schema": "slv/detections", "version": 1}) + "\n"
            + json.dumps({"id": "img1", "class": 0, "box": [0, 0, 5, 5], "score": score}) + "\n"
        )
        code, captured = run(["--out", tmp_path, "evaluate", dets, FIXTURES / "eval_dataset.jsonl"], capsys)
        assert code == 1
        assert captured.err.splitlines() == [f"error: {dets}:2: {message}"]

    def test_overflowing_scorer_is_one_and_names_the_record(self, tmp_path, capsys):
        dataset, scorer = self._trained_scorer(tmp_path, 2)
        payload = json.loads(scorer.read_text())
        payload["weights"]["refine"][0] = [[1e308] * len(row) for row in payload["weights"]["refine"][0]]
        scorer.write_text(json.dumps(payload))
        for command in ("vote", "compare-schemes"):
            code, captured = run(["--out", tmp_path / "v", command, dataset, "--scorer", scorer], capsys)
            assert code == 1
            assert captured.err.splitlines() == ["error: record 'synth-0000': scorer weights give non-finite outputs"]

    def test_scores_too_large_to_vote_are_one_and_name_the_record(self, tmp_path, capsys):
        dataset = tmp_path / "huge.jsonl"
        record = {
            "id": "huge", "height": 10, "width": 10, "labels": [1],
            "proposals": [[0, 0, 5, 5], [1, 1, 6, 6], [0, 0, 6, 6]], "scores": [[1e308] * 3],
            "gt": [{"class": 0, "box": [0, 0, 6, 6]}],
        }
        header = {"schema": "slv/dataset", "version": 1, "num_classes": 1}
        dataset.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
        for command in (["vote", dataset, "--emit-heatmaps"], ["compare-schemes", dataset]):
            code, captured = run(["--out", tmp_path / "o"] + command, capsys)
            assert code == 1
            assert captured.err.splitlines() == ["error: record 'huge': accumulate: candidate scores are too large to sum"]

    def test_record_without_proposals_votes_and_compares_nothing(self, tmp_path, capsys):
        dataset = tmp_path / "empty.jsonl"
        record = {
            "id": "empty", "height": 10, "width": 10, "labels": [1, 1],
            "proposals": [], "scores": [[], []], "gt": [{"class": 0, "box": [0, 0, 6, 6]}],
        }
        header = {"schema": "slv/dataset", "version": 1, "num_classes": 2}
        dataset.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
        code, captured = run(["--out", tmp_path / "v", "vote", dataset], capsys)
        assert code == 0, captured.err
        code, captured = run(["--out", tmp_path / "c", "compare-schemes", dataset], capsys)
        assert code == 0, captured.err
        assert captured.out.splitlines() == [
            f"scheme {name} overall mean_iou 0.000000 n 0" for name in ("clustering", "conventional", "slv")
        ]

    def test_huge_learning_rate_detections_do_not_overflow(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert run(["--seed", "3", "--out", data_dir] + GENERATE_ARGS)[0] == 0
        code, captured = run(
            ["--out", tmp_path / "t", "train", data_dir / "dataset.jsonl",
             "--iterations", "3", "--lr", "1e7", "--emit-detections"],
            capsys,
        )
        assert code == 0, captured.err
        assert (tmp_path / "t" / "detections.jsonl").exists()

    def test_bad_config_json_is_one(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text("{broken")
        code, captured = run(["--config", config, "--out", tmp_path, "generate"], capsys)
        assert code == 1
        assert "config" in captured.err
        assert run(["--seed", "3", "--out", tmp_path / "data"] + GENERATE_ARGS)[0] == 0
        train = ["--out", tmp_path / "t", "train", tmp_path / "data" / "dataset.jsonl", "--iterations", "1"]
        for ramp in ("0", "-5", "nan"):
            for extra in ([], ["--mil-only"]):
                code, captured = run(train + ["--ramp", ramp] + extra, capsys)
                assert code == 1
                assert captured.err.startswith("error: ") and "ramp_length must be positive" in captured.err

    @pytest.mark.parametrize("kind", ["dataset", "config", "detections", "scorer"])
    def test_non_utf8_file_is_one(self, tmp_path, capsys, kind):
        bad = tmp_path / "bad"
        bad.write_bytes(b"\xff\xfe not utf-8\n")
        dataset = FIXTURES / "eval_dataset.jsonl"
        argv = {
            "dataset": ["vote", bad],
            "config": ["--config", bad, "generate"],
            "detections": ["evaluate", bad, dataset],
            "scorer": ["vote", dataset, "--scorer", bad],
        }[kind]
        code, captured = run(["--out", tmp_path / "out"] + argv, capsys)
        assert code == 1
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert str(bad) in captured.err

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"vote": 5}, "'vote'"),
            ({"vote": {"t_score": "high"}}, "'t_score'"),
            ({"vote": {"t_b_per_class": [1]}}, "'t_b_per_class'"),
            ({"train": {"learning_rate": [1.0]}}, "'learning_rate'"),
            ({"train": {"ramp_length": None}}, "'ramp_length'"),
            ({"evaluate": {"iou_threshold": "half"}}, "'iou_threshold'"),
            ({"train": {"mil_only": "false"}}, "'mil_only'"),
            ({"train": {"mil_only": 0}}, "'mil_only'"),
            ({"vote": {"t_b_per_class": {"0": "0.3"}}}, "'t_b_per_class'"),
            ({"vote": {"t_b_per_class": {"0": True}}}, "'t_b_per_class'"),
            ({"train": {"learning_rate": 10**400}}, "'learning_rate'"),
        ],
    )
    def test_config_value_of_wrong_type_is_one(self, tmp_path, capsys, config, key):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        dataset = FIXTURES / "eval_dataset.jsonl"
        command = {
            "vote": ["vote", dataset],
            "train": ["train", dataset, "--iterations", "1"],
            "evaluate": ["evaluate", FIXTURES / "eval_detections.jsonl", dataset],
        }[next(iter(config))]
        code, captured = run(["--config", path, "--out", tmp_path / "out"] + command, capsys)
        assert code == 1
        assert captured.err.startswith("error: ") and key in captured.err

    def test_config_mil_only_boolean_is_read(self, tmp_path):
        assert run(["--seed", "3", "--out", tmp_path / "data"] + GENERATE_ARGS)[0] == 0
        weights = {}
        for value in (True, False):
            path = tmp_path / f"{value}.json"
            path.write_text(json.dumps({"train": {"mil_only": value}}))
            out = tmp_path / str(value)
            argv = ["--config", path, "--out", out, "train", tmp_path / "data" / "dataset.jsonl", "--iterations", "3"]
            assert run(argv + ["--ramp", "1"])[0] == 0
            weights[value] = [e["weight_slv"] for e in json.loads((out / "trace.json").read_text())["entries"]]
        assert weights == {True: [0.0, 0.0, 0.0], False: [0.0, 1.0, 1.0]}

    @pytest.mark.parametrize("ramp", [True, False, 10**400], ids=["true", "false", "huge-int"])
    def test_config_ramp_length_must_be_a_number(self, tmp_path, capsys, ramp):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"train": {"ramp_length": ramp}}))
        train = ["train", FIXTURES / "eval_dataset.jsonl", "--iterations", "1"]
        code, captured = run(["--config", path, "--out", tmp_path / "out"] + train, capsys)
        assert code == 1
        assert captured.err.splitlines() == [
            f"error: config key 'ramp_length' must be a number or a numeric string, got {ramp!r}"
        ]

    def test_config_ramp_length_takes_numbers_and_numeric_strings(self, tmp_path):
        assert run(["--seed", "3", "--out", tmp_path / "data"] + GENERATE_ARGS)[0] == 0
        weights = []
        for ramp in (2, 2.0, "2", "inf"):
            path = tmp_path / "c.json"
            path.write_text(json.dumps({"train": {"ramp_length": ramp}}))
            out = tmp_path / "out"
            argv = ["--config", path, "--out", out, "train", tmp_path / "data" / "dataset.jsonl", "--iterations", "3"]
            assert run(argv)[0] == 0
            weights.append([e["weight_slv"] for e in json.loads((out / "trace.json").read_text())["entries"]])
        assert weights == [[0.0, 0.5, 1.0]] * 3 + [[0.0, 0.0, 0.0]]

    @pytest.mark.parametrize("key", ["1_0", "2", "99", "-1", "01", " 1", "1.0", "", "\u0661"])
    def test_config_t_b_per_class_keys_must_be_class_ids(self, tmp_path, capsys, key):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"vote": {"t_b_per_class": {"0": 0.3, key: 0.2}}}))
        dataset = FIXTURES / "eval_dataset.jsonl"  # 2 classes
        code, captured = run(["--config", path, "--out", tmp_path / "out", "vote", dataset], capsys)
        assert code == 1
        assert captured.err.splitlines() == [
            f"error: config key 't_b_per_class' has {key!r}, not a class id below 2"
        ]

    def test_config_t_b_per_class_keys_are_checked_against_the_loaded_dataset(self, tmp_path, capsys):
        """Every command that votes checks the keys; the voc2007 preset's
        class 14 is not a config-file key, so it passes on 2-class data."""
        assert run(["--seed", "3", "--out", tmp_path / "data"] + GENERATE_ARGS)[0] == 0
        data = tmp_path / "data" / "dataset.jsonl"
        commands = [["train", data, "--iterations", "1"], ["vote", data], ["compare-schemes", data]]
        for key, code in (("2", 1), ("1", 0)):
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps({"vote": {"preset": "voc2007", "t_b_per_class": {key: 0.3}}}))
            for command in commands:
                got, captured = run(["--config", path, "--out", tmp_path / "out"] + command, capsys)
                assert got == code, (key, command, captured.err)

    @pytest.mark.parametrize("threshold", ["nan", "1.5", "1", "-0.1"])
    def test_evaluation_iou_threshold_out_of_range_is_one(self, tmp_path, capsys, threshold):
        argv = ["evaluate", FIXTURES / "eval_detections.jsonl", FIXTURES / "eval_dataset.jsonl"]
        code, captured = run(["--out", tmp_path] + argv + ["--iou-threshold", threshold], capsys)
        assert code == 1
        assert captured.err.splitlines() == [
            f"error: evaluate_detections: iou_threshold must be in [0, 1), got {float(threshold)}"
        ]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--det-score-min", "nan"], "score_min must be finite, got nan"),
            (["--det-score-min", "inf"], "score_min must be finite, got inf"),
            # No proposal scores above 2, so NMS never runs to check its threshold.
            (["--nms-iou", "1.5", "--det-score-min", "2"], "nms_iou must be in (0, 1), got 1.5"),
            (["--nms-iou", "nan"], "nms_iou must be in (0, 1), got nan"),
        ],
        ids=["score-nan", "score-inf", "nms-unreached", "nms-nan"],
    )
    def test_inference_thresholds_are_checked_before_the_loop(self, tmp_path, capsys, flags, message):
        assert run(["--seed", "3", "--out", tmp_path / "data"] + GENERATE_ARGS)[0] == 0
        train = ["--out", tmp_path / "t", "train", tmp_path / "data" / "dataset.jsonl", "--iterations", "1"]
        code, captured = run(train + ["--emit-detections"] + flags, capsys)
        assert code == 1
        assert captured.err.splitlines() == [f"error: run_inference: {message}"]

    @pytest.mark.parametrize("emit", [["--emit-detections"], []], ids=["emit", "no-emit"])
    def test_inference_thresholds_are_checked_before_training(self, tmp_path, capsys, emit):
        """A bad inference setting fails before the first iteration, whether
        or not detections are asked for, and writes no scorer or trace."""
        assert run(["--seed", "3", "--out", tmp_path / "data"] + GENERATE_ARGS)[0] == 0
        train = ["--out", tmp_path / "t", "train", tmp_path / "data" / "dataset.jsonl", "--iterations", "1"]
        code, captured = run(train + ["--nms-iou", "7"] + emit, capsys)
        assert code == 1
        assert captured.err.splitlines() == ["error: run_inference: nms_iou must be in (0, 1), got 7.0"]
        assert not (tmp_path / "t" / "scorer.json").exists() and not (tmp_path / "t" / "trace.json").exists()


class TestConfigKeys:
    @pytest.fixture(scope="class")
    def commands(self, tmp_path_factory):
        """One argv per command, on inputs each command runs cleanly."""
        root = tmp_path_factory.mktemp("keys")
        assert run(["--seed", "3", "--out", root] + GENERATE_ARGS)[0] == 0
        data = root / "dataset.jsonl"
        return {
            "generate": GENERATE_ARGS,
            "train": ["train", data, "--iterations", "1"],
            "vote": ["vote", data],
            "compare-schemes": ["compare-schemes", data],
            "evaluate": ["evaluate", FIXTURES / "eval_detections.jsonl", FIXTURES / "eval_dataset.jsonl"],
        }

    @pytest.mark.parametrize("command", ["generate", "train", "vote", "compare-schemes", "evaluate"])
    @pytest.mark.parametrize(
        "config, message",
        [
            ({"sythetic": {"num_images": 3}}, "unknown config section 'sythetic'"),
            ({"synthetic": {"num_imagse": 3}}, "unknown config key 'num_imagse' in section 'synthetic'"),
            ({"train": {"iteratons": 1}}, "unknown config key 'iteratons' in section 'train'"),
            ({"vote": {"t_scor": 0.1}}, "unknown config key 't_scor' in section 'vote'"),
            ({"evaluate": {"iou_treshold": 0.5}}, "unknown config key 'iou_treshold' in section 'evaluate'"),
        ],
        ids=["section", "synthetic-key", "train-key", "vote-key", "evaluate-key"],
    )
    def test_misspelled_section_or_key_is_one(self, tmp_path, capsys, commands, command, config, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        code, captured = run(["--config", path, "--out", tmp_path / "out"] + commands[command], capsys)
        assert code == 1
        assert captured.err.splitlines() == [f"error: {message}"]

    def test_flags_override_the_config_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"synthetic": {"num_images": 2, "image_size": 32}, "train": {"iterations": 4}}))
        assert run(["--config", path, "--out", tmp_path / "data", "generate", "--images", "3"])[0] == 0
        data = load_dataset(tmp_path / "data" / "dataset.jsonl")
        assert (len(data), data.records[0].height) == (3, 32)
        train = ["train", tmp_path / "data" / "dataset.jsonl", "--iterations", "2"]
        assert run(["--config", path, "--out", tmp_path / "t"] + train)[0] == 0
        assert len(json.loads((tmp_path / "t" / "trace.json").read_text())["entries"]) == 2

    def test_readme_config_example_matches_the_key_table(self, tmp_path):
        """Every key of README's example is in the table with the same JSON
        type (an integer is also a JSON number), and every table key is in
        the example."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("### Config file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        example = json.loads(block)
        keys = {(name, key): value for name, section in example.items() for key, value in section.items()}
        assert sorted(keys) == sorted(_KEYS)
        for (name, key), value in keys.items():
            kind = _KEYS[name, key][0]
            assert (float if kind is float and type(value) is int else type(value)) is kind, (name, key, value)
        path = tmp_path / "example.json"
        path.write_text(block)
        assert _load_config(path) == example


def test_readme_library_names_are_exported():
    """Every name in README's `from slv import (...)` block is an attribute of `slv`."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("from slv import (\n", 1)[1].split("\n)", 1)[0]
    names = [name.strip() for line in block.splitlines() for name in line.split("#")[0].split(",") if name.strip()]
    assert len(names) > 20
    assert [name for name in names if not hasattr(slv, name)] == []
