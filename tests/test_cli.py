import json
from pathlib import Path

import pytest

from slv.cli import main
from slv.datasets import load_dataset, load_detections, load_pseudo_labels

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


class TestVote:
    def _generate(self, tmp_path):
        assert run(["--seed", "3", "--out", tmp_path] + GENERATE_ARGS)[0] == 0
        return tmp_path / "dataset.jsonl"

    def test_votes_from_embedded_scores(self, tmp_path):
        dataset = self._generate(tmp_path)
        code, _ = run(["--out", tmp_path / "vote", "vote", dataset])
        assert code == 0
        labels = load_pseudo_labels(tmp_path / "vote" / "pseudo_labels.jsonl")
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
        labels = load_pseudo_labels(tmp_path / "out" / "pseudo_labels.jsonl")
        assert [image_id for image_id, _ in labels] == ["good"]

    def test_preset_flag(self, tmp_path):
        dataset = self._generate(tmp_path)
        code, _ = run(["--out", tmp_path / "p", "vote", dataset, "--preset", "voc2007"])
        assert code == 0


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

    def test_overflowing_scorer_is_one_and_names_the_record(self, tmp_path, capsys):
        dataset, scorer = self._trained_scorer(tmp_path, 2)
        payload = json.loads(scorer.read_text())
        payload["weights"]["refine"][0] = [[1e308] * len(row) for row in payload["weights"]["refine"][0]]
        scorer.write_text(json.dumps(payload))
        for command in ("vote", "compare-schemes"):
            code, captured = run(["--out", tmp_path / "v", command, dataset, "--scorer", scorer], capsys)
            assert code == 1
            assert captured.err.splitlines() == ["error: record 'synth-0000': scorer weights give non-finite outputs"]

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
