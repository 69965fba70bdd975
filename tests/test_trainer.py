import json
import math
import re

import numpy as np
import pytest

from slv.datasets import Dataset, DatasetRecord
from slv.errors import ConfigError, InputError, NumericalError
from slv.geometry import Box, boxes_to_array
from slv.synthetic import SyntheticSceneConfig, generate_synthetic
from slv.trainer import (
    ToyScorer,
    TrainConfig,
    run_inference,
    train_toy,
    vote_dataset,
)
from slv.voting import VoteConfig, accumulate_fast, normalize, write_pgm

from helpers import by_class, detection_rows


def small_synthetic(num_images=6, seed=5, **kwargs):
    config = SyntheticSceneConfig(
        num_images=num_images, image_size=48, num_classes=3, proposals_per_image=20, **kwargs
    )
    return generate_synthetic(config, seed=seed)


def quick_config(**kwargs):
    defaults = dict(iterations=25, learning_rate=1.0, ramp_length=10.0)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


class TestTrainToy:
    def test_loss_decreases(self):
        dataset = small_synthetic()
        _, trace = train_toy(dataset, quick_config())
        assert trace[-1].loss_total < trace[0].loss_total
        assert len(trace) == 25

    def test_smoke_200_iterations_20_images(self):
        # golden endpoints measured once on this seeded configuration
        config = SyntheticSceneConfig(
            num_images=20, image_size=64, num_classes=3, proposals_per_image=24
        )
        dataset = generate_synthetic(config, seed=5)
        _, trace = train_toy(
            dataset, TrainConfig(iterations=200, learning_rate=1.0, ramp_length=100.0)
        )
        assert trace[-1].loss_total < trace[0].loss_total
        assert trace[0].loss_total == pytest.approx(3.0346882542104434, abs=1e-9)
        assert trace[-1].loss_total == pytest.approx(0.4107464440700538, abs=1e-9)

    def test_deterministic(self):
        dataset = small_synthetic()
        _, trace_a = train_toy(dataset, quick_config())
        _, trace_b = train_toy(dataset, quick_config())
        assert trace_a == trace_b

    def test_zero_weight_matches_mil_only_bit_exact(self):
        dataset = small_synthetic()
        _, frozen = train_toy(dataset, quick_config(ramp_length=math.inf))
        _, mil_only = train_toy(dataset, quick_config(mil_only=True))
        for a, b in zip(frozen, mil_only):
            assert a.loss_mil == b.loss_mil
            assert a.loss_refine == b.loss_refine
            assert a.loss_total == b.loss_total
            assert a.weight_slv == 0.0 and b.weight_slv == 0.0

    def test_mil_heads_untouched_by_disabled_branch(self):
        dataset = small_synthetic(num_images=3)
        scorer_frozen, _ = train_toy(dataset, quick_config(iterations=10, ramp_length=math.inf))
        scorer_mil, _ = train_toy(dataset, quick_config(iterations=10, mil_only=True))
        assert np.array_equal(scorer_frozen.w_cls, scorer_mil.w_cls)
        assert np.array_equal(scorer_frozen.w_det, scorer_mil.w_det)
        for a, b in zip(scorer_frozen.w_refine, scorer_mil.w_refine):
            assert np.array_equal(a, b)

    def test_ramp_schedule_endpoints(self):
        dataset = small_synthetic(num_images=2)
        _, trace = train_toy(dataset, quick_config(iterations=12, ramp_length=10.0))
        assert trace[0].weight_slv == 0.0
        assert trace[5].weight_slv == 0.5
        assert trace[10].weight_slv == 1.0
        assert trace[11].weight_slv == 1.0

    def test_single_image_single_proposal_degenerate(self):
        box = Box(4, 6, 20, 18)
        record = DatasetRecord(
            image_id="solo",
            height=32,
            width=32,
            labels=np.array([1]),
            proposals=boxes_to_array([box]),
            features=np.array([[1.0, 0.5, 0.5, -0.7, -0.7, 0.9]]),
        )
        dataset = Dataset(records=[record], num_classes=1, feature_dim=6)
        scorer, trace = train_toy(dataset, quick_config(iterations=5, ramp_length=2.0))
        assert all(math.isfinite(e.loss_total) for e in trace)
        results, skipped = vote_dataset(dataset, VoteConfig(), scorer=scorer)
        assert skipped == []
        assert by_class(results[0][1]) == {0: [box]}

    def test_divergence_aborts_with_iteration(self):
        dataset = small_synthetic(num_images=2)
        with pytest.raises(NumericalError, match=r"iteration \d+"):
            train_toy(dataset, quick_config(iterations=10, learning_rate=1.5e308))

    def test_missing_features_rejected(self):
        record = DatasetRecord(
            image_id="x",
            height=16,
            width=16,
            labels=np.array([1]),
            proposals=boxes_to_array([Box(0, 0, 8, 8)]),
        )
        dataset = Dataset(records=[record], num_classes=1)
        with pytest.raises(InputError, match="features"):
            train_toy(dataset, quick_config())

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(iterations=0)
        for bad in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(ConfigError, match="learning_rate"):
                TrainConfig(learning_rate=bad)
        for bad in (0.0, -5.0, math.nan):
            with pytest.raises(ConfigError, match="ramp_length"):
                TrainConfig(ramp_length=bad)


class TestScorerPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        dataset = small_synthetic(num_images=2)
        scorer, _ = train_toy(dataset, quick_config(iterations=3))
        path = tmp_path / "scorer.json"
        scorer.save(path)
        loaded = ToyScorer.load(path)
        assert np.array_equal(loaded.w_cls, scorer.w_cls)
        assert np.array_equal(loaded.w_det, scorer.w_det)
        assert all(np.array_equal(a, b) for a, b in zip(loaded.w_refine, scorer.w_refine))
        assert np.array_equal(loaded.w_slv_cls, scorer.w_slv_cls)
        assert np.array_equal(loaded.w_slv_reg, scorer.w_slv_reg)

    def test_load_rejects_non_scorer(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(InputError):
            ToyScorer.load(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p["weights"]["refine"][1].pop(), "weights.refine[1]"),
            (lambda p: p["weights"]["slv_reg"][0].append(0.0), "weights.slv_reg"),
            (lambda p: p["weights"].pop("slv_cls"), "slv_cls"),
            (lambda p: p["weights"].update(refine=[]), "weights.refine"),
            (lambda p: p["weights"]["det"][0].__setitem__(0, float("nan")), "non-finite"),
            (lambda p: p["weights"]["cls"][0].__setitem__(0, "x"), "weights.cls"),
            (lambda p: p.update(num_classes=True), "num_classes"),
            (lambda p: p.update(feature_dim=p["feature_dim"] + 1), "weights.cls"),
        ],
        ids=[
            "refine-row-short", "slv-reg-wide", "slv-cls-missing", "refine-empty",
            "det-nan", "cls-string", "num-classes-bool", "feature-dim-off",
        ],
    )
    def test_load_checks_keys_shapes_and_finiteness(self, tmp_path, edit, message):
        dataset = small_synthetic(num_images=1)
        path = tmp_path / "scorer.json"
        dim = dataset.records[0].features.shape[1]
        ToyScorer.initialize(3, dim, np.random.default_rng(0)).save(path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(InputError, match=re.escape(message)):
            ToyScorer.load(path)

    def test_feature_width_mismatch_rejected(self):
        dataset = small_synthetic(num_images=1)
        dim = dataset.records[0].features.shape[1]
        scorer = ToyScorer.initialize(3, dim + 1, np.random.default_rng(0))
        with pytest.raises(InputError, match="features per proposal"):
            vote_dataset(dataset, VoteConfig(), scorer=scorer)


class TestInference:
    def test_detections_are_valid_and_deterministic(self):
        dataset = small_synthetic(num_images=4)
        scorer, _ = train_toy(dataset, quick_config())
        dets_a = run_inference(scorer, dataset)
        dets_b = run_inference(scorer, dataset)
        assert detection_rows(dets_a) == detection_rows(dets_b)
        assert dets_a
        ids = {r.image_id for r in dataset.records}
        for image_id, class_id, box, _ in detection_rows(dets_a):
            assert image_id in ids
            assert 0 <= class_id < dataset.num_classes
            assert box.x1 <= 48 and box.y1 <= 48

    def test_overflowing_offsets_name_the_record(self):
        dataset = small_synthetic(num_images=2)
        scorer, _ = train_toy(dataset, quick_config(iterations=2))
        scorer.w_slv_reg[:] = 1e308
        first = min(r.image_id for r in dataset.records)
        with pytest.raises(InputError, match=f"run_inference: record '{first}': scorer weights give non-finite"):
            run_inference(scorer, dataset)


class TestVoteDataset:
    def test_records_without_scores_skipped_but_run_continues(self):
        with_scores = DatasetRecord(
            image_id="a",
            height=16,
            width=16,
            labels=np.array([1]),
            proposals=boxes_to_array([Box(2, 2, 10, 10)]),
            scores=np.array([[0.9]]),
        )
        without = DatasetRecord(
            image_id="b",
            height=16,
            width=16,
            labels=np.array([1]),
            proposals=boxes_to_array([Box(2, 2, 10, 10)]),
        )
        dataset = Dataset(records=[with_scores, without], num_classes=1)
        results, skipped = vote_dataset(dataset, VoteConfig())
        assert [image_id for image_id, _ in results] == ["a"]
        assert skipped == ["b"]

    def test_heatmaps_one_per_positive_class(self, tmp_path):
        record = DatasetRecord(
            image_id="im",
            height=8,
            width=8,
            labels=np.array([1, 0, 1]),
            proposals=boxes_to_array([Box(1, 1, 5, 5), Box(3, 3, 7, 7)]),
            scores=np.array([[0.8, 0.0], [0.0, 0.0], [0.0, 0.6]]),
        )
        dataset = Dataset(records=[record], num_classes=3)
        vote_dataset(dataset, VoteConfig(), heatmap_dir=tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["im_class0.pgm", "im_class2.pgm"]
        for name in names:
            assert (tmp_path / name).read_bytes().startswith(b"P5\n8 8\n255\n")

    def test_heatmap_is_the_voted_map_and_zero_without_candidates(self, tmp_path):
        record = DatasetRecord(
            image_id="im",
            height=8,
            width=8,
            labels=np.array([1, 1]),
            proposals=boxes_to_array([Box(1, 1, 5, 5), Box(3, 3, 7, 7)]),
            scores=np.array([[0.8, 0.3], [0.0, 0.0]]),
        )
        dataset = Dataset(records=[record], num_classes=2)
        vote_dataset(dataset, VoteConfig(), heatmap_dir=tmp_path / "maps")
        expected = normalize(accumulate_fast(np.array([0, 1]), record.proposals, record.scores[0], 8, 8))
        write_pgm(expected, tmp_path / "expected.pgm")
        assert (tmp_path / "maps" / "im_class0.pgm").read_bytes() == (
            tmp_path / "expected.pgm"
        ).read_bytes()
        assert (tmp_path / "maps" / "im_class1.pgm").read_bytes() == b"P5\n8 8\n255\n" + bytes(64)
