import numpy as np
import pytest

from slv.datasets import Dataset, DatasetRecord
from slv.errors import InputError
from slv.geometry import Box, boxes_to_array
from slv.schemes import (
    SCHEME_CLUSTERING,
    SCHEME_CONVENTIONAL,
    SCHEME_SLV,
    compare_schemes,
    format_scheme_report,
    label_clustering,
    label_conventional,
)
from slv.synthetic import SyntheticSceneConfig, generate_synthetic


def record_scores(record):
    return record.scores


def stats_by_name(stats):
    return {s.scheme: s for s in stats}


class TestLabelers:
    def test_conventional_picks_argmax(self):
        scores = np.array([[0.2, 0.7, 0.1]])
        boxes = [Box(0, 0, 4, 4), Box(4, 4, 8, 8), Box(8, 8, 12, 12)]
        assert label_conventional(scores, boxes_to_array(boxes), np.array([1])) == {0: [boxes[1]]}

    def test_clustering_emits_every_cluster_center(self):
        scores = np.array([[0.9, 0.8, 0.7]])
        boxes = [Box(0, 0, 10, 10), Box(0, 0, 10, 9), Box(40, 40, 50, 50)]
        out = label_clustering(scores, boxes_to_array(boxes), np.array([1]))
        assert out == {0: [boxes[0], boxes[2]]}


class TestCompareSchemes:
    def test_single_proposal_per_image_all_schemes_agree(self):
        box = Box(5, 5, 25, 25)
        record = DatasetRecord(
            image_id="one",
            height=32,
            width=32,
            labels=np.array([1]),
            proposals=boxes_to_array([box]),
            scores=np.array([[0.9]]),
            gt_boxes={0: [box]},
        )
        dataset = Dataset(records=[record], num_classes=1)
        stats = stats_by_name(compare_schemes(dataset, record_scores))
        for name in (SCHEME_CONVENTIONAL, SCHEME_CLUSTERING, SCHEME_SLV):
            assert stats[name].overall == pytest.approx(1.0)
            assert stats[name].count == 1

    def test_zero_bias_zero_jitter_all_schemes_near_perfect(self):
        config = SyntheticSceneConfig(num_images=12, part_bias=0.0, jitter=0.0, feature_noise=0.0)
        dataset = generate_synthetic(config, seed=21)
        stats = stats_by_name(compare_schemes(dataset, record_scores))
        for name in (SCHEME_CONVENTIONAL, SCHEME_CLUSTERING, SCHEME_SLV):
            assert stats[name].overall > 0.95, name

    def test_full_bias_slv_beats_conventional(self):
        config = SyntheticSceneConfig(num_images=15, part_bias=1.0)
        dataset = generate_synthetic(config, seed=21)
        stats = stats_by_name(compare_schemes(dataset, record_scores))
        assert stats[SCHEME_CONVENTIONAL].overall < 0.5
        assert stats[SCHEME_SLV].overall > stats[SCHEME_CONVENTIONAL].overall + 0.2

    def test_requires_ground_truth(self):
        record = DatasetRecord(
            image_id="nogt",
            height=16,
            width=16,
            labels=np.array([1]),
            proposals=boxes_to_array([Box(0, 0, 8, 8)]),
            scores=np.array([[0.5]]),
        )
        dataset = Dataset(records=[record], num_classes=1)
        with pytest.raises(InputError, match="ground truth"):
            compare_schemes(dataset, record_scores)


class TestSchemeReport:
    def test_format(self):
        box = Box(2, 2, 12, 12)
        record = DatasetRecord(
            image_id="r",
            height=16,
            width=16,
            labels=np.array([1]),
            proposals=boxes_to_array([box]),
            scores=np.array([[0.9]]),
            gt_boxes={0: [box]},
        )
        dataset = Dataset(records=[record], num_classes=1)
        report = format_scheme_report(compare_schemes(dataset, record_scores))
        lines = report.splitlines()
        assert lines[0] == "scheme clustering class 0 mean_iou 1.000000 n 1"
        assert lines[1] == "scheme clustering overall mean_iou 1.000000 n 1"
        assert lines[2] == "scheme conventional class 0 mean_iou 1.000000 n 1"
        assert lines[4] == "scheme slv class 0 mean_iou 1.000000 n 1"
        assert report.endswith("\n")
