import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from slv.voting import VoteConfig

from helpers import by_class, scalar_compare_schemes


def stats_by_name(stats):
    return {s.scheme: s for s in stats}


class TestLabelers:
    def test_conventional_picks_argmax(self):
        scores = np.array([[0.2, 0.7, 0.1]])
        boxes = [Box(0, 0, 4, 4), Box(4, 4, 8, 8), Box(8, 8, 12, 12)]
        assert by_class(label_conventional(scores, boxes_to_array(boxes), [0])) == {0: [boxes[1]]}

    def test_clustering_emits_every_cluster_center(self):
        scores = np.array([[0.9, 0.8, 0.7]])
        boxes = [Box(0, 0, 10, 10), Box(0, 0, 10, 9), Box(40, 40, 50, 50)]
        out = label_clustering(scores, boxes_to_array(boxes), np.array([1]))
        assert by_class(out) == {0: [boxes[0], boxes[2]]}

    def test_no_proposals_label_nothing(self):
        scores, boxes, y = np.zeros((2, 0)), boxes_to_array([]), np.array([1, 1])
        for out in (label_conventional(scores, boxes, [0, 1]), label_clustering(scores, boxes, y)):
            assert out.boxes.shape == (0, 4) and out.classes.shape == (0,)


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
            gt_boxes={0: boxes_to_array([box])},
        )
        dataset = Dataset(records=[record], num_classes=1)
        stats = stats_by_name(compare_schemes(dataset))
        for name in (SCHEME_CONVENTIONAL, SCHEME_CLUSTERING, SCHEME_SLV):
            assert stats[name].overall == pytest.approx(1.0)
            assert stats[name].count == 1

    def test_zero_bias_zero_jitter_all_schemes_near_perfect(self):
        config = SyntheticSceneConfig(num_images=12, part_bias=0.0, jitter=0.0, feature_noise=0.0)
        dataset = generate_synthetic(config, seed=21)
        stats = stats_by_name(compare_schemes(dataset))
        for name in (SCHEME_CONVENTIONAL, SCHEME_CLUSTERING, SCHEME_SLV):
            assert stats[name].overall > 0.95, name

    def test_full_bias_slv_beats_conventional(self):
        config = SyntheticSceneConfig(num_images=15, part_bias=1.0)
        dataset = generate_synthetic(config, seed=21)
        stats = stats_by_name(compare_schemes(dataset))
        assert stats[SCHEME_CONVENTIONAL].overall < 0.5
        assert stats[SCHEME_SLV].overall > stats[SCHEME_CONVENTIONAL].overall + 0.2

    def test_record_without_proposals_counts_nothing(self):
        record = DatasetRecord(
            image_id="none",
            height=16,
            width=16,
            labels=np.array([1, 1]),
            proposals=boxes_to_array([]),
            scores=np.zeros((2, 0)),
            gt_boxes={0: boxes_to_array([Box(0, 0, 8, 8)])},
        )
        stats = compare_schemes(Dataset(records=[record], num_classes=2))
        assert [(s.per_class, s.overall, s.count) for s in stats] == [({}, 0.0, 0)] * 3

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
            compare_schemes(dataset)


# Boxes of a 12x12 image drawn from a small pool, so labeled boxes often
# equal a ground-truth box of their own class or of another.
POOL = [Box(0, 0, 6, 6), Box(2, 2, 8, 8), Box(6, 6, 12, 12), Box(0, 6, 6, 12), Box(1, 1, 11, 11), Box(4, 0, 12, 5)]
SCORES = st.sampled_from([0.0, 0.0005, 0.2, 0.3, 0.5, 0.9])


@st.composite
def scheme_datasets(draw):
    """Records of one to three classes, with zero to six proposals each.
    A class can have several ground-truth boxes, none while positive, or
    some while negative; each record's first class varies, so classes
    reach the report's buckets out of class order."""
    num_classes = draw(st.integers(1, 3))
    records = []
    for k in range(draw(st.integers(1, 4))):
        labels = draw(st.lists(st.integers(0, 1), min_size=num_classes, max_size=num_classes).filter(any))
        proposals = draw(st.lists(st.sampled_from(POOL), max_size=6))
        row = st.lists(SCORES, min_size=len(proposals), max_size=len(proposals))
        scores = np.array(draw(st.lists(row, min_size=num_classes, max_size=num_classes))).reshape(num_classes, -1)
        gt = draw(st.dictionaries(
            st.integers(0, num_classes - 1), st.lists(st.sampled_from(POOL), min_size=1, max_size=3), min_size=1
        ))
        records.append(DatasetRecord(
            image_id=f"r{k}", height=12, width=12, labels=np.array(labels),
            proposals=boxes_to_array(proposals), scores=scores, gt_boxes={c: boxes_to_array(bs) for c, bs in gt.items()},
        ))
    return Dataset(records=draw(st.permutations(records)), num_classes=num_classes)


@given(scheme_datasets())
@settings(max_examples=300, deadline=None)
def test_compare_schemes_matches_scalar_oracle(dataset):
    """Every field, `overall` and the per-class means included, equals the
    scalar loop's with `==`."""
    got = compare_schemes(dataset, VoteConfig())
    assert got == scalar_compare_schemes(dataset, VoteConfig())


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
            gt_boxes={0: boxes_to_array([box])},
        )
        dataset = Dataset(records=[record], num_classes=1)
        report = format_scheme_report(compare_schemes(dataset))
        lines = report.splitlines()
        assert lines[0] == "scheme clustering class 0 mean_iou 1.000000 n 1"
        assert lines[1] == "scheme clustering overall mean_iou 1.000000 n 1"
        assert lines[2] == "scheme conventional class 0 mean_iou 1.000000 n 1"
        assert lines[4] == "scheme slv class 0 mean_iou 1.000000 n 1"
        assert report.endswith("\n")
