"""Clustering, target assignment and NMS against their scalar-IoU oracles
on tie-heavy inputs: duplicate boxes, equal scores, and IoU exactly at the
0.1, 0.3 and 0.5 thresholds."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from slv.geometry import Box, boxes_to_array, iou, iou_matrix, nms
from slv.mil import build_clusters
from slv.synthetic import SyntheticSceneConfig, generate_synthetic
from slv.targets import assign_targets
from slv.voting import VoteConfig, generate_supervision

from helpers import greedy_clusters, greedy_nms, matched_targets, supervision

# Pairs among these meet at IoU exactly 0.1 (1 vs 10 wide), 0.3 (3 vs 10),
# 0.5 (1 vs 2, 5 vs 10, 10x1 vs 10x2) and 1/3, 0.2, 0.25, ...
TIE_BOXES = [
    Box(0, 0, 1, 1),
    Box(0, 0, 2, 1),
    Box(0, 0, 3, 1),
    Box(0, 0, 5, 1),
    Box(0, 0, 10, 1),
    Box(0, 0, 10, 2),
    Box(5, 0, 10, 1),
    Box(1, 0, 3, 1),
]
THRESHOLDS = st.sampled_from([0.1, 0.3, 0.5])
SCORES = st.sampled_from([0.0, 0.005, 0.01, 0.2, 0.5, 0.9])

small_boxes = st.builds(
    lambda x, y, w, h: Box(x, y, x + w, y + h),
    st.integers(0, 6), st.integers(0, 6), st.integers(1, 4), st.integers(1, 4),
)
tie_boxes = st.one_of(st.sampled_from(TIE_BOXES), small_boxes)
# Drawing from a small pool makes exact duplicates common.
box_lists = st.lists(tie_boxes, min_size=1, max_size=5).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=14)
)


def assert_same_clusters(got, want):
    covered = [r for c in got.clusters for r in c.members] + list(got.background)
    assert sorted(covered) == list(range(got.num_proposals)), "clusters must partition proposals"
    assert got.clusters == want.clusters
    assert got.background == want.background
    assert np.array_equal(got.background_weights, want.background_weights)
    assert got.num_proposals == want.num_proposals


def assert_same_targets(got, want):
    assert got.labels.tolist() == want.labels.tolist()
    assert np.array_equal(got.offsets, want.offsets)
    assert np.array_equal(got.weights, want.weights)


def test_tie_boxes_hit_every_threshold_exactly():
    """Clustering and target assignment match their oracles on every tie-box
    pair, so a strict/non-strict slip at CLUSTER_IOU, CLUSTER_CENTER_FLOOR,
    FG_IOU or the background floor fails here, not only when hypothesis
    happens to draw such a pair."""
    values = {iou(a, b) for a in TIE_BOXES for b in TIE_BOXES}
    assert {0.1, 0.3, 0.5} <= values
    y = np.array([1])
    num = len(TIE_BOXES)
    tie = boxes_to_array(TIE_BOXES)
    for row in ([0.01] * num, np.linspace(0.9, 0.2, num), np.linspace(0.2, 0.9, num)):
        scores = np.array([row])
        want = greedy_clusters(scores, TIE_BOXES, y)
        assert_same_clusters(build_clusters(scores, tie, y), want)
        assert_same_clusters(build_clusters(scores, TIE_BOXES, y, iou_matrix(tie, tie)), want)
    for g in TIE_BOXES:
        sup = supervision({0: [g]})
        assert_same_targets(assign_targets(tie, sup, 1), matched_targets(TIE_BOXES, sup, 1))


@st.composite
def cluster_inputs(draw):
    """(scores, boxes, y) with tie-heavy boxes and at least one positive class."""
    boxes = draw(box_lists)
    num_classes = draw(st.integers(1, 3))
    y = draw(st.lists(st.integers(0, 1), min_size=num_classes, max_size=num_classes).filter(any))
    row = st.lists(SCORES, min_size=len(boxes), max_size=len(boxes))
    scores = np.array(draw(st.lists(row, min_size=num_classes, max_size=num_classes)))
    return scores, boxes, np.array(y)


@given(cluster_inputs())
@settings(max_examples=300, deadline=None)
def test_build_clusters_matches_oracle(inputs):
    scores, boxes, y = inputs
    assert_same_clusters(build_clusters(scores, boxes_to_array(boxes), y), greedy_clusters(scores, boxes, y))


@given(cluster_inputs())
@settings(max_examples=300, deadline=None)
def test_build_clusters_with_iou_matrix_matches_rows_and_oracle(inputs):
    """Seed rows read from a precomputed matrix give the clusters of seed rows
    computed one at a time, and of the scalar oracle."""
    scores, boxes, y = inputs
    arr = boxes_to_array(boxes)
    got = build_clusters(scores, arr, y, iou_matrix(arr, arr))
    assert_same_clusters(got, build_clusters(scores, arr, y))
    assert_same_clusters(got, greedy_clusters(scores, boxes, y))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_assign_targets_matches_oracle(data):
    boxes = data.draw(box_lists)
    num_classes = data.draw(st.integers(1, 3))
    classes = data.draw(st.sets(st.integers(0, num_classes - 1)))
    sup = supervision({c: data.draw(st.lists(tie_boxes, max_size=4)) for c in sorted(classes)})
    assert_same_targets(
        assign_targets(boxes_to_array(boxes), sup, num_classes), matched_targets(boxes, sup, num_classes)
    )


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_nms_matches_oracle(data):
    boxes = data.draw(box_lists)
    scores = data.draw(st.lists(SCORES, min_size=len(boxes), max_size=len(boxes)))
    threshold = data.draw(THRESHOLDS)
    assert nms(boxes_to_array(boxes), scores, threshold) == greedy_nms(boxes, scores, threshold)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_grouped_nms_matches_oracle_per_group(data):
    """Grouped nms is greedy_nms run on each group alone, the groups' kept
    indices listed by ascending group id. Ids come interleaved and unsorted,
    scores tie, boxes repeat, and some groups hold one box."""
    boxes = data.draw(st.one_of(st.just([]), box_lists))
    scores = data.draw(st.lists(SCORES, min_size=len(boxes), max_size=len(boxes)))
    groups = data.draw(st.lists(st.sampled_from([7, -2, 0, 3, 11]), min_size=len(boxes), max_size=len(boxes)))
    threshold = data.draw(THRESHOLDS)
    want = []
    for g in sorted(set(groups)):
        members = [i for i, h in enumerate(groups) if h == g]
        kept = greedy_nms([boxes[i] for i in members], [scores[i] for i in members], threshold)
        want += [members[k] for k in kept]
    got = nms(boxes_to_array(boxes), scores, threshold, groups=np.array(groups, dtype=np.int64))
    assert got == want


def test_no_proposals():
    y = np.array([1])
    assert_same_clusters(
        build_clusters(np.zeros((1, 0)), boxes_to_array([]), y),
        greedy_clusters(np.zeros((1, 0)), [], y),
    )
    sup = supervision({0: [Box(0, 0, 2, 2)]})
    assert_same_targets(assign_targets(boxes_to_array([]), sup, 1), matched_targets([], sup, 1))
    assert nms(boxes_to_array([]), [], 0.5) == []


def test_dense_synthetic_records_match_oracles():
    config = SyntheticSceneConfig(
        num_images=2, image_size=64, proposals_per_image=300, objects_per_image=3
    )
    dataset = generate_synthetic(config, 5)
    for record in dataset:
        scores = record.scores
        boxes = [Box(*row) for row in record.proposals.tolist()]
        want = greedy_clusters(scores, boxes, record.labels)
        assert_same_clusters(build_clusters(scores, record.proposals, record.labels), want)
        ious = iou_matrix(record.proposals, record.proposals)
        assert_same_clusters(build_clusters(scores, record.proposals, record.labels, ious), want)
        sup = generate_supervision(
            scores, record.proposals, record.labels, record.height, record.width, VoteConfig()
        )
        assert len(sup.boxes)
        assert_same_targets(
            assign_targets(record.proposals, sup, dataset.num_classes),
            matched_targets(boxes, sup, dataset.num_classes),
        )
        top = record.scores.max(axis=0).tolist()
        assert nms(record.proposals, top, 0.3) == greedy_nms(boxes, top, 0.3)
