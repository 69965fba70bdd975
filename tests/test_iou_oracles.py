"""Clustering, target assignment and NMS against their scalar-IoU oracles
on tie-heavy inputs: duplicate boxes, equal scores, and IoU exactly at the
0.1, 0.3 and 0.5 thresholds."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slv.mil
from slv.datasets import MAX_IMAGE_SIDE
from slv.geometry import Box, _box_columns, _iou_rows, boxes_to_array, iou, iou_matrix, nms
from slv.mil import CLUSTER_IOU, absorb_masks, build_clusters, cluster_records
from slv.synthetic import SyntheticSceneConfig, generate_synthetic
from slv.targets import assign_targets
from slv.voting import VoteConfig, generate_supervision

from helpers import TIE_BOXES, greedy_clusters, greedy_nms, matched_targets, record_sets, supervision

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


def masked_clusters(scores, boxes, y):
    """build_clusters with each seed's row read from the `absorb_masks`
    stack, as training reads it: a one-record `cluster_records` call."""
    batch = cluster_records(scores[None], boxes[None], (np.asarray(y) == 1)[None], absorb_masks(boxes[None]))
    return record_sets(batch, 1, len(boxes))[0]


def assert_same_targets(got, want):
    assert got.labels.tolist() == want.labels.tolist()
    assert np.array_equal(got.offsets, want.offsets)
    assert np.array_equal(got.valid_mask, want.valid_mask)


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
        assert_same_clusters(masked_clusters(scores, tie, y), want)
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
    """Seed rows read from the absorb-mask stack give the clusters of seed
    rows computed one at a time, and of the scalar oracle."""
    scores, boxes, y = inputs
    arr = boxes_to_array(boxes)
    got = masked_clusters(scores, arr, y)
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


@st.composite
def box_stacks(draw):
    """An (R, N, 4) stack of tie-heavy proposals, N from 0 to 14, and a cell
    budget that puts N below, at or above one row block of `absorb_masks`."""
    num = draw(st.integers(0, 14))
    pool = draw(st.lists(tie_boxes, min_size=1, max_size=5))
    rows = st.lists(st.sampled_from(pool), min_size=num, max_size=num)
    stack = np.stack([boxes_to_array(r) for r in draw(st.lists(rows, min_size=1, max_size=3))])
    return stack, draw(st.integers(1, 256))


@given(box_stacks())
@settings(max_examples=300, deadline=None)
def test_absorb_masks_are_iou_matrix_thresholded_bit_for_bit(inputs):
    """Each mask bit is `iou_matrix(b, b) >= CLUSTER_IOU`, whatever the row
    blocks; tie boxes put IoU exactly at 0.5."""
    boxes, cells = inputs
    with mock.patch.object(slv.mil, "ABSORB_CELLS", cells):
        got = absorb_masks(boxes)
    want = np.stack([iou_matrix(b, b) >= CLUSTER_IOU for b in boxes])
    assert got.dtype == bool and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("num", [127, 128, 129, 300])
def test_absorb_masks_at_the_row_block_size(num):
    """At the module's cell budget 128 rows of 128 boxes make one block:
    127 and 128 boxes take one block, 129 and 300 several."""
    assert slv.mil.ABSORB_CELLS == 128 * 128
    rng = np.random.default_rng(num)
    corners = rng.integers(0, 7, (2, num, 2))
    boxes = np.concatenate([corners[0], corners[0] + 1 + rng.integers(0, 4, (num, 2))], axis=1)[None]
    want = iou_matrix(boxes[0], boxes[0]) >= CLUSTER_IOU
    assert np.count_nonzero(iou_matrix(boxes[0], boxes[0]) == CLUSTER_IOU)
    assert absorb_masks(boxes)[0].tobytes() == want.tobytes()


# Boxes up to the image-side limit, where areas near 2^32 give the integer
# test its largest products. FULL spans the largest image; CORNER_BELOW has
# floor(65535^2 / 2) px, so its IoU with FULL is 1/2 - 1.2e-10, and
# CORNER_ABOVE's is 1/2 + 5.8e-10. WIDE and its two halves tie at exactly 1/2.
FULL = Box(0, 0, MAX_IMAGE_SIDE, MAX_IMAGE_SIDE)
CORNER_BELOW = Box(0, 0, 65534, 32768)
CORNER_ABOVE = Box(0, 0, 43205, 49703)
WIDE, LEFT, RIGHT = Box(0, 0, 65534, MAX_IMAGE_SIDE), Box(0, 0, 32767, MAX_IMAGE_SIDE), Box(32767, 0, 65534, MAX_IMAGE_SIDE)
LIMIT_BOXES = [FULL, CORNER_BELOW, CORNER_ABOVE, WIDE, LEFT, RIGHT]


def exact_absorbs(boxes: list[Box], threshold: float) -> np.ndarray:
    """IoU >= threshold for every pair, in exact rationals."""
    def ratio(a: Box, b: Box) -> Fraction:
        iw = max(0, min(a.x1, b.x1) - max(a.x0, b.x0))
        ih = max(0, min(a.y1, b.y1) - max(a.y0, b.y0))
        return Fraction(iw * ih, a.area + b.area - iw * ih)

    return np.array([[ratio(a, b) >= Fraction(threshold) for b in boxes] for a in boxes])


def test_absorb_masks_at_the_image_side_limit():
    """The integer test at 65,535 px a side: ties at exactly 1/2 absorb,
    ratios a hair either side of it fall on their own side, and every bit
    is the float matrix's and the exact one's."""
    boxes = boxes_to_array(LIMIT_BOXES)
    ious = iou_matrix(boxes, boxes)
    assert ious[3, 4] == ious[3, 5] == CLUSTER_IOU
    assert ious[0, 1] < CLUSTER_IOU < ious[0, 2]
    got = absorb_masks(boxes[None])[0]
    assert got.tobytes() == (ious >= CLUSTER_IOU).tobytes()
    assert np.array_equal(got, exact_absorbs(LIMIT_BOXES, CLUSTER_IOU))
    assert got[3, 4] and got[5, 3] and not got[0, 1] and got[2, 0]


@given(box_stacks(), st.sampled_from([0.25, 0.5, 0.75]), st.sampled_from([1, 6553]))
@settings(max_examples=300, deadline=None)
def test_absorb_masks_follow_cluster_iou_up_to_the_image_side_limit(inputs, threshold, scale):
    """The integer test takes its ratio from CLUSTER_IOU as that moves (to
    0.25 or 0.75), and keeps the float test's bits on tie boxes scaled by up to
    6,553 and shifted to end at the 65,535 px limit, whatever the row
    blocks. The limit boxes join every record, so IoU ties at exactly 1/2
    at that scale in every draw."""
    boxes, cells = inputs
    limit = np.broadcast_to(boxes_to_array(LIMIT_BOXES), (len(boxes), len(LIMIT_BOXES), 4))
    boxes = np.concatenate([boxes * scale + (MAX_IMAGE_SIDE - 10 * scale), limit], axis=1)
    with mock.patch.object(slv.mil, "ABSORB_CELLS", cells), mock.patch.object(slv.mil, "CLUSTER_IOU", threshold):
        got = absorb_masks(boxes)
    want = np.stack([iou_matrix(b, b) >= threshold for b in boxes])
    assert got.tobytes() == want.tobytes()
    assert np.count_nonzero(iou_matrix(boxes[0], boxes[0]) == 0.5)


@st.composite
def related_rows(draw):
    """An (A, N, 4) box stack, int64 or float64, whose rows grow from one
    box by adding boxes identical to, nested in, sharing an edge with or
    disjoint from an earlier box of the row (or a tie box), all scaled by
    1, 4096 or 0.1 (which rounds); and one picked index per row."""
    dtype = draw(st.sampled_from([np.int64, np.float64]))
    num = draw(st.integers(1, 9))
    stack = []
    for _ in range(draw(st.integers(1, 4))):
        row = [draw(small_boxes).as_tuple()]
        while len(row) < num:
            x0, y0, x1, y1 = draw(st.sampled_from(row))
            step = draw(st.integers(1, 4))
            row.append(draw(st.sampled_from([
                (x0, y0, x1, y1),  # identical
                (x0, y0, min(x0 + step, x1), min(y0 + step, y1)),  # nested, sharing a corner
                (x1, y0, x1 + step, y1),  # sharing the right edge
                (x0, y1, x1, y1 + step),  # sharing the bottom edge
                (x1 + step, y1 + step, x1 + 2 * step, y1 + step + 1),  # disjoint
                draw(st.sampled_from(TIE_BOXES)).as_tuple(),
            ])))
        stack.append(row)
    picked = draw(st.lists(st.integers(0, num - 1), min_size=len(stack), max_size=len(stack)))
    scale = draw(st.sampled_from([1, 4096, 0.1]))
    return np.array(stack, dtype=dtype) * scale, np.array(picked)


@given(related_rows())
@settings(max_examples=300, deadline=None)
def test_iou_rows_are_iou_matrix_rows_bit_for_bit(inputs):
    """NMS and clustering take one IoU row per picked box from `_iou_rows`;
    each row must have the bits of that box's `iou_matrix` row."""
    boxes, picked = inputs
    got = _iou_rows(_box_columns(boxes), picked)
    want = np.stack([iou_matrix(row[k][None], row)[0] for row, k in zip(boxes, picked)])
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


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
    for record in dataset.records:
        scores = record.scores
        boxes = [Box(*row) for row in record.proposals.tolist()]
        want = greedy_clusters(scores, boxes, record.labels)
        assert_same_clusters(build_clusters(scores, record.proposals, record.labels), want)
        assert_same_clusters(masked_clusters(scores, record.proposals, record.labels), want)
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
