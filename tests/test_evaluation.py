import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from slv.errors import InputError
from slv.evaluation import (
    ALL_POINTS,
    ELEVEN_POINT,
    Detections,
    average_precision,
    corloc,
    evaluate_detections,
    format_report,
    match_detections,
    mean_ap,
)
from slv.geometry import Box, iou

from helpers import detections, ground_truth, scalar_evaluate, scalar_match


def gt_single(image_id="img", class_id=0, box=Box(10, 10, 50, 50)):
    return ground_truth({image_id: {class_id: [box]}})


class TestMatchDetections:
    def test_exact_detection_is_tp(self):
        det = ("img", 0, Box(10, 10, 50, 50), 0.9)
        assert match_detections(detections([det]), gt_single()) == [True]

    def test_duplicate_on_same_gt_is_fp(self):
        d_hi = ("img", 0, Box(10, 10, 50, 50), 0.9)
        d_lo = ("img", 0, Box(12, 12, 50, 50), 0.8)
        assert match_detections(detections([d_hi, d_lo]), gt_single()) == [True, False]
        # order in the input list must not matter, only scores
        assert match_detections(detections([d_lo, d_hi]), gt_single()) == [False, True]

    def test_iou_exactly_half_is_fp(self):
        g = Box(20, 20, 60, 60)
        box = Box(20, 20, 60, 40)
        assert iou(box, g) == pytest.approx(0.5)
        assert match_detections(detections([("img", 0, box, 0.7)]), gt_single(box=g)) == [False]

    def test_wrong_class_or_image_never_matches(self):
        d_cls = ("img", 1, Box(10, 10, 50, 50), 0.9)
        d_img = ("other", 0, Box(10, 10, 50, 50), 0.9)
        assert match_detections(detections([d_cls, d_img]), gt_single()) == [False, False]

    @given(st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_never_two_detections_on_one_gt(self, seed):
        rng = np.random.default_rng(seed)
        g = Box(10, 10, 40, 40)
        gt = gt_single(box=g)
        dets = []
        for k in range(6):
            x0 = int(rng.integers(5, 20))
            y0 = int(rng.integers(5, 20))
            dets.append(("img", 0, Box(x0, y0, x0 + 30, y0 + 30), float(rng.random())))
        flags = match_detections(detections(dets), gt)
        assert sum(flags) <= 1


class TestAveragePrecision:
    def test_single_tp(self):
        assert average_precision([True], [0.9], 1) == 1.0

    def test_tp_then_fp_saturates_recall(self):
        assert average_precision([True, False], [0.9, 0.8], 1) == 1.0

    def test_fp_then_tp(self):
        assert average_precision([False, True], [0.9, 0.8], 1) == 0.5

    def test_eleven_point_variant(self):
        # envelope is 0.5 for recalls up to 0.5... here recall reaches 1.0 at
        # precision 0.5, so all 11 sample points read 0.5
        assert average_precision([False, True], [0.9, 0.8], 1, ELEVEN_POINT) == pytest.approx(0.5)
        # and with saturated-at-first-detection recall, all points read 1.0
        assert average_precision([True, False], [0.9, 0.8], 1, ELEVEN_POINT) == pytest.approx(1.0)

    def test_no_gt_with_detections_is_zero(self):
        assert average_precision([False, False], [0.9, 0.8], 0) == 0.0

    def test_no_detections_is_zero(self):
        assert average_precision([], [], 3) == 0.0

    def test_flag_score_mismatch(self):
        with pytest.raises(InputError):
            average_precision([True], [0.9, 0.8], 1)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_rank_only_dependence(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 10))
        flags = rng.random(n) < 0.5
        scores = rng.uniform(0.0, 1.0, n)
        n_gt = max(1, int(flags.sum()) + int(rng.integers(0, 3)))
        base = average_precision(flags.tolist(), scores.tolist(), n_gt)
        for transform in (np.exp, lambda s: 3.0 * s + 1.0, lambda s: s**3 + s):
            assert average_precision(flags.tolist(), transform(scores).tolist(), n_gt) == base

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_trailing_fp_never_increases(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 10))
        flags = (rng.random(n) < 0.5).tolist()
        scores = rng.uniform(0.5, 1.0, n).tolist()
        n_gt = max(1, sum(flags))
        base = average_precision(flags, scores, n_gt)
        extended = average_precision(flags + [False], scores + [0.01], n_gt)
        assert extended <= base + 1e-12


class TestMeanAp:
    def test_single_class(self):
        assert mean_ap({0: 0.7}) == pytest.approx(0.7)

    def test_two_classes(self):
        assert mean_ap({0: 1.0, 1: 0.0}) == pytest.approx(0.5)

    def test_matches_mean_oracle(self):
        rng = np.random.default_rng(5)
        values = {c: float(rng.random()) for c in range(20)}
        assert mean_ap(values) == pytest.approx(sum(values.values()) / 20.0)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            mean_ap({})


class TestCorloc:
    def test_top_detection_on_gt_counts(self):
        gt = gt_single()
        dets = detections([("img", 0, Box(10, 10, 50, 50), 0.9)])
        assert corloc(dets, gt, match_detections(dets, gt)) == {0: 1.0}

    def test_low_overlap_does_not_count(self):
        g = Box(0, 0, 30, 30)
        box = Box(0, 0, 30, 12)  # IoU 0.4
        assert iou(box, g) == pytest.approx(0.4)
        dets, gt = detections([("img", 0, box, 0.9)]), gt_single(box=g)
        assert corloc(dets, gt, match_detections(dets, gt)) == {0: 0.0}

    def test_only_the_top_detection_counts(self):
        # the lower-scored detection matches, but the top one is CorLoc's
        dets = detections([("img", 0, Box(0, 0, 30, 12), 0.9), ("img", 0, Box(10, 10, 50, 50), 0.8)])
        flags = match_detections(dets, gt_single())
        assert flags == [False, True]
        assert corloc(dets, gt_single(), flags) == {0: 0.0}

    def test_flag_count_mismatch(self):
        with pytest.raises(InputError):
            corloc(detections([("img", 0, Box(0, 0, 5, 5), 0.9)]), gt_single(), [])

    def test_image_without_class_not_in_denominator(self):
        gt = ground_truth(
            {
                "a": {0: [Box(0, 0, 10, 10)]},
                "b": {1: [Box(0, 0, 10, 10)]},
            }
        )
        dets = detections(
            [
                ("a", 0, Box(0, 0, 10, 10), 0.9),
                ("b", 0, Box(0, 0, 10, 10), 0.9),  # image b has no class 0
            ]
        )
        out = corloc(dets, gt, match_detections(dets, gt))
        assert out[0] == 1.0  # only image a counts for class 0

    def test_missing_top_detection_is_incorrect(self):
        gt = ground_truth(
            {
                "a": {0: [Box(0, 0, 10, 10)]},
                "b": {0: [Box(0, 0, 10, 10)]},
            }
        )
        dets = detections([("a", 0, Box(0, 0, 10, 10), 0.9)])
        assert corloc(dets, gt, match_detections(dets, gt)) == {0: 0.5}

    @given(st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_denominator_independent_of_detections(self, seed):
        rng = np.random.default_rng(seed)
        images = [f"im{k}" for k in range(4)]
        gt = ground_truth(
            {img: {0: [Box(0, 0, 10, 10)]} for img in images if rng.random() < 0.7}
        )
        if not gt:
            return
        out_without = corloc(detections([]), gt, [])
        assert out_without == {0: 0.0}


class TestEvaluateAndReport:
    def test_perfect_detections(self):
        gt = ground_truth(
            {
                "a": {0: [Box(0, 0, 10, 10)], 1: [Box(20, 20, 40, 40)]},
                "b": {0: [Box(5, 5, 15, 15)]},
            }
        )
        dets = detections([
            ("a", 0, Box(0, 0, 10, 10), 1.0),
            ("a", 1, Box(20, 20, 40, 40), 1.0),
            ("b", 0, Box(5, 5, 15, 15), 1.0),
        ])
        result = evaluate_detections(dets, gt)
        assert result.mean_ap == 1.0
        assert result.corloc == {0: 1.0, 1: 1.0}

    def test_empty_detections(self):
        result = evaluate_detections(detections([]), gt_single())
        assert result.mean_ap == 0.0

    def test_report_format(self):
        gt = gt_single()
        dets = detections([("img", 0, Box(10, 10, 50, 50), 0.9)])
        report = format_report(evaluate_detections(dets, gt))
        assert report == "class 0 ap 1.000000 corloc 1.000000\nmAP 1.000000\n"

    def test_report_dash_for_undefined_corloc(self):
        # detections for a class with no ground truth anywhere
        gt = gt_single(class_id=0)
        dets = detections([
            ("img", 0, Box(10, 10, 50, 50), 0.9),
            ("img", 1, Box(10, 10, 50, 50), 0.8),
        ])
        report = format_report(evaluate_detections(dets, gt))
        assert "class 1 ap 0.000000 corloc -" in report


class TestColumns:
    def test_non_finite_score_rejected(self):
        with pytest.raises(InputError, match="scores must be finite"):
            detections([("img", 0, Box(0, 0, 5, 5), float("nan"))])

    @pytest.mark.parametrize(
        "ids, classes, boxes, scores",
        [
            (["a"], [0, 1], [[0, 0, 5, 5], [0, 0, 6, 6]], [0.5, 0.25]),  # one id, two rows of the rest
            (["a", "b"], [0], [[0, 0, 5, 5], [0, 0, 6, 6]], [0.5, 0.25]),
            (["a", "b"], [0, 1], [[0, 0, 5, 5]], [0.5, 0.25]),
            (["a", "b"], [0, 1], [[0, 0, 5, 5], [0, 0, 6, 6]], [0.5]),
            (["a"], [0], [[0, 0, 5]], [0.5]),
            (["a"], [0], [0, 0, 5, 5], [0.5]),
            (["a"], [[0]], [[0, 0, 5, 5]], [0.5]),
            ([], [], np.zeros((0, 3)), []),
        ],
    )
    def test_columns_of_other_lengths_rejected(self, ids, classes, boxes, scores):
        """Each column has one entry per image id and `boxes` is (D, 4);
        before this check, `save_detections` wrote only the shortest column's
        rows."""
        with pytest.raises(InputError, match=r"Detections: \d+ image ids need"):
            Detections(ids, np.array(classes, dtype=np.int64), np.array(boxes, dtype=np.int64), np.array(scores))

    @pytest.mark.parametrize(
        "classes, boxes",
        [(np.array([True]), np.array([[0, 0, 5, 5]])), (np.array([0]), np.array([[0.0, 0.0, 5.0, 5.0]]))],
        ids=["bool-classes", "float-boxes"],
    )
    def test_non_integer_classes_or_boxes_rejected(self, classes, boxes):
        """`save_detections` prints integers as `json.dumps` does; a boolean
        class would print as `True`, which is not JSON."""
        with pytest.raises(InputError, match="classes and boxes must be integer arrays"):
            Detections(["a"], classes, boxes, np.array([0.5]))

    def test_huge_box_is_compared_without_overflow(self):
        # As int64, this box's area wraps to 0 and its IoU with the ground
        # truth divides by 0; its true IoU is about 1e-34.
        dets = detections([("img", 0, Box(0, 0, 2**62, 2**62), 0.9)])
        assert len(dets) == 1
        assert match_detections(dets, gt_single()) == [False]
        assert match_detections(dets, gt_single(), iou_threshold=0.0) == [True]
        assert corloc(dets, gt_single(), match_detections(dets, gt_single())) == {0: 0.0}


# Coordinates from a small pool, so equal and exactly-0.5 IoUs are common;
# scores from a small pool, so ties are common.
COORDS = st.lists(st.sampled_from([0, 4, 8]), min_size=2, max_size=2, unique=True).map(sorted)
BOXES = st.builds(lambda xs, ys: Box(xs[0], ys[0], xs[1], ys[1]), COORDS, COORDS)
SCORES = st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0])


@st.composite
def evaluation_inputs(draw):
    """Detection rows, some on images or classes without ground truth, and
    ground truth with several boxes per (image, class), some classes with
    no detection, and now and then a class key with no box."""
    rows = draw(st.lists(st.tuples(st.sampled_from("abcd"), st.integers(0, 2), BOXES, SCORES), max_size=12))
    gt = draw(st.dictionaries(
        st.sampled_from("abc"), st.dictionaries(st.integers(0, 3), st.lists(BOXES, max_size=4), min_size=1), max_size=3
    ))
    assume(rows or gt)
    return rows, gt


@given(
    evaluation_inputs(),
    st.sampled_from([0.0, 0.25, 0.5, 0.7]),
    st.sampled_from([ALL_POINTS, ELEVEN_POINT]),
)
# The first detection overlaps both boxes by 0.5 and claims the first, so the
# second, which overlaps only that box, is a false positive.
@example(
    ([("a", 0, Box(0, 0, 8, 8), 1.0), ("a", 0, Box(0, 0, 4, 8), 0.5)], {"a": {0: [Box(0, 0, 4, 8), Box(4, 0, 8, 8)]}}),
    0.25,
    ALL_POINTS,
)
# Score order, not input order: the later row scores higher and takes the box.
@example(([("a", 0, Box(0, 0, 4, 8), 0.5), ("a", 0, Box(0, 0, 4, 8), 1.0)], {"a": {0: [Box(0, 0, 4, 8)]}}), 0.5, ALL_POINTS)
@settings(max_examples=400, deadline=None)
def test_evaluation_matches_scalar_oracle(inputs, iou_threshold, interpolation):
    """Flags, AP, CorLoc, mAP and the report equal the scalar loops' with `==`."""
    rows, gt = inputs
    dets, truth = detections(rows), ground_truth(gt)
    assert match_detections(dets, truth, iou_threshold) == scalar_match(rows, gt, iou_threshold)
    got = evaluate_detections(dets, truth, iou_threshold, interpolation)
    want = scalar_evaluate(rows, gt, iou_threshold, interpolation)
    assert (got.ap, got.corloc, got.mean_ap) == (want.ap, want.corloc, want.mean_ap)
    assert format_report(got) == format_report(want)
