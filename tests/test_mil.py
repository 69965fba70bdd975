import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slv.errors import InputError
from slv.geometry import Box, boxes_to_array
from slv.mil import (
    average_refined_scores,
    build_clusters,
    image_scores,
    mil_loss,
    positive_classes,
    refinement_loss,
    softmax_over_classes,
    softmax_over_proposals,
    wsddn_scores,
)

from helpers import finite_difference_gradient, relative_error


def random_probability_matrix(rng, rows, cols, softmax=softmax_over_classes):
    return softmax(rng.uniform(-1.0, 1.0, (rows, cols)))


class TestSoftmax:
    def test_uniform_logits_over_classes(self):
        out = softmax_over_classes(np.zeros((2, 3)))
        assert np.array_equal(out, np.full((2, 3), 0.5))

    def test_exact_column(self):
        x = np.array([[math.log(1.0)], [math.log(3.0)]])
        out = softmax_over_classes(x)
        assert out[:, 0] == pytest.approx([0.25, 0.75], abs=1e-15)

    def test_uniform_logits_over_proposals(self):
        out = softmax_over_proposals(np.zeros((2, 4)))
        assert np.array_equal(out, np.full((2, 4), 0.25))

    def test_exact_row(self):
        x = np.array([[math.log(1.0), math.log(1.0), math.log(2.0)]])
        out = softmax_over_proposals(x)
        assert out[0] == pytest.approx([0.25, 0.25, 0.5], abs=1e-15)

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(7)
        logits = rng.uniform(-3.0, 3.0, (4, 8))
        naive = np.exp(logits) / np.exp(logits).sum(axis=0, keepdims=True)
        out = softmax_over_classes(logits)
        assert np.abs(out - naive).max() < 1e-12

    def test_transpose_duality(self):
        rng = np.random.default_rng(11)
        logits = rng.uniform(-2.0, 2.0, (3, 5))
        by_proposals = softmax_over_proposals(logits)
        by_classes_t = softmax_over_classes(logits.T)
        assert np.allclose(by_proposals, by_classes_t.T, rtol=0, atol=1e-15)

    @given(st.integers(0, 10_000), st.floats(-50.0, 50.0, allow_nan=False))
    @settings(max_examples=40)
    def test_shift_invariance(self, seed, shift):
        rng = np.random.default_rng(seed)
        logits = rng.uniform(-2.0, 2.0, (3, 4))
        base = softmax_over_classes(logits)
        shifted = logits.copy()
        shifted[:, 1] += shift  # constant added to one column
        out = softmax_over_classes(shifted)
        assert np.abs(out - base).max() < 1e-12


class TestWsddnScores:
    def test_uniform_detection_stream(self):
        rng = np.random.default_rng(3)
        sigma_cls = random_probability_matrix(rng, 3, 5)
        sigma_det = np.full((3, 5), 0.2)
        out = wsddn_scores(sigma_cls, sigma_det)
        assert np.allclose(out, sigma_cls / 5.0, rtol=0, atol=1e-16)

    def test_zero_factor_zeroes_entry(self):
        sigma_cls = np.array([[0.0], [1.0]])
        sigma_det = np.array([[1.0], [1.0]])
        out = wsddn_scores(sigma_cls, sigma_det)
        assert out[0, 0] == 0.0

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(5)
        sigma_cls = random_probability_matrix(rng, 3, 5)
        sigma_det = random_probability_matrix(rng, 3, 5, softmax_over_proposals)
        out = wsddn_scores(sigma_cls, sigma_det)
        for c in range(3):
            for r in range(5):
                assert out[c, r] == sigma_cls[c, r] * sigma_det[c, r]

    def test_shape_mismatch(self):
        rng = np.random.default_rng(9)
        with pytest.raises(InputError):
            wsddn_scores(
                random_probability_matrix(rng, 3, 5),
                random_probability_matrix(rng, 3, 4, softmax_over_proposals),
            )


class TestImageScores:
    def test_single_proposal_is_column(self):
        rng = np.random.default_rng(13)
        sigma_cls = random_probability_matrix(rng, 4, 1)
        sigma_det = np.ones((4, 1))
        phi0 = wsddn_scores(sigma_cls, sigma_det)
        assert np.array_equal(image_scores(phi0), phi0[:, 0])

    def test_uniform_everything_gives_one_over_c(self):
        c, r = 4, 6
        sigma_cls = np.full((c, r), 1.0 / c)
        sigma_det = np.full((c, r), 1.0 / r)
        phi = image_scores(wsddn_scores(sigma_cls, sigma_det))
        assert phi == pytest.approx([1.0 / c] * c, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_never_exceeds_one(self, seed):
        rng = np.random.default_rng(seed)
        sigma_cls = random_probability_matrix(rng, 3, 7)
        sigma_det = random_probability_matrix(rng, 3, 7, softmax_over_proposals)
        phi = image_scores(wsddn_scores(sigma_cls, sigma_det))
        assert phi.max() <= 1.0 + 1e-9
        assert phi.min() >= 0.0


LABEL_VECTORS = {
    "int": np.array([1, 0, 1]),
    "int-2": np.array([1, 2]),
    "bool": np.array([True, False]),
    "float": np.array([1.0, 0.0]),
    "float-half": np.array([0.5, 1.0]),
    "nan": np.array([np.nan, 1.0]),
    "str": np.array(["1", "0"]),
    "object": np.array([1, 0], dtype=object),
    "object-none": np.array([1, None], dtype=object),
}


@pytest.mark.parametrize("y", LABEL_VECTORS.values(), ids=LABEL_VECTORS.keys())
def test_label_checks_agree_with_isin(y):
    """positive_classes and mil_loss accept exactly the label vectors whose
    entries np.isin finds in {0, 1}."""
    binary = bool(np.isin(y, (0, 1)).all())
    if binary:
        assert positive_classes(y) == [k for k, v in enumerate(y.tolist()) if v == 1]
    else:
        with pytest.raises(InputError):
            positive_classes(y)
    if y.dtype.kind in "biuf":
        phi = np.full(len(y), 0.5)
        if binary:
            assert mil_loss(phi, y)[0] == pytest.approx(len(y) * math.log(2.0))
        else:
            with pytest.raises(InputError):
                mil_loss(phi, y)


class TestMilLoss:
    def test_perfect_prediction_limit(self):
        eps = 1e-6
        phi = np.full(3, 1.0 - eps)
        y = np.ones(3)
        loss, _ = mil_loss(phi, y)
        assert loss == pytest.approx(3 * eps, rel=1e-3)

    def test_closed_form_half(self):
        loss, grad = mil_loss(np.array([0.5]), np.array([1]))
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)
        assert grad[0] == pytest.approx((0.5 - 1.0) / 0.25, abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            mil_loss(np.array([1.5]), np.array([1]))
        with pytest.raises(InputError):
            mil_loss(np.array([-0.1]), np.array([0]))

    def test_non_negative(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            phi = rng.uniform(0.01, 0.99, 4)
            y = rng.integers(0, 2, 4)
            loss, _ = mil_loss(phi, y)
            assert loss >= 0.0

    def test_zero_only_in_clamped_perfect_limit(self):
        # at the clamp boundary the loss is ~C*eps, effectively its floor
        floor, _ = mil_loss(np.array([1.0, 0.0]), np.array([1, 0]))
        assert 0.0 <= floor < 1e-7
        away, _ = mil_loss(np.array([0.9, 0.1]), np.array([1, 0]))
        assert away > 1e-2

    def test_non_binary_labels_rejected(self):
        with pytest.raises(InputError):
            mil_loss(np.array([0.5]), np.array([0.5]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            c = int(rng.integers(1, 5))
            phi = rng.uniform(0.05, 0.95, c)
            y = rng.integers(0, 2, c)
            _, grad = mil_loss(phi, y)
            numeric = finite_difference_gradient(lambda p: mil_loss(p, y)[0], phi)
            assert relative_error(grad, numeric) < 1e-6


def _simple_boxes():
    return [Box(0, 0, 10, 10), Box(0, 0, 10, 9), Box(30, 30, 40, 40), Box(50, 0, 60, 10)]


class TestBuildClusters:
    def test_single_proposal_single_class(self):
        scores = np.array([[0.8]])
        out = build_clusters(scores, boxes_to_array([Box(0, 0, 5, 5)]), np.array([1]))
        assert len(out.clusters) == 1
        assert out.clusters[0].members == (0,)
        assert out.clusters[0].score == pytest.approx(0.8)
        assert out.background == ()

    def test_two_disjoint_proposals_two_singletons(self):
        scores = np.array([[0.9, 0.7]])
        boxes = [Box(0, 0, 10, 10), Box(30, 30, 40, 40)]
        out = build_clusters(scores, boxes_to_array(boxes), np.array([1]))
        assert [c.members for c in out.clusters] == [(0,), (1,)]
        assert [c.score for c in out.clusters] == pytest.approx([0.9, 0.7])

    def test_high_overlap_pair_merges_with_higher_center(self):
        # IoU of the two boxes is 90/100 = 0.9
        scores = np.array([[0.6, 0.8]])
        boxes = [Box(0, 0, 10, 10), Box(0, 0, 10, 9)]
        out = build_clusters(scores, boxes_to_array(boxes), np.array([1]))
        assert len(out.clusters) == 1
        assert out.clusters[0].members == (0, 1)
        assert out.clusters[0].score == pytest.approx(0.8)  # center is the higher scorer

    def test_below_floor_goes_to_background(self):
        scores = np.array([[0.9, 0.002]])
        boxes = [Box(0, 0, 10, 10), Box(30, 30, 40, 40)]
        out = build_clusters(scores, boxes_to_array(boxes), np.array([1]))
        assert [c.members for c in out.clusters] == [(0,)]
        assert out.background == (1,)
        assert out.background_weights[0] == pytest.approx(1.0 - 0.002)

    def test_no_positive_class_errors(self):
        with pytest.raises(InputError):
            build_clusters(np.array([[0.5]]), boxes_to_array([Box(0, 0, 5, 5)]), np.array([0]))

    def test_iou_matrix_must_match_the_boxes(self):
        scores = np.array([[0.9, 0.7]])
        boxes = [Box(0, 0, 10, 10), Box(30, 30, 40, 40)]
        with pytest.raises(InputError, match=r"IoU matrix of shape \(1, 2\) for 2 boxes"):
            build_clusters(scores, boxes_to_array(boxes), np.array([1]), np.zeros((1, 2)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_partitions_all_proposals(self, seed):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(1, 9))
        boxes = []
        for _ in range(r):
            x0 = int(rng.integers(0, 50))
            y0 = int(rng.integers(0, 50))
            boxes.append(Box(x0, y0, x0 + int(rng.integers(2, 14)), y0 + int(rng.integers(2, 14))))
        c = int(rng.integers(1, 4))
        y = np.zeros(c, dtype=int)
        y[rng.integers(0, c)] = 1
        scores = rng.uniform(0.0, 1.0, (c, r))
        out = build_clusters(scores, boxes_to_array(boxes), y)
        covered = sorted([m for cl in out.clusters for m in cl.members] + list(out.background))
        assert covered == list(range(r))
        assert all(0.0 <= cl.score <= 1.0 for cl in out.clusters)
        assert all(0.0 <= w <= 1.0 for w in out.background_weights)
        assert all(cl.size == len(cl.members) for cl in out.clusters)


class TestRefinementLoss:
    def test_perfect_foreground_cluster_is_free(self):
        probs = np.array([[1.0], [0.0]])
        clusters = build_clusters(np.array([[1.0]]), boxes_to_array([Box(0, 0, 5, 5)]), np.array([1]))
        loss, grad = refinement_loss(probs, clusters)
        assert loss == pytest.approx(0.0, abs=1e-7)

    def test_single_background_closed_form(self):
        from slv.mil import ClusterSet

        clusters = ClusterSet(
            clusters=(),
            background=(0,),
            background_weights=np.array([1.0]),
            num_proposals=1,
        )
        probs = np.array([[0.5], [0.5]])  # one class row plus background row
        loss, grad = refinement_loss(probs, clusters)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)
        assert grad[1, 0] == pytest.approx(-1.0 / 0.5, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            c, r = 3, 6
            boxes = []
            for _ in range(r):
                x0 = int(rng.integers(0, 40))
                y0 = int(rng.integers(0, 40))
                boxes.append(Box(x0, y0, x0 + int(rng.integers(3, 15)), y0 + int(rng.integers(3, 15))))
            y = np.zeros(c, dtype=int)
            y[rng.integers(0, c)] = 1
            y[rng.integers(0, c)] = 1
            cluster_scores = rng.uniform(0.05, 1.0, (c, r))
            clusters = build_clusters(cluster_scores, boxes_to_array(boxes), y)
            probs = random_probability_matrix(rng, c + 1, r)
            _, grad = refinement_loss(probs, clusters)
            numeric = finite_difference_gradient(
                lambda p: refinement_loss(p, clusters)[0], probs
            )
            assert relative_error(grad, numeric) < 1e-5


class TestAverageRefinedScores:
    def test_identical_matrices(self):
        rng = np.random.default_rng(31)
        m = random_probability_matrix(rng, 4, 3)
        out = average_refined_scores(m, m, m)
        assert np.allclose(out, m, rtol=0, atol=1e-16)

    def test_single_entry_mean(self):
        mats = [np.array([[v]]) for v in (0.0, 0.0, 3.0)]
        assert average_refined_scores(*mats)[0, 0] == pytest.approx(1.0)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(37)
        mats = [random_probability_matrix(rng, 3, 4) for _ in range(3)]
        out = average_refined_scores(*mats)
        for c in range(3):
            for r in range(4):
                expected = (mats[0][c, r] + mats[1][c, r] + mats[2][c, r]) / 3
                assert out[c, r] == pytest.approx(expected, abs=1e-15)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(41)
        with pytest.raises(InputError):
            average_refined_scores(
                random_probability_matrix(rng, 3, 4), random_probability_matrix(rng, 3, 5)
            )
