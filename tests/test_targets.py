import math

import numpy as np
import pytest

from slv.errors import ConfigError, InputError
from slv.geometry import Box, boxes_to_array, iou
from slv.mil import softmax_over_classes
from slv.targets import (
    IGNORED,
    assign_targets,
    decode_offsets,
    decode_boxes_float,
    encode_offsets,
    loss_weight,
    slv_loss,
    total_loss,
)
from slv.voting import Supervision

from helpers import finite_difference_gradient, relative_error


def random_box(rng, size=100, min_side=4, max_side=30):
    w = int(rng.integers(min_side, max_side))
    h = int(rng.integers(min_side, max_side))
    x0 = int(rng.integers(0, size - w))
    y0 = int(rng.integers(0, size - h))
    return Box(x0, y0, x0 + w, y0 + h)


class TestEncodeDecode:
    def test_identical_boxes(self):
        b = Box(10, 10, 30, 40)
        assert np.array_equal(encode_offsets(b, b), np.zeros(4))

    def test_unit_shift_right(self):
        p = Box(10, 10, 20, 20)
        g = Box(20, 10, 30, 20)  # shifted right by the proposal width
        assert encode_offsets(p, g) == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-12)

    def test_width_scaled_by_e(self):
        p = Box(0, 0, 10, 10)
        g = Box(0, 0, 27, 10)  # width 27 vs 10
        t = encode_offsets(p, g)
        assert t[2] == pytest.approx(math.log(2.7), abs=1e-12)

    def test_zero_offsets_identity(self):
        p = Box(3, 5, 9, 12)
        assert decode_offsets(p, np.zeros(4), 20, 20) == p

    def test_roundtrip_before_rounding(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            p = random_box(rng)
            g = random_box(rng)
            decoded = decode_boxes_float(boxes_to_array([p]), [encode_offsets(p, g)])[0]
            assert np.abs(np.asarray(decoded) - np.asarray(g.as_tuple(), dtype=float)).max() < 1e-9

    def test_roundtrip_through_rounding_inside_image(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = random_box(rng)
            g = random_box(rng)
            assert decode_offsets(p, encode_offsets(p, g), 100, 100) == g

    def test_decode_clips_at_border(self):
        p = Box(90, 90, 98, 98)
        decoded = decode_offsets(p, np.array([0.5, 0.0, 0.0, 0.0]), 100, 100)
        assert decoded == Box(94, 90, 100, 98)

    def test_decode_empty_after_clip_flagged(self):
        p = Box(90, 90, 98, 98)
        # shift fully past the right border
        assert decode_offsets(p, np.array([5.0, 0.0, 0.0, 0.0]), 100, 100) is None

    def test_huge_size_offsets_clamped_not_overflowing(self):
        p = Box(10, 10, 26, 18)
        x0, y0, x1, y1 = decode_boxes_float(boxes_to_array([p]), [[0.0, 0.0, 1000.0, 1000.0]])[0]
        assert (x1 - x0, y1 - y0) == pytest.approx((16 * 1000 / 16, 8 * 1000 / 16))
        assert decode_offsets(p, np.array([0.0, 0.0, 1000.0, 0.0]), 100, 100) == Box(0, 10, 100, 18)

    def test_non_finite_offsets_rejected(self):
        with pytest.raises(InputError):
            decode_offsets(Box(0, 0, 5, 5), np.array([np.nan, 0, 0, 0]), 10, 10)


class TestAssignTargets:
    def test_identity_match_is_foreground(self):
        g = Box(10, 10, 30, 30)
        sup = Supervision({2: [g]})
        targets = assign_targets(boxes_to_array([g]), sup, num_classes=3)
        assert targets.labels.tolist() == [2]
        assert np.array_equal(targets.offsets[0], np.zeros(4))
        assert targets.weights.tolist() == [1.0]
        assert targets.num_foreground == 1

    def test_mid_iou_is_background(self):
        g = Box(0, 0, 30, 30)
        p = Box(0, 0, 30, 9)  # IoU 270/900 = 0.3
        assert iou(p, g) == pytest.approx(0.3)
        targets = assign_targets(boxes_to_array([p]), Supervision({0: [g]}), num_classes=2)
        assert targets.labels.tolist() == [2]  # background marker = num_classes
        assert targets.weights.tolist() == [1.0]
        assert targets.num_foreground == 0

    def test_low_iou_is_ignored(self):
        g = Box(0, 0, 30, 30)
        p = Box(60, 60, 70, 70)
        targets = assign_targets(boxes_to_array([p]), Supervision({0: [g]}), num_classes=2)
        assert targets.labels.tolist() == [IGNORED]
        assert targets.weights.tolist() == [0.0]

    def test_empty_supervision_ignores_everything(self):
        targets = assign_targets(boxes_to_array([Box(0, 0, 5, 5), Box(5, 5, 9, 9)]), Supervision(), num_classes=2)
        assert targets.labels.tolist() == [IGNORED, IGNORED]
        assert not targets.valid_mask.any()

    def test_best_box_wins_class(self):
        g0 = Box(0, 0, 20, 20)
        g1 = Box(10, 0, 30, 20)
        p = Box(8, 0, 28, 20)  # closer to g1
        targets = assign_targets(boxes_to_array([p]), Supervision({0: [g0], 1: [g1]}), num_classes=2)
        assert targets.labels.tolist() == [1]


class TestSlvLoss:
    def _targets_one_fg(self):
        g = Box(10, 10, 30, 30)
        return assign_targets(boxes_to_array([g]), Supervision({0: [g]}), num_classes=1)

    def test_perfect_prediction_near_zero(self):
        targets = self._targets_one_fg()
        phi = np.array([[1.0], [0.0]])
        loss, g_scores, g_offsets, vacuous = slv_loss(phi, targets.offsets, targets)
        assert not vacuous
        assert loss == pytest.approx(0.0, abs=1e-7)
        assert not g_offsets.any()

    def test_localization_closed_form(self):
        targets = self._targets_one_fg()
        phi = np.array([[1.0], [0.0]])
        t_s = targets.offsets + 0.5
        loss, _, g_offsets, _ = slv_loss(phi, t_s, targets)
        assert loss == pytest.approx(0.125, abs=1e-7)  # 4 * (0.5^2 / 2) / 4
        assert g_offsets[0] == pytest.approx([0.125] * 4)  # 0.5 / 4 in the quadratic region

    def test_single_background_cross_entropy(self):
        p = Box(0, 0, 30, 9)
        g = Box(0, 0, 30, 30)
        targets = assign_targets(boxes_to_array([p]), Supervision({0: [g]}), num_classes=1)
        phi = np.array([[0.5], [0.5]])
        loss, g_scores, _, _ = slv_loss(phi, np.zeros((1, 4)), targets)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)
        assert g_scores[1, 0] == pytest.approx(-2.0)

    def test_vacuous_instance(self):
        targets = assign_targets(boxes_to_array([Box(0, 0, 5, 5)]), Supervision(), num_classes=1)
        phi = np.array([[0.5], [0.5]])
        loss, g_scores, g_offsets, vacuous = slv_loss(phi, np.zeros((1, 4)), targets)
        assert vacuous
        assert loss == 0.0
        assert not g_scores.any() and not g_offsets.any()

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4321)
        for _ in range(20):
            num_classes, num_proposals = 3, 6
            sup_boxes = {int(rng.integers(num_classes)): [random_box(rng)] for _ in range(2)}
            sup = Supervision({c: bs for c, bs in sup_boxes.items()})
            proposals = []
            for c, (g,) in sup_boxes.items():
                proposals.append(g)  # guaranteed foreground
            while len(proposals) < num_proposals:
                proposals.append(random_box(rng))
            targets = assign_targets(boxes_to_array(proposals), sup, num_classes=num_classes)
            probs = softmax_over_classes(
                rng.uniform(-1, 1, (num_classes + 1, num_proposals))
            )
            # keep |prediction - target| away from the smooth-L1 kink at 1
            diff = rng.uniform(0.1, 0.8, (num_proposals, 4)) * rng.choice([-1, 1], (num_proposals, 4))
            t_s = targets.offsets + diff
            _, g_scores, g_offsets, _ = slv_loss(probs, t_s, targets)
            numeric_scores = finite_difference_gradient(
                lambda p: slv_loss(p, t_s, targets)[0], probs
            )
            numeric_offsets = finite_difference_gradient(
                lambda t: slv_loss(probs, t, targets)[0], t_s
            )
            assert relative_error(g_scores, numeric_scores) < 1e-5
            assert relative_error(g_offsets, numeric_offsets) < 1e-5

    def test_shape_validation(self):
        targets = self._targets_one_fg()
        with pytest.raises(InputError):
            slv_loss(np.array([[1.0], [0.0]]), np.zeros((2, 4)), targets)
        with pytest.raises(InputError):
            slv_loss(np.array([[1.0]]), np.zeros((1, 4)), targets)

    def test_non_negative_and_loc_zero_iff_exact(self):
        rng = np.random.default_rng(99)
        targets = self._targets_one_fg()
        for _ in range(20):
            probs = np.abs(rng.dirichlet(np.ones(2))).reshape(2, 1)
            t_s = targets.offsets + rng.uniform(-0.5, 0.5, (1, 4))
            loss, _, _, _ = slv_loss(probs, t_s, targets)
            assert loss >= 0.0
        # localization term vanishes exactly when predictions hit the targets
        phi = np.array([[0.7], [0.3]])
        exact, _, _, _ = slv_loss(phi, targets.offsets, targets)
        off, _, _, _ = slv_loss(phi, targets.offsets + 1e-3, targets)
        assert exact == pytest.approx(-math.log(0.7), abs=1e-12)
        assert off > exact


class TestLossWeight:
    def test_starts_at_zero(self):
        assert loss_weight(100, 0) == 0.0

    def test_reaches_one_at_ramp_end(self):
        assert loss_weight(100, 100) == 1.0
        assert loss_weight(100, 250) == 1.0

    def test_linear_midpoint(self):
        assert loss_weight(100, 50) == 0.5

    def test_infinite_ramp_pins_zero(self):
        assert loss_weight(math.inf, 10**9) == 0.0

    def test_non_decreasing_and_clamped(self):
        values = [loss_weight(37, i) for i in range(120)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_bad_ramp_rejected(self):
        for bad in (0, -5, math.nan):
            with pytest.raises(ConfigError):
                loss_weight(bad, 0)

    def test_negative_iteration_rejected(self):
        with pytest.raises(InputError):
            loss_weight(10, -1)


class TestTotalLoss:
    def test_zero_weight_drops_voted_term(self):
        assert total_loss(1.25, (0.5, 0.25, 0.125), 99.0, 0.0) == 1.25 + 0.875

    def test_all_zero(self):
        assert total_loss(0.0, (0.0, 0.0, 0.0), 0.0, 0.0) == 0.0

    def test_arithmetic(self):
        assert total_loss(1.0, (1.0, 1.0, 1.0), 2.0, 0.5) == 5.0

    def test_linear_in_voted_loss(self):
        base = total_loss(1.0, (1.0,), 2.0, 0.25)
        bumped = total_loss(1.0, (1.0,), 3.0, 0.25)
        assert bumped - base == pytest.approx(0.25)

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            total_loss(math.nan, (0.0,), 0.0, 0.0)

    def test_monotone_in_each_component(self):
        base = total_loss(1.0, (0.5, 0.5, 0.5), 2.0, 0.5)
        assert total_loss(1.1, (0.5, 0.5, 0.5), 2.0, 0.5) >= base
        assert total_loss(1.0, (0.6, 0.5, 0.5), 2.0, 0.5) >= base
        assert total_loss(1.0, (0.5, 0.5, 0.5), 2.1, 0.5) >= base
