"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
measured numbers inline.
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from slv.datasets import load_dataset, load_detections
from slv.evaluation import evaluate_detections, format_report, match_detections
from slv.geometry import Box, boxes_to_array
from slv.mil import build_clusters, mil_loss, refinement_loss, softmax_over_classes
from slv.schemes import compare_schemes
from slv.synthetic import SyntheticSceneConfig, generate_synthetic
from slv.targets import assign_targets, loss_weight, slv_loss
from slv.trainer import TrainConfig, train_toy
from slv.voting import (
    VOC2007_CLASSES,
    VoteConfig,
    accumulate_fast,
    generate_supervision,
    voc2007_config,
)

from helpers import accumulate_naive, by_class, finite_difference_gradient, relative_error, supervision, to_pixels

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    print(f"[ACCEPTANCE] {name}: PASS ({time.perf_counter() - start:.2f}s)")


def random_boxes(rng, height, width, count):
    boxes = []
    for _ in range(count):
        x0 = int(rng.integers(0, width - 1))
        y0 = int(rng.integers(0, height - 1))
        boxes.append(
            Box(
                x0,
                y0,
                x0 + int(rng.integers(1, width - x0 + 1)),
                y0 + int(rng.integers(1, height - y0 + 1)),
            )
        )
    return boxes


def test_oracle_equivalence_fast_vs_naive():
    """200 seeded random instances, grids <= 64x64, <= 50 proposals,
    agreement within 1e-9 per pixel, under 5 seconds."""
    with criterion("oracle equivalence (fast vs naive accumulation)"):
        rng = np.random.default_rng(64_50_200)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(200):
            height = int(rng.integers(4, 65))
            width = int(rng.integers(4, 65))
            boxes = boxes_to_array(random_boxes(rng, height, width, int(rng.integers(1, 51))))
            scores = rng.uniform(0.0005, 1.0, len(boxes))
            candidates = np.array([i for i in range(len(boxes)) if rng.random() < 0.85], dtype=np.int64)
            fast = accumulate_fast(candidates, boxes, scores, height, width)
            naive = accumulate_naive(candidates, boxes, scores, height, width)
            deviation = float(np.abs(to_pixels(fast) - to_pixels(naive)).max())
            worst = max(worst, deviation)
            assert deviation <= 1e-9
        elapsed = time.perf_counter() - start
        print(f"  200 instances, worst per-pixel deviation {worst:.3e}, {elapsed:.2f}s")
        assert elapsed < 5.0


def test_gradient_suite_matches_finite_differences():
    """Analytic gradients of the image loss, the cluster refinement loss,
    and the multi-task loss vs central differences (step 1e-5), relative
    error < 1e-5, on 100 seeded random small instances, under 10 seconds."""
    with criterion("gradient suite (image, refinement, multi-task losses)"):
        rng = np.random.default_rng(100_000)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(100):
            num_classes = int(rng.integers(1, 5))
            num_proposals = int(rng.integers(1, 9))

            phi = rng.uniform(0.05, 0.95, num_classes)
            y = rng.integers(0, 2, num_classes)
            _, grad = mil_loss(phi, y)
            numeric = finite_difference_gradient(lambda p: mil_loss(p, y)[0], phi)
            worst = max(worst, relative_error(grad, numeric))

            boxes = random_boxes(rng, 48, 48, num_proposals)
            y_pos = np.zeros(num_classes, dtype=int)
            y_pos[int(rng.integers(num_classes))] = 1
            clusters = build_clusters(
                rng.uniform(0.05, 1.0, (num_classes, num_proposals)), boxes_to_array(boxes), y_pos
            )
            probs = softmax_over_classes(
                rng.uniform(-1, 1, (num_classes + 1, num_proposals))
            )
            _, grad = refinement_loss(probs, clusters)
            numeric = finite_difference_gradient(
                lambda p: refinement_loss(p, clusters)[0], probs
            )
            worst = max(worst, relative_error(grad, numeric))

            sup_box = boxes[0]
            sup_class = int(rng.integers(num_classes))
            targets = assign_targets(boxes_to_array(boxes), supervision({sup_class: [sup_box]}), num_classes)
            t_s = targets.offsets + rng.uniform(0.1, 0.8, (num_proposals, 4)) * rng.choice(
                [-1.0, 1.0], (num_proposals, 4)
            )
            _, g_scores, g_offsets, _ = slv_loss(probs, t_s, targets)
            numeric_scores = finite_difference_gradient(
                lambda p: slv_loss(p, t_s, targets)[0], probs
            )
            numeric_offsets = finite_difference_gradient(
                lambda t: slv_loss(probs, t, targets)[0], t_s
            )
            worst = max(worst, relative_error(g_scores, numeric_scores))
            worst = max(worst, relative_error(g_offsets, numeric_offsets))
            assert worst < 1e-5
        elapsed = time.perf_counter() - start
        print(f"  100 instances, worst relative error {worst:.3e}, {elapsed:.2f}s")
        assert elapsed < 10.0


def test_single_voter_exactness():
    """One proposal above both thresholds votes exactly its own box."""
    with criterion("single-voter exactness"):
        cases = [
            (Box(3, 4, 11, 9), 16, 16, 0, VoteConfig()),
            (Box(0, 0, 1, 1), 8, 8, 0, VoteConfig()),          # single pixel
            (Box(0, 0, 12, 10), 10, 12, 0, VoteConfig()),      # fills the image
            (Box(2, 2, 9, 9), 12, 12, 1, VoteConfig(t_b_per_class={1: 0.2})),
        ]
        for box, height, width, class_id, config in cases:
            rows = class_id + 1
            phi = np.zeros((rows, 1))
            phi[class_id, 0] = 0.37
            y = np.zeros(rows, dtype=int)
            y[class_id] = 1
            sup = generate_supervision(phi, boxes_to_array([box]), y, height, width, config)
            assert by_class(sup) == {class_id: [box]}
            voted = by_class(sup)[class_id][0]
            assert voted.as_tuple() == box.as_tuple()


def test_scheme_comparison_separation():
    """On the seeded generator (bias 0.9, 50 images) the voted labels beat
    the top-scoring-proposal labels by at least 0.05 mean IoU; the measured
    margin is frozen as a golden value. Under 30 seconds."""
    with criterion("labeling scheme comparison (voting vs top proposal)"):
        start = time.perf_counter()
        config = SyntheticSceneConfig(num_images=50, part_bias=0.9)
        dataset = generate_synthetic(config, seed=0)
        stats = {
            s.scheme: s for s in compare_schemes(dataset)
        }
        slv_iou = stats["slv"].overall
        conventional_iou = stats["conventional"].overall
        gap = slv_iou - conventional_iou
        elapsed = time.perf_counter() - start
        print(
            f"  mean IoU: slv {slv_iou:.4f}, conventional {conventional_iou:.4f}, "
            f"clustering {stats['clustering'].overall:.4f}, gap {gap:.4f}, {elapsed:.2f}s"
        )
        assert gap >= 0.05
        # golden margin measured once on this seeded configuration
        # (generator defaults, seed 0) and frozen
        assert gap == pytest.approx(0.5863036307615691, abs=1e-9)
        assert elapsed < 30.0


def test_total_loss_degeneracy_and_ramp_contract():
    """A run with the multi-task weight pinned at zero produces a loss
    trace bit-identical to a run with the branch deleted; the ramp starts
    at 0 and reaches 1 at its end."""
    with criterion("zero-weight degeneracy and ramp endpoints"):
        config = SyntheticSceneConfig(
            num_images=6, image_size=48, num_classes=3, proposals_per_image=20
        )
        dataset = generate_synthetic(config, seed=5)
        _, frozen = train_toy(
            dataset, TrainConfig(iterations=25, learning_rate=1.0, ramp_length=math.inf)
        )
        _, mil_only = train_toy(
            dataset, TrainConfig(iterations=25, learning_rate=1.0, mil_only=True)
        )
        assert len(frozen) == len(mil_only) == 25
        for a, b in zip(frozen, mil_only):
            assert a.loss_mil == b.loss_mil          # bit-exact
            assert a.loss_refine == b.loss_refine    # bit-exact
            assert a.loss_total == b.loss_total      # bit-exact
            assert a.weight_slv == 0.0

        assert loss_weight(120, 0) == 0.0
        assert loss_weight(120, 120) == 1.0
        assert loss_weight(120, 60) == 0.5


def test_metric_oracle_on_hand_built_fixture():
    """AP and CorLoc on the 3-image fixture match the hand computation
    exactly; the IoU = 0.5 boundary detection is a false positive."""
    with criterion("metric oracle (hand-computed AP / CorLoc)"):
        dataset = load_dataset(FIXTURES / "eval_dataset.jsonl")
        detections = load_detections(FIXTURES / "eval_detections.jsonl")
        gt = dataset.ground_truth()

        flags = match_detections(detections, gt)
        boundary = detections.image_ids.index("img2")
        assert flags[boundary] is False  # IoU exactly 0.5 -> FP

        result = evaluate_detections(detections, gt)
        assert result.ap == {0: 0.5, 1: 0.25}
        assert result.corloc == {0: 0.5, 1: 0.5}
        assert result.mean_ap == 0.375
        assert format_report(result) == (FIXTURES / "eval_expected.txt").read_text()


def test_defaults_audit_voc2007_preset():
    """The shipped voc2007 preset carries the documented thresholds."""
    with criterion("defaults audit (voc2007 preset)"):
        config = voc2007_config()
        assert config.t_score == 0.001
        assert config.t_b_default == 0.5
        assert config.t_b_per_class == {VOC2007_CLASSES.index("person"): 0.2}
        assert VOC2007_CLASSES.index("person") == 14
        assert config.t_b_for(VOC2007_CLASSES.index("person")) == 0.2
        for other in range(len(VOC2007_CLASSES)):
            if other != 14:
                assert config.t_b_for(other) == 0.5


def test_performance_fast_accumulation():
    """accumulate_fast on a 1200x1200 map with 2000 proposals finishes in
    under 50 ms single-threaded (best of 5); the naive kernel is measured
    on the same input and the speedup reported."""
    with criterion("fast accumulation performance (1200x1200, 2000 boxes)"):
        rng = np.random.default_rng(1200)
        height = width = 1200
        boxes = boxes_to_array(random_boxes(rng, height, width, 2000))
        scores = rng.uniform(0.001, 1.0, 2000)
        candidates = np.arange(2000)

        fast_times = []
        for _ in range(5):
            start = time.perf_counter()
            fast = accumulate_fast(candidates, boxes, scores, height, width)
            fast_times.append(time.perf_counter() - start)
        best_fast = min(fast_times)

        start = time.perf_counter()
        naive = accumulate_naive(candidates, boxes, scores, height, width)
        naive_time = time.perf_counter() - start

        deviation = float(np.abs(to_pixels(fast) - to_pixels(naive)).max())
        print(
            f"  fast best-of-5 {best_fast * 1000:.1f} ms, naive {naive_time * 1000:.1f} ms, "
            f"speedup {naive_time / best_fast:.1f}x, max deviation {deviation:.3e}"
        )
        assert best_fast < 0.050
        assert deviation < 1e-9
