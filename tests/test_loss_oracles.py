"""The array kernels of the losses and the box coding against their
per-proposal loops in helpers.py, bit for bit: probabilities at 0,
PROB_EPS, 1 - PROB_EPS and 1, clusters without background, all-ignored
targets, size offsets at and beyond BBOX_XFORM_CLIP, and decodes that clip
to empty boxes. Errors must be the same, naming the same first bad index.

Hypothesis draws the shapes and a seed; the entries come from numpy, half
from a pool of edge values and half uniform, which keeps examples cheap."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slv.errors import InputError, NumericalError, SlvError
from slv.geometry import Box, boxes_to_array
from slv.mil import PROB_EPS, Cluster, mil_loss, mil_losses, refinement_loss
from slv.synthetic import SyntheticSceneConfig, generate_synthetic
from slv.targets import (
    BBOX_XFORM_CLIP,
    IGNORED,
    ProposalTargets,
    assign_targets,
    decode_boxes,
    decode_boxes_float,
    decode_offsets,
    encode_boxes,
    encode_offsets,
    slv_loss,
)
from slv.trainer import ToyScorer, run_inference

from helpers import (
    detection_rows,
    matched_targets,
    one_record,
    row_mil_loss,
    scalar_decode_offsets,
    scalar_decode_offsets_float,
    scalar_encode_offsets,
    scalar_refinement_loss,
    scalar_run_inference,
    scalar_slv_loss,
    supervision,
)
from test_batched_refinement import mixed_dataset

SATURATED = [0.0, PROB_EPS / 2, PROB_EPS, 2 * PROB_EPS, 0.5, 1 - 2 * PROB_EPS, 1 - PROB_EPS, 1 - PROB_EPS / 2, 1.0]
LARGE = [BBOX_XFORM_CLIP, np.nextafter(BBOX_XFORM_CLIP, np.inf), BBOX_XFORM_CLIP + 1, 1000.0, 1e300, sys.float_info.max]
OFFSETS = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0] + LARGE + [-v for v in LARGE]
seeds = st.integers(0, 2**32 - 1)


def pooled(rng, pool, shape, low, high):
    """Entries drawn half from `pool`, half uniform in [low, high)."""
    return np.where(rng.random(shape) < 0.5, rng.choice(np.array(pool), shape), rng.uniform(low, high, shape))


def random_boxes(rng, n, reach=70, side=40):
    xy = rng.integers(0, reach, (n, 2))
    return [Box(x, y, x + w, y + h) for (x, y), (w, h) in zip(xy.tolist(), rng.integers(1, side, (n, 2)).tolist())]


def outcome(f, *args):
    """The result of a call, or the type and message of the package error it
    raised; any other exception fails the test."""
    try:
        return f(*args)
    except SlvError as exc:
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    if isinstance(want[0], type):
        assert got == want
        return
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert np.array_equal(a, b)


def cluster_case(seed, num_classes, num, background):
    """A score matrix and a random partition into clusters (up to four,
    some larger than eight members) and, optionally, background."""
    rng = np.random.default_rng(seed)
    phi = pooled(rng, SATURATED, (num_classes + 1, num), 0.0, 1.0)
    owner = rng.integers(-1 if background else 0, 4, num)
    clusters = tuple(
        Cluster(int(rng.integers(num_classes)), tuple(np.flatnonzero(owner == k).tolist()), float(s))
        for k, s in zip(np.unique(owner[owner >= 0]).tolist(), pooled(rng, [0.0, 0.5, 1.0], 4, 0.0, 1.0))
    )
    bg = np.flatnonzero(owner < 0)
    weights = pooled(rng, [0.0, 0.5, 1.0], bg.size, 0.0, 1.0)
    return rng, phi, one_record(clusters, bg, weights, num)


@given(seed=seeds, num_classes=st.integers(1, 3), num=st.integers(0, 30), background=st.booleans())
@settings(max_examples=300, deadline=None)
def test_refinement_loss_matches_oracle(seed, num_classes, num, background):
    _, phi, clusters = cluster_case(seed, num_classes, num, background)
    assert_same_outcome(
        outcome(refinement_loss, phi, clusters), outcome(scalar_refinement_loss, phi, clusters)
    )


@given(
    seed=seeds, num_classes=st.integers(1, 3), num=st.integers(1, 30), background=st.booleans(),
    nans=st.integers(0, 3), relabeled=st.integers(0, 2),
)
@settings(max_examples=300, deadline=None)
def test_refinement_loss_names_first_bad_cluster_or_proposal(seed, num_classes, num, background, nans, relabeled):
    rng, phi, clusters = cluster_case(seed, num_classes, num, background)
    phi[rng.integers(0, num_classes + 1, nans), rng.integers(0, num, nans)] = np.nan
    members = list(clusters.clusters)
    for n in rng.integers(0, len(members), relabeled if members else 0).tolist():
        members[n] = Cluster(num_classes + int(rng.integers(0, 3)), members[n].members, members[n].score)
    clusters = one_record(members, clusters.background, clusters.background_weights, num)
    assert_same_outcome(
        outcome(refinement_loss, phi, clusters), outcome(scalar_refinement_loss, phi, clusters)
    )


def test_refinement_loss_error_precedence():
    # A NaN in cluster 0 comes before the missing row of cluster 1, which
    # comes before a NaN among the background proposals.
    clusters = one_record((Cluster(0, (0,), 1.0), Cluster(1, (1,), 1.0)), (2,), [1.0], 3)
    phi = np.full((2, 3), 0.5)
    phi[1, 2] = np.nan
    with pytest.raises(InputError, match="cluster 1 labeled 1 has no row"):
        refinement_loss(phi, clusters)
    phi[0, 0] = np.nan
    with pytest.raises(NumericalError, match="in cluster 0"):
        refinement_loss(phi, clusters)
    clusters = one_record((Cluster(0, (0, 1), 1.0),), (2,), [1.0], 3)
    phi[0, 0] = 0.5
    with pytest.raises(NumericalError, match="background proposal 2"):
        refinement_loss(phi, clusters)


@given(seed=seeds, num_classes=st.integers(1, 3), num=st.integers(0, 30), all_ignored=st.booleans())
@settings(max_examples=300, deadline=None)
def test_slv_loss_matches_oracle(seed, num_classes, num, all_ignored):
    rng = np.random.default_rng(seed)
    labels = rng.integers(IGNORED, num_classes + 1, num) if not all_ignored else np.full(num, IGNORED)
    fg = (labels >= 0) & (labels < num_classes)
    targets = ProposalTargets(
        labels, np.where(fg[:, None], pooled(rng, OFFSETS[:6], (num, 4), -3.0, 3.0), 0.0), num_classes,
    )
    t_s = pooled(rng, OFFSETS[:6], (num, 4), -5.0, 5.0)
    phi = pooled(rng, SATURATED, (num_classes + 1, num), 0.0, 1.0)
    assert_same_outcome(slv_loss(phi, t_s, targets), scalar_slv_loss(phi, t_s, targets))


@given(seed=seeds, num=st.integers(0, 16))
@settings(max_examples=300, deadline=None)
def test_encode_matches_oracle(seed, num):
    rng = np.random.default_rng(seed)
    proposals, targets = random_boxes(rng, num), random_boxes(rng, num)
    got = encode_boxes(boxes_to_array(proposals), boxes_to_array(targets))
    want = np.array([scalar_encode_offsets(p, g) for p, g in zip(proposals, targets)]).reshape(-1, 4)
    assert np.array_equal(got, want)
    for p, g, row in zip(proposals, targets, want):
        assert np.array_equal(encode_offsets(p, g), row)


@given(seed=seeds, num=st.integers(1, 20), num_classes=st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_assign_targets_matches_oracle_on_wide_boxes(seed, num, num_classes):
    rng = np.random.default_rng(seed)
    proposals = random_boxes(rng, num)
    # Voted boxes are mostly nudged proposals, so foreground rows are common.
    sup = {}
    for c in np.flatnonzero(rng.random(num_classes) < 0.7).tolist():
        voted = random_boxes(rng, int(rng.integers(0, 2)))
        for p in rng.choice(num, int(rng.integers(0, 4))).tolist():
            x0, y0, x1, y1 = (boxes_to_array([proposals[p]])[0] + rng.integers(-3, 4, 4)).tolist()
            voted.append(Box(max(x0, 0), max(y0, 0), max(x1, x0 + 1, 1), max(y1, y0 + 1, 1)))
        sup[c] = voted
    sup = supervision(sup)
    got, want = assign_targets(boxes_to_array(proposals), sup, num_classes), matched_targets(proposals, sup, num_classes)
    assert got.labels.tolist() == want.labels.tolist()
    assert np.array_equal(got.offsets, want.offsets)
    assert np.array_equal(got.valid_mask, want.valid_mask)


@given(seed=seeds, num=st.integers(1, 16), height=st.integers(1, 64), width=st.integers(1, 64))
@settings(max_examples=300, deadline=None)
def test_decode_matches_oracle(seed, num, height, width):
    rng = np.random.default_rng(seed)
    proposals = random_boxes(rng, num)
    t = pooled(rng, OFFSETS, (num, 4), -4.0, 4.0)
    decoded = decode_boxes(boxes_to_array(proposals), t, height, width)
    for p, row, offset in zip(proposals, decoded.tolist(), t):
        want = scalar_decode_offsets(p, offset, height, width)
        assert (row[0] >= row[2] or row[1] >= row[3]) == (want is None)
        assert want is None or Box(*row) == want
        assert decode_offsets(p, offset, height, width) == want
    for row, p, offset in zip(decode_boxes_float(boxes_to_array(proposals), t).tolist(), proposals, t):
        assert tuple(row) == scalar_decode_offsets_float(p, offset)


def test_decode_edges():
    p = Box(10, 10, 26, 18)
    for dw in (BBOX_XFORM_CLIP, np.nextafter(BBOX_XFORM_CLIP, np.inf), 1e300):
        t = [0.0, 0.0, dw, 0.0]
        (row,) = decode_boxes_float(boxes_to_array([p]), [t]).tolist()
        assert tuple(row) == scalar_decode_offsets_float(p, t)
    assert decode_offsets(p, [1e308, 0.0, 0.0, 0.0], 40, 40) is None  # shift overflows to inf
    assert decode_offsets(p, [0.0, 0.0, -1e300, 0.0], 40, 40) is None  # width underflows to 0
    for bad in (np.nan, np.inf):
        t = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, bad, 0.0, 0.0]])
        for call in (
            lambda: decode_boxes(boxes_to_array([p, p]), t, 40, 40),
            lambda: decode_offsets(p, t[1], 40, 40),
            lambda: scalar_decode_offsets(p, t[1], 40, 40),
        ):
            with pytest.raises(InputError, match="offsets must be finite"):
                call()


INFERENCE_DATA = generate_synthetic(
    SyntheticSceneConfig(num_images=3, image_size=48, proposals_per_image=30, objects_per_image=2), 9
)


def inference_scorer(seed, factor):
    """An initialized scorer with every weight matrix multiplied by `factor`."""
    dim = INFERENCE_DATA.records[0].features.shape[1]
    scorer = ToyScorer.initialize(INFERENCE_DATA.num_classes, dim, np.random.default_rng(seed))
    for w in (scorer.w_cls, scorer.w_det, scorer.w_slv_cls, scorer.w_slv_reg, *scorer.w_refine):
        w *= factor
    return scorer


@given(
    seed=seeds,
    factor=st.sampled_from([1.0, 30.0, 100.0, 1e5]),  # from 100 on most decodes are empty
    nms_iou=st.sampled_from([0.3, 0.5]),
    score_min=st.sampled_from([0.0, 1e-3, 0.4]),
)
@settings(max_examples=60, deadline=None)
def test_run_inference_matches_oracle(seed, factor, nms_iou, score_min):
    scorer = inference_scorer(seed, factor)
    assert detection_rows(run_inference(scorer, INFERENCE_DATA, nms_iou, score_min)) == scalar_run_inference(
        scorer, INFERENCE_DATA, nms_iou, score_min
    )


def test_run_inference_matches_oracle_on_mixed_proposal_counts():
    """One NMS call over every (record, class) group gives the per-class
    loop's detections on records of three proposal counts, interleaved in
    image-id order, also where some groups have no score above score_min."""
    dataset = mixed_dataset()
    dim = dataset.records[0].features.shape[1]
    partly_empty = False
    for factor in (1.0, 30.0):
        scorer = ToyScorer.initialize(dataset.num_classes, dim, np.random.default_rng(0))
        for w in scorer.heads():
            w *= factor
        for score_min in (1e-3, 0.4):
            got = detection_rows(run_inference(scorer, dataset, 0.3, score_min))
            assert got == scalar_run_inference(scorer, dataset, 0.3, score_min)
            detected = {(image_id, c) for image_id, c, _, _ in got}
            partly_empty |= 0 < len(detected) < len(dataset.records) * dataset.num_classes
    assert partly_empty


SCORE_ERRORS = [-0.1, 1.0 + 1e-6, np.nan, np.inf, -np.inf]
LABEL_ERRORS = [0.5, 2.0, -1.0, np.nan]


def mil_outcome(fn, phi, y):
    """`outcome` of a MIL loss call, its loss and gradient as bytes."""
    got = outcome(fn, phi, y)
    return got if isinstance(got[0], type) else (np.float64(got[0]).tobytes(), got[1].tobytes())


@given(seed=seeds, rows=st.integers(1, 6), classes=st.integers(1, 20), bad=st.lists(st.booleans(), max_size=2))
@settings(max_examples=300, deadline=None)
def test_mil_losses_rows_match_mil_loss(seed, rows, classes, bad):
    """Every row of `mil_losses` has the bytes of `mil_loss` on that row and
    of the one-record kernel it replaced, scores at and beyond the clamp
    included; a bad label or score raises the message of the first row
    whose own call raises."""
    rng = np.random.default_rng(seed)
    phi = pooled(rng, SATURATED, (rows, classes), 0.0, 1.0)
    y = rng.integers(0, 2, (rows, classes)).astype(np.float64)
    for label in bad:
        r, c = rng.integers(rows), rng.integers(classes)
        if label:
            y[r, c] = rng.choice(LABEL_ERRORS)
        else:
            phi[r, c] = rng.choice(SCORE_ERRORS)
    want = [mil_outcome(row_mil_loss, phi[r], y[r]) for r in range(rows)]
    assert [mil_outcome(mil_loss, phi[r], y[r]) for r in range(rows)] == want
    errors = [w for w in want if isinstance(w[0], type)]
    if errors:
        assert outcome(mil_losses, phi, y) == errors[0]
        return
    losses, grads = mil_losses(phi, y)
    assert [(np.float64(loss).tobytes(), grad.tobytes()) for loss, grad in zip(losses, grads)] == want


def test_mil_losses_shape_errors():
    with pytest.raises(InputError, match=r"^mil_loss: shape mismatch phi \(2, 3\) vs y \(2, 2\)$"):
        mil_losses(np.full((2, 3), 0.5), np.ones((2, 2)))
    with pytest.raises(InputError, match=r"^mil_loss: shape mismatch phi \(3,\) vs y \(3,\)$"):
        mil_losses(np.full(3, 0.5), np.ones(3))


def test_run_inference_drops_empty_decodes_like_oracle():
    scorer = inference_scorer(2, 30.0)
    record = INFERENCE_DATA.records[0]
    _, t = scorer.slv_heads(record.features)
    proposals = [Box(*row) for row in record.proposals.tolist()]
    dropped = [scalar_decode_offsets(p, t[r], record.height, record.width) is None for r, p in enumerate(proposals)]
    assert any(dropped) and not all(dropped)
    detections = run_inference(scorer, INFERENCE_DATA)
    assert detections and detection_rows(detections) == scalar_run_inference(scorer, INFERENCE_DATA)
