"""The trainer's heads run once per proposal-count group. `train_toy` must
train bit for bit as the per-record loop it replaced (`per_record_train_toy`
in helpers), on records of mixed proposal counts, and fail with the same
errors. The group forms of `assign_targets` and `slv_loss` must give every
record the bits of its own one-record call and of the scalar oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import slv.trainer
from slv.errors import NumericalError
from slv.geometry import Box, boxes_to_array, iou_matrix
from slv.mil import CLUSTER_IOU, PROB_EPS, refinement_losses
from slv.synthetic import SyntheticSceneConfig, generate_synthetic
from slv.targets import assign_targets, slv_loss, slv_losses
from slv.trainer import TrainConfig, _proposal_groups, _training_records, train_toy

from helpers import matched_targets, per_record_train_toy, scalar_slv_loss, supervision
from test_batched_refinement import mixed_dataset

CONFIGS = {
    "ramped": TrainConfig(iterations=4, ramp_length=2.0),
    "mil_only": TrainConfig(iterations=3, mil_only=True),
    "frozen": TrainConfig(iterations=3, ramp_length=math.inf),
}


def assert_same_training(got, want):
    for a, b in zip(got[0].heads(), want[0].heads(), strict=True):
        assert a.tobytes() == b.tobytes()
    assert got[1] == want[1]


def test_proposal_groups_hold_one_byte_a_proposal_pair():
    """On a dense shard (5 records of 300 proposals) a group keeps the
    (R, N, N) bool stack `iou_matrix >= CLUSTER_IOU`, R N^2 bytes, in
    place of an 8 R N^2-byte float IoU stack."""
    config = SyntheticSceneConfig(num_images=5, image_size=64, proposals_per_image=300, objects_per_image=3)
    records, _ = _training_records(generate_synthetic(config, 0))
    [(_, boxes, _, absorbs, _)] = _proposal_groups(records)
    assert absorbs.dtype == bool and absorbs.nbytes == 5 * 300 * 300
    assert np.array_equal(absorbs, np.stack([iou_matrix(b, b) >= CLUSTER_IOU for b in boxes]))


@pytest.mark.parametrize("name", CONFIGS)
def test_grouped_training_matches_the_per_record_loop(name):
    dataset = mixed_dataset()
    config = CONFIGS[name]
    got = train_toy(dataset, config)
    assert_same_training(got, per_record_train_toy(dataset, config))
    if name == "ramped":
        assert any(entry.weight_slv > 0.0 for entry in got[1])


def test_per_record_loop_with_scalar_targets_and_loss_trains_alike(monkeypatch):
    """The reference itself, with the per-proposal oracles in place of the
    one-record `assign_targets` and `slv_loss` calls."""
    dataset = mixed_dataset()
    config = CONFIGS["ramped"]
    got = train_toy(dataset, config)
    monkeypatch.setattr(
        helpers, "assign_targets",
        lambda boxes, sup, num_classes: matched_targets([Box(*row) for row in boxes.tolist()], sup, num_classes),
    )
    monkeypatch.setattr(helpers, "slv_loss", scalar_slv_loss)
    assert_same_training(got, per_record_train_toy(dataset, config))


@pytest.mark.parametrize("learning_rate", [1e307, 1e308, 1.5e308])
def test_divergence_names_the_reference_iteration(learning_rate):
    dataset = mixed_dataset()
    config = TrainConfig(iterations=6, ramp_length=2.0, learning_rate=learning_rate)
    with pytest.raises(NumericalError) as want:
        per_record_train_toy(dataset, config)
    with pytest.raises(NumericalError) as got:
        train_toy(dataset, config)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("training diverged at iteration ")


def test_refinement_nan_names_the_first_bad_record(monkeypatch):
    """NaN scores in two records of the 20-proposal group (the background
    row of its second record, everything of its first) and in one record of
    the 24-proposal group: the error is the first bad record's, as in the
    reference."""

    def poisoned(phi, batch):
        phi = phi.copy()
        if phi.shape[2] == 20:
            phi[1, -1] = np.nan
            phi[0] = np.nan
        if phi.shape[2] == 24:
            phi[1] = np.nan
        return refinement_losses(phi, batch)

    dataset = mixed_dataset()
    config = CONFIGS["ramped"]
    monkeypatch.setattr(helpers, "refinement_losses", poisoned)
    with pytest.raises(NumericalError) as want:
        per_record_train_toy(dataset, config)
    monkeypatch.setattr(slv.trainer, "refinement_losses", poisoned)
    with pytest.raises(NumericalError) as got:
        train_toy(dataset, config)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("refinement_loss: bad log argument in cluster ")


small_boxes = st.builds(
    lambda x, y, w, h: Box(x, y, x + w, y + h),
    st.integers(0, 8), st.integers(0, 8), st.integers(1, 6), st.integers(1, 6),
)
PROBS = [0.0, PROB_EPS / 2, PROB_EPS, 0.3, 0.5, 1 - PROB_EPS, 1.0]


@st.composite
def target_groups(draw):
    """num_classes and R records of N proposals: (proposals, Supervision,
    phi_s, t_s); some records vote no box, others several."""
    num_classes = draw(st.integers(1, 3))
    num = draw(st.integers(1, 8))
    records = []
    for _ in range(draw(st.integers(1, 5))):
        proposals = draw(st.lists(small_boxes, min_size=num, max_size=num))
        votes = draw(st.lists(st.tuples(st.integers(0, num_classes - 1), small_boxes), max_size=4))
        sup = {}
        for c, box in votes:
            sup.setdefault(c, []).append(box)
        line = st.lists(st.sampled_from(PROBS), min_size=num, max_size=num)
        phi = np.array(draw(st.lists(line, min_size=num_classes + 1, max_size=num_classes + 1)))
        offsets = st.lists(st.sampled_from([0.0, -0.5, 0.25, 1.0, -3.0]), min_size=4, max_size=4)
        t_s = np.array(draw(st.lists(offsets, min_size=num, max_size=num)))
        records.append((proposals, supervision(sup), phi, t_s))
    return num_classes, records


@given(target_groups())
@settings(max_examples=300, deadline=None)
def test_group_targets_and_losses_match_one_record_calls_and_oracles(inputs):
    num_classes, records = inputs
    boxes = np.stack([boxes_to_array(p) for p, _, _, _ in records])
    targets = assign_targets(boxes, [sup for _, sup, _, _ in records], num_classes)
    num = boxes.shape[1]
    assert targets.labels.shape == (len(records) * num,)
    phi_s = np.stack([phi for _, _, phi, _ in records])
    # The trainer's offsets are a transposed view of its logits.
    t_s = np.stack([t.T for _, _, _, t in records]).swapaxes(1, 2)
    losses, grad_scores, grad_offsets, vacuous = slv_losses(phi_s, t_s, targets)
    for r, (proposals, sup, phi, t) in enumerate(records):
        rows = slice(r * num, (r + 1) * num)
        one = assign_targets(boxes[r], sup, num_classes)
        oracle = matched_targets(proposals, sup, num_classes)
        for want in (one, oracle):
            assert targets.labels[rows].tolist() == want.labels.tolist()
            assert targets.offsets[rows].tobytes() == want.offsets.tobytes()
            assert targets.valid_mask[rows].tobytes() == want.valid_mask.tobytes()
        for loss, g_scores, g_offsets, empty in (slv_loss(phi, t, one), scalar_slv_loss(phi, t, oracle)):
            assert np.float64(losses[r]).tobytes() == np.float64(loss).tobytes()
            assert np.array_equal(grad_scores[r], g_scores)
            assert np.array_equal(grad_offsets[r], g_offsets)
            assert vacuous[r] == empty
