"""The batched refinement kernels against their one-record forms and the
scalar oracles: `cluster_records` must give every record the clusters of
its own `build_clusters` call and of `greedy_clusters`, and each of several
score sets over the same records the batch of its own call, and
`refinement_losses` the loss bits and gradient of `scalar_refinement_loss`.
Batches mix proposal counts, classes positive in only some records, and
records whose scores all sit below the centre floor, with and without the
absorb-mask stack. `train_toy` must train bit for bit as it does with those
oracles in place of the kernels."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slv.trainer
from slv.datasets import Dataset
from slv.errors import NumericalError
from slv.geometry import Box, boxes_to_array
from slv.mil import (
    CLUSTER_CENTER_FLOOR,
    PROB_EPS,
    ClusterBatch,
    absorb_masks,
    build_clusters,
    cluster_records,
    refinement_losses,
    softmax_backward,
)
from slv.synthetic import SyntheticSceneConfig, generate_synthetic
from slv.trainer import ToyScorer, TrainConfig, train_toy

from helpers import TIE_BOXES, greedy_clusters, record_sets, scalar_refinement_loss

small_boxes = st.builds(
    lambda x, y, w, h: Box(x, y, x + w, y + h),
    st.integers(0, 6), st.integers(0, 6), st.integers(1, 4), st.integers(1, 4),
)
SCORES = [0.0, 0.005, 0.01, 0.2, 0.5, 0.9]
BELOW_FLOOR = [0.0, 0.005, np.nextafter(CLUSTER_CENTER_FLOOR, 0.0)]
PROBS = [0.0, PROB_EPS / 2, PROB_EPS, 0.3, 0.5, 1 - PROB_EPS, 1.0]


def assert_same_clusters(got, want):
    assert got.clusters == want.clusters
    assert got.background == want.background
    assert np.array_equal(got.background_weights, want.background_weights)
    assert got.num_proposals == want.num_proposals


@st.composite
def record_groups(draw):
    """num_classes and groups of records (boxes, label, scores, phi); the
    records of a group share a proposal count."""
    num_classes = draw(st.integers(1, 3))
    rows = num_classes + 1
    groups = []
    for num in draw(st.lists(st.integers(1, 10), min_size=1, max_size=3, unique=True)):
        records = []
        for _ in range(draw(st.integers(1, 5))):
            boxes = draw(st.lists(small_boxes, min_size=num, max_size=num))
            y = draw(st.lists(st.integers(0, 1), min_size=num_classes, max_size=num_classes).filter(any))
            pool = BELOW_FLOOR if draw(st.booleans()) and draw(st.booleans()) else SCORES
            line = st.lists(st.sampled_from(pool), min_size=num, max_size=num)
            scores = np.array(draw(st.lists(line, min_size=rows, max_size=rows)))
            line = st.lists(st.sampled_from(PROBS), min_size=num, max_size=num)
            phi = np.array(draw(st.lists(line, min_size=rows, max_size=rows)))
            records.append((boxes, np.array(y), scores, phi))
        groups.append(records)
    return num_classes, groups


@given(record_groups(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_batched_kernels_match_per_record_calls_and_oracles(inputs, with_masks):
    _, groups = inputs
    for records in groups:
        boxes = np.stack([boxes_to_array(b) for b, _, _, _ in records])
        labels = np.stack([y == 1 for _, y, _, _ in records])
        scores = np.stack([s for _, _, s, _ in records])
        phi = np.stack([p for _, _, _, p in records])
        batch = cluster_records(scores, boxes, labels, absorb_masks(boxes) if with_masks else None)
        sets = record_sets(batch, len(records), boxes.shape[1])
        losses, grads = refinement_losses(phi, batch)
        assert losses.shape == (len(records),) and grads.shape == phi.shape
        for r, (box_list, y, s, p) in enumerate(records):
            assert_same_clusters(sets[r], build_clusters(s, boxes[r], y))
            assert_same_clusters(sets[r], greedy_clusters(s, box_list, y))
            loss, grad = scalar_refinement_loss(p, sets[r])
            assert np.float64(losses[r]).tobytes() == np.float64(loss).tobytes()
            assert np.array_equal(grads[r], grad)


@st.composite
def score_sets(draw):
    """S score sets over R records: an (S * R, C + 1, N) stack of tying
    scores, some rows below the centre floor, (R, N, 4) tie-heavy boxes
    drawn from a small pool, and an (R, C) label mask, classes positive in
    only some records."""
    num_classes, sets, records, num = (draw(st.integers(lo, hi)) for lo, hi in ((1, 3), (1, 3), (1, 4), (0, 10)))
    pool = draw(st.lists(st.one_of(st.sampled_from(TIE_BOXES), small_boxes), min_size=1, max_size=4))
    boxes = np.stack([boxes_to_array(draw(st.lists(st.sampled_from(pool), min_size=num, max_size=num))) for _ in range(records)])
    line = st.lists(st.booleans(), min_size=num_classes, max_size=num_classes).filter(any)
    labels = np.array([draw(line) for _ in range(records)])
    rows = []
    for _ in range(sets * records):
        values = st.sampled_from(BELOW_FLOOR if draw(st.booleans()) and draw(st.booleans()) else SCORES)
        rows.append(draw(st.lists(values, min_size=(num_classes + 1) * num, max_size=(num_classes + 1) * num)))
    return np.array(rows, dtype=np.float64).reshape(sets * records, num_classes + 1, num), boxes, labels


def set_batch(batch: ClusterBatch, first: int, records: int) -> ClusterBatch:
    """The clusters and background of batch rows `first` to `first + records`,
    renumbered from 0."""
    ends = np.cumsum(batch.sizes)
    keep = (first <= batch.record) & (batch.record < first + records)
    bg = (first <= batch.background_record) & (batch.background_record < first + records)
    return ClusterBatch(
        record=batch.record[keep] - first,
        label=batch.label[keep],
        score=batch.score[keep],
        sizes=batch.sizes[keep],
        members=np.concatenate([np.zeros(0, dtype=np.int64)] + [batch.members[b - n : b] for b, n in zip(ends[keep], batch.sizes[keep])]),
        background_record=batch.background_record[bg] - first,
        background=batch.background[bg],
        background_weights=batch.background_weights[bg],
    )


@given(score_sets(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_score_sets_cluster_as_their_own_calls(inputs, with_masks):
    """One call on S score sets over the same R records gives each set the
    batch of its own call, field for field and dtype for dtype."""
    scores, boxes, labels = inputs
    absorbs = absorb_masks(boxes) if with_masks else None
    records = len(boxes)
    batch = cluster_records(scores, boxes, labels, absorbs)
    for m in range(len(scores) // records):
        want = cluster_records(scores[m * records : (m + 1) * records], boxes, labels, absorbs)
        got = set_batch(batch, m * records, records)
        for name in ClusterBatch.__dataclass_fields__:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_records_below_the_floor_form_no_cluster():
    # IoU 9/23 keeps record 0's two proposals apart; record 1 never seeds.
    boxes = boxes_to_array([Box(0, 0, 4, 4), Box(1, 1, 5, 5)])
    scores = np.array([[[0.2, 0.5], [0.0, 0.0]], [[0.009, 0.0], [0.0, 0.0]]])
    batch = cluster_records(scores, np.stack([boxes, boxes]), np.array([[True], [True]]))
    assert batch.record.tolist() == [0, 0]
    assert batch.score.tolist() == [0.5, 0.2]
    assert batch.members.tolist() == [1, 0]
    assert batch.background_record.tolist() == [1, 1]
    assert batch.background_weights.tolist() == [1.0 - 0.009, 1.0]


def test_refinement_losses_name_the_first_bad_record():
    # Clusters in seeding order: record 1's first, record 0's, record 1's
    # second. Record 0 also has proposal 1 as background.
    batch = ClusterBatch(
        record=np.array([1, 0, 1]), label=np.zeros(3, dtype=np.int64), score=np.ones(3),
        sizes=np.ones(3, dtype=np.int64), members=np.array([0, 0, 1]),
        background_record=np.array([0]), background=np.array([1]), background_weights=np.ones(1),
    )
    phi = np.full((2, 2, 2), 0.5)
    phi[1, 0, 1] = phi[0, 0, 0] = np.nan
    with pytest.raises(NumericalError, match="in cluster 0$"):
        refinement_losses(phi, batch)
    phi[0, 0, 0], phi[0, 1, 1] = 0.5, np.nan
    with pytest.raises(NumericalError, match="background proposal 1$"):
        refinement_losses(phi, batch)
    phi[0, 1, 1] = 0.5
    with pytest.raises(NumericalError, match="in cluster 1$"):
        refinement_losses(phi, batch)


def oracle_cluster_records(scores, boxes, labels, absorbs):
    """cluster_records as greedy_clusters per score matrix, matrix m * R + r
    being set m's of record r; the trainer hands the result only to
    `refinement_losses`."""
    return [
        greedy_clusters(s, [Box(*row) for row in boxes[k % len(boxes)].tolist()], labels[k % len(boxes)].astype(np.int64))
        for k, s in enumerate(scores)
    ]


def oracle_refinement_losses(phi, sets):
    out = [scalar_refinement_loss(p, s) for p, s in zip(phi, sets)]
    return np.array([loss for loss, _ in out]), np.stack([grad for _, grad in out])


def mixed_dataset() -> Dataset:
    """Records of three proposal counts, interleaved in image-id order, so
    the trainer's groups are not contiguous."""
    records = []
    for proposals, seed in ((16, 1), (20, 2), (24, 3)):
        config = SyntheticSceneConfig(num_images=2, image_size=48, num_classes=2, objects_per_image=1, proposals_per_image=proposals)
        records += [
            dataclasses.replace(r, image_id=f"img{k}-{proposals}")
            for k, r in enumerate(generate_synthetic(config, seed).records)
        ]
    return Dataset(records, num_classes=2)


def test_training_on_mixed_proposal_counts_matches_the_oracles(monkeypatch):
    dataset = mixed_dataset()
    config = TrainConfig(iterations=3, ramp_length=2.0)
    got = train_toy(dataset, config)
    monkeypatch.setattr(slv.trainer, "cluster_records", oracle_cluster_records)
    monkeypatch.setattr(slv.trainer, "refinement_losses", oracle_refinement_losses)
    want = train_toy(dataset, config)
    for a, b in zip(got[0].heads(), want[0].heads()):
        assert np.array_equal(a, b)
    assert got[1] == want[1]


def test_refinement_gradients_add_up_in_record_order(monkeypatch):
    """Each refinement stage's gradient is the records' products added in
    image-id order, as a per-record loop would add them, whatever the
    groups; the fixture's sums in that order and group by group differ."""
    dataset = mixed_dataset()
    records = sorted(dataset.records, key=lambda r: r.image_id)
    counts = [len(r.proposals) for r in records]
    assert counts == [16, 20, 24] * 2
    calls = []

    def spy(phi, batch):
        losses, grads = refinement_losses(phi, batch)
        calls.append((phi, grads))
        return losses, grads

    monkeypatch.setattr(slv.trainer, "refinement_losses", spy)
    config = TrainConfig(iterations=1, mil_only=True)
    trained, _ = train_toy(dataset, config)
    dim = records[0].features.shape[1]
    start = ToyScorer.initialize(dataset.num_classes, dim, np.random.default_rng(config.init_seed))
    # One call per proposal count, whose rows hold the stages' matrices in stage order.
    assert len(calls) == 3
    split = [zip(np.split(phi, slv.trainer.REFINEMENTS), np.split(grads, slv.trainer.REFINEMENTS)) for phi, grads in calls]
    stages = [list(stage) for stage in zip(*split)]  # per stage, one (phi, grads) pair per proposal count
    assert len(stages) == slv.trainer.REFINEMENTS
    told_apart = False
    for w0, w, stage in zip(start.w_refine, trained.w_refine, stages):
        # Each record's product, from its own row of its group's stacks.
        rows = {phi.shape[2]: iter(zip(phi, grads)) for phi, grads in stage}
        products = []
        for record in records:
            phi, grad = next(rows[len(record.proposals)])
            products.append(softmax_backward(phi, grad, axis=0) @ record.features)
        by_id, by_group = np.zeros_like(w0), np.zeros_like(w0)
        for p in products:
            by_id += p
        for first in range(3):
            for p in products[first::3]:
                by_group += p
        assert np.array_equal(w, w0 - config.learning_rate / len(records) * by_id)
        told_apart |= not np.array_equal(by_id, by_group)
    assert told_apart
