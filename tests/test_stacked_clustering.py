"""Clustering a stack of records in one call: `build_clusters` on an
(R, C', N) stack must give every record, in its part of the batch, the
clusters, background and weights of its own call and of
`greedy_clusters`, and `label_clustering` each record the labels of its
own call. `compare_schemes` clusters the records that share a shape in
such calls, at most `schemes.CLUSTER_CELLS` proposals each; its report
must not depend on that budget, it must build no `Cluster` tuple, and the
benchmark tracer must still count every record's clustering work at
`mil.build_clusters`."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slv.cli
import slv.mil
import slv.schemes
from slv.datasets import Dataset, DatasetRecord, save_dataset
from slv.errors import InputError
from slv.geometry import Box, boxes_to_array
from slv.mil import build_clusters
from slv.schemes import compare_schemes, label_clustering
from slv.synthetic import SyntheticSceneConfig, generate_synthetic
from slv.trainer import ToyScorer
from slv.voting import Supervision, VoteConfig

from helpers import TIE_BOXES, greedy_clusters, greedy_labels, record_sets, scalar_compare_schemes
from test_batched_refinement import BELOW_FLOOR, SCORES, assert_same_clusters, small_boxes
from test_tracer_layers import load_tracer


def assert_same_labels(got: Supervision, want: Supervision):
    assert np.array_equal(got.boxes, want.boxes) and got.boxes.dtype == want.boxes.dtype
    assert np.array_equal(got.classes, want.classes) and got.classes.dtype == want.classes.dtype


@st.composite
def record_stacks(draw):
    """An (R, C', N) stack of tying scores, C' = C or C + 1 and N from 0 to
    30, about a quarter of the records below the centre floor; (R, N, 4)
    boxes from a small tie-heavy pool; (R, C) 0/1 labels, each record with a
    positive class."""
    num_classes, records, num = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(0, 30))
    rows = num_classes + draw(st.integers(0, 1))
    pool = draw(st.lists(st.one_of(st.sampled_from(TIE_BOXES), small_boxes), min_size=1, max_size=4))
    boxes = np.stack([
        boxes_to_array(draw(st.lists(st.sampled_from(pool), min_size=num, max_size=num))) for _ in range(records)
    ])
    line = st.lists(st.integers(0, 1), min_size=num_classes, max_size=num_classes).filter(any)
    labels = np.array([draw(line) for _ in range(records)])
    scores = []
    for _ in range(records):
        values = st.sampled_from(BELOW_FLOOR if draw(st.booleans()) and draw(st.booleans()) else SCORES)
        scores.append(draw(st.lists(values, min_size=rows * num, max_size=rows * num)))
    return np.array(scores, dtype=np.float64).reshape(records, rows, num), boxes, labels


@given(record_stacks())
@settings(max_examples=300, deadline=None)
def test_a_stack_clusters_and_labels_each_record_as_its_own_call(inputs):
    scores, boxes, labels = inputs
    num = boxes.shape[1]
    found = build_clusters(scores, boxes, labels)
    assert found.num_proposals == len(boxes) * num
    parts = record_sets(found, len(boxes), num)
    assert sum(len(p.clusters) for p in parts) == len(found.clusters)  # each cluster lies in one record
    assert sum(len(p.background) for p in parts) == len(found.background)
    sups = label_clustering(scores, boxes, labels)
    assert len(sups) == len(boxes)
    for r, (part, sup) in enumerate(zip(parts, sups)):
        own = build_clusters(scores[r], boxes[r], labels[r])
        # Record r's clusters, taken in batch order, are those of its own call.
        assert tuple(c for c, k in zip(found.clusters, found.record.tolist()) if k == r) == own.clusters
        assert_same_clusters(part, own)
        assert_same_clusters(own, greedy_clusters(scores[r], [Box(*b) for b in boxes[r].tolist()], labels[r]))
        assert_same_labels(sup, label_clustering(scores[r], boxes[r], labels[r]))
        assert_same_labels(sup, greedy_labels(scores[r], boxes[r], labels[r]))


def test_the_best_member_is_the_lowest_index_among_equal_scores():
    """Every cluster ties: its members score alike, so the pick is its
    lowest index, in every record of the stack."""
    boxes = boxes_to_array([Box(0, 0, 10, 2), Box(0, 0, 10, 1), Box(5, 0, 10, 1), Box(0, 0, 5, 1)])
    scores = np.full((2, 1, 4), 0.5)
    sups = label_clustering(scores, np.stack([boxes, boxes[::-1]]), np.array([[1], [1]]))
    assert [s.boxes.tolist() for s in sups] == [
        [[0, 0, 10, 2], [5, 0, 10, 1], [0, 0, 5, 1]],
        [[0, 0, 5, 1], [5, 0, 10, 1], [0, 0, 10, 2]],
    ]


@st.composite
def grouped_datasets(draw):
    """Records of a 12x12 image, one to three classes, whose proposal
    counts come from one to three values in [0, 30], so that several
    records share a group; boxes from a small tie-heavy pool."""
    num_classes = draw(st.integers(1, 3))
    counts = draw(st.lists(st.integers(0, 30), min_size=1, max_size=3, unique=True))
    pool = draw(st.lists(st.one_of(st.sampled_from(TIE_BOXES), small_boxes), min_size=1, max_size=4))
    records = []
    for k in range(draw(st.integers(1, 6))):
        num = draw(st.sampled_from(counts))
        labels = draw(st.lists(st.integers(0, 1), min_size=num_classes, max_size=num_classes).filter(any))
        values = st.sampled_from(BELOW_FLOOR if draw(st.booleans()) and draw(st.booleans()) else SCORES)
        scores = draw(st.lists(values, min_size=num_classes * num, max_size=num_classes * num))
        gt = draw(st.dictionaries(st.integers(0, num_classes - 1), st.lists(st.sampled_from(pool), min_size=1, max_size=2), min_size=1))
        records.append(DatasetRecord(
            image_id=f"r{k}", height=12, width=12, labels=np.array(labels),
            proposals=boxes_to_array(draw(st.lists(st.sampled_from(pool), min_size=num, max_size=num))),
            scores=np.array(scores, dtype=np.float64).reshape(num_classes, num),
            gt_boxes={c: boxes_to_array(bs) for c, bs in gt.items()},
        ))
    return Dataset(records=draw(st.permutations(records)), num_classes=num_classes)


@given(grouped_datasets(), st.sampled_from([1, 7, 40, slv.schemes.CLUSTER_CELLS]))
@settings(max_examples=150, deadline=None)
def test_compare_schemes_does_not_depend_on_the_cell_budget(dataset, budget):
    """A budget of 1 clusters each record alone; 7 and 40 cut the groups
    into chunks of several records, and the default takes each group whole."""
    with mock.patch.object(slv.schemes, "CLUSTER_CELLS", budget):
        got = compare_schemes(dataset, VoteConfig())
    assert got == scalar_compare_schemes(dataset, VoteConfig())


def mixed_dataset() -> Dataset:
    """Seven synthetic records: four of 20 proposals and three of 24."""
    parts = [
        generate_synthetic(SyntheticSceneConfig(num_images=n, image_size=48, proposals_per_image=p), seed=s)
        for n, p, s in ((4, 20, 3), (3, 24, 4))
    ]
    records = [r for part in parts for r in part.records]
    # The two counts interleave in id order.
    records = [dataclasses.replace(r, image_id=f"img-{(5 * k) % 7}") for k, r in enumerate(records)]
    return Dataset(records=records, num_classes=parts[0].num_classes, feature_dim=parts[0].feature_dim)


def test_compare_schemes_builds_no_cluster_tuples():
    """An untraced compare-schemes stage reads the clustering arrays
    only: on records of two proposal counts, with the embedded scores and
    with a scorer's, it never constructs a `Cluster`."""
    dataset = mixed_dataset()
    scorer = ToyScorer.initialize(dataset.num_classes, dataset.feature_dim, np.random.default_rng(0))
    with mock.patch.object(slv.mil, "Cluster", side_effect=AssertionError("a Cluster was built")):
        for given_scorer in (None, scorer):
            assert compare_schemes(dataset, VoteConfig(), given_scorer)


@pytest.mark.parametrize("budget, calls", [(None, 2), (48, 4), (1, 7)])
def test_the_tracer_counts_every_records_clusters(tmp_path, budget, calls):
    """A traced compare-schemes stage reads the clusters, members and
    proposals of the per-record `build_clusters` calls, summed, and one
    call per group: two groups whole, four chunks of at most 48 proposals
    (two records each, and the last record of 24 alone), or one record a
    call."""
    dataset = mixed_dataset()
    save_dataset(dataset, tmp_path / "dataset.jsonl")
    sets = [build_clusters(r.scores, r.proposals, r.labels) for r in dataset.records]
    tracer = load_tracer()
    t = tracer.Tracer()
    with mock.patch.object(slv.schemes, "CLUSTER_CELLS", budget or slv.schemes.CLUSTER_CELLS):
        try:
            t.install()
            argv = ["--out", str(tmp_path / "cmp"), "compare-schemes", str(tmp_path / "dataset.jsonl")]
            assert slv.cli.main(argv) == 0
        finally:
            t.restore()
    m = t.metrics()
    assert m["mil.build_clusters.clusters"] == sum(len(s.clusters) for s in sets) > 0
    assert m["mil.build_clusters.assigned"] == sum(c.size for s in sets for c in s.clusters) > 0
    assert m["mil.build_clusters.proposals"] == sum(s.num_proposals for s in sets) == 4 * 20 + 3 * 24
    assert m["mil.build_clusters.calls"] == m["schemes.label_clustering.calls"] == calls
    assert tracer.leftover_wrappers() == []


def _clusters_ok(scores, boxes, y) -> bool:
    try:
        build_clusters(scores, boxes, y)
    except InputError:
        return False
    return True


@pytest.mark.parametrize("rows, labels, num_boxes", [
    (2, [[1, 0], [0, 0], [2, 1]], 3),  # record 1 has no positive class
    (2, [[1, 0], [1, 2], [0, 0]], 3),  # record 1's label is not 0/1
    (1, [[1, 0], [0, 1], [1, 1]], 3),  # records 1 and 2 have no row for class 1
    (2, [[1, 0], [0, 1], [1, 1]], 4),  # every record has 3 score columns for 4 boxes
])
def test_a_stack_raises_the_error_of_its_first_failing_record(rows, labels, num_boxes):
    scores, labels = np.full((3, rows, 3), 0.5), np.array(labels)
    boxes = np.tile(boxes_to_array([Box(0, 0, 2, 2)]), (3, num_boxes, 1))
    first = next(r for r in range(3) if not _clusters_ok(scores[r], boxes[r], labels[r]))
    with pytest.raises(InputError) as want:
        build_clusters(scores[first], boxes[first], labels[first])
    with pytest.raises(InputError) as got:
        build_clusters(scores, boxes, labels)
    assert str(got.value) == str(want.value)


def test_a_stack_of_unequal_lengths_is_refused():
    with pytest.raises(InputError, match="2 score matrices, 1 box arrays, 1 labels"):
        build_clusters(np.full((2, 1, 3), 0.5), np.zeros((1, 3, 4), dtype=np.int64), np.array([[1]]))
