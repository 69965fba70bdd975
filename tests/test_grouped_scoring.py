"""Inference, `vote --scorer` and `compare-schemes --scorer` run the scorer
once per group of records with one feature shape. These tests hold the
grouped results to one-record calls bit for bit, on records of several
proposal counts and image sizes interleaved in image-id order, and check
that an error still names the first failing record in that order."""

import dataclasses

import numpy as np
import pytest

from slv.datasets import Dataset
from slv.errors import InputError
from slv.synthetic import SyntheticSceneConfig, generate_synthetic
from slv.trainer import ToyScorer, _score_groups, fused_scores, run_inference, vote_dataset
from slv.voting import VoteConfig


def mixed_dataset() -> Dataset:
    """Two records each of five (proposal count, image size) shapes; the
    groups of equal proposal count hold images of two or three sizes."""
    records = []
    for proposals, size, seed in ((8, 32, 1), (12, 48, 2), (8, 64, 3), (12, 32, 4), (5, 40, 5)):
        config = SyntheticSceneConfig(
            num_images=2, image_size=size, num_classes=2, objects_per_image=1, proposals_per_image=proposals
        )
        records += [
            dataclasses.replace(r, image_id=f"img{k}-{proposals}-{size}")
            for k, r in enumerate(generate_synthetic(config, seed).records)
        ]
    return Dataset(records, num_classes=2)


def scaled_scorer(dataset: Dataset, scale: float) -> ToyScorer:
    scorer = ToyScorer.initialize(dataset.num_classes, dataset.records[0].features.shape[1], np.random.default_rng(7))
    for w in scorer.heads():
        w *= scale
    return scorer


@pytest.mark.parametrize("scale", [1.0, 30.0])
def test_grouped_inference_equals_one_record_calls(scale):
    dataset = mixed_dataset()
    records = dataset.in_id_order()
    scorer = scaled_scorer(dataset, scale)
    # The stacked heads give each record the bits of its own (N, D) call.
    for n in {len(r.proposals) for r in records}:
        members = [r for r in records if len(r.proposals) == n]
        stacked = fused_scores(scorer, np.stack([r.features for r in members]))
        for k, record in enumerate(members):
            for got, want in zip(stacked, fused_scores(scorer, record.features)):
                assert np.array_equal(got[k], want)
    got = run_inference(scorer, dataset, 0.3, 1e-3)
    parts = [run_inference(scorer, Dataset([record], dataset.num_classes), 0.3, 1e-3) for record in records]
    assert got.image_ids == [image_id for part in parts for image_id in part.image_ids]
    for column in ("classes", "boxes", "scores"):
        assert np.array_equal(getattr(got, column), np.concatenate([getattr(part, column) for part in parts]))
    if scale == 30.0:  # boxes clipped at their own image's far edge, in images of several sizes
        size = {r.image_id: (r.width, r.height) for r in records}
        edge = {size[i] for i, box in zip(got.image_ids, got.boxes.tolist()) if box[2] == size[i][0] or box[3] == size[i][1]}
        assert len(edge) >= 2


@pytest.mark.parametrize("scale", [1.0, 300.0])
def test_grouped_vote_scores_equal_one_record_calls(monkeypatch, scale):
    dataset = mixed_dataset()
    records = dataset.in_id_order()
    scorer = scaled_scorer(dataset, scale)
    shapes = {record.features.shape for record in records}
    one_record = ToyScorer.refined_average
    calls = []
    with monkeypatch.context() as patch:  # every record comes from its group's call
        patch.setattr(ToyScorer, "refined_average", lambda self, feats: calls.append(feats.shape) or one_record(self, feats))
        groups, errors = _score_groups(records, scorer, ToyScorer.refined_average)
        assert errors == {} and len(groups) == len(calls) == len(shapes)
        voted, skipped = vote_dataset(dataset, VoteConfig(), scorer=scorer)
        assert len(calls) == 2 * len(shapes)
    assert sorted(i for members, _ in groups for i in members) == list(range(len(records)))
    for members, stack in groups:
        for i, matrix in zip(members, stack):
            assert np.array_equal(matrix, one_record(scorer, records[i].features))
    assert skipped == []
    for (image_id, sup), record in zip(voted, records):
        (want,), _ = vote_dataset(Dataset([record], dataset.num_classes), VoteConfig(), scorer=scorer)
        assert image_id == want[0] and np.array_equal(sup.boxes, want[1].boxes) and np.array_equal(sup.classes, want[1].classes)


def overflowing(record):
    """The record with a first feature row that overflows a scorer scaled by 1e4."""
    features = record.features.copy()
    features[0] = 1e308
    return dataclasses.replace(record, features=features)


def damaged_dataset(damage: dict) -> Dataset:
    """Records 'a' (8 proposals), 'b' (12) and 'c' (8), with `damage` applied by id."""
    records = []
    for image_id, (proposals, seed) in zip("abc", ((8, 1), (12, 2), (8, 3))):
        config = SyntheticSceneConfig(num_images=1, image_size=32, num_classes=2, objects_per_image=1, proposals_per_image=proposals)
        record = dataclasses.replace(generate_synthetic(config, seed).records[0], image_id=image_id)
        records.append(damage.get(image_id, lambda r: r)(record))
    return Dataset(records, num_classes=2)


def featureless(record):
    return dataclasses.replace(record, features=None)


@pytest.mark.parametrize(
    "damage, message",
    [
        ({"b": overflowing, "c": overflowing}, "run_inference: record 'b': scorer weights give non-finite outputs"),
        ({"b": featureless, "c": overflowing}, "run_inference: record 'b' has no features"),
        ({"b": overflowing, "c": featureless}, "run_inference: record 'b': scorer weights give non-finite outputs"),
        ({"c": overflowing}, "run_inference: record 'c': scorer weights give non-finite outputs"),
    ],
)
def test_inference_error_names_the_first_failing_record(damage, message):
    """'a' and 'c' share a group, which the run scores first."""
    dataset = damaged_dataset(damage)
    with pytest.raises(InputError) as info:
        run_inference(scaled_scorer(dataset, 1e4), dataset)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "damage, message",
    [
        ({"b": overflowing, "c": overflowing}, "record 'b': scorer weights give non-finite outputs"),
        ({"c": overflowing}, "record 'c': scorer weights give non-finite outputs"),
    ],
)
def test_vote_error_names_the_first_failing_record(damage, message):
    dataset = damaged_dataset(damage)
    with pytest.raises(InputError) as info:
        vote_dataset(dataset, VoteConfig(), scorer=scaled_scorer(dataset, 1e4))
    assert str(info.value) == message


def test_only_a_group_whose_call_raises_is_scored_again():
    """'a' and 'c' share a group and 'c' overflows: 'a' is scored again on
    its own, with the bits of a one-record call, and 'b' keeps its group's."""
    dataset = damaged_dataset({"c": overflowing})
    records = dataset.in_id_order()
    scorer = scaled_scorer(dataset, 1e4)
    calls = []
    head = lambda s, feats: calls.append(len(feats)) or ToyScorer.refined_average(s, feats)
    groups, errors = _score_groups(records, scorer, head)
    assert calls == [2, 1, 1, 1]
    assert {i: str(exc) for i, exc in errors.items()} == {2: "record 'c': scorer weights give non-finite outputs"}
    assert [members for members, _ in groups] == [[0], [1]]
    for members, stack in groups:
        assert np.array_equal(stack[0], scorer.refined_average(records[members[0]].features))


@pytest.mark.parametrize(
    "classes, width, message",
    [
        (2, 8, "run_inference: record 'synth-0000' has 7 features per proposal, the scorer expects 8"),
        (3, 7, "run_inference: record 'synth-0000' has 2 classes, the scorer has 3"),
    ],
)
def test_inference_rejects_a_scorer_that_does_not_fit(classes, width, message):
    """A 2-class dataset has 7 features per proposal: a wider scorer or one
    of another class count (which could score classes the dataset lacks)
    is rejected, naming the first record."""
    dataset = generate_synthetic(SyntheticSceneConfig(num_images=2, num_classes=2), 0)
    scorer = ToyScorer.initialize(classes, width, np.random.default_rng(0))
    with pytest.raises(InputError) as info:
        run_inference(scorer, dataset)
    assert str(info.value) == message
