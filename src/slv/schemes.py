"""Side-by-side comparison of pseudo-labeling schemes on data with ground
truth: top-scoring proposal per class, top proposal of every cluster, and
spatial likelihood voting."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset, DatasetRecord
from .errors import InputError
from .geometry import iou_matrix
from .mil import _check_clusters, build_clusters, positive_classes
from .trainer import ToyScorer, missing_scores, vote_scores
from .voting import Supervision, VoteBatch, VoteConfig, generate_supervision

SCHEME_CONVENTIONAL = "conventional"
SCHEME_CLUSTERING = "clustering"
SCHEME_SLV = "slv"
ALL_SCHEMES = (SCHEME_CLUSTERING, SCHEME_CONVENTIONAL, SCHEME_SLV)  # report order
_LABELED = (SCHEME_CONVENTIONAL, SCHEME_CLUSTERING, SCHEME_SLV)  # labeling order
CLUSTER_CELLS = 1 << 14  # the most proposals, over all its records, one `label_clustering` call takes


def label_conventional(scores: np.ndarray, boxes: np.ndarray, classes: list[int]) -> Supervision:
    """One box per positive class in `classes`: the single highest-scoring proposal."""
    classes = np.array(classes, dtype=np.int64)
    if not len(boxes):  # a record without proposals labels nothing
        return Supervision()
    return Supervision(boxes[scores[classes].argmax(axis=1)], classes)


def label_clustering(scores: np.ndarray, boxes: np.ndarray, y: np.ndarray) -> Supervision | list[Supervision]:
    """Highest-scoring proposal of every foreground cluster, the lowest
    index among equals; the clusters come by class, then in seeding order.

    Takes one record's `build_clusters` arguments and gives its
    Supervision, or a stack of R records' and gives one Supervision per
    record, from one `build_clusters` call. One `np.lexsort` over (member,
    -score, cluster) puts each cluster's best member first, and one stable
    sort by record puts each record's clusters together.
    """
    batch = build_clusters(scores, boxes, y)
    one = boxes.ndim == 2
    scores, boxes = (scores[None], boxes[None]) if one else (scores, boxes)
    sizes, members = batch.sizes, batch.members
    cluster = np.repeat(np.arange(len(sizes)), sizes)
    order = np.lexsort((members, -scores[batch.record[cluster], batch.label[cluster], members], cluster))
    best = members[order[np.cumsum(sizes) - sizes]]  # each cluster's first member in that order
    by_record = np.argsort(batch.record, kind="stable")
    picked, labels = boxes[batch.record, best][by_record], batch.label[by_record]
    ends = np.cumsum(np.bincount(batch.record, minlength=len(boxes))).tolist()
    sups = [Supervision(picked[a:b], labels[a:b]) for a, b in zip([0, *ends], ends)]
    return sups[0] if one else sups


def label_slv(scores: np.ndarray, record: DatasetRecord, config: VoteConfig) -> Supervision:
    return generate_supervision(
        scores, record.proposals, record.labels, record.height, record.width, config
    )


def _ground_truth_stacks(records: Sequence[DatasetRecord]) -> tuple[np.ndarray, np.ndarray]:
    """The records' ground-truth boxes as an (R, G, 4) stack and their
    classes as (R, G), G the most boxes one record has; a record's boxes
    come class by class, padded with unit boxes of class -1."""
    parts = [(i, c, b) for i, record in enumerate(records) for c, b in record.gt_boxes.items()]
    counts = [len(b) for _, _, b in parts]
    owner = np.repeat(np.array([i for i, _, _ in parts], dtype=np.int64), counts)
    sizes = np.bincount(owner, minlength=len(records))
    slot = np.arange(len(owner)) - (np.cumsum(sizes) - sizes)[owner]
    boxes = np.concatenate([np.zeros((0, 4), np.int64)] + [b for _, _, b in parts])
    gt = np.zeros((len(records), sizes.max(initial=0), 4), dtype=boxes.dtype)
    gt[..., 2:] = 1
    gt[owner, slot] = boxes
    gt_classes = np.full(gt.shape[:2], -1, dtype=np.int64)
    gt_classes[owner, slot] = np.repeat([c for _, c, _ in parts], counts)
    return gt, gt_classes


@dataclass(frozen=True)
class SchemeStats:
    """Mean IoU of labeled boxes against their best-matching ground truth."""

    scheme: str
    per_class: dict[int, float]
    per_class_count: dict[int, int]
    overall: float
    count: int


def compare_schemes(
    dataset: Dataset,
    vote_config: VoteConfig | None = None,
    scorer: ToyScorer | None = None,
) -> list[SchemeStats]:
    """Label every record under each scheme and score the labels.

    Every scheme labels a record from its `trainer.vote_scores` matrix;
    the SLV scheme queues every record on one `VoteBatch`, so all the
    stage's maps are voted in stacked passes, byte-identical to
    `label_slv`. The clustering scheme labels the records that share a
    score-row count, proposal count and label length as stacks, in
    `label_clustering` calls of at most CLUSTER_CELLS proposals each; each
    record gets the labels of its own call. Every
    labeled box is matched against the ground-truth boxes of its class in
    its image; the statistic is the mean of those best IoUs, per class and
    overall. Requires ground truth and scores on every record; an error
    names the first record in id order that fails, as each record's
    clustering, labeling and `queue` checks run when the loop reaches it.
    """
    vote_config = vote_config or VoteConfig()
    records = dataset.in_id_order()
    matrices, errors = vote_scores(records, scorer)
    conventional: list[Supervision] = []
    groups: dict[tuple, list[int]] = {}  # record indices by (score rows, proposals, labels)
    batch = VoteBatch(vote_config)
    for i, (record, scores) in enumerate(zip(records, matrices)):
        if not record.gt_boxes:
            raise InputError(f"compare_schemes: record {record.image_id!r} has no ground truth")
        if i in errors:
            raise errors[i]
        if scores is None:
            raise InputError(f"record {record.image_id!r} {missing_scores(scorer)}")
        try:
            positive = positive_classes(record.labels)
            _check_clusters(scores, record.proposals, positive)
            conventional.append(label_conventional(scores, record.proposals, positive))
            batch.queue(scores, record.proposals, positive, record.height, record.width)
        except InputError as exc:
            raise InputError(f"record {record.image_id!r}: {exc}") from None
        groups.setdefault((*scores.shape, len(record.labels)), []).append(i)
    clustering: list[Supervision | None] = [None] * len(records)
    for (_, num, _), members in groups.items():
        step = max(1, CLUSTER_CELLS // max(num, 1))
        for start in range(0, len(members), step):
            chunk = members[start : start + step]
            sups = label_clustering(
                np.stack([matrices[i] for i in chunk]),
                np.stack([records[i].proposals for i in chunk]),
                np.stack([records[i].labels for i in chunk]),
            )
            for i, sup in zip(chunk, sups):
                clustering[i] = sup
    # Every labeled box, record by record in _LABELED order, against its
    # record's ground truth padded with unit boxes of class -1 to the widest
    # record, in one IoU matrix: each box's best IoU with the ground truth of
    # its own class, -1 when its class has none.
    sups = [s for labeled in zip(conventional, clustering, batch.supervisions()) for s in labeled]
    sizes = [len(s.classes) for s in sups]
    owner = np.repeat(np.arange(len(sups)) // len(_LABELED), sizes)
    gt, gt_classes = _ground_truth_stacks(records)
    boxes = np.concatenate([np.zeros((0, 4), np.int64)] + [s.boxes for s in sups])
    classes = np.concatenate([np.zeros(0, np.int64)] + [s.classes for s in sups])
    overlaps = iou_matrix(boxes[:, None], gt[owner])[:, 0]
    best = np.where(classes[:, None] == gt_classes[owner], overlaps, -1.0).max(axis=1, initial=-1.0)
    ious: dict[str, dict[int, list[float]]] = {name: {} for name in ALL_SCHEMES}
    names = np.repeat(_LABELED * len(records), sizes).tolist()
    for name, c, value in zip(names, classes.tolist(), best.tolist()):
        if value >= 0.0:
            ious[name].setdefault(c, []).append(value)
    stats = []
    for name in ALL_SCHEMES:
        per_class = {c: float(np.mean(v)) for c, v in sorted(ious[name].items())}
        per_class_count = {c: len(v) for c, v in sorted(ious[name].items())}
        flat = [x for v in ious[name].values() for x in v]
        stats.append(
            SchemeStats(
                scheme=name,
                per_class=per_class,
                per_class_count=per_class_count,
                overall=float(np.mean(flat)) if flat else 0.0,
                count=len(flat),
            )
        )
    return stats


def format_scheme_report(stats: Sequence[SchemeStats]) -> str:
    """One `scheme <name> class <id> mean_iou <v> n <k>` line per class,
    then a `scheme <name> overall mean_iou <v> n <k>` line, per scheme."""
    lines = []
    for entry in sorted(stats, key=lambda s: s.scheme):
        for c, value in entry.per_class.items():
            lines.append(
                f"scheme {entry.scheme} class {c} mean_iou {value:.6f} n {entry.per_class_count[c]}"
            )
        lines.append(f"scheme {entry.scheme} overall mean_iou {entry.overall:.6f} n {entry.count}")
    return "\n".join(lines) + "\n"
