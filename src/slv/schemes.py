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
from .mil import build_clusters, positive_classes
from .trainer import ToyScorer, missing_scores, vote_scores
from .voting import Supervision, VoteBatch, VoteConfig, generate_supervision

SCHEME_CONVENTIONAL = "conventional"
SCHEME_CLUSTERING = "clustering"
SCHEME_SLV = "slv"
ALL_SCHEMES = (SCHEME_CLUSTERING, SCHEME_CONVENTIONAL, SCHEME_SLV)  # report order
_LABELED = (SCHEME_CONVENTIONAL, SCHEME_CLUSTERING, SCHEME_SLV)  # labeling order


def label_conventional(scores: np.ndarray, boxes: np.ndarray, classes: list[int]) -> Supervision:
    """One box per positive class in `classes`: the single highest-scoring proposal."""
    classes = np.array(classes, dtype=np.int64)
    if not len(boxes):  # a record without proposals labels nothing
        return Supervision()
    return Supervision(boxes[scores[classes].argmax(axis=1)], classes)


def label_clustering(scores: np.ndarray, boxes: np.ndarray, y: np.ndarray) -> Supervision:
    """Highest-scoring proposal of every foreground cluster; the clusters
    come by class, then in seeding order."""
    clusters = build_clusters(scores, boxes, y).clusters
    best = [min(c.members, key=lambda r: (-scores[c.label, r], r)) for c in clusters]
    return Supervision(boxes[best], np.array([c.label for c in clusters], dtype=np.int64))


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

    Every scheme labels a record from its `trainer.vote_scores` matrix.
    Every labeled box is matched against the ground-truth boxes of its
    class in its image; the statistic is the mean of those best IoUs, per
    class and overall. Requires ground truth and scores on every record;
    an error names the first record in id order that fails.
    """
    vote_config = vote_config or VoteConfig()
    records = dataset.in_id_order()
    matrices, errors = vote_scores(records, scorer)
    labeled: list[tuple[Supervision, Supervision]] = []
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
            labeled.append((
                label_conventional(scores, record.proposals, positive),
                label_clustering(scores, record.proposals, record.labels),
            ))
            batch.add(scores, record.proposals, positive, record.height, record.width)
        except InputError as exc:
            raise InputError(f"record {record.image_id!r}: {exc}") from None
    # Every labeled box, record by record in _LABELED order, against its
    # record's ground truth padded with unit boxes of class -1 to the widest
    # record, in one IoU matrix: each box's best IoU with the ground truth of
    # its own class, -1 when its class has none.
    sups = [s for pair, voted in zip(labeled, batch.supervisions()) for s in (*pair, voted)]
    sizes = [len(s.classes) for s in sups]
    owner = np.repeat(np.arange(len(sups)) // len(_LABELED), sizes)
    gt, gt_classes = _ground_truth_stacks(records)
    boxes = np.concatenate([np.zeros((0, 4), np.int64)] + [s.boxes for s in sups])
    classes = np.concatenate([np.zeros(0, np.int64)] + [s.classes for s in sups])
    overlaps = iou_matrix(boxes[:, None], gt[owner])[:, 0]
    best = np.where(classes[:, None] == gt_classes[owner], overlaps, -1.0).max(axis=1, initial=-1.0)
    ious: dict[str, dict[int, list[float]]] = {name: {} for name in ALL_SCHEMES}
    names = np.repeat(_LABELED * len(labeled), sizes).tolist()
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
