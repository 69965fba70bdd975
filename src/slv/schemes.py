"""Side-by-side comparison of pseudo-labeling schemes on data with ground
truth: top-scoring proposal per class, top proposal of every cluster, and
spatial likelihood voting."""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset, DatasetRecord
from .errors import InputError
from .geometry import iou_matrix
from .mil import build_clusters, positive_classes
from .voting import Supervision, VoteBatch, VoteConfig, generate_supervision

SCHEME_CONVENTIONAL = "conventional"
SCHEME_CLUSTERING = "clustering"
SCHEME_SLV = "slv"
ALL_SCHEMES = (SCHEME_CLUSTERING, SCHEME_CONVENTIONAL, SCHEME_SLV)  # report order


def label_conventional(scores: np.ndarray, boxes: np.ndarray, y: np.ndarray) -> Supervision:
    """One box per positive class: the single highest-scoring proposal."""
    classes = np.array(positive_classes(y), dtype=np.int64)
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
    score_fn: Callable[[DatasetRecord], np.ndarray],
    vote_config: VoteConfig | None = None,
) -> list[SchemeStats]:
    """Label every record under each scheme and score the labels.

    Every labeled box is matched against the ground-truth boxes of its
    class in its image; the statistic is the mean of those best IoUs, per
    class and overall. Requires ground truth on every record.
    """
    vote_config = vote_config or VoteConfig()
    ious: dict[str, dict[int, list[float]]] = {name: {} for name in ALL_SCHEMES}
    records = sorted(dataset.records, key=lambda r: r.image_id)
    labeled: list[dict[str, Supervision]] = []
    batch = VoteBatch(vote_config)
    for record in records:
        if not record.gt_boxes:
            raise InputError(f"compare_schemes: record {record.image_id!r} has no ground truth")
        scores = score_fn(record)
        try:
            labeled.append({
                SCHEME_CONVENTIONAL: label_conventional(scores, record.proposals, record.labels),
                SCHEME_CLUSTERING: label_clustering(scores, record.proposals, record.labels),
            })
            batch.add(scores, record.proposals, record.labels, record.height, record.width)
        except InputError as exc:
            raise InputError(f"record {record.image_id!r}: {exc}") from None
    for record, by_scheme, sup in zip(records, labeled, batch.supervisions()):
        by_scheme[SCHEME_SLV] = sup
        gt = np.concatenate(list(record.gt_boxes.values()))
        gt_classes = np.repeat(list(record.gt_boxes), [len(b) for b in record.gt_boxes.values()])
        # The three schemes' boxes in one IoU matrix: each box's best IoU
        # with the ground truth of its own class, -1 when its class has none.
        classes = np.concatenate([s.classes for s in by_scheme.values()])
        overlaps = iou_matrix(np.concatenate([s.boxes for s in by_scheme.values()]), gt)
        best = np.where(classes[:, None] == gt_classes, overlaps, -1.0).max(axis=1, initial=-1.0)
        names = [name for name, s in by_scheme.items() for _ in range(len(s.classes))]
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
