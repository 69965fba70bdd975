"""Side-by-side comparison of pseudo-labeling schemes on data with ground
truth: top-scoring proposal per class, top proposal of every cluster, and
spatial likelihood voting."""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset, DatasetRecord
from .errors import InputError
from .geometry import Box, iou
from .mil import build_clusters, positive_classes
from .voting import VoteBatch, VoteConfig, generate_supervision

SCHEME_CONVENTIONAL = "conventional"
SCHEME_CLUSTERING = "clustering"
SCHEME_SLV = "slv"
ALL_SCHEMES = (SCHEME_CLUSTERING, SCHEME_CONVENTIONAL, SCHEME_SLV)  # report order


def label_conventional(
    scores: np.ndarray, boxes: np.ndarray, y: np.ndarray
) -> dict[int, list[Box]]:
    """One box per positive class: the single highest-scoring proposal."""
    out: dict[int, list[Box]] = {}
    for c in positive_classes(y):
        r = int(np.argmax(scores[c]))
        out[c] = [Box(*boxes[r].tolist())]
    return out


def label_clustering(
    scores: np.ndarray,
    boxes: np.ndarray,
    y: np.ndarray,
) -> dict[int, list[Box]]:
    """Highest-scoring proposal of every foreground cluster, per class."""
    clusters = build_clusters(scores, boxes, y)
    out: dict[int, list[Box]] = {}
    for cluster in clusters.clusters:
        members = list(cluster.members)
        best = min(members, key=lambda r: (-scores[cluster.label, r], r))
        out.setdefault(cluster.label, []).append(Box(*boxes[best].tolist()))
    return out


def label_slv(
    scores: np.ndarray,
    record: DatasetRecord,
    config: VoteConfig,
) -> dict[int, list[Box]]:
    sup = generate_supervision(
        scores, record.proposals, record.labels, record.height, record.width, config
    )
    return {c: list(bs) for c, bs in sup.boxes_by_class.items()}


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
    labeled: list[dict[str, dict[int, list[Box]]]] = []
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
        by_scheme[SCHEME_SLV] = sup.boxes_by_class
        for name, by_class in by_scheme.items():
            for c, labeled_boxes in by_class.items():
                gt = record.gt_boxes.get(c, [])
                if not gt:
                    continue
                bucket = ious[name].setdefault(c, [])
                bucket.extend(max(iou(b, g) for g in gt) for b in labeled_boxes)
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
