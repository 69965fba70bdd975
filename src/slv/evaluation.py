"""PASCAL-style detection evaluation: greedy matching at strict IoU > 0.5,
per-class average precision, mAP, and CorLoc."""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .geometry import Box, iou

ALL_POINTS = "all_points"
ELEVEN_POINT = "eleven_point"


@dataclass(frozen=True)
class Detection:
    image_id: str
    class_id: int
    box: Box
    score: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.score):
            raise InputError(f"Detection score must be finite, got {self.score}")


@dataclass(frozen=True)
class GroundTruthSet:
    """Ground-truth boxes indexed by image id, then class id."""

    boxes: dict[str, dict[int, list[Box]]] = field(default_factory=dict)

    def boxes_for(self, image_id: str, class_id: int) -> list[Box]:
        return self.boxes.get(image_id, {}).get(class_id, [])

    def class_ids(self) -> list[int]:
        return sorted({c for per_image in self.boxes.values() for c in per_image})

    def images_with_class(self, class_id: int) -> list[str]:
        return sorted(img for img, per_image in self.boxes.items() if per_image.get(class_id))

    def num_gt(self, class_id: int) -> int:
        return sum(len(per_image.get(class_id, [])) for per_image in self.boxes.values())


def match_detections(
    dets: Sequence[Detection], gt: GroundTruthSet, iou_threshold: float = 0.5
) -> list[bool]:
    """Greedy TP/FP flags, aligned with the input detections.

    Detections are visited in descending score order (ties by input
    order); each claims its best-overlapping unmatched ground-truth box of
    the same image and class when the overlap strictly exceeds the
    threshold. Later detections on an already claimed box are FP.
    """
    flags = [False] * len(dets)
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    claimed: set[tuple[str, int, int]] = set()
    for i in order:
        det = dets[i]
        candidates = gt.boxes_for(det.image_id, det.class_id)
        best_iou, best_m = 0.0, -1
        for m, g in enumerate(candidates):
            if (det.image_id, det.class_id, m) in claimed:
                continue
            overlap = iou(det.box, g)
            if overlap > best_iou:
                best_iou, best_m = overlap, m
        if best_m >= 0 and best_iou > iou_threshold:
            flags[i] = True
            claimed.add((det.image_id, det.class_id, best_m))
    return flags


def average_precision(
    flags: Sequence[bool],
    scores: Sequence[float],
    n_gt: int,
    interpolation: str = ALL_POINTS,
) -> float:
    """Average precision from ranked TP/FP flags.

    all_points integrates the precision envelope over recall; eleven_point
    averages the envelope at recalls 0.0, 0.1, ..., 1.0. Scores only
    establish the ranking (ties by input order).
    """
    if len(flags) != len(scores):
        raise InputError(f"average_precision: {len(flags)} flags but {len(scores)} scores")
    if n_gt < 0:
        raise InputError(f"average_precision: n_gt must be >= 0, got {n_gt}")
    if interpolation not in (ALL_POINTS, ELEVEN_POINT):
        raise InputError(f"average_precision: unknown interpolation {interpolation!r}")
    if n_gt == 0 or not flags:
        return 0.0
    order = sorted(range(len(flags)), key=lambda i: (-scores[i], i))
    tp = np.cumsum([1.0 if flags[i] else 0.0 for i in order])
    fp = np.cumsum([0.0 if flags[i] else 1.0 for i in order])
    recall = tp / n_gt
    precision = tp / (tp + fp)
    if interpolation == ELEVEN_POINT:
        total = 0.0
        for r in np.linspace(0.0, 1.0, 11):
            mask = recall >= r - 1e-12
            total += precision[mask].max() if mask.any() else 0.0
        return float(total / 11.0)
    # Precision envelope: best precision achievable at recall >= r.
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev_recall = np.concatenate(([0.0], recall[:-1]))
    return float(np.sum((recall - prev_recall) * envelope))


def mean_ap(per_class_ap: Mapping[int, float]) -> float:
    """Arithmetic mean of per-class average precisions."""
    if not per_class_ap:
        raise InputError("mean_ap: no classes to average")
    return float(sum(per_class_ap.values()) / len(per_class_ap))


def top_detections(dets: Iterable[Detection]) -> dict[tuple[str, int], Detection]:
    """Highest-scored detection per (image, class); ties keep the earlier one."""
    best: dict[tuple[str, int], Detection] = {}
    for det in dets:
        key = (det.image_id, det.class_id)
        if key not in best or det.score > best[key].score:
            best[key] = det
    return best


def corloc(
    top_dets: Mapping[tuple[str, int], Detection],
    gt: GroundTruthSet,
    iou_threshold: float = 0.5,
) -> dict[int, float]:
    """Per-class fraction of class-positive images whose top detection
    strictly overlaps some ground-truth box of that class.

    Classes absent from every image are excluded from the result.
    """
    result: dict[int, float] = {}
    for c in gt.class_ids():
        images = gt.images_with_class(c)
        if not images:
            continue
        correct = 0
        for img in images:
            det = top_dets.get((img, c))
            if det is None:
                continue
            if any(iou(det.box, g) > iou_threshold for g in gt.boxes_for(img, c)):
                correct += 1
        result[c] = correct / len(images)
    return result


@dataclass(frozen=True)
class EvalResult:
    ap: dict[int, float]
    corloc: dict[int, float]
    mean_ap: float


def evaluate_detections(
    dets: Sequence[Detection],
    gt: GroundTruthSet,
    iou_threshold: float = 0.5,
    interpolation: str = ALL_POINTS,
) -> EvalResult:
    """Full evaluation over every class present in the ground truth or the
    detections. Classes with detections but no ground truth score AP 0."""
    if not 0.0 <= iou_threshold < 1.0:  # NaN fails too
        raise InputError(f"evaluate_detections: iou_threshold must be in [0, 1), got {iou_threshold}")
    classes = sorted(set(gt.class_ids()) | {d.class_id for d in dets})
    if not classes:
        raise InputError("evaluate_detections: nothing to evaluate")
    flags = match_detections(dets, gt, iou_threshold)
    ap: dict[int, float] = {}
    for c in classes:
        idx = [i for i, d in enumerate(dets) if d.class_id == c]
        ap[c] = average_precision(
            [flags[i] for i in idx],
            [dets[i].score for i in idx],
            gt.num_gt(c),
            interpolation,
        )
    loc = corloc(top_detections(dets), gt, iou_threshold)
    return EvalResult(ap=ap, corloc=loc, mean_ap=mean_ap(ap))


def format_report(result: EvalResult) -> str:
    """Fixed text layout: one `class <id> ap <v> corloc <v|->` line per
    class (ascending id), then a trailing `mAP <v>` line. Values use six
    decimals; a dash marks classes with no positive image."""
    lines = []
    for c in sorted(result.ap):
        loc = f"{result.corloc[c]:.6f}" if c in result.corloc else "-"
        lines.append(f"class {c} ap {result.ap[c]:.6f} corloc {loc}")
    lines.append(f"mAP {result.mean_ap:.6f}")
    return "\n".join(lines) + "\n"
