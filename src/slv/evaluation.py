"""PASCAL-style detection evaluation: greedy matching at strict IoU > 0.5,
per-class average precision, mAP, and CorLoc."""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geometry import iou_matrix

ALL_POINTS = "all_points"
ELEVEN_POINT = "eleven_point"


@dataclass(frozen=True, eq=False)
class Detections:
    """Detections as columns: row k is a box `boxes[k]` of class `classes[k]`
    on image `image_ids[k]`, scored `scores[k]`."""

    image_ids: list[str]
    classes: np.ndarray  # (D,) int64
    boxes: np.ndarray  # (D, 4) int64
    scores: np.ndarray  # (D,) float64

    def __post_init__(self) -> None:
        rows = len(self.image_ids)
        if np.shape(self.classes) != (rows,) or np.shape(self.scores) != (rows,) or np.shape(self.boxes) != (rows, 4):
            raise InputError(
                f"Detections: {rows} image ids need {rows} classes, {rows} scores and a ({rows}, 4) box array,"
                f" got shapes {np.shape(self.classes)}, {np.shape(self.scores)} and {np.shape(self.boxes)}"
            )
        # Booleans are no class ids or corners: the detection file format rejects them.
        if not all(np.issubdtype(np.asarray(column).dtype, np.integer) for column in (self.classes, self.boxes)):
            raise InputError("Detections: classes and boxes must be integer arrays")
        if not np.isfinite(self.scores).all():  # argsort and sorted() place NaN differently
            raise InputError("Detections: scores must be finite")

    def __len__(self) -> int:
        return len(self.image_ids)


# Ground-truth boxes by image id, then class id: (G, 4) int64 arrays.
GroundTruth = Mapping[str, Mapping[int, np.ndarray]]


def _ranked_groups(dets: Detections) -> dict[tuple[str, int], list[int]]:
    """Row indices of each (image, class) group of detections, in
    descending score order with ties by row."""
    groups: dict[tuple[str, int], list[int]] = {}
    classes = dets.classes.tolist()
    for i in np.argsort(-dets.scores, kind="stable").tolist():
        groups.setdefault((dets.image_ids[i], classes[i]), []).append(i)
    return groups


def match_detections(dets: Detections, gt: GroundTruth, iou_threshold: float = 0.5) -> list[bool]:
    """Greedy TP/FP flags, aligned with the input detections.

    Detections are visited in descending score order (ties by input
    order); each claims its best-overlapping unmatched ground-truth box of
    the same image and class (the first of equal overlaps) when the overlap
    strictly exceeds the threshold. Later detections on an already claimed
    box are FP. Detection boxes are compared as float64, so a huge box
    cannot overflow its area. Every group's overlaps come from one
    `iou_matrix` call on (group, row) stacks padded to the largest group:
    detection rows with the group's first row, truths with a unit box.
    """
    flags = [False] * len(dets)
    matched = [(rows, gt[image][c]) for (image, c), rows in _ranked_groups(dets).items() if c in gt.get(image, {})]
    if not matched:
        return flags
    width = max(len(rows) for rows, _ in matched)
    padded_rows = np.array([rows + rows[:1] * (width - len(rows)) for rows, _ in matched])
    truths = np.tile(np.array([0, 0, 1, 1], dtype=np.int64), (len(matched), max(len(t) for _, t in matched), 1))
    for stack, (_, truth) in zip(truths, matched):
        stack[: len(truth)] = truth
    ious = iou_matrix(dets.boxes.astype(np.float64)[padded_rows], truths).tolist()
    for (rows, truth), group_ious in zip(matched, ious):
        claimed = [False] * len(truth)
        for i, overlaps in zip(rows, group_ious):
            best_iou, best_m = 0.0, -1
            for m, overlap in enumerate(overlaps[: len(truth)]):
                if overlap > best_iou and not claimed[m]:
                    best_iou, best_m = overlap, m
            if best_m >= 0 and best_iou > iou_threshold:
                flags[i] = claimed[best_m] = True
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


def corloc(dets: Detections, gt: GroundTruth, flags: Sequence[bool]) -> dict[int, float]:
    """Per-class fraction of class-positive images whose top detection of
    that class is a true positive in `match_detections` flags.

    The top detection of an image and class is the first that matching
    visits there, when every ground-truth box is still unclaimed, so it is
    a true positive exactly when its IoU with some ground-truth box of that
    class exceeds the threshold. Classes absent from every image are
    excluded from the result.
    """
    if len(flags) != len(dets):
        raise InputError(f"corloc: {len(flags)} flags but {len(dets)} detections")
    top = {key: rows[0] for key, rows in _ranked_groups(dets).items()}
    hits: dict[int, list[bool]] = {}
    for image_id, per_image in gt.items():
        for c, truth in per_image.items():
            if len(truth):
                i = top.get((image_id, c))
                hits.setdefault(c, []).append(i is not None and flags[i])
    return {c: sum(h) / len(h) for c, h in sorted(hits.items())}


@dataclass(frozen=True)
class EvalResult:
    ap: dict[int, float]
    corloc: dict[int, float]
    mean_ap: float


def evaluate_detections(
    dets: Detections,
    gt: GroundTruth,
    iou_threshold: float = 0.5,
    interpolation: str = ALL_POINTS,
) -> EvalResult:
    """Full evaluation over every class present in the ground truth or the
    detections. Classes with detections but no ground truth score AP 0."""
    if not 0.0 <= iou_threshold < 1.0:  # NaN fails too
        raise InputError(f"evaluate_detections: iou_threshold must be in [0, 1), got {iou_threshold}")
    classes = sorted({c for per_image in gt.values() for c in per_image} | set(dets.classes.tolist()))
    if not classes:
        raise InputError("evaluate_detections: nothing to evaluate")
    flags = match_detections(dets, gt, iou_threshold)
    scores = dets.scores.tolist()
    ap: dict[int, float] = {}
    for c in classes:
        idx = np.flatnonzero(dets.classes == c).tolist()
        n_gt = sum(len(per_image.get(c, ())) for per_image in gt.values())
        ap[c] = average_precision([flags[i] for i in idx], [scores[i] for i in idx], n_gt, interpolation)
    return EvalResult(ap=ap, corloc=corloc(dets, gt, flags), mean_ap=mean_ap(ap))


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
