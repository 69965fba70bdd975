"""Shared test oracles: central finite differences, a literal per-pixel
accumulation loop, one rectangle add per box (`accumulate_naive`), a
two-cumsum difference-array kernel, a flood-fill
region labeling, scalar-IoU loops for greedy clustering, target assignment,
NMS, the scheme comparison and detection evaluation, per-proposal loops
for the losses and the box coding, a per-row proposal loader, and the
trainer's loop with every head run one record at a time. These stay
independent of the implementation paths they check. `to_pixels` expands a
vote map's cells to pixels, and `unit_map` makes a map of one-pixel
cells. `by_class` and
`supervision` convert voted supervision to and from `Box` lists by class,
`record_sets` splits a `ClusterBatch` into one `ClusterSet` per record,
`TIE_BOXES` meet at IoU exactly 0.1, 0.3 and 0.5, and `pseudo_labels`
reads a pseudo-label file back with plain JSON;
`detections`, `detection_rows` and `ground_truth` do the same for
detection columns and ground-truth arrays."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from slv.datasets import Dataset, DatasetRecord
from slv.errors import DatasetFormatError, InputError, NumericalError
from slv.evaluation import ALL_POINTS, Detections, EvalResult, average_precision, mean_ap
from slv.geometry import Box, boxes_to_array, iou, iou_matrix
from slv.mil import (
    CLUSTER_CENTER_FLOOR, CLUSTER_IOU, PROB_EPS, Cluster, ClusterBatch, ClusterSet, average_refined_scores,
    cluster_records, image_scores, refinement_losses, softmax_backward, softmax_over_classes,
    softmax_over_proposals, wsddn_scores,
)
from slv.targets import (
    BBOX_XFORM_CLIP, BG_IOU_RANGE, FG_IOU, IGNORED, ProposalTargets, assign_targets, loss_weight, slv_loss,
    smooth_l1, smooth_l1_grad, total_loss,
)
from slv.trainer import ToyScorer, TraceEntry, TrainConfig, _training_records, fused_scores
from slv.schemes import ALL_SCHEMES, SCHEME_CLUSTERING, SCHEME_CONVENTIONAL, SCHEME_SLV, SchemeStats
from slv.voting import LikelihoodMap, Supervision, VoteBatch, _check_accumulate_inputs, generate_supervision

# Pairs among these meet at IoU exactly 0.1 (1 vs 10 wide), 0.3 (3 vs 10),
# 0.5 (1 vs 2, 5 vs 10, 10x1 vs 10x2) and 1/3, 0.2, 0.25, ...
TIE_BOXES = [
    Box(0, 0, 1, 1),
    Box(0, 0, 2, 1),
    Box(0, 0, 3, 1),
    Box(0, 0, 5, 1),
    Box(0, 0, 10, 1),
    Box(0, 0, 10, 2),
    Box(5, 0, 10, 1),
    Box(1, 0, 3, 1),
]


def by_class(sup: Supervision) -> dict[int, list[Box]]:
    """A Supervision's boxes as `Box` lists by class id, in vote order."""
    out: dict[int, list[Box]] = {}
    for c, box in sup.all_boxes():
        out.setdefault(c, []).append(Box(*box))
    return out


def record_sets(batch: ClusterBatch, num_records: int, num: int) -> list[ClusterSet]:
    """Split a batch into one ClusterSet per record."""
    ends = np.cumsum(batch.sizes).tolist()
    starts = [0, *ends[:-1]]
    sets = []
    for r in range(num_records):
        clusters = tuple(
            Cluster(int(batch.label[k]), tuple(batch.members[starts[k] : ends[k]].tolist()), float(batch.score[k]))
            for k in np.flatnonzero(batch.record == r).tolist()
        )
        bg = batch.background_record == r
        sets.append(ClusterSet(clusters, tuple(batch.background[bg].tolist()), batch.background_weights[bg], num))
    return sets


def supervision(boxes_by_class: dict[int, list[Box]]) -> Supervision:
    """A Supervision of `Box` lists by class id, ordered by class."""
    pairs = [(c, b.as_tuple()) for c in sorted(boxes_by_class) for b in boxes_by_class[c]]
    return Supervision(
        np.array([b for _, b in pairs], dtype=np.int64).reshape(-1, 4),
        np.array([c for c, _ in pairs], dtype=np.int64),
    )


def pseudo_labels(path: str | Path) -> list[tuple[str, Supervision]]:
    """(image id, Supervision) pairs of a pseudo-label file, in file order."""
    header, *lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert json.loads(header) == {"schema": "slv/pseudo-labels", "version": 1}
    out = []
    for line in map(json.loads, lines):
        boxes = np.array([b["box"] for b in line["boxes"]], dtype=np.int64).reshape(-1, 4)
        out.append((line["id"], Supervision(boxes, np.array([b["class"] for b in line["boxes"]], dtype=np.int64))))
    return out


def detections(rows) -> Detections:
    """Detections from (image id, class, Box, score) rows."""
    return Detections(
        [image_id for image_id, _, _, _ in rows],
        np.array([c for _, c, _, _ in rows], dtype=np.int64),
        np.array([b.as_tuple() for _, _, b, _ in rows], dtype=np.int64).reshape(-1, 4),
        np.array([s for _, _, _, s in rows], dtype=np.float64),
    )


def detection_rows(dets: Detections) -> list[tuple[str, int, Box, float]]:
    """Detection columns as (image id, class, Box, score) rows."""
    boxes = [Box(*b) for b in dets.boxes.tolist()]
    return list(zip(dets.image_ids, dets.classes.tolist(), boxes, dets.scores.tolist()))


def ground_truth(boxes: dict[str, dict[int, list[Box]]]) -> dict[str, dict[int, np.ndarray]]:
    """Ground truth `{image: {class: [Box]}}` as `{image: {class: (G, 4) array}}`."""
    return {image_id: {c: boxes_to_array(bs) for c, bs in per_image.items()} for image_id, per_image in boxes.items()}


def scalar_match(rows, gt, iou_threshold=0.5) -> list[bool]:
    """match_detections as a loop over (image id, class, Box, score) rows and
    `{image: {class: [Box]}}` ground truth: one scalar iou() per pair and a
    set of claimed boxes."""
    flags = [False] * len(rows)
    claimed: set[tuple[str, int, int]] = set()
    for i in sorted(range(len(rows)), key=lambda i: (-rows[i][3], i)):
        image_id, c, box, _ = rows[i]
        best_iou, best_m = 0.0, -1
        for m, g in enumerate(gt.get(image_id, {}).get(c, [])):
            if (image_id, c, m) in claimed:
                continue
            overlap = iou(box, g)
            if overlap > best_iou:
                best_iou, best_m = overlap, m
        if best_m >= 0 and best_iou > iou_threshold:
            flags[i] = True
            claimed.add((image_id, c, best_m))
    return flags


def scalar_evaluate(rows, gt, iou_threshold=0.5, interpolation=ALL_POINTS) -> EvalResult:
    """evaluate_detections over `scalar_match`, with the CorLoc top
    detection of each (image, class) kept unless a later one scores higher."""
    flags = scalar_match(rows, gt, iou_threshold)
    gt_classes = sorted({c for per_image in gt.values() for c in per_image})
    ap = {}
    for c in sorted(set(gt_classes) | {row[1] for row in rows}):
        idx = [i for i, row in enumerate(rows) if row[1] == c]
        n_gt = sum(len(per_image.get(c, [])) for per_image in gt.values())
        ap[c] = average_precision([flags[i] for i in idx], [rows[i][3] for i in idx], n_gt, interpolation)
    top: dict[tuple[str, int], tuple[Box, float]] = {}
    for image_id, c, box, score in rows:
        if (image_id, c) not in top or score > top[image_id, c][1]:
            top[image_id, c] = (box, score)
    loc = {}
    for c in gt_classes:
        images = sorted(image_id for image_id, per_image in gt.items() if per_image.get(c))
        if images:
            correct = 0
            for image_id in images:
                if (image_id, c) in top and any(iou(top[image_id, c][0], g) > iou_threshold for g in gt[image_id][c]):
                    correct += 1
            loc[c] = correct / len(images)
    return EvalResult(ap=ap, corloc=loc, mean_ap=mean_ap(ap))


def finite_difference_gradient(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        plus = x.copy()
        minus = x.copy()
        plus[idx] += step
        minus[idx] -= step
        grad[idx] = (f(plus) - f(minus)) / (2.0 * step)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max absolute difference over max(1, max |numeric|)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = max(1.0, float(np.abs(numeric).max())) if numeric.size else 1.0
    return float(np.abs(analytic - numeric).max()) / denom


def per_pixel_accumulate(candidates, boxes, scores, height, width) -> np.ndarray:
    """Evaluate the accumulation sum pixel by pixel; intentionally dumb."""
    out = np.zeros((height, width))
    for i in range(height):
        for j in range(width):
            total = 0.0
            for r in candidates:
                b = boxes[r]
                if b.y0 <= i < b.y1 and b.x0 <= j < b.x1:
                    total += scores[r]
            out[i, j] = total
    return out


def accumulate_naive(candidates, boxes, scores, height, width, class_id=0) -> LikelihoodMap:
    """Definitional oracle for accumulate_fast: one rectangle add per box on
    pixels, after the kernel's own input checks."""
    picked, arr = _check_accumulate_inputs(candidates, boxes, scores, height, width)
    acc = np.zeros((height, width), dtype=np.float64)
    for s, (x0, y0, x1, y1) in zip(picked.tolist(), arr.tolist()):
        acc[y0:y1, x0:x1] += s
    return unit_map(acc, class_id)


def unit_map(values, class_id=0) -> LikelihoodMap:
    """A map of the given 2-D values whose every cell is one pixel."""
    rows, cols = np.shape(values)
    return LikelihoodMap(values, np.arange(rows + 1), np.arange(cols + 1), class_id)


def to_pixels(likelihood: LikelihoodMap, per_cell: np.ndarray | None = None) -> np.ndarray:
    """A map's cells, or an array over them such as its binarized grid,
    expanded through the map's edges to one entry per pixel."""
    per_cell = likelihood.cells if per_cell is None else per_cell
    rows = np.repeat(per_cell, np.diff(likelihood.y_edges), axis=0)
    return np.repeat(rows, np.diff(likelihood.x_edges), axis=1)


def two_cumsum_accumulate(candidates, boxes, scores, height, width) -> np.ndarray:
    """The difference-array kernel with both prefix passes as whole-axis
    cumsums, the reference for accumulate_fast's bits on any grid shape."""
    diff = np.zeros((height + 1, width + 1))
    # Corner by corner, as the kernel deposits, so shared cells sum alike.
    for sign, (xc, yc) in ((1.0, (0, 1)), (-1.0, (2, 1)), (-1.0, (0, 3)), (1.0, (2, 3))):
        for r in candidates:
            diff[boxes[r, yc], boxes[r, xc]] += sign * scores[r]
    acc = np.cumsum(np.cumsum(diff, axis=0), axis=1)[:height, :width]
    return np.maximum(acc, 0.0)


def flood_fill_components(grid) -> list[set[tuple[int, int]]]:
    """8-connected regions of a binary grid by flood fill, each started from
    its first unvisited true cell in row-major order; intentionally dumb."""
    grid = np.asarray(grid, dtype=bool)
    height, width = grid.shape
    seen = np.zeros_like(grid)
    components = []
    for i in range(height):
        for j in range(width):
            if not grid[i, j] or seen[i, j]:
                continue
            seen[i, j] = True
            component = {(i, j)}
            stack = [(i, j)]
            while stack:
                r, c = stack.pop()
                for rr in (r - 1, r, r + 1):
                    for cc in (c - 1, c, c + 1):
                        if 0 <= rr < height and 0 <= cc < width and grid[rr, cc] and not seen[rr, cc]:
                            seen[rr, cc] = True
                            component.add((rr, cc))
                            stack.append((rr, cc))
            components.append(component)
    return components


def bounding_rect(component) -> tuple[int, int, int, int]:
    """(x0, y0, x1, y1) of the smallest half-open box holding every cell."""
    rows = [r for r, _ in component]
    cols = [c for _, c in component]
    return min(cols), min(rows), max(cols) + 1, max(rows) + 1


def greedy_clusters(scores, boxes, y) -> ClusterSet:
    """build_clusters by set walking and one scalar iou() per pair."""
    pos = np.flatnonzero(np.asarray(y) == 1).tolist()
    unassigned = set(range(len(boxes)))
    clusters = []
    for c in pos:
        while unassigned:
            center = min(unassigned, key=lambda r: (-scores[c, r], r))
            if scores[c, center] < CLUSTER_CENTER_FLOOR:
                break
            members = sorted(r for r in unassigned if iou(boxes[center], boxes[r]) >= CLUSTER_IOU)
            unassigned.difference_update(members)
            clusters.append(Cluster(label=c, members=tuple(members), score=float(scores[c, center])))
    background = tuple(sorted(unassigned))
    weights = [min(max(1.0 - max(scores[c, r] for c in pos), 0.0), 1.0) for r in background]
    return ClusterSet(tuple(clusters), background, np.array(weights), len(boxes))


def matched_targets(boxes, sup, num_classes) -> ProposalTargets:
    """assign_targets by a per-proposal loop over the voted boxes."""
    lo, hi = BG_IOU_RANGE
    labels = np.full(len(boxes), IGNORED, dtype=np.int64)
    offsets = np.zeros((len(boxes), 4))
    voted = [(c, g) for c, bs in by_class(sup).items() for g in bs]
    for r, proposal in enumerate(boxes if voted else []):
        ious = [iou(proposal, g) for _, g in voted]
        best = max(range(len(voted)), key=lambda m: (ious[m], -m))
        if ious[best] >= FG_IOU:
            labels[r] = voted[best][0]
            offsets[r] = scalar_encode_offsets(proposal, voted[best][1])
        elif lo <= ious[best] < hi:
            labels[r] = num_classes
    return ProposalTargets(labels, offsets, num_classes)


def scalar_compare_schemes(dataset, vote_config) -> list[SchemeStats]:
    """compare_schemes as a loop over `Box` lists: every scheme labels a
    record with a `{class: [Box]}` dict, and each labeled box scores its
    best scalar iou() against the ground truth of its own class."""
    ious = {name: {} for name in ALL_SCHEMES}
    for record in sorted(dataset.records, key=lambda r: r.image_id):
        scores, boxes = record.scores, [Box(*row) for row in record.proposals.tolist()]
        pos = np.flatnonzero(np.asarray(record.labels) == 1).tolist()
        clustering: dict[int, list[Box]] = {}
        for cluster in greedy_clusters(scores, boxes, record.labels).clusters:
            best = min(cluster.members, key=lambda r: (-scores[cluster.label, r], r))
            clustering.setdefault(cluster.label, []).append(boxes[best])
        voted = generate_supervision(
            scores, record.proposals, record.labels, record.height, record.width, vote_config
        )
        by_scheme = {
            SCHEME_CONVENTIONAL: {c: [boxes[int(np.argmax(scores[c]))]] for c in pos if boxes},
            SCHEME_CLUSTERING: clustering,
            SCHEME_SLV: by_class(voted),
        }
        for name, labeled in by_scheme.items():
            for c, labeled_boxes in labeled.items():
                gt = [Box(*g) for g in record.gt_boxes[c].tolist()] if c in record.gt_boxes else []
                if gt:
                    ious[name].setdefault(c, []).extend(max(iou(b, g) for g in gt) for b in labeled_boxes)
    stats = []
    for name in ALL_SCHEMES:
        flat = [x for v in ious[name].values() for x in v]
        stats.append(SchemeStats(
            scheme=name,
            per_class={c: float(np.mean(v)) for c, v in sorted(ious[name].items())},
            per_class_count={c: len(v) for c, v in sorted(ious[name].items())},
            overall=float(np.mean(flat)) if flat else 0.0,
            count=len(flat),
        ))
    return stats


def greedy_nms(boxes, scores, iou_threshold) -> list[int]:
    """nms keeping a box only if no kept box overlaps it beyond the threshold."""
    kept = []
    for i in sorted(range(len(boxes)), key=lambda i: (-scores[i], i)):
        if all(iou(boxes[i], boxes[j]) <= iou_threshold for j in kept):
            kept.append(i)
    return kept


def row_mil_loss(phi, y) -> tuple[float, np.ndarray]:
    """mil_loss as its one-record kernel was before `mil_losses`: the same
    checks and clamp, one np.sum over a single 1-D score vector."""
    phi = np.asarray(phi, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if phi.shape != y.shape or phi.ndim != 1:
        raise InputError(f"mil_loss: shape mismatch phi {phi.shape} vs y {y.shape}")
    if not ((y == 0.0) | (y == 1.0)).all():
        raise InputError("mil_loss: labels must be 0/1 indicators")
    if not np.isfinite(phi).all() or phi.min(initial=0.0) < 0.0 or phi.max(initial=0.0) > 1.0 + 1e-9:
        raise InputError("mil_loss: image scores must lie in [0, 1]")
    clamped = np.clip(phi, PROB_EPS, 1.0 - PROB_EPS)
    loss = -float(np.sum(y * np.log(clamped) + (1.0 - y) * np.log(1.0 - clamped)))
    grad = (clamped - y) / (clamped * (1.0 - clamped))
    grad = np.where((phi > PROB_EPS) & (phi < 1.0 - PROB_EPS), grad, 0.0)
    return loss, grad


def scalar_refinement_loss(phi_k, clusters):
    """refinement_loss one cluster, then one background proposal, at a time."""
    num = clusters.num_proposals
    if num == 0:
        raise InputError("refinement_loss: no proposals to average over")
    bg_row = len(phi_k) - 1
    grad = np.zeros_like(phi_k)
    total = 0.0
    for n, cluster in enumerate(clusters.clusters):
        if cluster.label >= bg_row:
            raise InputError(f"refinement_loss: cluster {n} labeled {cluster.label} has no row")
        members = list(cluster.members)
        mean_score = phi_k[cluster.label, members].sum() / cluster.size
        arg = np.clip(mean_score, PROB_EPS, 1.0 - PROB_EPS)
        if not np.isfinite(arg) or arg <= 0.0:
            raise NumericalError(f"refinement_loss: bad log argument in cluster {n}")
        total += cluster.score * cluster.size * np.log(arg)
        if PROB_EPS < mean_score < 1.0 - PROB_EPS:
            grad[cluster.label, members] -= cluster.score / (num * mean_score)
    for r, weight in zip(clusters.background, clusters.background_weights):
        p = phi_k[bg_row, r]
        arg = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
        if not np.isfinite(arg) or arg <= 0.0:
            raise NumericalError(f"refinement_loss: bad log argument for background proposal {r}")
        total += weight * np.log(arg)
        if PROB_EPS < p < 1.0 - PROB_EPS:
            grad[bg_row, r] -= weight / (num * p)
    return -total / num, grad


def scalar_slv_loss(phi_s, t_s, targets):
    """slv_loss with the classification term one labeled proposal at a time."""
    t_s = np.asarray(t_s, dtype=np.float64)
    grad_scores = np.zeros_like(phi_s)
    grad_offsets = np.zeros_like(t_s)
    valid = np.flatnonzero(targets.valid_mask)
    if valid.size == 0:
        return 0.0, grad_scores, grad_offsets, True
    cls_loss = 0.0
    for r in valid.tolist():
        label = int(targets.labels[r])
        p = phi_s[label, r]
        clamped = float(np.clip(p, PROB_EPS, 1.0 - PROB_EPS))
        cls_loss -= math.log(clamped)
        if PROB_EPS < p < 1.0 - PROB_EPS:
            grad_scores[label, r] = -1.0 / (valid.size * p)
    cls_loss /= valid.size
    fg = np.flatnonzero(targets.foreground_mask)
    loc_loss = 0.0
    if fg.size:
        diff = t_s[fg] - targets.offsets[fg]
        with np.errstate(over="ignore"):
            loc_loss = float(smooth_l1(diff).sum() / (4.0 * fg.size))
        grad_offsets[fg] = smooth_l1_grad(diff) / (4.0 * fg.size)
    return cls_loss + loc_loss, grad_scores, grad_offsets, False


def scalar_encode_offsets(proposal, target) -> np.ndarray:
    """encode_offsets from Box corners and math.log."""
    pcx, pcy = (proposal.x0 + proposal.x1) / 2.0, (proposal.y0 + proposal.y1) / 2.0
    gcx, gcy = (target.x0 + target.x1) / 2.0, (target.y0 + target.y1) / 2.0
    return np.array(
        [
            (gcx - pcx) / proposal.width,
            (gcy - pcy) / proposal.height,
            math.log(target.width / proposal.width),
            math.log(target.height / proposal.height),
        ]
    )


def scalar_decode_offsets_float(proposal, t):
    """One row of decode_boxes_float from Box properties and math.exp."""
    dx, dy, dw, dh = (float(v) for v in t)
    if not all(math.isfinite(v) for v in (dx, dy, dw, dh)):
        raise InputError("decode_offsets: offsets must be finite")
    pcx, pcy = (proposal.x0 + proposal.x1) / 2.0, (proposal.y0 + proposal.y1) / 2.0
    cx = pcx + dx * proposal.width
    cy = pcy + dy * proposal.height
    w = proposal.width * math.exp(min(dw, BBOX_XFORM_CLIP))
    h = proposal.height * math.exp(min(dh, BBOX_XFORM_CLIP))
    return cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0


def scalar_decode_offsets(proposal, t, height, width):
    """decode_offsets by scalar clipping and math.floor rounding."""
    x0, y0, x1, y1 = scalar_decode_offsets_float(proposal, t)
    x0 = min(max(x0, 0.0), float(width))
    y0 = min(max(y0, 0.0), float(height))
    x1 = min(max(x1, 0.0), float(width))
    y1 = min(max(y1, 0.0), float(height))
    ix0 = int(math.floor(x0 + 0.5))
    iy0 = int(math.floor(y0 + 0.5))
    ix1 = int(math.floor(x1 + 0.5))
    iy1 = int(math.floor(y1 + 0.5))
    if ix0 >= ix1 or iy0 >= iy1:
        return None
    return Box(ix0, iy0, ix1, iy1)


def scalar_run_inference(scorer, dataset, nms_iou=0.3, score_min=1e-3) -> list[tuple[str, int, Box, float]]:
    """run_inference decoding one proposal at a time, with greedy_nms; the
    detections come as (image id, class, Box, score) rows."""
    detections = []
    for record in sorted(dataset.records, key=lambda r: r.image_id):
        class_scores, offsets = fused_scores(scorer, record.features)
        shifted = [
            scalar_decode_offsets(p, offsets[r], record.height, record.width)
            for r, p in enumerate(Box(*row) for row in record.proposals.tolist())
        ]
        valid = [r for r, b in enumerate(shifted) if b is not None]
        for c in range(scorer.num_classes):
            scored = [r for r in valid if class_scores[c, r] > score_min]
            scores = [float(class_scores[c, r]) for r in scored]
            keep = greedy_nms([shifted[r] for r in scored], scores, nms_iou)
            detections.extend((record.image_id, c, shifted[scored[k]], scores[k]) for k in keep)
    return detections


def rowwise_proposals(raw, height, width, where) -> tuple[list[list[int]], list[str]]:
    """A dataset record's proposal rows checked and clipped one at a time, one
    Box each; intentionally dumb. Returns (rows, clip warnings) or raises the
    first bad row's message."""
    rows, warnings = [], []
    for k, row in enumerate(raw):
        at = f"{where}: field 'proposals'[{k}]"
        if not isinstance(row, list) or len(row) != 4:
            raise DatasetFormatError(f"{at}: box must be a 4-element list, got {row!r}")
        for name, value in zip(("x0", "y0", "x1", "y1"), row):
            if type(value) is not int:
                raise DatasetFormatError(f"{at}: box coordinate {name}={value!r} is not an integer")
        try:
            box = Box(*row)
        except InputError as exc:
            raise DatasetFormatError(f"{at}: {exc}") from None
        if box.x0 >= width or box.y0 >= height:
            raise DatasetFormatError(f"{at}: box {box.as_tuple()} lies outside a {height}x{width} image")
        if box.x1 > width or box.y1 > height:
            clipped = Box(box.x0, box.y0, min(box.x1, width), min(box.y1, height))
            warnings.append(
                f"{where}: proposal {k} {box.as_tuple()} clipped to {clipped.as_tuple()} for {height}x{width} image"
            )
            box = clipped
        rows.append(list(box.as_tuple()))
    return rows, warnings


def per_record_logits(w: np.ndarray, feats: np.ndarray, iteration: int) -> np.ndarray:
    """One record's logits `w @ feats.T`, checked as the trainer checks them."""
    with np.errstate(over="ignore", invalid="ignore"):
        z = w @ feats.T
    if not np.isfinite(z).all():
        raise NumericalError(f"training diverged at iteration {iteration}")
    return z


def per_record_groups(records: list[DatasetRecord]) -> list[tuple[list[int], np.ndarray, np.ndarray, np.ndarray]]:
    """The records grouped by proposal count, each group as (record
    indices, (R, N, 4) proposals, (R, N, N) bool masks of proposal IoU >=
    CLUSTER_IOU, (R, C) positive-class mask). Proposals never change, so
    the mask stack is computed once for every clustering call of the run."""
    by_count: dict[int, list[int]] = {}
    for i, record in enumerate(records):
        by_count.setdefault(len(record.proposals), []).append(i)
    groups = []
    for members in by_count.values():
        boxes = np.stack([records[i].proposals for i in members])
        absorbs = np.stack([iou_matrix(b, b) >= CLUSTER_IOU for b in boxes])
        groups.append((members, boxes, absorbs, np.stack([records[i].labels == 1 for i in members])))
    return groups


def per_record_train_toy(dataset: Dataset, config: TrainConfig) -> tuple[ToyScorer, list[TraceEntry]]:
    """train_toy as it ran before its heads were stacked by proposal count:
    every head's logits, softmaxes and gradient products one record at a
    time, and targets and the SLV loss one record at a time. Only
    clustering and the refinement loss run per group, as they did."""
    records, positives = _training_records(dataset)
    groups = per_record_groups(records)
    num_classes = dataset.num_classes
    rng = np.random.default_rng(config.init_seed)
    scorer = ToyScorer.initialize(num_classes, records[0].features.shape[1], rng)
    trace: list[TraceEntry] = []
    n = len(records)
    for it in range(config.iterations):
        w_s = 0.0 if config.mil_only else loss_weight(config.ramp_length, it)
        # Aligned with scorer.heads(); the names below alias its arrays.
        grads = [np.zeros_like(w) for w in scorer.heads()]
        g_cls, g_det, *grads_refine, g_slv_cls, g_slv_reg = grads
        # Phase 1: the MIL head of every record, then the refinement stages.
        losses_mil = []
        previous = []
        for record in records:
            feats = record.features
            sigma_cls = softmax_over_classes(per_record_logits(scorer.w_cls, feats, it))
            sigma_det = softmax_over_proposals(per_record_logits(scorer.w_det, feats, it))
            phi0 = wsddn_scores(sigma_cls, sigma_det)
            phi_img = image_scores(phi0)
            l_mil, d_phi_img = row_mil_loss(phi_img, record.labels)
            # image score sums over proposals, so its gradient broadcasts
            d_sigma_cls = d_phi_img[:, None] * sigma_det
            d_sigma_det = d_phi_img[:, None] * sigma_cls
            g_cls += softmax_backward(sigma_cls, d_sigma_cls, axis=0) @ feats
            g_det += softmax_backward(sigma_det, d_sigma_det, axis=1) @ feats
            losses_mil.append(l_mil)
            previous.append(phi0)

        refine_losses: list[list[float]] = [[] for _ in records]
        stages = []
        for k, w_k in enumerate(scorer.w_refine):
            stage = [softmax_over_classes(per_record_logits(w_k, r.features, it)) for r in records]
            d_stage: list[np.ndarray] = [None] * n
            for members, boxes, absorbs, labels in groups:
                clusters = cluster_records(np.stack([previous[i] for i in members]), boxes, labels, absorbs)
                losses, d_phi = refinement_losses(np.stack([stage[i] for i in members]), clusters)
                for i, l_k, d_phi_k in zip(members, losses.tolist(), d_phi):
                    refine_losses[i].append(l_k)
                    d_stage[i] = d_phi_k
            for record, phi_k, d_phi_k in zip(records, stage, d_stage):
                grads_refine[k] += softmax_backward(phi_k, d_phi_k, axis=0) @ record.features
            stages.append(stage)
            previous = stage

        # Phase 2: one vote over every record's averaged refinement scores.
        if not config.mil_only:
            batch = VoteBatch(config.vote)
            for record, positive, phis in zip(records, positives, zip(*stages)):
                batch.add(
                    average_refined_scores(*phis),
                    record.proposals, positive, record.height, record.width,
                )
            supervisions = batch.supervisions()

        # Phase 3: targets, the SLV loss and its gradients, record by record.
        sum_mil = 0.0
        sum_refine = np.zeros(len(scorer.w_refine))
        sum_slv = 0.0
        sum_total = 0.0
        for r, (record, l_mil, l_refine) in enumerate(zip(records, losses_mil, refine_losses)):
            feats = record.features
            l_slv = 0.0
            if not config.mil_only:
                proposal_targets = assign_targets(record.proposals, supervisions[r], num_classes)
                phi_s = softmax_over_classes(per_record_logits(scorer.w_slv_cls, feats, it))
                t_s = per_record_logits(scorer.w_slv_reg, feats, it).T
                l_slv, d_phi_s, d_t_s, _vacuous = slv_loss(phi_s, t_s, proposal_targets)
                if w_s > 0.0:
                    g_slv_cls += w_s * (softmax_backward(phi_s, d_phi_s, axis=0) @ feats)
                    g_slv_reg += w_s * (d_t_s.T @ feats)

            if not all(math.isfinite(v) for v in (l_mil, *l_refine, l_slv)):
                raise NumericalError(f"training diverged at iteration {it}")
            l_total = total_loss(l_mil, l_refine, l_slv, w_s)
            sum_mil += l_mil
            sum_refine += np.asarray(l_refine)
            sum_slv += l_slv
            sum_total += l_total

        lr = config.learning_rate / n
        with np.errstate(over="ignore"):  # an overflowing step shows as a non-finite weight
            for w, g in zip(scorer.heads(), grads):
                w -= lr * g
                if not np.isfinite(w).all():
                    raise NumericalError(f"training diverged at iteration {it}")

        trace.append(
            TraceEntry(
                iteration=it,
                loss_mil=sum_mil / n,
                loss_refine=tuple(sum_refine / n),
                loss_slv=sum_slv / n,
                weight_slv=w_s,
                loss_total=sum_total / n,
            )
        )
    return scorer, trace
