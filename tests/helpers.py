"""Shared test oracles: central finite differences, a literal per-pixel
accumulation loop, a flood-fill region labeling, scalar-IoU loops for
greedy clustering, target assignment and NMS, per-proposal loops for
the losses and the box coding, and a per-row proposal loader. These stay
independent of the implementation paths they check."""

from __future__ import annotations

import math

import numpy as np

from slv.errors import DatasetFormatError, InputError, NumericalError
from slv.evaluation import Detection
from slv.geometry import Box, clip_box, iou
from slv.mil import CLUSTER_CENTER_FLOOR, CLUSTER_IOU, PROB_EPS, Cluster, ClusterSet
from slv.targets import (
    BBOX_XFORM_CLIP, BG_IOU_RANGE, FG_IOU, IGNORED, ProposalTargets, smooth_l1, smooth_l1_grad,
)
from slv.trainer import fused_scores


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
    data = scores.data
    pos = np.flatnonzero(np.asarray(y) == 1).tolist()
    unassigned = set(range(len(boxes)))
    clusters = []
    for c in pos:
        while unassigned:
            center = min(unassigned, key=lambda r: (-data[c, r], r))
            if data[c, center] < CLUSTER_CENTER_FLOOR:
                break
            members = sorted(r for r in unassigned if iou(boxes[center], boxes[r]) >= CLUSTER_IOU)
            unassigned.difference_update(members)
            clusters.append(Cluster(label=c, members=tuple(members), score=float(data[c, center])))
    background = tuple(sorted(unassigned))
    weights = [min(max(1.0 - max(data[c, r] for c in pos), 0.0), 1.0) for r in background]
    return ClusterSet(tuple(clusters), background, np.array(weights), len(boxes))


def matched_targets(boxes, sup, num_classes) -> ProposalTargets:
    """assign_targets by a per-proposal loop over the voted boxes."""
    lo, hi = BG_IOU_RANGE
    labels = np.full(len(boxes), IGNORED, dtype=np.int64)
    offsets = np.zeros((len(boxes), 4))
    weights = np.zeros(len(boxes))
    voted = sup.all_boxes()
    for r, proposal in enumerate(boxes if voted else []):
        ious = [iou(proposal, g) for _, g in voted]
        best = max(range(len(voted)), key=lambda m: (ious[m], -m))
        if ious[best] >= FG_IOU:
            labels[r] = voted[best][0]
            offsets[r] = scalar_encode_offsets(proposal, voted[best][1])
            weights[r] = 1.0
        elif lo <= ious[best] < hi:
            labels[r] = num_classes
            weights[r] = 1.0
    return ProposalTargets(labels, offsets, weights, num_classes)


def greedy_nms(boxes, scores, iou_threshold) -> list[int]:
    """nms keeping a box only if no kept box overlaps it beyond the threshold."""
    kept = []
    for i in sorted(range(len(boxes)), key=lambda i: (-scores[i], i)):
        if all(iou(boxes[i], boxes[j]) <= iou_threshold for j in kept):
            kept.append(i)
    return kept


def scalar_refinement_loss(phi_k, clusters):
    """refinement_loss one cluster, then one background proposal, at a time."""
    probs = phi_k.data
    num = clusters.num_proposals
    if num == 0:
        raise InputError("refinement_loss: no proposals to average over")
    bg_row = phi_k.rows - 1
    grad = np.zeros_like(probs)
    total = 0.0
    for n, cluster in enumerate(clusters.clusters):
        if cluster.label >= bg_row:
            raise InputError(f"refinement_loss: cluster {n} labeled {cluster.label} has no row")
        members = list(cluster.members)
        mean_score = probs[cluster.label, members].sum() / cluster.size
        arg = np.clip(mean_score, PROB_EPS, 1.0 - PROB_EPS)
        if not np.isfinite(arg) or arg <= 0.0:
            raise NumericalError(f"refinement_loss: bad log argument in cluster {n}")
        total += cluster.score * cluster.size * np.log(arg)
        if PROB_EPS < mean_score < 1.0 - PROB_EPS:
            grad[cluster.label, members] -= cluster.score / (num * mean_score)
    for r, weight in zip(clusters.background, clusters.background_weights):
        p = probs[bg_row, r]
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
    grad_scores = np.zeros_like(phi_s.data)
    grad_offsets = np.zeros_like(t_s)
    valid = np.flatnonzero(targets.valid_mask)
    if valid.size == 0:
        return 0.0, grad_scores, grad_offsets, True
    probs = phi_s.data
    cls_loss = 0.0
    for r in valid.tolist():
        label = int(targets.labels[r])
        p = probs[label, r]
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
    """encode_offsets from Box properties and math.log."""
    pcx, pcy = proposal.center
    gcx, gcy = target.center
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
    pcx, pcy = proposal.center
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


def scalar_run_inference(scorer, dataset, nms_iou=0.3, score_min=1e-3) -> list[Detection]:
    """run_inference decoding one proposal at a time, with greedy_nms."""
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
            detections.extend(Detection(record.image_id, c, shifted[scored[k]], scores[k]) for k in keep)
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
        if box.x1 > width or box.y1 > height:
            clipped = clip_box(box, height, width)
            warnings.append(
                f"{where}: proposal {k} {box.as_tuple()} clipped to {clipped.as_tuple()} for {height}x{width} image"
            )
            box = clipped
        rows.append(list(box.as_tuple()))
    return rows, warnings
