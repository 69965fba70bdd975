"""Shared test oracles: central finite differences, a literal per-pixel
accumulation loop, a flood-fill region labeling, and scalar-IoU loops for
greedy clustering, target assignment and NMS. These stay independent of
the implementation paths they check."""

from __future__ import annotations

import numpy as np

from slv.geometry import iou
from slv.mil import Cluster, ClusterSet
from slv.targets import IGNORED, ProposalTargets, encode_offsets


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


def greedy_clusters(scores, boxes, y, iou_threshold=0.5, center_floor=0.01) -> ClusterSet:
    """build_clusters by set walking and one scalar iou() per pair."""
    data = scores.data
    pos = np.flatnonzero(np.asarray(y) == 1).tolist()
    unassigned = set(range(len(boxes)))
    clusters = []
    for c in pos:
        while unassigned:
            center = min(unassigned, key=lambda r: (-data[c, r], r))
            if data[c, center] < center_floor:
                break
            members = sorted(r for r in unassigned if iou(boxes[center], boxes[r]) >= iou_threshold)
            unassigned.difference_update(members)
            clusters.append(Cluster(label=c, members=tuple(members), score=float(data[c, center])))
    background = tuple(sorted(unassigned))
    weights = [min(max(1.0 - max(data[c, r] for c in pos), 0.0), 1.0) for r in background]
    return ClusterSet(tuple(clusters), background, np.array(weights), len(boxes))


def matched_targets(boxes, sup, num_classes, fg_iou=0.5, bg_iou_range=(0.1, 0.5)) -> ProposalTargets:
    """assign_targets by a per-proposal loop over the voted boxes."""
    lo, hi = bg_iou_range
    labels = np.full(len(boxes), IGNORED, dtype=np.int64)
    offsets = np.zeros((len(boxes), 4))
    weights = np.zeros(len(boxes))
    voted = sup.all_boxes()
    for r, proposal in enumerate(boxes if voted else []):
        ious = [iou(proposal, g) for _, g in voted]
        best = max(range(len(voted)), key=lambda m: (ious[m], -m))
        if ious[best] >= fg_iou:
            labels[r] = voted[best][0]
            offsets[r] = encode_offsets(proposal, voted[best][1])
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
