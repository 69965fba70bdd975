"""Axis-aligned box arithmetic and binary-grid region extraction.

Boxes use the half-open pixel convention: pixel (i, j) is inside a box
exactly when y0 <= i < y1 and x0 <= j < x1, so the area is
(x1 - x0) * (y1 - y0) with no off-by-one corrections. Grid cells are
(row, col) tuples with the same orientation.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InputError

# A binary grid is a 2-D boolean array; cell (i, j) is row i, column j.
# Components use 8-connectivity: diagonal neighbors join, so a region
# produced by overlapping rectangles never splits at a one-pixel pinch.
BinaryGrid = np.ndarray

Cell = tuple[int, int]


@dataclass(frozen=True, order=True)
class Box:
    """Axis-aligned rectangle in non-negative integer pixel coordinates."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self) -> None:
        for name in ("x0", "y0", "x1", "y1"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise InputError(f"box coordinate {name}={value!r} is not an integer") from None
        if self.x0 < 0 or self.y0 < 0:
            raise InputError(f"box coordinates must be non-negative, got {self.as_tuple()}")
        if self.x0 >= self.x1 or self.y0 >= self.y1:
            raise InputError(f"box must have positive width and height, got {self.as_tuple()}")

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    @property
    def area(self) -> int:
        return self.width * self.height

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.x0, self.y0, self.x1, self.y1)


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes, in [0, 1]."""
    iw = min(a.x1, b.x1) - max(a.x0, b.x0)
    ih = min(a.y1, b.y1) - max(a.y0, b.y0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    return inter / union


def nms(boxes: np.ndarray, scores: Sequence[float], iou_threshold: float, groups: np.ndarray | None = None) -> list[int]:
    """Greedy non-maximum suppression over an (N, 4) box array.

    Returns the retained indices sorted by descending score; equal scores
    are broken by lower index. A box is suppressed when its IoU with an
    already retained box exceeds the threshold. With `groups`, an (N,)
    integer array, a box suppresses only boxes of its own group, and the
    result lists each group's retained indices in that order, groups by
    ascending id; without it, every box is in one group. The groups run in
    lockstep: each step computes every unfinished group's next kept box's
    IoU row (`_iou_rows`) at once.
    """
    if len(boxes) != len(scores):
        raise InputError(f"nms: {len(boxes)} boxes but {len(scores)} scores")
    if groups is not None and len(groups) != len(boxes):
        raise InputError(f"nms: {len(boxes)} boxes but {len(groups)} group ids")
    if not 0.0 < iou_threshold < 1.0:
        raise InputError(f"nms: iou_threshold must be in (0, 1), got {iou_threshold}")
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():  # argsort and sorted() place NaN differently
        raise InputError("nms: scores must be finite")
    groups = np.zeros(len(scores), dtype=np.int64) if groups is None else np.asarray(groups)
    order = np.argsort(-scores, kind="stable")
    order = order[np.argsort(groups[order], kind="stable")]
    _, starts, counts = np.unique(groups[order], return_index=True, return_counts=True)
    # Row g of `index` is group g's boxes in rank order, padded with its
    # first box; padding starts out of `live` and is never read back.
    width = counts.max(initial=0)
    live = np.arange(width) < counts[:, None]
    index = order[np.where(live, starts[:, None] + np.arange(width), starts[:, None])]
    columns = _box_columns(np.asarray(boxes)[index])
    kept = np.zeros_like(live)
    active = np.arange(len(counts))
    while active.size:
        rows = live[active]
        top = rows.argmax(axis=1)
        rows &= ~(_iou_rows(columns[:, active], top) > iou_threshold)
        rows[np.arange(active.size), top] = False
        kept[active, top] = True
        live[active] = rows
        active = active[rows.any(axis=1)]
    return index[kept].tolist()


def _label_runs(grid: BinaryGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Horizontal runs of true cells and the 8-connected region of each.

    Run-based labeling (He, Chao & Suzuki, IEEE TIP 2008) whose union-find
    runs over arrays: hook and pointer-jump, as in Shiloach & Vishkin
    (J. Algorithms 1982). Returns (rows, starts, ends, labels): run k covers
    columns [starts[k], ends[k]) of row rows[k], runs are in row-major order,
    and labels[k] numbers the regions by the row-major position of their
    first cell.
    """
    grid = np.asarray(grid)
    if grid.ndim != 2:
        raise InputError(f"region labeling: expected a 2-D grid, got shape {grid.shape}")
    height, width = grid.shape
    stride = width + 2
    padded = np.zeros((height, stride), dtype=bool)
    padded[:, 1:-1] = grid
    # Every padded row starts and ends blank, so the flat array changes value
    # in pairs within rows: after row * stride + start and after
    # row * stride + end for each run. These row-major keys order the runs.
    flat = padded.ravel()
    changes = np.flatnonzero(flat[1:] != flat[:-1])
    first, past = changes[0::2], changes[1::2]
    rows = first // stride
    starts, ends = first - rows * stride, past - rows * stride

    # The runs of the row above that touch run [s, e) under 8-connectivity,
    # those with start <= e and end >= s, form one contiguous id range
    # [lo, hi).
    lo = np.searchsorted(past, first - stride, side="left")
    hi = np.searchsorted(first, past - stride, side="right")

    # One edge (run, other) per touching pair; lo <= hi always holds.
    counts = hi - lo
    run = np.repeat(np.arange(len(rows)), counts)
    other = np.arange(len(run)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)

    # Hook the larger root of every edge whose roots differ to the smaller
    # one, then pointer-jump until each run points at its root. Parents only
    # decrease, so each root ends as its region's first run.
    roots = np.arange(len(rows))
    while True:
        a, b = roots[run], roots[other]
        split = a != b
        if not split.any():
            break
        np.minimum.at(roots, np.maximum(a, b)[split], np.minimum(a, b)[split])
        jumped = roots[roots]
        while not np.array_equal(jumped, roots):
            roots, jumped = jumped, jumped[jumped]
    labels = np.unique(roots, return_inverse=True)[1]
    return rows, starts, ends, labels


def region_boxes(grid: BinaryGrid) -> np.ndarray:
    """Minimum bounding rectangles of a binary grid's 8-connected regions.

    Returns a (K, 4) int64 array of (x0, y0, x1, y1) rows ordered by the
    row-major position of each region's first cell. The rectangles come
    straight from the runs; no region's cells are materialized.
    """
    rows, starts, ends, labels = _label_runs(grid)
    out = np.empty((int(labels.max(initial=-1)) + 1, 4), dtype=np.int64)
    out[:, :2] = np.iinfo(np.int64).max
    out[:, 2:] = 0
    np.minimum.at(out[:, 0], labels, starts)
    np.minimum.at(out[:, 1], labels, rows)
    np.maximum.at(out[:, 2], labels, ends)
    np.maximum.at(out[:, 3], labels, rows + 1)
    return out


def connected_components(grid: BinaryGrid) -> list[set[Cell]]:
    """Partition the true cells of a binary grid into 8-connected regions.

    Components are ordered by the row-major position of their first cell,
    the same order as `region_boxes`, whose run labeling this expands.
    """
    rows, starts, ends, labels = _label_runs(grid)
    components: list[set[Cell]] = [set() for _ in range(int(labels.max(initial=-1)) + 1)]
    for i, s, e, k in zip(rows.tolist(), starts.tolist(), ends.tolist(), labels.tolist()):
        components[k].update((i, j) for j in range(s, e))
    return components


def min_bounding_rect(component: Iterable[Cell]) -> Box:
    """Smallest box containing every cell of a component."""
    cells = list(component)
    if not cells:
        raise InputError("min_bounding_rect: component is empty")
    rows = [c[0] for c in cells]
    cols = [c[1] for c in cells]
    return Box(x0=min(cols), y0=min(rows), x1=max(cols) + 1, y1=max(rows) + 1)


def boxes_to_array(boxes: Sequence[Box]) -> np.ndarray:
    """Stack boxes into an (N, 4) int64 array of (x0, y0, x1, y1) rows."""
    if not boxes:
        return np.zeros((0, 4), dtype=np.int64)
    return np.array([b.as_tuple() for b in boxes], dtype=np.int64)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., N, M) IoU of the rows of (..., N, 4) and (..., M, 4) box arrays,
    with any leading axes broadcast.

    With integer-valued coordinates, integer or float, intersections and
    unions are exact, so each entry equals iou() of the same two boxes.
    NMS and clustering without a precomputed matrix need one row per picked
    box; they take `_box_columns` once and each row from `_iou_rows`, the
    same arithmetic in the same order.
    """
    ax0, ay0, ax1, ay1 = a.transpose(-1, *range(a.ndim - 1))[..., None]  # (..., N, 1) columns
    bx0, by0, bx1, by1 = b.transpose(-1, *range(b.ndim - 1))[..., None, :]  # against (..., 1, M) rows
    iw = np.minimum(ax1, bx1) - np.maximum(ax0, bx0)
    ih = np.minimum(ay1, by1) - np.maximum(ay0, by0)
    inter = np.maximum(iw, 0) * np.maximum(ih, 0)
    return inter / ((ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter)


def _box_columns(boxes: np.ndarray) -> np.ndarray:
    """The (5, ..., N) stack of the x0, y0, x1, y1 columns of a (..., N, 4)
    box array and its boxes' areas: the operand `_iou_rows` reads."""
    columns = np.empty((5, *boxes.shape[:-1]), dtype=boxes.dtype)
    columns[:4] = boxes.transpose(-1, *range(boxes.ndim - 1))
    x0, y0, x1, y1 = columns[:4]
    np.multiply(x1 - x0, y1 - y0, out=columns[4])
    return columns


def _iou_rows(columns: np.ndarray, picked: np.ndarray) -> np.ndarray:
    """(A, N) IoU of box `picked[k]` of row k with every box of row k, for
    the (5, A, N) `_box_columns` of A rows of N boxes: row k is
    `iou_matrix(boxes[k, picked[k]][None], boxes[k])[0]`, bit for bit. The
    x and y extents of the intersections are taken in the same calls."""
    top = columns[:, np.arange(len(picked)), picked][..., None]  # (5, A, 1)
    extents = np.maximum(np.minimum(top[2:4], columns[2:4]) - np.maximum(top[:2], columns[:2]), 0)
    inter = extents[0] * extents[1]
    return inter / (top[4] + columns[4] - inter)


def pairwise_iou(boxes: np.ndarray) -> np.ndarray:
    """(N, N) IoU matrix of an (N, 4) box array; matches iou() entrywise."""
    arr = boxes.astype(np.float64)
    return iou_matrix(arr, arr)
