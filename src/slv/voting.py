"""Spatial likelihood voting: candidate proposals accumulate their class
scores over the pixels they cover; the normalized, thresholded map votes
minimum bounding rectangles of its connected regions as pseudo ground truth.

A sum of box indicators is constant between the boxes' distinct edges, so
the fast path holds a map as the cells of the grid those edges cut, not as
pixels: accumulation, normalization, binarization and region labeling all
run on cells, and pixels are built only for the heatmap bytes and for
callers that ask for them (`LikelihoodMap.data`).

Two accumulation kernels are provided: a fast 2-D difference-array version
on the edge grid (constant work per box plus two prefix-sum passes) and a
naive definitional version on pixels used as its oracle. Both share the
half-open pixel convention from `geometry`. Their maps agree within float
rounding, since they add the same scores in different orders; a cell whose
exact value is `t_b * peak` can therefore binarize differently, and the
voted boxes can differ at such ties.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, InputError
from .geometry import BinaryGrid, region_boxes
from .mil import positive_classes

# PASCAL VOC 2007/2012 category names, index order used for class ids.
VOC2007_CLASSES = (
    "aeroplane", "bicycle", "bird", "boat", "bottle", "bus", "car", "cat",
    "chair", "cow", "diningtable", "dog", "horse", "motorbike", "person",
    "pottedplant", "sheep", "sofa", "train", "tvmonitor",
)


@dataclass(frozen=True)
class LikelihoodMap:
    """Accumulation grid of one class, held as cells between box edges.

    `cells[a, b]` is the value of every pixel in rows
    `y_edges[a]:y_edges[a + 1]` and columns `x_edges[b]:x_edges[b + 1]`.
    The edges are strictly increasing, start at 0 and end at the image's
    height and width. Without edges, `cells` is a pixel array, every cell
    one pixel. `data` is the pixel array; it is built on request unless the
    cells are pixels, in which case it is `cells` itself.
    """

    cells: np.ndarray
    class_id: int = 0
    y_edges: np.ndarray | None = None
    x_edges: np.ndarray | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.cells, dtype=np.float64)
        if arr.ndim != 2:
            raise InputError(f"LikelihoodMap must be 2-D, got shape {arr.shape}")
        object.__setattr__(self, "cells", arr)
        rows, cols = arr.shape
        if self.y_edges is None:
            object.__setattr__(self, "y_edges", np.arange(rows + 1))
        if self.x_edges is None:
            object.__setattr__(self, "x_edges", np.arange(cols + 1))
        if len(self.y_edges) != rows + 1 or len(self.x_edges) != cols + 1:
            raise InputError(f"LikelihoodMap: {rows}x{cols} cells need one more edge on each axis")
        if self.height <= 0 or self.width <= 0:
            raise InputError(f"LikelihoodMap has no pixels, got {self.height}x{self.width}")

    @property
    def height(self) -> int:
        return int(self.y_edges[-1])

    @property
    def width(self) -> int:
        return int(self.x_edges[-1])

    @property
    def data(self) -> np.ndarray:
        return self.pixels(self.cells)

    def pixels(self, per_cell: np.ndarray) -> np.ndarray:
        """An array over this map's cells (the map's own, or a binarized
        grid of it) expanded to one entry per pixel."""
        if per_cell.shape == (self.height, self.width):
            return per_cell
        rows = np.repeat(per_cell, np.diff(self.y_edges), axis=0)
        return np.repeat(rows, np.diff(self.x_edges), axis=1)


@dataclass(frozen=True)
class VoteConfig:
    """Thresholds of the voting step.

    t_score filters candidate proposals (strictly greater); t_b binarizes
    the normalized map (strictly greater), with optional per-class
    overrides keyed by class id.
    """

    t_score: float = 0.001
    t_b_default: float = 0.5
    t_b_per_class: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, value in [("t_score", self.t_score), ("t_b_default", self.t_b_default)]:
            if not 0.0 < value < 1.0:
                raise ConfigError(f"VoteConfig.{name} must be in (0, 1), got {value}")
        for cls, value in self.t_b_per_class.items():
            if not 0.0 < value < 1.0:
                raise ConfigError(f"VoteConfig.t_b_per_class[{cls}] must be in (0, 1), got {value}")
        object.__setattr__(self, "t_b_per_class", dict(self.t_b_per_class))

    def t_b_for(self, class_id: int) -> float:
        return self.t_b_per_class.get(class_id, self.t_b_default)


def voc2007_config() -> VoteConfig:
    """Shipped preset: t_score 0.001, t_b 0.5 with the person class at 0.2."""
    return VoteConfig(
        t_score=0.001,
        t_b_default=0.5,
        t_b_per_class={VOC2007_CLASSES.index("person"): 0.2},
    )


@dataclass(frozen=True, eq=False)
class Supervision:
    """One image's voted pseudo ground truth: `boxes`, a (K, 4) int64 array
    of (x0, y0, x1, y1) rows, and `classes`, their (K,) int64 class ids,
    ordered by class and then in vote order. Positive classes only."""

    boxes: np.ndarray = field(default_factory=lambda: np.zeros((0, 4), dtype=np.int64))
    classes: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def all_boxes(self) -> list[tuple[int, list[int]]]:
        """(class_id, [x0, y0, x1, y1]) pairs in order: the JSON view."""
        return list(zip(self.classes.tolist(), self.boxes.tolist()))


def select_candidates(
    phi_bar: np.ndarray, boxes: np.ndarray, c: int, t_score: float
) -> np.ndarray:
    """Indices of proposals whose class-c score strictly exceeds t_score."""
    if phi_bar.shape[1] != len(boxes):
        raise InputError(f"select_candidates: {phi_bar.shape[1]} score columns but {len(boxes)} boxes")
    if not 0 <= c < len(phi_bar):
        raise InputError(f"select_candidates: class {c} out of range for {len(phi_bar)} rows")
    return np.flatnonzero(phi_bar[c] > t_score)


def _check_accumulate_inputs(
    candidates: np.ndarray, boxes: np.ndarray, scores: np.ndarray, height: int, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Validated candidate scores and (K, 4) array of the candidates' boxes."""
    if height <= 0 or width <= 0:
        raise InputError(f"accumulate: image size must be positive, got {height}x{width}")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (len(boxes),):
        raise InputError(f"accumulate: {len(boxes)} boxes but scores shape {scores.shape}")
    if candidates.size and (candidates.min() < 0 or candidates.max() >= len(boxes)):
        raise InputError("accumulate: candidate index out of range")
    picked = scores[candidates]
    if candidates.size:
        top = float(picked.max())
        if not (picked.min() >= 0.0 and top < math.inf):  # NaN fails both
            raise InputError("accumulate: candidate scores must be finite and non-negative")
        # Each box deposits its score four times, so 4 * sum bounds every
        # prefix sum; sum <= max / 4 is that test, as scaling by 4 is exact.
        # The sum itself can overflow, so it is taken only when K * max,
        # which bounds it, does not settle the test.
        if top * candidates.size > sys.float_info.max / 8:
            with np.errstate(over="ignore"):
                if not picked.sum() <= sys.float_info.max / 4:
                    raise InputError("accumulate: candidate scores are too large to sum")
    arr = boxes[candidates]
    outside = np.flatnonzero((arr[:, 2] > width) | (arr[:, 3] > height))
    if outside.size:
        b = tuple(arr[outside[0]].tolist())
        raise InputError(f"accumulate: box {b} exceeds the {height}x{width} image; clip first")
    return picked, arr


def _cell_index(lo: np.ndarray, hi: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct edges of one axis (0, `size` and every box side) and the
    edge index of each pixel coordinate from 0 to `size`."""
    mask = np.zeros(size + 1, dtype=bool)
    mask[lo] = True
    mask[hi] = True
    mask[0] = mask[size] = True
    index = np.add.accumulate(mask, dtype=np.intp)
    index -= 1
    return mask.nonzero()[0], index


def accumulate_fast(
    candidates: np.ndarray,
    boxes: np.ndarray,
    scores: np.ndarray,
    height: int,
    width: int,
    class_id: int = 0,
) -> LikelihoodMap:
    """Sum each candidate's score over the pixels its box covers.

    Difference-array kernel on the grid that the candidates' distinct edges
    cut: each box deposits +s/-s at its four corners on an (Ey)x(Ex) grid of
    edges, and two prefix-sum passes spread the deposits over the cells
    between them, giving O(Ey*Ex + H + W + len(candidates)) total work.

    The bits are those of the same kernel on the (H+1)x(W+1) pixel grid:
    there, every row and column between two edges holds no deposit, so
    its prefix step adds an exact 0.0 to the carried sum, and every other
    addition is the same addition in the same order.
    """
    s, arr = _check_accumulate_inputs(candidates, boxes, scores, height, width)
    x0, y0, x1, y1 = arr.T
    y_edges, y_index = _cell_index(y0, y1, height)
    x_edges, x_index = _cell_index(x0, x1, width)
    diff = np.zeros((len(y_edges), len(x_edges)), dtype=np.float64)
    top, bottom, left, right = y_index[y0], y_index[y1], x_index[x0], x_index[x1]
    np.add.at(diff, (top, left), s)
    np.add.at(diff, (top, right), -s)
    np.add.at(diff, (bottom, left), -s)
    np.add.at(diff, (bottom, right), s)
    np.cumsum(diff, axis=0, out=diff)
    np.cumsum(diff, axis=1, out=diff)
    # Cancellation can leave sub-ulp negatives where the exact value is 0.
    np.maximum(diff, 0.0, out=diff)
    return LikelihoodMap(diff[:-1, :-1], class_id, y_edges=y_edges, x_edges=x_edges)


def accumulate_naive(
    candidates: np.ndarray,
    boxes: np.ndarray,
    scores: np.ndarray,
    height: int,
    width: int,
    class_id: int = 0,
) -> LikelihoodMap:
    """Definitional oracle for accumulate_fast: one rectangle add per box."""
    picked, arr = _check_accumulate_inputs(candidates, boxes, scores, height, width)
    acc = np.zeros((height, width), dtype=np.float64)
    for s, (x0, y0, x1, y1) in zip(picked.tolist(), arr.tolist()):
        acc[y0:y1, x0:x1] += s
    return LikelihoodMap(acc, class_id=class_id)


def normalize(likelihood: LikelihoodMap) -> LikelihoodMap:
    """Scale a map's cells into [0, 1] by their maximum, in place, and
    return the same map. An all-zero map has nothing to scale and stays
    zero, so it binarizes to no region."""
    cells = likelihood.cells
    if cells.min() < 0.0:
        raise InputError("normalize: map entries must be non-negative")
    peak = cells.max()
    if peak > 0.0:
        np.divide(cells, peak, out=cells)
    return likelihood


def binarize(likelihood: LikelihoodMap, t_b: float) -> BinaryGrid:
    """Cells strictly above t_b in a normalized map, over the map's cells."""
    if not 0.0 < t_b < 1.0:
        raise InputError(f"binarize: t_b must be in (0, 1), got {t_b}")
    return likelihood.cells > t_b


def vote_boxes(grid: BinaryGrid) -> np.ndarray:
    """Minimum bounding rectangles of the grid's connected regions, in the
    grid's own cells: `region_boxes`' (K, 4) int64 array."""
    return region_boxes(grid)


# A batch labels its waiting binary grids once they reach this many cells,
# so one pass holds at most this plus one grid; the grids and their stacked
# copy take about one byte a cell each.
BATCH_CELLS = 1 << 22


class VoteBatch:
    """Votes of many images, with one region-labeling pass per chunk of grids.

    `add` runs an image's per-class steps at once, so a bad input raises
    while the caller still knows the image, and hands each normalized map to
    `on_map` without keeping it. The binary grids wait until `supervisions`
    (or BATCH_CELLS) and are labeled stacked in one buffer: each cell grid
    gets a block of Hmax + 1 rows whose last row stays blank, so regions
    cannot join across grids and keep their row-major order within each
    grid. A region's cells are 8-connected exactly when its pixels are, so
    the labeling runs on cells, and one gather through the grids' edges
    turns every region's cell rectangle into pixels.
    """

    def __init__(self, config: VoteConfig) -> None:
        self.config = config
        self._voted: list[Supervision] = []
        self._images = 0  # images added since the last labeling pass
        # (image, counted from the last pass; class; cell grid; its y edges; its x edges)
        self._waiting: list[tuple[int, int, BinaryGrid, np.ndarray, np.ndarray]] = []
        self._cells = 0

    def add(
        self,
        phi_bar: np.ndarray,
        boxes: np.ndarray,
        y: np.ndarray,
        height: int,
        width: int,
        on_map: Callable[[LikelihoodMap], None] | None = None,
    ) -> None:
        """Vote every positive class of one image.

        Per class: filter candidates by t_score, accumulate their scores
        spatially, normalize, and binarize at the class threshold; the
        bounding rectangles of the surviving regions are the class's voted
        boxes. A class with no candidate accumulates one zero cell, which
        binarizes to no region: a valid, empty vote. `on_map`, when given,
        receives the normalized map of every positive class.
        """
        pos = positive_classes(y)
        if not pos:
            raise InputError("vote: image has no positive class")
        if phi_bar.shape[1] != len(boxes):
            raise InputError(f"vote: {phi_bar.shape[1]} score columns but {len(boxes)} boxes")
        if len(phi_bar) < len(y):
            raise InputError("vote: score matrix has no row for some class")
        grids = []  # queued only once every class has voted, so a failed add leaves nothing
        for c in pos:
            candidates = select_candidates(phi_bar, boxes, c, self.config.t_score)
            likelihood = normalize(accumulate_fast(candidates, boxes, phi_bar[c], height, width, class_id=c))
            if on_map is not None:
                on_map(likelihood)
            grid = binarize(likelihood, self.config.t_b_for(c))
            grids.append((self._images, c, grid, likelihood.y_edges, likelihood.x_edges))
        self._images += 1
        self._waiting += grids
        self._cells += sum(grid.size for _, _, grid, _, _ in grids)
        if self._cells >= BATCH_CELLS:
            self._label()

    def _label(self) -> None:
        """Label every waiting grid in one pass and give each image of the
        pass its Supervision."""
        waiting = self._waiting
        rects, k = np.zeros((0, 4), dtype=np.int64), np.zeros(0, dtype=np.int64)
        if waiting:
            block = 1 + max(w[2].shape[0] for w in waiting)
            width = max(w[2].shape[1] for w in waiting)
            stacked = np.zeros((len(waiting), block, width), dtype=bool)
            for g, (_, _, grid, _, _) in enumerate(waiting):
                stacked[g, : grid.shape[0], : grid.shape[1]] = grid
            # Every grid's edges end to end, and the offset of each grid's own.
            y_edges = np.concatenate([w[3] for w in waiting])
            x_edges = np.concatenate([w[4] for w in waiting])
            y_start = np.cumsum([0] + [len(w[3]) for w in waiting])
            x_start = np.cumsum([0] + [len(w[4]) for w in waiting])
            # Rectangles in the stack's cells; a region's block is its grid.
            rects = vote_boxes(stacked.reshape(-1, width))
            k = rects[:, 1] // block
            rects[:, 0::2] = x_edges[rects[:, 0::2] + x_start[k, None]]
            rects[:, 1::2] = y_edges[rects[:, 1::2] + (y_start[k] - k * block)[:, None]]
        image = np.array([w[0] for w in waiting], dtype=np.int64)[k]
        classes = np.array([w[1] for w in waiting], dtype=np.int64)[k]
        # Regions come in grid order, so by image and then class: each
        # image's boxes are one run.
        bounds = np.searchsorted(image, np.arange(self._images + 1)).tolist()
        self._voted += [Supervision(rects[a:b], classes[a:b]) for a, b in zip(bounds, bounds[1:])]
        self._waiting, self._cells, self._images = [], 0, 0

    def supervisions(self) -> list[Supervision]:
        """One Supervision per added image, in the order they were added."""
        self._label()
        return list(self._voted)


def generate_supervision(
    phi_bar: np.ndarray,
    boxes: np.ndarray,
    y: np.ndarray,
    height: int,
    width: int,
    config: VoteConfig,
    on_map: Callable[[LikelihoodMap], None] | None = None,
) -> Supervision:
    """Vote pseudo ground-truth boxes for every positive class of an image:
    a one-image `VoteBatch`."""
    batch = VoteBatch(config)
    batch.add(phi_bar, boxes, y, height, width, on_map)
    return batch.supervisions()[0]


def write_pgm(likelihood: LikelihoodMap, path: str | Path) -> None:
    """Export a normalized map as binary PGM (P5, maxval 255, row-major).

    Pixel byte = round(255 * value). Quantization happens only here, once
    per cell; the in-memory map stays double precision. Each cell row is
    widened to the map's width in bytes and written once per pixel row it
    spans.
    """
    cells = likelihood.cells
    if not (cells.min() >= 0.0 and cells.max() <= 1.0):  # NaN fails both; the uint8 cast would wrap
        raise InputError("write_pgm: map must be normalized first")
    header = f"P5\n{likelihood.width} {likelihood.height}\n255\n".encode("ascii")
    scaled = 255.0 * cells
    quantized = np.rint(scaled, out=scaled).astype(np.uint8)
    xe, ye = likelihood.x_edges, likelihood.y_edges
    column_cell = np.repeat(np.arange(len(xe) - 1), xe[1:] - xe[:-1])
    rows = quantized.take(column_cell, axis=1)
    with open(path, "wb") as f:
        f.write(header)
        f.write(rows.repeat(ye[1:] - ye[:-1], axis=0))
