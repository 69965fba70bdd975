"""Spatial likelihood voting: candidate proposals accumulate their class
scores over the pixels they cover; the normalized, thresholded map votes
minimum bounding rectangles of its connected regions as pseudo ground truth.

A sum of box indicators is constant between the boxes' distinct edges, so
a map is held as the cells of the grid those edges cut, not as pixels:
accumulation, normalization, binarization and region labeling all run on
cells, and pixels are built only for the heatmap bytes. Boxes follow the
half-open pixel convention from `geometry`.

A `VoteBatch` votes many images. `add` runs the per-map steps one map at a
time and returns the maps; `queue` defers them to stacked passes that vote
many maps in one numpy pass (`_vote_stack`). Both reach the same sums
through `_spread`, so they vote the same boxes byte for byte.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Iterator, Mapping
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
    height and width.
    """

    cells: np.ndarray
    y_edges: np.ndarray
    x_edges: np.ndarray
    class_id: int = 0

    def __post_init__(self) -> None:
        arr = np.asarray(self.cells, dtype=np.float64)
        if arr.ndim != 2:
            raise InputError(f"LikelihoodMap must be 2-D, got shape {arr.shape}")
        object.__setattr__(self, "cells", arr)
        rows, cols = arr.shape
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
        if not _sum_fits(top, candidates.size):
            with np.errstate(over="ignore"):
                if not picked.sum() <= sys.float_info.max / 4:
                    raise InputError("accumulate: candidate scores are too large to sum")
    arr = boxes[candidates]
    outside = _outside(arr, height, width)
    if outside.size:
        b = tuple(arr[outside[0]].tolist())
        raise InputError(f"accumulate: box {b} exceeds the {height}x{width} image; clip first")
    return picked, arr


def _sum_fits(top: float, count: int) -> bool:
    """Whether `count` scores of at most `top` sum, with room to spare,
    within `_check_accumulate_inputs`' bound: K * max <= max / 8. False
    for an infinite or NaN `top`."""
    return top * count <= sys.float_info.max / 8


def _outside(arr: np.ndarray, height: int, width: int) -> np.ndarray:
    """Rows of a (K, 4) box array that reach past a height x width image."""
    return np.flatnonzero((arr[:, 2] > width) | (arr[:, 3] > height))


def _check_classes(rows: np.ndarray, boxes: np.ndarray, t_score: float, height: int, width: int) -> None:
    """`_check_accumulate_inputs` for the candidates of each class row of
    one image, in order, unless its rules hold for the whole image at once,
    so that none can fail. Candidates score above t_score > 0, so they are
    non-negative, and they index `boxes`, whose length `_check_image` holds
    to the score columns. Every class's top candidate score times its
    candidate count is at most the largest entry times the entry count, so
    `_sum_fits` of that rules out an infinite score and a too-large sum (a
    NaN entry fails it). No box past the image puts no candidate box past
    it."""
    top = float(rows.max(initial=0.0))
    if height > 0 and width > 0 and _sum_fits(top, rows.size) and not _outside(boxes, height, width).size:
        return
    for row in rows:
        _check_accumulate_inputs(np.flatnonzero(row > t_score), boxes, row, height, width)


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
    edges, and two prefix-sum passes (`np.add.accumulate`, which `np.cumsum`
    calls) spread the deposits over the cells between them, giving
    O(Ey*Ex + H + W + len(candidates)) total work. One `np.bincount` over
    the flat corner cells makes every deposit: the top-left corners in
    candidate order, then the top-right, bottom-left and bottom-right
    ones, which is the order of four `np.add.at` calls, so each cell gets
    the same additions in the same order.

    The bits are those of the same kernel on the (H+1)x(W+1) pixel grid:
    there, every row and column between two edges holds no deposit, so
    its prefix step adds an exact 0.0 to the carried sum, and every other
    addition is the same addition in the same order.
    """
    s, arr = _check_accumulate_inputs(candidates, boxes, scores, height, width)
    x0, y0, x1, y1 = arr.T
    y_edges, y_index = _cell_index(y0, y1, height)
    x_edges, x_index = _cell_index(x0, x1, width)
    shape = (len(y_edges), len(x_edges))
    top, bottom = y_index[y0] * shape[1], y_index[y1] * shape[1]
    left, right = x_index[x0], x_index[x1]
    diff = _spread(top, bottom, left, right, s, shape)
    return LikelihoodMap(diff[:-1, :-1], y_edges, x_edges, class_id)


def _spread(
    top: np.ndarray, bottom: np.ndarray, left: np.ndarray, right: np.ndarray, s: np.ndarray, shape: tuple[int, ...]
) -> np.ndarray:
    """The difference-array sums of a grid of edges, or of a stack of them:
    box k deposits +s[k] at flat cells `top + left` and `bottom + right` and
    -s[k] at `top + right` and `bottom + left` of a zero array of `shape`,
    in one `np.bincount` (the top-left corners in box order, then the
    top-right, bottom-left and bottom-right ones); prefix sums along the
    last two axes spread the deposits over the cells, and the result is
    clamped at 0. The one place these additions are decided: each cell's
    sums run in the same order on a lone grid and in a stack."""
    corners = np.concatenate([top + left, top + right, bottom + left, bottom + right])
    diff = np.bincount(corners, np.concatenate([s, -s, -s, s]), math.prod(shape))
    diff = diff.astype(np.float64, copy=False).reshape(shape)  # no candidates give int64 zeros
    np.add.accumulate(diff, axis=-2, out=diff)
    np.add.accumulate(diff, axis=-1, out=diff)
    # Cancellation can leave sub-ulp negatives where the exact value is 0.
    np.maximum(diff, 0.0, out=diff)
    return diff


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
# copy take about one byte a cell each. A queued map counts as its H x W
# pixels, which bound its cells.
BATCH_CELLS = 1 << 22

# A stacked pass over queued maps pads each map to the pass's largest
# height and width, and holds at most this many padded (H + 1) x (W + 1)
# grid points, which bound its float64 cells: at most 16 MB of sums and
# 2 MB of binary cells. So a 1200 px map (1.44M points) takes a pass alone,
# as does any map past the budget.
STACK_CELLS = 1 << 21


def _check_image(phi_bar: np.ndarray, boxes: np.ndarray, classes: list[int]) -> None:
    """The checks a vote makes once per image, before any class."""
    if not classes:
        raise InputError("vote: image has no positive class")
    if phi_bar.shape[1] != len(boxes):
        raise InputError(f"vote: {phi_bar.shape[1]} score columns but {len(boxes)} boxes")
    if len(phi_bar) <= max(classes):
        raise InputError("vote: score matrix has no row for some class")


def _stack_index(lo: np.ndarray, hi: np.ndarray, owner: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_cell_index` for M maps at once along one axis: every map's distinct
    edges end to end, the number each map has, and the (M, S+1) edge index
    of each coordinate, S the largest size. `owner[k]` is the map of the
    box with sides `lo[k]` and `hi[k]`; a map's row is cleared past its
    own size."""
    maps = np.arange(len(sizes))
    mask = np.zeros((len(sizes), int(sizes.max()) + 1), dtype=bool)
    mask[owner, lo] = True
    mask[owner, hi] = True
    mask[:, 0] = True
    mask[maps, sizes] = True
    index = np.add.accumulate(mask, axis=1, dtype=np.intp)
    index -= 1
    return mask.nonzero()[1], index[maps, sizes] + 1, index


def _vote_stack(
    owner: np.ndarray, arr: np.ndarray, s: np.ndarray, heights: np.ndarray, widths: np.ndarray, t_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """M maps voted in one pass: what `binarize` gives after
    `normalize(accumulate_fast(...))` on each, bit for bit.

    Map m has the candidate boxes `arr[owner == m]` with scores
    `s[owner == m]` (`owner` non-decreasing), a `heights[m]` x `widths[m]`
    image and threshold `t_b[m]`. The maps are stacked on one zero grid of
    the largest edge counts and deposited in one `_spread` call; maps never
    share a cell, so each cell takes the one-map kernel's additions in its
    order. The prefix sums carry sub-ulp remainders past a map's last
    cell, so the padding is zeroed before each map's peak is taken; a map
    divides by its peak, by 1.0 when it is all zero, which changes no bit.

    Returns the (M, Ey, Ex) binary stack, which holds map m's cell grid at
    `[m, :ey[m] - 1, :ex[m] - 1]` and False elsewhere, and every map's
    edges end to end with their counts `ey` and `ex`, per axis.
    """
    x0, y0, x1, y1 = arr.T
    y_edges, ey, y_index = _stack_index(y0, y1, owner, heights)
    x_edges, ex, x_index = _stack_index(x0, x1, owner, widths)
    shape = (len(heights), int(ey.max()), int(ex.max()))
    base = owner * (shape[1] * shape[2])
    top, bottom = base + y_index[owner, y0] * shape[2], base + y_index[owner, y1] * shape[2]
    cells = _spread(top, bottom, x_index[owner, x0], x_index[owner, x1], s, shape)
    cells[np.arange(shape[1]) >= ey[:, None] - 1] = 0.0  # each map's last edge row and the rows past it
    cells.transpose(0, 2, 1)[np.arange(shape[2]) >= ex[:, None] - 1] = 0.0  # and its columns
    peak = cells.max(axis=(1, 2))
    peak[~(peak > 0.0)] = 1.0
    cells /= peak[:, None, None]
    return cells > t_b[:, None, None], y_edges, ey, x_edges, ex


def _passes(heights: list[int], widths: list[int]) -> list[int]:
    """Where stacked passes over maps of these sizes start, in order, and
    the end: each pass as long as its padded grid points fit STACK_CELLS."""
    starts, start, tall, wide = [0], 0, 0, 0
    for m, (h, w) in enumerate(zip(heights, widths)):
        tall, wide = max(tall, h + 1), max(wide, w + 1)
        if m > start and (m + 1 - start) * tall * wide > STACK_CELLS:
            starts.append(m)
            start, tall, wide = m, h + 1, w + 1
    return starts + [len(heights)]


def _regions(
    stack: np.ndarray, y_edges: np.ndarray, ey: np.ndarray, x_edges: np.ndarray, ex: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pixel rectangles of the regions of a (G, block, width) stack of cell
    grids, in one labeling pass, and the grid of each. Grid g's cells cut
    its image at its `ey[g]` y edges and `ex[g]` x edges, which come end to
    end in `y_edges` and `x_edges`; the last row of every block must be
    blank, so regions cannot join across grids and keep their row-major
    order within each grid. A region's cells are 8-connected exactly when
    its pixels are, so one gather through the edges turns its cell
    rectangle into pixels."""
    block, width = stack.shape[1:]
    rects = vote_boxes(stack.reshape(-1, width))
    k = rects[:, 1] // block
    y_start, x_start = np.cumsum(ey) - ey, np.cumsum(ex) - ex
    rects[:, 0::2] = x_edges[rects[:, 0::2] + x_start[k, None]]
    rects[:, 1::2] = y_edges[rects[:, 1::2] + (y_start[k] - k * block)[:, None]]
    return rects, k


class VoteBatch:
    """Votes of many images, with one region-labeling pass per chunk of grids.

    Two entry points take an image. Both make every check of the per-class
    steps for the image at once, so a bad input raises while the caller
    still knows the image, with the same error, and leaves the batch as it
    was.
    - `add` runs the image's per-class steps at once and returns its
      normalized maps without keeping them, for heatmaps. The binary grids
      wait until `supervisions` (or BATCH_CELLS) and are labeled stacked in
      one buffer, each in a block of Hmax + 1 rows.
    - `queue` keeps only what the image's maps need. When the batch labels,
      every queued (image, class) map is voted in stacked passes of at
      most STACK_CELLS padded cells (`_vote_stack`), with no per-map call,
      and each pass's binary stack is labeled as it stands.
    The images' boxes come out in the order the images came in, whichever
    entry point took them.
    """

    def __init__(self, config: VoteConfig) -> None:
        self.config = config
        self._voted: list[Supervision] = []
        self._images = 0  # images added or queued since the last labeling pass
        # (image, counted from the last pass; class; cell grid; its y edges; its x edges)
        self._waiting: list[tuple[int, int, BinaryGrid, np.ndarray, np.ndarray]] = []
        # (image; classes; their t_b; height; width; class rows; their candidate masks; boxes)
        self._queued: list[tuple[int, list[int], list[float], int, int, np.ndarray, np.ndarray, np.ndarray]] = []
        self._cells = 0

    def add(
        self,
        phi_bar: np.ndarray,
        boxes: np.ndarray,
        classes: list[int],
        height: int,
        width: int,
    ) -> list[LikelihoodMap]:
        """Vote every positive class of one image, `classes` in increasing
        order as `mil.positive_classes` gives them, and return the
        normalized map of each, in class order.

        Per class: filter candidates by t_score, accumulate their scores
        spatially, normalize, and binarize at the class threshold; the
        bounding rectangles of the surviving regions are the class's voted
        boxes. A class with no candidate accumulates one zero cell, which
        binarizes to no region: a valid, empty vote. A failed add returns
        nothing and leaves the batch as it was.
        """
        _check_image(phi_bar, boxes, classes)
        maps, grids = [], []  # grids queue only once every class has voted, so a failed add leaves nothing
        for c in classes:
            candidates = select_candidates(phi_bar, boxes, c, self.config.t_score)
            likelihood = normalize(accumulate_fast(candidates, boxes, phi_bar[c], height, width, class_id=c))
            grid = binarize(likelihood, self.config.t_b_for(c))
            maps.append(likelihood)
            grids.append((self._images, c, grid, likelihood.y_edges, likelihood.x_edges))
        self._images += 1
        self._waiting += grids
        self._cells += sum(grid.size for _, _, grid, _, _ in grids)
        if self._cells >= BATCH_CELLS:
            self._label()
        return maps

    def queue(
        self,
        phi_bar: np.ndarray,
        boxes: np.ndarray,
        classes: list[int],
        height: int,
        width: int,
    ) -> None:
        """Vote every positive class of one image as `add` does, but keep
        the image's class rows, candidate masks and `boxes` until the batch
        labels, and return nothing.

        Raises what `add` would raise on the same image: its image checks,
        then `accumulate_fast`'s checks of the first class that fails them,
        and a failed queue leaves the batch as it was. `_check_classes`
        passes the image at once when no class's check can fail.
        """
        _check_image(phi_bar, boxes, classes)
        rows = phi_bar[classes]
        _check_classes(rows, boxes, self.config.t_score, height, width)
        t_b = [self.config.t_b_for(c) for c in classes]
        self._queued.append((self._images, classes, t_b, height, width, rows, rows > self.config.t_score, boxes))
        self._images += 1
        self._cells += len(classes) * height * width
        if self._cells >= BATCH_CELLS:
            self._label()

    def _vote_queued(self) -> Iterator[tuple[np.ndarray, np.ndarray, tuple]]:
        """Each stacked pass over the queued maps, in map order: its maps'
        images and classes, and `_regions`' arguments. Every image's
        candidates are found in one pass over the class rows laid end to
        end: by image, class, then box."""
        queued, self._queued = self._queued, []
        if not queued:
            return
        maps = np.array([len(q[1]) for q in queued])
        proposals = np.array([len(q[7]) for q in queued])
        ends = np.cumsum(maps * proposals)
        picked = np.flatnonzero(np.concatenate([q[6].ravel() for q in queued]))
        of = np.searchsorted(ends, picked, side="right")  # each candidate's image
        row, box = np.divmod(picked - (ends - maps * proposals)[of], proposals[of])
        owner = (np.cumsum(maps) - maps)[of] + row
        arr = np.concatenate([q[7] for q in queued])[(np.cumsum(proposals) - proposals)[of] + box]
        s = np.concatenate([q[5].ravel() for q in queued], dtype=np.float64)[picked]
        image = np.repeat([q[0] for q in queued], maps)
        classes = np.array([c for q in queued for c in q[1]], dtype=np.int64)
        t_b = np.array([t for q in queued for t in q[2]])
        heights = np.repeat([q[3] for q in queued], maps)
        widths = np.repeat([q[4] for q in queued], maps)
        starts = _passes(heights.tolist(), widths.tolist())
        cuts = np.searchsorted(owner, starts).tolist()
        for a, b, ka, kb in zip(starts, starts[1:], cuts, cuts[1:]):
            stack = _vote_stack(owner[ka:kb] - a, arr[ka:kb], s[ka:kb], heights[a:b], widths[a:b], t_b[a:b])
            yield image[a:b], classes[a:b], stack

    def _stack_waiting(self) -> Iterator[tuple[np.ndarray, np.ndarray, tuple]]:
        """The added grids as one stack, as `_vote_queued` gives a pass."""
        waiting, self._waiting = self._waiting, []
        if not waiting:
            return
        stack = np.zeros((len(waiting), 1 + max(w[2].shape[0] for w in waiting), max(w[2].shape[1] for w in waiting)), dtype=bool)
        for g, (_, _, grid, _, _) in enumerate(waiting):
            stack[g, : grid.shape[0], : grid.shape[1]] = grid
        edges = [(np.concatenate([w[a] for w in waiting]), np.array([len(w[a]) for w in waiting])) for a in (3, 4)]
        image, classes = (np.array([w[a] for w in waiting], dtype=np.int64) for a in (0, 1))
        yield image, classes, (stack, *edges[0], *edges[1])

    def _label(self) -> None:
        """Label every waiting and queued grid, one pass per stack, and give
        each image since the last call its Supervision."""
        rects, image, classes = [np.zeros((0, 4), dtype=np.int64)], [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        for grid_image, grid_class, stack in itertools.chain(self._vote_queued(), self._stack_waiting()):
            found, k = _regions(*stack)
            rects.append(found)
            image.append(grid_image[k])
            classes.append(grid_class[k])
        # Regions come in grid order, so by image and then class within each
        # entry point: a stable sort by image makes each image's boxes one run.
        image = np.concatenate(image)
        order = np.argsort(image, kind="stable")
        rects, classes = np.concatenate(rects)[order], np.concatenate(classes)[order]
        bounds = np.searchsorted(image[order], np.arange(self._images + 1)).tolist()
        self._voted += [Supervision(rects[a:b], classes[a:b]) for a, b in zip(bounds, bounds[1:])]
        self._cells, self._images = 0, 0

    def supervisions(self) -> list[Supervision]:
        """One Supervision per added or queued image, in the order they came."""
        self._label()
        return list(self._voted)


def generate_supervision(
    phi_bar: np.ndarray,
    boxes: np.ndarray,
    y: np.ndarray,
    height: int,
    width: int,
    config: VoteConfig,
) -> Supervision:
    """Vote pseudo ground-truth boxes for every positive class of an image:
    a one-image `VoteBatch`."""
    batch = VoteBatch(config)
    batch.add(phi_bar, boxes, positive_classes(y), height, width)
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
