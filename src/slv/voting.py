"""Spatial likelihood voting: candidate proposals accumulate their class
scores over the pixels they cover; the normalized, thresholded map votes
minimum bounding rectangles of its connected regions as pseudo ground truth.

Two accumulation kernels are provided: a fast 2-D difference-array version
(constant work per box plus two prefix-sum passes) and a naive definitional
version used as its oracle. Both share the half-open pixel convention from
`geometry`. Their maps agree within float rounding, since they add the same
scores in different orders; a cell whose exact value is `t_b * peak` can
therefore binarize differently, and the voted boxes can differ at such ties.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, InputError
from .geometry import BinaryGrid, Box, region_boxes
from .mil import positive_classes

# PASCAL VOC 2007/2012 category names, index order used for class ids.
VOC2007_CLASSES = (
    "aeroplane", "bicycle", "bird", "boat", "bottle", "bus", "car", "cat",
    "chair", "cow", "diningtable", "dog", "horse", "motorbike", "person",
    "pottedplant", "sheep", "sofa", "train", "tvmonitor",
)


@dataclass(frozen=True)
class LikelihoodMap:
    """Per-pixel accumulation grid for one class.

    `normalized` marks maps scaled into [0, 1]; `empty` marks all-zero maps
    that had nothing to normalize.
    """

    data: np.ndarray
    class_id: int = 0
    normalized: bool = False
    empty: bool = False

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise InputError(f"LikelihoodMap must be 2-D, got shape {arr.shape}")
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


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


@dataclass(frozen=True)
class Supervision:
    """Voted pseudo ground truth: class id -> voted boxes, positive classes only."""

    boxes_by_class: dict[int, list[Box]] = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return not any(self.boxes_by_class.values())

    def classes(self) -> list[int]:
        return sorted(self.boxes_by_class)

    def all_boxes(self) -> list[tuple[int, Box]]:
        """(class_id, box) pairs, ordered by class then vote order."""
        return [(c, b) for c in self.classes() for b in self.boxes_by_class[c]]


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


# From this map width on, accumulate_fast's first prefix pass adds whole
# rows. Timed in place against a column cumsum: 0.14 against 0.23 ms on a
# 257x257 grid and 1.2 against 5.3 ms on 1201x1201, but 1.2 against 0.4 ms
# on 1201 rows of 97 columns, where the per-row call cost dominates.
ROW_PASS_WIDTH = 256


def accumulate_fast(
    candidates: np.ndarray,
    boxes: np.ndarray,
    scores: np.ndarray,
    height: int,
    width: int,
    class_id: int = 0,
) -> LikelihoodMap:
    """Sum each candidate's score over the pixels its box covers.

    Difference-array kernel: each box deposits +s/-s at its four corners on
    an (H+1)x(W+1) grid; two prefix-sum passes spread the deposits, giving
    O(H*W + len(candidates)) total work.

    On maps at least ROW_PASS_WIDTH wide, the first (down the columns)
    pass adds each row to the next with one vector add instead of a column
    cumsum, which strides a full row between elements; both add prev + cur
    in row order, so the sums are bit-identical.
    """
    s, arr = _check_accumulate_inputs(candidates, boxes, scores, height, width)
    diff = np.zeros((height + 1, width + 1), dtype=np.float64)
    x0, y0, x1, y1 = arr.T
    np.add.at(diff, (y0, x0), s)
    np.add.at(diff, (y0, x1), -s)
    np.add.at(diff, (y1, x0), -s)
    np.add.at(diff, (y1, x1), s)
    if width >= ROW_PASS_WIDTH:
        prev = diff[0]
        for row in diff[1:]:
            np.add(row, prev, out=row)
            prev = row
    else:
        np.cumsum(diff, axis=0, out=diff)
    np.cumsum(diff, axis=1, out=diff)
    acc = diff[:height, :width]
    # Cancellation can leave sub-ulp negatives where the exact value is 0.
    np.maximum(acc, 0.0, out=acc)
    return LikelihoodMap(acc, class_id=class_id)


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
    """Scale a map into [0, 1] by its maximum entry, in place.

    The map's own array is divided and returned in a map flagged
    `normalized`, so the argument's data holds the scaled values afterwards.
    An all-zero map cannot be scaled; its array is returned unchanged with
    the `empty` flag set so callers can skip voting for that class.
    """
    data = likelihood.data
    if data.size and data.min() < 0.0:
        raise InputError("normalize: map entries must be non-negative")
    peak = data.max() if data.size else 0.0
    if peak <= 0.0:
        return LikelihoodMap(data, likelihood.class_id, normalized=True, empty=True)
    np.divide(data, peak, out=data)
    return LikelihoodMap(data, likelihood.class_id, normalized=True, empty=False)


def binarize(likelihood: LikelihoodMap, t_b: float) -> BinaryGrid:
    """Cells strictly above t_b in a normalized map."""
    if not likelihood.normalized:
        raise InputError("binarize: map must be normalized first")
    if not 0.0 < t_b < 1.0:
        raise InputError(f"binarize: t_b must be in (0, 1), got {t_b}")
    return likelihood.data > t_b


def vote_boxes(grid: BinaryGrid) -> list[Box]:
    """Minimum bounding rectangles of the grid's connected regions."""
    return [Box(*rect) for rect in region_boxes(grid).tolist()]


# A batch labels its waiting binary grids once they reach this many cells,
# so one pass holds at most this plus one grid; the grids and their stacked
# copy take about one byte a cell each.
BATCH_CELLS = 1 << 22


class VoteBatch:
    """Votes of many images, with one region-labeling pass per chunk of grids.

    `add` runs an image's per-class steps at once, so a bad input raises
    while the caller still knows the image, and hands each normalized map to
    `on_map` without keeping it. The binary grids wait until `supervisions`
    (or BATCH_CELLS) and are labeled stacked in one buffer: each grid gets a
    block of Hmax + 1 rows whose last row stays blank, so regions cannot
    join across grids and keep their row-major order within each grid.
    """

    def __init__(self, config: VoteConfig) -> None:
        self.config = config
        self._voted: list[dict[int, list[Box]]] = []
        self._waiting: list[tuple[dict[int, list[Box]], int, BinaryGrid]] = []
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
        boxes. Classes with no candidate or an empty map contribute no boxes;
        that is a valid, empty vote. `on_map`, when given, receives the
        normalized map of every positive class, all-zero for a class with no
        candidate.
        """
        pos = positive_classes(y)
        if not pos:
            raise InputError("generate_supervision: image has no positive class")
        if phi_bar.shape[1] != len(boxes):
            raise InputError(
                f"generate_supervision: {phi_bar.shape[1]} score columns but {len(boxes)} boxes"
            )
        if len(phi_bar) < len(y):
            raise InputError("generate_supervision: score matrix has no row for some class")
        voted: dict[int, list[Box]] = {}
        self._voted.append(voted)
        for c in pos:
            candidates = select_candidates(phi_bar, boxes, c, self.config.t_score)
            if candidates.size == 0:
                normalized = LikelihoodMap(np.zeros((height, width)), c, normalized=True, empty=True)
            else:
                normalized = normalize(
                    accumulate_fast(candidates, boxes, phi_bar[c], height, width, class_id=c)
                )
            if on_map is not None:
                on_map(normalized)
            if not normalized.empty:
                grid = binarize(normalized, self.config.t_b_for(c))
                self._waiting.append((voted, c, grid))
                self._cells += grid.size
        if self._cells >= BATCH_CELLS:
            self._label()

    def _label(self) -> None:
        """Label every waiting grid in one pass and file the boxes by image and class."""
        if not self._waiting:
            return
        block = 1 + max(grid.shape[0] for _, _, grid in self._waiting)
        width = max(grid.shape[1] for _, _, grid in self._waiting)
        stacked = np.zeros((len(self._waiting), block, width), dtype=bool)
        for k, (_, _, grid) in enumerate(self._waiting):
            stacked[k, : grid.shape[0], : grid.shape[1]] = grid
        for b in vote_boxes(stacked.reshape(-1, width)):
            k = b.y0 // block
            voted, c, _ = self._waiting[k]
            voted.setdefault(c, []).append(Box(b.x0, b.y0 - k * block, b.x1, b.y1 - k * block))
        self._waiting = []
        self._cells = 0

    def supervisions(self) -> list[Supervision]:
        """One Supervision per added image, in the order they were added."""
        self._label()
        return [Supervision(boxes_by_class=voted) for voted in self._voted]


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


# write_pgm quantizes blocks of whole rows of about this many cells, so its
# float temporary stays small instead of matching the map (11.5 MB at
# 1200x1200), and its pages are reused rather than faulted in per map.
PGM_BLOCK_CELLS = 1 << 16


def write_pgm(likelihood: LikelihoodMap, path: str | Path) -> None:
    """Export a normalized map as binary PGM (P5, maxval 255, row-major).

    Pixel byte = round(255 * value). Quantization happens only here; the
    in-memory map stays double precision.
    """
    data = likelihood.data
    if not likelihood.normalized:
        raise InputError("write_pgm: map must be normalized first")
    header = f"P5\n{likelihood.width} {likelihood.height}\n255\n".encode("ascii")
    rows = max(1, PGM_BLOCK_CELLS // likelihood.width)
    with open(path, "wb") as f:
        f.write(header)
        for start in range(0, likelihood.height, rows):
            scaled = 255.0 * data[start : start + rows]
            f.write(np.rint(scaled, out=scaled).astype(np.uint8, order="C"))
