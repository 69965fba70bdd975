"""Seeded synthetic scenes for desk-scale verification.

Each object carries a hidden "discriminative part", a sub-rectangle
covering 20-35% of its area. With probability `part_bias` the score model
puts the single highest proposal score on a part proposal while the full
extent still holds more aggregate score mass, reproducing the failure mode
where picking the top proposal localizes only the part. Proposal features
encode noisy geometry plus a per-class overlap signal so a linear scorer
can learn from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .datasets import MAX_IMAGE_SIDE, Dataset, DatasetRecord
from .geometry import Box, boxes_to_array, iou_matrix

# Score model constants: full-extent proposals hold more total mass than
# part proposals (so voting recovers the extent) while a dominant part's
# single score tops every full score (so argmax picks the part).
_FULL_SCORE = 0.06
_PART_SCORE_DOMINANT = 0.10
_PART_SCORE_WEAK = 0.004  # below the cluster center floor
_SCORE_WOBBLE = 0.2
_NOISE_SCORE_MAX = 0.0008  # below the default candidate threshold
_CONTEXT_SCORE_RANGE = (0.0005, 0.003)
_PART_FRACTION = (0.20, 0.35)
_CONTEXT_SHARE = 0.15
_PART_SHARE = 0.25  # of each object's proposal budget

# Caps checked before anything is allocated. A record holds a classes x
# proposals score matrix and (5 + classes) features per proposal, so at both
# caps each of them takes 80 MB. A run builds all its records in memory
# before it writes the dataset.
MAX_CLASSES = 1000
MAX_PROPOSALS = 10000
MAX_IMAGES = 10000


@dataclass(frozen=True)
class SyntheticSceneConfig:
    num_images: int = 50
    image_size: int = 96
    num_classes: int = 3
    objects_per_image: int = 2
    proposals_per_image: int = 40
    jitter: float = 0.05
    part_bias: float = 0.9
    feature_noise: float = 0.05

    def __post_init__(self) -> None:
        if not 0 < self.num_images <= MAX_IMAGES:
            raise ConfigError(f"synthetic config: need num_images in [1, {MAX_IMAGES}], got {self.num_images}")
        if not 16 <= self.image_size <= MAX_IMAGE_SIDE:
            raise ConfigError(f"synthetic config: need image_size in [16, {MAX_IMAGE_SIDE}], got {self.image_size}")
        if not 0 < self.num_classes <= MAX_CLASSES:
            raise ConfigError(f"synthetic config: need num_classes in [1, {MAX_CLASSES}], got {self.num_classes}")
        if self.objects_per_image <= 0:
            raise ConfigError("synthetic config: need positive objects_per_image")
        if not self.objects_per_image * 4 <= self.proposals_per_image <= MAX_PROPOSALS:
            raise ConfigError(
                f"synthetic config: need at least 4 proposals per object and at most {MAX_PROPOSALS}"
                f" per image, got {self.proposals_per_image}"
            )
        if not 0.0 <= self.part_bias <= 1.0:
            raise ConfigError(f"synthetic config: part_bias must be in [0, 1], got {self.part_bias}")
        if not (0.0 <= self.jitter <= 1.0 and 0.0 <= self.feature_noise < math.inf):  # also rejects NaN
            raise ConfigError("synthetic config: jitter must be in [0, 1] and feature_noise finite and >= 0")

    @property
    def feature_dim(self) -> int:
        return 5 + self.num_classes


def _sample_object_boxes(rng: np.random.Generator, config: SyntheticSceneConfig) -> list[Box]:
    """Ground-truth boxes, pairwise separated so voted regions stay apart."""
    size = config.image_size
    margin = max(3, int(round(4 * config.jitter * size)))
    boxes: list[Box] = []
    for _ in range(config.objects_per_image):
        for _attempt in range(60):
            w = int(rng.integers(int(0.22 * size), int(0.42 * size) + 1))
            h = int(rng.integers(int(0.22 * size), int(0.42 * size) + 1))
            x0 = int(rng.integers(0, size - w + 1))
            y0 = int(rng.integers(0, size - h + 1))
            candidate = Box(x0, y0, x0 + w, y0 + h)
            grown = (x0 - margin, y0 - margin, x0 + w + margin, y0 + h + margin)
            clash = any(
                not (grown[2] <= b.x0 or b.x1 <= grown[0] or grown[3] <= b.y0 or b.y1 <= grown[1])
                for b in boxes
            )
            if not clash:
                boxes.append(candidate)
                break
        # A crowded image simply gets fewer objects; never an error.
    return boxes


def _part_box(rng: np.random.Generator, obj: Box) -> Box:
    frac = rng.uniform(*_PART_FRACTION)
    aspect = rng.uniform(0.85, 1.18)
    w = max(1, min(obj.width - 1, int(round(obj.width * math.sqrt(frac * aspect)))))
    h = max(1, min(obj.height - 1, int(round(obj.height * math.sqrt(frac / aspect)))))
    x0 = obj.x0 + int(rng.integers(0, obj.width - w + 1))
    y0 = obj.y0 + int(rng.integers(0, obj.height - h + 1))
    return Box(x0, y0, x0 + w, y0 + h)


def _jitter_boxes(
    rng: np.random.Generator, box: Box, n: int, jitter: float, size: int
) -> np.ndarray:
    """n jittered copies of a box as an (n, 4) int64 array of (x0, y0, x1, y1).

    Each copy draws (dx0, dx1, dy0, dy1) in that order, fractions of the
    box width and height; edges round half to even and clamp to the image.
    """
    if jitter == 0.0:
        return np.tile(np.array(box.as_tuple(), dtype=np.int64), (n, 1))
    delta = rng.uniform(-jitter, jitter, size=(n, 4)) * [box.width, box.width, box.height, box.height]
    x0, x1, y0, y1 = np.rint([box.x0, box.x1, box.y0, box.y1] + delta).astype(np.int64).T
    x0 = np.clip(x0, 0, size - 1)
    y0 = np.clip(y0, 0, size - 1)
    x1 = np.minimum(np.maximum(x1, x0 + 1), size)
    y1 = np.minimum(np.maximum(y1, y0 + 1), size)
    return np.stack([x0, y0, x1, y1], axis=1)


def _random_box(rng: np.random.Generator, size: int) -> tuple[int, int, int, int]:
    w = int(rng.integers(max(2, size // 12), max(3, size // 3)))
    h = int(rng.integers(max(2, size // 12), max(3, size // 3)))
    x0 = int(rng.integers(0, size - w + 1))
    y0 = int(rng.integers(0, size - h + 1))
    return x0, y0, x0 + w, y0 + h


def generate_synthetic(config: SyntheticSceneConfig, seed: int) -> Dataset:
    """Deterministic synthetic dataset with ground truth, features, and
    the built-in biased score model baked into each record."""
    rng = np.random.default_rng(seed)
    size = config.image_size
    records: list[DatasetRecord] = []
    for idx in range(config.num_images):
        objects = _sample_object_boxes(rng, config)
        classes = [int(rng.integers(config.num_classes)) for _ in objects]
        parts = [_part_box(rng, obj) for obj in objects]
        dominant = [bool(rng.random() < config.part_bias) for _ in objects]

        n_context = max(1, int(round(_CONTEXT_SHARE * config.proposals_per_image)))
        budget = config.proposals_per_image - n_context
        shares = [budget // len(objects)] * len(objects)
        shares[0] += budget - sum(shares)

        groups: list[np.ndarray] = []
        owner_class: list[int] = []  # score row of each object-owned proposal
        owner_base: list[float] = []  # its base score
        for obj, part, c, dom, n_obj in zip(objects, parts, classes, dominant, shares):
            n_part = max(1, int(round(_PART_SHARE * n_obj)))
            n_full = n_obj - n_part
            groups.append(_jitter_boxes(rng, obj, n_full, config.jitter, size))
            groups.append(_jitter_boxes(rng, part, n_part, config.jitter, size))
            owner_class += [c] * n_obj
            owner_base += [_FULL_SCORE] * n_full
            owner_base += [_PART_SCORE_DOMINANT if dom else _PART_SCORE_WEAK] * n_part
        groups.append(np.array([_random_box(rng, size) for _ in range(n_context)], dtype=np.int64))
        boxes = np.concatenate(groups)

        labels = np.zeros(config.num_classes, dtype=np.int64)
        for c in classes:
            labels[c] = 1
        positive = np.flatnonzero(labels).tolist()

        num = len(boxes)
        n_owned = num - n_context
        scores = rng.uniform(0.0, _NOISE_SCORE_MAX, size=(config.num_classes, num))
        wobble = 1.0 + rng.uniform(-_SCORE_WOBBLE, _SCORE_WOBBLE, size=n_owned)
        scores[owner_class, np.arange(n_owned)] = np.array(owner_base) * wobble
        context = rng.uniform(*_CONTEXT_SCORE_RANGE, size=(n_context, len(positive)))
        scores[positive, n_owned:] = context.T

        x0, y0, x1, y1 = boxes.T
        features = np.zeros((num, config.feature_dim))
        features[:, 0] = 1.0
        features[:, 1] = (x0 + x1) / 2.0 / size
        features[:, 2] = (y0 + y1) / 2.0 / size
        features[:, 3] = [math.log(w / size) for w in (x1 - x0).tolist()]
        features[:, 4] = [math.log(h / size) for h in (y1 - y0).tolist()]
        overlaps = iou_matrix(boxes, boxes_to_array(objects))
        for c in range(config.num_classes):
            overlap = overlaps[:, np.asarray(classes) == c].max(axis=1, initial=0.0)
            noisy = overlap + rng.normal(0.0, config.feature_noise, size=num)
            features[:, 5 + c] = np.clip(noisy, 0.0, 1.0)

        gt_objects: dict[int, list[Box]] = {}
        for obj, c in zip(objects, classes):
            gt_objects.setdefault(c, []).append(obj)

        records.append(
            DatasetRecord(
                image_id=f"synth-{idx:04d}",
                height=size,
                width=size,
                labels=labels,
                proposals=boxes,
                features=features,
                scores=scores,
                gt_boxes={c: boxes_to_array(objs) for c, objs in gt_objects.items()},
            )
        )
    return Dataset(
        records=records,
        num_classes=config.num_classes,
        feature_dim=config.feature_dim,
    )
