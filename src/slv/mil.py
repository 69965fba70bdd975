"""Two-stream proposal scoring, the image-level loss, and cluster refinement.

Score matrices are plain (C, N) float64 arrays: rows are classes, columns
are proposals. Matrices with a background row keep it as the LAST row.
Callers pass finite matrices (the dataset loader, the scorer heads and the
trainer's logits each check theirs); the function that makes a matrix
documents its normalization. All log arguments are clamped to
[PROB_EPS, 1 - PROB_EPS] so losses stay finite on saturated inputs;
gradients are zero inside the clamped region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .geometry import iou_matrix

PROB_EPS = 1e-8

# A seed absorbs every unassigned proposal whose IoU with it reaches
# CLUSTER_IOU. Proposals scoring below CLUSTER_CENTER_FLOOR for a class never
# seed a new cluster; keeps noise from spawning one singleton cluster per proposal.
CLUSTER_IOU = 0.5
CLUSTER_CENTER_FLOOR = 0.01


def positive_classes(y: np.ndarray) -> list[int]:
    """Indices of positive labels in a binary image-label vector.

    Every entry must compare equal to 0 or 1 (ints, bools and floats do; NaN,
    strings and other objects do not). Two comparisons, not `np.isin`, since
    this runs on every clustering and vote call.
    """
    y = np.asarray(y)
    ones = y == 1
    if y.ndim != 1 or not (ones | (y == 0)).all():
        raise InputError("image label must be a 1-D vector of 0/1 entries")
    return np.flatnonzero(ones).tolist()


def _softmax(arr: np.ndarray, axis: int) -> np.ndarray:
    # Max-subtraction may legitimately hit -inf for saturated logits;
    # exp(-inf) = 0 is the correct limit, so silence the overflow warning.
    with np.errstate(over="ignore"):
        shifted = arr - arr.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_over_classes(x: np.ndarray) -> np.ndarray:
    """Softmax each column over classes; columns of the result sum to 1."""
    return _softmax(x, axis=0)


def softmax_over_proposals(x: np.ndarray) -> np.ndarray:
    """Softmax each row over proposals; rows of the result sum to 1."""
    return _softmax(x, axis=1)


def softmax_backward(probs: np.ndarray, grad_probs: np.ndarray, axis: int) -> np.ndarray:
    """Gradient of a softmax output back to its logits along `axis`."""
    inner = (grad_probs * probs).sum(axis=axis, keepdims=True)
    return probs * (grad_probs - inner)


def wsddn_scores(sigma_cls: np.ndarray, sigma_det: np.ndarray) -> np.ndarray:
    """Entrywise product of the classification stream (softmax over
    classes) and the detection stream (softmax over proposals)."""
    if sigma_cls.shape != sigma_det.shape:
        raise InputError(
            f"wsddn_scores: shape mismatch {sigma_cls.shape} vs {sigma_det.shape}"
        )
    return sigma_cls * sigma_det


def image_scores(phi0: np.ndarray) -> np.ndarray:
    """Per-class image scores: sum the wsddn_scores product over proposals."""
    return phi0.sum(axis=1)


def mil_loss(phi: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Binary cross-entropy of image scores against the image label.

    Returns (loss, gradient wrt phi). Entries of phi must lie in [0, 1]
    before clamping.
    """
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


@dataclass(frozen=True)
class Cluster:
    """One foreground proposal cluster: spatially adjacent, same class."""

    label: int
    members: tuple[int, ...]
    score: float  # confidence, the center proposal's class score

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ClusterSet:
    """A partition of all proposals into foreground clusters plus background."""

    clusters: tuple[Cluster, ...]
    background: tuple[int, ...]
    background_weights: np.ndarray  # aligned with `background`, in [0, 1]
    num_proposals: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "background_weights", np.asarray(self.background_weights, dtype=np.float64)
        )
        assert len(self.background) == len(self.background_weights)


def build_clusters(
    scores: np.ndarray,
    boxes: np.ndarray,
    y: np.ndarray,
    ious: np.ndarray | None = None,
) -> ClusterSet:
    """Greedy proposal clustering around high-scoring centers.

    Simplified scheme (the full graph-based cluster generation is out of
    scope): per positive class, the highest-scoring unassigned proposal
    seeds a cluster and absorbs every unassigned proposal whose IoU with
    it reaches CLUSTER_IOU; seeding stops below CLUSTER_CENTER_FLOOR.
    Leftover proposals form the background cluster, each weighted by one
    minus its best positive-class score.

    Each seed's IoU row is read from `ious`, the boxes' (N, N)
    `iou_matrix(boxes, boxes)`, when given (a trainer that clusters the same
    proposals many times computes it once); otherwise the row is computed
    for that seed alone. Both give the same clusters.
    """
    pos = positive_classes(y)
    if not pos:
        raise InputError("build_clusters: image has no positive class")
    num = len(boxes)
    if scores.shape[1] != num:
        raise InputError(f"build_clusters: {scores.shape[1]} score columns but {num} boxes")
    if len(scores) < max(pos) + 1:
        raise InputError("build_clusters: score matrix has no row for some positive class")
    if ious is not None and ious.shape != (num, num):
        raise InputError(f"build_clusters: IoU matrix of shape {ious.shape} for {num} boxes")
    unassigned = np.ones(num, dtype=bool)
    clusters: list[Cluster] = []
    for c in pos:
        candidates = np.where(unassigned, scores[c], -np.inf)
        while candidates.size:
            # The first maximum: highest score, then lowest index. An assigned
            # center means no proposal is left.
            center = int(candidates.argmax())
            if not unassigned[center] or scores[c, center] < CLUSTER_CENTER_FLOOR:
                break
            row = iou_matrix(boxes[center : center + 1], boxes)[0] if ious is None else ious[center]
            members = np.flatnonzero(unassigned & (row >= CLUSTER_IOU))
            unassigned[members] = False
            candidates[members] = -np.inf
            clusters.append(Cluster(label=c, members=tuple(members.tolist()), score=float(scores[c, center])))
    background = np.flatnonzero(unassigned)
    return ClusterSet(
        clusters=tuple(clusters),
        background=tuple(background.tolist()),
        background_weights=np.clip(1.0 - scores[pos][:, background].max(axis=0), 0.0, 1.0),
        num_proposals=num,
    )


def refinement_loss(phi_k: np.ndarray, clusters: ClusterSet) -> tuple[float, np.ndarray]:
    """Weighted cross-entropy over proposal clusters.

    phi_k must carry a trailing background row. Foreground clusters
    contribute their confidence-and-size-weighted log mean member score;
    background proposals contribute their weighted log background score.
    Returns (loss, gradient wrt phi_k entries).
    """
    num = clusters.num_proposals
    if num == 0:
        raise InputError("refinement_loss: no proposals to average over")
    if phi_k.shape[1] != num:
        raise InputError(f"refinement_loss: {phi_k.shape[1]} score columns but {num} proposals")
    if len(phi_k) < 2:
        raise InputError("refinement_loss: matrix needs class rows plus a background row")
    bg_row = len(phi_k) - 1
    cs = clusters.clusters
    # Clusters before the first one without a class row are checked first, so
    # an error names the first bad cluster.
    ok = next((n for n, c in enumerate(cs) if c.label >= bg_row), len(cs))
    labels = np.array([c.label for c in cs[:ok]], dtype=np.int64)
    sizes = np.array([c.size for c in cs[:ok]], dtype=np.int64)
    means = np.array([phi_k[c.label, c.members].sum() for c in cs[:ok]], dtype=np.float64) / sizes
    bad = np.flatnonzero(np.isnan(means))
    if bad.size:
        raise NumericalError(f"refinement_loss: bad log argument in cluster {bad[0]}")
    if ok < len(cs):
        raise InputError(f"refinement_loss: cluster {ok} labeled {cs[ok].label} has no row")
    background = np.array(clusters.background, dtype=np.int64)
    p = phi_k[bg_row, background]
    bad = np.flatnonzero(np.isnan(p))
    if bad.size:
        raise NumericalError(
            f"refinement_loss: bad log argument for background proposal {background[bad[0]]}"
        )
    scores = np.array([c.score for c in cs], dtype=np.float64)
    weights = clusters.background_weights
    cluster_terms = scores * sizes * np.log(np.clip(means, PROB_EPS, 1.0 - PROB_EPS))
    total = 0.0
    # Added one by one, clusters then background: np.sum would sum pairwise.
    for v in np.concatenate([cluster_terms, weights * np.log(np.clip(p, PROB_EPS, 1.0 - PROB_EPS))]).tolist():
        total += v
    grad = np.zeros_like(phi_k)
    hit = np.flatnonzero((PROB_EPS < means) & (means < 1.0 - PROB_EPS))
    cols = [r for n in hit.tolist() for r in cs[n].members]
    grad[np.repeat(labels[hit], sizes[hit]), cols] -= np.repeat(scores[hit] / (num * means[hit]), sizes[hit])
    inside = (PROB_EPS < p) & (p < 1.0 - PROB_EPS)
    grad[bg_row, background[inside]] -= weights[inside] / (num * p[inside])
    return -total / num, grad


def average_refined_scores(*matrices: np.ndarray) -> np.ndarray:
    """Entrywise mean of same-shape score matrices."""
    if not matrices:
        raise InputError("average_refined_scores: no matrices given")
    shape = matrices[0].shape
    for m in matrices[1:]:
        if m.shape != shape:
            raise InputError(f"average_refined_scores: shape mismatch {m.shape} vs {shape}")
    return sum(matrices) / len(matrices)
