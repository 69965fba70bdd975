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


def segment_sums(values: np.ndarray, counts) -> np.ndarray:
    """Each segment's own `.sum()`, segment s being the next `counts[s]`
    entries of the 1-D `values`. `np.add.reduceat` adds in another order."""
    ends = np.cumsum(counts, dtype=np.int64).tolist()
    return np.array([values[a:b].sum() for a, b in zip([0, *ends], ends)], dtype=np.float64)


def record_sums(values: np.ndarray, counts) -> np.ndarray:
    """Each segment's rows added one by one from 0.0, as `total += row`
    would add them, segment s being the next `counts[s]` rows of `values`
    (entries, or arrays of any shape): a cumsum along a zero-led table.
    A total that starts at 0.0 is never -0.0, so the zeros padding a
    segment's row of the table leave its total as it is."""
    counts = np.asarray(counts)
    slots = np.arange(counts.max(initial=0)) < counts[:, None]
    table = np.zeros((len(counts), 1 + slots.shape[1], *values.shape[1:]))
    table[:, 1:][slots] = values
    return np.cumsum(table, axis=1)[:, -1]


def _softmax(arr: np.ndarray, axis: int) -> np.ndarray:
    # Max-subtraction may legitimately hit -inf for saturated logits;
    # exp(-inf) = 0 is the correct limit, so silence the overflow warning.
    with np.errstate(over="ignore"):
        shifted = arr - arr.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_over_classes(x: np.ndarray) -> np.ndarray:
    """Softmax each column over classes; columns of the result sum to 1.
    A (..., C, N) stack of matrices is normalized matrix by matrix."""
    return _softmax(x, axis=-2)


def softmax_over_proposals(x: np.ndarray) -> np.ndarray:
    """Softmax each row over proposals; rows of the result sum to 1.
    A (..., C, N) stack of matrices is normalized matrix by matrix."""
    return _softmax(x, axis=-1)


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
    """Per-class image scores: sum the wsddn_scores product over proposals.
    A (..., C, N) stack gives one (..., C) row per matrix."""
    return phi0.sum(axis=-1)


def mil_losses(phi: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Binary cross-entropy of R images' scores against their labels.

    `phi` and `y` are (R, C), entries of phi in [0, 1] before clamping.
    Returns the (R,) losses and (R, C) gradients wrt phi; a bad row raises
    the error of the first row whose own `mil_loss` call would raise.
    """
    phi = np.asarray(phi, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if phi.shape != y.shape or phi.ndim != 2:
        raise InputError(f"mil_loss: shape mismatch phi {phi.shape} vs y {y.shape}")
    labels_ok = ((y == 0.0) | (y == 1.0)).all(axis=1)
    ok = labels_ok & ((phi >= 0.0) & (phi <= 1.0 + 1e-9)).all(axis=1)  # NaN fails both
    if not ok.all():
        if not labels_ok[ok.argmin()]:
            raise InputError("mil_loss: labels must be 0/1 indicators")
        raise InputError("mil_loss: image scores must lie in [0, 1]")
    clamped = np.clip(phi, PROB_EPS, 1.0 - PROB_EPS)
    losses = -np.sum(y * np.log(clamped) + (1.0 - y) * np.log(1.0 - clamped), axis=1)
    grad = (clamped - y) / (clamped * (1.0 - clamped))
    grad = np.where((phi > PROB_EPS) & (phi < 1.0 - PROB_EPS), grad, 0.0)
    return losses, grad


def mil_loss(phi: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Binary cross-entropy of image scores against the image label.

    Returns (loss, gradient wrt phi). Entries of phi must lie in [0, 1]
    before clamping. A one-record `mil_losses` call.
    """
    phi, y = np.asarray(phi, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if phi.shape != y.shape or phi.ndim != 1:
        raise InputError(f"mil_loss: shape mismatch phi {phi.shape} vs y {y.shape}")
    losses, grad = mil_losses(phi[None], y[None])
    return float(losses[0]), grad[0]


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


@dataclass(frozen=True)
class ClusterBatch:
    """The clusters and background of several records as flat arrays.

    Cluster k belongs to record `record[k]` and holds the next `sizes[k]`
    entries of `members`; a record's clusters, taken in batch order, are in
    `ClusterSet` order. Background entry b is proposal `background[b]` of
    record `background_record[b]`, grouped by record in record order.
    """

    record: np.ndarray  # (K,) int64
    label: np.ndarray  # (K,) int64
    score: np.ndarray  # (K,) float64, the center proposal's class score
    sizes: np.ndarray  # (K,) int64
    members: np.ndarray  # (sizes.sum(),) int64 proposal indices
    background_record: np.ndarray  # (B,) int64
    background: np.ndarray  # (B,) int64 proposal indices
    background_weights: np.ndarray  # (B,) float64, in [0, 1]


def cluster_records(
    scores: np.ndarray,
    boxes: np.ndarray,
    labels: np.ndarray,
    ious: np.ndarray | None = None,
) -> ClusterBatch:
    """`build_clusters` of R records with N proposals each, in one pass.

    `scores` is the (R, C', N) stack of their score matrices, `boxes` the
    (R, N, 4) stack of their proposals and `labels` an (R, C) bool mask of
    their positive classes, C <= C', at least one per record. `ious`, when
    given, is the (R, N, N) stack of each record's `iou_matrix(boxes[r],
    boxes[r])`; otherwise each seed's row is computed for that seed alone.
    Per class, every record whose label has it takes its next seed in the
    same numpy step, until no record seeds. Each record gets the clusters,
    background and weights of its own `build_clusters` call.
    """
    num_records, num_classes, num = len(scores), labels.shape[1], scores.shape[2]
    unassigned = np.ones((num_records, num), dtype=bool)
    taken = np.full((num_records, num), -1, dtype=np.int64)  # the seeding step that took each proposal
    steps: list[tuple[int, np.ndarray, np.ndarray]] = []  # (class, records, center scores)
    for c, positive in enumerate(labels.T if num else ()):
        active = positive.nonzero()[0]
        if not active.size:
            continue
        free, took, own_boxes = unassigned[active], taken[active], boxes[active]
        candidates = np.where(free, scores[active, c], -np.inf)
        while True:
            # The first maximum: highest score, then lowest index. An assigned
            # center reads -inf, so no proposal is left (scores are finite).
            # A record that stops stays stopped, as nothing of it changes.
            center = candidates.argmax(axis=1)
            conf = candidates.max(axis=1)
            go = conf >= CLUSTER_CENTER_FLOOR
            seeded = active[go]
            if not seeded.size:
                break
            if ious is None:
                rows = iou_matrix(own_boxes[np.arange(active.size), center][:, None], own_boxes)[:, 0]
            else:
                rows = ious[active, center]
            members = free & (rows >= CLUSTER_IOU)
            if seeded.size < active.size:
                members &= go[:, None]
            free ^= members
            candidates[members] = -np.inf
            took[members] = len(steps)
            steps.append((c, seeded, conf[go]))
        unassigned[active], taken[active] = free, took
    # Clusters in seeding order: by class, then seed, then record, so each
    # record's own clusters are in class-then-seed order. Sorting the
    # proposals by step puts the background first and each cluster's
    # members together, by record and then index.
    counts = [seeded.size for _, seeded, _ in steps]
    record = np.concatenate([np.zeros(0, dtype=np.int64)] + [seeded for _, seeded, _ in steps])
    score = np.concatenate([np.zeros(0)] + [s for _, _, s in steps])
    flat = taken.ravel()
    by_step = np.argsort(flat, kind="stable")
    split = np.count_nonzero(flat < 0)
    background_record, background = np.divmod(by_step[:split], num)
    member_record, members = np.divmod(by_step[split:], num)
    # A cluster is its (step, record) pair; both orders above list them alike.
    keys = np.repeat(np.arange(len(steps)), counts) * num_records + record
    cluster = np.searchsorted(keys, flat[by_step[split:]] * num_records + member_record)
    top = np.where(labels[:, :, None], scores[:, :num_classes], -np.inf).max(axis=1).ravel()
    return ClusterBatch(
        record=record,
        label=np.repeat(np.array([c for c, _, _ in steps], dtype=np.int64), counts),
        score=score,
        sizes=np.bincount(cluster, minlength=len(record)),
        members=members,
        background_record=background_record,
        background=background,
        background_weights=np.clip(1.0 - top[by_step[:split]], 0.0, 1.0),
    )


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
    `iou_matrix(boxes, boxes)`, when given; otherwise the row is computed
    for that seed alone. Both give the same clusters. A one-record
    `cluster_records` call.
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
    mask = (np.asarray(y) == 1)[None, : len(scores)]
    batch = cluster_records(scores[None], np.asarray(boxes)[None], mask, None if ious is None else ious[None])
    ends = np.cumsum(batch.sizes).tolist()
    members = batch.members.tolist()
    clusters = tuple(
        Cluster(label=c, members=tuple(members[a:b]), score=s)
        for c, s, a, b in zip(batch.label.tolist(), batch.score.tolist(), [0, *ends], ends)
    )
    return ClusterSet(clusters, tuple(batch.background.tolist()), batch.background_weights, num)


def refinement_losses(phi: np.ndarray, batch: ClusterBatch) -> tuple[np.ndarray, np.ndarray]:
    """`refinement_loss` of R records in one pass.

    `phi` is the (R, C + 1, N) stack of their matrices, and every cluster's
    label must have a class row. Returns the (R,) losses and the
    (R, C + 1, N) gradients. A NaN raises the error of the first record
    whose own call would raise one.
    """
    num_records, bg_row, num = phi.shape[0], phi.shape[1] - 1, phi.shape[2]
    sizes = batch.sizes
    of_member = np.repeat(np.arange(len(sizes)), sizes)
    rows = (batch.record[of_member], batch.label[of_member], batch.members)
    means = segment_sums(phi[rows], sizes) / sizes
    p = phi[batch.background_record, bg_row, batch.background]
    bad, bad_bg = np.flatnonzero(np.isnan(means)), np.flatnonzero(np.isnan(p))
    if bad.size or bad_bg.size:
        first = min(
            batch.record[bad].min(initial=num_records), batch.background_record[bad_bg].min(initial=num_records)
        )
        bad = np.flatnonzero(np.isnan(means[batch.record == first]))  # among that record's clusters
        if bad.size:
            raise NumericalError(f"refinement_loss: bad log argument in cluster {bad[0]}")
        raise NumericalError(
            f"refinement_loss: bad log argument for background proposal {batch.background[bad_bg[0]]}"
        )
    weights = batch.background_weights
    cluster_terms = batch.score * sizes * np.log(np.clip(means, PROB_EPS, 1.0 - PROB_EPS))
    bg_terms = weights * np.log(np.clip(p, PROB_EPS, 1.0 - PROB_EPS))
    # Each record adds its terms one by one, clusters then background.
    owners = np.concatenate([batch.record, batch.background_record])
    terms = np.concatenate([cluster_terms, bg_terms])[np.argsort(owners, kind="stable")]
    grad = np.zeros_like(phi)
    hit = (PROB_EPS < means) & (means < 1.0 - PROB_EPS)
    step = np.zeros(len(sizes))
    step[hit] = batch.score[hit] / (num * means[hit])
    on = hit[of_member]
    grad[rows[0][on], rows[1][on], rows[2][on]] -= step[of_member[on]]
    inside = (PROB_EPS < p) & (p < 1.0 - PROB_EPS)
    grad[batch.background_record[inside], bg_row, batch.background[inside]] -= weights[inside] / (num * p[inside])
    return -record_sums(terms, np.bincount(owners, minlength=num_records)) / num, grad


def refinement_loss(phi_k: np.ndarray, clusters: ClusterSet) -> tuple[float, np.ndarray]:
    """Weighted cross-entropy over proposal clusters.

    phi_k must carry a trailing background row. Foreground clusters
    contribute their confidence-and-size-weighted log mean member score;
    background proposals contribute their weighted log background score.
    Returns (loss, gradient wrt phi_k entries). A one-record
    `refinement_losses` call.
    """
    num = clusters.num_proposals
    if num == 0:
        raise InputError("refinement_loss: no proposals to average over")
    if phi_k.shape[1] != num:
        raise InputError(f"refinement_loss: {phi_k.shape[1]} score columns but {num} proposals")
    if len(phi_k) < 2:
        raise InputError("refinement_loss: matrix needs class rows plus a background row")
    cs = clusters.clusters
    ok = next((n for n, c in enumerate(cs) if c.label >= len(phi_k) - 1), len(cs))
    if ok < len(cs):
        # A NaN among the clusters before the first one without a class row
        # is reported first.
        refinement_losses(phi_k[None], _one_record(cs[:ok], (), ()))
        raise InputError(f"refinement_loss: cluster {ok} labeled {cs[ok].label} has no row")
    losses, grads = refinement_losses(
        phi_k[None], _one_record(cs, clusters.background, clusters.background_weights)
    )
    return float(losses[0]), grads[0]


def _one_record(clusters, background, weights) -> ClusterBatch:
    """A `ClusterSet`'s clusters and background as a one-record batch."""
    return ClusterBatch(
        record=np.zeros(len(clusters), dtype=np.int64),
        label=np.array([c.label for c in clusters], dtype=np.int64),
        score=np.array([c.score for c in clusters], dtype=np.float64),
        sizes=np.array([c.size for c in clusters], dtype=np.int64),
        members=np.array([r for c in clusters for r in c.members], dtype=np.int64),
        background_record=np.zeros(len(background), dtype=np.int64),
        background=np.array(background, dtype=np.int64),
        background_weights=np.asarray(weights, dtype=np.float64),
    )


def average_refined_scores(*matrices: np.ndarray) -> np.ndarray:
    """Entrywise mean of same-shape score matrices."""
    if not matrices:
        raise InputError("average_refined_scores: no matrices given")
    shape = matrices[0].shape
    for m in matrices[1:]:
        if m.shape != shape:
            raise InputError(f"average_refined_scores: shape mismatch {m.shape} vs {shape}")
    return sum(matrices) / len(matrices)
