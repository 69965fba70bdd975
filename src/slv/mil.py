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

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import InputError, NumericalError
from .geometry import _box_columns, _iou_rows

PROB_EPS = 1e-8

# A seed absorbs every unassigned proposal whose IoU with it reaches
# CLUSTER_IOU. Proposals scoring below CLUSTER_CENTER_FLOOR for a class never
# seed a new cluster; keeps noise from spawning one singleton cluster per proposal.
# `absorb_masks` tests CLUSTER_IOU as the exact ratio p/q in int64, so it
# must have a small denominator: 0.6 is 5404319552844595/2^53 and overflows.
CLUSTER_IOU = 0.5
CLUSTER_CENTER_FLOOR = 0.01
ABSORB_CELLS = 1 << 14  # the most IoU entries `absorb_masks` computes at a time


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
class ClusterBatch:
    """The clusters and background of several records as flat arrays.

    Cluster k belongs to record `record[k]` and holds the next `sizes[k]`
    entries of `members`; a record's clusters, taken in batch order, come
    by class, then in seeding order. Background entry b is proposal
    `background[b]` of record `background_record[b]`, grouped by record in
    record order. Proposal indices count within their record, and
    `num_proposals` is the proposals of all the batch's records.
    """

    record: np.ndarray  # (K,) int64
    label: np.ndarray  # (K,) int64
    score: np.ndarray  # (K,) float64, the center proposal's class score
    sizes: np.ndarray  # (K,) int64
    members: np.ndarray  # (sizes.sum(),) int64 proposal indices
    background_record: np.ndarray  # (B,) int64
    background: np.ndarray  # (B,) int64 proposal indices
    background_weights: np.ndarray  # (B,) float64, in [0, 1]
    num_proposals: int

    @cached_property
    def clusters(self) -> tuple[Cluster, ...]:
        """The clusters as `Cluster` tuples, in batch order, built on the first read."""
        ends = np.cumsum(self.sizes).tolist()
        members = self.members.tolist()
        return tuple(
            Cluster(label=c, members=tuple(members[a:b]), score=s)
            for c, s, a, b in zip(self.label.tolist(), self.score.tolist(), [0, *ends], ends)
        )


def absorb_masks(boxes: np.ndarray) -> np.ndarray:
    """The (R, N, N) bool stack `iou_matrix(b, b) >= CLUSTER_IOU` of an (R,
    N, 4) integer proposal stack: [r, i, j] says whether proposal i of
    record r, as a seed, absorbs proposal j.

    With p/q = CLUSTER_IOU exactly (1/2), IoU >= p/q is the integer test
    (p + q) * inter >= p * (area_i + area_j). Proposals lie in images of at
    most MAX_IMAGE_SIDE = 65,535 px a side, so areas are below 2^32 and the
    test cannot overflow int64. It gives the bit of the float test: an exact
    ratio inter/union on the other side of 1/2 is at least 1/(2 * union) >
    2^-34 from it, farther than rounding the quotient (by at most 2^-53)
    can move it, so the float quotient crosses 1/2 only where it equals it.
    The test is symmetric: each record's upper triangle is taken in row
    blocks of at most ABSORB_CELLS entries and mirrored, so no (N, N)
    temporary exists.
    """
    num_records, num = boxes.shape[:2]
    p, q = CLUSTER_IOU.as_integer_ratio()
    masks = np.empty((num_records, num, num), dtype=bool)
    step = max(1, ABSORB_CELLS // max(num, 1))
    for mask, (x0, y0, x1, y1, area) in zip(masks, _box_columns(boxes).swapaxes(0, 1)):
        area = p * area
        for start in range(0, num, step):
            rows = slice(start, start + step)
            iw = np.minimum(x1[rows, None], x1[start:])
            iw -= np.maximum(x0[rows, None], x0[start:])
            ih = np.minimum(y1[rows, None], y1[start:])
            ih -= np.maximum(y0[rows, None], y0[start:])
            inter = np.maximum(iw, 0, out=iw) * np.maximum(ih, 0, out=ih)
            block = mask[rows, start:]
            np.greater_equal((p + q) * inter, area[rows, None] + area[start:], out=block)
            mask[start:, rows] = block.T
    return masks


def cluster_records(scores: np.ndarray, boxes: np.ndarray, labels: np.ndarray, absorbs: np.ndarray | None = None) -> ClusterBatch:
    """`build_clusters` of R records with N proposals each, for S score sets
    over them, in one pass.

    `boxes` is the (R, N, 4) stack of the records' proposals, `labels` an
    (R, C) bool mask of their positive classes, at least one per record, and
    `scores` the (S * R, C', N) stack of the sets' score matrices, C <= C':
    row m * R + r is set m's matrix of record r. `absorbs`, when given, is
    the `absorb_masks(boxes)` stack, and each seed reads its record's row,
    so the stack is never tiled; otherwise each seed's IoU row is computed
    for that seed alone, by `_iou_rows` on box columns taken once per class.
    Per class, every row whose record has it takes its next seed in the
    same numpy step, until no row seeds. The batch names each row as a
    record of its own, and each gets the clusters, background and weights
    of its own `build_clusters` call.
    """
    num_rows, num_classes, num = len(scores), labels.shape[1], scores.shape[2]
    owner = np.arange(num_rows) % max(len(boxes), 1)  # the record of each row
    labels = labels[owner]
    unassigned = np.ones((num_rows, num), dtype=bool)
    taken = np.full((num_rows, num), -1, dtype=np.int64)  # the seeding step that took each proposal
    steps: list[tuple[int, np.ndarray, np.ndarray]] = []  # (class, rows, center scores)
    for c, positive in enumerate(labels.T if num else ()):
        active = positive.nonzero()[0]
        if not active.size:
            continue
        free, took, at = unassigned[active], taken[active], owner[active]
        columns = _box_columns(boxes[at]) if absorbs is None else None
        candidates = np.where(free, scores[active, c], -np.inf)
        while True:
            # The first maximum: highest score, then lowest index. An assigned
            # center reads -inf, so no proposal is left (scores are finite).
            # A row that stops stays stopped, as nothing of it changes.
            center = candidates.argmax(axis=1)
            conf = candidates.max(axis=1)
            go = conf >= CLUSTER_CENTER_FLOOR
            seeded = active[go]
            if not seeded.size:
                break
            if absorbs is None:
                members = free & (_iou_rows(columns, center) >= CLUSTER_IOU)
            else:
                members = free & absorbs[at, center]
            if seeded.size < active.size:
                members &= go[:, None]
            free ^= members
            candidates[members] = -np.inf
            took[members] = len(steps)
            steps.append((c, seeded, conf[go]))
        unassigned[active], taken[active] = free, took
    # Clusters in seeding order: by class, then seed, then row, so each
    # row's own clusters are in class-then-seed order. Sorting the
    # proposals by step puts the background first and each cluster's
    # members together, by row and then index.
    counts = [seeded.size for _, seeded, _ in steps]
    record = np.concatenate([np.zeros(0, dtype=np.int64)] + [seeded for _, seeded, _ in steps])
    score = np.concatenate([np.zeros(0)] + [s for _, _, s in steps])
    flat = taken.ravel()
    by_step = np.argsort(flat, kind="stable")
    split = np.count_nonzero(flat < 0)
    background_record, background = np.divmod(by_step[:split], num)
    member_record, members = np.divmod(by_step[split:], num)
    # A cluster is its (step, row) pair; both orders above list them alike.
    keys = np.repeat(np.arange(len(steps)), counts) * num_rows + record
    cluster = np.searchsorted(keys, flat[by_step[split:]] * num_rows + member_record)
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
        num_proposals=num_rows * num,
    )


def _check_clusters(scores: np.ndarray, boxes: np.ndarray, pos: list[int]) -> None:
    """`build_clusters`' checks of one record whose positive classes are `pos`."""
    if not pos:
        raise InputError("build_clusters: image has no positive class")
    if scores.shape[1] != len(boxes):
        raise InputError(f"build_clusters: {scores.shape[1]} score columns but {len(boxes)} boxes")
    if len(scores) < max(pos) + 1:
        raise InputError("build_clusters: score matrix has no row for some positive class")


def build_clusters(scores: np.ndarray, boxes: np.ndarray, y: np.ndarray) -> ClusterBatch:
    """Greedy proposal clustering around high-scoring centers.

    Simplified scheme (the full graph-based cluster generation is out of
    scope): per positive class, the highest-scoring unassigned proposal
    seeds a cluster and absorbs every unassigned proposal whose IoU with
    it reaches CLUSTER_IOU; seeding stops below CLUSTER_CENTER_FLOOR.
    Leftover proposals form the background cluster, each weighted by one
    minus its best positive-class score.

    Takes one record, a (C', N) score matrix, (N, 4) boxes and a (C,)
    label vector, or a stack of R records: (R, C', N), (R, N, 4) and
    (R, C). Returns the `cluster_records` batch, whose record r holds the
    clusters, background and weights of record r's own call. A stack
    raises the error of the first record whose own call raises.
    """
    scores, boxes, y = np.asarray(scores), np.asarray(boxes), np.asarray(y)
    if boxes.ndim == 2:
        _check_clusters(scores, boxes, positive_classes(y))
        scores, boxes, y = scores[None], boxes[None], y[None]
    elif not len(scores) == len(boxes) == len(y):
        raise InputError(f"build_clusters: {len(scores)} score matrices, {len(boxes)} box arrays, {len(y)} labels")
    else:
        # The checks on the whole stack; only a stack that fails them is
        # checked record by record, to raise the first failing record's error.
        ones = y == 1
        if not (
            (ones | (y == 0)).all() and ones.any(axis=1).all() and scores.shape[2] == boxes.shape[1]
            and not ones[:, scores.shape[1] :].any()
        ):
            for s, b, labels in zip(scores, boxes, y):
                _check_clusters(s, b, positive_classes(labels))
    return cluster_records(scores, boxes, (y == 1)[:, : scores.shape[1]])


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


def refinement_loss(phi_k: np.ndarray, batch: ClusterBatch) -> tuple[float, np.ndarray]:
    """Weighted cross-entropy over proposal clusters.

    phi_k must carry a trailing background row, and `batch` holds one
    record's clusters. Foreground clusters contribute their
    confidence-and-size-weighted log mean member score; background
    proposals contribute their weighted log background score.
    Returns (loss, gradient wrt phi_k entries). A one-record
    `refinement_losses` call.
    """
    num = batch.num_proposals
    if num == 0:
        raise InputError("refinement_loss: no proposals to average over")
    if phi_k.shape[1] != num:
        raise InputError(f"refinement_loss: {phi_k.shape[1]} score columns but {num} proposals")
    if len(phi_k) < 2:
        raise InputError("refinement_loss: matrix needs class rows plus a background row")
    labels = batch.label.tolist()
    ok = next((n for n, c in enumerate(labels) if c >= len(phi_k) - 1), len(labels))
    if ok < len(labels):
        # A NaN among the clusters before the first one without a class row
        # is reported first.
        head = batch.sizes[:ok]
        empty = np.zeros(0, dtype=np.int64)
        refinement_losses(phi_k[None], replace(
            batch, record=batch.record[:ok], label=batch.label[:ok], score=batch.score[:ok], sizes=head,
            members=batch.members[: head.sum()], background_record=empty, background=empty,
            background_weights=np.zeros(0),
        ))
        raise InputError(f"refinement_loss: cluster {ok} labeled {labels[ok]} has no row")
    losses, grads = refinement_losses(phi_k[None], batch)
    return float(losses[0]), grads[0]


def average_refined_scores(*matrices: np.ndarray) -> np.ndarray:
    """Entrywise mean of same-shape score matrices."""
    if not matrices:
        raise InputError("average_refined_scores: no matrices given")
    shape = matrices[0].shape
    for m in matrices[1:]:
        if m.shape != shape:
            raise InputError(f"average_refined_scores: shape mismatch {m.shape} vs {shape}")
    return sum(matrices) / len(matrices)
