"""Per-proposal training targets from voted pseudo ground truth, the
multi-task re-classification/re-localization loss, and the ramped weight
that phases that loss in over training."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError
from .geometry import Box, boxes_to_array, iou_matrix
from .mil import PROB_EPS, record_sums, segment_sums
from .voting import Supervision

IGNORED = -1  # label marker for proposals excluded from both loss terms

# IoU with the best voted box >= FG_IOU is foreground, IoU in
# [BG_IOU_RANGE[0], BG_IOU_RANGE[1]) background, anything else ignored.
FG_IOU = 0.5
BG_IOU_RANGE = (0.1, 0.5)

SMOOTH_L1_BETA = 1.0

# Upper clamp on the decoded log size ratios dw, dh, as in the Detectron and
# torchvision box coders: a side grows at most 1000/16-fold, and exp never
# overflows.
BBOX_XFORM_CLIP = math.log(1000.0 / 16)


@dataclass(frozen=True)
class ProposalTargets:
    """Assignment of proposals to voted boxes.

    labels[r] is a class id in [0, num_classes) for foreground, num_classes
    for background, IGNORED otherwise. offsets[r] holds the encoded
    regression target of foreground proposals and zeros elsewhere.
    weights[r] is 1 for foreground/background and 0 for ignored.
    """

    labels: np.ndarray
    offsets: np.ndarray
    weights: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int64)
        offsets = np.asarray(self.offsets, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if offsets.shape != (labels.shape[0], 4) or weights.shape != labels.shape:
            raise InputError("ProposalTargets: inconsistent array shapes")
        if not np.isfinite(offsets).all():
            raise InputError("ProposalTargets: regression targets must be finite")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "weights", weights)

    @property
    def foreground_mask(self) -> np.ndarray:
        return (self.labels >= 0) & (self.labels < self.num_classes)

    @property
    def valid_mask(self) -> np.ndarray:
        return self.labels != IGNORED

    @property
    def num_foreground(self) -> int:
        return int(self.foreground_mask.sum())


def encode_boxes(proposals: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """(N, 4) offsets (dx, dy, dw, dh) mapping each row of an (N, 4)
    proposal array onto the same row of a target array.

    dx, dy are center shifts normalized by the proposal size; dw, dh are
    log size ratios. Class-agnostic: four values per proposal. The logs are
    scalar math.log calls, which numpy's vector log may differ from by one ulp.
    """
    sizes = proposals[:, 2:] - proposals[:, :2]
    shifts = ((targets[:, :2] + targets[:, 2:]) / 2.0 - (proposals[:, :2] + proposals[:, 2:]) / 2.0) / sizes
    ratios = (targets[:, 2:] - targets[:, :2]) / sizes
    return np.hstack([shifts, np.reshape([math.log(v) for v in ratios.ravel().tolist()], (-1, 2))])


def encode_offsets(proposal: Box, target: Box) -> np.ndarray:
    """encode_boxes for one proposal and its target."""
    return encode_boxes(boxes_to_array([proposal]), boxes_to_array([target]))[0]


def decode_boxes_float(proposals: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Inverse of encode_boxes: (N, 4) float (x0, y0, x1, y1) rows, before
    clipping and pixel rounding; dw and dh are clamped at BBOX_XFORM_CLIP."""
    t = np.asarray(t, dtype=np.float64)
    if not np.isfinite(t).all():
        raise InputError("decode_offsets: offsets must be finite")
    sizes = proposals[:, 2:] - proposals[:, :2]
    with np.errstate(over="ignore"):  # a huge shift gives an infinite box, empty after clipping
        centers = (proposals[:, :2] + proposals[:, 2:]) / 2.0 + t[:, :2] * sizes
    scales = [math.exp(v) for v in np.minimum(t[:, 2:], BBOX_XFORM_CLIP).ravel().tolist()]
    half = sizes * np.reshape(scales, (-1, 2)) / 2.0
    return np.hstack([centers - half, centers + half])


def decode_boxes(proposals: np.ndarray, t: np.ndarray, height: int, width: int) -> np.ndarray:
    """Apply offsets to every proposal row, clip to the image, round to pixels.

    Returns (N, 4) int64 rows; a row with x0 >= x1 or y0 >= y1 is empty
    after clipping (an invalid detection the caller should drop).
    """
    decoded = decode_boxes_float(proposals, t)
    clipped = np.minimum(np.maximum(decoded, 0.0), [float(width), float(height)] * 2)
    return np.floor(clipped + 0.5).astype(np.int64)


def decode_offsets(proposal: Box, t: Sequence[float], height: int, width: int) -> Box | None:
    """decode_boxes for one proposal and its offsets; None when the decoded
    box is empty after clipping."""
    x0, y0, x1, y1 = decode_boxes(boxes_to_array([proposal]), np.reshape(t, (1, 4)), height, width)[0].tolist()
    if x0 >= x1 or y0 >= y1:
        return None
    return Box(x0, y0, x1, y1)


def assign_targets(
    boxes: np.ndarray,
    sup: Supervision | Sequence[Supervision],
    num_classes: int,
) -> ProposalTargets:
    """Match each proposal to its best-overlapping voted box.

    IoU >= FG_IOU makes a proposal foreground for that box's class, with
    encoded regression offsets; IoU in BG_IOU_RANGE makes it background;
    anything else is ignored. An empty Supervision ignores everything.

    `boxes` is one record's (N, 4) proposals and `sup` its Supervision, or
    the (R, N, 4) proposals of R records and their R Supervisions; the
    targets' rows are then the R·N proposals, record by record. Each
    record's voted boxes are padded to the group's widest vote, so one IoU
    matrix serves the group.
    """
    if boxes.ndim == 2:
        boxes, sup = boxes[None], [sup]
    lo, hi = BG_IOU_RANGE
    num_records, num = boxes.shape[:2]
    labels = np.full(num_records * num, IGNORED, dtype=np.int64)
    offsets = np.zeros((num_records * num, 4), dtype=np.float64)
    counts = np.array([len(s.classes) for s in sup], dtype=np.int64)
    width = int(counts.max(initial=0))
    if width:
        # Unit-box padding, read as IoU -1 so it never wins and leaves a
        # record without votes ignored.
        slots = np.arange(width) < counts[:, None]
        voted_arr = np.tile(np.array([0, 0, 1, 1], dtype=np.int64), (num_records, width, 1))
        voted_arr[slots] = np.concatenate([s.boxes for s in sup])
        classes = np.zeros((num_records, width), dtype=np.int64)
        classes[slots] = np.concatenate([s.classes for s in sup])
        overlaps = np.where(slots[:, None], iou_matrix(boxes, voted_arr), -1.0)
        # argmax takes the first maximum, so the lowest voted index wins ties.
        best = overlaps.argmax(axis=2)
        best_iou = np.take_along_axis(overlaps, best[..., None], axis=2).ravel()
        best = (best + width * np.arange(num_records)[:, None]).ravel()  # into the flat voted rows
        fg = best_iou >= FG_IOU
        labels[(lo <= best_iou) & (best_iou < hi)] = num_classes
        labels[fg] = classes.ravel()[best[fg]]
        offsets[fg] = encode_boxes(boxes.reshape(-1, 4)[fg], voted_arr.reshape(-1, 4)[best[fg]])
    weights = (labels != IGNORED).astype(np.float64)
    return ProposalTargets(labels=labels, offsets=offsets, weights=weights, num_classes=num_classes)


def smooth_l1(x: np.ndarray) -> np.ndarray:
    """Elementwise smooth L1: quadratic inside |x| < SMOOTH_L1_BETA, linear outside."""
    ax = np.abs(x)
    quad = np.minimum(ax, SMOOTH_L1_BETA)  # branch-free; also avoids squaring huge values
    return 0.5 * quad * quad / SMOOTH_L1_BETA + (ax - quad)


def smooth_l1_grad(x: np.ndarray) -> np.ndarray:
    return np.clip(x, -SMOOTH_L1_BETA, SMOOTH_L1_BETA) / SMOOTH_L1_BETA


def slv_losses(
    phi_s: np.ndarray,
    t_s: np.ndarray,
    targets: ProposalTargets,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`slv_loss` of R records with N proposals each, in one pass.

    `phi_s` is the (R, C + 1, N) stack of their score matrices, `t_s` the
    (R, N, 4) stack of their offsets and `targets` a group `assign_targets`
    result, R·N rows record by record. Returns the (R,) losses, the
    gradients wrt `phi_s` and `t_s`, and the (R,) vacuous flags; each
    record gets the bits of its own `slv_loss` call.
    """
    num_records, num = phi_s.shape[0], phi_s.shape[2]
    grad_scores = np.zeros_like(phi_s)
    grad_offsets = np.zeros_like(t_s)
    valid = targets.valid_mask.reshape(num_records, num)
    counts = valid.sum(axis=1)
    record, column = valid.nonzero()  # record by record, in proposal order
    labels = targets.labels.reshape(num_records, num)[record, column]
    p = phi_s[record, labels, column]
    logs = np.array([math.log(clamped) for clamped in np.clip(p, PROB_EPS, 1.0 - PROB_EPS).tolist()])
    vacuous = counts == 0
    # Each record subtracts its logs one by one in proposal order: their
    # sequential sum, negated (rounding is symmetric in sign).
    losses = -record_sums(logs, counts) / np.maximum(counts, 1)
    inside = (PROB_EPS < p) & (p < 1.0 - PROB_EPS)
    grad_scores[record[inside], labels[inside], column[inside]] = -1.0 / (counts[record[inside]] * p[inside])
    fg = targets.foreground_mask.reshape(num_records, num)
    fg_counts = fg.sum(axis=1)
    record, column = fg.nonzero()
    diff = t_s[record, column] - targets.offsets.reshape(num_records, num, 4)[record, column]
    # huge prediction errors overflow a sum to inf; callers treat a
    # non-finite loss as divergence, so no warning is needed here
    with np.errstate(over="ignore"):
        # One `.sum()` per record over its foreground rows. A record without
        # foreground adds 0.0: its loss is positive, or vacuous and reset below.
        losses += segment_sums(smooth_l1(diff).ravel(), 4 * fg_counts) / (4.0 * np.maximum(fg_counts, 1))
    grad_offsets[record, column] = smooth_l1_grad(diff) / (4.0 * fg_counts[record, None])
    losses[vacuous] = 0.0
    return losses, grad_scores, grad_offsets, vacuous


def slv_loss(
    phi_s: np.ndarray,
    t_s: np.ndarray,
    targets: ProposalTargets,
) -> tuple[float, np.ndarray, np.ndarray, bool]:
    """Multi-task loss over labeled proposals.

    Classification: mean cross-entropy of phi_s (class rows plus trailing
    background row) over non-ignored proposals. Localization: mean smooth
    L1 over the four offset coordinates of foreground proposals. Returns
    (loss, grad wrt phi_s, grad wrt t_s, vacuous); a vacuous result (no
    labeled proposal at all) is zero loss with zero gradients. A one-record
    `slv_losses` call.
    """
    t_s = np.asarray(t_s, dtype=np.float64)
    num = targets.labels.shape[0]
    if phi_s.shape[1] != num:
        raise InputError(f"slv_loss: {phi_s.shape[1]} score columns but {num} proposals")
    if len(phi_s) != targets.num_classes + 1:
        raise InputError(
            f"slv_loss: expected {targets.num_classes + 1} score rows, got {len(phi_s)}"
        )
    if t_s.shape != (num, 4):
        raise InputError(f"slv_loss: offsets must have shape ({num}, 4), got {t_s.shape}")
    losses, grad_scores, grad_offsets, vacuous = slv_losses(phi_s[None], t_s[None], targets)
    return float(losses[0]), grad_scores[0], grad_offsets[0], bool(vacuous[0])


def loss_weight(ramp_length: float, i: int) -> float:
    """Multi-task loss weight at iteration i: a linear ramp from 0 at
    iteration 0 to 1 from `ramp_length` onward. An infinite ramp keeps the
    weight at 0."""
    if not ramp_length > 0:
        raise ConfigError(f"ramp_length must be positive, got {ramp_length}")
    if i < 0:
        raise InputError(f"loss_weight: iteration index must be >= 0, got {i}")
    if math.isinf(ramp_length):
        return 0.0
    return min(i / ramp_length, 1.0)


def total_loss(
    l_mil: float | np.ndarray, l_refine: Sequence[float] | np.ndarray, l_slv: float | np.ndarray, w_slv: float
) -> float | np.ndarray:
    """Weighted sum of the image loss, refinement losses, and voted-supervision loss.

    Takes one record's terms, or n records' (n,) `l_mil` and `l_slv` and
    (n, K) `l_refine`: their (n,) totals then have the bits of n scalar calls.
    """
    l_mil, l_refine, l_slv, w_slv = (np.asarray(v, dtype=np.float64) for v in (l_mil, l_refine, l_slv, w_slv))
    if not all(np.isfinite(v).all() for v in (l_mil, l_refine, l_slv, w_slv)):
        raise InputError("total_loss: all terms must be finite")
    refine = record_sums(l_refine.ravel(), np.full(l_mil.size, l_refine.shape[-1])).reshape(l_mil.shape)
    totals = l_mil + refine + w_slv * l_slv
    return float(totals) if totals.ndim == 0 else totals
