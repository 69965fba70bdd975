"""Full-batch gradient-descent trainer over a linear proposal scorer.

The scorer stands in for the network heads: one linear map per head from
proposal features to classification/detection logits, refinement logits,
and the re-classification/re-localization outputs. The records are grouped
by proposal count once per run, and every head runs once per group, on the
group's (R, N, D) feature stack: one logit product, one softmax and one
gradient product per head and group. Each iteration runs in three phases:

1. the MIL head of every group; then the three refinement stages one at a
   time, each clustering and scoring a group in one `cluster_records` and
   one `refinement_losses` call;
2. one `VoteBatch` over every record's averaged refinement scores (treated
   as a constant, no gradient flows through the vote), so all the
   iteration's (record, class) grids share one region-labeling pass;
   skipped under `mil_only`;
3. per group: proposal targets from the voted boxes in one
   `assign_targets` call, and the SLV loss and its gradients in one
   `slv_losses` call.

Gradient products and loss sums add up record by record in record order
across the groups (`mil.record_sums`), so the bits are those of a
per-record loop; then the weights descend on the weighted total loss.
Voted supervision only influences the weights once the ramp weight is
positive.

Test-time detection scores are the arithmetic mean of the three refinement
branches and the re-classification branch (an assumption; the combination
rule is not pinned down elsewhere), and every proposal is shifted by the
re-localization offsets before per-class NMS.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datasets import Dataset, DatasetRecord, _numbers_only
from .errors import ConfigError, InputError, NumericalError
from .evaluation import Detections
from .mil import (
    average_refined_scores,
    cluster_records,
    image_scores,
    mil_losses,
    positive_classes,
    record_sums,
    refinement_losses,
    softmax_backward,
    softmax_over_classes,
    softmax_over_proposals,
    wsddn_scores,
)
from .geometry import iou_matrix, nms
from .targets import assign_targets, decode_boxes, loss_weight, slv_losses, total_loss
from .voting import LikelihoodMap, Supervision, VoteBatch, VoteConfig, write_pgm

SCORER_SCHEMA = "slv/scorer"
TRACE_SCHEMA = "slv/trace"

REFINEMENTS = 3  # refinement branches, as in OICR
INIT_SCALE = 0.01  # standard deviation of the initial weights
NMS_IOU = 0.3  # run_inference's default per-class NMS threshold
SCORE_MIN = 1e-3  # run_inference's default: lower fused scores are dropped
OVERFLOW = "scorer weights give non-finite outputs"  # finite weights whose products overflow


@dataclass
class ToyScorer:
    """Linear per-head proposal scorer; deterministic given its weights."""

    num_classes: int
    feature_dim: int
    w_cls: np.ndarray                 # (C, D)
    w_det: np.ndarray                 # (C, D)
    w_refine: list[np.ndarray]        # K x (C+1, D)
    w_slv_cls: np.ndarray             # (C+1, D)
    w_slv_reg: np.ndarray             # (4, D)

    @classmethod
    def initialize(
        cls,
        num_classes: int,
        feature_dim: int,
        rng: np.random.Generator,
    ) -> "ToyScorer":
        def draw(rows: int) -> np.ndarray:
            return INIT_SCALE * rng.standard_normal((rows, feature_dim))

        return cls(
            num_classes=num_classes,
            feature_dim=feature_dim,
            w_cls=draw(num_classes),
            w_det=draw(num_classes),
            w_refine=[draw(num_classes + 1) for _ in range(REFINEMENTS)],
            w_slv_cls=draw(num_classes + 1),
            w_slv_reg=draw(4),
        )

    def heads(self) -> list[np.ndarray]:
        """Every weight matrix, in the order `[w_cls, w_det, *w_refine, w_slv_cls, w_slv_reg]`."""
        return [self.w_cls, self.w_det, *self.w_refine, self.w_slv_cls, self.w_slv_reg]

    # Each head takes one record's (N, D) features or an (R, N, D) stack of them.
    def refined_scores(self, feats: np.ndarray) -> list[np.ndarray]:
        return [softmax_over_classes(_logits(w, feats, InputError(OVERFLOW))) for w in self.w_refine]

    def refined_average(self, feats: np.ndarray) -> np.ndarray:
        return average_refined_scores(*self.refined_scores(feats))

    def slv_heads(self, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        phi_s = softmax_over_classes(_logits(self.w_slv_cls, feats, InputError(OVERFLOW)))
        return phi_s, _logits(self.w_slv_reg, feats, InputError(OVERFLOW)).swapaxes(-1, -2)

    def save(self, path: str | Path) -> None:
        payload = {
            "schema": SCORER_SCHEMA,
            "version": 1,
            "num_classes": self.num_classes,
            "feature_dim": self.feature_dim,
            "weights": {
                "cls": self.w_cls.tolist(),
                "det": self.w_det.tolist(),
                "refine": [w.tolist() for w in self.w_refine],
                "slv_cls": self.w_slv_cls.tolist(),
                "slv_reg": self.w_slv_reg.tolist(),
            },
        }
        Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "ToyScorer":
        """Read a scorer written by `save`, checking every field's presence,
        shape against num_classes/feature_dim, and finiteness."""
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read scorer file {path}: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("schema") != SCORER_SCHEMA:
            raise InputError(f"{path}: not a scorer file")
        c, d = payload.get("num_classes"), payload.get("feature_dim")
        if not all(isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in (c, d)):
            raise InputError(f"{path}: 'num_classes' and 'feature_dim' must be positive integers")
        weights = payload.get("weights")
        keys = ("cls", "det", "refine", "slv_cls", "slv_reg")
        if not isinstance(weights, dict) or not all(k in weights for k in keys):
            raise InputError(f"{path}: 'weights' must hold {', '.join(keys)}")
        refine = weights["refine"]
        if not isinstance(refine, list) or not refine:
            raise InputError(f"{path}: 'weights.refine' must be a non-empty list of matrices")

        def matrix(name: str, raw, rows: int) -> np.ndarray:
            try:
                w = np.asarray(raw, dtype=np.float64)
            except (TypeError, ValueError, OverflowError):
                w = None
            if w is None or w.shape != (rows, d):
                raise InputError(f"{path}: 'weights.{name}' must be a {rows}x{d} matrix")
            if not _numbers_only(raw):
                raise InputError(f"{path}: 'weights.{name}' must hold JSON numbers only")
            if not np.isfinite(w).all():
                raise InputError(f"{path}: 'weights.{name}' contains non-finite values")
            return w

        return cls(
            num_classes=c,
            feature_dim=d,
            w_cls=matrix("cls", weights["cls"], c),
            w_det=matrix("det", weights["det"], c),
            w_refine=[matrix(f"refine[{k}]", w, c + 1) for k, w in enumerate(refine)],
            w_slv_cls=matrix("slv_cls", weights["slv_cls"], c + 1),
            w_slv_reg=matrix("slv_reg", weights["slv_reg"], 4),
        )


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 200
    learning_rate: float = 1.0
    ramp_length: float = 100.0  # math.inf keeps the multi-task weight at 0
    mil_only: bool = False
    vote: VoteConfig = field(default_factory=VoteConfig)
    init_seed: int = 0

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise ConfigError("train config: iterations must be positive")
        if not 0 < self.learning_rate < math.inf:  # also rejects NaN
            raise ConfigError(
                f"train config: learning_rate must be positive and finite, got {self.learning_rate}"
            )
        if not self.ramp_length > 0:
            raise ConfigError(f"train config: ramp_length must be positive, got {self.ramp_length}")


@dataclass(frozen=True)
class TraceEntry:
    iteration: int
    loss_mil: float
    loss_refine: tuple[float, ...]
    loss_slv: float
    weight_slv: float
    loss_total: float


def save_trace(trace: list[TraceEntry], path: str | Path) -> None:
    payload = {
        "schema": TRACE_SCHEMA,
        "version": 1,
        "entries": [dataclasses.asdict(e) for e in trace],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _logits(w: np.ndarray, feats: np.ndarray, error: Exception) -> np.ndarray:
    """`w @ feats.T` for one record's (N, D) features, or one such product
    per matrix of an (R, N, D) stack. An overflow raises `error`, not a
    RuntimeWarning: an InputError for a given scorer (callers add the
    record), a NumericalError naming the iteration in training."""
    with np.errstate(over="ignore", invalid="ignore"):
        z = w @ feats.swapaxes(-1, -2)
    if not np.isfinite(z).all():
        raise error
    return z


def _training_records(dataset: Dataset) -> list[DatasetRecord]:
    records = dataset.in_id_order()
    if not records:
        raise InputError("train_toy: dataset is empty")
    for record in records:
        if record.features is None:
            raise InputError(f"train_toy: record {record.image_id!r} has no features")
        if record.features.shape[1] != records[0].features.shape[1]:
            raise InputError(
                f"train_toy: record {record.image_id!r} has {record.features.shape[1]} features per proposal,"
                f" record {records[0].image_id!r} has {records[0].features.shape[1]}"
            )
        if not positive_classes(record.labels):
            raise InputError(f"train_toy: record {record.image_id!r} has no positive class")
    return records


def _feature_groups(records: list[DatasetRecord], indices) -> list[tuple[list[int], np.ndarray]]:
    """The records at `indices` grouped by feature shape (proposal count and
    width), in order of first appearance, each group as (its indices in the
    given order, its (R, N, D) feature stack)."""
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for i in indices:
        by_shape.setdefault(records[i].features.shape, []).append(i)
    return [(members, np.stack([records[i].features for i in members])) for members in by_shape.values()]


def _proposal_groups(records: list[DatasetRecord]) -> list[tuple[list[int], np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The records grouped by proposal count, each group as (record
    indices, (R, N, 4) proposals, (R, N, D) features, (R, N, N) proposal
    IoU matrices, (R, C) positive-class mask). Proposals and features never
    change, so the stacks (the IoU stack is 8 N^2 bytes a record) are
    built once for every head and clustering call of the run."""
    groups = []
    for members, feats in _feature_groups(records, range(len(records))):
        boxes = np.stack([records[i].proposals for i in members])
        ious = np.empty((len(members), boxes.shape[1], boxes.shape[1]))
        for stack, b in zip(ious, boxes):
            stack[...] = iou_matrix(b, b)
        groups.append((members, boxes, feats, ious, np.stack([records[i].labels == 1 for i in members])))
    return groups


def train_toy(dataset: Dataset, config: TrainConfig) -> tuple[ToyScorer, list[TraceEntry]]:
    """Train the linear scorer by full-batch descent on the total loss.

    Returns the trained scorer and the per-iteration loss trace (batch
    means). Raises NumericalError naming the iteration if any loss goes
    non-finite.
    """
    records = _training_records(dataset)
    groups = _proposal_groups(records)
    # order[i]: the row of record i among every group's rows, stacked in group order.
    order = np.argsort(np.concatenate([members for members, *_ in groups]))
    num_classes = dataset.num_classes
    rng = np.random.default_rng(config.init_seed)
    scorer = ToyScorer.initialize(num_classes, records[0].features.shape[1], rng)
    trace: list[TraceEntry] = []
    n = len(records)
    for it in range(config.iterations):
        w_s = 0.0 if config.mil_only else loss_weight(config.ramp_length, it)
        diverged = NumericalError(f"training diverged at iteration {it}")
        # Each group's stack of gradient products per head of scorer.heads(),
        # and its (R,) losses per term: MIL, each refinement stage, SLV.
        products: list[list[np.ndarray]] = [[] for _ in scorer.heads()]
        p_cls, p_det, *p_refine, p_slv_cls, p_slv_reg = products
        losses: list[list[np.ndarray]] = [[] for _ in range(len(scorer.w_refine) + 2)]
        l_mil, *l_refine, l_slv = losses
        # Phase 1: the MIL head of every group, then the refinement stages.
        previous = []
        for _, _, feats, _, labels in groups:
            sigma_cls = softmax_over_classes(_logits(scorer.w_cls, feats, diverged))
            sigma_det = softmax_over_proposals(_logits(scorer.w_det, feats, diverged))
            phi0 = wsddn_scores(sigma_cls, sigma_det)
            loss, d_phi_img = mil_losses(image_scores(phi0), labels)
            l_mil.append(loss)
            # image score sums over proposals, so its gradient broadcasts
            d_sigma_cls = d_phi_img[..., None] * sigma_det
            d_sigma_det = d_phi_img[..., None] * sigma_cls
            p_cls.append(softmax_backward(sigma_cls, d_sigma_cls, axis=1) @ feats)
            p_det.append(softmax_backward(sigma_det, d_sigma_det, axis=2) @ feats)
            previous.append(phi0)

        stages = []
        for w_k, p_k, l_k in zip(scorer.w_refine, p_refine, l_refine):
            stage = [softmax_over_classes(_logits(w_k, group[2], diverged)) for group in groups]
            for (_, boxes, feats, ious, labels), phi_prev, phi_k in zip(groups, previous, stage):
                loss, d_phi = refinement_losses(phi_k, cluster_records(phi_prev, boxes, labels, ious))
                l_k.append(loss)
                p_k.append(softmax_backward(phi_k, d_phi, axis=1) @ feats)
            stages.append(stage)
            previous = stage

        if not config.mil_only:
            # Phase 2: one vote over every record's averaged refinement scores.
            averages = [average_refined_scores(*phis) for phis in zip(*stages)]
            rows = list(itertools.chain(*averages))  # every record's matrix, in group order
            batch = VoteBatch(config.vote)
            for record, at in zip(records, order.tolist()):
                batch.add(rows[at], record.proposals, record.labels, record.height, record.width)
            supervisions = np.array(batch.supervisions(), dtype=object)

            # Phase 3: targets, the SLV loss and its gradients, group by group.
            for members, boxes, feats, _, _ in groups:
                proposal_targets = assign_targets(boxes, supervisions[members], num_classes)
                phi_s = softmax_over_classes(_logits(scorer.w_slv_cls, feats, diverged))
                t_s = _logits(scorer.w_slv_reg, feats, diverged).swapaxes(1, 2)
                loss, d_phi_s, d_t_s, _vacuous = slv_losses(phi_s, t_s, proposal_targets)
                l_slv.append(loss)
                if w_s > 0.0:
                    p_slv_cls.append(w_s * (softmax_backward(phi_s, d_phi_s, axis=1) @ feats))
                    p_slv_reg.append(w_s * (d_t_s.swapaxes(1, 2) @ feats))

        # Every sum adds the records' rows one by one in record order.
        grads = [
            record_sums(np.concatenate(stacks)[order], [n])[0] if stacks else np.zeros_like(w)
            for w, stacks in zip(scorer.heads(), products)
        ]
        terms = np.stack([np.concatenate(stacks)[order] if stacks else np.zeros(n) for stacks in losses], axis=1)
        if not np.isfinite(terms).all():
            raise diverged
        totals = total_loss(terms[:, 0], terms[:, 1:-1], terms[:, -1], w_s)
        means = record_sums(np.column_stack([terms, totals]), [n])[0] / n
        mean_mil, *mean_refine, mean_slv, mean_total = means.tolist()

        lr = config.learning_rate / n
        with np.errstate(over="ignore"):  # an overflowing step shows as a non-finite weight
            for w, g in zip(scorer.heads(), grads):
                w -= lr * g
                if not np.isfinite(w).all():
                    raise diverged

        trace.append(
            TraceEntry(
                iteration=it,
                loss_mil=mean_mil,
                loss_refine=tuple(mean_refine),
                loss_slv=mean_slv,
                weight_slv=w_s,
                loss_total=mean_total,
            )
        )
    return scorer, trace


def fused_scores(scorer: ToyScorer, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Test-time scores and offsets: mean of the refinement branches and
    the re-classification branch (foreground rows), plus the offsets. For
    an (R, N, D) feature stack, one (C, N) and one (N, 4) matrix a record."""
    phi_s, t_s = scorer.slv_heads(feats)
    stack = [*scorer.refined_scores(feats), phi_s]
    fused = sum(stack) / len(stack)
    return fused[..., : scorer.num_classes, :], t_s


def _score_groups(
    records: list[DatasetRecord], scorer: ToyScorer, head: Callable
) -> tuple[list[tuple[list[int], object]], dict[int, InputError]]:
    """`head(scorer, feats)` (`fused_scores` or `ToyScorer.refined_average`)
    once per feature-shape group of the records with features, as (member
    indices, the head's stacked outputs), and the InputError of each record
    the scorer cannot score, by index: its feature width or class count
    differs from the scorer's, or its own outputs overflow. Only a group
    whose call raises is scored again, one record at a time."""
    fit, scored, errors = [], [], {}
    for i, record in enumerate(records):
        if record.features is None:
            continue
        width = record.features.shape[1]
        if width != scorer.feature_dim:
            errors[i] = InputError(f"record {record.image_id!r} has {width} features per proposal, the scorer expects {scorer.feature_dim}")
        elif len(record.labels) != scorer.num_classes:
            errors[i] = InputError(
                f"record {record.image_id!r} has {len(record.labels)} classes, the scorer has {scorer.num_classes}"
            )
        else:
            fit.append(i)
    for members, feats in _feature_groups(records, fit):
        try:
            scored.append((members, head(scorer, feats)))
        except InputError:
            for k, i in enumerate(members):
                try:
                    scored.append(([i], head(scorer, feats[k : k + 1])))
                except InputError as exc:
                    errors[i] = InputError(f"record {records[i].image_id!r}: {exc}")
    return scored, errors


def check_inference(nms_iou: float = NMS_IOU, score_min: float = SCORE_MIN) -> None:
    """Reject thresholds `run_inference` cannot use; `train` calls this
    before its first iteration."""
    if not 0.0 < nms_iou < 1.0:
        raise InputError(f"run_inference: nms_iou must be in (0, 1), got {nms_iou}")
    if not math.isfinite(score_min):
        raise InputError(f"run_inference: score_min must be finite, got {score_min}")


def run_inference(
    scorer: ToyScorer,
    dataset: Dataset,
    nms_iou: float = NMS_IOU,
    score_min: float = SCORE_MIN,
) -> Detections:
    """Detections for every record: shift proposals by the regression
    offsets, then per-class NMS on the fused scores, in one `nms` call
    whose groups are the (record, class) pairs in image-id order. The
    scorer and the box decoding run once per group of records with one
    feature shape; an error names the first failing record in id order."""
    check_inference(nms_iou, score_min)
    records = dataset.in_id_order()
    num_classes = scorer.num_classes
    scored, errors = _score_groups(records, scorer, fused_scores)
    for i, record in enumerate(records):
        if record.features is None:
            errors[i] = InputError(f"record {record.image_id!r} has no features")
    if errors:
        raise InputError(f"run_inference: {errors[min(errors)]}")
    parts = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros((0, 4), np.int64), np.zeros(0))]
    for members, (class_scores, offsets) in scored:  # (R, C, N) and (R, N, 4)
        r, n = offsets.shape[:2]
        proposals = np.stack([records[i].proposals for i in members]).reshape(-1, 4)
        sizes = np.array([(records[i].height, records[i].width) for i in members]).repeat(n, axis=0)
        decoded = decode_boxes(proposals, offsets.reshape(-1, 4), sizes[:, 0], sizes[:, 1]).reshape(r, n, 4)
        valid = (decoded[..., 0] < decoded[..., 2]) & (decoded[..., 1] < decoded[..., 3])
        # Record- then class-major, so each (record, class) group lists its proposals in order.
        k, c, p = np.nonzero(valid[:, None, :] & (class_scores > score_min))
        parts.append((np.array(members)[k] * num_classes + c, c, decoded[k, p], class_scores[k, c, p]))
    groups, classes, boxes, scores = map(np.concatenate, zip(*parts))
    kept = nms(boxes, scores, iou_threshold=nms_iou, groups=groups)
    ids = [records[g].image_id for g in (groups[kept] // num_classes).tolist()]
    return Detections(ids, classes[kept], boxes[kept], scores[kept])


def vote_dataset(
    dataset: Dataset,
    config: VoteConfig,
    scorer: ToyScorer | None = None,
    heatmap_dir: str | Path | None = None,
) -> tuple[list[tuple[str, Supervision]], list[str]]:
    """Voted supervision per record, in image-id order.

    Records without a score source are reported in the second return value
    and skipped; the run continues. With `heatmap_dir` set, the normalized
    likelihood map of every (record, positive class) pair is exported as
    `<image_id>_class<c>.pgm` there once every record has voted, so a
    failed vote writes nothing, and an image id with a path separator ('/'
    on every system) or NUL raises before the vote.
    """
    voted: list[str] = []
    skipped: list[str] = []
    records = dataset.in_id_order()
    matrices = [record.scores for record in records]
    if scorer is not None:
        groups, errors = _score_groups(records, scorer, ToyScorer.refined_average)
        if errors:
            raise errors[min(errors)]
        for members, stack in groups:
            for i, matrix in zip(members, stack):
                matrices[i] = matrix
    if heatmap_dir is not None:
        for record in records:
            if {"/", "\0", os.sep, os.altsep}.intersection(record.image_id):
                raise InputError(f"record {record.image_id!r}: a heatmap file name cannot hold a path separator or NUL")
    maps: list[tuple[str, LikelihoodMap]] = []  # held as cells plus edges until the batch has labeled
    batch = VoteBatch(config)
    for record, matrix in zip(records, matrices):
        if matrix is None:
            skipped.append(record.image_id)
            continue
        on_map = None
        if heatmap_dir is not None:
            # Called within `add`, so `record` is still this record.
            on_map = lambda m: maps.append((f"{record.image_id}_class{m.class_id}.pgm", m))
        try:
            batch.add(matrix, record.proposals, record.labels, record.height, record.width, on_map)
        except InputError as exc:
            raise InputError(f"record {record.image_id!r}: {exc}") from None
        voted.append(record.image_id)
    supervisions = batch.supervisions()
    if heatmap_dir is not None:
        heatmap_dir = Path(heatmap_dir)
        heatmap_dir.mkdir(parents=True, exist_ok=True)
        for name, likelihood in maps:
            write_pgm(likelihood, heatmap_dir / name)
    return list(zip(voted, supervisions)), skipped
