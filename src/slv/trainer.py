"""Full-batch gradient-descent trainer over a linear proposal scorer.

The scorer stands in for the network heads: one linear map per head from
proposal features to classification/detection logits, refinement logits,
and the re-classification/re-localization outputs. Each iteration runs the
whole forward pass, votes pseudo ground truth from the averaged refinement
scores (treated as a constant, no gradient flows through the vote), and
descends on the weighted total loss. Voted supervision only influences the
weights once the ramp weight is positive.

Test-time detection scores are the arithmetic mean of the three refinement
branches and the re-classification branch (an assumption; the combination
rule is not pinned down elsewhere), and every proposal is shifted by the
re-localization offsets before per-class NMS.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datasets import Dataset, DatasetRecord
from .errors import ConfigError, InputError, NumericalError
from .evaluation import Detection
from .mil import (
    ScoreMatrix,
    average_refined_scores,
    build_clusters,
    image_scores,
    mil_loss,
    positive_classes,
    refinement_loss,
    softmax_backward,
    softmax_over_classes,
    softmax_over_proposals,
    wsddn_scores,
)
from .geometry import Box, iou_matrix, nms
from .targets import assign_targets, decode_boxes, loss_weight, slv_loss, total_loss
from .voting import Supervision, VoteConfig, generate_supervision, write_pgm

SCORER_SCHEMA = "slv/scorer"
TRACE_SCHEMA = "slv/trace"

REFINEMENTS = 3  # refinement branches, as in OICR
INIT_SCALE = 0.01  # standard deviation of the initial weights


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

    def refined_scores(self, feats: np.ndarray) -> list[ScoreMatrix]:
        return [softmax_over_classes(ScoreMatrix(_scorer_head(w, feats))) for w in self.w_refine]

    def refined_average(self, feats: np.ndarray) -> ScoreMatrix:
        return average_refined_scores(*self.refined_scores(feats))

    def slv_heads(self, feats: np.ndarray) -> tuple[ScoreMatrix, np.ndarray]:
        phi_s = softmax_over_classes(ScoreMatrix(_scorer_head(self.w_slv_cls, feats)))
        return phi_s, _scorer_head(self.w_slv_reg, feats).T

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
        if self.learning_rate <= 0:
            raise ConfigError("train config: learning_rate must be positive")
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
        "entries": [
            {
                "iteration": e.iteration,
                "loss_mil": e.loss_mil,
                "loss_refine": list(e.loss_refine),
                "loss_slv": e.loss_slv,
                "weight_slv": e.weight_slv,
                "loss_total": e.loss_total,
            }
            for e in trace
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _head(w: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """`w @ feats.T`; an overflow shows as a non-finite entry for the caller
    to report, not as a RuntimeWarning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return w @ feats.T


def _scorer_head(w: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """One head of a given scorer; finite weights whose products overflow
    are an input error (callers add the record)."""
    z = _head(w, feats)
    if not np.isfinite(z).all():
        raise InputError("scorer weights give non-finite outputs")
    return z


def _finite_logits(w: np.ndarray, feats: np.ndarray, iteration: int) -> ScoreMatrix:
    z = _head(w, feats)
    if not np.isfinite(z).all():
        raise NumericalError(f"training diverged at iteration {iteration}")
    return ScoreMatrix(z)


def _training_records(dataset: Dataset) -> list[DatasetRecord]:
    records = sorted(dataset.records, key=lambda r: r.image_id)
    if not records:
        raise InputError("train_toy: dataset is empty")
    for record in records:
        if record.features is None:
            raise InputError(f"train_toy: record {record.image_id!r} has no features")
        if not positive_classes(record.labels):
            raise InputError(f"train_toy: record {record.image_id!r} has no positive class")
    return records


def train_toy(dataset: Dataset, config: TrainConfig) -> tuple[ToyScorer, list[TraceEntry]]:
    """Train the linear scorer by full-batch descent on the total loss.

    Returns the trained scorer and the per-iteration loss trace (batch
    means). Raises NumericalError naming the iteration if any loss goes
    non-finite.
    """
    records = _training_records(dataset)
    # Proposals never change, so each record's IoU matrix (8 N^2 bytes) is
    # computed once for every clustering call of the run.
    proposal_ious = [iou_matrix(r.proposals, r.proposals) for r in records]
    num_classes = dataset.num_classes
    rng = np.random.default_rng(config.init_seed)
    scorer = ToyScorer.initialize(num_classes, records[0].features.shape[1], rng)
    trace: list[TraceEntry] = []
    n = len(records)
    for it in range(config.iterations):
        w_s = 0.0 if config.mil_only else loss_weight(config.ramp_length, it)
        grads = {
            "cls": np.zeros_like(scorer.w_cls),
            "det": np.zeros_like(scorer.w_det),
            "slv_cls": np.zeros_like(scorer.w_slv_cls),
            "slv_reg": np.zeros_like(scorer.w_slv_reg),
        }
        grads_refine = [np.zeros_like(w) for w in scorer.w_refine]
        sum_mil = 0.0
        sum_refine = np.zeros(len(scorer.w_refine))
        sum_slv = 0.0
        sum_total = 0.0
        for record, ious in zip(records, proposal_ious):
            feats = record.features
            y = record.labels

            sigma_cls = softmax_over_classes(_finite_logits(scorer.w_cls, feats, it))
            sigma_det = softmax_over_proposals(_finite_logits(scorer.w_det, feats, it))
            phi0 = wsddn_scores(sigma_cls, sigma_det)
            phi_img = image_scores(phi0)
            l_mil, d_phi_img = mil_loss(phi_img, y)
            # image score sums over proposals, so its gradient broadcasts
            d_sigma_cls = d_phi_img[:, None] * sigma_det.data
            d_sigma_det = d_phi_img[:, None] * sigma_cls.data
            grads["cls"] += softmax_backward(sigma_cls.data, d_sigma_cls, axis=0) @ feats
            grads["det"] += softmax_backward(sigma_det.data, d_sigma_det, axis=1) @ feats

            refine_losses = []
            refined: list[ScoreMatrix] = []
            previous = phi0
            for k, w_k in enumerate(scorer.w_refine):
                phi_k = softmax_over_classes(_finite_logits(w_k, feats, it))
                clusters = build_clusters(previous, record.proposals, y, ious)
                l_k, d_phi_k = refinement_loss(phi_k, clusters)
                grads_refine[k] += softmax_backward(phi_k.data, d_phi_k, axis=0) @ feats
                refine_losses.append(l_k)
                refined.append(phi_k)
                previous = phi_k

            l_slv = 0.0
            if not config.mil_only:
                phi_bar = average_refined_scores(*refined)
                supervision = generate_supervision(
                    phi_bar, record.proposals, y, record.height, record.width, config.vote
                )
                proposal_targets = assign_targets(record.proposals, supervision, num_classes)
                phi_s = softmax_over_classes(_finite_logits(scorer.w_slv_cls, feats, it))
                t_s = _head(scorer.w_slv_reg, feats).T
                if not np.isfinite(t_s).all():
                    raise NumericalError(f"training diverged at iteration {it}")
                l_slv, d_phi_s, d_t_s, _vacuous = slv_loss(phi_s, t_s, proposal_targets)
                if w_s > 0.0:
                    grads["slv_cls"] += w_s * (softmax_backward(phi_s.data, d_phi_s, axis=0) @ feats)
                    grads["slv_reg"] += w_s * (d_t_s.T @ feats)

            if not all(math.isfinite(v) for v in (l_mil, *refine_losses, l_slv)):
                raise NumericalError(f"training diverged at iteration {it}")
            l_total = total_loss(l_mil, refine_losses, l_slv, w_s)
            sum_mil += l_mil
            sum_refine += np.asarray(refine_losses)
            sum_slv += l_slv
            sum_total += l_total

        lr = config.learning_rate / n
        scorer.w_cls -= lr * grads["cls"]
        scorer.w_det -= lr * grads["det"]
        for w_k, g_k in zip(scorer.w_refine, grads_refine):
            w_k -= lr * g_k
        scorer.w_slv_cls -= lr * grads["slv_cls"]
        scorer.w_slv_reg -= lr * grads["slv_reg"]
        weights = [scorer.w_cls, scorer.w_det, scorer.w_slv_cls, scorer.w_slv_reg, *scorer.w_refine]
        if not all(np.isfinite(w).all() for w in weights):
            raise NumericalError(f"training diverged at iteration {it}")

        trace.append(
            TraceEntry(
                iteration=it,
                loss_mil=sum_mil / n,
                loss_refine=tuple(sum_refine / n),
                loss_slv=sum_slv / n,
                weight_slv=w_s,
                loss_total=sum_total / n,
            )
        )
    return scorer, trace


def fused_scores(scorer: ToyScorer, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Test-time scores and offsets: mean of the refinement branches and
    the re-classification branch (foreground rows), plus the offsets."""
    matrices = scorer.refined_scores(feats)
    phi_s, t_s = scorer.slv_heads(feats)
    stack = [m.data for m in matrices] + [phi_s.data]
    fused = sum(stack) / len(stack)
    return fused[: scorer.num_classes], t_s


def run_inference(
    scorer: ToyScorer,
    dataset: Dataset,
    nms_iou: float = 0.3,
    score_min: float = 1e-3,
) -> list[Detection]:
    """Detections for every record: shift proposals by the regression
    offsets, then per-class NMS on the fused scores."""
    detections: list[Detection] = []
    for record in sorted(dataset.records, key=lambda r: r.image_id):
        if record.features is None:
            raise InputError(f"run_inference: record {record.image_id!r} has no features")
        try:
            class_scores, offsets = fused_scores(scorer, record.features)
        except InputError as exc:
            raise InputError(f"run_inference: record {record.image_id!r}: {exc}") from None
        decoded = decode_boxes(record.proposals, offsets, record.height, record.width)
        valid = np.flatnonzero((decoded[:, 0] < decoded[:, 2]) & (decoded[:, 1] < decoded[:, 3]))
        for c in range(scorer.num_classes):
            scored = valid[class_scores[c, valid] > score_min]
            if not scored.size:
                continue
            scores = class_scores[c, scored].tolist()
            # Boxes are built only for the detections NMS keeps.
            detections.extend(
                Detection(image_id=record.image_id, class_id=c, box=Box(*decoded[scored[k]].tolist()), score=scores[k])
                for k in nms(decoded[scored], scores, iou_threshold=nms_iou)
            )
    return detections


def resolve_scores(record: DatasetRecord, scorer: ToyScorer | None) -> ScoreMatrix | None:
    """Score matrix for a record: the scorer's averaged refinement
    branches when available, else the record's embedded matrix."""
    if scorer is not None and record.features is not None:
        if record.features.shape[1] != scorer.feature_dim:
            raise InputError(
                f"record {record.image_id!r} has {record.features.shape[1]} features per proposal,"
                f" the scorer expects {scorer.feature_dim}"
            )
        try:
            return scorer.refined_average(record.features)
        except InputError as exc:
            raise InputError(f"record {record.image_id!r}: {exc}") from None
    if record.scores is not None:
        return ScoreMatrix(record.scores)
    return None


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
    `<image_id>_class<c>.pgm` there.
    """
    results: list[tuple[str, Supervision]] = []
    skipped: list[str] = []
    if heatmap_dir is not None:
        heatmap_dir = Path(heatmap_dir)
        heatmap_dir.mkdir(parents=True, exist_ok=True)
    for record in sorted(dataset.records, key=lambda r: r.image_id):
        matrix = resolve_scores(record, scorer)
        if matrix is None:
            skipped.append(record.image_id)
            continue
        on_map = None
        if heatmap_dir is not None:
            # Called within this iteration, so `record` is still this record.
            on_map = lambda m: write_pgm(m, heatmap_dir / f"{record.image_id}_class{m.class_id}.pgm")
        sup = generate_supervision(
            matrix, record.proposals, record.labels, record.height, record.width, config, on_map
        )
        results.append((record.image_id, sup))
    return results, skipped
