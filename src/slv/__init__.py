"""Spatial likelihood voting for weakly supervised object detection.

Core idea: every proposal votes its class score onto the pixels it covers;
the normalized, thresholded vote map yields pseudo ground-truth boxes that
supervise a re-classification/re-localization head alongside the usual
image-level and cluster refinement losses.
"""

from .errors import ConfigError, DatasetFormatError, InputError, NumericalError, SlvError
from .geometry import (
    BinaryGrid,
    Box,
    connected_components,
    iou,
    min_bounding_rect,
    nms,
    region_boxes,
)
from .mil import (
    Cluster,
    ClusterBatch,
    ClusterSet,
    average_refined_scores,
    build_clusters,
    cluster_records,
    image_scores,
    mil_loss,
    mil_losses,
    refinement_loss,
    refinement_losses,
    softmax_over_classes,
    softmax_over_proposals,
    wsddn_scores,
)
from .voting import (
    LikelihoodMap,
    Supervision,
    VoteBatch,
    VoteConfig,
    accumulate_fast,
    binarize,
    generate_supervision,
    normalize,
    select_candidates,
    voc2007_config,
    vote_boxes,
    write_pgm,
)
from .targets import (
    ProposalTargets,
    assign_targets,
    decode_offsets,
    encode_offsets,
    loss_weight,
    slv_loss,
    slv_losses,
    total_loss,
)
from .evaluation import (
    Detections,
    EvalResult,
    average_precision,
    corloc,
    evaluate_detections,
    format_report,
    match_detections,
    mean_ap,
)
from .datasets import Dataset, DatasetRecord, load_dataset, save_dataset
from .synthetic import SyntheticSceneConfig, generate_synthetic
from .trainer import ToyScorer, TrainConfig, run_inference, train_toy, vote_dataset
from .schemes import compare_schemes, format_scheme_report

__version__ = "0.1.0"
