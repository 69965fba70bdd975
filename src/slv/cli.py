"""Command-line pipeline: synthesize data, train the toy scorer, vote
pseudo labels, compare labeling schemes, and evaluate detections.

Every command is a pure function of its inputs, the seed, and the config;
re-running with identical arguments produces byte-identical outputs. Exit
codes: 0 success, 1 input error, 2 numerical error.
"""

from __future__ import annotations

import argparse
import json
import logging
import re
import sys
from pathlib import Path

from .datasets import (
    load_dataset,
    load_detections,
    save_dataset,
    save_detections,
    save_pseudo_labels,
)
from .errors import ConfigError, InputError, NumericalError
from .evaluation import ALL_POINTS, ELEVEN_POINT, evaluate_detections, format_report
from .schemes import compare_schemes, format_scheme_report
from .synthetic import SyntheticSceneConfig, generate_synthetic
from .trainer import (
    ToyScorer,
    TrainConfig,
    resolve_scores,
    run_inference,
    save_trace,
    train_toy,
    vote_dataset,
)
from .voting import VoteConfig, voc2007_config

log = logging.getLogger("slv")

_CLASS_ID = re.compile(r"0|[1-9][0-9]*")  # a class id as a config-file key


class _Parser(argparse.ArgumentParser):
    """Reports usage problems as InputError so they exit with code 1,
    keeping exit code 2 reserved for numerical errors."""

    def error(self, message):
        raise InputError(f"{message} (see `{self.prog} --help`)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="slv",
        description="Spatial likelihood voting pipeline for weakly supervised detection experiments.",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", help="write a synthetic dataset with ground truth")
    gen.add_argument("--images", type=int, default=None)
    gen.add_argument("--size", type=int, default=None, help="square image side in pixels")
    gen.add_argument("--classes", type=int, default=None)
    gen.add_argument("--objects", type=int, default=None, help="objects per image")
    gen.add_argument("--proposals", type=int, default=None, help="proposals per image")
    gen.add_argument("--jitter", type=float, default=None)
    gen.add_argument("--bias", type=float, default=None, help="discriminative-part bias in [0, 1]")

    train = commands.add_parser("train", help="train the toy scorer and dump trace + weights")
    train.add_argument("dataset", type=Path)
    train.add_argument("--iterations", type=int, default=None)
    train.add_argument("--lr", type=float, default=None)
    train.add_argument("--ramp", type=float, default=None, help="ramp length in iterations (inf keeps the voted-supervision weight at 0)")
    train.add_argument("--mil-only", action="store_true", help="drop the voted-supervision branch entirely")
    train.add_argument("--emit-detections", action="store_true", help="also run inference and write detections.jsonl")
    train.add_argument("--nms-iou", type=float, default=None)
    train.add_argument("--det-score-min", type=float, default=None)

    vote = commands.add_parser("vote", help="vote pseudo labels for a dataset")
    vote.add_argument("dataset", type=Path)
    vote.add_argument("--scorer", type=Path, default=None, help="scorer weights from `train`")
    vote.add_argument("--emit-heatmaps", action="store_true", help="write one PGM per (image, positive class)")
    vote.add_argument("--t-score", type=float, default=None)
    vote.add_argument("--t-b", type=float, default=None)
    vote.add_argument("--preset", choices=["voc2007"], default=None)

    schemes = commands.add_parser("compare-schemes", help="mean-IoU report for three labeling schemes")
    schemes.add_argument("dataset", type=Path)
    schemes.add_argument("--scorer", type=Path, default=None)

    ev = commands.add_parser("evaluate", help="AP / CorLoc report for a detections file")
    ev.add_argument("detections", type=Path)
    ev.add_argument("dataset", type=Path)
    ev.add_argument("--iou-threshold", type=float, default=None)
    ev.add_argument("--interpolation", choices=[ALL_POINTS, ELEVEN_POINT], default=None)

    return parser


def _load_config(path: Path | None) -> dict:
    if path is None:
        return {}
    try:
        config = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config file {path}: invalid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise InputError(f"config file {path}: top level must be an object")
    return config


def _section(config: dict, name: str) -> dict:
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be an object, got {section!r}")
    return section


def _pick(cli_value, section: dict, key: str, default):
    """The command-line value, else the config value, else the default. A
    config value must have the default's JSON type; an integer passes for
    a float, and a boolean only for a boolean."""
    if cli_value is not None:
        return cli_value
    if key not in section:
        return default
    value = section[key]
    kinds = (int, float) if isinstance(default, float) else type(default)
    if isinstance(value, bool) != isinstance(default, bool) or not isinstance(value, kinds):
        raise ConfigError(f"config key {key!r} must be of type {type(default).__name__}, got {value!r}")
    return value


def _vote_config(args, config: dict, num_classes: int) -> VoteConfig:
    """The vote thresholds; config-file `t_b_per_class` keys must be decimal
    class ids below the dataset's `num_classes` (the preset's are not checked)."""
    section = _section(config, "vote")
    preset = getattr(args, "preset", None) or section.get("preset")
    if preset not in (None, "voc2007"):
        raise InputError(f"unknown vote preset {preset!r}")
    base = voc2007_config() if preset == "voc2007" else VoteConfig()
    raw = section.get("t_b_per_class")
    if raw is None:
        per_class = base.t_b_per_class
    else:
        # `type(v)` rejects JSON booleans and numeric strings, which float() takes.
        if not isinstance(raw, dict) or not set(map(type, raw.values())) <= {int, float}:
            raise ConfigError(f"config key 't_b_per_class' must map class ids to numbers, got {raw!r}")
        # int() would also read "1_0", " 1" or "01", and ignore ids past the last class.
        bad = [k for k in raw if not (_CLASS_ID.fullmatch(k) and int(k) < num_classes)]
        if bad:
            raise ConfigError(
                f"config key 't_b_per_class' has {bad[0]!r}, not a class id below {num_classes}"
            )
        per_class = {int(k): v for k, v in raw.items()}
    return VoteConfig(
        t_score=_pick(getattr(args, "t_score", None), section, "t_score", base.t_score),
        t_b_default=_pick(getattr(args, "t_b", None), section, "t_b_default", base.t_b_default),
        t_b_per_class=per_class,
    )


def _cmd_generate(args, config: dict) -> int:
    section = _section(config, "synthetic")
    scene = SyntheticSceneConfig(
        num_images=_pick(args.images, section, "num_images", 50),
        image_size=_pick(args.size, section, "image_size", 96),
        num_classes=_pick(args.classes, section, "num_classes", 3),
        objects_per_image=_pick(args.objects, section, "objects_per_image", 2),
        proposals_per_image=_pick(args.proposals, section, "proposals_per_image", 40),
        jitter=_pick(args.jitter, section, "jitter", 0.05),
        part_bias=_pick(args.bias, section, "part_bias", 0.9),
        feature_noise=_pick(None, section, "feature_noise", 0.05),
    )
    dataset = generate_synthetic(scene, args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    target = args.out / "dataset.jsonl"
    save_dataset(dataset, target)
    print(f"wrote {len(dataset)} records to {target}")
    return 0


def _train_config(args, config: dict, num_classes: int) -> TrainConfig:
    section = _section(config, "train")
    ramp = section.get("ramp_length", 100.0) if args.ramp is None else args.ramp
    try:
        ramp_length = float(ramp)  # a string such as "inf" or "50" is allowed
    except (TypeError, ValueError, OverflowError):
        ramp_length = None
    if ramp_length is None or isinstance(ramp, bool):  # float(True) is 1.0
        raise ConfigError(f"config key 'ramp_length' must be a number or a numeric string, got {ramp!r}")
    return TrainConfig(
        iterations=_pick(args.iterations, section, "iterations", 200),
        learning_rate=_pick(args.lr, section, "learning_rate", 1.0),
        ramp_length=ramp_length,
        mil_only=_pick(args.mil_only or None, section, "mil_only", False),
        vote=_vote_config(args, config, num_classes),
        init_seed=args.seed,
    )


def _cmd_train(args, config: dict) -> int:
    dataset = load_dataset(args.dataset)
    train_config = _train_config(args, config, dataset.num_classes)
    scorer, trace = train_toy(dataset, train_config)
    args.out.mkdir(parents=True, exist_ok=True)
    scorer.save(args.out / "scorer.json")
    save_trace(trace, args.out / "trace.json")
    first, last = trace[0], trace[-1]
    print(f"trained {train_config.iterations} iterations on {len(dataset)} records")
    print(f"loss_total first {first.loss_total:.6f} last {last.loss_total:.6f}")
    if args.emit_detections:
        section = _section(config, "train")
        detections = run_inference(
            scorer,
            dataset,
            nms_iou=_pick(args.nms_iou, section, "nms_iou", 0.3),
            score_min=_pick(args.det_score_min, section, "det_score_min", 1e-3),
        )
        save_detections(detections, args.out / "detections.jsonl")
        print(f"wrote {len(detections)} detections to {args.out / 'detections.jsonl'}")
    return 0


def _cmd_vote(args, config: dict) -> int:
    dataset = load_dataset(args.dataset)
    vote_config = _vote_config(args, config, dataset.num_classes)
    scorer = ToyScorer.load(args.scorer) if args.scorer else None
    args.out.mkdir(parents=True, exist_ok=True)
    heatmap_dir = args.out / "heatmaps" if args.emit_heatmaps else None
    results, skipped = vote_dataset(dataset, vote_config, scorer=scorer, heatmap_dir=heatmap_dir)
    for image_id in skipped:
        log.error("record %s has no scores and no scorer was given; skipped", image_id)
    target = args.out / "pseudo_labels.jsonl"
    save_pseudo_labels(results, target)
    boxes = sum(len(sup.all_boxes()) for _, sup in results)
    print(f"voted {boxes} boxes over {len(results)} records to {target}")
    return 0


def _cmd_compare_schemes(args, config: dict) -> int:
    dataset = load_dataset(args.dataset)
    vote_config = _vote_config(args, config, dataset.num_classes)
    scorer = ToyScorer.load(args.scorer) if args.scorer else None

    def score_fn(record):
        matrix = resolve_scores(record, scorer)
        if matrix is None:
            raise InputError(f"record {record.image_id!r} has no scores and no scorer was given")
        return matrix

    stats = compare_schemes(dataset, score_fn, vote_config)
    report = format_scheme_report(stats)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "scheme_report.txt").write_text(report, encoding="utf-8")
    sys.stdout.write(report)
    return 0


def _cmd_evaluate(args, config: dict) -> int:
    section = _section(config, "evaluate")
    dataset = load_dataset(args.dataset)
    detections = load_detections(args.detections)
    for d in detections:
        if not 0 <= d.class_id < dataset.num_classes:
            raise InputError(
                f"detection for image {d.image_id!r} has unknown class id {d.class_id}"
            )
    result = evaluate_detections(
        detections,
        dataset.ground_truth(),
        iou_threshold=_pick(args.iou_threshold, section, "iou_threshold", 0.5),
        interpolation=_pick(args.interpolation, section, "interpolation", ALL_POINTS),
    )
    report = format_report(result)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "metrics.txt").write_text(report, encoding="utf-8")
    sys.stdout.write(report)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "vote": _cmd_vote,
    "compare-schemes": _cmd_compare_schemes,
    "evaluate": _cmd_evaluate,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
        config = _load_config(args.config)
        return _COMMANDS[args.command](args, config)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
