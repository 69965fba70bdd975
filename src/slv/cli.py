"""Command-line pipeline: synthesize data, train the toy scorer, vote
pseudo labels, compare labeling schemes, and evaluate detections.

Every command is a pure function of its inputs, the seed, and the config;
re-running with identical arguments produces byte-identical outputs. Exit
codes: 0 success, 1 input error, 2 numerical error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
    check_inference,
    missing_scores,
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `slv` argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="slv",
        description="Spatial likelihood voting pipeline for weakly supervised detection experiments.",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed, a non-negative integer (default 0)")
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
    train.add_argument("--mil-only", action="store_true", default=None, help="drop the voted-supervision branch entirely")
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


# Every config-file key: (section, key) -> (JSON type, the `args` field of
# the flag that overrides it). A key that neither sets keeps the default of
# the dataclass field or function parameter it feeds.
_KEYS: dict[tuple[str, str], tuple[type, str | None]] = {
    ("synthetic", "num_images"): (int, "images"),
    ("synthetic", "image_size"): (int, "size"),
    ("synthetic", "num_classes"): (int, "classes"),
    ("synthetic", "objects_per_image"): (int, "objects"),
    ("synthetic", "proposals_per_image"): (int, "proposals"),
    ("synthetic", "jitter"): (float, "jitter"),
    ("synthetic", "part_bias"): (float, "bias"),
    ("synthetic", "feature_noise"): (float, None),
    ("train", "iterations"): (int, "iterations"),
    ("train", "learning_rate"): (float, "lr"),
    ("train", "ramp_length"): (float, "ramp"),
    ("train", "mil_only"): (bool, "mil_only"),
    ("train", "nms_iou"): (float, "nms_iou"),
    ("train", "det_score_min"): (float, "det_score_min"),
    ("vote", "preset"): (str, "preset"),
    ("vote", "t_score"): (float, "t_score"),
    ("vote", "t_b_default"): (float, "t_b"),
    ("vote", "t_b_per_class"): (dict, None),
    ("evaluate", "iou_threshold"): (float, "iou_threshold"),
    ("evaluate", "interpolation"): (str, "interpolation"),
}

# The train keys that `run_inference` takes, by its parameter names.
_INFERENCE = {"nms_iou": "nms_iou", "det_score_min": "score_min"}


def _checked(key: str, kind: type, value):
    """The config value if it has the key's JSON type. A boolean passes only
    for a bool; any number passes for a float and comes back as one, and
    `ramp_length` may also be a numeric string such as "inf". `t_b_per_class`
    maps class ids to numbers."""
    if key == "t_b_per_class":
        # `type(v)` rejects JSON booleans and numeric strings, which float() takes.
        if isinstance(value, dict) and set(map(type, value.values())) <= {int, float}:
            return value
        raise ConfigError(f"config key 't_b_per_class' must map class ids to numbers, got {value!r}")
    ramp = key == "ramp_length"
    kinds = ((int, float, str) if ramp else (int, float)) if kind is float else kind
    try:
        if isinstance(value, bool) == (kind is bool) and isinstance(value, kinds):
            return float(value) if kind is float else value  # float() fails past the float range
    except (ValueError, OverflowError):
        pass
    expected = "a number or a numeric string" if ramp else f"of type {kind.__name__}"
    raise ConfigError(f"config key {key!r} must be {expected}, got {value!r}")


def _load_config(path: Path | None) -> dict[str, dict]:
    """The config file's sections, every key and value checked against _KEYS."""
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
    for name, section in config.items():
        if name not in {s for s, _ in _KEYS}:
            raise ConfigError(f"unknown config section {name!r}")
        if not isinstance(section, dict):
            raise ConfigError(f"config section {name!r} must be an object, got {section!r}")
        for key, value in section.items():
            if (name, key) not in _KEYS:
                raise ConfigError(f"unknown config key {key!r} in section {name!r}")
            section[key] = _checked(key, _KEYS[name, key][0], value)
    return config


def _settings(args, config: dict, section: str) -> dict:
    """The section's keys that are set: by their flag, else by the config file."""
    flags = {key: getattr(args, flag, None) for (s, key), (_, flag) in _KEYS.items() if s == section and flag}
    return {**config.get(section, {}), **{key: v for key, v in flags.items() if v is not None}}


def _vote_config(args, config: dict, num_classes: int) -> VoteConfig:
    """The vote thresholds; config-file `t_b_per_class` keys must be decimal
    class ids below the dataset's `num_classes` (the preset's are not checked)."""
    settings = _settings(args, config, "vote")
    preset = settings.pop("preset", None)
    if preset not in (None, "voc2007"):
        raise InputError(f"unknown vote preset {preset!r}")
    if "t_b_per_class" in settings:
        raw = settings["t_b_per_class"]
        # int() would also read "1_0", " 1" or "01", and ignore ids past the last class.
        bad = [k for k in raw if not (_CLASS_ID.fullmatch(k) and int(k) < num_classes)]
        if bad:
            raise ConfigError(f"config key 't_b_per_class' has {bad[0]!r}, not a class id below {num_classes}")
        settings["t_b_per_class"] = {int(k): v for k, v in raw.items()}
    return dataclasses.replace(voc2007_config() if preset else VoteConfig(), **settings)


def _cmd_generate(args, config: dict) -> int:
    scene = SyntheticSceneConfig(**_settings(args, config, "synthetic"))
    dataset = generate_synthetic(scene, args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    target = args.out / "dataset.jsonl"
    save_dataset(dataset, target)
    print(f"wrote {len(dataset)} records to {target}")
    return 0


def _cmd_train(args, config: dict) -> int:
    dataset = load_dataset(args.dataset)
    settings = _settings(args, config, "train")
    inference = {name: settings.pop(key) for key, name in _INFERENCE.items() if key in settings}
    check_inference(**inference)
    vote_config = _vote_config(args, config, dataset.num_classes)
    train_config = TrainConfig(**settings, vote=vote_config, init_seed=args.seed)
    scorer, trace = train_toy(dataset, train_config)
    # Inference runs before the first write, so a failed one leaves no file.
    detections = run_inference(scorer, dataset, **inference) if args.emit_detections else None
    args.out.mkdir(parents=True, exist_ok=True)
    scorer.save(args.out / "scorer.json")
    save_trace(trace, args.out / "trace.json")
    first, last = trace[0], trace[-1]
    print(f"trained {train_config.iterations} iterations on {len(dataset)} records")
    print(f"loss_total first {first.loss_total:.6f} last {last.loss_total:.6f}")
    if detections is not None:
        save_detections(detections, args.out / "detections.jsonl")
        print(f"wrote {len(detections)} detections to {args.out / 'detections.jsonl'}")
    return 0


def _cmd_vote(args, config: dict) -> int:
    dataset = load_dataset(args.dataset)
    vote_config = _vote_config(args, config, dataset.num_classes)
    scorer = ToyScorer.load(args.scorer) if args.scorer else None
    heatmap_dir = args.out / "heatmaps" if args.emit_heatmaps else None
    results, skipped = vote_dataset(dataset, vote_config, scorer=scorer, heatmap_dir=heatmap_dir)
    for image_id in skipped:
        log.error("record %s %s; skipped", image_id, missing_scores(scorer))
    # Made after the vote, so a failed one leaves no folder (and no heatmap).
    args.out.mkdir(parents=True, exist_ok=True)
    target = args.out / "pseudo_labels.jsonl"
    save_pseudo_labels(results, target)
    boxes = sum(len(sup.boxes) for _, sup in results)
    print(f"voted {boxes} boxes over {len(results)} records to {target}")
    return 0


def _cmd_compare_schemes(args, config: dict) -> int:
    dataset = load_dataset(args.dataset)
    vote_config = _vote_config(args, config, dataset.num_classes)
    scorer = ToyScorer.load(args.scorer) if args.scorer else None
    stats = compare_schemes(dataset, vote_config, scorer)
    report = format_scheme_report(stats)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "scheme_report.txt").write_text(report, encoding="utf-8")
    sys.stdout.write(report)
    return 0


def _cmd_evaluate(args, config: dict) -> int:
    dataset = load_dataset(args.dataset)
    detections = load_detections(args.detections)
    images = {record.image_id for record in dataset.records}
    classes = detections.classes
    if not images.issuperset(detections.image_ids) or ((classes < 0) | (classes >= dataset.num_classes)).any():
        for image_id, class_id in zip(detections.image_ids, classes.tolist()):  # name the first bad detection
            if not 0 <= class_id < dataset.num_classes:
                raise InputError(f"detection for image {image_id!r} has unknown class id {class_id}")
            if image_id not in images:
                raise InputError(f"detection for image {image_id!r}: no such image in the dataset")
    result = evaluate_detections(detections, dataset.ground_truth(), **_settings(args, config, "evaluate"))
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
        if args.seed < 0:  # numpy's generators take no negative seed
            build_parser().error(f"argument --seed: must be a non-negative integer, got {args.seed}")
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
    except MemoryError as exc:  # a valid input too large for this host, in any stage
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
