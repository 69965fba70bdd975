"""Line-delimited JSON dataset, pseudo-label, and detection files.

Every file starts with a header object carrying a `schema` tag and a
`version`; records follow one per line. Dataset and detection files
round-trip losslessly through load/save, which the golden-file tests rely
on; pseudo-label files are only written.
"""

from __future__ import annotations

import json
import logging
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DatasetFormatError, InputError
from .evaluation import Detections, GroundTruth
from .geometry import Box, boxes_to_array
from .voting import Supervision

log = logging.getLogger(__name__)

DATASET_SCHEMA = "slv/dataset"
PSEUDO_LABEL_SCHEMA = "slv/pseudo-labels"
DETECTIONS_SCHEMA = "slv/detections"
SCHEMA_VERSION = 1
# JPEG's limit; larger sides would make vote grids that cannot be allocated.
MAX_IMAGE_SIDE = 65535
INT64_LIMIT = 2**63  # int64 holds [-INT64_LIMIT, INT64_LIMIT)


@dataclass
class DatasetRecord:
    """One image: size, binary class labels, proposals as one (R, 4) int64
    array of (x0, y0, x1, y1) rows, and optional per-proposal features,
    score matrix, and ground-truth boxes ((G, 4) int64 arrays by class id,
    rows in file order)."""

    image_id: str
    height: int
    width: int
    labels: np.ndarray
    proposals: np.ndarray                    # (R, 4) int64
    features: np.ndarray | None = None       # (R, D)
    scores: np.ndarray | None = None         # (num_classes, R)
    gt_boxes: dict[int, np.ndarray] | None = None


@dataclass
class Dataset:
    records: list[DatasetRecord]
    num_classes: int
    feature_dim: int | None = None
    class_names: tuple[str, ...] | None = None

    def __len__(self) -> int:
        return len(self.records)

    def in_id_order(self) -> list[DatasetRecord]:
        """The records sorted by image id: the order every stage runs and
        writes them in. The file order stays in `records`."""
        return sorted(self.records, key=lambda r: r.image_id)

    def ground_truth(self) -> GroundTruth:
        """The records' ground-truth boxes for evaluation, by image id."""
        return {record.image_id: record.gt_boxes for record in self.records if record.gt_boxes}


def _box_from_json(raw, where: str) -> Box:
    if not isinstance(raw, list) or len(raw) != 4:
        raise DatasetFormatError(f"{where}: box must be a 4-element list, got {raw!r}")
    for name, value in zip(("x0", "y0", "x1", "y1"), raw):
        # `type(value) is int` rejects JSON booleans, which Box would take as 0 and 1.
        if type(value) is not int:
            raise DatasetFormatError(f"{where}: box coordinate {name}={value!r} is not an integer")
    try:
        return Box(*raw)
    except InputError as exc:
        raise DatasetFormatError(f"{where}: {exc}") from None


def _proposal_rows(raw, height: int, width: int, where: str) -> list[Box]:
    """Proposals checked row by row: the first bad row raises its message,
    and rows reaching past the image are clipped with a warning."""
    proposals: list[Box] = []
    for k, row in enumerate(raw):
        box = _box_from_json(row, f"{where}: field 'proposals'[{k}]")
        if box.x0 >= width or box.y0 >= height:
            raise DatasetFormatError(
                f"{where}: field 'proposals'[{k}]: box {box.as_tuple()} lies outside a {height}x{width} image"
            )
        if box.x1 > width or box.y1 > height:
            clipped = Box(box.x0, box.y0, min(box.x1, width), min(box.y1, height))
            log.warning("%s: proposal %d %s clipped to %s for %dx%d image", where, k, box.as_tuple(), clipped.as_tuple(), height, width)
            box = clipped
        proposals.append(box)
    return proposals


def _box_array(raw) -> np.ndarray | None:
    """A JSON list of boxes as one (N, 4) int64 array, checked as one array:
    every row must be four JSON integers (not booleans) within int64 that
    make a valid `Box`. None for anything else."""
    try:
        if type(raw) is not list or not set(map(len, raw)) <= {4} or not set(map(type, chain.from_iterable(raw))) <= {int}:
            return None
        arr = np.array(raw, dtype=np.int64).reshape(-1, 4)
    except (TypeError, OverflowError):  # a row without a length, a coordinate beyond int64
        return None
    return None if ((arr[:, :2] < 0) | (arr[:, :2] >= arr[:, 2:])).any() else arr


def _proposals_from_json(raw, height: int, width: int, where: str) -> np.ndarray:
    """A record's proposals as one (N, 4) int64 array: a `_box_array` whose
    rows all lie inside the image. Anything else, rows reaching past the
    image included, goes row by row through `_proposal_rows`, which raises
    the first bad row's message or clips with a warning."""
    arr = _box_array(raw)
    if arr is None or (arr[:, 2:] > (width, height)).any():
        return boxes_to_array(_proposal_rows(raw, height, width, where))
    return arr


def _numbers_only(rows: list) -> bool:
    """Whether the rows of a 2-D JSON array hold only numbers; numpy would
    also take booleans and numeric strings."""
    return set(map(type, chain.from_iterable(rows))) <= {int, float}


def _number_matrix(raw) -> np.ndarray | None:
    """A JSON list of equal-length lists of numbers as an (R, C) float64
    array, or None for anything else. Checking the types first lets numpy
    skip its per-element type inference, which is what makes np.asarray on
    nested lists slow; the values are the same bit for bit."""
    if type(raw) is not list or not raw or not set(map(type, raw)) <= {list}:
        return None
    width = len(raw[0])
    if set(map(len, raw)) != {width} or not _numbers_only(raw):
        return None
    return np.fromiter(chain.from_iterable(raw), np.float64, len(raw) * width).reshape(len(raw), width)


def _number_field(raw, subject: str, shape_problem: Callable[[tuple], str | None]) -> np.ndarray:
    """A JSON matrix, a record field or a scorer weight, as a float64 array.
    The first problem raises `subject` and its message, in this order:
    `shape_problem(shape)` (a message or None), an entry that is not a JSON
    number, a non-finite entry. numpy's errors (ragged rows, say) propagate."""
    arr = numbers = _number_matrix(raw)
    if numbers is None:  # numpy raises, or the checks below reject its array
        arr = np.asarray(raw, dtype=np.float64)
    problem = shape_problem(arr.shape)
    if problem is not None:
        raise DatasetFormatError(f"{subject} {problem}")
    if numbers is None and not _numbers_only(raw):
        raise DatasetFormatError(f"{subject} must hold JSON numbers only")
    if not np.isfinite(arr).all():
        raise DatasetFormatError(f"{subject} contains non-finite values")
    return arr


def _record_from_json(obj: dict, num_classes: int, feature_dim: int | None, where: str) -> DatasetRecord:
    for key in ("id", "height", "width", "labels", "proposals"):
        if key not in obj:
            raise DatasetFormatError(f"{where}: missing field {key!r}")
    image_id, height, width = obj["id"], obj["height"], obj["width"]
    if type(image_id) is not str:  # another value would not save back as it was
        raise DatasetFormatError(f"{where}: field 'id' must be a string")
    if not all(type(v) is int and 0 < v <= MAX_IMAGE_SIDE for v in (height, width)):
        raise DatasetFormatError(f"{where}: field 'height'/'width' must be integers in [1, {MAX_IMAGE_SIDE}]")
    labels = obj["labels"]
    # `type(v) is int` rejects JSON booleans and floats, which compare equal to 0 and 1.
    if np.shape(labels) != (num_classes,) or not set(map(type, labels)) <= {int} or not set(labels) <= {0, 1}:
        raise DatasetFormatError(
            f"{where}: field 'labels' must be a length-{num_classes} list of JSON integers 0 and 1"
        )
    proposals = _proposals_from_json(obj["proposals"], height, width, where)

    def features_shape(shape: tuple) -> str | None:
        if len(shape) != 2 or shape[0] != len(proposals):
            return "must be (num_proposals, D)"
        if feature_dim is not None and shape[1] != feature_dim:
            return f"has dimension {shape[1]}, header says {feature_dim}"
        return None

    def matrix(key: str, shape_problem: Callable[[tuple], str | None]) -> np.ndarray | None:
        return None if obj.get(key) is None else _number_field(obj[key], f"{where}: field '{key}'", shape_problem)

    want = (num_classes, len(proposals))
    features = matrix("features", features_shape)
    scores = matrix("scores", lambda shape: None if shape == want else f"must be {want}")
    gt_boxes = None
    if obj.get("gt") is not None:
        gt_rows: dict[int, list[list[int]]] = {}
        for k, entry in enumerate(obj["gt"]):
            if not isinstance(entry, dict) or "class" not in entry or "box" not in entry:
                raise DatasetFormatError(f"{where}: field 'gt'[{k}] must have 'class' and 'box'")
            c = entry["class"]
            # `type(c) is int` rejects JSON booleans, which isinstance counts as ints.
            if type(c) is not int or not 0 <= c < num_classes:
                raise DatasetFormatError(f"{where}: field 'gt'[{k}].class {c!r} out of range")
            box = _box_from_json(entry["box"], f"{where}: field 'gt'[{k}].box")
            if box.x1 > width or box.y1 > height:
                raise DatasetFormatError(f"{where}: field 'gt'[{k}].box exceeds image bounds")
            gt_rows.setdefault(c, []).append(entry["box"])
        gt_boxes = {c: np.array(rows, dtype=np.int64) for c, rows in gt_rows.items()}
    return DatasetRecord(
        image_id=image_id,
        height=height,
        width=width,
        labels=np.array(labels, dtype=np.int64),
        proposals=proposals,
        features=features,
        scores=scores,
        gt_boxes=gt_boxes,
    )


def _check_header(header, expected_schema: str, where: str) -> None:
    """Raise unless `header` is a JSON object with the `schema` tag
    `expected_schema` and the `version` SCHEMA_VERSION as a JSON integer
    (`true` and `1.0` compare equal to 1); `where` begins the message."""
    if not isinstance(header, dict) or header.get("schema") != expected_schema:
        raise DatasetFormatError(f"{where}: expected schema {expected_schema!r}")
    if header.get("version") != SCHEMA_VERSION or type(header["version"]) is not int:
        raise DatasetFormatError(f"{where}: unsupported version {header.get('version')!r}")


def _read_header(path: Path, expected_schema: str) -> tuple[dict, list[tuple[int, str]]]:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    lines = [(n + 1, line) for n, line in enumerate(text.splitlines()) if line.strip()]
    if not lines:
        raise DatasetFormatError(f"{path}: empty file, expected a header line")
    lineno, raw = lines[0]
    try:
        header = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"{path}:{lineno}: invalid JSON header: {exc}") from None
    _check_header(header, expected_schema, f"{path}:{lineno}")
    return header, lines[1:]


def _parse_lines(path: Path, lines: list[tuple[int, str]]):
    for lineno, raw in lines:
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"{path}:{lineno}: invalid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise DatasetFormatError(f"{path}:{lineno}: record must be a JSON object")
        yield lineno, obj


def load_dataset(path: str | Path) -> Dataset:
    """Load and validate a dataset file; errors carry file:line positions."""
    path = Path(path)
    header, lines = _read_header(path, DATASET_SCHEMA)
    num_classes = header.get("num_classes")
    if type(num_classes) is not int or num_classes <= 0:
        raise DatasetFormatError(f"{path}:1: header field 'num_classes' must be a positive integer")
    feature_dim = header.get("feature_dim")
    if feature_dim is not None and (type(feature_dim) is not int or feature_dim <= 0):
        raise DatasetFormatError(f"{path}:1: header field 'feature_dim' must be a positive integer")
    class_names = header.get("class_names")
    if class_names is not None:
        if not isinstance(class_names, list) or len(class_names) != num_classes:
            raise DatasetFormatError(f"{path}:1: header field 'class_names' length mismatch")
        if not set(map(type, class_names)) <= {str}:  # other values would not save back as they were
            raise DatasetFormatError(f"{path}:1: header field 'class_names' must hold strings only")
        class_names = tuple(class_names)
    records = []
    for lineno, obj in _parse_lines(path, lines):
        try:
            records.append(_record_from_json(obj, num_classes, feature_dim, f"{path}:{lineno}"))
        except InputError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:  # a wrong JSON type, a ragged array, an int too big for a float
            raise DatasetFormatError(f"{path}:{lineno}: malformed record: {exc}") from None
    seen: set[str] = set()
    for record in records:
        if record.image_id in seen:
            raise DatasetFormatError(f"{path}: duplicate image id {record.image_id!r}")
        seen.add(record.image_id)
    return Dataset(
        records=records,
        num_classes=num_classes,
        feature_dim=feature_dim,
        class_names=class_names,
    )


def _record_to_json(record: DatasetRecord) -> dict:
    obj: dict = {
        "id": record.image_id,
        "height": record.height,
        "width": record.width,
        "labels": np.asarray(record.labels).astype(int).tolist(),
        "proposals": record.proposals.tolist(),
        "features": record.features.tolist() if record.features is not None else None,
        "scores": record.scores.tolist() if record.scores is not None else None,
    }
    if record.gt_boxes is not None:
        obj["gt"] = [
            {"class": c, "box": box}
            for c in sorted(record.gt_boxes)
            for box in record.gt_boxes[c].tolist()
        ]
    else:
        obj["gt"] = None
    return obj


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    path = Path(path)
    header = {
        "schema": DATASET_SCHEMA,
        "version": SCHEMA_VERSION,
        "num_classes": dataset.num_classes,
        "feature_dim": dataset.feature_dim,
        "class_names": list(dataset.class_names) if dataset.class_names else None,
    }
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for record in dataset.records:
            fh.write(json.dumps(_record_to_json(record)) + "\n")


def save_pseudo_labels(items: Iterable[tuple[str, Supervision]], path: str | Path) -> None:
    """Write (image id, voted supervision) pairs; empty votes keep their record."""
    path = Path(path)
    header = {"schema": PSEUDO_LABEL_SCHEMA, "version": SCHEMA_VERSION}
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for image_id, sup in items:
            boxes = [{"class": c, "box": b} for c, b in sup.all_boxes()]
            fh.write(json.dumps({"id": image_id, "boxes": boxes}) + "\n")


def save_detections(dets: Detections, path: str | Path) -> None:
    """Write one line per detection, with the bytes `json.dumps` gives the
    row's object: each distinct id is quoted by `json.dumps` once, integers
    print as `str` does and scores as the float `repr`, as `json.dumps`
    prints them."""
    path = Path(path)
    header = {"schema": DETECTIONS_SCHEMA, "version": SCHEMA_VERSION}
    quoted = {image_id: json.dumps(image_id) for image_id in dict.fromkeys(dets.image_ids)}
    rows = zip(dets.image_ids, dets.classes.tolist(), dets.boxes.tolist(), dets.scores.tolist())
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        fh.writelines(
            f'{{"id": {quoted[image_id]}, "class": {c}, "box": [{x0}, {y0}, {x1}, {y1}], "score": {score!r}}}\n'
            for image_id, c, (x0, y0, x1, y1), score in rows
        )


def _detection_columns(objs: list) -> Detections | None:
    """The parsed lines of a detections file as columns, when every line
    passes the checks of `_detection_rows`, each made on a whole column;
    None otherwise."""
    if not set(map(type, objs)) <= {dict}:
        return None
    try:
        ids, classes, boxes, scores = ([obj[key] for obj in objs] for key in ("id", "class", "box", "score"))
    except KeyError:
        return None
    box_array = _box_array(boxes)
    # `type(...)` rejects JSON booleans, which numpy would take as integers.
    kinds = [set(map(type, column)) for column in (ids, classes, scores)]
    if box_array is None or not (kinds[0] <= {str} and kinds[1] <= {int} and kinds[2] <= {int, float}):
        return None
    try:  # a class beyond int64, or an integer score beyond the float range, overflows
        class_array = np.array(classes, dtype=np.int64)
        score_array = np.array(scores, dtype=np.float64)
    except OverflowError:
        return None
    if not np.isfinite(score_array).all():
        return None
    return Detections(ids, class_array, box_array, score_array)


def _detection_rows(path: Path, lines: list[tuple[int, str]]) -> Detections:
    """The detection lines checked one by one: the first bad line raises its
    `file:line` message."""
    ids: list[str] = []
    classes: list[int] = []
    boxes: list[list[int]] = []
    scores: list[float] = []
    for lineno, obj in _parse_lines(path, lines):
        where = f"{path}:{lineno}"
        for key in ("id", "class", "box", "score"):
            if key not in obj:
                raise DatasetFormatError(f"{where}: missing field {key!r}")
        image_id, c, box, score = obj["id"], obj["class"], obj["box"], obj["score"]
        if type(image_id) is not str:
            raise DatasetFormatError(f"{where}: field 'id' must be a string")
        if type(c) is not int:
            raise DatasetFormatError(f"{where}: field 'class' must be an integer")
        _box_from_json(box, f"{where}: field 'box'")
        # `type(...)` rejects JSON booleans and numeric strings, which float() takes.
        if type(score) not in (int, float):
            raise DatasetFormatError(f"{where}: field 'score' must be a JSON number")
        try:
            score = float(score)
        except OverflowError as exc:
            raise DatasetFormatError(f"{where}: {exc}") from None
        if not math.isfinite(score):
            raise DatasetFormatError(f"{where}: Detection score must be finite, got {score}")
        if not -INT64_LIMIT <= c < INT64_LIMIT or max(box) >= INT64_LIMIT:  # box corners are non-negative
            raise DatasetFormatError(f"{where}: a class id or box coordinate exceeds int64")
        ids.append(image_id)
        classes.append(c)
        boxes.append(box)
        scores.append(score)
    return Detections(
        ids,
        np.array(classes, dtype=np.int64),
        np.array(boxes, dtype=np.int64).reshape(-1, 4),
        np.array(scores, dtype=np.float64),
    )


def load_detections(path: str | Path) -> Detections:
    """Load and validate a detections file, with one `json.loads` per line
    (a string cannot span lines) and each check made on a whole column.
    Only a file that fails a check goes through the line-by-line path,
    which raises the first bad line's `file:line` message."""
    path = Path(path)
    _, lines = _read_header(path, DETECTIONS_SCHEMA)
    try:
        dets = _detection_columns([json.loads(raw) for _, raw in lines])
    except json.JSONDecodeError:
        dets = None
    return dets if dets is not None else _detection_rows(path, lines)
