import json
import logging
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slv.datasets import (
    Dataset,
    DatasetRecord,
    _detection_rows,
    _number_matrix,
    _read_header,
    load_dataset,
    load_detections,
    save_dataset,
    save_detections,
    save_pseudo_labels,
)
from slv.errors import DatasetFormatError, InputError
from slv.evaluation import Detections
from slv.geometry import Box, boxes_to_array
from slv.synthetic import SyntheticSceneConfig, generate_synthetic

from helpers import by_class, detection_rows, detections, pseudo_labels, rowwise_proposals, supervision

FIXTURES = Path(__file__).parent / "fixtures"
HEADER = {"schema": "slv/dataset", "version": 1, "num_classes": 1}
RECORD = {"id": "x", "height": 10, "width": 10, "labels": [1], "proposals": [[0, 0, 5, 5]]}


def write_dataset(path, header=None, record=None):
    """A one-record dataset file: HEADER and RECORD updated with the given fields."""
    lines = [{**HEADER, **(header or {})}, {**RECORD, **(record or {})}]
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
    return path


class LogMessages(logging.Handler):
    """Collects the messages logged to `slv.datasets` inside a with-block."""

    def __enter__(self):
        self.messages = []
        logging.getLogger("slv.datasets").addHandler(self)
        return self.messages

    def __exit__(self, *exc):
        logging.getLogger("slv.datasets").removeHandler(self)

    def emit(self, record):
        self.messages.append(record.getMessage())


def small_dataset():
    records = [
        DatasetRecord(
            image_id="a",
            height=20,
            width=30,
            labels=np.array([1, 0]),
            proposals=boxes_to_array([Box(0, 0, 10, 10), Box(5, 5, 20, 15)]),
            features=np.array([[0.1, 0.2], [0.3, 0.4]]),
            scores=np.array([[0.5, 0.25], [0.0, 0.125]]),
            gt_boxes={0: boxes_to_array([Box(1, 1, 9, 9)])},
        ),
        DatasetRecord(
            image_id="b",
            height=20,
            width=30,
            labels=np.array([0, 1]),
            proposals=boxes_to_array([Box(2, 3, 7, 9)]),
            features=np.array([[0.9, -0.5]]),
            scores=None,
            gt_boxes=None,
        ),
    ]
    return Dataset(records=records, num_classes=2, feature_dim=2)


class TestDatasetRoundTrip:
    def test_lossless(self, tmp_path):
        dataset = small_dataset()
        target = tmp_path / "ds.jsonl"
        save_dataset(dataset, target)
        loaded = load_dataset(target)
        assert loaded.num_classes == 2
        assert loaded.feature_dim == 2
        assert len(loaded) == 2
        for original, parsed in zip(dataset.records, loaded.records):
            assert parsed.image_id == original.image_id
            assert parsed.height == original.height and parsed.width == original.width
            assert np.array_equal(parsed.labels, original.labels)
            assert np.array_equal(parsed.proposals, original.proposals)
            if original.features is None:
                assert parsed.features is None
            else:
                assert np.array_equal(parsed.features, original.features)
            if original.scores is None:
                assert parsed.scores is None
            else:
                assert np.array_equal(parsed.scores, original.scores)
            if original.gt_boxes is None:
                assert parsed.gt_boxes is None
            else:
                assert parsed.gt_boxes.keys() == original.gt_boxes.keys()
                for c, boxes in original.gt_boxes.items():
                    assert parsed.gt_boxes[c].dtype == np.int64 and np.array_equal(parsed.gt_boxes[c], boxes)

    def test_gt_boxes_are_int64_arrays_in_file_order(self, tmp_path):
        gt = [{"class": 1, "box": [4, 4, 9, 9]}, {"class": 0, "box": [0, 0, 5, 5]}, {"class": 1, "box": [1, 2, 3, 4]}]
        target = write_dataset(tmp_path / "ds.jsonl", {"num_classes": 2}, {"labels": [1, 1], "gt": gt})
        loaded = load_dataset(target).records[0].gt_boxes
        assert list(loaded) == [1, 0]
        assert loaded[1].dtype == np.int64 and loaded[1].tolist() == [[4, 4, 9, 9], [1, 2, 3, 4]]
        assert loaded[0].tolist() == [[0, 0, 5, 5]]

    def test_save_load_save_is_byte_identical(self, tmp_path):
        first = tmp_path / "one.jsonl"
        second = tmp_path / "two.jsonl"
        save_dataset(small_dataset(), first)
        save_dataset(load_dataset(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_empty_dataset_file(self, tmp_path):
        target = tmp_path / "empty.jsonl"
        save_dataset(Dataset(records=[], num_classes=3), target)
        loaded = load_dataset(target)
        assert len(loaded) == 0
        assert loaded.num_classes == 3


class TestDatasetValidation:
    def _write(self, tmp_path, lines):
        target = tmp_path / "ds.jsonl"
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return target

    def test_out_of_bounds_proposal_clipped_with_warning(self, tmp_path, caplog):
        header = json.dumps({"schema": "slv/dataset", "version": 1, "num_classes": 1})
        record = json.dumps(
            {"id": "x", "height": 10, "width": 10, "labels": [1], "proposals": [[5, 5, 20, 20]]}
        )
        target = self._write(tmp_path, [header, record])
        with caplog.at_level("WARNING"):
            loaded = load_dataset(target)
        assert loaded.records[0].proposals.tolist() == [[5, 5, 10, 10]]
        assert "clipped" in caplog.text

    def test_bad_labels_length_names_line_and_field(self, tmp_path):
        header = json.dumps({"schema": "slv/dataset", "version": 1, "num_classes": 2})
        record = json.dumps(
            {"id": "x", "height": 10, "width": 10, "labels": [1], "proposals": []}
        )
        target = self._write(tmp_path, [header, record])
        with pytest.raises(DatasetFormatError, match=r":2: field 'labels'"):
            load_dataset(target)

    @pytest.mark.parametrize(
        "field, message",
        [
            ({"features": [[0.5, 1.0], [0.5]]}, "malformed record"),
            ({"scores": {"a": 1}}, "malformed record"),
            ({"labels": [[1], 0]}, "malformed record"),
            ({"proposals": 7}, "malformed record"),
            ({"gt": 3}, "malformed record"),
            ({"height": 2**63}, "field 'height'/'width'"),
            ({"features": [[10**400]]}, "malformed record: int too large to convert to float"),
        ],
    )
    def test_malformed_record_names_line(self, tmp_path, field, message):
        header = json.dumps({"schema": "slv/dataset", "version": 1, "num_classes": 1})
        record = {"id": "x", "height": 10, "width": 10, "labels": [1], "proposals": [[0, 0, 5, 5]]}
        target = self._write(tmp_path, [header, json.dumps({**record, **field})])
        with pytest.raises(DatasetFormatError, match=f":2: {message}"):
            load_dataset(target)

    def test_class_names_must_be_a_list(self, tmp_path):
        header = json.dumps({"schema": "slv/dataset", "version": 1, "num_classes": 1, "class_names": 5})
        with pytest.raises(DatasetFormatError, match="class_names"):
            load_dataset(self._write(tmp_path, [header]))

    def test_class_names_must_be_strings(self, tmp_path):
        """Other JSON values would load as their `str` and save back changed."""
        header = {"schema": "slv/dataset", "version": 1, "num_classes": 3, "feature_dim": None, "class_names": [1, None, True]}
        target = self._write(tmp_path, [json.dumps(header)])
        with pytest.raises(DatasetFormatError) as info:
            load_dataset(target)
        assert str(info.value) == f"{target}:1: header field 'class_names' must hold strings only"
        header["class_names"] = ["cat", "", "1"]
        target.write_text(json.dumps(header) + "\n", encoding="utf-8")
        copy = tmp_path / "copy.jsonl"
        save_dataset(load_dataset(target), copy)
        assert copy.read_bytes() == target.read_bytes()

    @pytest.mark.parametrize("image_id", [5, None], ids=["int", "null"])
    def test_record_id_must_be_a_string(self, tmp_path, image_id):
        """Another JSON value would load as its `str` and save back changed."""
        full = {"feature_dim": None, "class_names": None}
        target = write_dataset(tmp_path / "ds.jsonl", full, {"id": image_id})
        with pytest.raises(DatasetFormatError) as info:
            load_dataset(target)
        assert str(info.value) == f"{target}:2: field 'id' must be a string"
        target = write_dataset(target, full, {"id": str(image_id), "features": None, "scores": None, "gt": None})
        copy = tmp_path / "copy.jsonl"
        save_dataset(load_dataset(target), copy)
        assert copy.read_bytes() == target.read_bytes()

    def test_invalid_json_names_line(self, tmp_path):
        header = json.dumps({"schema": "slv/dataset", "version": 1, "num_classes": 1})
        target = self._write(tmp_path, [header, "{not json"])
        with pytest.raises(DatasetFormatError, match=r":2: invalid JSON"):
            load_dataset(target)

    def test_wrong_schema_rejected(self, tmp_path):
        target = self._write(tmp_path, [json.dumps({"schema": "other", "version": 1})])
        with pytest.raises(DatasetFormatError, match="expected schema"):
            load_dataset(target)

    def test_missing_header_rejected(self, tmp_path):
        target = tmp_path / "ds.jsonl"
        target.write_text("", encoding="utf-8")
        with pytest.raises(DatasetFormatError, match="header"):
            load_dataset(target)

    def test_duplicate_image_id_rejected(self, tmp_path):
        header = json.dumps({"schema": "slv/dataset", "version": 1, "num_classes": 1})
        record = json.dumps(
            {"id": "x", "height": 10, "width": 10, "labels": [1], "proposals": []}
        )
        target = self._write(tmp_path, [header, record, record])
        with pytest.raises(DatasetFormatError, match="duplicate image id"):
            load_dataset(target)

    def test_gt_outside_bounds_rejected(self, tmp_path):
        header = json.dumps({"schema": "slv/dataset", "version": 1, "num_classes": 1})
        record = json.dumps(
            {
                "id": "x",
                "height": 10,
                "width": 10,
                "labels": [1],
                "proposals": [],
                "gt": [{"class": 0, "box": [0, 0, 11, 5]}],
            }
        )
        target = self._write(tmp_path, [header, record])
        with pytest.raises(DatasetFormatError, match="gt"):
            load_dataset(target)

    def test_boolean_gt_class_rejected(self, tmp_path):
        header = json.dumps({"schema": "slv/dataset", "version": 1, "num_classes": 2})
        record = json.dumps(
            {
                "id": "x",
                "height": 10,
                "width": 10,
                "labels": [0, 1],
                "proposals": [],
                "gt": [{"class": True, "box": [0, 0, 5, 5]}],
            }
        )
        target = self._write(tmp_path, [header, record])
        with pytest.raises(DatasetFormatError, match=r":2: field 'gt'\[0\]\.class True"):
            load_dataset(target)

    def test_records_hold_proposals_as_int64_arrays(self, tmp_path):
        header = json.dumps({"schema": "slv/dataset", "version": 1, "num_classes": 1})
        record = json.dumps({"id": "x", "height": 10, "width": 10, "labels": [1], "proposals": []})
        empty = load_dataset(self._write(tmp_path, [header, record])).records[0]
        save_dataset(small_dataset(), tmp_path / "small.jsonl")
        loaded = load_dataset(tmp_path / "small.jsonl").records[0]
        generated = generate_synthetic(SyntheticSceneConfig(num_images=1), 0).records[0]
        for rec, num in [(empty, 0), (loaded, 2), (generated, 40)]:
            assert isinstance(rec.proposals, np.ndarray)
            assert rec.proposals.dtype == np.int64 and rec.proposals.shape == (num, 4)
        assert loaded.proposals.tolist() == [[0, 0, 10, 10], [5, 5, 20, 15]]

    @pytest.mark.parametrize(
        "proposals, message",
        [
            ([[0, 0, 5, 5], [0, 0.5, 5, 5]], "{at}[1]: box coordinate y0=0.5 is not an integer"),
            ([[-1, 0, 5, 5]], "{at}[0]: box coordinates must be non-negative, got (-1, 0, 5, 5)"),
            ([[3, 0, 3, 5]], "{at}[0]: box must have positive width and height, got (3, 0, 3, 5)"),
            ([[0, 0, 5]], "{at}[0]: box must be a 4-element list, got [0, 0, 5]"),
            ([[2**63, 0, 2**63 + 1, 5]],
             "{at}[0]: box (9223372036854775808, 0, 9223372036854775809, 5) lies outside a 10x10 image"),
            ([[0, 0, 5, 5], [12, 0, 15, 5]], "{at}[1]: box (12, 0, 15, 5) lies outside a 10x10 image"),
            ([[False, False, True, True]], "{at}[0]: box coordinate x0=False is not an integer"),
            ([[5, 5, 20, 20], [0, 0, 5], [-1, 0, 1, 1]], "{at}[1]: box must be a 4-element list, got [0, 0, 5]"),
        ],
        ids=["float", "negative", "zero-width", "three-elements", "2**63", "outside", "bool", "first-bad-row"],
    )
    def test_bad_proposal_row_raises_its_message(self, tmp_path, proposals, message):
        target = write_dataset(tmp_path / "ds.jsonl", record={"proposals": proposals})
        with pytest.raises(InputError) as info:
            load_dataset(target)
        assert str(info.value) == message.format(at=f"{target}:2: field 'proposals'")

    @pytest.mark.parametrize(
        "proposals, rows, clipped",
        [
            ([], [], []),
            ([[0, 0, 10, 10], [9, 9, 10, 10]], [[0, 0, 10, 10], [9, 9, 10, 10]], []),
            ([[5, 5, 20, 20]], [[5, 5, 10, 10]], ["proposal 0 (5, 5, 20, 20) clipped to (5, 5, 10, 10)"]),
            ([[1, 1, 2, 2], [0, 0, 2**63, 5]], [[1, 1, 2, 2], [0, 0, 10, 5]],
             ["proposal 1 (0, 0, 9223372036854775808, 5) clipped to (0, 0, 10, 5)"]),
        ],
        ids=["empty", "inside", "clipped", "2**63-clipped"],
    )
    def test_valid_proposals_load_as_rows(self, tmp_path, proposals, rows, clipped):
        target = write_dataset(tmp_path / "ds.jsonl", record={"proposals": proposals})
        with LogMessages() as messages:
            record = load_dataset(target).records[0]
        assert record.proposals.dtype == np.int64 and record.proposals.shape == (len(rows), 4)
        assert record.proposals.tolist() == rows
        assert messages == [f"{target}:2: {m} for 10x10 image" for m in clipped]

    @given(
        st.lists(
            st.one_of(
                st.builds(
                    lambda x, y, w, h: [x, y, x + w, y + h],
                    st.integers(0, 12), st.integers(0, 10), st.integers(1, 6), st.integers(1, 6),
                ),
                st.lists(
                    st.one_of(st.integers(-1, 14), st.sampled_from([2**63, -(2**63) - 1, 0.5, 3.0, True, None])),
                    min_size=3,
                    max_size=5,
                ),
            ),
            max_size=5,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_array_check_matches_rowwise_oracle(self, tmp_path_factory, proposals):
        """The array check accepts, clips and warns about exactly the rows the
        row-by-row checks did, and otherwise raises the first bad row's message."""
        target = tmp_path_factory.getbasetemp() / "rows.jsonl"
        write_dataset(target, record={"width": 12, "proposals": proposals})
        where = f"{target}:2"
        try:
            want = rowwise_proposals(proposals, 10, 12, where)
        except InputError as exc:
            with pytest.raises(InputError) as info:
                load_dataset(target)
            assert str(info.value) == str(exc)
            return
        with LogMessages() as messages:
            record = load_dataset(target).records[0]
        assert record.proposals.dtype == np.int64 and record.proposals.shape == (len(want[0]), 4)
        assert (record.proposals.tolist(), messages) == want

    @pytest.mark.parametrize(
        "header, record, message",
        [
            ({"num_classes": True}, {}, ":1: header field 'num_classes' must be a positive integer"),
            ({"feature_dim": True}, {}, ":1: header field 'feature_dim' must be a positive integer"),
            ({}, {"height": True}, ":2: field 'height'/'width' must be integers"),
            ({}, {"width": True}, ":2: field 'height'/'width' must be integers"),
            ({}, {"gt": [{"class": 0, "box": [0, 0, 5, True]}]},
             r":2: field 'gt'\[0\]\.box: box coordinate y1=True is not an integer"),
            ({}, {"labels": [True]}, r":2: field 'labels' must be a length-1 list of JSON integers 0 and 1"),
            ({}, {"labels": [1.0]}, r":2: field 'labels' must be a length-1 list of JSON integers 0 and 1"),
            ({"num_classes": 2}, {"labels": [1, False]}, r":2: field 'labels' must be a length-2 list"),
            ({}, {"features": [[0.5, True]]}, r":2: field 'features' must hold JSON numbers only"),
            ({}, {"features": [["0.5"]]}, r":2: field 'features' must hold JSON numbers only"),
            ({}, {"scores": [[False]]}, r":2: field 'scores' must hold JSON numbers only"),
        ],
        ids=[
            "num_classes", "feature_dim", "height", "width", "gt-box",
            "label-bool", "label-float", "second-label-bool", "feature-bool", "feature-string", "score-bool",
        ],
    )
    def test_json_booleans_are_not_integers(self, tmp_path, header, record, message):
        target = write_dataset(tmp_path / "ds.jsonl", header, record)
        with pytest.raises(DatasetFormatError, match=message):
            load_dataset(target)

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"features": [[0.5, float("nan")]]}, ":2: field 'features' contains non-finite values"),
            ({"scores": [[float("inf")]]}, ":2: field 'scores' contains non-finite values"),
        ],
        ids=["features", "scores"],
    )
    def test_non_finite_matrices_rejected(self, tmp_path, record, message):
        """The loader is where embedded score matrices are checked for
        finiteness; the kernels that take them check only shapes."""
        target = write_dataset(tmp_path / "ds.jsonl", record=record)
        with pytest.raises(DatasetFormatError, match=message):
            load_dataset(target)

    @given(
        st.integers(1, 6).flatmap(
            lambda width: st.lists(
                st.lists(
                    st.integers(-(2**80), 2**80) | st.floats(allow_nan=False, allow_infinity=False),
                    min_size=width,
                    max_size=width,
                ),
                min_size=1,
                max_size=6,
            )
        )
    )
    @settings(max_examples=200)
    def test_number_matrix_equals_numpy_bit_for_bit(self, rows):
        """The loader's fast conversion of `features` and `scores` gives the
        array np.asarray gives, bit for bit (-0.0, subnormals and integers
        beyond 2**53 included)."""
        got = _number_matrix(rows)
        want = np.asarray(rows, dtype=np.float64)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "raw",
        [[], [[0.5], [0.5, 1.0]], [[True]], [["0.5"]], [[[0.5]]], [0.5], (([0.5],)), {"a": [1]}, 7],
        ids=["empty", "ragged", "bool", "string", "nested", "flat", "tuple", "dict", "number"],
    )
    def test_number_matrix_leaves_the_rest_to_numpy(self, raw):
        assert _number_matrix(raw) is None

    def test_golden_fixture_roundtrips_byte_identical(self, tmp_path):
        src = FIXTURES / "eval_dataset.jsonl"
        loaded = load_dataset(src)
        assert len(loaded) == 3
        out = tmp_path / "copy.jsonl"
        save_dataset(loaded, out)
        assert out.read_bytes() == src.read_bytes()


class TestPseudoLabels:
    def test_roundtrip(self, tmp_path):
        items = [
            ("a", supervision({0: [Box(1, 1, 5, 5)], 2: [Box(3, 3, 9, 9), Box(0, 0, 2, 2)]})),
            ("b", supervision({})),
        ]
        target = tmp_path / "labels.jsonl"
        save_pseudo_labels(items, target)
        loaded = pseudo_labels(target)
        assert [(i, by_class(s)) for i, s in loaded] == [
            (i, by_class(s)) for i, s in items
        ]

    def test_empty_supervision_keeps_record(self, tmp_path):
        target = tmp_path / "labels.jsonl"
        save_pseudo_labels([("only", supervision({}))], target)
        lines = target.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1]) == {"id": "only", "boxes": []}


class TestDetectionsFile:
    def test_roundtrip(self, tmp_path):
        rows = [
            ("a", 0, Box(0, 0, 5, 5), 0.75),
            ("b", 3, Box(1, 2, 3, 4), 0.125),
        ]
        target = tmp_path / "dets.jsonl"
        save_detections(detections(rows), target)
        loaded = load_detections(target)
        assert detection_rows(loaded) == rows
        assert (loaded.classes.dtype, loaded.boxes.dtype, loaded.scores.dtype) == (np.int64, np.int64, np.float64)

    @pytest.mark.parametrize("image_id", [5, None], ids=["int", "null"])
    def test_id_must_be_a_string(self, tmp_path, image_id):
        """Another JSON value would load as its `str` and save back changed;
        the column loader falls back to the row loader, which names the line."""
        target = tmp_path / "dets.jsonl"
        write_detection_lines(target, [detection_line(), json.dumps({**VALID_DETECTION, "id": image_id})])
        with pytest.raises(DatasetFormatError) as info:
            load_detections(target)
        assert str(info.value) == f"{target}:3: field 'id' must be a string"
        write_detection_lines(target, [detection_line(), json.dumps({**VALID_DETECTION, "id": str(image_id)})])
        copy = tmp_path / "copy.jsonl"
        save_detections(load_detections(target), copy)
        assert copy.read_bytes() == target.read_bytes()

    def test_empty_file_loads_empty_columns(self, tmp_path):
        target = tmp_path / "dets.jsonl"
        target.write_text(json.dumps({"schema": "slv/detections", "version": 1}) + "\n", encoding="utf-8")
        loaded = load_detections(target)
        assert len(loaded) == 0 and loaded.boxes.shape == (0, 4) and loaded.classes.shape == loaded.scores.shape == (0,)

    @pytest.mark.parametrize(
        "record",
        [
            {"id": "a", "class": 2**63, "box": [0, 0, 5, 5], "score": 0.5},
            {"id": "a", "class": 0, "box": [0, 0, 5, 2**64], "score": 0.5},
        ],
        ids=["huge-class", "huge-box"],
    )
    def test_values_beyond_int64_name_line(self, tmp_path, record):
        target = tmp_path / "dets.jsonl"
        lines = [{"schema": "slv/detections", "version": 1}, {"id": "a", "class": 0, "box": [0, 0, 5, 5], "score": 0.5}, record]
        target.write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
        with pytest.raises(DatasetFormatError, match=":3: a class id or box coordinate exceeds int64"):
            load_detections(target)

    def test_missing_field_names_line(self, tmp_path):
        target = tmp_path / "dets.jsonl"
        target.write_text(
            json.dumps({"schema": "slv/detections", "version": 1})
            + "\n"
            + json.dumps({"id": "a", "class": 0, "box": [0, 0, 5, 5]})
            + "\n",
            encoding="utf-8",
        )
        with pytest.raises(DatasetFormatError, match=r":2: missing field 'score'"):
            load_detections(target)

    def test_boolean_class_rejected(self, tmp_path):
        target = tmp_path / "dets.jsonl"
        target.write_text(
            json.dumps({"schema": "slv/detections", "version": 1})
            + "\n"
            + json.dumps({"id": "a", "class": True, "box": [0, 0, 5, 5], "score": 0.5})
            + "\n",
            encoding="utf-8",
        )
        with pytest.raises(DatasetFormatError, match=r":2: field 'class' must be an integer"):
            load_detections(target)

    def test_boolean_box_coordinate_rejected(self, tmp_path):
        target = tmp_path / "dets.jsonl"
        target.write_text(
            json.dumps({"schema": "slv/detections", "version": 1})
            + "\n"
            + json.dumps({"id": "a", "class": 0, "box": [False, 0, 5, 5], "score": 0.5})
            + "\n",
            encoding="utf-8",
        )
        with pytest.raises(DatasetFormatError, match=r":2: field 'box': box coordinate x0=False is not an integer"):
            load_detections(target)


ID_CHARS = st.one_of(
    st.characters(),
    st.characters(categories=["Cs"]),  # lone surrogates, which json.dumps escapes
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", " ", "é", "\U0001f600"]),
)
INT64 = st.one_of(st.sampled_from([-(2**63), -1, 0, 2**63 - 1]), st.integers(-(2**63), 2**63 - 1))
SCORES = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-7, 0.1, 1e16, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(
    rows=st.lists(
        st.tuples(st.text(ID_CHARS, max_size=6), INT64, st.lists(INT64, min_size=4, max_size=4), SCORES),
        max_size=8,
    ),
    repeat=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_detection_writer_gives_json_dumps_bytes(tmp_path_factory, rows, repeat):
    """Each written line is `json.dumps` of the row's object, byte for byte:
    escaped ids (quotes, backslashes, control characters, non-ASCII, lone
    surrogates), int64 extremes and floats from -0.0 and 5e-324 to the
    largest one."""
    if repeat:
        rows = rows + rows  # an id seen before reuses its quoted text
    dets = Detections(
        [r[0] for r in rows],
        np.array([r[1] for r in rows], dtype=np.int64),
        np.array([r[2] for r in rows], dtype=np.int64).reshape(-1, 4),
        np.array([r[3] for r in rows], dtype=np.float64),
    )
    target = tmp_path_factory.mktemp("writer") / "dets.jsonl"
    save_detections(dets, target)
    header = json.dumps({"schema": "slv/detections", "version": 1})
    want = [header] + [json.dumps({"id": i, "class": c, "box": b, "score": s}) for i, c, b, s in rows]
    assert target.read_bytes() == "".join(line + "\n" for line in want).encode("utf-8")


VALID_DETECTION = {"id": "a", "class": 1, "box": [0, 1, 5, 6], "score": 0.5}
DAMAGE = [
    ("id", 7), ("id", True), ("id", None), ("id", ["x"]),
    ("class", True), ("class", False), ("class", 0.0), ("class", 2**63), ("class", -(2**63) - 1),
    ("class", -(2**63)), ("class", 2**63 - 1), ("class", "1"), ("class", None),
    ("box", [0, 0, 5]), ("box", [0, 0, 5, 5, 5]), ("box", [True, 0, 5, 5]), ("box", [0, 0, 5, False]),
    ("box", [0, 0, 5.0, 5]), ("box", [-1, 0, 5, 5]), ("box", [0, -1, 5, 5]), ("box", [5, 0, 5, 5]), ("box", [0, 6, 5, 5]),
    ("box", [0, 0, 5, 2**63]), ("box", [0, 0, 5, 2**63 - 1]), ("box", [0, 0, 2**64, 5]), ("box", "0 0 5 5"),
    ("box", None), ("box", [[0, 0, 5, 5]]),
    ("score", True), ("score", False), ("score", "0.5"), ("score", None), ("score", 1),
    ("score", 10**400), ("score", 2**1023), ("score", float("nan")), ("score", float("inf")),
    ("score", -0.0), ("score", 5e-324), ("score", [0.5]),
]


def detection_line(edit=None, drop=None):
    """A detection line with DAMAGE[edit] applied and the field `drop` removed."""
    obj = dict(VALID_DETECTION)
    if edit is not None:
        key, value = DAMAGE[edit]
        obj[key] = value
    if drop is not None:
        del obj[drop]
    return json.dumps(obj)  # NaN and Infinity become those tokens


def load_outcome(load, path):
    """A loader's message, or its columns as comparable values."""
    try:
        dets = load(path)
    except InputError as exc:
        return type(exc), str(exc)
    return (
        dets.image_ids,
        (dets.classes.dtype, dets.classes.tolist()),
        (dets.boxes.dtype, dets.boxes.shape, dets.boxes.tolist()),
        (dets.scores.dtype, dets.scores.tobytes()),
    )


def rows_only(path):
    _, lines = _read_header(path, "slv/detections")
    return _detection_rows(path, lines)


DAMAGED_LINES = (
    [detection_line(edit) for edit in range(len(DAMAGE))]
    + [detection_line(drop=key) for key in ("id", "class", "box", "score")]
    + ["[]", "7", "null", "{", '{"id": "a", "class": 1, "box": [0, 1, 5, 6], "score": NaN}', " "]
)
DAMAGED_LINE = st.sampled_from(DAMAGED_LINES)


def write_detection_lines(path, text):
    header = json.dumps({"schema": "slv/detections", "version": 1})
    path.write_text("\n".join([header, *text]) + "\n", encoding="utf-8")


@pytest.mark.parametrize("line", DAMAGED_LINES)
def test_each_damaged_line_gives_the_row_loader_outcome(tmp_path, line):
    target = tmp_path / "dets.jsonl"
    write_detection_lines(target, [detection_line(), line, detection_line()])
    assert load_outcome(load_detections, target) == load_outcome(rows_only, target)


@given(
    valid=st.integers(0, 4),
    damaged=st.lists(st.tuples(st.integers(0, 4), DAMAGED_LINE), max_size=2),
    split=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_column_loader_matches_the_row_loader(tmp_path_factory, valid, damaged, split):
    """On damaged lines the loader gives the row loader's first message,
    or its columns: booleans, classes and corners past int64, integer
    scores past the float range, empty boxes, missing fields, non-objects
    and broken JSON, among valid lines. With `split`, a record's id string
    spans a line break."""
    text = [detection_line()] * valid
    for at, line in damaged:
        text.insert(at, line)
    if split:
        text.insert(valid // 2, '{"id": "a')
        text.insert(valid // 2 + 1, 'b", "class": 0, "box": [0, 0, 5, 5], "score": 0.5}')
    target = tmp_path_factory.mktemp("loader") / "dets.jsonl"
    write_detection_lines(target, text)
    assert load_outcome(load_detections, target) == load_outcome(rows_only, target)


def test_a_string_across_a_line_break_is_invalid_json(tmp_path):
    """Joined into one JSON array, the two halves parse as one record; each
    line is parsed on its own, so the first half fails at its line."""
    halves = ['{"id": "a', 'b", "class": 0, "box": [0, 0, 5, 5], "score": 0.5}']
    assert json.loads("[" + ",".join(halves) + "]") == [{"id": "a,b", "class": 0, "box": [0, 0, 5, 5], "score": 0.5}]
    target = tmp_path / "dets.jsonl"
    target.write_text("\n".join([json.dumps({"schema": "slv/detections", "version": 1}), *halves]) + "\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=r"dets.jsonl:2: invalid JSON: Unterminated string"):
        load_detections(target)
