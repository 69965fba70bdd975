import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slv.errors import InputError
from slv.geometry import (
    Box,
    _label_runs,
    boxes_to_array,
    connected_components,
    iou,
    iou_matrix,
    min_bounding_rect,
    nms,
    pairwise_iou,
    region_boxes,
)

from helpers import bounding_rect, flood_fill_components


@st.composite
def boxes_strategy(draw, max_size=64):
    x0 = draw(st.integers(0, max_size - 1))
    y0 = draw(st.integers(0, max_size - 1))
    x1 = draw(st.integers(x0 + 1, max_size))
    y1 = draw(st.integers(y0 + 1, max_size))
    return Box(x0, y0, x1, y1)


class TestBox:
    def test_rejects_empty(self):
        with pytest.raises(InputError):
            Box(5, 5, 5, 10)

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            Box(-1, 0, 3, 3)

    def test_rejects_non_integer(self):
        with pytest.raises(InputError):
            Box(0.5, 0, 3, 3)

    def test_coerces_numpy_ints(self):
        b = Box(np.int64(1), np.int32(2), np.int64(4), np.int64(6))
        assert b.as_tuple() == (1, 2, 4, 6)
        assert b.area == 12


class TestIou:
    def test_identical(self):
        assert iou(Box(0, 0, 10, 10), Box(0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert iou(Box(0, 0, 10, 10), Box(20, 20, 30, 30)) == 0.0

    def test_partial_overlap(self):
        # intersection 5x5 = 25, union 100 + 100 - 25 = 175
        assert iou(Box(0, 0, 10, 10), Box(5, 5, 15, 15)) == pytest.approx(25 / 175, abs=1e-15)

    @given(boxes_strategy(), boxes_strategy())
    def test_symmetric_and_bounded(self, a, b):
        ab = iou(a, b)
        assert ab == iou(b, a)
        assert 0.0 <= ab <= 1.0

    @given(boxes_strategy())
    def test_self_iou_is_one(self, a):
        assert iou(a, a) == 1.0


class TestNms:
    def test_singleton(self):
        assert nms(boxes_to_array([Box(0, 0, 5, 5)]), [0.3], 0.5) == [0]

    def test_identical_pair_suppressed(self):
        kept = nms(boxes_to_array([Box(0, 0, 5, 5), Box(0, 0, 5, 5)]), [0.9, 0.8], 0.5)
        assert kept == [0]

    def test_hand_traced_three_boxes(self):
        # box2 overlaps box0 at IoU 0.6, box1 is disjoint
        box0 = Box(0, 0, 10, 10)
        box2 = Box(0, 0, 10, 6)  # inter 60, union 100 -> 0.6
        box1 = Box(50, 50, 60, 60)
        assert iou(box0, box2) == pytest.approx(0.6)
        kept = nms(boxes_to_array([box0, box1, box2]), [0.9, 0.8, 0.7], 0.5)
        assert kept == [0, 1]

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            nms(boxes_to_array([Box(0, 0, 5, 5)]), [0.5, 0.1], 0.5)

    def test_bad_threshold(self):
        with pytest.raises(InputError):
            nms(boxes_to_array([Box(0, 0, 5, 5)]), [0.5], 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_scores_rejected(self, bad):
        boxes = boxes_to_array([Box(0, 0, 5, 5), Box(10, 10, 15, 15)])
        with pytest.raises(InputError, match="nms: scores must be finite"):
            nms(boxes, [0.5, bad], 0.5)

    @given(
        st.lists(boxes_strategy(), min_size=1, max_size=8),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60)
    def test_order_independent_for_distinct_scores(self, boxes, rnd):
        scores = [1.0 - 0.07 * i for i in range(len(boxes))]
        kept = {boxes[i].as_tuple() for i in nms(boxes_to_array(boxes), scores, 0.5)}
        perm = list(range(len(boxes)))
        rnd.shuffle(perm)
        shuffled_kept = {
            boxes[perm[i]].as_tuple()
            for i in nms(boxes_to_array([boxes[p] for p in perm]), [scores[p] for p in perm], 0.5)
        }
        assert kept == shuffled_kept


class TestConnectedComponents:
    def test_all_false(self):
        assert connected_components(np.zeros((4, 4), dtype=bool)) == []

    def test_single_cell(self):
        grid = np.zeros((4, 4), dtype=bool)
        grid[2, 1] = True
        assert connected_components(grid) == [{(2, 1)}]

    def test_diagonal_cells_join(self):
        grid = np.zeros((4, 4), dtype=bool)
        grid[1, 1] = True
        grid[2, 2] = True
        assert connected_components(grid) == [{(1, 1), (2, 2)}]

    def test_two_separate_regions_in_first_cell_order(self):
        grid = np.zeros((5, 5), dtype=bool)
        grid[0, 3] = True
        grid[3, 0] = True
        comps = connected_components(grid)
        assert comps == [{(0, 3)}, {(3, 0)}]

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_partition_property(self, seed):
        rng = np.random.default_rng(seed)
        grid = rng.random((12, 12)) < 0.4
        comps = connected_components(grid)
        union = set().union(*comps) if comps else set()
        assert sum(len(c) for c in comps) == len(union)
        assert union == {(i, j) for i, j in zip(*np.nonzero(grid))}


class TestMinBoundingRect:
    def test_single_cell(self):
        assert min_bounding_rect({(3, 4)}) == Box(4, 3, 5, 4)

    def test_corners(self):
        assert min_bounding_rect({(0, 0), (2, 2)}) == Box(0, 0, 3, 3)

    def test_l_shape(self):
        component = {(r, 2) for r in range(1, 6)} | {(5, c) for c in range(2, 8)}
        assert min_bounding_rect(component) == Box(2, 1, 8, 6)

    def test_empty_errors(self):
        with pytest.raises(InputError):
            min_bounding_rect(set())

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_contains_and_tight(self, seed):
        rng = np.random.default_rng(seed)
        grid = rng.random((10, 10)) < 0.3
        for comp in connected_components(grid):
            rect = min_bounding_rect(comp)
            assert all(rect.y0 <= i < rect.y1 and rect.x0 <= j < rect.x1 for i, j in comp)
            # shrinking by one pixel on any side must exclude some cell
            assert any(i == rect.y0 for i, _ in comp)
            assert any(i == rect.y1 - 1 for i, _ in comp)
            assert any(j == rect.x0 for _, j in comp)
            assert any(j == rect.x1 - 1 for _, j in comp)


@st.composite
def grids(draw, max_side=24):
    """Random binary grids, 1x1 up to max_side squared, at several densities
    (0 and 1 give the all-false and all-true grids)."""
    height = draw(st.integers(1, max_side))
    width = draw(st.integers(1, max_side))
    density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.4, 0.6, 0.8, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).random((height, width)) < density


def checkerboard(height, width):
    return np.add.outer(np.arange(height), np.arange(width)) % 2 == 0


class TestRegionBoxes:
    """region_boxes and connected_components against a flood-fill oracle."""

    def assert_matches_oracle(self, grid):
        oracle = flood_fill_components(grid)
        assert region_boxes(grid).tolist() == [list(bounding_rect(c)) for c in oracle]
        assert connected_components(grid) == oracle

    @given(grids())
    @settings(max_examples=300, deadline=None)
    def test_matches_flood_fill_in_first_cell_order(self, grid):
        self.assert_matches_oracle(grid)

    @given(st.integers(1, 40), st.sampled_from([0.1, 0.5, 0.9]), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_single_row_and_single_column(self, n, density, seed):
        line = np.random.default_rng(seed).random(n) < density
        self.assert_matches_oracle(line[None, :])
        self.assert_matches_oracle(line[:, None])

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (5, 9)])
    def test_all_true_is_one_region(self, shape):
        assert region_boxes(np.ones(shape, dtype=bool)).tolist() == [[0, 0, shape[1], shape[0]]]

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (5, 9), (0, 3), (3, 0)])
    def test_all_false_has_no_region(self, shape):
        out = region_boxes(np.zeros(shape, dtype=bool))
        assert out.shape == (0, 4) and out.dtype == np.int64

    @pytest.mark.parametrize("shape", [(2, 2), (5, 5), (4, 9), (9, 4)])
    def test_checkerboard_diagonals_join(self, shape):
        grid = checkerboard(*shape)
        assert region_boxes(grid).tolist() == [[0, 0, shape[1], shape[0]]]
        self.assert_matches_oracle(grid)

    def test_runs_touching_only_at_a_corner_join(self):
        grid = np.zeros((4, 10), dtype=bool)
        grid[0, 0:3] = True  # ends at column 2
        grid[1, 3:6] = True  # starts at column 3: corner contact below-right
        grid[2, 0:3] = True  # ends at column 2: corner contact below-left
        grid[3, 4:6] = True  # column 3 empty: one past the corner, separate
        assert region_boxes(grid).tolist() == [[0, 0, 6, 3], [4, 3, 6, 4]]
        self.assert_matches_oracle(grid)

    def test_region_order_follows_first_cell_not_first_row_run(self):
        # The right region's first run comes first in its row, but the
        # U shape on the left starts a row earlier.
        grid = np.zeros((4, 8), dtype=bool)
        grid[0:3, 0] = True
        grid[0:3, 2] = True
        grid[3, 0:3] = True
        grid[1, 5:8] = True
        assert region_boxes(grid).tolist() == [[0, 0, 3, 4], [5, 1, 8, 2]]
        self.assert_matches_oracle(grid)

    def test_non_2d_grid_errors(self):
        with pytest.raises(InputError):
            region_boxes(np.zeros(4, dtype=bool))
        with pytest.raises(InputError):
            connected_components(np.zeros((2, 2, 2), dtype=bool))


def serpentine(side):
    """One path of full rows joined at alternating ends, so the union-find
    must merge runs that first look like separate regions, row after row."""
    grid = np.zeros((side, side), dtype=bool)
    grid[::2] = True
    for i in range(1, side, 2):
        grid[i, -1 if i % 4 == 1 else 0] = True
    return grid


def staircase(side):
    """A one-pixel diagonal from the top right to the bottom left: every run
    touches the next only at a corner."""
    return np.fliplr(np.eye(side, dtype=bool))


def comb(side):
    """Full columns joined at alternating ends: every row holds many runs,
    and only the first and last rows link them."""
    return serpentine(side).T


class TestLabelRuns:
    """The array union-find of `_label_runs` against the flood-fill oracle."""

    def assert_matches_oracle(self, grid):
        rows, starts, ends, labels = _label_runs(grid)
        keys = np.stack([rows, starts]).T.tolist()
        assert keys == sorted(keys)  # row-major runs
        assert grid[rows, starts].all() and (ends > starts).all()
        regions = [set() for _ in range(int(labels.max(initial=-1)) + 1)]
        for i, s, e, k in zip(rows.tolist(), starts.tolist(), ends.tolist(), labels.tolist()):
            regions[k].update((i, j) for j in range(s, e))
        assert regions == flood_fill_components(grid)

    @given(grids(max_side=40))
    @settings(max_examples=300, deadline=None)
    def test_random_grids(self, grid):
        self.assert_matches_oracle(grid)

    @pytest.mark.parametrize("shape", [serpentine, staircase, comb])
    @pytest.mark.parametrize("side", [1, 2, 7, 64, 301])
    def test_chains(self, shape, side):
        grid = shape(side)
        self.assert_matches_oracle(grid)
        assert _label_runs(grid)[3].max() == 0  # one region


class TestIouMatrix:
    @given(
        st.lists(boxes_strategy(), min_size=1, max_size=8),
        st.lists(boxes_strategy(), min_size=1, max_size=8),
    )
    @settings(max_examples=100)
    def test_integer_matrix_matches_scalar_iou(self, a, b):
        out = iou_matrix(boxes_to_array(a), boxes_to_array(b))
        assert out.shape == (len(a), len(b))
        assert out.tolist() == [[iou(p, q) for q in b] for p in a]

    @given(st.lists(boxes_strategy(), max_size=8))
    @settings(max_examples=50)
    def test_pairwise_matches_scalar_iou(self, boxes):
        assert pairwise_iou(boxes_to_array(boxes)).tolist() == [[iou(p, q) for q in boxes] for p in boxes]


def test_boxes_to_array_roundtrip():
    bs = [Box(0, 1, 2, 3), Box(4, 5, 6, 7)]
    arr = boxes_to_array(bs)
    assert arr.tolist() == [[0, 1, 2, 3], [4, 5, 6, 7]]
    assert boxes_to_array([]).shape == (0, 4)
