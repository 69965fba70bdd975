from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slv import voting
from slv.errors import ConfigError, InputError
from slv.geometry import Box, boxes_to_array, region_boxes
from slv.voting import (
    VOC2007_CLASSES,
    LikelihoodMap,
    VoteBatch,
    VoteConfig,
    accumulate_fast,
    accumulate_naive,
    binarize,
    generate_supervision,
    normalize,
    select_candidates,
    voc2007_config,
    vote_boxes,
    write_pgm,
)

from helpers import bounding_rect, by_class, flood_fill_components, per_pixel_accumulate, two_cumsum_accumulate

MAX = np.finfo(np.float64).max
# Around the largest score sum that stays finite when quadrupled.
EDGE_SCORES = [
    0.0, -0.0, 0.5, 1e300, MAX / 16, MAX / 8, np.nextafter(MAX / 8, np.inf), MAX / 4,
    np.nextafter(MAX / 4, np.inf), MAX / 3, MAX, np.inf, -1.0, -np.inf, np.nan,
]


def random_instance(rng, max_size=24, max_boxes=8, dyadic=False):
    height = int(rng.integers(4, max_size + 1))
    width = int(rng.integers(4, max_size + 1))
    n = int(rng.integers(1, max_boxes + 1))
    boxes = []
    for _ in range(n):
        x0 = int(rng.integers(0, width - 1))
        y0 = int(rng.integers(0, height - 1))
        boxes.append(
            Box(x0, y0, x0 + int(rng.integers(1, width - x0 + 1)), y0 + int(rng.integers(1, height - y0 + 1)))
        )
    if dyadic:
        scores = rng.integers(1, 128, n) / 128.0  # exactly representable, order-proof sums
    else:
        scores = rng.uniform(0.001, 1.0, n)
    return height, width, boxes, scores


class TestSelectCandidates:
    def test_all_zero_scores(self):
        phi = np.zeros((2, 3))
        out = select_candidates(phi, boxes_to_array([Box(0, 0, 2, 2)] * 3), 0, t_score=0.001)
        assert out.size == 0

    def test_default_threshold_filters_low_scores(self):
        phi = np.array([[0.0005, 0.002, 0.5]])
        out = select_candidates(phi, boxes_to_array([Box(0, 0, 2, 2)] * 3), 0, t_score=0.001)
        assert out.tolist() == [1, 2]

    def test_equal_to_threshold_excluded(self):
        phi = np.array([[0.001, 0.25]])
        out = select_candidates(phi, boxes_to_array([Box(0, 0, 2, 2)] * 2), 0, t_score=0.001)
        assert out.tolist() == [1]


class TestAccumulate:
    def test_single_box_constant_inside(self):
        boxes = boxes_to_array([Box(1, 2, 4, 5)])
        scores = np.array([0.7])
        for kernel in (accumulate_fast, accumulate_naive):
            out = kernel(np.array([0]), boxes, scores, 6, 6)
            expected = np.zeros((6, 6))
            expected[2:5, 1:4] = 0.7
            assert np.array_equal(out.data, expected)

    def test_two_overlapping_boxes(self):
        boxes = [Box(0, 0, 4, 4), Box(2, 2, 6, 6)]
        scores = np.array([0.3, 0.5])
        oracle = per_pixel_accumulate([0, 1], boxes, scores, 6, 6)
        assert oracle[3, 3] == pytest.approx(0.8)  # overlap pixels take both scores
        assert oracle[0, 0] == pytest.approx(0.3)
        assert oracle[5, 5] == pytest.approx(0.5)
        for kernel in (accumulate_fast, accumulate_naive):
            out = kernel(np.array([0, 1]), boxes_to_array(boxes), scores, 6, 6)
            assert np.abs(out.data - oracle).max() < 1e-15

    def test_kernels_match_per_pixel_oracle(self):
        rng = np.random.default_rng(1234)
        for _ in range(25):
            height, width, boxes, scores = random_instance(rng, max_size=12, max_boxes=6)
            candidates = np.arange(len(boxes))
            oracle = per_pixel_accumulate(candidates, boxes, scores, height, width)
            fast = accumulate_fast(candidates, boxes_to_array(boxes), scores, height, width)
            naive = accumulate_naive(candidates, boxes_to_array(boxes), scores, height, width)
            assert np.abs(fast.data - oracle).max() < 1e-9
            assert np.abs(naive.data - oracle).max() < 1e-9

    def test_fast_equals_naive_on_random_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            height, width, boxes, scores = random_instance(rng, max_size=48, max_boxes=30)
            candidates = np.array([i for i in range(len(boxes)) if rng.random() < 0.8], dtype=np.int64)
            fast = accumulate_fast(candidates, boxes_to_array(boxes), scores, height, width)
            naive = accumulate_naive(candidates, boxes_to_array(boxes), scores, height, width)
            assert np.abs(fast.data - naive.data).max() <= 1e-9

    def test_out_of_bounds_box_rejected(self):
        boxes = boxes_to_array([Box(0, 0, 10, 10)])
        for kernel in (accumulate_fast, accumulate_naive):
            with pytest.raises(InputError):
                kernel(np.array([0]), boxes, np.array([0.5]), 8, 8)

    def test_scores_whose_sum_overflows_rejected(self):
        boxes = boxes_to_array([Box(0, 0, 5, 5), Box(1, 1, 6, 6), Box(0, 0, 6, 6)])
        for kernel in (accumulate_fast, accumulate_naive):
            with pytest.raises(InputError, match="too large to sum"):
                kernel(np.arange(3), boxes, np.full(3, 1e308), 8, 8)
            # 4 * 3 * 1e307 is finite, so every prefix sum is.
            out = kernel(np.arange(3), boxes, np.full(3, 1e307), 8, 8)
            assert out.data.max() == pytest.approx(3e307)

    @given(st.lists(st.sampled_from(EDGE_SCORES), min_size=1, max_size=9))
    @settings(max_examples=300, deadline=None)
    def test_score_checks_equal_the_plain_tests(self, picked):
        """The fused score checks accept and reject what `isfinite`, `min`
        and `isfinite(4 * sum)` do, with the same message first."""
        scores = np.array(picked)
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isfinite(scores).all() or scores.min() < 0.0:
                want = "accumulate: candidate scores must be finite and non-negative"
            elif not np.isfinite(4.0 * scores.sum()):
                want = "accumulate: candidate scores are too large to sum"
            else:
                want = None
        boxes = boxes_to_array([Box(0, 0, 1, 1)] * len(picked))
        try:
            accumulate_fast(np.arange(len(picked)), boxes, scores, 2, 2)
            got = None
        except InputError as exc:
            got = str(exc)
        assert got == want

    @pytest.mark.parametrize(
        "height, width", [(255, 255), (256, 256), (257, 257), (97, 1201), (1201, 97)]
    )
    def test_fast_is_bit_identical_to_two_cumsums(self, height, width):
        """On square grids around 256 columns and on tall and wide grids,
        the edge-grid kernel's map gives the pixel kernel's bits."""
        rng = np.random.default_rng(height * 10_000 + width)
        n = 300
        # Edges drawn from small pools, borders included, so many cells
        # take several deposits.
        xs = np.sort(rng.choice(np.r_[0, width, rng.integers(1, width, 14)], (n, 2)), axis=1)
        ys = np.sort(rng.choice(np.r_[0, height, rng.integers(1, height, 14)], (n, 2)), axis=1)
        keep = (xs[:, 0] < xs[:, 1]) & (ys[:, 0] < ys[:, 1])
        boxes = np.stack([xs[:, 0], ys[:, 0], xs[:, 1], ys[:, 1]], axis=1)[keep]
        n = len(boxes)
        scores = rng.uniform(0.001, 1.0, n)
        candidates = np.flatnonzero(rng.random(n) < 0.9)
        fast = accumulate_fast(candidates, boxes, scores, height, width)
        assert np.array_equal(fast.data, two_cumsum_accumulate(candidates, boxes, scores, height, width))

    def test_empty_candidates_give_zero_map(self):
        out = accumulate_fast(np.array([], dtype=np.int64), boxes_to_array([Box(0, 0, 2, 2)]), np.array([0.5]), 4, 4)
        assert not out.data.any()


class TestNormalize:
    def test_peak_becomes_one(self):
        raw = np.array([[0.0, 2.0], [4.0, 1.0]])
        likelihood = LikelihoodMap(raw)
        out = normalize(likelihood)
        assert out.data[1, 0] == 1.0
        assert out.data[0, 1] == pytest.approx(0.5)
        assert out is likelihood

    def test_all_zero_flagged_empty(self):
        zeros = np.zeros((3, 3))
        likelihood = LikelihoodMap(zeros)
        out = normalize(likelihood)
        assert out is likelihood
        assert out.data is zeros and not zeros.any()

    def test_scales_the_given_array_in_place(self):
        raw = np.array([[0.0, 3.0], [6.0, 1.5]])
        likelihood = LikelihoodMap(raw)
        out = normalize(likelihood)
        assert out.data is raw and likelihood.data is raw
        assert np.array_equal(raw, np.array([[0.0, 3.0], [6.0, 1.5]]) / 6.0)

    def test_constant_map_becomes_all_ones(self):
        out = normalize(LikelihoodMap(np.full((2, 2), 0.3)))
        assert np.array_equal(out.data, np.ones((2, 2)))

    def test_negative_entries_rejected(self):
        with pytest.raises(InputError):
            normalize(LikelihoodMap(np.array([[-0.1, 0.2]])))

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0, 0)])
    def test_map_without_pixels_rejected(self, shape):
        """A map with no pixels fails where it is made, not later in
        normalize or as a ZeroDivisionError in write_pgm."""
        with pytest.raises(InputError, match="no pixels"):
            LikelihoodMap(np.zeros(shape))

    def test_edges_must_match_the_cells(self):
        with pytest.raises(InputError):
            LikelihoodMap(np.zeros((2, 1)), y_edges=np.array([0, 4]), x_edges=np.array([0, 3]))


class TestBinarize:
    def test_strictly_greater(self):
        grid = binarize(LikelihoodMap(np.array([[0.4, 0.5, 0.6]])), 0.5)
        assert grid.tolist() == [[False, False, True]]

    def test_person_threshold(self):
        grid = binarize(LikelihoodMap(np.array([[0.25, 0.15]])), 0.2)
        assert grid.tolist() == [[True, False]]

    def test_all_ones_all_true(self):
        for t_b in (0.2, 0.5, 0.99):
            grid = binarize(LikelihoodMap(np.ones((2, 2))), t_b)
            assert grid.all()


class TestVoteBoxes:
    def test_single_voter_round_trip(self):
        box = Box(2, 1, 7, 5)
        likelihood = accumulate_fast(np.array([0]), boxes_to_array([box]), np.array([0.4]), 8, 10)
        normalized = normalize(likelihood)
        grid = normalized.pixels(binarize(normalized, 0.5))
        assert vote_boxes(grid).tolist() == [list(box.as_tuple())]

    def test_two_separated_regions(self):
        grid = np.zeros((8, 8), dtype=bool)
        grid[0:2, 0:2] = True
        grid[5:8, 5:7] = True
        assert vote_boxes(grid).tolist() == [[0, 0, 2, 2], [5, 5, 7, 8]]

    def test_empty_grid(self):
        assert vote_boxes(np.zeros((4, 4), dtype=bool)).tolist() == []


class TestVoteConfig:
    def test_defaults(self):
        config = VoteConfig()
        assert config.t_score == 0.001
        assert config.t_b_default == 0.5
        assert config.t_b_per_class == {}

    def test_voc2007_preset(self):
        config = voc2007_config()
        person = VOC2007_CLASSES.index("person")
        assert config.t_score == 0.001
        assert config.t_b_default == 0.5
        assert config.t_b_per_class == {person: 0.2}
        assert config.t_b_for(person) == 0.2
        assert config.t_b_for(0) == 0.5

    def test_out_of_range_threshold_rejected(self):
        with pytest.raises(ConfigError):
            VoteConfig(t_score=0.0)
        with pytest.raises(ConfigError):
            VoteConfig(t_b_default=1.0)
        with pytest.raises(ConfigError):
            VoteConfig(t_b_per_class={2: 1.5})


class TestGenerateSupervision:
    def test_single_voter_recovers_box_exactly(self):
        box = Box(3, 4, 11, 9)
        phi = np.array([[0.6]])
        sup = generate_supervision(phi, boxes_to_array([box]), np.array([1]), 16, 16, VoteConfig())
        assert by_class(sup) == {0: [box]}

    def test_two_positive_classes_two_box_lists(self):
        boxes = [Box(0, 0, 5, 5), Box(10, 10, 15, 15)]
        phi = np.array([[0.9, 0.0], [0.0, 0.8]])
        sup = generate_supervision(phi, boxes_to_array(boxes), np.array([1, 1]), 20, 20, VoteConfig())
        assert sorted(by_class(sup)) == [0, 1]
        assert by_class(sup)[0] == [boxes[0]]
        assert by_class(sup)[1] == [boxes[1]]

    def test_all_scores_below_threshold_is_empty_not_error(self):
        phi = np.array([[0.0005]])
        sup = generate_supervision(phi, boxes_to_array([Box(0, 0, 4, 4)]), np.array([1]), 8, 8, VoteConfig())
        assert len(sup.boxes) == 0
        assert by_class(sup) == {}

    def test_no_positive_class_errors(self):
        phi = np.array([[0.5]])
        with pytest.raises(InputError):
            generate_supervision(phi, boxes_to_array([Box(0, 0, 4, 4)]), np.array([0]), 8, 8, VoteConfig())

    def test_negative_class_ignores_scores(self):
        boxes = [Box(0, 0, 5, 5), Box(10, 10, 15, 15)]
        phi = np.array([[0.9, 0.0], [0.0, 0.8]])
        sup = generate_supervision(phi, boxes_to_array(boxes), np.array([1, 0]), 20, 20, VoteConfig())
        assert sorted(by_class(sup)) == [0]


@st.composite
def vote_images(draw):
    """Images of mixed sizes with 1-3 positive classes out of 3 and scores
    from a small tie-heavy set; 0.0 and 0.0005 are at or below t_score, so
    some classes have no candidate and vote an all-zero map."""
    height, width = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    boxes = []
    for _ in range(draw(st.integers(0, 8))):
        x0, y0 = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
        boxes.append(Box(x0, y0, draw(st.integers(x0 + 1, width)), draw(st.integers(y0 + 1, height))))
    levels = st.sampled_from([0.0, 0.0005, 0.1, 0.2, 0.3, 0.4, 0.6, 0.7])
    phi = np.array(draw(st.lists(st.lists(levels, min_size=len(boxes), max_size=len(boxes)), min_size=3, max_size=3)))
    y = np.array(draw(st.lists(st.sampled_from([0, 1]), min_size=3, max_size=3).filter(any)))
    return phi.reshape(3, len(boxes)), boxes_to_array(boxes), y, height, width


def per_grid_vote(phi, boxes, y, height, width, config):
    """The vote one grid at a time from the public per-grid steps, with the
    maps it makes as (class, bytes)."""
    voted, maps = {}, []
    for c in np.flatnonzero(y == 1).tolist():
        candidates = select_candidates(phi, boxes, c, config.t_score)
        if candidates.size == 0:
            maps.append((c, np.zeros((height, width)).tobytes()))
            continue
        normalized = normalize(accumulate_fast(candidates, boxes, phi[c], height, width))
        maps.append((c, normalized.data.tobytes()))
        rects = vote_boxes(normalized.pixels(binarize(normalized, config.t_b_for(c)))).tolist()
        if rects:
            voted[c] = [Box(*r) for r in rects]
    return voted, maps


@st.composite
def mixed_vote_batches(draw):
    """Two to five images of different sizes over three classes. Each class
    is positive with no candidate (every score at or below t_score, or no
    proposal at all), positive and ordinary, or negative; the first image
    has a positive class without candidates and the second an ordinary one,
    so every batch mixes both."""
    sizes = st.tuples(st.integers(1, 40), st.integers(1, 40))
    images = []
    for i, (height, width) in enumerate(draw(st.lists(sizes, min_size=2, max_size=5, unique=True))):
        boxes = []
        for _ in range(draw(st.integers(int(i == 1), 8))):
            x0, y0 = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
            boxes.append((x0, y0, draw(st.integers(x0 + 1, width)), draw(st.integers(y0 + 1, height))))
        first = {0: ["none"], 1: ["ordinary"]}.get(i, ["none", "ordinary"])
        kinds = [draw(st.sampled_from(first)), *(draw(st.sampled_from(["none", "ordinary", "negative"])) for _ in range(2))]
        rows = []
        for kind in kinds:
            levels = [0.0, 0.0005, 0.001] if kind == "none" else [0.0, 0.1, 0.2, 0.3, 0.4, 0.6, 0.7]
            row = st.lists(st.sampled_from(levels), min_size=len(boxes), max_size=len(boxes))
            rows.append(draw(row.filter(lambda r: max(r) > 0.001) if kind == "ordinary" and boxes else row))
        phi, y = np.array(rows).reshape(3, len(boxes)), np.array([kind != "negative" for kind in kinds], dtype=np.int64)
        images.append((phi, np.array(boxes, dtype=np.int64).reshape(-1, 4), y, height, width))
    return images


def pixel_oracle_vote(phi, boxes, y, height, width, config):
    """One image's vote on pixels, through the two-cumsum kernel and the
    flood fill: its (K, 4) boxes and (K,) classes, and per positive class
    the map's edges and PGM bytes."""
    rects, classes, maps = [], [], []
    for c in np.flatnonzero(y == 1).tolist():
        candidates = np.flatnonzero(phi[c] > config.t_score)
        pixels = two_cumsum_accumulate(candidates, boxes, phi[c], height, width)
        if pixels.max() > 0.0:
            pixels /= pixels.max()
        regions = flood_fill_components(pixels > config.t_b_for(c))
        rects += [bounding_rect(region) for region in regions]
        classes += [c] * len(regions)
        picked = boxes[candidates]
        y_edges = np.unique(np.r_[0, height, picked[:, 1], picked[:, 3]]).tolist()
        x_edges = np.unique(np.r_[0, width, picked[:, 0], picked[:, 2]]).tolist()
        body = np.rint(255.0 * pixels).astype(np.uint8).tobytes()
        maps.append((c, y_edges, x_edges, f"P5\n{width} {height}\n255\n".encode() + body))
    return np.array(rects, dtype=np.int64).reshape(-1, 4), np.array(classes, dtype=np.int64), maps


class TestVoteBatch:
    @given(
        st.lists(vote_images(), min_size=1, max_size=6),
        st.dictionaries(st.integers(0, 2), st.sampled_from([0.2, 0.25, 0.5, 0.75]), max_size=3),
        st.sampled_from([1, 300, voting.BATCH_CELLS]),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_per_record_and_per_grid_votes(self, images, t_b, cells):
        """The batched vote gives every image the boxes, in the same order,
        and the heatmaps of the per-grid vote and of generate_supervision,
        whatever the chunk budget."""
        config = VoteConfig(t_b_per_class=t_b)
        maps = []
        with mock.patch.object(voting, "BATCH_CELLS", cells):
            batch = VoteBatch(config)
            for image in images:
                batch.add(*image, on_map=lambda m: maps.append((m.class_id, m.data.tobytes())))
            batched = batch.supervisions()
        assert len(batched) == len(images)
        want_maps = []
        for image, sup in zip(images, batched):
            voted, image_maps = per_grid_vote(*image, config)
            want_maps += image_maps
            single = generate_supervision(*image, config)
            assert list(by_class(sup).items()) == list(voted.items())
            assert list(by_class(single).items()) == list(voted.items())
            assert sup.boxes.dtype == sup.classes.dtype == np.int64
            assert sup.boxes.shape == (len(sup.classes), 4)
        assert maps == want_maps

    @given(
        mixed_vote_batches(),
        st.dictionaries(st.integers(0, 2), st.sampled_from([0.2, 0.25, 0.5, 0.75]), max_size=3),
        st.sampled_from([1, voting.BATCH_CELLS]),
    )
    @settings(max_examples=100, deadline=None)
    def test_mixed_batches_equal_the_pixel_oracle(self, tmp_path_factory, images, t_b, cells):
        """Classes without candidates take the same path as the rest: every
        image's supervision, every map's edges (a 1x1 zero map on [0, H] and
        [0, W] without candidates) and every heatmap's bytes equal the pixel
        oracle's."""
        config = VoteConfig(t_b_per_class=t_b)
        folder = tmp_path_factory.mktemp("pgm")
        maps = []

        def on_map(m):
            path = folder / f"{len(maps)}.pgm"
            write_pgm(m, path)
            maps.append((m.class_id, m.y_edges.tolist(), m.x_edges.tolist(), path.read_bytes()))

        with mock.patch.object(voting, "BATCH_CELLS", cells):
            batch = VoteBatch(config)
            for image in images:
                batch.add(*image, on_map=on_map)
            batched = batch.supervisions()
        want_maps = []
        for image, sup in zip(images, batched, strict=True):
            rects, classes, image_maps = pixel_oracle_vote(*image, config)
            want_maps += image_maps
            assert sup.boxes.tobytes() == rects.tobytes() and sup.boxes.shape == rects.shape
            assert sup.classes.tobytes() == classes.tobytes() and sup.classes.shape == classes.shape
        assert maps == want_maps
        # The first image's class 0 has no candidate: one zero cell.
        assert any(len(ys) == len(xs) == 2 and not body[-1] for _, ys, xs, body in maps)

    @pytest.mark.parametrize("bad_class", [0, 1], ids=["first-class", "second-class"])
    def test_a_failed_add_leaves_nothing_behind(self, bad_class):
        """An add that raises, on its first class or after an earlier class
        voted, neither counts the image nor queues a grid: one good add then
        gives exactly the Supervision a fresh batch gives."""
        boxes = boxes_to_array([Box(1, 1, 5, 5), Box(0, 0, 20, 20)])  # box 1 exceeds the 8x8 image
        phi_bar = np.full((2, 2), 0.0)
        phi_bar[0, 1 if bad_class == 0 else 0] = 0.9
        phi_bar[1, 1 if bad_class == 1 else 0] = 0.9
        good = (np.array([[0.9, 0.0], [0.8, 0.0]]), boxes, np.array([1, 1]), 8, 8)
        batch = VoteBatch(VoteConfig())
        with pytest.raises(InputError, match="exceeds the 8x8 image"):
            batch.add(phi_bar, boxes, np.array([1, 1]), 8, 8)
        batch.add(*good)
        fresh = VoteBatch(VoteConfig())
        fresh.add(*good)
        (got,), (want,) = batch.supervisions(), fresh.supervisions()
        assert got.boxes.tobytes() == want.boxes.tobytes() and got.boxes.shape == want.boxes.shape
        assert got.classes.tolist() == want.classes.tolist() == [0, 1]


@st.composite
def edge_grid_instances(draw):
    """Tie-heavy votes: box sides from small pools that hold 0, H and W,
    single-pixel and full-image boxes, scores from a small set (0.0 and
    0.001 are not above t_score), and sizes on both sides of 256."""
    sizes = st.one_of(st.integers(1, 40), st.integers(250, 300))
    height, width = draw(sizes), draw(sizes)
    ys = [0, height, *draw(st.lists(st.integers(0, height), max_size=3))]
    xs = [0, width, *draw(st.lists(st.integers(0, width), max_size=3))]
    boxes = []
    for kind in draw(st.lists(st.sampled_from(["pool", "pixel", "full"]), min_size=1, max_size=10)):
        if kind == "full":
            boxes.append((0, 0, width, height))
        elif kind == "pixel":
            x, y = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
            boxes.append((x, y, x + 1, y + 1))
        else:
            x0, x1 = sorted(draw(st.lists(st.sampled_from(xs), min_size=2, max_size=2, unique=True)))
            y0, y1 = sorted(draw(st.lists(st.sampled_from(ys), min_size=2, max_size=2, unique=True)))
            boxes.append((x0, y0, x1, y1))
    levels = st.sampled_from([0.0, 1e-3, 0.1, 0.2, 0.3, 0.4, 0.6, 0.7])
    scores = np.array(draw(st.lists(levels, min_size=len(boxes), max_size=len(boxes))))
    t_b = draw(st.sampled_from([0.2, 0.25, 0.5, 0.75]))
    return height, width, np.array(boxes, dtype=np.int64), scores, t_b


class TestEdgeGrid:
    @given(edge_grid_instances())
    @settings(max_examples=200, deadline=None)
    def test_cells_give_the_pixel_kernel_bytes_boxes_and_heatmap(self, tmp_path_factory, instance):
        """The vote on the edge grid equals the pixel-grid vote bit for bit:
        the expanded map, the voted boxes and the heatmap bytes."""
        height, width, boxes, scores, t_b = instance
        candidates = select_candidates(scores.reshape(1, -1), boxes, 0, 0.001)
        pixels = two_cumsum_accumulate(candidates, boxes, scores, height, width)

        likelihood = accumulate_fast(candidates, boxes, scores, height, width)
        for edges, size in ((likelihood.y_edges, height), (likelihood.x_edges, width)):
            assert edges[0] == 0 and edges[-1] == size and (np.diff(edges) > 0).all()
        assert likelihood.cells.shape == (len(likelihood.y_edges) - 1, len(likelihood.x_edges) - 1)
        assert likelihood.data.tobytes() == pixels.tobytes()

        path = tmp_path_factory.mktemp("pgm") / "map.pgm"
        config = VoteConfig(t_b_default=t_b)
        sup = generate_supervision(
            scores.reshape(1, -1), boxes, np.array([1]), height, width, config,
            on_map=lambda m: write_pgm(m, path),
        )
        peak = pixels.max()
        if peak > 0.0:
            pixels /= peak
        want = [] if peak <= 0.0 else [Box(*r) for r in region_boxes(pixels > t_b).tolist()]
        assert by_class(sup).get(0, []) == want
        body = np.rint(255 * pixels).astype(np.uint8).tobytes()
        assert path.read_bytes() == f"P5\n{width} {height}\n255\n".encode() + body


class TestVotingProperties:
    @given(st.integers(0, 10_000), st.sampled_from([0.25, 0.5, 2.0, 8.0]))
    @settings(max_examples=40, deadline=None)
    def test_score_scale_equivariance_power_of_two(self, seed, factor):
        rng = np.random.default_rng(seed)
        height, width, boxes, scores = random_instance(rng)
        candidates = np.arange(len(boxes))
        base = normalize(accumulate_fast(candidates, boxes_to_array(boxes), scores, height, width))
        scaled = normalize(accumulate_fast(candidates, boxes_to_array(boxes), scores * factor, height, width))
        assert np.array_equal(base.data, scaled.data)
        assert np.array_equal(binarize(base, 0.5), binarize(scaled, 0.5))
        assert vote_boxes(binarize(base, 0.5)).tolist() == vote_boxes(binarize(scaled, 0.5)).tolist()

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_score_scale_equivariance_general_factor(self, seed):
        rng = np.random.default_rng(seed)
        height, width, boxes, scores = random_instance(rng)
        factor = float(rng.uniform(0.1, 7.0))
        candidates = np.arange(len(boxes))
        base = normalize(accumulate_fast(candidates, boxes_to_array(boxes), scores, height, width))
        scaled = normalize(accumulate_fast(candidates, boxes_to_array(boxes), scores * factor, height, width))
        assert np.abs(base.data - scaled.data).max() < 1e-12
        assert vote_boxes(binarize(base, 0.5)).tolist() == vote_boxes(binarize(scaled, 0.5)).tolist()

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_raising_threshold_never_grows_regions(self, seed):
        rng = np.random.default_rng(seed)
        height, width, boxes, scores = random_instance(rng)
        likelihood = normalize(accumulate_fast(np.arange(len(boxes)), boxes_to_array(boxes), scores, height, width))
        low = binarize(likelihood, 0.3)
        high = binarize(likelihood, 0.7)
        assert not (high & ~low).any()  # true cells at 0.7 are a subset of those at 0.3

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_voted_boxes_inside_candidate_union(self, seed):
        rng = np.random.default_rng(seed)
        height, width, boxes, scores = random_instance(rng)
        phi = scores.reshape(1, -1)
        sup = generate_supervision(phi, boxes_to_array(boxes), np.array([1]), height, width, VoteConfig())
        candidates = select_candidates(phi, boxes_to_array(boxes), 0, 0.001).tolist()
        if not candidates:
            assert len(sup.boxes) == 0
            return
        hull = Box(
            min(boxes[i].x0 for i in candidates),
            min(boxes[i].y0 for i in candidates),
            max(boxes[i].x1 for i in candidates),
            max(boxes[i].y1 for i in candidates),
        )
        for voted in by_class(sup).get(0, []):
            assert voted.x0 >= hull.x0 and voted.y0 >= hull.y0
            assert voted.x1 <= hull.x1 and voted.y1 <= hull.y1

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_proposal_order_invariance(self, seed):
        rng = np.random.default_rng(seed)
        height, width, boxes, scores = random_instance(rng, dyadic=True)
        y = np.array([1])
        phi = scores.reshape(1, -1)
        base = generate_supervision(phi, boxes_to_array(boxes), y, height, width, VoteConfig())
        perm = rng.permutation(len(boxes))
        shuffled = generate_supervision(
            scores[perm].reshape(1, -1),
            boxes_to_array([boxes[int(i)] for i in perm]),
            y,
            height,
            width,
            VoteConfig(),
        )
        assert by_class(base) == by_class(shuffled)


class TestPgmExport:
    def test_golden_bytes(self, tmp_path):
        likelihood = normalize(accumulate_fast(np.array([0]), boxes_to_array([Box(1, 1, 3, 3)]), np.array([0.5]), 4, 4))
        path = tmp_path / "map.pgm"
        write_pgm(likelihood, path)
        body = bytes(
            [0, 0, 0, 0,
             0, 255, 255, 0,
             0, 255, 255, 0,
             0, 0, 0, 0]
        )
        assert path.read_bytes() == b"P5\n4 4\n255\n" + body

    def test_requires_normalized(self, tmp_path):
        with pytest.raises(InputError):
            write_pgm(LikelihoodMap(np.array([[1.0, 2.0], [0.5, 0.0]])), tmp_path / "x.pgm")

    def test_quantization_rounds(self, tmp_path):
        likelihood = LikelihoodMap(np.array([[0.0, 0.5, 1.0]]))
        path = tmp_path / "q.pgm"
        write_pgm(likelihood, path)
        assert path.read_bytes() == b"P5\n3 1\n255\n" + bytes([0, 128, 255])

    def test_blocks_join_into_the_whole_map(self, tmp_path):
        """A wide map of random pixels gives the bytes of quantizing it whole."""
        width = 1200
        height = 155
        data = np.random.default_rng(7).random((height, width))
        path = tmp_path / "blocks.pgm"
        write_pgm(LikelihoodMap(data), path)
        body = np.rint(255.0 * data).astype(np.uint8).tobytes()
        assert path.read_bytes() == f"P5\n{width} {height}\n255\n".encode() + body

    def test_column_major_map_written_row_major(self, tmp_path):
        data = np.asfortranarray([[0.0, 0.5, 1.0], [1.0, 0.0, 0.25]])
        path = tmp_path / "f.pgm"
        write_pgm(LikelihoodMap(data), path)
        assert path.read_bytes() == b"P5\n3 2\n255\n" + bytes([0, 128, 255, 255, 0, 64])
