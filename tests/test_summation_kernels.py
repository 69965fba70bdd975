"""The two summation orders of slv.mil against the Python loops whose bits
they keep: `record_sums` adds a segment's rows one by one from 0.0, and
`segment_sums` is each segment's own `.sum()`. The values come from a pool
whose sums depend on the order of the additions, with signed zeros; the
segments include empty ones, single rows and segments long enough for
numpy's pairwise summation to split them. `total_loss` on arrays must give
every record the bits of its scalar call."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slv.errors import InputError
from slv.mil import record_sums, segment_sums
from slv.targets import total_loss

POOL = np.array([0.0, -0.0, 1.0, -1.0, 0.1, -0.3, 1e-16, 3e-17, 1e16, -1e16, 2.5e15, 7.0])
counts_lists = st.lists(st.one_of(st.integers(0, 12), st.sampled_from([1, 9, 17, 140])), max_size=6)
row_shapes = st.sampled_from([(), (3,), (2, 3)])


def pooled(seed, shape):
    rng = np.random.default_rng(seed)
    return np.where(rng.random(shape) < 0.7, rng.choice(POOL, shape), rng.standard_normal(shape))


def same_bits(got, want):
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@given(seed=st.integers(0, 2**32 - 1), counts=counts_lists, row=row_shapes)
@settings(max_examples=200, deadline=None)
def test_record_sums_add_each_segment_from_zero_row_by_row(seed, counts, row):
    values = pooled(seed, (sum(counts), *row))
    want, start = [], 0
    for count in counts:
        total = 0.0
        for value in values[start : start + count]:
            total += value
        want.append(np.full(row, total))
        start += count
    same_bits(record_sums(values, counts), np.array(want).reshape(len(counts), *row))


@given(seed=st.integers(0, 2**32 - 1), counts=counts_lists)
@settings(max_examples=200, deadline=None)
def test_segment_sums_are_each_segment_own_sum(seed, counts):
    values = pooled(seed, sum(counts))
    want, start = [], 0
    for count in counts:
        want.append(values[start : start + count].sum())
        start += count
    same_bits(segment_sums(values, counts), np.array(want, dtype=np.float64))


def test_the_two_orders_differ_on_order_sensitive_values():
    """Values like the pool's give the two orders different sums, and a
    total from 0.0 turns a lone -0.0 into 0.0."""
    values = np.array([1e16, 1.0, -1e16, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    assert record_sums(values, [10])[0] != segment_sums(values, [10])[0]
    assert record_sums(np.array([-0.0]), [1]).tobytes() == np.zeros(1).tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 6),
    stages=st.integers(0, 4),
    weight=st.sampled_from([0.0, 0.25, 1.0, 0.1]),
)
@settings(max_examples=200, deadline=None)
def test_total_loss_on_arrays_matches_each_scalar_call(seed, n, stages, weight):
    l_mil, l_slv = pooled(seed, (n,)), pooled(seed + 1, (n,))
    l_refine = pooled(seed + 2, (n, stages))
    got = total_loss(l_mil, l_refine, l_slv, weight)
    want = [total_loss(float(m), r.tolist(), float(s), weight) for m, r, s in zip(l_mil, l_refine, l_slv)]
    same_bits(got, np.array(want, dtype=np.float64).reshape(n))


def test_total_loss_on_arrays_rejects_any_non_finite_term():
    ok = np.ones(3)
    for bad in range(3):
        terms = [ok, np.ones((3, 2)), ok]
        terms[bad] = terms[bad].copy()
        terms[bad].flat[-1] = np.nan
        with pytest.raises(InputError, match="total_loss: all terms must be finite"):
            total_loss(terms[0], terms[1], terms[2], 0.5)
