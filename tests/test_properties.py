"""Property tests of the block pipelines against the plaintext oracles.

Ideal mode, tie correction on: ranks, sorted values and masks are exact, and
the reciprocal of a window's mask norm k is seeded at 1/k, exact for k = 1
and 2, so ranks, sorts and statistics must equal the oracle bit for bit.
Values come from a small pool, so most vectors carry ties, within and across blocks,
and the last block is padded whenever the length is not a multiple of the
block side.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from slotrank import (
    HEParams,
    HESimulator,
    KernelConfig,
    SortConfig,
    StatisticQuery,
    block_merge,
    block_split,
    multi_rank,
    multi_sort,
    multi_statistic,
)
from slotrank import reference

IDEAL = KernelConfig(mode="ideal", degree=256)
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@st.composite
def block_vectors(draw):
    """(values, slot count): 1-5 blocks of side 4 or 8, values from a pool of 2-6."""
    side = draw(st.sampled_from((4, 8)))
    blocks = draw(st.integers(1, 5))
    n = draw(st.integers((blocks - 1) * side + 1, blocks * side))
    pool = draw(st.integers(2, 6))
    values = draw(st.lists(st.integers(0, pool - 1), min_size=n, max_size=n))
    return np.array(values, dtype=np.float64) / pool, side * side


def split(values, slot_count):
    eng = HESimulator(HEParams(slot_count=slot_count, max_level=64))
    return eng, block_split(eng, values)


@PROPERTY
@given(block_vectors())
def test_tie_corrected_multi_rank_is_the_oracle_permutation(case):
    values, slot_count = case
    eng, bv = split(values, slot_count)
    ranks = block_merge(eng, multi_rank(eng, bv, IDEAL, tie_correction=True))
    assert np.array_equal(ranks, reference.corrected_ranks(values))


@PROPERTY
@given(block_vectors())
def test_tie_corrected_multi_sort_is_the_oracle_sort(case):
    values, slot_count = case
    eng, bv = split(values, slot_count)
    out = block_merge(eng, multi_sort(eng, bv, SortConfig(kernel=IDEAL)))
    assert np.array_equal(out, reference.sorted_values(values))


@PROPERTY
@given(block_vectors(), st.data())
def test_tie_corrected_multi_statistic_matches_the_oracle(case, data):
    # the median covers odd and even lengths; an even one is one window over
    # both middle ranks, averaged by the mask norm 2.  A tied extreme is
    # selected once, whatever the block count
    values, slot_count = case
    n = values.size
    k = data.draw(st.integers(1, n))
    for query, want in (
        (StatisticQuery("median"), reference.median_value(values)),
        (StatisticQuery("kth", k=k), reference.kth_smallest(values, k)),
        (StatisticQuery("min"), values.min()),
        (StatisticQuery("max"), values.max()),
    ):
        eng, bv = split(values, slot_count)
        out = eng.decrypt(multi_statistic(eng, bv, query, IDEAL))[0]
        assert out == want, (query, n)
