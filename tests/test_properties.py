"""Property tests of the block pipelines against the plaintext oracles.

Ideal mode, tie correction on: ranks, sorted values and masks are exact, and
the reciprocal of a window's mask norm k is seeded at 1/k, exact for k = 1
and 2, so ranks, sorts and statistics must equal the oracle bit for bit.
Without tie correction a statistic keeps the rounding of the reciprocal
over (0.5, n + 0.5).  Values come
from a small pool, so most vectors carry ties, within and across blocks,
and the last block is padded whenever the length is not a multiple of the
block side.
"""

from unittest import mock

import numpy as np
import pytest
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
from slotrank import select as select_module

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
    # both middle ranks, averaged by the mask norm 2
    values, slot_count = case
    n = values.size
    k = data.draw(st.integers(1, n))
    for query, want in (
        (StatisticQuery("median"), reference.median_value(values)),
        (StatisticQuery("kth", k=k), reference.kth_smallest(values, k)),
    ):
        eng, bv = split(values, slot_count)
        out = eng.decrypt(multi_statistic(eng, bv, query, IDEAL, tie_correction=True))[0]
        assert out == want, (query, n)


@PROPERTY
@given(block_vectors(), st.data())
def test_uncorrected_statistic_raises_exactly_when_it_would_be_wrong(case, data):
    # without tie correction a tie group shares one rank, which can leave the
    # window of target ranks; the call must raise when, and only when, the
    # unchecked circuit's value differs from the oracle.  Values stay off
    # zero, which a window that selects nothing also reads
    values, slot_count = case
    values = 0.5 + values / 2
    n = values.size
    query, want = data.draw(
        st.one_of(
            st.just((StatisticQuery("median"), reference.median_value(values))),
            st.integers(1, n).map(lambda k: (StatisticQuery("kth", k=k), reference.kth_smallest(values, k))),
            st.floats(1.0, 99.0).map(
                lambda p: (StatisticQuery("percentile", p=p), reference.percentile_value(values, p))
            ),
        )
    )

    def run():
        eng, bv = split(values, slot_count)
        return float(eng.decrypt(multi_statistic(eng, bv, query, IDEAL, tie_correction=False))[0])

    with mock.patch.object(select_module, "_require_selectable", lambda *args: None):
        wrong = run() != pytest.approx(want, rel=1e-13)
    try:
        out = run()
    except ValueError as exc:
        assert wrong and "multi_statistic: sorted position" in str(exc)
    else:
        assert not wrong and out == pytest.approx(want, rel=1e-13)
