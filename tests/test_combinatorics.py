import numpy as np
import pytest
from hypothesis import given, strategies as st

from corrdyn.combinatorics import (
    bell_number,
    bit_indices,
    enumerate_partitions,
    enumerate_subsets,
    mask_of,
)


def rebuilt_partitions(mask: int):
    """Every partition of `mask`'s sites, each tuple of blocks rebuilt from
    scratch from its restricted-growth string, in lexicographic order."""
    sites = bit_indices(mask)
    n = len(sites)
    a = [0] * n
    m = [0] * n  # m[k] = max(a[:k]), so a[k] may grow to m[k] + 1
    while True:
        blocks = [0] * (max(a) + 1)
        for k, s in enumerate(sites):
            blocks[a[k]] |= 1 << s
        yield tuple(blocks)
        k = n - 1
        while k > 0 and a[k] > m[k]:
            k -= 1
        if k == 0:
            return
        a[k] += 1
        for j in range(k + 1, n):
            a[j] = 0
            m[j] = max(m[k], a[k])


def bell_triangle(n: int) -> int:
    """Independent Bell-number oracle via the Bell triangle recurrence."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def test_subsets_of_empty_set():
    assert list(enumerate_subsets(0)) == [0]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_subsets_count_and_order(n):
    mask = (1 << n) - 1
    subs = list(enumerate_subsets(mask))
    assert len(subs) == 2**n
    assert len(set(subs)) == len(subs)
    assert subs == sorted(subs)
    assert subs[0] == 0 and subs[-1] == mask


def test_subsets_of_sparse_mask():
    mask = mask_of([0, 2, 5])
    subs = list(enumerate_subsets(mask))
    assert len(subs) == 8
    assert all(s & ~mask == 0 for s in subs)
    assert subs == sorted(subs)


@given(st.integers(min_value=0, max_value=2**10 - 1))
def test_subsets_property(mask):
    subs = list(enumerate_subsets(mask))
    assert len(subs) == 2 ** mask.bit_count()
    assert len(set(subs)) == len(subs)
    assert all(s | mask == mask for s in subs)


@pytest.mark.parametrize(
    "n,count", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]
)
def test_partition_counts(n, count):
    assert len(list(enumerate_partitions((1 << n) - 1))) == count


@pytest.mark.parametrize("n", range(1, 9))
def test_partition_count_matches_bell_triangle(n):
    assert len(list(enumerate_partitions((1 << n) - 1))) == bell_triangle(n)


def test_bell_number_matches_bell_triangle():
    assert [bell_number(n) for n in range(1, 13)] == [bell_triangle(n) for n in range(1, 13)]
    assert bell_number(9) == 21147
    assert bell_number(0) == 1 and bell_number(np.int64(4)) == 15


@pytest.mark.parametrize("n", [-1, -5, 2.5, True, np.True_, "3", None], ids=repr)
def test_bell_number_refuses_a_negative_or_non_integer_n(n):
    with pytest.raises(ValueError, match="n must be an integer|needs n >= 0"):
        bell_number(n)


def test_partition_of_empty_set_is_an_error():
    with pytest.raises(ValueError, match="empty"):
        next(enumerate_partitions(0))


@given(st.sets(st.integers(min_value=0, max_value=9), min_size=1, max_size=6))
def test_partition_properties(sites):
    mask = mask_of(sites)
    seen = set()
    for p in enumerate_partitions(mask):
        union = 0
        assert type(p) is tuple
        for b in p:
            assert type(b) is int
            assert b != 0
            assert b & union == 0
            union |= b
        assert union == mask
        # canonical order: blocks sorted by smallest element
        lows = [b & -b for b in p]
        assert lows == sorted(lows)
        assert p not in seen
        seen.add(p)


def test_in_place_blocks_equal_blocks_rebuilt_per_partition():
    sparse = [mask_of(s) for s in ([0, 10], [1, 4, 7, 10], [0, 2, 3, 5, 8, 9, 10], [3, 9])]
    for mask in list(range(1, 1 << 8)) + sparse:
        assert list(enumerate_partitions(mask)) == list(rebuilt_partitions(mask)), mask


def test_partition_stores_its_blocks_as_a_tuple():
    # restricted-growth order, blocks ordered by their smallest site
    assert list(enumerate_partitions(0b111)) == [
        (0b111,), (0b011, 0b100), (0b101, 0b010), (0b001, 0b110), (0b001, 0b010, 0b100)
    ]
    assert list(enumerate_partitions(0b1010)) == [(0b1010,), (0b0010, 0b1000)]


def test_partition_stores_numpy_integer_blocks_as_ints():
    for mask in (np.int64(7), np.uint8(13)):
        for p in enumerate_partitions(mask):
            assert type(p) is tuple and all(type(b) is int for b in p)


def test_bit_indices():
    assert bit_indices(0b101001) == [0, 3, 5]
    assert bit_indices(0) == []


_NOT_INTEGERS = [True, False, np.bool_(True), 3.0, np.float64(3.0), "3", None]


@pytest.mark.parametrize("mask", _NOT_INTEGERS, ids=repr)
def test_masks_must_be_integers(mask):
    calls = (bit_indices, lambda m: list(enumerate_subsets(m)),
             lambda m: list(enumerate_partitions(m)))
    for call in calls:
        with pytest.raises(ValueError, match="mask must be an integer"):
            call(mask)


def test_numpy_integer_masks_act_as_ints():
    assert bit_indices(np.int64(6)) == [1, 2]
    subsets = list(enumerate_subsets(np.uint8(5)))
    assert subsets == [0, 1, 4, 5] and all(type(m) is int for m in subsets)
    assert list(enumerate_partitions(np.int64(7))) == list(enumerate_partitions(7))
