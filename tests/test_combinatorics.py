import numpy as np
import pytest
from hypothesis import given, strategies as st

from corrdyn.combinatorics import (
    MAX_BITS,
    Partition,
    bell_number,
    bit_indices,
    enumerate_partitions,
    enumerate_subsets,
    mask_of,
)


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
        for b in p.blocks:
            assert b != 0
            assert b & union == 0
            union |= b
        assert union == mask
        # canonical order: blocks sorted by smallest element
        lows = [b & -b for b in p.blocks]
        assert lows == sorted(lows)
        assert p.blocks not in seen
        seen.add(p.blocks)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((0b11, 0b10))  # overlapping
    with pytest.raises(ValueError):
        Partition((0b10, 0b01))  # not sorted by smallest element
    with pytest.raises(ValueError):
        Partition((0b01, 0))  # empty block


@pytest.mark.parametrize(
    "blocks", [(True, 2), (np.True_,), (1.5,), ("1",), (None,), (-1,), (1, -2)], ids=repr
)
def test_partition_refuses_blocks_that_are_not_positive_integers(blocks):
    with pytest.raises(ValueError, match="partition block"):
        Partition(blocks)


def test_partition_stores_numpy_integer_blocks_as_ints():
    p = Partition((np.int64(1), np.uint8(6)))
    assert p == Partition((1, 6)) and hash(p) == hash(Partition((1, 6)))
    assert all(type(b) is int for b in p.blocks)


def test_partition_stores_its_blocks_as_a_tuple():
    for blocks in ([1, 6], iter([1, 6]), [np.int64(1), 6]):
        p = Partition(blocks)
        assert type(p.blocks) is tuple and p.blocks == (1, 6)
        assert p == Partition((1, 6)) and hash(p) == hash(Partition((1, 6)))


@pytest.mark.parametrize("blocks", [5, None, 1.5, np.int64(3)], ids=repr)
def test_partition_refuses_blocks_that_are_not_iterable(blocks):
    with pytest.raises(ValueError, match="partition blocks must be an iterable"):
        Partition(blocks)


@pytest.mark.parametrize(
    "blocks", [(1 << MAX_BITS,), (1, 1 << 40), (np.int64(1 << 40),)], ids=repr
)
def test_partition_refuses_a_block_past_max_bits(blocks):
    with pytest.raises(ValueError, match="partition block"):
        Partition(blocks)
    assert Partition(((1 << MAX_BITS) - 1,)).blocks == ((1 << MAX_BITS) - 1,)


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
    expected = [p.blocks for p in enumerate_partitions(7)]
    assert [p.blocks for p in enumerate_partitions(np.int64(7))] == expected
