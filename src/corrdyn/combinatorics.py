"""Subset and set-partition enumeration over bitmask-encoded site sets.

Sets of cells are plain Python ints used as bitmasks (bit i set = site i is a
member), which keeps all set algebra O(1).  Masks are limited to MAX_BITS
sites, far beyond anything the dense machinery downstream can handle.  Every
mask argument passes `check_mask`: a bool or a non-integer is refused, and a
numpy integer becomes a Python int.
"""

from __future__ import annotations

import math
import operator
from typing import Iterator

MAX_BITS = 24


def as_int(value, what: str) -> int:
    """`value` as a Python int; a bool or a non-integer raises ValueError.

    numpy integers are converted with operator.index.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def check_mask(mask) -> int:
    """`mask` as an int in the supported MAX_BITS-bit range, else ValueError."""
    mask = as_int(mask, "mask")
    if mask < 0 or mask >= 1 << MAX_BITS:
        raise ValueError(f"mask {mask:#x} outside the supported {MAX_BITS}-bit range")
    return mask


def mask_of(sites) -> int:
    """Bitmask with the given site indices set."""
    mask = 0
    for s in sites:
        mask |= 1 << s
    return mask


def bit_indices(mask: int) -> list[int]:
    """Ascending list of site indices contained in the mask."""
    mask = check_mask(mask)
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def enumerate_subsets(mask: int) -> Iterator[int]:
    """Yield every submask of `mask` exactly once, in increasing-mask order.

    The empty set is yielded first and `mask` itself last; a mask with n bits
    produces 2**n submasks.
    """
    mask = check_mask(mask)
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        # next submask in increasing numeric order
        sub = (sub - mask) & mask


def enumerate_partitions(mask: int) -> Iterator[tuple[int, ...]]:
    """Yield every partition of the sites in `mask` exactly once, as a tuple
    of block masks ordered by their smallest site.

    Enumeration follows restricted-growth strings in lexicographic order, so
    the output order is canonical and duplicate-free by construction.  The
    number of partitions of an n-element set is the Bell number B_n.
    """
    sites = bit_indices(mask)
    n = len(sites)
    if n == 0:
        raise ValueError("cannot partition empty set")
    # a = restricted-growth string, m[k] = max(a[:k]) so a[k] may grow to m[k]+1
    a = [0] * n
    m = [0] * n
    while True:
        nblocks = max(a) + 1
        blocks = [0] * nblocks
        for k, s in enumerate(sites):
            blocks[a[k]] |= 1 << s
        yield tuple(blocks)
        k = n - 1
        while k > 0 and a[k] > m[k]:
            k -= 1
        # a[k] > m[k] can only fail the loop at k == 0
        if k == 0:
            return
        a[k] += 1
        mk = max(m[k], a[k])
        for j in range(k + 1, n):
            a[j] = 0
            m[j] = mk


def bell_number(n: int) -> int:
    """B_n, the number of partitions of an n-element set.

    From B_{m+1} = sum_k C(m, k) B_k: the block holding the last element
    leaves some k of the other m elements to be partitioned.  A negative or
    non-integer n raises ValueError.
    """
    if as_int(n, "n") < 0:
        raise ValueError(f"bell_number needs n >= 0, got {n}")
    b = [1]
    for m in range(n):
        b.append(sum(math.comb(m, k) * b[k] for k in range(m + 1)))
    return b[n]
