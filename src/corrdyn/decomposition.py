"""Correlated and cumulant components of partitioned density matrices.

A subset A of cells carries two natural "interaction parts" of the state:

* the correlated component rho^C_A, fixed uniquely by the expansion

      rho = sum_{A subset S} (prod_{j not in A} rbar_j) rho^C_A

  together with the requirement that tracing any single cell out of rho^C_A
  gives zero (conventions: rho^C of the empty set is 1, of a single cell 0);

* the cumulant component rho^CC_A, defined through the partition expansion

      rho = sum_{partitions p of S} prod_{B in p} rho^CC_B,

  with rho^CC of a single cell equal to its reduced matrix.

Both coincide for |A| in {2, 3} and differ from order 4 on by products of
pair terms.  Each component is a plain 2**k x 2**k matrix on its own
subset's Hilbert space, and every collection of them a dict keyed by subset
mask, masks ascending; products across disjoint subsets tensor-order sites
ascending.

Both are computed on the Pauli coefficients x[c] = tr(rho P_c), where a
tensor product over disjoint subsets is a product of coefficients and both
kinds of part (beyond single cells) are supported on every site of their
subset.  The route works one subset size t at a time, on (C(N, t), 3**t)
stacks of full-support coefficients, one gather each: the correlated
coefficients are one per-site triangular transform of x, the cumulant
coefficients the moment-cumulant recursion batched per size
(`_cumulants`), and each stack becomes the matrices of its parts from
their 3**k trace-free coefficients, one GEMM a site for the batch.
The checks stay in matrix space and share nothing with that route.  Both
reconstructions work on the pair-digit vectors of `density._pair_digits`,
where each site's (row, column) bits form one base-4 digit.  Held as
N-site grids with size-1 axes off their sites, parts on disjoint subsets
multiply by broadcasting, and the product already lands in site order.
`reconstruct` sums the power set as one depth-first recursion over the
sites: 2**N - 1 steps of about 5**N operations in all, not 2**N - N
full-size Kronecker products.  `cumulant_reconstruct` enumerates the B_N
set partitions once (`enumerate_partitions`, whose block masks move in
place as its restricted-growth string advances) and files each under its
first block A, which holds site 0: the rest of the group's partitions are
every partition of S - A
once, summed on the sites of S - A, so the group is one full-size product
rho^CC_A (x) rho_{S-A} and the full-size sum has 2**(N-1) terms, not B_N.
Both reconstructions refuse a part or reduced matrix of the wrong shape,
naming its subset or site, and so does `max_trace_defect`, which takes the
same mapping, checks its keys, and traces cells out of all parts of one
subset size at once.  The tests' reference
sums dense reduced matrices with `np.kron` chains and transposes, term by
term: the power set, and all B_N partitions at full size.
Every whole-state entry point refuses a state past
hierarchy.DECOMPOSE_WORK_CAP (hierarchy.admit) before it allocates anything.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from . import pauli
from .combinatorics import (
    as_int,
    bit_indices,
    check_mask,
    enumerate_partitions,
    enumerate_subsets,
    mask_of,
)
from .density import (
    _B_BUILD,
    CorrelatorVector,
    DensityMatrix,
    _from_pair_digits,
    _pair_digits,
    extract_correlators,
    operator_matrix,
)
from .hierarchy import admit

TRACE_ZERO_TOL = 1e-12


def _marginal(values: np.ndarray, n_sites: int, subset: int) -> np.ndarray:
    """Pauli coefficients of the reduced state on `subset`, as a (4,)*k grid.

    They are the entries of `values` whose string is supported in `subset`.
    Axis p carries the digit of the subset's (k-1-p)-th site, so the grid is
    the subset's own 4**k coefficient vector reshaped.
    """
    idx = tuple(
        slice(None) if subset >> (n_sites - 1 - p) & 1 else 0 for p in range(n_sites)
    )
    return np.asarray(values).reshape((4,) * n_sites)[idx]


def _state_grid(rho: DensityMatrix, subset: int) -> np.ndarray:
    return _marginal(extract_correlators(rho).values, rho.n_sites, subset)


def _subset_tables(n: int) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """The subsets of n sites grouped by size, from numpy integer ops.

    masks[t] holds the masks of the t-site subsets ascending, sites[t] the
    sites of each, ascending, one row a subset, and rank[mask] is a mask's
    place in its size's list.
    """
    every = np.arange(1 << n)
    size = np.bitwise_count(every)
    order = np.argsort(size, kind="stable")
    counts = np.bincount(size, minlength=n + 1)
    ends = np.cumsum(counts)
    rank = np.empty(1 << n, dtype=np.intp)
    rank[order] = every - np.repeat(ends - counts, counts)
    masks = np.split(order, ends[:-1])
    bits = every[:, None] >> np.arange(n) & 1
    sites = [np.nonzero(bits[m])[1].reshape(len(m), t) for t, m in enumerate(masks)]
    return masks, sites, rank


def _full_support(values: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """Coefficients of the strings whose support is exactly each subset.

    `values` is a flat 4**N coefficient vector, site j's digit at 4**j, and
    `sites` one row of t sites per subset.  Row i of the (rows, 3**t) result
    is subset i's own grid of digits 1..3, its p-th lowest site at 3**p: one
    gather for the whole stack.
    """
    t = sites.shape[1]
    digits = np.arange(3**t)[:, None] // 3 ** np.arange(t) % 3 + 1
    return values[4**sites @ digits.T]


def _correlated_grid(grid: np.ndarray) -> np.ndarray:
    """Correlated coefficients c = (prod_j L_j^-1) x of a coefficient grid.

    L_j adds r_j^a times the digit-0 entry to digit a of site j, which is
    the tensor factor rbar_j of the expansion; its inverse is one in-place
    update per site.  Single-site entries come out exactly 0.
    """
    c = np.array(grid, dtype=float, copy=True)
    k = c.ndim
    for p in range(k):
        tail = k - 1 - p
        r = grid[(0,) * p + (slice(1, None),) + (0,) * tail].reshape((3,) + (1,) * tail)
        head = (slice(None),) * p
        c[head + (slice(1, None),)] -= r * c[head + (slice(0, 1),)]
    return c


def _cumulants(x: list[np.ndarray], sites: list[np.ndarray], rank: np.ndarray) -> list:
    """Cumulant coefficients kappa(T) of every nonempty subset T, per size.

    x[t] is the `_full_support` stack of the t-site subsets, and kappa
    comes in the same layout (None for size 0).  The moment-cumulant
    recursion, grouped by the block A that holds the lowest site of T,

        kappa(T) = x(T) - sum_{A contains min T, A != T} kappa(A) x(T - A),

    runs for all t-site subsets at once: a relative pattern names which of
    T's other t-1 sites A holds, and each of the 2**(t-1) - 1 patterns is
    one gathered broadcast product and one subtraction for the stack.  The
    patterns ascend as A's masks do within each T, the order of the
    per-subset loop, so each bit is that loop's.  kappa of one site is its
    Bloch vector.
    """
    kappa = [None, x[1]]
    for t in range(2, len(x)):
        rows = len(x[t])
        # in_a[r, p]: A holds T's p-th lowest site under pattern r
        in_a = (np.arange(2 ** (t - 1) - 1)[:, None] << 1 | 1) >> np.arange(t) & 1
        site_bits = 1 << sites[t].T
        first, rest = rank[in_a @ site_bits], rank[(1 - in_a) @ site_bits]
        out = x[t].reshape((rows,) + (3,) * t).copy()
        for pattern, a, b in zip(in_a[:, ::-1].tolist(), first, rest):
            k = sum(pattern)
            ka = kappa[k][a].reshape([rows] + [3 if d else 1 for d in pattern])
            xb = x[t - k][b].reshape([rows] + [1 if d else 3 for d in pattern])
            out -= ka * xb
        kappa.append(out.reshape(rows, -1))
    return kappa


def _part_matrices(stack: np.ndarray, k: int) -> np.ndarray:
    """Matrices of k-site parts from a (parts, 3**k) stack of their
    full-support coefficients.

    One transform builds the whole (parts, 2**k, 2**k) stack.  A part of
    k >= 2 sites is trace-free on every site, so its 3**k coefficients go
    straight through the 4x3 trace-free columns of the per-site map.
    """
    if k == 1:
        # a single cell's part is its reduced matrix, the only one with a trace
        return operator_matrix(np.vstack([np.ones(len(stack)), stack.T]))
    return _from_pair_digits(pauli._apply_site_map(stack.T, _B_BUILD[:, 1:]) / 2**k, k)


def _parts_by_mask(
    n: int, masks: list[np.ndarray], stacks: Mapping[int, np.ndarray]
) -> dict[int, np.ndarray]:
    """Matrix of every part keyed by mask ascending, one transform per size."""
    mats = {}
    for k, stack in stacks.items():
        mats.update(zip(masks[k].tolist(), _part_matrices(stack, k)))
    return {m: mats[m] for m in enumerate_subsets((1 << n) - 1) if m in mats}


def correlated_part(rho: DensityMatrix, subset: int) -> np.ndarray:
    """rho^C of a subset with at least two cells.

    The single-cell component is identically zero by convention and is an
    error here so that callers handle it explicitly.
    """
    subset = check_mask(subset)
    if subset.bit_count() < 2:
        raise ValueError("correlated component needs a subset of >= 2 cells")
    if subset >> rho.n_sites:
        raise ValueError("subset references sites beyond the system")
    k = subset.bit_count()
    c = _correlated_grid(_state_grid(rho, subset))
    return _part_matrices(c[(slice(1, None),) * k].reshape(1, -1), k)[0]


def correlated_parts(rho: DensityMatrix) -> dict[int, np.ndarray]:
    """rho^C for every subset with >= 2 cells, keyed by mask."""
    admit(rho.n_sites, ["decompose"])
    n = rho.n_sites
    masks, sites, _ = _subset_tables(n)
    c = _correlated_grid(_state_grid(rho, (1 << n) - 1)).reshape(-1)
    return _parts_by_mask(n, masks, {t: _full_support(c, sites[t]) for t in range(2, n + 1)})


def _cumulant_stacks(values: np.ndarray, n: int) -> tuple[list[np.ndarray], list]:
    """The subset masks per size (`_subset_tables`) of an n-site coefficient
    vector, and the `_cumulants` of its subsets."""
    masks, sites, rank = _subset_tables(n)
    return masks, _cumulants([_full_support(values, s) for s in sites], sites, rank)


def cumulant_part(rho: DensityMatrix, subset: int) -> np.ndarray:
    """rho^CC of a nonempty subset, via the moment-cumulant recursion."""
    subset = check_mask(subset)
    if subset == 0:
        raise ValueError("cumulant component of the empty set is undefined")
    if subset >> rho.n_sites:
        raise ValueError("subset references sites beyond the system")
    k = subset.bit_count()
    _, kappa = _cumulant_stacks(_state_grid(rho, subset).reshape(-1), k)
    return _part_matrices(kappa[k], k)[0]


def cumulant_parts(rho: DensityMatrix) -> dict[int, np.ndarray]:
    """rho^CC for every nonempty subset, keyed by mask."""
    admit(rho.n_sites, ["decompose"])
    n = rho.n_sites
    masks, kappa = _cumulant_stacks(extract_correlators(rho).values, n)
    return _parts_by_mask(n, masks, {t: kappa[t] for t in range(1, n + 1)})


def max_trace_defect(parts: Mapping[int, np.ndarray]) -> float:
    """Largest |entry| left after tracing any single cell out of any rho^C.

    The parts of one subset size are stacked and reshaped once, to a batch
    axis and one (row, column) axis pair per cell, and each cell is traced
    out over its own pair for the whole stack.  No parts give 0.  A key
    that is not a mask (`check_mask`) of at least 2 sites is refused, and
    so is a part of a k-site subset that is not 2**k x 2**k, or one with a
    non-finite entry, naming it: a NaN would drop out of the max.
    """
    by_size: dict[int, dict[int, np.ndarray]] = {}
    for mask, matrix in parts.items():
        mask = check_mask(mask)
        if mask.bit_count() < 2:
            raise ValueError(f"the {_part_name(mask, 'correlated')} has fewer than 2 sites")
        _check_shape(mask, matrix, "correlated")
        by_size.setdefault(mask.bit_count(), {})[mask] = matrix
    worst = 0.0
    for n, mats in by_size.items():
        w = np.stack(list(mats.values()))
        finite = np.isfinite(w).reshape(len(w), -1).all(axis=1)
        if not finite.all():
            bad = list(mats)[int(np.argmin(finite))]
            raise ValueError(f"the {_part_name(bad, 'correlated')} is not finite")
        w = w.reshape((len(mats),) + (2,) * (2 * n))
        for p in range(n):
            worst = max(worst, float(np.max(np.abs(np.trace(w, 0, 1 + p, 1 + n + p)))))
    return worst


def _part_name(mask: int, kind: str) -> str:
    return f"{kind} part of subset {{{','.join(map(str, bit_indices(mask)))}}}"


def _check_shape(mask: int, matrix: object, kind: str) -> None:
    """Refuse the part of a k-site subset unless it is 2**k x 2**k."""
    dim = 2 ** mask.bit_count()
    if np.shape(matrix) != (dim, dim):
        raise ValueError(f"the {_part_name(mask, kind)} is not {dim}x{dim}")


def _check_parts(parts: Mapping[int, np.ndarray], n_sites: int, least: int, kind: str) -> None:
    """Refuse any key but a subset of >= `least` of the N sites, and any part
    of a k-site subset that is not 2**k x 2**k; name any missing subset."""
    if any(as_int(m, f"{kind} part key") >> n_sites or m.bit_count() < least for m in parts):
        raise ValueError(f"{kind} parts inconsistent with site count")
    for mask in range(1 << n_sites):
        if mask.bit_count() >= least and mask not in parts:
            raise ValueError(f"missing the {_part_name(mask, kind)}")
        if mask in parts:
            _check_shape(mask, parts[mask], kind)


def _power_set_sum(
    k: int, upper: int, rbar: Sequence[np.ndarray], parts: Mapping[int, np.ndarray]
) -> np.ndarray | None:
    """R(k, upper) of `reconstruct` on the k lowest sites and `upper`, as a
    pair-digit vector; None when it is 0."""
    if k == 0:
        if upper.bit_count() == 1:
            return None
        return _pair_digits(parts[upper]) if upper else np.ones(1, dtype=complex)
    # the larger term first: holding the smaller one instead at every level
    # of the recursion raises the traced peak at N=7 from 0.92 to 1.25 MB
    high = _power_set_sum(k - 1, upper | 1 << (k - 1), rbar, parts)
    low = _power_set_sum(k - 1, upper, rbar, parts)
    if low is None:
        return high
    out = (low.reshape(4 ** upper.bit_count(), 1, -1) * rbar[k - 1]).reshape(-1)
    if high is not None:
        out += high
    return out


def reconstruct(
    n_sites: int,
    singles: Mapping[int, np.ndarray],
    parts: Mapping[int, np.ndarray],
) -> DensityMatrix:
    """Reassemble rho from single-cell reduced matrices and all rho^C.

    The power-set sum rho = sum_A (prod_{j not in A} rbar_j) rho^C_A is one
    depth-first recursion over the sites, highest first (`_power_set_sum`),
    on pair-digit vectors (`density._pair_digits`), where a product with a
    matrix on a new highest site is an outer product.  For U a set of
    sites >= k, let

        R(k, U) = sum_{B subset {0..k-1}} (prod_{j < k, j not in B} rbar_j) rho^C_{U+B},

    so that rho = R(N, {}), R(0, U) = rho^C_U (1 for the empty set, 0 for a
    single cell, which is skipped), and, splitting on whether B holds k-1,

        R(k, U) = rbar_{k-1} (x) R(k-1, U) + R(k-1, U + {k-1}).

    Each part is read once, and the 2**N - 1 outer-product sums take about
    5**N operations in all; the result is put back in matrix order once.
    Every subset of two or more sites needs a part, and every part and
    reduced matrix its own subset's shape.
    """
    admit(n_sites, ["decompose"])
    if set(singles) != set(range(n_sites)):
        raise ValueError("need exactly one reduced matrix per site")
    for j in range(n_sites):
        if np.shape(singles[j]) != (2, 2):
            raise ValueError(f"the reduced matrix of site {j} is not 2x2")
    _check_parts(parts, n_sites, 2, "correlated")
    rbar = [_pair_digits(singles[j])[:, None] for j in range(n_sites)]
    # one expression, so the pair-digit sum is freed before the check
    return DensityMatrix(
        n_sites, _from_pair_digits(_power_set_sum(n_sites, 0, rbar, parts), n_sites)
    )


def _grid_shape(n_sites: int, mask: int) -> list[int]:
    """Shape of a part on `mask` as an N-site pair-digit grid.

    Axis p holds the pair digit of site N-1-p and has size 1 off the mask,
    so grids on disjoint subsets multiply by broadcasting, in site order.
    """
    return [4 if mask >> (n_sites - 1 - p) & 1 else 1 for p in range(n_sites)]


def cumulant_reconstruct(
    n_sites: int, parts: Mapping[int, np.ndarray]
) -> DensityMatrix:
    """Reassemble rho as the sum over all B_N partitions of cumulant products.

    Every part enters as an N-site pair-digit grid (`_grid_shape`), so a
    product of blocks is one broadcast multiply that lands in site order.
    Each of the B_N partitions is enumerated once, and the product of its
    blocks after the first is added into rho_{S-A} of its first block A,
    the one holding site 0: it starts from the second block's grid, and the
    one-block partition adds 1.  The other blocks never hold site 0, so their
    2**(N-1) - 1 grids are formed once, up front.  By the distributive law
    rho is the sum of the 2**(N-1) full-size products rho^CC_A (x) rho_{S-A},
    each A's grid formed where it is used, put in matrix order once.  Every
    nonempty subset needs a part.
    """
    admit(n_sites, ["decompose"])
    _check_parts(parts, n_sites, 1, "cumulant")
    n, full = n_sites, (1 << n_sites) - 1
    tails = {
        b: _pair_digits(parts[b]).reshape(_grid_shape(n, b))
        for b in range(2, full + 1, 2)
    }
    rests = {a: np.zeros(_grid_shape(n, full ^ a), complex) for a in range(1, full + 1, 2)}
    for p in enumerate_partitions(full):
        if len(p) == 1:
            rests[full] += 1  # the one-block partition: rho_{S-S} = 1
            continue
        term = tails[p[1]]
        for b in p[2:]:
            term = term * tails[b]
        rests[p[0]] += term
    out = np.zeros((4,) * n, dtype=complex)
    for a, rest in rests.items():
        out += _pair_digits(parts[a]).reshape(_grid_shape(n, a)) * rest
    return DensityMatrix(n, _from_pair_digits(out.reshape(-1), n))


def _connected(v: CorrelatorVector, axes: dict[int, str]) -> float:
    """Entry of rho^C over the sites of `axes` at the string they name."""
    code = pauli.PauliString.from_axes(v.n_sites, axes).code
    c = _correlated_grid(_marginal(v.values, v.n_sites, mask_of(axes)))
    return float(c[tuple(pauli.digit(code, s) for s in sorted(axes, reverse=True))])


def connected_pair(v: CorrelatorVector, i: int, j: int, mu: str, nu: str) -> float:
    """<<s_i^mu s_j^nu>> = <s_i^mu s_j^nu> - <s_i^mu><s_j^nu>."""
    if i == j:
        raise ValueError("connected pair needs two distinct sites")
    return _connected(v, {i: mu, j: nu})


def connected_triple(
    v: CorrelatorVector, sites: tuple[int, int, int], axes: tuple[str, str, str]
) -> float:
    """Third-order connected correlator of three distinct single-site operators.

    Equals the three-point coefficient of rho^C over the three cells:
    <abc> - sum_cyc <a><<bc>> - <a><b><c>.
    """
    if len(set(sites)) != 3 or len(sites) != 3:
        raise ValueError("connected triple needs three distinct sites")
    if len(axes) != 3:
        raise ValueError("connected triple needs one axis per site")
    return _connected(v, dict(zip(sites, axes)))
