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
subset.  The correlated coefficients are one per-site triangular transform
of x, and the cumulant coefficients follow the moment-cumulant recursion
over subsets; the matrices of all parts of one subset size are then formed
from their 3**k trace-free coefficients, one GEMM a site for the batch.
The checks stay in matrix space and share nothing with that route.  Both
reconstructions work on the pair-digit vectors of `density._pair_digits`,
where each site's (row, column) bits form one base-4 digit.  Held as
N-site grids with size-1 axes off their sites, parts on disjoint subsets
multiply by broadcasting, and the product already lands in site order.
`reconstruct` sums the power set as one depth-first recursion over the
sites: 2**N - 1 steps of about 5**N operations in all, not 2**N - N
full-size Kronecker products.  `cumulant_reconstruct` enumerates the B_N
set partitions once and files each under its first block A, which holds
site 0: the rest of the group's partitions are every partition of S - A
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


def _support(k: int, mask: int) -> tuple:
    """Index of the codes of a k-site grid whose support is exactly `mask`.

    Sites outside the mask keep a size-1 axis, so blocks on disjoint
    supports multiply by broadcasting.
    """
    return tuple(
        slice(1, None) if mask >> (k - 1 - p) & 1 else slice(0, 1) for p in range(k)
    )


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


def _cumulant_blocks(grid: np.ndarray) -> dict[int, np.ndarray]:
    """Cumulant coefficients kappa(T) on the codes of support exactly T.

    Every nonempty T of the grid's sites, by the moment-cumulant recursion
    grouped by the block that holds the lowest site:

        kappa(T) = x(T) - sum_{A contains min T, A != T} kappa(A) x(T - A)

    kappa of one site is its Bloch vector.
    """
    k = grid.ndim
    full = (1 << k) - 1
    x = {t: grid[_support(k, t)] for t in enumerate_subsets(full)}
    kappa: dict[int, np.ndarray] = {}
    for t in enumerate_subsets(full):
        if not t:
            continue
        low = t & -t
        rest = t ^ low
        out = x[t].copy()
        for a in enumerate_subsets(rest):
            if a != rest:
                out -= kappa[low | a] * x[rest ^ a]
        kappa[t] = out
    return kappa


def _part_matrices(blocks: Sequence[np.ndarray], k: int) -> np.ndarray:
    """Matrices of k-site parts from their full-support coefficients.

    One transform builds the whole (len(blocks), 2**k, 2**k) stack.  A part
    of k >= 2 sites is trace-free on every site, so its 3**k coefficients go
    straight through the 4x3 trace-free columns of the per-site map.
    """
    coeffs = np.stack([b.reshape(-1) for b in blocks], -1)
    if k == 1:
        # a single cell's part is its reduced matrix, the only one with a trace
        return operator_matrix(np.vstack([np.ones(len(blocks)), coeffs]))
    return _from_pair_digits(pauli._apply_site_map(coeffs, _B_BUILD[:, 1:]) / 2**k, k)


def _parts_by_size(blocks: Mapping[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Matrix of every part keyed by mask, from one transform per subset size."""
    by_size: dict[int, list[int]] = {}
    for mask in blocks:
        by_size.setdefault(mask.bit_count(), []).append(mask)
    mats = {}
    for k, masks in by_size.items():
        mats.update(zip(masks, _part_matrices([blocks[m] for m in masks], k)))
    return {mask: mats[mask] for mask in blocks}


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
    return _part_matrices([c[(slice(1, None),) * k]], k)[0]


def correlated_parts(rho: DensityMatrix) -> dict[int, np.ndarray]:
    """rho^C for every subset with >= 2 cells, keyed by mask."""
    admit(rho.n_sites, ["decompose"])
    n = rho.n_sites
    full = (1 << n) - 1
    c = _correlated_grid(_state_grid(rho, full))
    blocks = {
        mask: c[_support(n, mask)]
        for mask in enumerate_subsets(full)
        if mask.bit_count() >= 2
    }
    return _parts_by_size(blocks)


def cumulant_part(rho: DensityMatrix, subset: int) -> np.ndarray:
    """rho^CC of a nonempty subset, via the moment-cumulant recursion."""
    subset = check_mask(subset)
    if subset == 0:
        raise ValueError("cumulant component of the empty set is undefined")
    if subset >> rho.n_sites:
        raise ValueError("subset references sites beyond the system")
    k = subset.bit_count()
    kappa = _cumulant_blocks(_state_grid(rho, subset))
    return _part_matrices([kappa[(1 << k) - 1]], k)[0]


def cumulant_parts(rho: DensityMatrix) -> dict[int, np.ndarray]:
    """rho^CC for every nonempty subset, keyed by mask."""
    admit(rho.n_sites, ["decompose"])
    full = (1 << rho.n_sites) - 1
    kappa = _cumulant_blocks(_state_grid(rho, full))
    blocks = {mask: kappa[mask] for mask in enumerate_subsets(full) if mask}
    return _parts_by_size(blocks)


def max_trace_defect(parts: Mapping[int, np.ndarray]) -> float:
    """Largest |entry| left after tracing any single cell out of any rho^C.

    The parts of one subset size are stacked and reshaped once, to a batch
    axis and one (row, column) axis pair per cell, and each cell is traced
    out over its own pair for the whole stack.  No parts give 0.  A key
    that is not a mask (`check_mask`) of at least 2 sites is refused, and
    so is a part of a k-site subset that is not 2**k x 2**k, naming it.
    """
    by_size: dict[int, list[np.ndarray]] = {}
    for mask, matrix in parts.items():
        mask = check_mask(mask)
        if mask.bit_count() < 2:
            raise ValueError(f"the {_part_name(mask, 'correlated')} has fewer than 2 sites")
        _check_shape(mask, matrix, "correlated")
        by_size.setdefault(mask.bit_count(), []).append(matrix)
    worst = 0.0
    for n, mats in by_size.items():
        w = np.stack(mats).reshape((len(mats),) + (2,) * (2 * n))
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
    the one holding site 0.  The other blocks never hold site 0, so their
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
        term = 1.0
        for b in p[1:]:
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
