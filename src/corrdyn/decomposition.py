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
pair terms.  Components are stored on their own subset's Hilbert space;
products across disjoint subsets tensor-order sites ascending.

Both are computed on the Pauli coefficients x[c] = tr(rho P_c), where a
tensor product over disjoint subsets is a product of coefficients and both
kinds of part (beyond single cells) are supported on every site of their
subset.  The correlated coefficients are one per-site triangular transform
of x, and the cumulant coefficients follow the moment-cumulant recursion
over subsets; the matrices of all parts of one subset size are then formed
from their coefficients in one batched transform.  The checks stay in matrix
space and share nothing with that route.  `reconstruct` sums the power set
as one depth-first recursion over the sites, in the site-pair layout where
a tensor product with a matrix on a new highest site is an outer product of
flat arrays: 2**N - 1 steps of about 5**N operations in all, not 2**N - N
full-size Kronecker products.  One loop, `_sum_of_products`, forms and sums
the Kronecker products of `cumulant_reconstruct` over the B_N set
partitions.  They are grouped by their first block A, which holds site 0:
the rest of the group's partitions are every partition of S - A once,
summed on the space of S - A, so the group is one full-size product
rho^CC_A (x) rho_{S-A} and the full-size sum has 2**(N-1) terms, not B_N.
Terms that leave the sites in the same qubit order form one group of
`_sum_of_products`, put in ascending order once, by one gather of rows and
columns.  Both reconstructions refuse a part or reduced matrix of the wrong
shape, naming its subset or site.  `max_trace_defect` traces cells out of
all parts of one subset size at once.  The tests' reference sums dense
reduced matrices with `np.kron` chains and transposes, term by term: the
power set, and all B_N partitions at full size.
Every whole-state entry point refuses a state past
hierarchy.DECOMPOSE_WORK_CAP (hierarchy.admit) before it allocates anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

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
    CorrelatorVector,
    DensityMatrix,
    extract_correlators,
    operator_matrix,
)
from .hierarchy import admit

TRACE_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class CorrelatedPart:
    """Zero-trace correlated component of a subset (|subset| >= 2)."""

    subset: int
    matrix: np.ndarray


@dataclass(frozen=True)
class CumulantPart:
    """Cumulant component of a subset; equals the reduced matrix for one cell."""

    subset: int
    matrix: np.ndarray


def permute_sites(
    mat: np.ndarray, sites: list[int], buf: np.ndarray | None = None
) -> np.ndarray:
    """Reorder the qubits of `mat` from the given order to ascending order.

    `sites[k]` is the site living on qubit k (least-significant first) of the
    input matrix.  Rows and columns move by the same permutation of the 2**n
    basis states, applied as one gather along each axis.  The row gather
    goes into `buf` when it is given, so a caller permuting many matrices of
    one size reuses one intermediate.
    """
    n = len(sites)
    target = sorted(sites)
    # qubit position of each site, most-significant axis first
    src = [n - 1 - sites.index(s) for s in reversed(target)]
    rows = np.arange(2**n).reshape((2,) * n).transpose(src).reshape(-1)
    # the rows are a permutation, so "clip" never clips; under the default
    # "raise" numpy would gather into a temporary and then copy it to `buf`
    return np.take(mat, rows, 0, out=buf, mode="clip").take(rows, 1)


def _kron_chain(mats: Sequence[np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
    """Kronecker product of `mats`, the first on the least-significant qubits.

    The last factor is multiplied straight into `out` when it is given, so a
    caller summing many products of one size reuses one buffer.
    """
    mat = np.array([[1.0 + 0.0j]])
    for k, block in enumerate(mats, 1):
        # kron(block, mat) keeps the accumulated qubits on the low end
        d, e = len(block), len(mat)
        dest = out.reshape(d, e, d, e) if out is not None and k == len(mats) else None
        mat = np.multiply(block[:, None, :, None], mat[None, :, None, :], out=dest)
        mat = mat.reshape(d * e, d * e)
    return mat


def _sum_of_products(n_sites: int, groups: Iterable[tuple]) -> np.ndarray:
    """Sum over groups (order, terms) of Kronecker products on N sites.

    A group's terms, lists of blocks for `_kron_chain`, are formed in two
    reused buffers and summed; `order[k]` is the site on qubit k of each, and
    the sum is put in ascending order once, the term buffer its intermediate.
    """
    out = np.zeros((2**n_sites, 2**n_sites), dtype=complex)
    staged, term = np.empty_like(out), np.empty_like(out)
    for order, terms in groups:
        acc = _kron_chain(terms[0], staged)  # a fresh [[1]] for zero sites
        for blocks in terms[1:]:
            acc += _kron_chain(blocks, term)
        out += permute_sites(acc, list(order), term)
    return out


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

    One transform builds the whole (len(blocks), 2**k, 2**k) stack.
    """
    coeffs = np.zeros((4,) * k + (len(blocks),))
    coeffs[(slice(1, None),) * k] = np.stack([b.reshape((3,) * k) for b in blocks], -1)
    # a single cell's part is its reduced matrix, the only one with a trace
    coeffs[(0,) * k] = 1.0 if k == 1 else 0.0
    return operator_matrix(coeffs.reshape(4**k, len(blocks)))


def _parts_by_size(blocks: Mapping[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Matrix of every part keyed by mask, from one transform per subset size."""
    by_size: dict[int, list[int]] = {}
    for mask in blocks:
        by_size.setdefault(mask.bit_count(), []).append(mask)
    mats = {}
    for k, masks in by_size.items():
        mats.update(zip(masks, _part_matrices([blocks[m] for m in masks], k)))
    return {mask: mats[mask] for mask in blocks}


def correlated_part(rho: DensityMatrix, subset: int) -> CorrelatedPart:
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
    return CorrelatedPart(subset, _part_matrices([c[(slice(1, None),) * k]], k)[0])


def correlated_parts(rho: DensityMatrix) -> dict[int, CorrelatedPart]:
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
    return {mask: CorrelatedPart(mask, m) for mask, m in _parts_by_size(blocks).items()}


def cumulant_part(rho: DensityMatrix, subset: int) -> CumulantPart:
    """rho^CC of a nonempty subset, via the moment-cumulant recursion."""
    subset = check_mask(subset)
    if subset == 0:
        raise ValueError("cumulant component of the empty set is undefined")
    if subset >> rho.n_sites:
        raise ValueError("subset references sites beyond the system")
    k = subset.bit_count()
    kappa = _cumulant_blocks(_state_grid(rho, subset))
    return CumulantPart(subset, _part_matrices([kappa[(1 << k) - 1]], k)[0])


def cumulant_parts(rho: DensityMatrix) -> dict[int, CumulantPart]:
    """rho^CC for every nonempty subset, keyed by mask."""
    admit(rho.n_sites, ["decompose"])
    full = (1 << rho.n_sites) - 1
    kappa = _cumulant_blocks(_state_grid(rho, full))
    blocks = {mask: kappa[mask] for mask in enumerate_subsets(full) if mask}
    return {mask: CumulantPart(mask, m) for mask, m in _parts_by_size(blocks).items()}


def max_trace_defect(parts: Iterable[CorrelatedPart]) -> float:
    """Largest |entry| left after tracing any single cell out of any rho^C.

    The parts of one subset size are stacked and reshaped once, to a batch
    axis and one (row, column) axis pair per cell, and each cell is traced
    out over its own pair for the whole stack.  No parts give 0.
    """
    by_size: dict[int, list[np.ndarray]] = {}
    for part in parts:
        by_size.setdefault(part.subset.bit_count(), []).append(part.matrix)
    worst = 0.0
    for n, mats in by_size.items():
        w = np.stack(mats).reshape((len(mats),) + (2,) * (2 * n))
        for p in range(n):
            worst = max(worst, float(np.max(np.abs(np.trace(w, 0, 1 + p, 1 + n + p)))))
    return worst


def _check_parts(parts: Mapping[int, object], n_sites: int, least: int, kind: str) -> None:
    """Refuse any key but a subset of >= `least` of the N sites, and any part
    of a k-site subset that is not 2**k x 2**k; name any missing subset."""
    if any(as_int(m, f"{kind} part key") >> n_sites or m.bit_count() < least for m in parts):
        raise ValueError(f"{kind} parts inconsistent with site count")

    def subset(mask: int) -> str:
        return f"{kind} part of subset {{{','.join(map(str, bit_indices(mask)))}}}"

    for mask in range(1 << n_sites):
        dim = 2 ** mask.bit_count()
        if mask.bit_count() >= least and mask not in parts:
            raise ValueError(f"missing the {subset(mask)}")
        if mask in parts and np.shape(parts[mask].matrix) != (dim, dim):
            raise ValueError(f"the {subset(mask)} is not {dim}x{dim}")


def _pair_layout(mat: np.ndarray, k: int) -> np.ndarray:
    """The 4**k entries of a k-site matrix in the site-pair layout, flat.

    They form a (4,)*k grid whose axis p holds the (row, column) bits of
    site k-1-p, so a product with a matrix on a new highest site is an outer
    product of the flat arrays.
    """
    w = np.reshape(mat, (2,) * (2 * k))
    return w.transpose([a for p in range(k) for a in (p, k + p)]).reshape(-1)


def reconstruct(
    n_sites: int,
    singles: Mapping[int, np.ndarray],
    parts: Mapping[int, CorrelatedPart],
) -> DensityMatrix:
    """Reassemble rho from single-cell reduced matrices and all rho^C.

    The power-set sum rho = sum_A (prod_{j not in A} rbar_j) rho^C_A is one
    depth-first recursion over the sites, highest first, in the site-pair
    layout (`_pair_layout`).  For U a set of sites >= k, let

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
    rbar = [_pair_layout(singles[j], 1)[:, None] for j in range(n_sites)]
    one = np.ones(1, dtype=complex)

    def total(k: int, upper: int) -> np.ndarray | None:
        # R(k, upper) on the k lowest sites and `upper`; None when it is 0
        if k == 0:
            if upper.bit_count() == 1:
                return None
            return _pair_layout(parts[upper].matrix, upper.bit_count()) if upper else one
        # the larger term first: holding the smaller one instead at every level
        # of the recursion raises the traced peak at N=7 from 0.92 to 1.25 MB
        high = total(k - 1, upper | 1 << (k - 1))
        low = total(k - 1, upper)
        if low is None:
            return high
        out = (low.reshape(4 ** upper.bit_count(), 1, -1) * rbar[k - 1]).reshape(-1)
        if high is not None:
            out += high
        return out

    n = n_sites
    # one expression, so the sum in the site-pair layout is freed before the check
    order = [*range(0, 2 * n, 2), *range(1, 2 * n, 2)]  # row bits, then column bits
    return DensityMatrix(n, total(n, 0).reshape((2,) * (2 * n)).transpose(order).reshape(2**n, -1))


def cumulant_reconstruct(
    n_sites: int, parts: Mapping[int, CumulantPart]
) -> DensityMatrix:
    """Reassemble rho as the sum over all B_N partitions of cumulant products.

    Each of the B_N partitions is enumerated once and filed under its first
    block A, the one holding site 0.  The other blocks of the partitions in
    group A run once through every partition of S - A, so by the distributive
    law the group sums to rho^CC_A (x) rho_{S-A}, where rho_{S-A} is the sum
    of their products on the 2**(N-|A|)-row space of S - A ([[1]] for A = S).
    Both sums, of the tails within a group and of the 2**(N-1) group terms
    at full size, gather the terms that leave the sites in the same qubit
    order and permute them to ascending order once; at full size only the
    N first blocks {0}, {0, 1}, ..., S share an order, the ascending one.
    Every nonempty subset needs a part.
    """
    admit(n_sites, ["decompose"])
    _check_parts(parts, n_sites, 1, "cumulant")
    full = (1 << n_sites) - 1
    sites = {b: tuple(bit_indices(b)) for b in range(full + 1)}
    mats = {b: parts[b].matrix for b in range(1, full + 1)}
    # first block -> qubit order of the tail -> the tails' block matrices
    groups: dict[int, dict[tuple[int, ...], list[list[np.ndarray]]]] = {}
    for p in enumerate_partitions(full):
        head, tail = p.blocks[0], p.blocks[1:]
        order = sum((sites[b] for b in tail), ())
        groups.setdefault(head, {}).setdefault(order, []).append([mats[b] for b in tail])

    # qubit order -> [rho^CC_A, rho_{S-A}] of the first blocks A leaving it
    terms: dict[tuple[int, ...], list[list[np.ndarray]]] = {}
    for head, tails in groups.items():
        rest = _sum_of_products(n_sites - head.bit_count(), tails.items())
        terms.setdefault(sites[head] + sites[full ^ head], []).append([mats[head], rest])
    return DensityMatrix(n_sites, _sum_of_products(n_sites, terms.items()))


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
