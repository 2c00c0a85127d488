"""Matrix-space reference for the correlated and cumulant decompositions.

The slow path that `corrdyn.decomposition` replaced: every part is a sum
over subsets (rho^C) or set partitions (rho^CC) of Kronecker products of
reduced 2**k x 2**k matrices.  The tests compare the correlator-basis route
against it entry by entry at small N, and `corrdyn.decomposition.reconstruct`
against its power-set sum, bit for bit where the inputs make every sum
exact.  Its Kronecker products are an
`np.kron` chain and its qubit reorders one 2N-axis transpose, so these sums
share no helper with `corrdyn.decomposition`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from corrdyn import decomposition
from corrdyn.combinatorics import bit_indices, enumerate_partitions, enumerate_subsets
from corrdyn.density import _B_BUILD, DensityMatrix, _from_pair_digits, partial_trace_array
from reference_pauli import tensordot_site_map


def permute_sites(mat: np.ndarray, sites: list[int]) -> np.ndarray:
    """Reorder the qubits of `mat` from the order `sites` to ascending order.

    `sites[k]` is the site on qubit k (least-significant first); the matrix
    is reshaped to one axis per qubit of its rows and of its columns, and
    the 2N axes are transposed at once.
    """
    n = len(sites)
    target = sorted(sites)
    # qubit position of each site, most-significant axis first
    src = [n - 1 - sites.index(s) for s in reversed(target)]
    perm = src + [n + a for a in src]
    w = mat.reshape((2,) * (2 * n))
    return np.transpose(w, perm).reshape(2**n, 2**n)


def kron_chain(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of `mats`, the first on the least-significant qubits."""
    mat = np.array([[1.0 + 0.0j]])
    for block in mats:
        mat = np.kron(block, mat)
    return mat


def embed_product(factors: Iterable[tuple[int, np.ndarray]]) -> tuple[int, np.ndarray]:
    """Tensor product over disjoint subsets, sites ordered ascending."""
    union = 0
    site_order: list[int] = []
    mats = []
    for mask, block in factors:
        assert not mask & union
        union |= mask
        site_order += bit_indices(mask)
        mats.append(block)
    return union, permute_sites(kron_chain(mats), site_order)


def reduced_matrices(rho: DensityMatrix) -> dict[int, np.ndarray]:
    """Reduced matrix of every nonempty subset, keyed by mask."""
    full = (1 << rho.n_sites) - 1
    return {
        mask: partial_trace_array(rho.data, rho.n_sites, mask)
        for mask in enumerate_subsets(full)
        if mask
    }


def _correlated_matrix(subset: int, red: Mapping[int, np.ndarray]) -> np.ndarray:
    cells = bit_indices(subset)
    n = len(cells)
    singles = {j: red[1 << j] for j in cells}
    out = np.zeros((2**n, 2**n), dtype=complex)
    for core in enumerate_subsets(subset):
        m = core.bit_count()
        if m < 2:
            continue
        sign = -1.0 if (n - m) % 2 else 1.0
        factors = [(core, red[core])]
        factors += [(1 << j, singles[j]) for j in cells if not core >> j & 1]
        out += sign * embed_product(factors)[1]
    sign_full = -1.0 if n % 2 == 0 else 1.0  # -(-1)^n
    out += sign_full * (n - 1) * embed_product(
        [(1 << j, singles[j]) for j in cells]
    )[1]
    return out


def _cumulant_matrix(subset: int, red: Mapping[int, np.ndarray], memo: dict) -> np.ndarray:
    if subset in memo:
        return memo[subset]
    if subset.bit_count() == 1:
        memo[subset] = red[subset]
        return memo[subset]
    out = np.array(red[subset], dtype=complex, copy=True)
    for p in enumerate_partitions(subset):
        if len(p) < 2:
            continue
        out -= embed_product(
            [(b, _cumulant_matrix(b, red, memo)) for b in p]
        )[1]
    memo[subset] = out
    return out


def correlated_parts(rho: DensityMatrix) -> dict[int, np.ndarray]:
    red = reduced_matrices(rho)
    return {mask: _correlated_matrix(mask, red) for mask in red if mask.bit_count() >= 2}


def cumulant_parts(rho: DensityMatrix) -> dict[int, np.ndarray]:
    red = reduced_matrices(rho)
    memo: dict[int, np.ndarray] = {}
    return {mask: _cumulant_matrix(mask, red, memo) for mask in red}


def reconstruct(
    n_sites: int, singles: Mapping[int, np.ndarray], parts: Mapping[int, np.ndarray]
) -> DensityMatrix:
    """The power-set sum of (prod_{j not in A} rbar_j) rho^C_A, term by term.

    Terms come in `enumerate_subsets` order, each with the cells outside A
    ascending and then rho^C_A; single-cell subsets drop out.
    """
    full = (1 << n_sites) - 1
    out = np.zeros((2**n_sites, 2**n_sites), dtype=complex)
    terms = 0
    for sub in enumerate_subsets(full):
        if sub.bit_count() == 1:
            continue
        factors = [(1 << j, singles[j]) for j in bit_indices(full ^ sub)]
        if sub:
            factors.append((sub, parts[sub]))
        out += embed_product(factors)[1]
        terms += 1
    assert terms == 2**n_sites - n_sites
    return DensityMatrix(n_sites, out)


def cumulant_reconstruct(n_sites: int, parts: Mapping[int, np.ndarray]) -> DensityMatrix:
    """The sum over all B_N partitions of cumulant products, term by term."""
    full = (1 << n_sites) - 1
    out = np.zeros((2**n_sites, 2**n_sites), dtype=complex)
    for p in enumerate_partitions(full):
        out += embed_product([(b, parts[b]) for b in p])[1]
    return DensityMatrix(n_sites, out)


def trace_defect(subset: int, part: np.ndarray) -> float:
    """Largest |entry| left after tracing each single cell out of the part of
    `subset`, one einsum each."""
    n = subset.bit_count()
    worst = 0.0
    for k in range(n):
        keep = ((1 << n) - 1) ^ (1 << k)
        t = partial_trace_array(part, n, keep)
        worst = max(worst, float(np.max(np.abs(t))))
    return worst


def padded_part_matrix(block: np.ndarray, k: int) -> np.ndarray:
    """Matrix of a k-site part from its 3**k full-support coefficients.

    The coefficients are zero-padded to a (4,)*k grid, digit 0 of each site
    holding 0 (1 at the identity for a single cell), and go through the full
    4x4 build map one `tensordot` per site, then are divided by 2**k.
    """
    coeffs = np.zeros((4,) * k)
    coeffs[(slice(1, None),) * k] = block.reshape((3,) * k)
    coeffs[(0,) * k] = 1.0 if k == 1 else 0.0
    return _from_pair_digits(tensordot_site_map(coeffs.reshape(-1), _B_BUILD) / 2**k, k)


def support(k: int, mask: int) -> tuple:
    """Index of the codes of a k-site grid whose support is exactly `mask`.

    Sites outside the mask keep a size-1 axis, so blocks on disjoint
    supports multiply by broadcasting.
    """
    return tuple(
        slice(1, None) if mask >> (k - 1 - p) & 1 else slice(0, 1) for p in range(k)
    )


def cumulant_blocks(grid: np.ndarray) -> dict[int, np.ndarray]:
    """Cumulant coefficients kappa(T) on the codes of support exactly T.

    Every nonempty T of the grid's sites, one subset at a time, by the
    moment-cumulant recursion grouped by the block that holds the lowest site:

        kappa(T) = x(T) - sum_{A contains min T, A != T} kappa(A) x(T - A)

    with the A in ascending mask order.  kappa of one site is its Bloch
    vector.  This is the per-subset loop that `decomposition._cumulants`
    batches per subset size.
    """
    k = grid.ndim
    full = (1 << k) - 1
    x = {t: grid[support(k, t)] for t in enumerate_subsets(full)}
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


def padded_parts(rho: DensityMatrix) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """rho^C and rho^CC keyed by mask, each part from the coefficients of the
    per-subset slow paths, one zero-padded transform per part."""
    n = rho.n_sites
    full = (1 << n) - 1
    grid = decomposition._state_grid(rho, full)
    c = decomposition._correlated_grid(grid)
    kappa = cumulant_blocks(grid)
    masks = [m for m in enumerate_subsets(full) if m]
    correlated = {
        m: padded_part_matrix(c[support(n, m)], m.bit_count())
        for m in masks
        if m.bit_count() >= 2
    }
    cumulant = {m: padded_part_matrix(kappa[m], m.bit_count()) for m in masks}
    return correlated, cumulant
