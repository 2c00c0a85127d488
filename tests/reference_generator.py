"""Row-by-row reference for the hierarchy generator.

`build_generator_rowwise` reads the equation of motion one target string at
a time, exactly as the rules (a) field, (b) intra-subset and (c) growth are
stated in `corrdyn.hierarchy`, and appends every nonzero entry.  It is the
slow path the vectorised `corrdyn.hierarchy.build_generator` is checked
against bit for bit.  `single_site_row` writes the three single-site rows
straight from the one-spin equation of motion.

`sector_blocks_dense` cuts the coupled-system sector blocks out of a dense
copy of M reordered into (X1, Y, X2) sector order, and
`decompose_blocks_dense` subtracts the uncoupled Kronecker sum from them.
They are the slow path that `corrdyn.hierarchy.block_structure`, which
slices the sparse M, and `decompose_blocks`, which slices the generators
M_0 and V of H without and with only the couplings across the split, must
match bit for bit.  `reassemble` puts the blocks back into the 4**N layout
of M.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from corrdyn.hamiltonian import SpinHamiltonian
from corrdyn.hierarchy import CoupledSplit, Generator
from corrdyn.pauli import _EPS_TERMS, digit, with_digit

_AXES = "xyz"


def build_generator_rowwise(h: SpinHamiltonian) -> Generator:
    n = h.n_sites
    dim = 4**n
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []

    # per site and target axis: nonzero (nu, eps*h) field contractions
    field_terms = [
        [
            [
                (nu, s * h.fields[i, alpha - 1])
                for alpha, nu, s in _EPS_TERMS[mu]
                if h.fields[i, alpha - 1]
            ]
            for mu in (1, 2, 3)
        ]
        for i in range(n)
    ]

    for code in range(1, dim):
        support = [i for i in range(n) if digit(code, i)]
        for i in support:
            mu = digit(code, i)
            for nu, coeff in field_terms[i][mu - 1]:
                rows.append(code)
                cols.append(with_digit(code, i, nu))
                vals.append(coeff)
            for j in h.partners(i):
                v = h.coupling(i, j)
                if digit(code, j):
                    muj = digit(code, j)
                    dropped = with_digit(code, j, 0)
                    for alpha, nu, s in _EPS_TERMS[mu]:
                        coeff = s * v[alpha - 1, muj - 1]
                        if coeff:
                            rows.append(code)
                            cols.append(with_digit(dropped, i, nu))
                            vals.append(coeff)
                else:
                    for alpha, nu, s in _EPS_TERMS[mu]:
                        for lam in (1, 2, 3):
                            coeff = s * v[alpha - 1, lam - 1]
                            if coeff:
                                rows.append(code)
                                cols.append(
                                    with_digit(with_digit(code, j, lam), i, nu)
                                )
                                vals.append(coeff)

    matrix = sp.coo_matrix(
        (np.array(vals), (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64))),
        shape=(dim, dim),
    ).tocsr()
    matrix.sum_duplicates()
    return Generator(h, matrix)


def single_site_row(h: SpinHamiltonian, i: int) -> dict[str, list[tuple[float, int]]]:
    """Rows of M for the three single-site expectations of site i.

    Written directly from the one-spin equation of motion (precession in
    the local field plus growth into pair correlators through every
    coupling), independently of build_generator, as a consistency check.
    Returns, per target axis, (coefficient, column code) pairs sorted by code.
    """
    if not 0 <= i < h.n_sites:
        raise ValueError(f"site {i} out of range")
    out: dict[str, list[tuple[float, int]]] = {}
    for mu in (1, 2, 3):
        entries: dict[int, float] = {}
        for alpha, nu, s in _EPS_TERMS[mu]:
            hv = h.fields[i, alpha - 1]
            if hv:
                code = with_digit(0, i, nu)
                entries[code] = entries.get(code, 0.0) + s * hv
            for ell in h.partners(i):
                v = h.coupling(i, ell)
                for lam in (1, 2, 3):
                    coeff = s * v[alpha - 1, lam - 1]
                    if coeff:
                        code = with_digit(with_digit(0, i, nu), ell, lam)
                        entries[code] = entries.get(code, 0.0) + coeff
        out[_AXES[mu - 1]] = [(c, code) for code, c in sorted(entries.items()) if c]
    return out


_SECTORS = ("1", "m", "2")


def sector_blocks_dense(gen: Generator, split: CoupledSplit) -> dict[tuple[str, str], np.ndarray]:
    """The 3x3 sector blocks of M, sliced from its dense (X1, Y, X2) reordering."""
    order = split.order
    dense = gen.matrix[order][:, order].toarray()
    d1, dm, d2 = split.dims
    sl = {"1": slice(0, d1), "m": slice(d1, d1 + dm), "2": slice(d1 + dm, d1 + dm + d2)}
    return {(r, c): dense[sl[r], sl[c]] for r in _SECTORS for c in _SECTORS}


def decompose_blocks_dense(
    gen: Generator, split: CoupledSplit
) -> tuple[dict[str, np.ndarray], dict[tuple[str, str], np.ndarray]]:
    """The uncoupled diagonal and the remainder of sector_blocks_dense."""
    blocks = sector_blocks_dense(gen, split)
    m1 = blocks["1", "1"]
    m2 = blocks["2", "2"]
    mixed0 = np.kron(m1, np.eye(len(m2))) + np.kron(np.eye(len(m1)), m2)
    inter = {
        key: blocks[key] for key in (("1", "m"), ("m", "1"), ("m", "2"), ("2", "m"))
    }
    inter["m", "m"] = blocks["m", "m"] - mixed0
    return {"1": m1, "m": mixed0, "2": m2}, inter


def reassemble(blocks: dict[tuple[str, str], np.ndarray], split: CoupledSplit) -> np.ndarray:
    """Dense generator (full 4**N layout) rebuilt from the sector blocks of split."""
    d1, dm, d2 = split.dims
    perm = np.concatenate(([0], split.order))
    dense = np.zeros((len(perm), len(perm)))
    offs = {"1": 1, "m": 1 + d1, "2": 1 + d1 + dm}
    sizes = {"1": d1, "m": dm, "2": d2}
    for (r, c), b in blocks.items():
        dense[offs[r] : offs[r] + sizes[r], offs[c] : offs[c] + sizes[c]] = b
    out = np.zeros_like(dense)
    out[np.ix_(perm, perm)] = dense
    return out
