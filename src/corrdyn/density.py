"""Dense density matrices and their Pauli-correlator representation.

An N-site state is equivalently a 2**N x 2**N Hermitian unit-trace matrix or
the real table of all 4**N Pauli-string expectations

    rho = 2**-N * sum_c  v[c] * P_c,        v[c] = tr(rho P_c),

with slot 0 (the identity string) pinned to 1.  Site 0 is the
least-significant qubit of the matrix index, matching the base-4 digit
convention of the correlator index.

All dense work is capped at DENSE_SITE_CAP sites; this module is desk-scale
machinery, not a large-N code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pauli
from .combinatorics import as_int, bit_indices
from .errors import SizeCapError

DENSE_SITE_CAP = 12

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
_VALUE_SLACK = 1e-6


def admit_sites(n_sites: int) -> None:
    """Raise SizeCapError past DENSE_SITE_CAP sites, the cap of every dense array.

    A site count that is a bool or not an integer raises ValueError.
    """
    if as_int(n_sites, "n_sites") > DENSE_SITE_CAP:
        raise SizeCapError(f"sites capped at {DENSE_SITE_CAP}, got {n_sites}")


@dataclass(frozen=True)
class CorrelatorVector:
    """All 4**N Pauli-string expectations of a state, indexed by string code."""

    n_sites: int
    values: np.ndarray

    def __post_init__(self):
        admit_sites(self.n_sites)
        v = np.asarray(self.values, dtype=float)
        if v.shape != (4**self.n_sites,):
            raise ValueError(f"expected {4 ** self.n_sites} values, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("correlators must be finite")
        if abs(v[0] - 1.0) > 1e-9:
            raise ValueError("slot 0 (identity expectation) must be 1")
        # every Pauli string has eigenvalues +-1; allow integrator-level slack
        if np.max(np.abs(v)) > 1.0 + _VALUE_SLACK:
            raise ValueError("correlator magnitudes cannot exceed 1")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def value(self, label: str) -> complex:
        """Expectation of a label in the string grammar (ladder tokens allowed)."""
        return pauli.parse_label(label, self.n_sites).expectation(self.values)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian unit-trace matrix on n_sites qubits (positivity not enforced)."""

    n_sites: int
    data: np.ndarray

    def __post_init__(self):
        admit_sites(self.n_sites)
        d = np.asarray(self.data, dtype=complex)
        dim = 2**self.n_sites
        if d.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix, got {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ValueError("matrix entries must be finite")
        if np.max(np.abs(d - d.conj().T)) > HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian")
        if abs(np.trace(d).real - 1.0) > TRACE_TOL or abs(np.trace(d).imag) > TRACE_TOL:
            raise ValueError("matrix does not have unit trace")
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "data", d)


# Correlator <-> matrix transforms work on the "pair digit" e = 2*col_bit +
# row_bit of each site, so both directions are a per-site 4x4 map.
_B_EXTRACT = np.array(
    [[pauli.PAULI[d][c, r] for c in (0, 1) for r in (0, 1)] for d in range(4)]
)
_B_BUILD = np.array(
    [[pauli.PAULI[d][r, c] for d in range(4)] for c in (0, 1) for r in (0, 1)]
)


def _pair_order(n: int) -> list[int]:
    order = []
    for k in range(n):
        order += [n + k, k]
    return order


def pauli_coefficients(mats: np.ndarray) -> np.ndarray:
    """tr(P_c A) for every string code c and every A in a (k, 2**N, 2**N) stack.

    Returns a (4**N, k) array, one column per matrix of the stack.
    """
    return pauli._apply_site_map(_pair_digits(mats), _B_EXTRACT)


def _pair_digits(mats: np.ndarray) -> np.ndarray:
    """Matrices, batch first, as pair-digit vectors, batch on the trailing axes.

    Entry e of a vector, read in base 4, has the pair digit of site j at
    4**j, as in a string code; `_from_pair_digits` is the inverse.
    """
    mats = np.asarray(mats)
    batch = mats.shape[:-2]
    n = mats.shape[-1].bit_length() - 1
    w = mats.reshape(batch + (2,) * (2 * n))
    b = len(batch)
    perm = [b + a for a in _pair_order(n)] + list(range(b))
    return np.transpose(w, perm).reshape((4**n,) + batch)


def _from_pair_digits(vec: np.ndarray, n: int) -> np.ndarray:
    """Pair-digit vectors, batch on the trailing axes, as matrices, batch first."""
    batch = vec.shape[1:]
    w = vec.reshape((2,) * (2 * n) + batch)
    perm = [2 * n + a for a in range(len(batch))] + list(np.argsort(_pair_order(n)))
    return np.transpose(w, perm).reshape(batch + (2**n, 2**n))


def real_coefficients(mats: np.ndarray) -> np.ndarray:
    """pauli_coefficients of a stack of Hermitian matrices, as real numbers."""
    coef = pauli_coefficients(mats)
    if np.max(np.abs(coef.imag)) > 1e-10:
        raise ValueError("matrix is not Hermitian enough for real correlators")
    return coef.real


def extract_correlators(rho: DensityMatrix) -> CorrelatorVector:
    """Read off v[c] = tr(rho P_c) for every string code c."""
    return CorrelatorVector(rho.n_sites, real_coefficients(rho.data[None])[:, 0])


def operator_matrix(values: np.ndarray) -> np.ndarray:
    """The matrix 2**-N sum_c values[c] P_c of any 4**N coefficient vector.

    A (4**N, k) stack of vectors gives the (k, 2**N, 2**N) stack of their
    matrices, in one transform.  No state validation, so this also serves
    the zero-trace components.
    """
    n = pauli._sites_of(len(values))
    w = pauli._apply_site_map(values, _B_BUILD) / 2**n
    return _from_pair_digits(w, n)


def from_correlators(v: CorrelatorVector) -> DensityMatrix:
    """Assemble rho = 2**-N sum_c v[c] P_c (inverse of extract_correlators)."""
    return DensityMatrix(v.n_sites, operator_matrix(v.values))


def partial_trace_array(data: np.ndarray, n_sites: int, keep: int) -> np.ndarray:
    """Partial trace of a raw operator matrix; kept sites renumber ascending.

    No Hermiticity or trace validation, so this also serves the zero-trace
    correlated components.
    """
    kept = bit_indices(keep)
    if keep >> n_sites:
        raise ValueError("keep mask references sites beyond the system")
    w = np.asarray(data).reshape((2,) * (2 * n_sites))
    # row axis of site i sits at n_sites-1-i, column axis at 2*n_sites-1-i;
    # site i's row is labelled i and its column n_sites+i, or i when traced
    col = [n_sites + i if keep >> i & 1 else i for i in range(n_sites)]
    sites = list(reversed(range(n_sites)))
    out = np.einsum(
        w, sites + [col[i] for i in sites], kept[::-1] + [col[i] for i in kept[::-1]]
    )
    dim = 2 ** len(kept)
    return out.reshape(dim, dim)


def partial_trace(rho: DensityMatrix, keep: int) -> DensityMatrix:
    """Reduced state on the sites in `keep` (ascending renumbering).

    keep = 0 yields the trivial 0-site state, the 1x1 matrix [[1]].
    """
    return DensityMatrix(
        len(bit_indices(keep)), partial_trace_array(rho.data, rho.n_sites, keep)
    )


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2), equal to the squared Frobenius norm for Hermitian rho."""
    return float(np.vdot(rho.data, rho.data).real)


def purity_from_correlators(v: CorrelatorVector) -> float:
    """tr(rho^2) = 2**-N sum_c v[c]^2, the correlator-side route."""
    return float(np.dot(v.values, v.values) / 2**v.n_sites)

