"""Brute-force exact evolution for small systems.

Everything here goes through one dense diagonalization of the 2**N x 2**N
Hamiltonian, so the accuracy is machine-level and independent of time; this
is the ground truth the hierarchy machinery is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pauli
from .density import DensityMatrix, admit_sites, real_coefficients
from .hamiltonian import SpinHamiltonian


# matrix entries per batched Pauli transform in correlator_trajectory.  The
# batch bounds the oracle's peak memory: 101 samples at 6 sites peaked at
# 4.9 MB of Python allocations (the 3.3 MB result included), and at 43 MB
# when read off in one stack.
_BATCH_ENTRIES = 2**14


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues and the unitary of eigenvectors of H."""

    energies: np.ndarray
    vectors: np.ndarray


def build_hamiltonian_matrix(h: SpinHamiltonian) -> np.ndarray:
    """Dense matrix of H with site 0 on the least-significant qubit."""
    admit_sites(h.n_sites)
    terms = [
        (0.5 * h.fields[i, a], (a + 1) << 2 * i)
        for i in range(h.n_sites)
        for a in range(3)
        if h.fields[i, a]
    ]
    for (i, j), v in h.couplings.items():
        terms += coupling_terms(v, i, j)
    return pauli.sum_matrix(h.n_sites, terms)


def coupling_terms(v: np.ndarray, i: int, j: int) -> list[tuple[float, int]]:
    """(1/2) V^{ab} sigma_i^a sigma_j^b as (coeff, code) terms, zero entries dropped."""
    return [
        (0.5 * v[a, b], (a + 1) << 2 * i | (b + 1) << 2 * j)
        for a in range(3)
        for b in range(3)
        if v[a, b]
    ]


def eigensystem(h: SpinHamiltonian) -> EigenSystem:
    energies, vectors = np.linalg.eigh(build_hamiltonian_matrix(h))
    return EigenSystem(energies, vectors)


def energy_differences(es: EigenSystem) -> np.ndarray:
    """All positive level differences E_n - E_m, sorted, with multiplicity."""
    diffs = es.energies[None, :] - es.energies[:, None]
    return np.sort(diffs[diffs > 0.0])


def evolve_exact(
    h: SpinHamiltonian, rho0: DensityMatrix, times, es: EigenSystem | None = None
) -> list[DensityMatrix]:
    """rho(t) = U(t) rho0 U(t)^dagger at each requested time.

    es is the eigensystem of h when the caller already has it (a generator
    caches one); otherwise h is diagonalized here.
    """
    if rho0.n_sites != h.n_sites:
        raise ValueError("state and Hamiltonian site counts differ")
    if es is None:
        es = eigensystem(h)
    basis0 = es.vectors.conj().T @ rho0.data @ es.vectors
    out = []
    for t in np.asarray(times, dtype=float):
        phase = np.exp(-1j * es.energies * t)
        rot = (phase[:, None] * basis0) * phase.conj()[None, :]
        out.append(DensityMatrix(h.n_sites, es.vectors @ rot @ es.vectors.conj().T))
    return out


def correlator_trajectory(
    h: SpinHamiltonian, rho0: DensityMatrix, times, es: EigenSystem | None = None
):
    """Exact correlator supervector along the trajectory.

    Returns a dynamics.Trajectory; reference output for the hierarchy
    integrators.  The samples are evolved and their correlators read off
    by one Pauli transform per batch of about _BATCH_ENTRIES matrix
    entries, which bounds the memory held at once; es as in evolve_exact.
    """
    from .dynamics import Trajectory

    times = np.asarray(times, dtype=float)
    if es is None:
        es = eigensystem(h)
    values = np.empty((times.size, 4**h.n_sites))
    step = max(1, _BATCH_ENTRIES // 4**h.n_sites)
    for k in range(0, times.size, step):
        rhos = evolve_exact(h, rho0, times[k : k + step], es)
        values[k : k + step] = real_coefficients(np.array([r.data for r in rhos])).T
    return Trajectory(h.n_sites, times, values)
