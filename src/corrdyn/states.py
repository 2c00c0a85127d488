"""Canonical initial states used as fixtures and CLI inputs."""

from __future__ import annotations

import math

import numpy as np

from .density import DensityMatrix, admit_sites


def pure_state(n_sites: int, amplitudes: np.ndarray) -> DensityMatrix:
    """|psi><psi| from a 2**n amplitude vector (normalized internally)."""
    psi = np.asarray(amplitudes, dtype=complex)
    if psi.shape != (2**n_sites,):
        raise ValueError(f"expected {2 ** n_sites} amplitudes")
    psi = psi / np.linalg.norm(psi)
    return DensityMatrix(n_sites, np.outer(psi, psi.conj()))


def cat_state(n_sites: int, phase: float = 0.0) -> DensityMatrix:
    """(|up..up> + e^{i phase}|down..down>)/sqrt(2)."""
    admit_sites(n_sites)
    if n_sites < 1:
        raise ValueError("cat state needs at least one site")
    psi = np.zeros(2**n_sites, dtype=complex)
    psi[0] = 1.0
    psi[-1] = np.exp(1j * phase)
    return pure_state(n_sites, psi)


def ghz_state(n_sites: int) -> DensityMatrix:
    return cat_state(n_sites, 0.0)


def w_state(n_sites: int) -> DensityMatrix:
    """Equal superposition of the states with exactly one site up."""
    admit_sites(n_sites)
    if n_sites < 1:
        raise ValueError("w state needs at least one site")
    psi = np.zeros(2**n_sites, dtype=complex)
    all_down = 2**n_sites - 1
    for i in range(n_sites):
        psi[all_down ^ (1 << i)] = 1.0
    return pure_state(n_sites, psi)


def bloch_product(vectors) -> DensityMatrix:
    """Product state with the given Bloch vector on each site (site 0 first)."""
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    n = len(vectors)
    admit_sites(n)
    out = np.array([[1.0 + 0.0j]])
    for v in reversed(vectors):
        if v.shape != (3,):
            raise ValueError("each Bloch vector must have 3 components")
        if math.hypot(*v) > 1.0 + 1e-12:  # no overflow for huge entries
            raise ValueError("Bloch vectors must have length <= 1")
        site = 0.5 * np.array(
            [[1.0 + v[2], v[0] - 1j * v[1]], [v[0] + 1j * v[1], 1.0 - v[2]]]
        )
        out = np.kron(out, site)
    return DensityMatrix(n, out)
