import numpy as np
import pytest

from corrdyn.density import DensityMatrix
from corrdyn.hamiltonian import SpinHamiltonian


def random_mixed_state(rng: np.random.Generator, n_sites: int) -> DensityMatrix:
    dim = 2**n_sites
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(n_sites, rho / np.trace(rho))


def random_pure_state(rng: np.random.Generator, n_sites: int) -> DensityMatrix:
    dim = 2**n_sites
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    return DensityMatrix(n_sites, np.outer(psi, psi.conj()))


def random_hamiltonian(
    n_sites: int,
    rng: np.random.Generator,
    field_scale: float = 1.0,
    coupling_scale: float = 1.0,
    pair_density: float = 1.0,
) -> SpinHamiltonian:
    """Gaussian random fields and coupling tensors on a random pair set."""
    fields = field_scale * rng.normal(size=(n_sites, 3))
    couplings = {}
    for i in range(n_sites):
        for j in range(i + 1, n_sites):
            if rng.random() <= pair_density:
                couplings[(i, j)] = coupling_scale * rng.normal(size=(3, 3))
    return SpinHamiltonian(n_sites, fields, couplings)


def up_right_mixture() -> DensityMatrix:
    """Equal mixture of both spins up and both spins along +x."""
    up = np.zeros((4, 4), dtype=complex)
    up[0, 0] = 1.0
    plus = np.full((2, 2), 0.5, dtype=complex)
    right = np.kron(plus, plus)
    return DensityMatrix(2, 0.5 * (up + right))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def assemblies(monkeypatch) -> list:
    """(Hamiltonian, scale) of every CSR assembly of scale * M that the test
    makes: scale 1.0 is a generator's M, any other an expm plan's hM."""
    from corrdyn import hierarchy

    calls = []
    real = hierarchy._assemble

    def spy(h, scale):
        calls.append((h, scale))
        return real(h, scale)

    monkeypatch.setattr(hierarchy, "_assemble", spy)
    return calls
