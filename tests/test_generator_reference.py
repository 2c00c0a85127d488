"""The vectorised generator build against the row-by-row reference."""

import numpy as np
import pytest

from corrdyn.hamiltonian import SpinHamiltonian, random_hamiltonian
from corrdyn.hierarchy import build_generator
from reference_generator import build_generator_rowwise


def heisenberg_chain(n: int) -> SpinHamiltonian:
    """Isotropic nearest-neighbour chain in a uniform z field: most field and
    coupling components are exactly zero and must leave no entry."""
    fields = np.zeros((n, 3))
    fields[:, 2] = 0.7
    return SpinHamiltonian(n, fields, {(i, i + 1): np.eye(3) for i in range(n - 1)})


def hamiltonians(n: int, rng: np.random.Generator) -> dict[str, SpinHamiltonian]:
    return {
        "dense": random_hamiltonian(n, rng, 0.8, 0.6),
        "half_density": random_hamiltonian(n, rng, pair_density=0.5),
        "heisenberg": heisenberg_chain(n),
        "fields_only": SpinHamiltonian(n, rng.normal(size=(n, 3))),
        "zero": SpinHamiltonian(n, np.zeros((n, 3))),
    }


def assert_same_csr(a, b):
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name
    assert a.shape == b.shape


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_build_generator_is_bit_identical_to_rowwise(rng, n):
    for name, h in hamiltonians(n, rng).items():
        fast = build_generator(h)
        ref = build_generator_rowwise(h)
        assert fast.n_sites == ref.n_sites == n, name
        assert_same_csr(fast.matrix, ref.matrix)
        if name == "zero":
            assert fast.matrix.nnz == 0

