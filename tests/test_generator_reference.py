"""The vectorised generator build against the row-by-row reference."""

import tracemalloc

import numpy as np
import pytest

from corrdyn import hierarchy
from corrdyn.hamiltonian import SpinHamiltonian
from corrdyn.hierarchy import build_generator, generator_bytes, generator_nnz
from conftest import random_hamiltonian
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



# chunks of 4 and 16 rows split every build from 2 and 3 sites on into
# 4**(N-1) and 4**(N-2) chunks, so the top-digit rules meet every case
@pytest.mark.parametrize("rows", [4, 16])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_row_chunks_are_bit_identical_to_rowwise(rng, monkeypatch, n, rows):
    monkeypatch.setattr(hierarchy, "ROW_CHUNK", rows)
    for name, h in hamiltonians(n, rng).items():
        assert_same_csr(build_generator(h).matrix, build_generator_rowwise(h).matrix)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_generator_nnz_is_the_built_nnz(rng, n):
    for name, h in hamiltonians(n, rng).items():
        m = build_generator(h).matrix
        assert generator_nnz(h) == m.nnz, name
        assert generator_bytes(h) == m.data.nbytes + m.indices.nbytes + m.indptr.nbytes


def test_seven_site_build_peak_is_within_a_quarter_of_the_csr(rng):
    """256-row chunks keep the build near 21 MiB for a 19.75 MiB CSR; chunks
    of 4**6 rows take about 31 MiB, over the bound."""
    h = random_hamiltonian(7, rng, 0.8, 0.6)
    assert generator_nnz(h) == 1_720_320
    build_generator(random_hamiltonian(2, rng)).matrix  # first-call allocations
    tracemalloc.start()
    try:
        m = build_generator(h).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.nnz == 1_720_320
    assert peak <= 1.25 * (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)


# 5e-324, the least subnormal, takes every |c| < 0.5 to a signed zero, and
# 1e-200 the planted 1e-150 coupling entry
_SCALES = (0.37, 1e-3, 5.0, 1e-200, 5e-324)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_scaled_assembly_is_the_scaled_copy_bit_for_bit(rng, n):
    """scale * M assembled from H has the arrays of M's values times scale on
    M's index arrays, compared as bit patterns: a term is skipped by its
    coefficient, not by the scaled one, so an entry that underflows stays."""
    fields = rng.normal(size=(n, 3))
    fields[rng.random((n, 3)) < 0.3] = 0.0
    couplings = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.7:
                v = rng.normal(size=(3, 3))
                v[rng.random((3, 3)) < 0.3] = 0.0
                couplings[i, j] = v
    if couplings:
        next(iter(couplings.values()))[0, 0] = 1e-150
    h = SpinHamiltonian(n, fields, couplings)
    m = build_generator(h).matrix
    for scale in _SCALES:
        a = hierarchy._assemble(h, scale)
        assert np.array_equal(a.indptr, m.indptr) and np.array_equal(a.indices, m.indices)
        assert a.data.dtype == np.float64
        assert np.array_equal(a.data.view(np.uint64), (m.data * scale).view(np.uint64)), scale
    assert m.nnz == 0 or not np.all(a.data)  # the least subnormal left zeros

