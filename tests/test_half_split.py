"""The half split M = kron(I, M_A) + kron(M_B, I) + V that rk4 applies.

The split, built from the Hamiltonian's terms, is checked entry by entry
against the assembled CSR M, its product and `Generator.apply` (the split
from SPLIT_MIN_SITES sites on, the CSR product below) against the CSR
product, and rk4 through `apply` against the RK4 loop on the CSR M kept in
`reference_dynamics`.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from corrdyn import hierarchy
from corrdyn.dynamics import evolve
from corrdyn.errors import SizeCapError
from corrdyn.hamiltonian import SpinHamiltonian
from corrdyn.hierarchy import SPLIT_MIN_SITES, build_generator, half_split
from reference_dynamics import evolve_rk4_csr
from test_dynamics_reference import product_state
from test_spectral_reference import hamiltonians


def kronecker_sum(split) -> sp.csr_matrix:
    d_a, d_b = len(split.m_a), len(split.m_b)
    out = (
        sp.kron(sp.identity(d_b), sp.csr_matrix(split.m_a))
        + sp.kron(sp.csr_matrix(split.m_b), sp.identity(d_a))
        + split.v
    ).tocsr()
    out.eliminate_zeros()
    out.sort_indices()
    return out


def assert_relative_match(m: sp.csr_matrix, y: np.ndarray, x: np.ndarray) -> None:
    scale = np.max(abs(m) @ np.abs(x), initial=0.0)
    assert np.max(np.abs(y - m @ x)) <= 1e-14 * scale


def split_hamiltonians(n: int, rng) -> dict[str, SpinHamiltonian]:
    """The reference set, plus one H whose couplings all cross the halves
    and one with no coupling across them."""
    hams = hamiltonians(n, rng)
    dense = hams["dense"]
    half = n // 2
    for name, crossing in (("all_cross", True), ("none_cross", False)):
        couplings = {
            (i, j): v for (i, j), v in dense.couplings.items()
            if (i < half <= j) == crossing
        }
        hams[name] = SpinHamiltonian(n, dense.fields, couplings)
    return hams


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_split_reassembles_m_bit_for_bit(rng, n):
    d_a = 4 ** (n // 2)
    for name, h in split_hamiltonians(n, rng).items():
        m = build_generator(h).matrix
        split = half_split(h)
        assert split.m_a.shape == (d_a, d_a) and split.m_b.shape == (4**n // d_a,) * 2
        assert np.array_equal(split.m_a, m[:d_a, :d_a].toarray()), name
        assert np.array_equal(split.m_b, m[::d_a, ::d_a].toarray()), name
        # V holds exactly the entries whose codes differ in both halves
        v = split.v.tocoo()
        diff = v.row ^ v.col
        assert np.all((diff & (d_a - 1) != 0) & (diff >= d_a)), name
        back = kronecker_sum(split)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(back, part), getattr(m, part)), (name, part)


def test_split_of_one_site_has_an_empty_low_half(rng):
    h = hamiltonians(1, rng)["dense"]
    m = build_generator(h).matrix
    split = half_split(h)
    assert split.m_a.shape == (1, 1) and not split.m_a.any()
    assert split.v.nnz == 0
    assert np.array_equal(split.m_b, m.toarray())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_apply_matches_the_csr_product(rng, n):
    for name, h in hamiltonians(n, rng).items():
        gen = build_generator(h)
        split = half_split(h)
        for x in rng.normal(size=(3, gen.dim)):
            assert_relative_match(gen.matrix, split.apply(x), x)
            assert_relative_match(gen.matrix, gen.apply(x), x)
        assert (gen._split is None) == (n < SPLIT_MIN_SITES), name


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_rk4_matches_the_csr_loop(rng, n):
    for name, h in hamiltonians(n, rng).items():
        gen = build_generator(h)
        x0 = product_state(n, rng)
        fast = evolve(gen, x0, 0.3, dt=0.01, stride=7, method="rk4")
        ref = evolve_rk4_csr(gen, x0, 0.3, 0.01, stride=7)
        assert np.array_equal(fast.times, ref.times), name
        assert np.max(np.abs(fast.values - ref.values)) <= 1e-12, name
        if n < SPLIT_MIN_SITES:  # apply is the CSR product itself
            assert np.array_equal(fast.values, ref.values) and gen._split is None, name


def test_expm_evolution_leaves_the_split_unbuilt(rng):
    n = SPLIT_MIN_SITES
    gen = build_generator(hamiltonians(n, rng)["dense"])
    x0 = product_state(n, rng)
    evolve(gen, x0, 0.2, dt=0.01, stride=5, method="expm")
    assert gen._split is None
    evolve(gen, x0, 0.2, dt=0.01, stride=5, method="rk4")
    assert gen._split is not None



@pytest.mark.parametrize("n", [4, 5, 6])
def test_rk4_admission_counts_the_bytes_of_the_split(rng, monkeypatch, n):
    """The rk4 estimate that admit compares with BYTES_CAP is M's bytes plus,
    from SPLIT_MIN_SITES sites on, exactly the bytes of the split that apply
    caches.  It is read from _evolution_bytes, since with H = 0 at 4 sites
    the 2 samples any grid records (4096 bytes) outweigh M (1028 bytes) and
    would refuse first; for the dense H, admit itself refuses one byte less
    and admits that many."""
    for name, h in split_hamiltonians(n, rng).items():
        need = hierarchy.generator_bytes(h)
        if n >= SPLIT_MIN_SITES:
            m_a, m_b, v = half_split(h)
            need += m_a.nbytes + m_b.nbytes + v.data.nbytes + v.indices.nbytes + v.indptr.nbytes
        assert hierarchy._evolution_bytes(h, "rk4", 1) == need, name
    h, grid = split_hamiltonians(n, rng)["dense"], (0.01, 0.01, 1)
    need = hierarchy._evolution_bytes(h, "rk4", 1)
    assert 3 * 4**n * 8 < need  # the 3 samples fit
    monkeypatch.setattr(hierarchy, "BYTES_CAP", need)
    hierarchy.admit(n, ["evolve"], h, grid, "rk4")
    monkeypatch.setattr(hierarchy, "BYTES_CAP", need - 1)
    with pytest.raises(SizeCapError, match="^generator capped"):
        hierarchy.admit(n, ["evolve"], h, grid, "rk4")
