import tracemalloc

import numpy as np
import pytest

from corrdyn import oracle
from corrdyn.density import extract_correlators
from corrdyn.errors import SizeCapError
from corrdyn.hamiltonian import SpinHamiltonian, restrict, transverse_pair
from corrdyn.hierarchy import (
    Generator,
    antisymmetry_defect,
    block_structure,
    build_generator,
    decompose_blocks,
    reduced_eom_residual,
    split_sectors,
)
from corrdyn.pauli import PauliString
from corrdyn.states import bloch_product
from conftest import random_hamiltonian, random_mixed_state
from reference_generator import (
    decompose_blocks_dense,
    reassemble,
    sector_blocks_dense,
    single_site_row,
)

EPS = np.zeros((3, 3, 3))
for _p, _s in (((0, 1, 2), 1.0), ((1, 2, 0), 1.0), ((2, 0, 1), 1.0),
               ((0, 2, 1), -1.0), ((2, 1, 0), -1.0), ((1, 0, 2), -1.0)):
    EPS[_p] = _s


def cross_matrix(h):
    """Precession block: entry (mu, nu) = sum_a eps(mu, a, nu) h^a."""
    return np.einsum("man,a->mn", EPS, h)


def dense_superoperator(h: SpinHamiltonian) -> np.ndarray:
    """Oracle route: matrix of d<P_c>/dt = <i[H, P_c]> in the string basis."""
    n = h.n_sites
    hm = oracle.build_hamiltonian_matrix(h)
    mats = np.stack([PauliString(n, c).matrix() for c in range(4**n)])
    comm = 1j * (hm[None] @ mats - mats @ hm[None])
    # entry (c, cp) is tr(P_cp comm_c) / 2**n
    return np.einsum("pnm,cmn->cp", mats, comm).real / 2**n


def test_partner_lists_are_the_coupled_sites_ascending(rng):
    for n in (1, 2, 5, 9):
        for _ in range(4):
            h = random_hamiltonian(n, rng, pair_density=0.5)
            for i in range(n):
                expected = tuple(
                    j for j in range(n) if j != i and h.coupling(i, j) is not None
                )
                assert h.partners(i) == expected, (n, i)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hamiltonian_refuses_non_finite_fields_and_couplings(bad):
    fields = np.zeros((2, 3))
    fields[1, 2] = bad
    with pytest.raises(ValueError, match="fields must be finite"):
        SpinHamiltonian(2, fields)
    tensor = np.eye(3)
    tensor[0, 1] = bad
    with pytest.raises(ValueError, match=r"coupling tensor \(0, 1\) must be finite"):
        SpinHamiltonian(2, np.zeros((2, 3)), {(0, 1): tensor})


@pytest.mark.parametrize("n_sites", [True, 2.0, np.float64(2.0), "2"])
def test_hamiltonian_refuses_a_site_count_that_is_not_an_integer(n_sites):
    with pytest.raises(ValueError, match="n_sites must be an integer"):
        SpinHamiltonian(n_sites, np.zeros((2, 3)))


@pytest.mark.parametrize("pair", [(0.5, 1), (0, 1.0), (False, True), (0, np.float64(1))])
def test_hamiltonian_refuses_coupling_sites_that_are_not_integers(pair):
    with pytest.raises(ValueError, match="must hold integer sites"):
        SpinHamiltonian(2, np.zeros((2, 3)), {pair: np.eye(3)})


def test_hamiltonian_accepts_numpy_integers():
    h = SpinHamiltonian(np.int64(2), np.zeros((2, 3)), {(np.int32(0), np.int64(1)): np.eye(3)})
    assert np.array_equal(h.coupling(0, 1), np.eye(3))
    assert h.partners(1) == (0,)
    assert type(h.n_sites) is int and all(type(s) is int for pair in h.couplings for s in pair)


def test_a_numpy_site_count_cannot_wrap_four_to_the_n():
    # 4**np.int64(32) wraps to 0 in int64, which would admit any size
    fields = np.zeros((32, 3))
    fields[0, 2] = 1.0
    with pytest.raises(SizeCapError, match="generator capped"):
        build_generator(SpinHamiltonian(np.int64(32), fields))
    with pytest.raises(SizeCapError, match="spectral tasks capped"):
        split_sectors(np.int64(32), 1)


def test_free_static_spins_have_zero_generator():
    h = SpinHamiltonian(2, np.zeros((2, 3)))
    gen = build_generator(h)
    assert gen.matrix.nnz == 0


def test_larmor_row():
    h = SpinHamiltonian(1, [[0.0, 0.0, 1.7]])
    gen = build_generator(h)
    m = gen.matrix.toarray()
    # d<x>/dt = -h <y>, d<y>/dt = h <x>
    assert m[1, 2] == -1.7 and m[2, 1] == 1.7
    assert m[3].max() == 0.0 and m[3].min() == 0.0


def test_generator_matches_dense_superoperator(rng):
    for n in (1, 2, 3, 4):
        h = random_hamiltonian(n, rng, 0.8, 0.6)
        gen = build_generator(h)
        ref = dense_superoperator(h)
        assert np.max(np.abs(gen.matrix.toarray() - ref)) < 1e-12


def test_antisymmetry(rng):
    for n in (2, 3, 4, 6):
        h = random_hamiltonian(n, rng)
        assert antisymmetry_defect(build_generator(h)) < 1e-12


def test_antisymmetry_defect_reads_one_injected_entry(rng):
    gen = build_generator(random_hamiltonian(2, rng))
    m = gen.matrix.tolil()
    m[1, 2] += 1e-3
    bad = Generator(gen.hamiltonian, m.tocsr())
    assert abs(antisymmetry_defect(bad) - 1e-3) < 1e-12


def test_row_zero_and_column_zero_empty(rng):
    gen = build_generator(random_hamiltonian(3, rng))
    m = gen.matrix.tocoo()
    assert not np.any(m.row == 0)
    assert not np.any(m.col == 0)


def test_sparsity_bound(rng):
    n = 4
    h = random_hamiltonian(n, rng)
    gen = build_generator(h)
    m = gen.matrix
    counts = np.diff(m.indptr)
    for code in range(1, 4**n):
        k = sum(1 for i in range(n) if (code >> (2 * i)) & 3)
        bound = 2 * (3 * k + 9 * k * k + 9 * k * (n - k))
        assert counts[code] <= bound


def test_sparsity_fraction_decreases_with_size(rng):
    fractions = []
    for n in (3, 4, 5):
        gen = build_generator(random_hamiltonian(n, rng))
        fractions.append(gen.matrix.nnz / gen.dim**2)
    assert fractions[0] > fractions[1] > fractions[2]


def test_every_entry_is_a_field_or_coupling_component(rng):
    h = random_hamiltonian(3, rng)
    gen = build_generator(h)
    allowed = set(np.round(np.abs(h.fields), 12).ravel())
    for v in h.couplings.values():
        allowed |= set(np.round(np.abs(v), 12).ravel())
    entries = set(np.round(np.abs(gen.matrix.tocoo().data), 12))
    assert entries <= allowed


def test_generator_action_matches_oracle_derivative(rng):
    h = random_hamiltonian(3, rng, 0.7, 0.5)
    gen = build_generator(h)
    rho0 = random_mixed_state(rng, 3)
    x0 = extract_correlators(rho0).values
    eps = 1e-5
    plus = oracle.correlator_trajectory(h, rho0, [eps]).values[0]
    minus = oracle.correlator_trajectory(h, rho0, [-eps]).values[0]
    fd = (plus - minus) / (2 * eps)
    assert np.max(np.abs(fd - gen.matrix @ x0)) < 1e-6


def test_single_site_row_against_generator(rng):
    h = random_hamiltonian(3, rng)
    gen = build_generator(h)
    m = gen.matrix.toarray()
    for i in range(3):
        rows = single_site_row(h, i)
        for mu, axis in enumerate("xyz", start=1):
            row_code = mu << (2 * i)
            expected = np.zeros(4**3)
            for coeff, col in rows[axis]:
                expected[col] += coeff
            assert np.max(np.abs(m[row_code] - expected)) < 1e-12


def test_single_site_row_larmor_and_zz():
    h = SpinHamiltonian(1, [[0.0, 0.0, 2.0]])
    rows = single_site_row(h, 0)
    assert rows["x"] == [(-2.0, 2)]  # d<x>/dt = -h <y>
    assert rows["y"] == [(2.0, 1)]
    assert rows["z"] == []

    v = np.zeros((3, 3))
    v[2, 2] = 0.9
    h2 = SpinHamiltonian(2, np.zeros((2, 3)), {(0, 1): v})
    rows = single_site_row(h2, 0)
    # d<x0>/dt = -V^zz <y0 z1>
    assert rows["x"] == [(-0.9, 2 + 3 * 4)]


def test_two_qubit_blocks_match_tensor_forms(rng):
    for _ in range(5):
        h1, h2 = rng.normal(size=3), rng.normal(size=3)
        vdiag = np.diag(rng.normal(size=3))
        gen = build_generator(SpinHamiltonian(2, [h1, h2], {(0, 1): vdiag}))
        split = split_sectors(2, 0b01)
        bs = block_structure(gen, split)
        l1, l2 = cross_matrix(h1), cross_matrix(h2)
        assert np.max(np.abs(bs["1", "1"] - l1)) < 1e-12
        assert np.max(np.abs(bs["2", "2"] - l2)) < 1e-12
        lp = np.kron(l1, np.eye(3)) + np.kron(np.eye(3), l2)
        assert np.max(np.abs(bs["m", "m"] - lp)) < 1e-12
        u1p = np.einsum("mln,lb->mnb", EPS, vdiag).reshape(3, 9)
        u2p = np.einsum("ng,agb->anb", vdiag, EPS).reshape(3, 9)
        assert np.max(np.abs(bs["1", "m"] - u1p)) < 1e-12
        assert np.max(np.abs(bs["2", "m"] - u2p)) < 1e-12
        assert np.max(np.abs(bs["m", "1"] + u1p.T)) < 1e-12
        assert np.max(np.abs(bs["m", "2"] + u2p.T)) < 1e-12


def test_split_sector_dimensions():
    s = split_sectors(2, 0b01)
    assert s.dims == (3, 9, 3)
    s = split_sectors(3, 0b011)
    assert s.dims == (15, 45, 3)
    with pytest.raises(ValueError):
        split_sectors(3, 0b111)
    with pytest.raises(ValueError):
        split_sectors(3, 0)


def test_block_round_trip(rng):
    h = random_hamiltonian(3, rng)
    gen = build_generator(h)
    split = split_sectors(3, 0b001)
    bs = block_structure(gen, split)
    assert np.max(np.abs(reassemble(bs, split) - gen.matrix.toarray())) < 1e-15


# every nonempty proper system-1 mask, contiguous or not, at 2..5 sites
PROPER_MASKS = [(n, mask) for n in range(2, 6) for mask in range(1, (1 << n) - 1)]


@pytest.mark.parametrize(
    "n, system1", PROPER_MASKS, ids=[f"{n}-{m:0{n}b}" for n, m in PROPER_MASKS]
)
def test_sector_blocks_match_the_dense_reorder(rng, n, system1):
    dense = random_hamiltonian(n, rng)
    uncoupled = {
        (i, j): v for (i, j), v in dense.couplings.items()
        if (system1 >> i & 1) == (system1 >> j & 1)
    }
    hams = {
        "dense": dense,
        "half_density": random_hamiltonian(n, rng, pair_density=0.5),
        "no_cross_coupling": SpinHamiltonian(n, dense.fields, uncoupled),
    }
    split = split_sectors(n, system1)
    for name, h in hams.items():
        gen = build_generator(h)
        ref = sector_blocks_dense(gen, split)
        bs = block_structure(gen, split)
        assert bs.keys() == ref.keys(), name
        for key, block in ref.items():
            assert np.array_equal(bs[key], block), (name, key)
        assert not bs["1", "2"].any() and not bs["2", "1"].any(), name
        diag, inter = decompose_blocks(gen, split)
        ref_diag, ref_inter = decompose_blocks_dense(gen, split)
        assert diag.keys() == ref_diag.keys() and inter.keys() == ref_inter.keys(), name
        for key in ref_diag:
            assert np.array_equal(diag[key], ref_diag[key]), (name, key)
        for key in ref_inter:
            assert np.array_equal(inter[key], ref_inter[key]), (name, key)


def test_split_of_another_site_count_is_refused(rng):
    gen = build_generator(random_hamiltonian(3, rng))
    split = split_sectors(4, 0b0011)
    with pytest.raises(ValueError, match="site counts differ"):
        decompose_blocks(gen, split)
    with pytest.raises(ValueError, match="site counts differ"):
        block_structure(gen, split)


def test_sector_split_past_the_dense_cap_is_refused_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError):
            split_sectors(7, 0b111)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert split_sectors(6, 0b111).dims == (63, 63 * 63, 63)


def test_intra_system_couplings_leave_interaction_blocks_empty(rng):
    v = rng.normal(size=(3, 3))
    h = SpinHamiltonian(3, rng.normal(size=(3, 3)), {(1, 2): v})
    gen = build_generator(h)
    split = split_sectors(3, 0b001)
    _, inter = decompose_blocks(gen, split)
    for b in inter.values():
        assert np.max(np.abs(b)) < 1e-15


def test_uncoupled_diag_blocks_are_subsystem_generators(rng):
    h = random_hamiltonian(4, rng)
    split = split_sectors(4, 0b0011)
    gen = build_generator(h)
    diag, _ = decompose_blocks(gen, split)
    g1 = build_generator(restrict(h, 0b0011)).matrix.toarray()[1:, 1:]
    g2 = build_generator(restrict(h, 0b1100)).matrix.toarray()[1:, 1:]
    assert np.max(np.abs(diag["1"] - g1)) < 1e-12
    assert np.max(np.abs(diag["2"] - g2)) < 1e-12


@pytest.mark.parametrize("subset", [0b001, 0b011])
def test_reduced_eom_residual_order(rng, subset):
    h = random_hamiltonian(3, rng, 0.8, 0.6)
    rho0 = random_mixed_state(rng, 3)
    res = {}
    for dt in (2e-3, 1e-3):
        times = np.arange(9) * dt
        rhos = oracle.evolve_exact(h, rho0, times)
        res[dt] = reduced_eom_residual(h, times, rhos, subset)
    order = np.log2(res[2e-3] / res[1e-3])
    assert order > 1.9


def test_reduced_eom_uncoupled_subset(rng):
    # without interactions each subset obeys a closed unitary equation
    h = SpinHamiltonian(3, rng.normal(size=(3, 3)))
    rho0 = random_mixed_state(rng, 3)
    times = np.arange(5) * 1e-3
    rhos = oracle.evolve_exact(h, rho0, times)
    assert reduced_eom_residual(h, times, rhos, 0b011) < 1e-5


def test_reduced_eom_full_set_is_plain_unitary_equation(rng):
    h = random_hamiltonian(3, rng)
    rho0 = random_mixed_state(rng, 3)
    times = np.arange(5) * 1e-3
    rhos = oracle.evolve_exact(h, rho0, times)
    assert reduced_eom_residual(h, times, rhos, 0b111) < 1e-4


def test_reduced_eom_needs_three_points(rng):
    h = random_hamiltonian(2, rng)
    rho0 = random_mixed_state(rng, 2)
    rhos = oracle.evolve_exact(h, rho0, [0.0, 1e-3])
    with pytest.raises(ValueError, match="3 trajectory points"):
        reduced_eom_residual(h, [0.0, 1e-3], rhos, 0b01)


def test_reduced_eom_needs_one_state_per_time(rng):
    h = random_hamiltonian(2, rng)
    times = [0.0, 1e-3, 2e-3, 3e-3]
    rhos = oracle.evolve_exact(h, random_mixed_state(rng, 2), times)
    with pytest.raises(ValueError, match="3 states for 4 times"):
        reduced_eom_residual(h, times, rhos[:3], 0b01)
    with pytest.raises(ValueError, match="4 states for 3 times"):
        reduced_eom_residual(h, times[:3], rhos, 0b01)
    with pytest.raises(ValueError, match="mask must be an integer"):
        reduced_eom_residual(h, times, rhos, 1.0)


@pytest.mark.parametrize(
    "times", [[0.0, 0.0, 0.0], [0.0, np.nan, 0.2], [0.0, 0.1, np.inf]], ids=["zero", "nan", "inf"]
)
def test_reduced_eom_refuses_a_zero_step_or_a_non_finite_time(rng, times):
    h = transverse_pair(1.0, 0.7, 0.4)
    rhos = oracle.evolve_exact(h, random_mixed_state(rng, 2), [0.0, 0.1, 0.2])
    with pytest.raises(ValueError, match="finite|nonzero step"):
        reduced_eom_residual(h, times, rhos, 0b01)


@pytest.mark.parametrize(
    "times",
    [[0.0, 1e-14, 3e-14], [[0.0, 0.1], [0.2, 0.3], [0.4, 0.5]]],
    ids=["uneven-below-1e-12", "two-d"],
)
def test_reduced_eom_refuses_a_grid_that_is_not_uniform(times):
    h = transverse_pair(1.0, 0.7, 0.4)
    rhos = oracle.evolve_exact(h, bloch_product([[0, 0, 0.9], [0.3, 0, 0]]), [0.0, 0.1, 0.2])
    with pytest.raises(ValueError, match="uniformly sampled|1-d"):
        reduced_eom_residual(h, times, rhos, 0b01)


def test_reduced_eom_refuses_states_of_another_site_count():
    h = transverse_pair(1.0, 0.7, 0.4)
    rho = bloch_product([[0, 0, 0.9], [0.3, 0, 0], [0, 0.5, 0]])
    with pytest.raises(ValueError, match="^state and Hamiltonian site counts differ$"):
        reduced_eom_residual(h, [0.0, 0.1, 0.2], [rho] * 3, 0b01)


@pytest.mark.parametrize("dt", [1e-12, 3e-9, 1e-3, 0.1, 7.0])
@pytest.mark.parametrize("t0", [0.0, -2.5, 100.0])
def test_reduced_eom_admits_rounded_uniform_grids(dt, t0):
    """t0 + arange(k) * dt and linspace grids pass however their times round,
    down to a step of 70 units in the last place of t0 = 100."""
    h = transverse_pair(1.0, 0.7, 0.4)
    rho = bloch_product([[0, 0, 0.9], [0.3, 0, 0]])
    for times in (t0 + np.arange(400) * dt, np.linspace(t0, t0 + 399 * dt, 400)):
        assert reduced_eom_residual(h, times, [rho] * 400, 0b01) >= 0.0


def test_spectrum_matches_energy_differences(rng):
    from corrdyn.dynamics import spectrum

    for n in (2, 3):
        h = random_hamiltonian(n, rng)
        gen = build_generator(h)
        rep = spectrum(gen)
        freqs = np.repeat(rep.frequencies, rep.multiplicities)
        diffs = oracle.energy_differences(oracle.eigensystem(h))
        assert freqs.size == diffs.size
        assert np.max(np.abs(freqs - diffs)) < 1e-9
        assert rep.kernel_dim >= 2**n - 1


def test_kernel_counts_degenerate_pair():
    # equal transverse fields, no coupling: heavily degenerate spectrum
    gen = build_generator(transverse_pair(1.0, 1.0, 0.0))
    from corrdyn.dynamics import spectrum

    rep = spectrum(gen)
    assert rep.kernel_dim > 3


@pytest.mark.parametrize("system1", [True, 1.0], ids=repr)
def test_split_sectors_refuses_a_mask_that_is_not_an_integer(system1):
    with pytest.raises(ValueError, match="mask must be an integer"):
        split_sectors(3, system1)
    with pytest.raises(ValueError, match="mask must be an integer"):
        restrict(random_hamiltonian(3, np.random.default_rng(0)), system1)


def test_split_sectors_takes_a_numpy_integer_mask():
    split = split_sectors(3, np.int64(1))
    assert type(split.system1) is int and split == split_sectors(3, 1)


def test_build_generator_refuses_past_the_byte_cap_before_allocating(monkeypatch):
    from corrdyn import hierarchy

    dense = np.full((3, 3), 0.5)
    h = SpinHamiltonian(3, np.ones((3, 3)), {(0, 1): dense, (1, 2): dense})
    monkeypatch.setattr(hierarchy, "BYTES_CAP", hierarchy.generator_bytes(h) - 1)
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match="generator capped"):
            build_generator(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    monkeypatch.setattr(hierarchy, "BYTES_CAP", hierarchy.generator_bytes(h))
    assert build_generator(h).matrix.nnz == hierarchy.generator_nnz(h)
