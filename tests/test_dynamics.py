import numpy as np
import pytest

from corrdyn import oracle, states
from corrdyn.density import CorrelatorVector, extract_correlators, purity
from corrdyn.dynamics import (
    default_step,
    dyson_series,
    evolve,
    resolvent,
    spectrum,
)
from corrdyn.errors import (
    DivergentSeriesError,
    PoleProximityError,
    SizeCapError,
    StepTooLargeError,
)
from corrdyn.hamiltonian import SpinHamiltonian, random_hamiltonian, transverse_pair
from corrdyn.hierarchy import build_generator, decompose_blocks, split_sectors
from conftest import random_mixed_state


def zero_generator(n):
    return build_generator(SpinHamiltonian(n, np.zeros((n, 3))))


def unit_vector(n, **slots):
    v = np.zeros(4**n)
    v[0] = 1.0
    for code, val in slots.items():
        v[int(code)] = val
    return CorrelatorVector(n, v)


def test_zero_generator_constant_trajectory():
    gen = zero_generator(2)
    x0 = extract_correlators(states.cat_state(2))
    traj = evolve(gen, x0, 3.0, dt=0.1)
    assert np.max(np.abs(traj.values - traj.values[0])) == 0.0


def test_larmor_closed_form():
    gen = build_generator(SpinHamiltonian(1, [[0.0, 0.0, 1.0]]))
    x0 = unit_vector(1, **{"1": 1.0})
    traj = evolve(gen, x0, 10.0, dt=0.001, stride=50)
    assert np.max(np.abs(traj.values[:, 1] - np.cos(traj.times))) < 1e-8
    assert np.max(np.abs(traj.values[:, 2] - np.sin(traj.times))) < 1e-8


def test_step_too_large():
    gen = build_generator(SpinHamiltonian(1, [[0.0, 0.0, 3.0]]))
    x0 = unit_vector(1)
    with pytest.raises(StepTooLargeError, match="step too large"):
        evolve(gen, x0, 1.0, dt=1.0)


@pytest.mark.parametrize("t_max", [0.0, -1.0, float("nan")])
def test_evolve_needs_positive_t_max(t_max):
    gen = build_generator(SpinHamiltonian(1, [[0.0, 0.0, 1.0]]))
    for method in ("rk4", "expm"):
        with pytest.raises(ValueError, match="t_max"):
            evolve(gen, unit_vector(1), t_max, dt=0.1, method=method)


def test_default_step_budget():
    gen = build_generator(SpinHamiltonian(1, [[0.0, 0.0, 3.0]]))
    traj = evolve(gen, unit_vector(1), 1.0, dt=None)
    assert traj.times[1] * gen.infinity_norm() <= 0.1 + 1e-15
    # perfbench's tracer counts a traced rk4 run's steps with default_step
    assert default_step(gen) == traj.times[1]


def test_evolve_matches_oracle(rng):
    h = random_hamiltonian(3, rng, 0.8, 0.5)
    gen = build_generator(h)
    rho0 = random_mixed_state(rng, 3)
    x0 = extract_correlators(rho0)
    traj = evolve(gen, x0, 10.0, dt=0.002, stride=250, method="expm")
    ref = oracle.correlator_trajectory(h, rho0, traj.times)
    assert np.max(np.abs(traj.values - ref.values)) < 1e-6


def test_backends_agree(rng):
    # rk4 applies M through its half split, expm through the assembled CSR M,
    # so this also checks the split against M
    h = random_hamiltonian(4, rng, 0.6, 0.4)
    gen = build_generator(h)
    rho0 = random_mixed_state(rng, 4)
    x0 = extract_correlators(rho0)
    a = evolve(gen, x0, 4.0, dt=0.001, stride=400, method="rk4")
    b = evolve(gen, x0, 4.0, dt=0.001, stride=400, method="expm")
    assert np.max(np.abs(a.values - b.values)) < 1e-9


def test_norm_conservation(rng):
    h = random_hamiltonian(3, rng)
    gen = build_generator(h)
    x0 = extract_correlators(random_mixed_state(rng, 3))
    traj = evolve(gen, x0, 5.0, stride=10)  # default step: dt ||M|| = 0.1
    norms = traj.sector_norms()
    assert np.max(np.abs(norms - norms[0])) < 1e-8 * 5.0
    traj = evolve(gen, x0, 5.0, stride=10, method="expm")
    norms = traj.sector_norms()
    assert np.max(np.abs(norms - norms[0])) < 1e-10 * 5.0


def test_purity_consistency_with_oracle(rng):
    h = random_hamiltonian(3, rng)
    gen = build_generator(h)
    rho0 = random_mixed_state(rng, 3)
    x0 = extract_correlators(rho0)
    traj = evolve(gen, x0, 3.0, dt=0.001, stride=300, method="expm")
    rhos = oracle.evolve_exact(h, rho0, traj.times)
    for k in range(len(traj.times)):
        lhs = (1.0 + np.sum(traj.values[k, 1:] ** 2)) / 2**3
        assert abs(lhs - purity(rhos[k])) < 1e-6


def test_resolvent_of_zero_generator():
    gen = zero_generator(1)
    g = resolvent(gen, 1.0 + 0.0j)
    assert np.max(np.abs(g - np.eye(4))) < 1e-12


def test_resolvent_residual_and_conjugate_symmetry(rng):
    gen = build_generator(random_hamiltonian(2, rng))
    z = 0.8 + 0.3j
    g = resolvent(gen, z)
    a = z * np.eye(gen.dim) - gen.matrix.toarray()
    assert np.max(np.abs(a @ g - np.eye(gen.dim))) < 1e-10
    gbar = resolvent(gen, np.conj(z))
    assert np.max(np.abs(gbar - np.conj(g))) < 1e-10


def test_resolvent_pole_rejection():
    gen = build_generator(SpinHamiltonian(1, [[0.0, 0.0, 1.0]]))
    with pytest.raises(PoleProximityError) as err:
        resolvent(gen, 1j)  # exactly on the precession pole
    assert err.value.nearest_pole is not None
    with pytest.raises(PoleProximityError):
        resolvent(gen, 0.0 + 0.0j)  # the kernel pole


def test_spectrum_of_transverse_pair():
    d1, d2, w = 0.8, 0.6, 1.0
    gen = build_generator(transverse_pair(d1, d2, w))
    rep = spectrum(gen)
    e1 = 0.5 * np.sqrt(w**2 + (d1 + d2) ** 2)
    e2 = 0.5 * np.sqrt(w**2 + (d1 - d2) ** 2)
    expected = np.sort([e1 - e2, 2 * e2, e1 + e2, 2 * e1])
    assert np.max(np.abs(rep.frequencies - expected)) < 1e-10
    assert list(rep.multiplicities) == [2, 1, 2, 1]
    assert rep.kernel_dim == 3
    assert abs(e1 - 0.5 * np.sqrt(2.96)) < 1e-15
    assert abs(e2 - 0.5 * np.sqrt(1.04)) < 1e-15


def test_spectrum_degenerate_free_pair():
    # equal splittings, no coupling: frequencies {delta, 2 delta}, larger kernel
    gen = build_generator(transverse_pair(0.7, 0.7, 0.0))
    rep = spectrum(gen)
    assert np.max(np.abs(rep.frequencies - [0.7, 1.4])) < 1e-12
    assert rep.kernel_dim > 3


def test_spectrum_zero_generator():
    rep = spectrum(zero_generator(1))
    assert rep.frequencies.size == 0
    assert rep.kernel_dim == 3


def test_broadened_density_is_lorentzian_sum(rng):
    gen = build_generator(random_hamiltonian(2, rng))
    rep = spectrum(gen, broadening=0.05)
    assert "density" not in vars(rep)  # computed on first access only
    assert np.all(rep.density >= 0.0)
    lam = np.concatenate([-np.repeat(rep.frequencies, rep.multiplicities),
                          np.zeros(rep.kernel_dim),
                          np.repeat(rep.frequencies, rep.multiplicities)])
    manual = np.zeros_like(rep.omega)
    for w in lam:
        manual += 0.05 / np.pi / ((rep.omega - w) ** 2 + 0.05**2)
    assert np.max(np.abs(manual - rep.density)) < 1e-9


@pytest.mark.parametrize("broadening", [-0.5, 0.0, float("inf"), float("nan")])
def test_spectrum_refuses_a_broadening_that_is_not_finite_and_positive(rng, broadening):
    gen = build_generator(random_hamiltonian(2, rng))
    with pytest.raises(ValueError, match="broadening"):
        spectrum(gen, broadening=broadening)


def test_size_caps(rng):
    h = SpinHamiltonian(7, np.zeros((7, 3)))
    gen = build_generator(h)
    with pytest.raises(SizeCapError):
        resolvent(gen, 1.0 + 1.0j)
    with pytest.raises(SizeCapError):
        spectrum(gen)


def test_dyson_zero_interaction_is_exact(rng):
    h = SpinHamiltonian(3, rng.normal(size=(3, 3)), {(1, 2): rng.normal(size=(3, 3))})
    gen = build_generator(h)
    split = split_sectors(3, 0b001)
    diag, inter = decompose_blocks(gen, split)
    z = 0.9 + 0.4j
    approx = dyson_series(diag, inter, z, 0)
    order = split.order
    exact = resolvent(gen, z)[np.ix_(order, order)]
    assert np.max(np.abs(approx - exact)) < 1e-10


def test_dyson_mixed_block_inverse_identity(rng):
    gen = build_generator(random_hamiltonian(3, rng))
    split = split_sectors(3, 0b001)
    diag, _ = decompose_blocks(gen, split)
    z = 1.1 + 0.2j
    g1 = np.linalg.inv(z * np.eye(len(diag["1"])) - diag["1"])
    g2 = np.linalg.inv(z * np.eye(len(diag["2"])) - diag["2"])
    gm = np.linalg.inv(z * np.eye(len(diag["m"])) - diag["m"])
    lhs = np.linalg.inv(gm)
    rhs = (
        np.kron(np.linalg.inv(g1), np.eye(len(g2)))
        + np.kron(np.eye(len(g1)), np.linalg.inv(g2))
        - z * np.eye(len(gm))
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def weak_coupling_hamiltonian(rng, n, ratio):
    """Fields with unit max entry, couplings scaled to exactly `ratio`."""
    fields = rng.normal(size=(n, 3))
    fields /= np.max(np.abs(fields))
    couplings = {}
    for i in range(n):
        for j in range(i + 1, n):
            t = rng.normal(size=(3, 3))
            couplings[(i, j)] = ratio * t / np.max(np.abs(t))
    return SpinHamiltonian(n, fields, couplings)


def test_dyson_weak_coupling_accuracy(rng):
    h = weak_coupling_hamiltonian(rng, 3, 0.01)
    gen = build_generator(h)
    split = split_sectors(3, 0b001)
    diag, inter = decompose_blocks(gen, split)
    z = 1.0 + 0.0j
    approx = dyson_series(diag, inter, z, 4)
    order = split.order
    exact = resolvent(gen, z)[np.ix_(order, order)]
    rel = np.max(np.abs(approx - exact)) / np.max(np.abs(exact))
    assert rel < 1e-8


def test_dyson_divergence_error(rng):
    h = SpinHamiltonian(
        2, 0.01 * rng.normal(size=(2, 3)), {(0, 1): 5.0 * rng.normal(size=(3, 3))}
    )
    gen = build_generator(h)
    split = split_sectors(2, 0b01)
    diag, inter = decompose_blocks(gen, split)
    with pytest.raises(DivergentSeriesError, match="divergent"):
        dyson_series(diag, inter, 0.05 + 0.0j, 4)


def test_dyson_negative_order_raises(rng):
    gen = build_generator(random_hamiltonian(3, rng))
    diag, inter = decompose_blocks(gen, split_sectors(3, 0b001))
    with pytest.raises(ValueError, match="order"):
        dyson_series(diag, inter, 1.0 + 0.5j, -1)


def test_dyson_at_a_pole_of_the_uncoupled_blocks_raises(rng):
    # z = 0 is a pole of every sector block: each system's levels give the
    # zero eigenvalues E_n - E_n
    gen = build_generator(random_hamiltonian(3, rng))
    diag, inter = decompose_blocks(gen, split_sectors(3, 0b001))
    with pytest.raises(PoleProximityError, match="uncoupled resolvent"):
        dyson_series(diag, inter, 0.0 + 0.0j, 4)


@pytest.mark.parametrize(
    "fields, z",
    [([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], 0.0j), ([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], 1j)],
    ids=["zero-H", "field-on-site-0"],
)
def test_dyson_at_an_exact_pole_raises_pole_proximity(fields, z):
    # z is an exact eigenvalue of a sector block, so its solve is singular
    gen = build_generator(SpinHamiltonian(2, fields))
    diag, inter = decompose_blocks(gen, split_sectors(2, 0b01))
    with pytest.raises(PoleProximityError, match="uncoupled resolvent"):
        dyson_series(diag, inter, z, 2)


@pytest.mark.parametrize("z", [complex(np.nan, 1.0), complex(0.5, np.inf)])
def test_resolvent_and_dyson_refuse_a_z_that_is_not_finite(rng, z):
    gen = build_generator(random_hamiltonian(2, rng))
    with pytest.raises(ValueError, match="finite"):
        resolvent(gen, z)
    diag, inter = decompose_blocks(gen, split_sectors(2, 0b01))
    with pytest.raises(ValueError, match="finite"):
        dyson_series(diag, inter, z, 2)


def test_trajectory_expectation_ladder(rng):
    from corrdyn.pauli import parse_label

    gen = build_generator(SpinHamiltonian(1, [[0.0, 0.0, 1.0]]))
    x0 = unit_vector(1, **{"1": 1.0})
    traj = evolve(gen, x0, 2.0, dt=0.001, stride=100)
    plus = traj.expectation(parse_label("+0", 1))
    expected = (np.cos(traj.times) + 1j * np.sin(traj.times)) / np.sqrt(2)
    assert np.max(np.abs(plus - expected)) < 1e-8
