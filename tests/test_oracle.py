import numpy as np
import pytest

from corrdyn import oracle, states
from corrdyn.density import purity
from corrdyn.errors import SizeCapError
from corrdyn.hamiltonian import SpinHamiltonian, transverse_pair
from conftest import random_hamiltonian, random_mixed_state


def test_single_spin_matrix():
    h = SpinHamiltonian(1, [[0.0, 0.0, 1.0]])
    m = oracle.build_hamiltonian_matrix(h)
    assert np.allclose(m, np.diag([0.5, -0.5]))


def test_transverse_pair_eigenvalues():
    d1, d2, w = 0.8, 0.6, 1.0
    es = oracle.eigensystem(transverse_pair(d1, d2, w))
    e1 = 0.5 * np.sqrt(w**2 + (d1 + d2) ** 2)
    e2 = 0.5 * np.sqrt(w**2 + (d1 - d2) ** 2)
    assert np.max(np.abs(es.energies - sorted([-e1, -e2, e2, e1]))) < 1e-12


def test_heisenberg_pair_gap():
    # isotropic coupling V = J * identity: singlet at -3J/2, triplet at +J/2
    j = 0.7
    h = SpinHamiltonian(2, np.zeros((2, 3)), {(0, 1): j * np.eye(3)})
    es = oracle.eigensystem(h)
    assert np.max(np.abs(es.energies - [-1.5 * j, 0.5 * j, 0.5 * j, 0.5 * j])) < 1e-12
    assert abs((es.energies[-1] - es.energies[0]) - 2 * j) < 1e-12


def test_size_cap():
    with pytest.raises(SizeCapError):
        oracle.build_hamiltonian_matrix(SpinHamiltonian(13, np.zeros((13, 3))))


def test_commuting_state_is_stationary():
    h = SpinHamiltonian(1, [[0.0, 0.0, 1.0]])
    rho0 = states.bloch_product([[0.0, 0.0, 0.7]])
    rhos = oracle.evolve_exact(h, rho0, [0.0, 0.8, 2.3])
    for r in rhos:
        assert np.max(np.abs(r.data - rho0.data)) < 1e-13


def test_unitarity_preserves_purity_and_trace(rng):
    h = random_hamiltonian(3, rng)
    rho0 = random_mixed_state(rng, 3)
    p0 = purity(rho0)
    for r in oracle.evolve_exact(h, rho0, np.linspace(0.0, 7.0, 9)):
        assert abs(purity(r) - p0) < 1e-12
        assert abs(np.trace(r.data) - 1.0) < 1e-12


def test_group_property(rng):
    h = random_hamiltonian(2, rng)
    rho0 = random_mixed_state(rng, 2)
    t1, t2 = 0.9, 1.7
    direct = oracle.evolve_exact(h, rho0, [t1 + t2])[0]
    first = oracle.evolve_exact(h, rho0, [t1])[0]
    second = oracle.evolve_exact(h, first, [t2])[0]
    assert np.max(np.abs(direct.data - second.data)) < 1e-12


def test_cat_state_phase_rotation():
    # uniform z fields advance the cat phase linearly, phi(t) = phi0 - 2ht,
    # so the pair coherences rotate at twice the field
    hz = 0.5
    h = SpinHamiltonian(2, [[0.0, 0.0, hz], [0.0, 0.0, hz]])
    rho0 = states.cat_state(2, 0.0)
    times = np.linspace(0.0, 3.0, 7)
    traj = oracle.correlator_trajectory(h, rho0, times)
    for k, t in enumerate(times):
        phi = 2 * hz * t
        vals = traj.values[k]
        assert abs(vals[5] - np.cos(phi)) < 1e-12  # xx
        assert abs(vals[9] - np.sin(phi)) < 1e-12  # xy
        assert abs(vals[15] - 1.0) < 1e-12  # zz

    # under a pure zz coupling both cat branches sit in the same eigenspace,
    # so the state is stationary
    v = np.zeros((3, 3))
    v[2, 2] = 0.5
    hc = SpinHamiltonian(2, np.zeros((2, 3)), {(0, 1): v})
    traj = oracle.correlator_trajectory(hc, rho0, times)
    assert np.max(np.abs(traj.values - traj.values[0])) < 1e-12


def test_free_spin_larmor_closed_form():
    h = SpinHamiltonian(1, [[0.0, 0.0, 2.0]])
    rho0 = states.bloch_product([[1.0, 0.0, 0.0]])
    times = np.linspace(0.0, 4.0, 17)
    traj = oracle.correlator_trajectory(h, rho0, times)
    assert np.max(np.abs(traj.values[:, 1] - np.cos(2.0 * times))) < 1e-12
    assert np.max(np.abs(traj.values[:, 2] - np.sin(2.0 * times))) < 1e-12


def test_constant_when_hamiltonian_vanishes():
    h = SpinHamiltonian(3, np.zeros((3, 3)))
    rho0 = states.ghz_state(3)
    traj = oracle.correlator_trajectory(h, rho0, [0.0, 1.0, 5.0])
    assert np.max(np.abs(traj.values - traj.values[0])) < 1e-13


def test_trajectory_conserves_squared_norm(rng):
    h = random_hamiltonian(3, rng)
    rho0 = random_mixed_state(rng, 3)
    traj = oracle.correlator_trajectory(h, rho0, np.linspace(0.0, 5.0, 11))
    norms = traj.sector_norms()
    assert np.max(np.abs(norms - norms[0])) < 1e-12
