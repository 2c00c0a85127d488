"""<H> is a fixed linear functional of the correlators, and both backends
conserve it to rounding.

With w = (1/2) h_i^a on each one-site code and the `oracle.coupling_terms`
of each coupling on its pair codes, <H> = w . X.  Since [H, H] = 0, w lies
in the left kernel of M, so w . X(t) is constant under the exact flow, and
under rk4 and expm too: every step is a polynomial in M applied to X.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corrdyn import states
from corrdyn.density import extract_correlators
from corrdyn.dynamics import evolve
from corrdyn.hierarchy import build_generator, norm_bound
from corrdyn.oracle import coupling_terms
from conftest import random_hamiltonian

EPS = np.finfo(float).eps
KERNEL_BOUND = 8  # |M^T w|_inf <= KERNEL_BOUND * eps * sum|w|; at most 2.0 measured
DRIFT_BOUND = 64  # |w.X(t) - w.X(0)| <= DRIFT_BOUND * eps * sum|w|; at most 8.2 measured
STEPS = 100


def energy_functional(h) -> np.ndarray:
    """w with <H> = w . X over the 4**N correlator slots."""
    w = np.zeros(4**h.n_sites)
    for i in range(h.n_sites):
        for a in range(3):
            w[(a + 1) << 2 * i] += 0.5 * h.fields[i, a]
    for (i, j), v in h.couplings.items():
        for c, code in coupling_terms(v, i, j):
            w[code] += c
    return w


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    field_exp=st.floats(-2, 1),
    coupling_exp=st.floats(-2, 1),
    pair_density=st.floats(0, 1),
)
def test_both_backends_conserve_the_energy(n, seed, field_exp, coupling_exp, pair_density):
    rng = np.random.default_rng(seed)
    h = random_hamiltonian(n, rng, 10.0**field_exp, 10.0**coupling_exp, pair_density)
    bloch = rng.normal(size=(n, 3))
    bloch *= rng.random((n, 1)) / np.linalg.norm(bloch, axis=1, keepdims=True)
    x0 = extract_correlators(states.bloch_product(bloch))
    gen = build_generator(h)
    w = energy_functional(h)
    scale = EPS * np.abs(w).sum()
    assert np.max(np.abs(gen.matrix.T @ w)) <= KERNEL_BOUND * scale
    dt = 0.5 / norm_bound(h)
    for method in ("rk4", "expm"):
        energy = evolve(gen, x0, STEPS * dt, dt, method=method).values @ w
        drift = np.max(np.abs(energy - energy[0]))
        assert drift <= DRIFT_BOUND * scale, (method, drift / scale)
