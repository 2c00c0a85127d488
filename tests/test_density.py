from typing import NamedTuple

import numpy as np
import pytest

from corrdyn import oracle, pauli, states
from corrdyn.density import (
    CorrelatorVector,
    DensityMatrix,
    admit_sites,
    extract_correlators,
    from_correlators,
    operator_matrix,
    partial_trace,
    partial_trace_array,
    purity,
    purity_from_correlators,
    real_coefficients,
)
from corrdyn.errors import SizeCapError
from corrdyn.hamiltonian import SpinHamiltonian

from conftest import random_mixed_state, random_pure_state, up_right_mixture


class PureTwoQubitResiduals(NamedTuple):
    """Residuals of the four pure-state constraints on two-qubit correlators.

    `norm` is signed (it equals 3 for the maximally mixed state); the other
    three are max-abs over their free indices.  All four vanish iff the state
    is pure.
    """

    norm: float
    site0: float
    site1: float
    tensor: float

    @property
    def max_abs(self) -> float:
        return max(abs(self.norm), self.site0, self.site1, self.tensor)


def check_pure_two_qubit(v: CorrelatorVector) -> PureTwoQubitResiduals:
    """Evaluate the pure-state constraints for a two-site correlator table.

    With a = <sigma_0>, b = <sigma_1> and T[mu, nu] = <sigma_0^mu sigma_1^nu>:

        3 - (a.a + b.b + sum T^2)                  (norm constraint)
        a - T b                                    (per axis of site 0)
        b - T^T a                                  (per axis of site 1)
        T - a b^T + (1/2) eps eps : T T            (tensor constraint)
    """
    if v.n_sites != 2:
        raise ValueError("pure-state constraint check requires exactly 2 sites")
    vals = v.values
    a = np.array([vals[pauli.with_digit(0, 0, d)] for d in (1, 2, 3)])
    b = np.array([vals[pauli.with_digit(0, 1, d)] for d in (1, 2, 3)])
    t = np.array(
        [
            [vals[pauli.with_digit(pauli.with_digit(0, 0, d0), 1, d1)] for d1 in (1, 2, 3)]
            for d0 in (1, 2, 3)
        ]
    )
    norm = 3.0 - (a @ a + b @ b + np.sum(t * t))
    site0 = float(np.max(np.abs(a - t @ b)))
    site1 = float(np.max(np.abs(b - t.T @ a)))
    eps = np.zeros((3, 3, 3))
    for i, j, k in np.ndindex(3, 3, 3):
        eps[i, j, k] = pauli._eps_digits(i + 1, j + 1, k + 1)
    quad = 0.5 * np.einsum("mal,nbg,ab,lg->mn", eps, eps, t, t)
    tensor = float(np.max(np.abs(t - np.outer(a, b) + quad)))
    return PureTwoQubitResiduals(float(norm), site0, site1, tensor)


def test_single_site_up_state():
    v = np.array([1.0, 0.0, 0.0, 1.0])  # <z> = 1
    rho = from_correlators(CorrelatorVector(1, v))
    assert np.allclose(rho.data, np.diag([1.0, 0.0]))


def test_cat_state_correlators():
    v = extract_correlators(states.cat_state(2))
    assert abs(v.value("x0 x1") - 1) < 1e-12
    assert abs(v.value("y0 y1") + 1) < 1e-12
    assert abs(v.value("z0 z1") - 1) < 1e-12
    assert abs(purity(states.cat_state(2)) - 1.0) < 1e-12
    # every other slot vanishes
    nonzero = {0, 5, 10, 15}
    for c in range(16):
        if c not in nonzero:
            assert abs(v.values[c]) < 1e-12
    # and the reverse direction reproduces the projector
    assert np.max(np.abs(from_correlators(v).data - states.cat_state(2).data)) < 1e-12


def test_maximally_mixed():
    n = 2
    v = np.zeros(4**n)
    v[0] = 1.0
    rho = from_correlators(CorrelatorVector(n, v))
    assert np.allclose(rho.data, np.eye(4) / 4)
    assert abs(purity(rho) - 0.25) < 1e-12
    back = extract_correlators(rho)
    assert np.max(np.abs(back.values[1:])) < 1e-12


def test_ghz_correlator_table():
    v = extract_correlators(states.ghz_state(3))
    for pair in ("z0 z1", "z0 z2", "z1 z2"):
        assert abs(v.value(pair) - 1) < 1e-12
    assert abs(v.value("x0 x1 x2") - 1) < 1e-12
    for trip in ("x0 y1 y2", "y0 x1 y2", "y0 y1 x2"):
        assert abs(v.value(trip) + 1) < 1e-12
    for single in ("x0", "y0", "z0", "z1", "z2"):
        assert abs(v.value(single)) < 1e-12


def test_w_state_correlator_table():
    v = extract_correlators(states.w_state(3))
    for i in range(3):
        assert abs(v.value(f"z{i}") + 1 / 3) < 1e-12
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert abs(v.value(f"z{i} z{j}") + 1 / 3) < 1e-12
        assert abs(v.value(f"x{i} x{j}") - 2 / 3) < 1e-12
        assert abs(v.value(f"y{i} y{j}") - 2 / 3) < 1e-12
    assert abs(v.value("z0 z1 z2") - 1) < 1e-12
    # two flips against one z eigenvalue: the mixed triple is negative
    assert abs(v.value("x0 x1 z2") + 2 / 3) < 1e-12
    assert abs(v.value("y0 y1 z2") + 2 / 3) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_round_trip_random_states(rng, n):
    for _ in range(20):
        rho = random_mixed_state(rng, n)
        v = extract_correlators(rho)
        back = from_correlators(v)
        assert np.max(np.abs(back.data - rho.data)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_purity_two_routes(rng, n):
    for _ in range(50):
        rho = random_mixed_state(rng, n)
        assert abs(purity(rho) - purity_from_correlators(extract_correlators(rho))) < 1e-12


def test_single_spin_purity_value():
    rho = states.bloch_product([[0.6, 0.0, 0.0]])
    assert abs(purity(rho) - 0.68) < 1e-12


def test_partial_trace_product_state():
    rho = states.bloch_product([[0.3, 0.2, 0.1], [0.0, 0.0, 0.9]])
    r0 = partial_trace(rho, 0b01)
    expected = states.bloch_product([[0.3, 0.2, 0.1]])
    assert np.max(np.abs(r0.data - expected.data)) < 1e-12


def test_partial_trace_ghz_single_site():
    r0 = partial_trace(states.ghz_state(3), 0b001)
    assert np.max(np.abs(r0.data - np.eye(2) / 2)) < 1e-12


def test_partial_trace_empty_keep():
    rho = states.ghz_state(2)
    scalar = partial_trace(rho, 0)
    assert scalar.n_sites == 0
    assert np.allclose(scalar.data, [[1.0]])


def test_partial_trace_matches_correlator_restriction(rng):
    rho = random_mixed_state(rng, 3)
    v3 = extract_correlators(rho)
    v2 = extract_correlators(partial_trace(rho, 0b101))
    for d0 in range(4):
        for d2 in range(4):
            full_code = d0 + d2 * 16
            red_code = d0 + d2 * 4
            assert abs(v3.values[full_code] - v2.values[red_code]) < 1e-12


def test_trace_preserved_by_partial_trace(rng):
    rho = random_mixed_state(rng, 4)
    for keep in (0b0011, 0b1010, 0b0111):
        assert abs(np.trace(partial_trace(rho, keep).data) - 1.0) < 1e-12


def test_pure_constraints_cat_and_mixed():
    res = check_pure_two_qubit(extract_correlators(states.cat_state(2, 0.3)))
    assert res.max_abs < 1e-12
    v = np.zeros(16)
    v[0] = 1.0
    res = check_pure_two_qubit(CorrelatorVector(2, v))
    assert abs(res.norm - 3.0) < 1e-12


def test_pure_constraints_random_pure_states(rng):
    for _ in range(30):
        rho = random_pure_state(rng, 2)
        res = check_pure_two_qubit(extract_correlators(rho))
        assert res.max_abs < 1e-10


def test_pure_constraints_fail_for_mixture():
    res = check_pure_two_qubit(extract_correlators(up_right_mixture()))
    assert res.max_abs > 0.1


def test_pure_constraints_wrong_size():
    v = np.zeros(4)
    v[0] = 1.0
    with pytest.raises(ValueError, match="2 sites"):
        check_pure_two_qubit(CorrelatorVector(1, v))


def test_positivity_diagnostics(rng):
    rho = random_mixed_state(rng, 2)
    assert np.linalg.eigvalsh(rho.data)[0] > -1e-10

    # a three-point-only table is never pure, but stays positive at norm 1/2
    n = 3
    v = np.zeros(4**n)
    v[0] = 1.0
    tensor_slots = [
        a + 4 * b + 16 * c for a in (1, 2, 3) for b in (1, 2, 3) for c in (1, 2, 3)
    ]
    v[tensor_slots] = 0.5 / np.sqrt(len(tensor_slots))
    rho3 = from_correlators(CorrelatorVector(n, v))
    assert np.linalg.eigvalsh(rho3.data)[0] >= -1e-10
    p = purity(rho3)
    assert p < 1.0
    assert np.max(np.abs(rho3.data @ rho3.data - rho3.data)) > 1e-3


def test_correlator_vector_invariants():
    v = np.zeros(4)
    v[0] = 1.0
    v[3] = 2.0  # |<z>| > 1 is unphysical
    with pytest.raises(ValueError, match="exceed"):
        CorrelatorVector(1, v)
    bad = np.zeros(4)
    with pytest.raises(ValueError, match="slot 0"):
        CorrelatorVector(1, bad)


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(1, np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="unit trace"):
        DensityMatrix(1, np.eye(2))


def test_density_matrix_tolerances_refuse_a_defect_of_1e_9():
    with pytest.raises(ValueError, match="unit trace"):
        DensityMatrix(1, np.diag([0.5 + 1e-9, 0.5]))
    # anti-Hermitian part A with max |rho - rho^dagger| = |2A| = 1e-9
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(1, np.eye(2) / 2 + 0.5e-9 * np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_real_coefficients_refuses_an_imaginary_part_of_1e_8():
    # tr(P_0 A) = 1 + 1e-8 i
    mats = ((0.5 + 0.5e-8j) * np.eye(2))[None]
    with pytest.raises(ValueError, match="not Hermitian enough"):
        real_coefficients(mats)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("slot", [0, 5])
def test_correlator_vector_rejects_non_finite(bad, slot):
    v = np.zeros(16)
    v[0] = 1.0
    v[slot] = bad
    with pytest.raises(ValueError, match="finite"):
        CorrelatorVector(2, v)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_density_matrix_rejects_non_finite(bad, where):
    d = np.eye(2, dtype=complex) / 2
    d[where] = bad
    with pytest.raises(ValueError, match="finite"):
        DensityMatrix(1, d)


@pytest.mark.parametrize("bad, match", [(np.nan, "finite"), (np.inf, "length")])
def test_bloch_product_rejects_non_finite(bad, match):
    with pytest.raises(ValueError, match=match):
        states.bloch_product([[bad, 0.0, 0.0], [0.0, 0.0, 1.0]])


def test_dense_site_cap():
    # the cap check fires before any shape validation
    with pytest.raises(SizeCapError):
        DensityMatrix(13, np.eye(2) / 2)
    with pytest.raises(SizeCapError):
        CorrelatorVector(13, np.zeros(4))


@pytest.mark.parametrize(
    "make",
    [
        lambda: DensityMatrix(13, np.eye(2) / 2),
        lambda: CorrelatorVector(13, np.zeros(4)),
        lambda: oracle.build_hamiltonian_matrix(SpinHamiltonian(13, np.zeros((13, 3)))),
        lambda: states.bloch_product([[0.0, 0.0, 1.0]] * 13),
    ],
    ids=["density-matrix", "correlator-vector", "hamiltonian-matrix", "bloch-product"],
)
def test_every_dense_site_cap_gives_the_cli_message(make):
    with pytest.raises(SizeCapError, match=r"^sites capped at 12, got 13$"):
        make()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("dtype", [float, complex])
def test_operator_matrix_of_a_stack_equals_one_call_per_vector(rng, n, k, dtype):
    values = rng.normal(size=(4**n, k)).astype(dtype)
    if dtype is complex:
        values += 1j * rng.normal(size=(4**n, k))
    stack = operator_matrix(values)
    assert stack.shape == (k, 2**n, 2**n)
    for j in range(k):
        assert np.array_equal(stack[j], operator_matrix(values[:, j]))


@pytest.mark.parametrize("n", [True, 2.0, np.float64(2.0), "2"], ids=repr)
def test_site_counts_must_be_integers(n):
    makers = [
        admit_sites,
        lambda n: DensityMatrix(n, np.eye(4) / 4),
        lambda n: CorrelatorVector(n, np.eye(16)[0]),
        states.ghz_state,
        states.w_state,
        lambda n: states.cat_state(n, 0.5),
    ]
    for make in makers:
        with pytest.raises(ValueError, match="n_sites must be an integer"):
            make(n)


def test_numpy_integer_site_counts_are_taken():
    rho = states.ghz_state(np.int64(2))
    assert np.array_equal(rho.data, states.ghz_state(2).data)


@pytest.mark.parametrize("keep", [True, 1.0], ids=repr)
def test_partial_trace_refuses_a_mask_that_is_not_an_integer(keep):
    rho = states.ghz_state(3)
    with pytest.raises(ValueError, match="mask must be an integer"):
        partial_trace(rho, keep)
    with pytest.raises(ValueError, match="mask must be an integer"):
        partial_trace_array(rho.data, 3, keep)
    assert np.array_equal(partial_trace(rho, np.int64(1)).data, partial_trace(rho, 1).data)
